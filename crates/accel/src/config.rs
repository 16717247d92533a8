//! Accelerator core configuration.

use serde::{Deserialize, Serialize};

/// Hardware parameters of one accelerator core (Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Output neurons processed per cycle (DianNao `Tn`).
    pub tn: usize,
    /// Input values consumed per output neuron per cycle (DianNao `Ti`).
    pub ti: usize,
    /// Weight buffer capacity in bytes (Table II: 128 KB).
    pub weight_buffer_bytes: usize,
    /// Each of the two data buffers, in bytes (Table II: 32 KB).
    pub data_buffer_bytes: usize,
    /// Bytes per value (16-bit fixed point = 2).
    pub bytes_per_value: usize,
    /// Off-chip bandwidth in bytes per core cycle (LPDDR3-1600 single
    /// channel ≈ 12.8 GB/s at a 1 GHz core clock).
    pub dram_bytes_per_cycle: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
}

impl CoreConfig {
    /// The Table II configuration: 16×16 PE array, 128 KB weight buffer,
    /// two 32 KB data buffers, 16-bit fixed point.
    pub fn diannao() -> Self {
        Self {
            tn: 16,
            ti: 16,
            weight_buffer_bytes: 128 * 1024,
            data_buffer_bytes: 32 * 1024,
            bytes_per_value: 2,
            dram_bytes_per_cycle: 12.8,
            clock_ghz: 1.0,
        }
    }

    /// Multiply-accumulate throughput per cycle (`Tn × Ti`).
    pub fn macs_per_cycle(&self) -> usize {
        self.tn * self.ti
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero or non-positive (configurations are
    /// construction-time constants; a bad one is a programming error).
    pub fn assert_valid(&self) {
        assert!(self.tn > 0 && self.ti > 0, "PE tile dims must be positive");
        assert!(self.weight_buffer_bytes > 0, "weight buffer must be positive");
        assert!(self.data_buffer_bytes > 0, "data buffers must be positive");
        assert!(self.bytes_per_value > 0, "bytes_per_value must be positive");
        assert!(self.dram_bytes_per_cycle > 0.0, "dram bandwidth must be positive");
        assert!(self.clock_ghz > 0.0, "clock must be positive");
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::diannao()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diannao_matches_table_ii() {
        let c = CoreConfig::diannao();
        assert_eq!(c.macs_per_cycle(), 256); // 16x16 PEs
        assert_eq!(c.weight_buffer_bytes, 131072);
        assert_eq!(c.data_buffer_bytes, 32768);
        assert_eq!(c.bytes_per_value, 2);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_config_panics() {
        let mut c = CoreConfig::diannao();
        c.tn = 0;
        c.assert_valid();
    }

    #[test]
    fn default_is_the_diannao_core() {
        assert_eq!(CoreConfig::default(), CoreConfig::diannao());
    }

    #[test]
    #[should_panic(expected = "clock must be positive")]
    fn zero_clock_panics() {
        CoreConfig { clock_ghz: 0.0, ..CoreConfig::diannao() }.assert_valid();
    }

    #[test]
    #[should_panic(expected = "dram bandwidth must be positive")]
    fn zero_dram_bandwidth_panics() {
        CoreConfig { dram_bytes_per_cycle: 0.0, ..CoreConfig::diannao() }.assert_valid();
    }
}
