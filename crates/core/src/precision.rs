//! The numeric precision of the deployed inference path.
//!
//! The simulated accelerator is a 16-bit fixed-point machine (§II of the
//! paper), so [`Precision::I16`] is the default everywhere: plans charge
//! 2 bytes per value crossing the NoC and evaluation runs the quantized
//! i16 forward pass ([`lts_nn::QuantizedNetwork`]). [`Precision::F32`]
//! keeps the full-precision reference path for accuracy and traffic
//! comparisons (4 bytes per value, f32 arithmetic).

use serde::{Deserialize, Serialize};

/// Element precision of the deployed inference path: both the arithmetic
/// evaluation runs under and the element width the communication-volume
/// model charges per value crossing the NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Precision {
    /// 32-bit IEEE float: the training master format, kept as the
    /// reference inference path.
    F32,
    /// 16-bit integers with per-tensor symmetric scales: the accelerator's
    /// native width and the default deployment path.
    #[default]
    I16,
}

impl Precision {
    /// Bytes one element occupies on the wire (what the comm-volume model
    /// multiplies transition element counts by).
    pub fn bytes_per_value(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::I16 => 2,
        }
    }

    /// Short lowercase label for reports and benchmark record names.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::I16 => "i16",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_the_formats() {
        assert_eq!(Precision::F32.bytes_per_value(), 4);
        assert_eq!(Precision::I16.bytes_per_value(), 2);
        // The default must stay the accelerator width: every existing plan
        // in the repo charges 2 bytes per value.
        assert_eq!(Precision::default().bytes_per_value(), 2);
    }

    #[test]
    fn labels_round_trip_through_display() {
        assert_eq!(Precision::F32.to_string(), "f32");
        assert_eq!(Precision::I16.to_string(), "i16");
    }

    #[test]
    fn precisions_round_trip_through_serde_and_differ() {
        for p in [Precision::F32, Precision::I16] {
            let json = serde_json::to_string(&p).unwrap();
            assert_eq!(serde_json::from_str::<Precision>(&json).unwrap(), p);
        }
        assert_ne!(Precision::F32, Precision::I16);
        assert_ne!(Precision::F32.label(), Precision::I16.label());
    }
}
