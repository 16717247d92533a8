//! Layer-partition cost model.

use crate::config::CoreConfig;
use crate::energy::ComputeEnergyModel;
use lts_nn::descriptor::{dims_len, LayerKind, LayerSpec};
use serde::{Deserialize, Serialize};

/// Cost of executing one layer partition on one core, for a single input
/// image.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Core cycles (compute/memory overlap already applied).
    pub cycles: u64,
    /// Pure compute cycles before memory overlap.
    pub compute_cycles: u64,
    /// Cycles the memory stream needs (0 when everything fits on-chip).
    pub memory_cycles: u64,
    /// Multiply-accumulates executed.
    pub macs: u64,
    /// Bytes fetched from DRAM (weights streamed once + buffer overflow
    /// refills).
    pub dram_bytes: u64,
    /// On-chip SRAM traffic in bytes (weight + data buffer reads/writes).
    pub sram_bytes: u64,
    /// Compute + memory energy in picojoules.
    pub energy_pj: f64,
}

impl LayerCost {
    /// A zero cost (identity for accumulation).
    pub fn zero() -> Self {
        Self {
            cycles: 0,
            compute_cycles: 0,
            memory_cycles: 0,
            macs: 0,
            dram_bytes: 0,
            sram_bytes: 0,
            energy_pj: 0.0,
        }
    }

    /// Accumulates another cost, serializing cycles (layers execute in
    /// sequence).
    pub fn accumulate(&mut self, other: &LayerCost) {
        self.cycles += other.cycles;
        self.compute_cycles += other.compute_cycles;
        self.memory_cycles += other.memory_cycles;
        self.macs += other.macs;
        self.dram_bytes += other.dram_bytes;
        self.sram_bytes += other.sram_bytes;
        self.energy_pj += other.energy_pj;
    }
}

/// Analytic DianNao core model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreModel {
    config: CoreConfig,
    energy: ComputeEnergyModel,
    /// Whether each core's weight partition is already distributed
    /// on-chip before the single pass starts (the paper's setting: "the
    /// trained CMP-friendly neural network model is already prepared when
    /// enabling inference", as in DaDianNao's resident weights). When
    /// false, weights stream from DRAM and FC layers become memory-bound.
    weights_resident: bool,
}

impl CoreModel {
    /// Creates a model with the default energy coefficients and resident
    /// weights (the paper's configuration).
    pub fn new(config: CoreConfig) -> Self {
        config.assert_valid();
        Self { config, energy: ComputeEnergyModel::default(), weights_resident: true }
    }

    /// Creates a model with explicit energy coefficients.
    pub fn with_energy(config: CoreConfig, energy: ComputeEnergyModel) -> Self {
        config.assert_valid();
        Self { config, energy, weights_resident: true }
    }

    /// Sets whether weights are pre-distributed on-chip (see type docs).
    pub fn with_resident_weights(mut self, resident: bool) -> Self {
        self.weights_resident = resident;
        self
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Cost of computing `out_units_assigned` of the layer's output
    /// channels/neurons on one core (single image).
    ///
    /// Pool/activation/flatten layers ignore `out_units_assigned` scaling
    /// subtleties and scale by the assigned share of output channels.
    ///
    /// # Panics
    ///
    /// Panics if `out_units_assigned` exceeds the layer's output units.
    pub fn layer_cost(&self, spec: &LayerSpec, out_units_assigned: usize) -> LayerCost {
        let out_total = spec.out_dims.0;
        assert!(
            out_units_assigned <= out_total,
            "assigned {out_units_assigned} of {out_total} output units"
        );
        if out_units_assigned == 0 {
            return LayerCost::zero();
        }
        let cost = match spec.kind {
            LayerKind::Conv { kernel, groups, .. } => {
                let in_per_group = spec.in_dims.0 / groups;
                let contrib = in_per_group * kernel * kernel;
                let positions = (spec.out_dims.1 * spec.out_dims.2) as u64;
                self.dot_product_cost(
                    out_units_assigned,
                    contrib,
                    positions,
                    dims_len(spec.in_dims),
                    out_units_assigned * (spec.out_dims.1 * spec.out_dims.2),
                )
            }
            LayerKind::Linear { in_f, .. } => {
                self.dot_product_cost(out_units_assigned, in_f, 1, in_f, out_units_assigned)
            }
            LayerKind::Pool { kernel, .. } => {
                // NFU-2 comparisons: Tn lanes, one window element per cycle.
                let positions = (out_units_assigned * spec.out_dims.1 * spec.out_dims.2) as u64;
                let ops = positions * (kernel * kernel) as u64;
                let cycles = ops.div_ceil(self.config.tn as u64);
                let sram = (dims_len(spec.in_dims) * out_units_assigned / spec.in_dims.0.max(1)
                    + out_units_assigned * spec.out_dims.1 * spec.out_dims.2)
                    * self.config.bytes_per_value;
                LayerCost {
                    cycles,
                    compute_cycles: cycles,
                    memory_cycles: 0,
                    macs: ops,
                    dram_bytes: 0,
                    sram_bytes: sram as u64,
                    energy_pj: self.energy.op_pj * ops as f64
                        + self.energy.sram_pj_per_byte * sram as f64,
                }
            }
            LayerKind::Activation => {
                // NFU-3 applies the activation inline as outputs stream out:
                // costs no extra cycles beyond one pass at Tn lanes.
                let values = (out_units_assigned * spec.out_dims.1 * spec.out_dims.2) as u64;
                let cycles = values.div_ceil(self.config.tn as u64);
                LayerCost {
                    cycles,
                    compute_cycles: cycles,
                    memory_cycles: 0,
                    macs: values,
                    dram_bytes: 0,
                    sram_bytes: 0,
                    energy_pj: self.energy.op_pj * values as f64,
                }
            }
            LayerKind::Flatten => LayerCost::zero(),
        };
        if lts_obs::enabled() {
            lts_obs::counter_add("accel.layer_costs", 1);
            lts_obs::counter_add("accel.macs", cost.macs);
            lts_obs::counter_add("accel.compute_cycles", cost.compute_cycles);
            lts_obs::counter_add("accel.memory_cycles", cost.memory_cycles);
            lts_obs::counter_add("accel.dram_bytes", cost.dram_bytes);
        }
        cost
    }

    /// Shared conv/linear tile model: `out_assigned` output units each
    /// needing `contrib` input values, at `positions` spatial positions.
    fn dot_product_cost(
        &self,
        out_assigned: usize,
        contrib: usize,
        positions: u64,
        input_values: usize,
        output_values: usize,
    ) -> LayerCost {
        let tn = self.config.tn as u64;
        let ti = self.config.ti as u64;
        let out_tiles = (out_assigned as u64).div_ceil(tn);
        let in_tiles = (contrib as u64).div_ceil(ti);
        let compute_cycles = out_tiles * in_tiles * positions;
        let macs = out_assigned as u64 * contrib as u64 * positions;

        let bpv = self.config.bytes_per_value as u64;
        let weight_bytes = out_assigned as u64 * contrib as u64 * bpv;
        let input_bytes = input_values as u64 * bpv;
        let output_bytes = output_values as u64 * bpv;
        // With resident weights (the paper's setting) the partition was
        // distributed before the pass started and costs nothing here;
        // otherwise weights stream from DRAM once per pass.
        let dram_weights = if self.weights_resident { 0 } else { weight_bytes };
        // Inputs/outputs overflow their 32 KB data buffers into DRAM.
        let dbuf = self.config.data_buffer_bytes as u64;
        let dram_io = input_bytes.saturating_sub(dbuf) + output_bytes.saturating_sub(dbuf);
        let dram_bytes = dram_weights + dram_io;
        let memory_cycles = (dram_bytes as f64 / self.config.dram_bytes_per_cycle).ceil() as u64;

        let sram_bytes = weight_bytes + input_bytes + output_bytes;
        let energy_pj = self.energy.mac_pj * macs as f64
            + self.energy.sram_pj_per_byte * sram_bytes as f64
            + self.energy.dram_pj_per_byte * dram_bytes as f64;
        LayerCost {
            cycles: compute_cycles.max(memory_cycles),
            compute_cycles,
            memory_cycles,
            macs,
            dram_bytes,
            sram_bytes,
            energy_pj,
        }
    }

    /// Cost of the whole network on a single core (the non-parallel
    /// reference point).
    ///
    /// When `lts-obs` recording is enabled, an `accel.single_core#N`
    /// cycle track receives one interval per layer — phase
    /// `compute-bound` or `memory-bound` by which stream dominated —
    /// whose lengths are the exact per-layer `cycles`, so the track
    /// total equals the returned `cycles` bit for bit.
    pub fn single_core_cost(&self, layers: &[LayerSpec]) -> LayerCost {
        let track = lts_obs::cycle_track("accel.single_core");
        let mut total = LayerCost::zero();
        for spec in layers {
            let cost = self.layer_cost(spec, spec.out_dims.0);
            let phase = if cost.memory_cycles > cost.compute_cycles {
                "memory-bound"
            } else {
                "compute-bound"
            };
            lts_obs::cycle_record(track, phase, &spec.name, cost.cycles);
            total.accumulate(&cost);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_nn::descriptor::SpecBuilder;

    fn model() -> CoreModel {
        CoreModel::new(CoreConfig::diannao())
    }

    #[test]
    fn conv_cycles_match_tile_formula() {
        // 32 out channels, 16 in channels, 3x3 kernel, 8x8 output.
        let spec = SpecBuilder::new("n", (16, 8, 8)).conv("c", 32, 3, 1, 1, 1).build();
        let c = model().layer_cost(spec.layer("c").unwrap(), 32);
        // out tiles = 2, in tiles = ceil(16*9/16) = 9, positions = 64.
        assert_eq!(c.compute_cycles, 2 * 9 * 64);
        assert_eq!(c.macs, 32 * 16 * 9 * 64);
    }

    #[test]
    fn partitioning_reduces_cycles_roughly_linearly() {
        let spec = SpecBuilder::new("n", (64, 16, 16)).conv("c", 64, 3, 1, 1, 1).build();
        let layer = spec.layer("c").unwrap();
        let whole = model().layer_cost(layer, 64);
        let quarter = model().layer_cost(layer, 16);
        let ratio = whole.compute_cycles as f64 / quarter.compute_cycles as f64;
        assert!((3.5..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tiny_partitions_underutilize_the_array() {
        // 1 output channel still costs a full Tn tile.
        let spec = SpecBuilder::new("n", (16, 8, 8)).conv("c", 32, 3, 1, 1, 1).build();
        let layer = spec.layer("c").unwrap();
        let one = model().layer_cost(layer, 1);
        let sixteen = model().layer_cost(layer, 16);
        assert_eq!(one.compute_cycles, sixteen.compute_cycles);
    }

    #[test]
    fn fc_layer_is_memory_bound_only_when_weights_stream() {
        // 4096x4096 FC = 32 MB of weights >> any on-chip buffer.
        let spec = SpecBuilder::new("n", (4096, 1, 1)).linear("ip", 4096).build();
        let streaming = CoreModel::new(CoreConfig::diannao())
            .with_resident_weights(false)
            .layer_cost(spec.layer("ip").unwrap(), 4096);
        assert!(
            streaming.memory_cycles > streaming.compute_cycles,
            "streaming FC should be DRAM bound"
        );
        assert_eq!(streaming.cycles, streaming.memory_cycles);
        // The paper's setting: weights resident, so compute dominates.
        let resident = model().layer_cost(spec.layer("ip").unwrap(), 4096);
        assert!(resident.cycles < streaming.cycles);
        assert!(resident.energy_pj < streaming.energy_pj, "no DRAM weight energy");
    }

    #[test]
    fn small_conv_is_compute_bound() {
        let spec = SpecBuilder::new("n", (16, 32, 32)).conv("c", 16, 3, 1, 1, 1).build();
        let c = model().layer_cost(spec.layer("c").unwrap(), 16);
        assert!(c.compute_cycles >= c.memory_cycles);
    }

    #[test]
    fn zero_assignment_costs_nothing() {
        let spec = SpecBuilder::new("n", (16, 8, 8)).conv("c", 32, 3, 1, 1, 1).build();
        let c = model().layer_cost(spec.layer("c").unwrap(), 0);
        assert_eq!(c, LayerCost::zero());
    }

    #[test]
    fn grouped_conv_costs_less_than_dense() {
        let dense = SpecBuilder::new("d", (64, 8, 8)).conv("c", 64, 3, 1, 1, 1).build();
        let grouped = SpecBuilder::new("g", (64, 8, 8)).conv("c", 64, 3, 1, 1, 16).build();
        let m = model();
        let cd = m.layer_cost(dense.layer("c").unwrap(), 4);
        let cg = m.layer_cost(grouped.layer("c").unwrap(), 4);
        assert!(cg.macs < cd.macs);
        assert!(cg.cycles <= cd.cycles);
    }

    #[test]
    fn single_core_cost_sums_layers() {
        let spec = SpecBuilder::new("n", (1, 28, 28))
            .conv("c1", 8, 5, 1, 0, 1)
            .relu()
            .pool("p1", 2, 2)
            .flatten()
            .linear("ip", 10)
            .build();
        let total = model().single_core_cost(&spec.layers);
        let manual: u64 =
            spec.layers.iter().map(|l| model().layer_cost(l, l.out_dims.0).cycles).sum();
        assert_eq!(total.cycles, manual);
        assert!(total.energy_pj > 0.0);
    }

    #[test]
    fn energy_scales_with_work() {
        let spec = SpecBuilder::new("n", (16, 16, 16)).conv("c", 32, 3, 1, 1, 1).build();
        let layer = spec.layer("c").unwrap();
        let half = model().layer_cost(layer, 16);
        let full = model().layer_cost(layer, 32);
        assert!(full.energy_pj > 1.5 * half.energy_pj);
    }

    #[test]
    fn linear_cycles_match_tile_formula() {
        // 100 inputs, 10 outputs: one Tn tile of outputs, ceil(100/16) = 7
        // input tiles, one position.
        let spec = SpecBuilder::new("n", (100, 1, 1)).linear("ip", 10).build();
        let c = model().layer_cost(spec.layer("ip").unwrap(), 10);
        assert_eq!(c.compute_cycles, 7);
        assert_eq!(c.macs, 1000);
        assert_eq!(c.memory_cycles, 0, "resident weights, buffers not exceeded");
        assert_eq!(c.cycles, 7);
    }

    #[test]
    fn pool_cost_counts_window_comparisons_on_tn_lanes() {
        // 8 channels of 8x8 pooled 2x2 -> 8 x 4 x 4 outputs, 4 compares each.
        let spec = SpecBuilder::new("n", (8, 8, 8)).pool("p", 2, 2).build();
        let c = model().layer_cost(spec.layer("p").unwrap(), 8);
        let ops = 8 * 4 * 4 * 4;
        assert_eq!(c.macs, ops);
        assert_eq!(c.compute_cycles, ops.div_ceil(16));
        assert_eq!(c.cycles, c.compute_cycles);
        assert_eq!((c.memory_cycles, c.dram_bytes), (0, 0));
        // Reads every input of its channels once, writes every output once.
        assert_eq!(c.sram_bytes, (8 * 8 * 8 + 8 * 4 * 4) * 2);
    }

    #[test]
    fn activation_costs_one_pass_at_tn_lanes_and_no_memory() {
        let spec = SpecBuilder::new("n", (4, 5, 5)).relu().build();
        let layer = &spec.layers[0];
        let c = model().layer_cost(layer, 4);
        assert_eq!(c.macs, 100);
        assert_eq!(c.cycles, 100u64.div_ceil(16));
        assert_eq!((c.dram_bytes, c.sram_bytes), (0, 0));
        let e = ComputeEnergyModel::default();
        assert_eq!(c.energy_pj, e.op_pj * 100.0);
    }

    #[test]
    fn flatten_is_free() {
        let spec = SpecBuilder::new("n", (4, 5, 5)).flatten().build();
        let layer = &spec.layers[0];
        assert_eq!(model().layer_cost(layer, layer.out_dims.0), LayerCost::zero());
    }

    #[test]
    #[should_panic(expected = "assigned 33 of 32 output units")]
    fn over_assignment_panics() {
        let spec = SpecBuilder::new("n", (16, 8, 8)).conv("c", 32, 3, 1, 1, 1).build();
        model().layer_cost(spec.layer("c").unwrap(), 33);
    }

    #[test]
    fn zero_is_the_identity_of_accumulate() {
        let spec = SpecBuilder::new("n", (16, 8, 8)).conv("c", 32, 3, 1, 1, 1).build();
        let c = model().layer_cost(spec.layer("c").unwrap(), 32);
        let mut total = LayerCost::zero();
        total.accumulate(&c);
        assert_eq!(total, c);
        total.accumulate(&LayerCost::zero());
        assert_eq!(total, c);
        total.accumulate(&c);
        assert_eq!(total.cycles, 2 * c.cycles);
        assert_eq!(total.macs, 2 * c.macs);
        assert_eq!(total.energy_pj, 2.0 * c.energy_pj);
    }

    #[test]
    fn oversized_feature_maps_spill_to_dram_even_with_resident_weights() {
        // 64 x 32 x 32 inputs = 128 KB against a 32 KB data buffer.
        let spec = SpecBuilder::new("n", (64, 32, 32)).conv("c", 64, 3, 1, 1, 1).build();
        let c = model().layer_cost(spec.layer("c").unwrap(), 64);
        let input = 64 * 32 * 32 * 2u64;
        let output = 64 * 32 * 32 * 2u64;
        let dbuf = 32 * 1024u64;
        assert_eq!(c.dram_bytes, (input - dbuf) + (output - dbuf));
        assert_eq!(c.memory_cycles, (c.dram_bytes as f64 / 12.8).ceil() as u64);
    }

    #[test]
    fn energy_is_the_weighted_sum_of_events() {
        let energy = ComputeEnergyModel {
            mac_pj: 1.0,
            op_pj: 0.0,
            sram_pj_per_byte: 2.0,
            dram_pj_per_byte: 5.0,
        };
        let m = CoreModel::with_energy(CoreConfig::diannao(), energy).with_resident_weights(false);
        let spec = SpecBuilder::new("n", (64, 1, 1)).linear("ip", 32).build();
        let c = m.layer_cost(spec.layer("ip").unwrap(), 32);
        assert_eq!(c.dram_bytes, 64 * 32 * 2, "streamed weights only");
        let expected = c.macs as f64 + 2.0 * c.sram_bytes as f64 + 5.0 * c.dram_bytes as f64;
        assert_eq!(c.energy_pj, expected);
    }

    #[test]
    fn wider_pe_array_shortens_compute() {
        let spec = SpecBuilder::new("n", (32, 8, 8)).conv("c", 32, 3, 1, 1, 1).build();
        let layer = spec.layer("c").unwrap();
        let wide = CoreModel::new(CoreConfig { tn: 32, ti: 32, ..CoreConfig::diannao() });
        let base = model().layer_cost(layer, 32);
        let fast = wide.layer_cost(layer, 32);
        assert_eq!(base.macs, fast.macs, "the work is the same");
        assert_eq!(base.compute_cycles, 4 * fast.compute_cycles);
    }
}
