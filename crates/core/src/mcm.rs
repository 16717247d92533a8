//! Multi-chip-module scale-out: chiplet-count throughput sweeps.
//!
//! Scaling a CMP past one reticle means joining chiplets with interposer
//! links ([`lts_noc::McmTopology`]). Two steady-state schedules compete
//! for throughput on an `N`-chiplet package:
//!
//! * **Pipelined** — [`lts_partition::McmPlan`] places contiguous layer
//!   stages on chiplets in serpentine order; a new image enters every
//!   initiation interval (the slowest stage's compute + communication).
//! * **Replicated** — every chiplet runs the whole network on its own
//!   image stream; package throughput is `N` images per single-chip
//!   latency.
//!
//! Because every stage runs at the same per-chiplet width as a replica
//! and the interval is at least the per-stage mean, replication is the
//! throughput-optimal schedule *in this latency model* (it ignores
//! weight-capacity limits, the usual reason to pipeline); the sweep
//! reports both so the crossover is visible when capacity modeling
//! lands. The replicated bound also makes package throughput strictly
//! monotone in the chiplet count.

use crate::simcache::SimUsage;
use crate::{CoreError, Result, SystemModel};
use lts_nn::NetworkSpec;
use lts_noc::{McmTopology, Topo};
use lts_partition::{McmPlan, StagePipeline, StagePlacement};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which schedule achieves one row's best throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleMode {
    /// Layer-pipelined across chiplets.
    Pipelined,
    /// Independent whole-network replicas, one per chiplet.
    Replicated,
}

/// One package size in a chiplet-count scaling sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McmScalingRow {
    /// Chiplets on the package.
    pub chiplets: usize,
    /// Cores per chiplet.
    pub cores_per_chiplet: usize,
    /// Pipeline stages the layer partition produced (≤ `chiplets`).
    pub stages: usize,
    /// Single-image latency of the pipelined plan (cycles).
    pub latency_cycles: u64,
    /// Pipeline initiation interval: the slowest stage's compute + comm.
    pub interval_cycles: u64,
    /// Pipelined throughput, images per mega-cycle (`1e6 / interval`).
    pub pipelined_ipmc: f64,
    /// Replicated throughput, images per mega-cycle
    /// (`1e6 · chiplets / single-chip latency`).
    pub replicated_ipmc: f64,
    /// Best of the two schedules (the sweep's headline number).
    pub throughput_ipmc: f64,
    /// Which schedule won (`Pipelined` only on a strict win).
    pub mode: ScaleMode,
    /// Link traversals that stayed on-die, over the pipelined pass.
    pub intra_chip_traversals: u64,
    /// Interposer seam crossings, over the pipelined pass.
    pub inter_chip_traversals: u64,
    /// NoC energy of the pipelined pass, interposer premium included (pJ).
    pub noc_energy_pj: f64,
    /// Compute energy of the pipelined pass (pJ).
    pub compute_energy_pj: f64,
    /// Simulation-vs-cache accounting for the pipelined pass.
    pub sim: SimUsage,
}

/// The package topology `paper_mcm` would build, as an [`McmTopology`].
fn package_topology(
    chiplets: usize,
    cores_per_chiplet: usize,
) -> Result<(SystemModel, McmTopology)> {
    let model = SystemModel::paper_mcm(chiplets, cores_per_chiplet)?;
    match model.noc_config().topo() {
        Topo::Mcm(package) => Ok((model, package)),
        Topo::Mesh(_) => {
            Err(CoreError::BadConfig("paper_mcm produced a single-chip mesh topology".into()))
        }
    }
}

/// Sweeps `chiplet_counts` package sizes of the paper's hardware,
/// evaluating the stage-pipelined [`McmPlan`] on each and deriving
/// steady-state throughput for both schedules. `weights` follows
/// [`lts_partition::Plan::build`] (empty map = dense traffic).
///
/// `chiplets = 1` degenerates to the single-chip system: one stage, the
/// interval equals the latency, and both schedules tie at `1 / latency`.
///
/// # Errors
///
/// Configuration errors for zero counts; plan and NoC errors propagate.
pub fn scale_chiplets(
    spec: &NetworkSpec,
    weights: &HashMap<String, Vec<f32>>,
    cores_per_chiplet: usize,
    chiplet_counts: &[usize],
) -> Result<Vec<McmScalingRow>> {
    let _probe = lts_obs::span("core.mcm_scaling");
    // The replicated schedule's unit of work: single-chiplet latency.
    let (single_model, single_topo) = package_topology(1, cores_per_chiplet)?;
    let single_plan = McmPlan::build(spec, &single_topo, weights, 2)?;
    let single_latency = single_model.evaluate(&single_plan.plan)?.total_cycles.max(1);

    let mut rows = Vec::with_capacity(chiplet_counts.len());
    for &chiplets in chiplet_counts {
        let (model, package) = package_topology(chiplets, cores_per_chiplet)?;
        let mcm_plan = McmPlan::build(spec, &package, weights, 2)?;
        let report = model.evaluate(&mcm_plan.plan)?;
        let pipeline = StagePipeline::new(
            mcm_plan.stages.iter().map(StagePlacement::layers).collect(),
            &report.layer_cycles(),
        );
        let interval = pipeline.interval();
        let pipelined = 1e6 / interval as f64;
        let replicated = 1e6 * chiplets as f64 / single_latency as f64;
        let (throughput, mode) = if pipelined > replicated {
            (pipelined, ScaleMode::Pipelined)
        } else {
            (replicated, ScaleMode::Replicated)
        };
        if lts_obs::enabled() {
            lts_obs::counter_add("mcm.sweep_points", 1);
            lts_obs::counter_add("mcm.inter_chip_traversals", report.inter_chip_traversals);
        }
        rows.push(McmScalingRow {
            chiplets,
            cores_per_chiplet,
            stages: pipeline.ranges.len(),
            latency_cycles: pipeline.latency(),
            interval_cycles: interval,
            pipelined_ipmc: pipelined,
            replicated_ipmc: replicated,
            throughput_ipmc: throughput,
            mode,
            intra_chip_traversals: report.intra_chip_traversals,
            inter_chip_traversals: report.inter_chip_traversals,
            noc_energy_pj: report.noc_energy_pj,
            compute_energy_pj: report.compute_energy_pj,
            sim: report.sim,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_nn::descriptor::lenet_spec;
    use lts_partition::Plan;

    fn sweep(counts: &[usize]) -> Vec<McmScalingRow> {
        scale_chiplets(&lenet_spec(), &HashMap::new(), 16, counts).unwrap()
    }

    #[test]
    fn one_chiplet_row_is_the_single_chip_system() {
        let spec = lenet_spec();
        let rows = sweep(&[1]);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        let single =
            SystemModel::paper(16).unwrap().evaluate(&Plan::dense(&spec, 16, 2).unwrap()).unwrap();
        assert_eq!(row.latency_cycles, single.total_cycles);
        assert_eq!(row.stages, 1);
        assert_eq!(row.interval_cycles, row.latency_cycles);
        assert_eq!(row.inter_chip_traversals, 0);
        assert_eq!(row.pipelined_ipmc, row.replicated_ipmc);
        assert_eq!(row.mode, ScaleMode::Replicated, "ties go to replication");
    }

    #[test]
    fn throughput_scales_monotonically_with_chiplets() {
        let rows = sweep(&[1, 2, 4]);
        for pair in rows.windows(2) {
            assert!(
                pair[1].throughput_ipmc > pair[0].throughput_ipmc,
                "throughput must grow {} -> {} chiplets",
                pair[0].chiplets,
                pair[1].chiplets
            );
        }
        for row in &rows[1..] {
            assert!(row.inter_chip_traversals > 0, "{} chiplets must cross seams", row.chiplets);
            assert!(row.stages > 1 && row.stages <= row.chiplets);
        }
    }

    #[test]
    fn interval_bounds_hold() {
        for row in sweep(&[1, 2, 4]) {
            assert!(row.interval_cycles <= row.latency_cycles);
            // max ≥ mean over stages.
            assert!(row.interval_cycles as u128 * row.stages as u128 >= row.latency_cycles as u128);
            assert!(row.pipelined_ipmc <= row.replicated_ipmc + 1e-9);
        }
    }
}
