//! End-to-end system model: accelerator compute + NoC communication.
//!
//! Single-pass inference on the CMP proceeds layer by layer under a
//! barrier schedule (the paper's "data packets are injected in burst
//! during layer transition"): before a partitioned layer starts, its
//! input-synchronization messages are delivered through the flit-level
//! NoC simulator; then every core computes its partition, and the slowest
//! core gates the transition to the next layer.

use crate::simcache::SimUsage;
use crate::{CoreError, Result};
use lts_accel::{CoreConfig, CoreModel, InterposerEnergyModel};
use lts_noc::{EnergyModel, FaultModel, FaultStats, NocConfig, Simulator};
use lts_partition::{LayerPlan, Plan, Replan};
use serde::{Deserialize, Serialize};

/// Per-layer latency/energy breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerBreakdown {
    /// Layer name.
    pub name: String,
    /// Compute cycles of the slowest core.
    pub compute_cycles: u64,
    /// NoC makespan of the transition into this layer.
    pub comm_cycles: u64,
    /// Bytes crossing the NoC for this transition.
    pub traffic_bytes: u64,
    /// Sum of all cores' compute energy (pJ).
    pub compute_energy_pj: f64,
    /// NoC energy of the transition (pJ).
    pub noc_energy_pj: f64,
    /// Cycles flits spent blocked (congestion indicator).
    pub blocked_flit_cycles: u64,
}

/// Whole-network single-pass results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Total single-pass latency in cycles (compute + comm barriers).
    pub total_cycles: u64,
    /// Compute-only cycles.
    pub compute_cycles: u64,
    /// Communication-only cycles.
    pub comm_cycles: u64,
    /// Total NoC bytes.
    pub traffic_bytes: u64,
    /// Total compute energy (pJ).
    pub compute_energy_pj: f64,
    /// Total NoC energy (pJ).
    pub noc_energy_pj: f64,
    /// Fault and retransmission counters accumulated over every
    /// layer-transition simulation (all-zero on a fault-free run).
    pub faults: FaultStats,
    /// How much NoC simulation this evaluation consumed versus answered
    /// from the cross-sweep cache (compares vacuously equal; see
    /// [`SimUsage`]).
    pub sim: SimUsage,
    /// Link traversals that stayed inside one chiplet, summed over every
    /// layer-transition simulation (equals all link traversals on a
    /// single-chip mesh).
    pub intra_chip_traversals: u64,
    /// Link traversals that crossed an interposer seam (always `0` on a
    /// single-chip mesh). Each one is priced by the interposer energy
    /// model on top of the on-die NoC energy.
    pub inter_chip_traversals: u64,
    /// Per-layer details.
    pub layers: Vec<LayerBreakdown>,
}

impl SystemReport {
    /// Per-layer latency: each layer's compute plus its visible
    /// communication, in cycles (these sum to `total_cycles`).
    pub fn layer_cycles(&self) -> Vec<u64> {
        self.layers.iter().map(|l| l.compute_cycles + l.comm_cycles).collect()
    }

    /// Fraction of the single pass spent communicating.
    pub fn comm_share(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.comm_cycles as f64 / self.total_cycles as f64
    }

    /// Latency speedup of `self` relative to `baseline`
    /// (`> 1` means `self` is faster).
    pub fn speedup_vs(&self, baseline: &SystemReport) -> f64 {
        if self.total_cycles == 0 {
            return f64::INFINITY;
        }
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// NoC traffic of `self` as a fraction of `baseline`'s
    /// (the paper's "NoC traffic rate" column).
    pub fn traffic_rate_vs(&self, baseline: &SystemReport) -> f64 {
        if baseline.traffic_bytes == 0 {
            return if self.traffic_bytes == 0 { 1.0 } else { f64::INFINITY };
        }
        self.traffic_bytes as f64 / baseline.traffic_bytes as f64
    }

    /// NoC energy reduction relative to `baseline`
    /// (the paper's "Energy Reduction" column; `0.81` = 81 % saved).
    pub fn noc_energy_reduction_vs(&self, baseline: &SystemReport) -> f64 {
        if baseline.noc_energy_pj == 0.0 {
            return 0.0;
        }
        1.0 - self.noc_energy_pj / baseline.noc_energy_pj
    }

    /// Total (compute + NoC) energy in picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.compute_energy_pj + self.noc_energy_pj
    }
}

/// The combined accelerator + NoC model.
///
/// # Examples
///
/// ```
/// use lts_core::SystemModel;
/// use lts_nn::descriptor::lenet_spec;
/// use lts_partition::Plan;
///
/// # fn main() -> Result<(), lts_core::CoreError> {
/// let plan = Plan::dense(&lenet_spec(), 16, 2)?;
/// let report = SystemModel::paper(16)?.evaluate(&plan)?;
/// assert!(report.comm_share() > 0.0 && report.comm_share() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemModel {
    core_model: CoreModel,
    noc_config: NocConfig,
    noc_energy: EnergyModel,
    /// Extra per-seam-crossing energy on multi-chip packages. Inert on a
    /// single-chip mesh (no traversal ever crosses a seam).
    interposer: InterposerEnergyModel,
    /// Fraction of each transition's NoC makespan hidden under the
    /// previous layer's compute (0 = strict barrier, the paper's model;
    /// the `ablation_overlap` bench sweeps this).
    overlap: f64,
    /// Injected NoC fault model ([`FaultModel::none`] = healthy mesh).
    fault: FaultModel,
}

impl SystemModel {
    /// The paper's configuration on `cores` cores (Table II core + mesh).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for `cores == 0`.
    pub fn paper(cores: usize) -> Result<Self> {
        let noc_config = NocConfig::paper_cores(cores)?;
        Ok(Self {
            core_model: CoreModel::new(CoreConfig::diannao()),
            noc_config,
            noc_energy: EnergyModel::default(),
            interposer: InterposerEnergyModel::default(),
            overlap: 0.0,
            fault: FaultModel::none(),
        })
    }

    /// The paper's configuration scaled out to a multi-chip module:
    /// `chiplets` chiplets (laid out on the squarest possible package
    /// grid), each a Table II mesh of `cores_per_chiplet` cores, joined
    /// by interposer links. `paper_mcm(1, n)` models exactly the same
    /// package as [`SystemModel::paper`]`(n)` and produces bit-identical
    /// reports.
    ///
    /// # Errors
    ///
    /// Returns a configuration error when either count is zero.
    pub fn paper_mcm(chiplets: usize, cores_per_chiplet: usize) -> Result<Self> {
        let noc_config = NocConfig::paper_mcm(chiplets, cores_per_chiplet)?;
        Ok(Self {
            core_model: CoreModel::new(CoreConfig::diannao()),
            noc_config,
            noc_energy: EnergyModel::default(),
            interposer: InterposerEnergyModel::default(),
            overlap: 0.0,
            fault: FaultModel::none(),
        })
    }

    /// Builds from explicit parts.
    pub fn new(core_model: CoreModel, noc_config: NocConfig, noc_energy: EnergyModel) -> Self {
        Self {
            core_model,
            noc_config,
            noc_energy,
            interposer: InterposerEnergyModel::default(),
            overlap: 0.0,
            fault: FaultModel::none(),
        }
    }

    /// Replaces the interposer (seam-crossing) energy model.
    pub fn with_interposer_energy(mut self, interposer: InterposerEnergyModel) -> Self {
        self.interposer = interposer;
        self
    }

    /// Sets the compute/communication overlap factor in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `overlap` is outside `[0, 1]`.
    pub fn with_overlap(mut self, overlap: f64) -> Self {
        assert!((0.0..=1.0).contains(&overlap), "overlap must be in [0, 1]");
        self.overlap = overlap;
        self
    }

    /// Injects a NoC fault model: all subsequent evaluations simulate
    /// layer transitions on the faulty mesh (dead routers/links are
    /// routed around, transient flit faults trigger NIC retransmission).
    /// [`FaultModel::none`] restores the healthy mesh.
    pub fn with_fault_model(mut self, fault: FaultModel) -> Self {
        self.fault = fault;
        self
    }

    /// The NoC configuration in use.
    pub fn noc_config(&self) -> &NocConfig {
        &self.noc_config
    }

    /// Prices one NoC simulation with this model's energy parameters:
    /// on-die router/link/NIC energy plus the interposer premium for any
    /// seam-crossing traversals. The interposer term is added only when
    /// crossings occurred, so single-chip totals stay bit-identical.
    pub(crate) fn noc_total_energy_pj(&self, sim: &lts_noc::SimReport) -> f64 {
        let mut energy = self.noc_energy.report(sim, self.cores()).total_pj();
        if sim.inter_chip_traversals > 0 {
            energy += self.interposer.crossings_pj(sim.inter_chip_traversals);
        }
        energy
    }

    /// The injected fault model.
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.noc_config.nodes()
    }

    /// Evaluates a parallelization plan end to end (single input image).
    ///
    /// # Errors
    ///
    /// Propagates NoC simulation errors (cycle-limit means deadlock or a
    /// pathological trace).
    pub fn evaluate(&self, plan: &Plan) -> Result<SystemReport> {
        self.evaluate_layers(&plan.layers, None)
    }

    /// Evaluates the tail of a fail-operational [`Replan`] end to end:
    /// each transition's messages are remapped from logical survivor ids
    /// to physical node ids before simulation, and compute runs only on
    /// the surviving cores.
    ///
    /// The injected fault model (see [`SystemModel::with_fault_model`])
    /// should normally be the failure domain's
    /// [`lts_partition::FailureDomain::fault_model`] of the plan's dead
    /// set, so the NoC detours around the dead routers.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when the plan references a physical core
    /// outside this chip; otherwise as [`SystemModel::evaluate`].
    pub fn evaluate_replan(&self, replan: &Replan) -> Result<SystemReport> {
        if let Some(&max) = replan.core_map.iter().max() {
            if max >= self.cores() {
                return Err(CoreError::BadConfig(format!(
                    "degraded plan references physical core {max} on a {}-core chip",
                    self.cores()
                )));
            }
        }
        self.evaluate_layers(&replan.tail.layers, Some(&replan.core_map))
    }

    /// Core of [`SystemModel::evaluate`]: runs `plan_layers` under the
    /// barrier schedule, with message endpoints remapped through
    /// `core_map` (`core_map[logical] = physical`) when given. The
    /// recovery driver uses this to evaluate plan *segments*.
    pub(crate) fn evaluate_layers(
        &self,
        plan_layers: &[LayerPlan],
        core_map: Option<&[usize]>,
    ) -> Result<SystemReport> {
        let _probe = lts_obs::span("core.evaluate_layers");
        // One sequential cycle track per evaluation: its per-layer
        // comm/compute records sum to `total_cycles` *exactly* (the obs
        // bench pins this reconciliation).
        let track = lts_obs::cycle_track("core.evaluate");
        let mut sim = Simulator::with_faults(self.noc_config, self.fault.clone())?;
        let mut usage = SimUsage::default();
        let mut layers = Vec::with_capacity(plan_layers.len());
        let mut total_cycles = 0u64;
        let mut compute_total = 0u64;
        let mut comm_total = 0u64;
        let mut traffic_total = 0u64;
        let mut compute_energy = 0.0f64;
        let mut noc_energy = 0.0f64;
        let mut faults = FaultStats::default();
        let mut intra_hops = 0u64;
        let mut inter_hops = 0u64;
        for lp in plan_layers {
            // Communication phase (barrier before the layer runs); on a
            // degraded plan the trace is remapped to physical node ids.
            let remapped = core_map.map(|map| {
                lp.traffic
                    .messages
                    .iter()
                    .map(|m| {
                        lts_noc::traffic::Message::new(
                            map[m.src],
                            map[m.dst],
                            m.bytes,
                            m.inject_cycle,
                        )
                    })
                    .collect::<Vec<_>>()
            });
            let messages = match &remapped {
                Some(msgs) => msgs.as_slice(),
                None => lp.traffic.messages.as_slice(),
            };
            let (comm_cycles, layer_noc_energy, blocked) = if messages.is_empty() {
                (0, 0.0, 0)
            } else {
                let report = crate::simcache::run_cached(
                    &mut sim,
                    &self.noc_config,
                    &self.fault,
                    messages,
                    &mut usage,
                )?;
                faults.merge(&report.faults);
                intra_hops += report.intra_chip_traversals;
                inter_hops += report.inter_chip_traversals;
                let energy = self.noc_total_energy_pj(&report);
                (report.makespan, energy, report.blocked_flit_cycles)
            };
            let visible_comm = ((comm_cycles as f64) * (1.0 - self.overlap)).round() as u64;
            // Compute phase: the slowest core gates the barrier.
            let mut worst = 0u64;
            let mut layer_compute_energy = 0.0f64;
            for &assigned in &lp.assignments {
                let cost = self.core_model.layer_cost(&lp.spec, assigned);
                worst = worst.max(cost.cycles);
                layer_compute_energy += cost.energy_pj;
            }
            lts_obs::cycle_record(track, "comm", &lp.spec.name, visible_comm);
            lts_obs::cycle_record(track, "compute", &lp.spec.name, worst);
            total_cycles += visible_comm + worst;
            compute_total += worst;
            comm_total += visible_comm;
            traffic_total += lp.traffic.total_bytes();
            compute_energy += layer_compute_energy;
            noc_energy += layer_noc_energy;
            layers.push(LayerBreakdown {
                name: lp.spec.name.clone(),
                compute_cycles: worst,
                comm_cycles: visible_comm,
                traffic_bytes: lp.traffic.total_bytes(),
                compute_energy_pj: layer_compute_energy,
                noc_energy_pj: layer_noc_energy,
                blocked_flit_cycles: blocked,
            });
        }
        Ok(SystemReport {
            total_cycles,
            compute_cycles: compute_total,
            comm_cycles: comm_total,
            traffic_bytes: traffic_total,
            compute_energy_pj: compute_energy,
            noc_energy_pj: noc_energy,
            faults,
            sim: usage,
            intra_chip_traversals: intra_hops,
            inter_chip_traversals: inter_hops,
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_nn::descriptor::{lenet_spec, mlp_spec};
    use lts_partition::FailureDomain;
    use std::collections::HashMap;

    /// A static replan of `spec` on `cores` cores without `dead`.
    fn replan(spec: &lts_nn::NetworkSpec, cores: usize, dead: &[usize]) -> Replan {
        FailureDomain::Cores(cores).replan(spec, None, 0, dead, &HashMap::new(), 2).unwrap()
    }

    fn eval(cores: usize, spec: &lts_nn::NetworkSpec) -> SystemReport {
        let model = SystemModel::paper(cores).unwrap();
        let plan = Plan::dense(spec, cores, 2).unwrap();
        model.evaluate(&plan).unwrap()
    }

    #[test]
    fn lenet_single_pass_has_compute_and_comm() {
        let r = eval(16, &lenet_spec());
        assert!(r.compute_cycles > 0);
        assert!(r.comm_cycles > 0);
        assert_eq!(r.total_cycles, r.compute_cycles + r.comm_cycles);
        assert!(r.comm_share() > 0.0 && r.comm_share() < 1.0);
        assert!(r.noc_energy_pj > 0.0);
    }

    #[test]
    fn sixteen_cores_beat_one_core_on_compute() {
        let spec = lenet_spec();
        let single = eval(1, &spec);
        let sixteen = eval(16, &spec);
        assert_eq!(single.comm_cycles, 0, "one core never communicates");
        assert!(sixteen.compute_cycles < single.compute_cycles);
    }

    #[test]
    fn zeroed_weights_remove_comm_cycles() {
        let spec = mlp_spec();
        let model = SystemModel::paper(16).unwrap();
        let dense = model.evaluate(&Plan::dense(&spec, 16, 2).unwrap()).unwrap();
        let mut weights = HashMap::new();
        weights.insert("ip2".into(), vec![0.0f32; 512 * 304]);
        weights.insert("ip3".into(), vec![0.0f32; 304 * 10]);
        let sparse_plan = Plan::build(&spec, 16, &weights, 2).unwrap();
        let sparse = model.evaluate(&sparse_plan).unwrap();
        assert_eq!(sparse.comm_cycles, 0);
        assert!(sparse.speedup_vs(&dense) > 1.0);
        assert_eq!(sparse.traffic_rate_vs(&dense), 0.0);
        assert!(sparse.noc_energy_reduction_vs(&dense) > 0.99);
    }

    #[test]
    fn overlap_hides_communication() {
        let spec = lenet_spec();
        let plan = Plan::dense(&spec, 16, 2).unwrap();
        let barrier = SystemModel::paper(16).unwrap().evaluate(&plan).unwrap();
        let overlapped = SystemModel::paper(16).unwrap().with_overlap(1.0).evaluate(&plan).unwrap();
        assert_eq!(overlapped.comm_cycles, 0);
        assert!(overlapped.total_cycles < barrier.total_cycles);
        // Energy is unaffected by overlap.
        assert!((overlapped.noc_energy_pj - barrier.noc_energy_pj).abs() < 1e-6);
    }

    #[test]
    fn per_layer_breakdown_sums_to_totals() {
        let r = eval(16, &lenet_spec());
        let compute: u64 = r.layers.iter().map(|l| l.compute_cycles).sum();
        let comm: u64 = r.layers.iter().map(|l| l.comm_cycles).sum();
        assert_eq!(compute, r.compute_cycles);
        assert_eq!(comm, r.comm_cycles);
        let traffic: u64 = r.layers.iter().map(|l| l.traffic_bytes).sum();
        assert_eq!(traffic, r.traffic_bytes);
    }

    #[test]
    fn evaluation_accounts_one_sim_lookup_per_communicating_layer() {
        let r = eval(16, &lenet_spec());
        let with_comm = r.layers.iter().filter(|l| l.traffic_bytes > 0).count() as u64;
        assert!(with_comm > 0);
        assert_eq!(r.sim.lookups(), with_comm, "{:?}", r.sim);
        assert!(
            r.sim.sims == 0 || r.sim.cycles_simulated > 0,
            "simulated transitions must account stepped cycles: {:?}",
            r.sim
        );
    }

    #[test]
    fn ratio_helpers() {
        let a = eval(16, &lenet_spec());
        assert_eq!(a.speedup_vs(&a), 1.0);
        assert_eq!(a.traffic_rate_vs(&a), 1.0);
        assert_eq!(a.noc_energy_reduction_vs(&a), 0.0);
    }

    #[test]
    fn none_fault_model_changes_nothing() {
        let spec = lenet_spec();
        let plan = Plan::dense(&spec, 16, 2).unwrap();
        let plain = SystemModel::paper(16).unwrap().evaluate(&plan).unwrap();
        let faulty = SystemModel::paper(16)
            .unwrap()
            .with_fault_model(lts_noc::FaultModel::none())
            .evaluate(&plan)
            .unwrap();
        assert_eq!(plain, faulty);
        assert!(!plain.faults.any());
    }

    #[test]
    fn degraded_plan_with_no_deaths_matches_evaluate() {
        let spec = lenet_spec();
        let model = SystemModel::paper(16).unwrap();
        let healthy = model.evaluate(&Plan::dense(&spec, 16, 2).unwrap()).unwrap();
        let degraded = replan(&spec, 16, &[]);
        assert_eq!(model.evaluate_replan(&degraded).unwrap(), healthy);
    }

    #[test]
    fn dead_cores_are_survivable_with_rerouting() {
        let spec = lenet_spec();
        let dead = [5usize, 10];
        let degraded = replan(&spec, 16, &dead);
        let fault = FailureDomain::Cores(16).fault_model(&dead);
        let model = SystemModel::paper(16).unwrap().with_fault_model(fault);
        let report = model.evaluate_replan(&degraded).unwrap();
        assert!(report.total_cycles > 0);
        assert!(report.comm_cycles > 0, "14 survivors still synchronize");
    }

    #[test]
    fn transient_faults_slow_the_system_down() {
        let spec = lenet_spec();
        let plan = Plan::dense(&spec, 16, 2).unwrap();
        let clean = SystemModel::paper(16).unwrap().evaluate(&plan).unwrap();
        let fault = lts_noc::FaultModel::none().with_seed(17).drop_rate(0.02);
        let faulty =
            SystemModel::paper(16).unwrap().with_fault_model(fault).evaluate(&plan).unwrap();
        assert!(faulty.faults.flits_dropped > 0, "a 2% drop rate must fire");
        assert!(faulty.faults.packets_retransmitted > 0);
        assert!(faulty.comm_cycles > clean.comm_cycles, "retransmissions cost time");
        assert_eq!(faulty.compute_cycles, clean.compute_cycles, "compute is unaffected");
    }

    #[test]
    fn single_chiplet_mcm_report_is_bit_identical_to_single_chip() {
        let spec = lenet_spec();
        let plan = Plan::dense(&spec, 16, 2).unwrap();
        let mesh = SystemModel::paper(16).unwrap().evaluate(&plan).unwrap();
        let mcm = SystemModel::paper_mcm(1, 16).unwrap().evaluate(&plan).unwrap();
        assert_eq!(mesh, mcm);
        assert_eq!(mcm.inter_chip_traversals, 0);
        assert!(mcm.intra_chip_traversals > 0);
    }

    #[test]
    fn hop_split_is_populated_and_mesh_runs_have_no_inter_hops() {
        let r = eval(16, &lenet_spec());
        assert!(r.intra_chip_traversals > 0);
        assert_eq!(r.inter_chip_traversals, 0);
    }

    #[test]
    fn multi_chip_package_prices_interposer_crossings() {
        let spec = lenet_spec();
        let plan = Plan::dense(&spec, 32, 2).unwrap();
        let model = SystemModel::paper_mcm(2, 16).unwrap();
        assert_eq!(model.cores(), 32);
        let priced = model.evaluate(&plan).unwrap();
        assert!(priced.inter_chip_traversals > 0, "a 32-core plan must cross the seam");
        let free = SystemModel::paper_mcm(2, 16)
            .unwrap()
            .with_interposer_energy(lts_accel::InterposerEnergyModel { seam_crossing_pj: 0.0 })
            .evaluate(&plan)
            .unwrap();
        let premium =
            lts_accel::InterposerEnergyModel::default().crossings_pj(priced.inter_chip_traversals);
        assert!((priced.noc_energy_pj - free.noc_energy_pj - premium).abs() < 1e-6);
    }

    #[test]
    fn oversized_degraded_plans_are_rejected() {
        let spec = lenet_spec();
        let degraded = replan(&spec, 32, &[1]);
        let model = SystemModel::paper(16).unwrap();
        assert!(matches!(model.evaluate_replan(&degraded), Err(crate::CoreError::BadConfig(_))));
    }
}
