//! Online fault recovery: mid-inference checkpoint, heartbeat-latency
//! detection, incremental replan and resume on the degraded chip.
//!
//! A static cell of the [`crate::fault_matrix`] answers "how does a
//! strategy perform if the dead cores are known *before* the run?" (the
//! oracle). This module answers the harder online question: a failure
//! domain — one core of a chip or one whole chiplet of a package
//! ([`FailureDomain`]) — dies *while* an inference is in flight. The
//! model follows the layer-barrier structure of [`SystemModel`]:
//!
//! 1. **Checkpoints.** At every layer boundary the live state of the
//!    inference is exactly the previous layer's output feature map,
//!    sharded by ownership ([`boundary_checkpoints`] enumerates them).
//!    Nothing extra must be saved — the checkpoint is free.
//! 2. **Detection.** A death at a boundary is noticed by missed
//!    heartbeats; the latency is the worst [`MonitorConfig`] deadline
//!    over the newly dead routers — the arithmetic the flit-level
//!    simulator realizes (see `lts_noc::recovery`), so the timeline here
//!    and the in-sim detection agree cycle for cycle. For a chiplet this
//!    is the chiplet-liveness verdict: the monitor declares it dead only
//!    once *every* member router's seam-priced deadline has lapsed.
//! 3. **Replan + resync.** [`FailureDomain::replan`] reshards only the
//!    remaining layers over the survivors; the surviving boundary shards
//!    are redistributed over the degraded chip (simulated flit by flit).
//! 4. **Resume.** The tail runs on the survivors — faults may strike more
//!    than once, each replan stacking on the last.
//!
//! [`RecoveryReport`] carries the composed run next to the fault-free
//! baseline and the oracle static replan, so the price of *online*
//! recovery (detection latency + resync traffic + mid-run resharding)
//! is measurable directly.

use crate::outcome::Outcome;
use crate::simcache::SimUsage;
use crate::system::{LayerBreakdown, SystemModel, SystemReport};
use crate::{CoreError, Result};
use lts_nn::descriptor::NetworkSpec;
use lts_noc::{FaultModel, FaultStats, MonitorConfig, NocConfig, Simulator, Topo};
use lts_partition::ownership::{propagate, OwnershipMap};
use lts_partition::{FailureDomain, Replan};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

/// The free checkpoint at one layer boundary: who holds which slice of
/// the in-flight feature map, and when (cumulatively) the barrier
/// completed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryCheckpoint {
    /// Layers `0..layer` have completed.
    pub layer: usize,
    /// Cumulative cycle of the barrier under the fault-free baseline.
    pub cycle: u64,
    /// `blocks[core]` = feature-map units held by that core.
    pub blocks: Vec<Range<usize>>,
    /// Scalar values per unit (spatial size; 1 for flat activations).
    pub values_per_unit: usize,
}

/// One mid-inference fault: the failure domains `dead` die at the
/// boundary before layer `layer` (original layer numbering; `0` = before
/// anything ran).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceFault {
    /// First layer that had not run when the domains died.
    pub layer: usize,
    /// Domain ids killed by this fault: core ids on a
    /// [`FailureDomain::Cores`] chip, chiplet ids on a
    /// [`FailureDomain::Chiplets`] package.
    pub dead: Vec<usize>,
}

/// What one recovery cost, on the composed timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Boundary (original layer numbering) the fault hit.
    pub layer: usize,
    /// Routers newly dead at this event (physical, sorted).
    pub dead_cores: Vec<usize>,
    /// Cumulative cycle the routers died at.
    pub died_at: u64,
    /// Cycles from death to detection (worst dead router, heartbeat
    /// deadline arithmetic shared with the NoC simulator).
    pub detection_cycles: u64,
    /// Boundary-resync payload moved over the degraded chip.
    pub redistribution_bytes: u64,
    /// Flits the resync delivered.
    pub redistribution_flits: u64,
    /// NoC makespan of the resync.
    pub redistribution_cycles: u64,
    /// Boundary units orphaned by the dead routers.
    pub lost_boundary_units: usize,
    /// Total units in the boundary feature map.
    pub boundary_units: usize,
    /// Routers still alive after this event.
    pub survivors: usize,
}

/// End-to-end result of an inference that recovered from mid-run faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The composed run: healthy prefix, per-fault recovery overhead
    /// (one `recovery@N` pseudo-layer each), degraded tail.
    pub report: SystemReport,
    /// The same plan on the fault-free chip.
    pub fault_free: SystemReport,
    /// The oracle: a static replan over the final dead set, with the
    /// faults known before the run. `None` when the dead set defeats
    /// even the oracle (disconnected chip).
    pub oracle: Option<SystemReport>,
    /// One entry per applied fault, in order.
    pub events: Vec<RecoveryEvent>,
    /// All dead routers (physical, sorted).
    pub dead_cores: Vec<usize>,
    /// Worst pinned-group output loss across all replans (grouped plans
    /// on a chip only; see [`lts_partition::Replan::lost_output_fraction`]).
    pub lost_output_fraction: f64,
    /// Worst boundary feature-map loss across all replans.
    pub lost_boundary_fraction: f64,
}

impl RecoveryReport {
    /// End-to-end latency relative to the fault-free run (`1.0` = free).
    pub fn overhead_vs_fault_free(&self) -> f64 {
        if self.fault_free.total_cycles == 0 {
            return 1.0;
        }
        self.report.total_cycles as f64 / self.fault_free.total_cycles as f64
    }

    /// Total (compute + NoC) energy relative to the fault-free run
    /// (`1.0` = free).
    pub fn energy_vs_fault_free(&self) -> f64 {
        let base = self.fault_free.total_energy_pj();
        if base == 0.0 {
            return 1.0;
        }
        self.report.total_energy_pj() / base
    }

    /// End-to-end latency relative to the oracle static replan — the
    /// pure price of recovering *online* instead of knowing the dead set
    /// up front.
    pub fn overhead_vs_oracle(&self) -> Option<f64> {
        let oracle = self.oracle.as_ref()?;
        if oracle.total_cycles == 0 {
            return None;
        }
        Some(self.report.total_cycles as f64 / oracle.total_cycles as f64)
    }

    /// Simulated-vs-cached NoC work behind the composed run (healthy
    /// segments plus every boundary resync).
    pub fn sim_usage(&self) -> SimUsage {
        self.report.sim
    }

    /// Total cycles spent between deaths and their detections.
    pub fn detection_cycles(&self) -> u64 {
        self.events.iter().map(|e| e.detection_cycles).sum()
    }

    /// Total boundary-resync payload.
    pub fn redistribution_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.redistribution_bytes).sum()
    }

    /// Worst output loss across both loss mechanisms — the bounded
    /// "lost output fraction" the chaos harness asserts on.
    pub fn lost_fraction(&self) -> f64 {
        self.lost_output_fraction.max(self.lost_boundary_fraction)
    }
}

/// Enumerates the free checkpoints of `spec` partitioned over `cores`:
/// one per layer boundary, with the barrier cycle taken from `baseline`
/// (a [`SystemModel::evaluate`] report of the same plan).
///
/// # Errors
///
/// [`CoreError::BadConfig`] if `baseline` has a different layer count
/// than `spec`.
pub fn boundary_checkpoints(
    spec: &NetworkSpec,
    cores: usize,
    baseline: &SystemReport,
) -> Result<Vec<BoundaryCheckpoint>> {
    if baseline.layers.len() != spec.layers.len() {
        return Err(CoreError::BadConfig(format!(
            "baseline has {} layers, the network {}",
            baseline.layers.len(),
            spec.layers.len()
        )));
    }
    let mut out = Vec::with_capacity(spec.layers.len());
    let mut ownership: Option<OwnershipMap> = None;
    let mut cycle = 0u64;
    for (i, layer) in spec.layers.iter().enumerate() {
        ownership = propagate(layer, ownership.as_ref(), cores);
        cycle += baseline.layers[i].comm_cycles + baseline.layers[i].compute_cycles;
        let (blocks, values_per_unit) = match &ownership {
            Some(o) => (o.blocks().to_vec(), o.values_per_unit()),
            None => (Vec::new(), 1),
        };
        out.push(BoundaryCheckpoint { layer: i + 1, cycle, blocks, values_per_unit });
    }
    Ok(out)
}

/// Heartbeat detection latency of losing `routers` at `died_at`: the
/// worst per-router deadline. For a whole chiplet this is
/// [`MonitorConfig::chiplet_detection_latency`].
pub(crate) fn detection_latency(
    monitor: &MonitorConfig,
    config: &NocConfig,
    routers: &[usize],
    died_at: u64,
) -> u64 {
    routers.iter().map(|&n| monitor.detection_latency(config, n, died_at)).max().unwrap_or(0)
}

/// Runs `spec` end to end while `faults` kill failure domains
/// mid-inference, detecting each death by heartbeat-deadline arithmetic,
/// incrementally replanning the remaining layers over the survivors of
/// `domain` and resuming on the degraded chip.
///
/// On [`FailureDomain::Cores`] the plan spreads every layer over the
/// cores; a dead core orphans its boundary shard and takes pinned
/// channel groups with it. On [`FailureDomain::Chiplets`] the plan is
/// pipeline stages on chiplets ([`lts_partition::McmPlan`]); a dead
/// chiplet takes its routers and seam endpoints, the tail is re-staged
/// over the surviving chiplets (fewer, fatter stages, transitions
/// re-priced over the new seam distances), and a dead producer chiplet
/// orphans the whole boundary. Either way the composed report carries
/// one `recovery@N` pseudo-layer per fault next to the fault-free
/// baseline and the oracle static replan over the final dead set.
///
/// With an empty fault list the composed report is bit-identical to
/// [`SystemModel::evaluate`] on the healthy plan (and independent of the
/// execution engine's worker count, which the system model never uses).
///
/// Faults must be sorted by `layer` (non-decreasing); a fault may kill
/// several domains at once, later faults stack on earlier replans, and
/// naming an already-dead domain again is a no-op.
///
/// # Examples
///
/// The README's recovery quick-starts, one per domain:
///
/// ```
/// use lts_core::{run_with_recovery, InferenceFault, SystemModel};
/// use lts_nn::descriptor::lenet_spec;
/// use lts_noc::{MonitorConfig, Topo};
/// use lts_partition::FailureDomain;
/// use std::collections::HashMap;
///
/// # fn main() -> lts_core::Result<()> {
/// let (spec, weights, monitor) = (lenet_spec(), HashMap::new(), MonitorConfig::default());
///
/// // Cores 5 and 6 die before layer 4 of a 16-core chip.
/// let model = SystemModel::paper(16)?;
/// let cores = FailureDomain::Cores(16);
/// let faults = [InferenceFault { layer: 4, dead: vec![5, 6] }];
/// let rec = run_with_recovery(&model, &cores, &spec, &weights, &faults, &monitor)?;
/// assert!(rec.overhead_vs_fault_free() > 1.0 && rec.redistribution_bytes() > 0);
///
/// // Chiplet 1 of a 2x2 package of 4-core chiplets dies before layer 3.
/// let model = SystemModel::paper_mcm(4, 4)?;
/// let Topo::Mcm(package) = model.noc_config().topo() else { unreachable!() };
/// let chiplets = FailureDomain::Chiplets(package);
/// let faults = [InferenceFault { layer: 3, dead: vec![1] }];
/// let rec = run_with_recovery(&model, &chiplets, &spec, &weights, &faults, &monitor)?;
/// assert_eq!(rec.events[0].survivors, 12);
/// assert!(rec.detection_cycles() > 0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`CoreError::BadConfig`] when `domain` does not describe the model's
/// chip, for unsorted/out-of-range faults, or when a fault kills every
/// survivor; plan and NoC errors propagate (e.g.
/// [`lts_noc::NocError::Unreachable`] when the dead set disconnects the
/// survivors).
pub fn run_with_recovery(
    model: &SystemModel,
    domain: &FailureDomain,
    spec: &NetworkSpec,
    weights: &HashMap<String, Vec<f32>>,
    faults: &[InferenceFault],
    monitor: &MonitorConfig,
) -> Result<RecoveryReport> {
    let _probe = lts_obs::span("core.recovery");
    let fits = match (domain, model.noc_config().topo()) {
        (FailureDomain::Cores(cores), _) => *cores == model.cores(),
        (FailureDomain::Chiplets(topo), Topo::Mcm(package)) => *topo == package,
        (FailureDomain::Chiplets(_), Topo::Mesh(_)) => false,
    };
    if !fits {
        return Err(CoreError::BadConfig(format!(
            "failure domain {domain:?} does not describe the model's {}-router chip",
            model.cores()
        )));
    }
    let healthy = domain.replan(spec, None, 0, &[], weights, 2)?;
    let fault_free = model.evaluate(&healthy.tail)?;
    monitor.validate(model.noc_config()).map_err(CoreError::Noc)?;
    if faults.is_empty() {
        return Ok(RecoveryReport {
            report: fault_free.clone(),
            fault_free,
            oracle: None,
            events: Vec::new(),
            dead_cores: Vec::new(),
            lost_output_fraction: 0.0,
            lost_boundary_fraction: 0.0,
        });
    }
    for pair in faults.windows(2) {
        if pair[1].layer < pair[0].layer {
            return Err(CoreError::BadConfig("faults must be sorted by layer".into()));
        }
    }
    if let Some(f) = faults.iter().find(|f| f.layer > spec.layers.len()) {
        return Err(CoreError::BadConfig(format!(
            "fault layer {} beyond the network's {} layers",
            f.layer,
            spec.layers.len()
        )));
    }
    for f in faults {
        domain.validate(&f.dead)?;
    }

    // Composed-run accumulators; `current` is the plan running now, and
    // `dead` every domain lost so far.
    let mut acc = Accumulator::default();
    let mut current = healthy;
    let mut completed = 0usize; // original layers finished so far
    let mut dead: Vec<usize> = Vec::new();
    let mut events = Vec::new();
    let mut lost_output_fraction = 0.0f64;
    let mut lost_boundary_fraction = 0.0f64;

    for fault in faults {
        // Healthy-for-now segment up to the fault boundary.
        let start = current.fault_layer;
        let seg = &current.tail.layers[completed - start..fault.layer - start];
        let seg_model = model.clone().with_fault_model(domain.fault_model(&dead));
        acc.push_segment(seg_model.evaluate_layers(seg, Some(&current.core_map))?);
        completed = fault.layer;

        // Which of the named domains are actually newly dead?
        let mut newly: Vec<usize> =
            fault.dead.iter().copied().filter(|d| !dead.contains(d)).collect();
        newly.sort_unstable();
        newly.dedup();
        if newly.is_empty() {
            continue;
        }
        let died_at = acc.total_cycles;
        let newly_dead = domain.members(&newly);
        let detection_cycles = detection_latency(monitor, model.noc_config(), &newly_dead, died_at);

        // Incremental replan over everything lost so far.
        dead.extend(&newly);
        dead.sort_unstable();
        let inc = {
            let _replan_probe = lts_obs::span("core.recovery.replan");
            domain.replan(spec, Some(&current), fault.layer, &dead, weights, 2)?
        };
        lost_output_fraction = lost_output_fraction.max(inc.lost_output_fraction());
        lost_boundary_fraction = lost_boundary_fraction.max(inc.lost_boundary_fraction());

        // Boundary resync on the now-degraded chip (physical endpoints).
        let resync = &inc.redistribution.messages;
        let (resync_report, resync_energy) = if resync.is_empty() {
            (None, 0.0)
        } else {
            let _resync_probe = lts_obs::span("core.recovery.resync");
            let fault = domain.fault_model(&dead);
            let mut sim = Simulator::with_faults(*model.noc_config(), fault.clone())
                .map_err(CoreError::Noc)?;
            let rep = crate::simcache::run_cached(
                &mut sim,
                model.noc_config(),
                &fault,
                resync,
                &mut acc.sim,
            )
            .map_err(CoreError::Noc)?;
            let energy = model.noc_total_energy_pj(&rep);
            (Some(rep), energy)
        };
        let (resync_cycles, resync_flits, resync_stats) = match &resync_report {
            Some(r) => (r.makespan, r.flits_delivered, r.faults),
            None => (0, 0, FaultStats::default()),
        };
        if let Some(r) = &resync_report {
            acc.intra_chip_traversals += r.intra_chip_traversals;
            acc.inter_chip_traversals += r.inter_chip_traversals;
        }

        // The recovery pseudo-layer: detection wait + resync makespan.
        let overhead = detection_cycles + resync_cycles;
        let resync_bytes = inc.redistribution_bytes;
        acc.push_overhead(LayerBreakdown {
            name: format!("recovery@{}", fault.layer),
            compute_cycles: 0,
            comm_cycles: overhead,
            traffic_bytes: resync_bytes,
            compute_energy_pj: 0.0,
            noc_energy_pj: resync_energy,
            blocked_flit_cycles: resync_report.as_ref().map_or(0, |r| r.blocked_flit_cycles),
        });
        acc.faults.merge(&resync_stats);

        if lts_obs::enabled() {
            let track = lts_obs::cycle_track_named("core.recovery");
            let at = format!("layer{}", fault.layer);
            lts_obs::cycle_record(track, "detect", &at, detection_cycles);
            lts_obs::cycle_record(track, "resync", &at, resync_cycles);
            lts_obs::counter_add("recovery.events", 1);
            lts_obs::counter_add("recovery.detection_cycles", detection_cycles);
            lts_obs::counter_add("recovery.redistribution_cycles", resync_cycles);
            lts_obs::counter_add("recovery.redistribution_bytes", resync_bytes);
        }

        events.push(RecoveryEvent {
            layer: fault.layer,
            dead_cores: newly_dead,
            died_at,
            detection_cycles,
            redistribution_bytes: resync_bytes,
            redistribution_flits: resync_flits,
            redistribution_cycles: resync_cycles,
            lost_boundary_units: inc.lost_boundary_units,
            boundary_units: inc.boundary_units,
            survivors: domain.nodes() - domain.members(&dead).len(),
        });
        current = inc;
    }

    // The surviving tail.
    let seg = &current.tail.layers[completed - current.fault_layer..];
    let degraded_model = model.clone().with_fault_model(domain.fault_model(&dead));
    acc.push_segment(degraded_model.evaluate_layers(seg, Some(&current.core_map))?);

    // The oracle knew the final dead set before starting.
    let oracle = match static_replan(model, domain, spec, weights, &dead, |f| f) {
        Ok((_, Ok(r))) => Some(r),
        Ok((_, Err(e))) => {
            Outcome::from_failure(e)?;
            None
        }
        Err(_) => None,
    };

    Ok(RecoveryReport {
        report: acc.into_report(),
        fault_free,
        oracle,
        events,
        dead_cores: domain.members(&dead),
        lost_output_fraction,
        lost_boundary_fraction,
    })
}

/// The static replan over the domains `dead`, known before the run:
/// `spec` replanned over the survivors of `domain`, then evaluated on
/// `model` under the kill set's fault model with `transient` faults (a
/// seed and a flit-drop rate, say) layered on it. This is the oracle of
/// [`run_with_recovery`], a static cell of the fault matrix and a
/// serving profile on a degraded system.
///
/// # Errors
///
/// The outer error is the replan's; the evaluation's error, typed NoC
/// failures included, comes back inside.
pub(crate) fn static_replan(
    model: &SystemModel,
    domain: &FailureDomain,
    spec: &NetworkSpec,
    weights: &HashMap<String, Vec<f32>>,
    dead: &[usize],
    transient: impl FnOnce(FaultModel) -> FaultModel,
) -> Result<(Replan, Result<SystemReport>)> {
    let replan = domain.replan(spec, None, 0, dead, weights, 2)?;
    let fault = transient(domain.fault_model(&replan.dead));
    let report = model.clone().with_fault_model(fault).evaluate_replan(&replan);
    Ok((replan, report))
}

/// Builds the composed [`SystemReport`] incrementally.
#[derive(Default)]
struct Accumulator {
    total_cycles: u64,
    compute_cycles: u64,
    comm_cycles: u64,
    traffic_bytes: u64,
    compute_energy_pj: f64,
    noc_energy_pj: f64,
    faults: FaultStats,
    sim: SimUsage,
    intra_chip_traversals: u64,
    inter_chip_traversals: u64,
    layers: Vec<LayerBreakdown>,
}

impl Accumulator {
    fn push_segment(&mut self, seg: SystemReport) {
        self.total_cycles += seg.total_cycles;
        self.compute_cycles += seg.compute_cycles;
        self.comm_cycles += seg.comm_cycles;
        self.traffic_bytes += seg.traffic_bytes;
        self.compute_energy_pj += seg.compute_energy_pj;
        self.noc_energy_pj += seg.noc_energy_pj;
        self.faults.merge(&seg.faults);
        self.sim.merge(&seg.sim);
        self.intra_chip_traversals += seg.intra_chip_traversals;
        self.inter_chip_traversals += seg.inter_chip_traversals;
        self.layers.extend(seg.layers);
    }

    fn push_overhead(&mut self, layer: LayerBreakdown) {
        self.total_cycles += layer.comm_cycles + layer.compute_cycles;
        self.comm_cycles += layer.comm_cycles;
        self.compute_cycles += layer.compute_cycles;
        self.traffic_bytes += layer.traffic_bytes;
        self.compute_energy_pj += layer.compute_energy_pj;
        self.noc_energy_pj += layer.noc_energy_pj;
        self.layers.push(layer);
    }

    fn into_report(self) -> SystemReport {
        SystemReport {
            total_cycles: self.total_cycles,
            compute_cycles: self.compute_cycles,
            comm_cycles: self.comm_cycles,
            traffic_bytes: self.traffic_bytes,
            compute_energy_pj: self.compute_energy_pj,
            noc_energy_pj: self.noc_energy_pj,
            faults: self.faults,
            sim: self.sim,
            intra_chip_traversals: self.intra_chip_traversals,
            inter_chip_traversals: self.inter_chip_traversals,
            layers: self.layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_nn::descriptor::lenet_spec;
    use lts_noc::McmTopology;
    use lts_partition::{McmPlan, Plan};

    const CHIP: FailureDomain = FailureDomain::Cores(16);

    fn model() -> SystemModel {
        SystemModel::paper(16).unwrap()
    }

    fn no_weights() -> HashMap<String, Vec<f32>> {
        HashMap::new()
    }

    #[test]
    fn empty_fault_list_is_bit_identical_to_evaluate() {
        let spec = lenet_spec();
        let m = model();
        let plain = m.evaluate(&Plan::dense(&spec, 16, 2).unwrap()).unwrap();
        let rec =
            run_with_recovery(&m, &CHIP, &spec, &no_weights(), &[], &MonitorConfig::default())
                .unwrap();
        assert_eq!(rec.report, plain);
        assert!(rec.events.is_empty());
        assert_eq!(rec.overhead_vs_fault_free(), 1.0);
        assert_eq!(rec.lost_fraction(), 0.0);
    }

    #[test]
    fn mid_inference_death_recovers_and_pays_a_measurable_overhead() {
        let spec = lenet_spec();
        let m = model();
        let faults = [InferenceFault { layer: 3, dead: vec![5] }];
        let rec =
            run_with_recovery(&m, &CHIP, &spec, &no_weights(), &faults, &MonitorConfig::default())
                .unwrap();
        assert_eq!(rec.events.len(), 1);
        let e = &rec.events[0];
        assert_eq!(e.layer, 3);
        assert_eq!(e.dead_cores, vec![5]);
        assert!(e.detection_cycles > 0, "heartbeat detection takes time");
        assert!(e.redistribution_bytes > 0, "survivors must resync the boundary");
        assert!(e.redistribution_cycles > 0);
        assert_eq!(e.survivors, 15);
        assert!(rec.overhead_vs_fault_free() > 1.0, "recovery is never free");
        // The recovery pseudo-layer shows up on the composed timeline.
        assert!(rec.report.layers.iter().any(|l| l.name == "recovery@3"));
        assert_eq!(rec.report.layers.len(), spec.layers.len() + 1);
        // Dense plans lose no accuracy, only the boundary share of a
        // feature map that dense resharding recomputes... which it
        // cannot: the orphaned units are reported.
        assert_eq!(rec.lost_output_fraction, 0.0);
        assert!(rec.lost_boundary_fraction > 0.0);
        assert!(rec.lost_fraction() <= 1.0);
    }

    #[test]
    fn online_recovery_costs_more_than_the_oracle() {
        let spec = lenet_spec();
        let m = model();
        let faults = [InferenceFault { layer: 2, dead: vec![6, 9] }];
        let rec =
            run_with_recovery(&m, &CHIP, &spec, &no_weights(), &faults, &MonitorConfig::default())
                .unwrap();
        let oracle_overhead = rec.overhead_vs_oracle().expect("oracle survives 2 deaths");
        assert!(
            oracle_overhead > 1.0,
            "online recovery (detection + resync) must cost more than foreknowledge"
        );
        assert_eq!(rec.dead_cores, vec![6, 9]);
    }

    #[test]
    fn stacked_faults_compose_the_core_map() {
        let spec = lenet_spec();
        let m = model();
        let faults = [
            InferenceFault { layer: 2, dead: vec![3] },
            InferenceFault { layer: 5, dead: vec![11, 3] }, // 3 already dead
        ];
        let rec =
            run_with_recovery(&m, &CHIP, &spec, &no_weights(), &faults, &MonitorConfig::default())
                .unwrap();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].survivors, 15);
        assert_eq!(rec.events[1].dead_cores, vec![11], "re-killing a dead core is a no-op");
        assert_eq!(rec.events[1].survivors, 14);
        assert_eq!(rec.dead_cores, vec![3, 11]);
        assert!(rec.events[1].died_at > rec.events[0].died_at);
    }

    #[test]
    fn fault_before_the_first_layer_restarts_on_survivors() {
        let spec = lenet_spec();
        let m = model();
        let faults = [InferenceFault { layer: 0, dead: vec![7] }];
        let rec =
            run_with_recovery(&m, &CHIP, &spec, &no_weights(), &faults, &MonitorConfig::default())
                .unwrap();
        let e = &rec.events[0];
        assert_eq!(e.died_at, 0);
        assert_eq!(e.redistribution_bytes, 0, "no feature map exists yet");
        assert_eq!(e.boundary_units, 0);
        assert_eq!(rec.lost_boundary_fraction, 0.0);
        // Aside from detection latency, this is the oracle's run.
        let oracle = rec.oracle.as_ref().unwrap();
        assert_eq!(rec.report.total_cycles, oracle.total_cycles + e.detection_cycles);
    }

    #[test]
    fn invalid_fault_lists_are_rejected() {
        let spec = lenet_spec();
        let m = model();
        let mon = MonitorConfig::default();
        let unsorted = [
            InferenceFault { layer: 4, dead: vec![1] },
            InferenceFault { layer: 2, dead: vec![2] },
        ];
        assert!(run_with_recovery(&m, &CHIP, &spec, &no_weights(), &unsorted, &mon).is_err());
        let oob_layer = [InferenceFault { layer: 99, dead: vec![1] }];
        assert!(run_with_recovery(&m, &CHIP, &spec, &no_weights(), &oob_layer, &mon).is_err());
        let oob_core = [InferenceFault { layer: 1, dead: vec![16] }];
        assert!(run_with_recovery(&m, &CHIP, &spec, &no_weights(), &oob_core, &mon).is_err());
        let wipeout = [InferenceFault { layer: 1, dead: (0..16).collect() }];
        assert!(run_with_recovery(&m, &CHIP, &spec, &no_weights(), &wipeout, &mon).is_err());
    }

    #[test]
    fn checkpoints_cover_every_boundary_and_sum_to_the_total() {
        let spec = lenet_spec();
        let m = model();
        let baseline = m.evaluate(&Plan::dense(&spec, 16, 2).unwrap()).unwrap();
        let cps = boundary_checkpoints(&spec, 16, &baseline).unwrap();
        assert_eq!(cps.len(), spec.layers.len());
        assert_eq!(cps.last().unwrap().cycle, baseline.total_cycles);
        for cp in &cps {
            let held: usize = cp.blocks.iter().map(|b| b.len()).sum();
            if !cp.blocks.is_empty() {
                assert!(held > 0, "boundary {} holds no state", cp.layer);
            }
        }
        // The conv1 boundary shards 20 channels of 24x24 activations.
        assert_eq!(cps[0].blocks.iter().map(|b| b.len()).sum::<usize>(), 20);
        assert_eq!(cps[0].values_per_unit, 24 * 24);
    }

    #[test]
    fn checkpoints_reject_a_baseline_of_another_network() {
        let spec = lenet_spec();
        let m = model();
        let mut baseline = m.evaluate(&Plan::dense(&spec, 16, 2).unwrap()).unwrap();
        baseline.layers.pop();
        let err = boundary_checkpoints(&spec, 16, &baseline);
        assert!(matches!(err, Err(CoreError::BadConfig(_))), "{err:?}");
    }

    #[test]
    fn recovery_is_deterministic() {
        let spec = lenet_spec();
        let m = model();
        let faults = [InferenceFault { layer: 4, dead: vec![2, 13] }];
        let mon = MonitorConfig::default();
        let a = run_with_recovery(&m, &CHIP, &spec, &no_weights(), &faults, &mon).unwrap();
        let b = run_with_recovery(&m, &CHIP, &spec, &no_weights(), &faults, &mon).unwrap();
        assert_eq!(a, b);
    }

    /// A 2x2 package grid of 2x2 chiplets (16 cores total).
    fn mcm_model() -> SystemModel {
        SystemModel::paper_mcm(4, 4).unwrap()
    }

    fn package_of(m: &SystemModel) -> McmTopology {
        match m.noc_config().topo() {
            Topo::Mcm(t) => t,
            Topo::Mesh(_) => panic!("expected an MCM package"),
        }
    }

    fn package(m: &SystemModel) -> FailureDomain {
        FailureDomain::Chiplets(package_of(m))
    }

    #[test]
    fn chiplet_faults_require_a_package_topology() {
        let spec = lenet_spec();
        let faults = [InferenceFault { layer: 2, dead: vec![1] }];
        let err = run_with_recovery(
            &model(),
            &package(&mcm_model()),
            &spec,
            &no_weights(),
            &faults,
            &MonitorConfig::default(),
        );
        assert!(err.is_err(), "a flat mesh has no chiplets to kill");
    }

    #[test]
    fn empty_chiplet_fault_list_is_bit_identical_to_the_mcm_evaluation() {
        let spec = lenet_spec();
        let m = mcm_model();
        let topo = package_of(&m);
        let plan = McmPlan::build(&spec, &topo, &no_weights(), 2).unwrap();
        let plain = m.evaluate(&plan.plan).unwrap();
        let rec = run_with_recovery(
            &m,
            &package(&m),
            &spec,
            &no_weights(),
            &[],
            &MonitorConfig::default(),
        )
        .unwrap();
        assert_eq!(rec.report, plain);
        assert!(rec.events.is_empty());
        assert_eq!(rec.overhead_vs_fault_free(), 1.0);
        assert_eq!(rec.lost_fraction(), 0.0);
    }

    #[test]
    fn mid_inference_chiplet_death_restages_onto_the_survivors() {
        let spec = lenet_spec();
        let m = mcm_model();
        let topo = package_of(&m);
        let faults = [InferenceFault { layer: 3, dead: vec![1] }];
        let rec = run_with_recovery(
            &m,
            &package(&m),
            &spec,
            &no_weights(),
            &faults,
            &MonitorConfig::default(),
        )
        .unwrap();
        assert_eq!(rec.events.len(), 1);
        let e = &rec.events[0];
        assert_eq!(e.layer, 3);
        assert_eq!(e.dead_cores, topo.chiplet_nodes(1), "a chiplet death is its member routers");
        assert!(e.detection_cycles > 0, "hierarchical detection takes time");
        assert_eq!(e.survivors, 12, "three chiplets of four cores survive");
        assert!(rec.overhead_vs_fault_free() > 1.0, "recovery is never free");
        assert!(rec.report.layers.iter().any(|l| l.name == "recovery@3"));
        assert_eq!(rec.report.layers.len(), spec.layers.len() + 1);
        assert_eq!(rec.dead_cores, topo.chiplet_nodes(1));
        // MCM replans regenerate every layout: only boundary loss exists,
        // and a surviving producer chiplet means none at all is forced.
        assert_eq!(rec.lost_output_fraction, 0.0);
        assert!(rec.lost_fraction() <= 1.0);
        // The oracle static replan over the survivor set is viable and
        // cheaper than recovering online.
        let oracle = rec.overhead_vs_oracle().expect("3 survivor chiplets carry the network");
        assert!(oracle > 1.0, "online recovery must cost more than foreknowledge");
    }

    #[test]
    fn stacked_chiplet_faults_accumulate_the_dead_set() {
        let spec = lenet_spec();
        let m = mcm_model();
        let topo = package_of(&m);
        let faults = [
            InferenceFault { layer: 2, dead: vec![3] },
            InferenceFault { layer: 4, dead: vec![1, 3] }, // 3 already dead
        ];
        let rec = run_with_recovery(
            &m,
            &package(&m),
            &spec,
            &no_weights(),
            &faults,
            &MonitorConfig::default(),
        )
        .unwrap();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].survivors, 12);
        assert_eq!(
            rec.events[1].dead_cores,
            topo.chiplet_nodes(1),
            "re-killing a dead chiplet is a no-op"
        );
        assert_eq!(rec.events[1].survivors, 8);
        let mut expected: Vec<usize> = topo.chiplet_nodes(1);
        expected.extend(topo.chiplet_nodes(3));
        expected.sort_unstable();
        assert_eq!(rec.dead_cores, expected);
        assert!(rec.events[1].died_at > rec.events[0].died_at);
    }

    #[test]
    fn invalid_chiplet_fault_lists_are_rejected() {
        let spec = lenet_spec();
        let m = mcm_model();
        let mon = MonitorConfig::default();
        let unsorted = [
            InferenceFault { layer: 4, dead: vec![1] },
            InferenceFault { layer: 2, dead: vec![2] },
        ];
        assert!(run_with_recovery(&m, &package(&m), &spec, &no_weights(), &unsorted, &mon).is_err());
        let oob_layer = [InferenceFault { layer: 99, dead: vec![1] }];
        assert!(
            run_with_recovery(&m, &package(&m), &spec, &no_weights(), &oob_layer, &mon).is_err()
        );
        let oob_chiplet = [InferenceFault { layer: 1, dead: vec![4] }];
        assert!(
            run_with_recovery(&m, &package(&m), &spec, &no_weights(), &oob_chiplet, &mon).is_err()
        );
        let wipeout = [InferenceFault { layer: 1, dead: (0..4).collect() }];
        assert!(run_with_recovery(&m, &package(&m), &spec, &no_weights(), &wipeout, &mon).is_err());
    }

    #[test]
    fn chiplet_recovery_is_bit_identical_across_cache_temperature() {
        let spec = lenet_spec();
        let m = mcm_model();
        let faults = [InferenceFault { layer: 4, dead: vec![2] }];
        let mon = MonitorConfig::default();
        let a = run_with_recovery(&m, &package(&m), &spec, &no_weights(), &faults, &mon).unwrap();
        crate::simcache::reset();
        let b = run_with_recovery(&m, &package(&m), &spec, &no_weights(), &faults, &mon).unwrap();
        assert_eq!(a.report.total_cycles, b.report.total_cycles);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fault_free, b.fault_free);
        assert_eq!(a.oracle.map(|r| r.total_cycles), b.oracle.map(|r| r.total_cycles));
    }
}
