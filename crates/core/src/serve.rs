//! Fail-operational online serving: a deterministic discrete-event
//! simulator that drives the end-to-end system model with an open-loop
//! request stream and keeps it predictable under overload and faults.
//!
//! The pieces, front to back:
//!
//! * **Arrivals** ([`ArrivalProcess`]) — seeded Poisson or two-state
//!   MMPP burst streams, drawn from the same splitmix64 hash stream the
//!   chaos soak uses, so a `(process, seed, horizon)` triple always
//!   produces the same request times regardless of `LTS_THREADS`.
//! * **Admission** — a bounded FIFO queue. Arrivals that find the queue
//!   full are shed immediately ([`Outcome::Shed`]).
//! * **Batching + deadline shedding** — the dispatcher coalesces queued
//!   requests into batches of at most [`ServingConfig::max_batch`],
//!   admitting a request into a batch only if its predicted completion
//!   meets its deadline (`arrival + latency_budget`). A request that
//!   cannot meet its deadline even at the front of a fresh batch is
//!   hopeless and is shed instead of wasting pipeline capacity.
//! * **Pipelining** — each strategy's plan is split into layer groups,
//!   a [`lts_partition::StagePipeline`] over the measured per-layer
//!   cycles (on an MCM package the chiplet stages of
//!   [`lts_partition::McmPlan`] are used directly). A batch drains with
//!   the pipeline's initiation interval, its slowest group: request
//!   `j` completes at `dispatch + latency + j·interval`, plus any
//!   measured entry-burst contention. A batch's staggered entry burst
//!   is a pure function of the profile's `(config, fault, messages)`
//!   triple, and the bursts of every batch size are prefixes of one
//!   periodic trace: the contention of every size up to `max_batch`
//!   comes from one periodic run per profile
//!   ([`lts_noc::Simulator::run_periodic`]) through the
//!   [`crate::simcache`], memoised in the serving state until the
//!   profiles are rebuilt. A size the run declines (its copies overlap)
//!   is simulated on its own when a batch of that size first forms.
//! * **Controller** ([`ControllerConfig`]) — watches queue depth and a
//!   windowed p95 of observed latencies and walks the strategy ladder
//!   (Traditional → Structure → SS → SS_Mask) with patience and a
//!   cooldown, so it cannot flap.
//! * **Faults** ([`StreamFault`]) — mid-stream core deaths; on a
//!   package, deaths covering whole chiplets are chiplet losses. A fault
//!   that lands inside an in-flight batch rides the online recovery
//!   path ([`crate::recovery::run_with_recovery`], over the failure
//!   domain the dead set falls in) and delays exactly
//!   the requests still in the pipeline; a fault on an idle server
//!   stalls dispatch for the heartbeat detection latency. Either way
//!   the serving loop continues on replanned, degraded profiles,
//!   shedding at admission to protect the SLO. If *no* strategy can run
//!   on the survivors, the run halts fail-operationally with typed
//!   outcomes — never a panic, never silent loss.
//!
//! Everything is deterministic in the config: no wall clock, no global
//! RNG, a single-threaded event loop, and NoC work memoized through the
//! cross-sweep cache.

use crate::degradation::{masked_weights, workloads, Workload};
use crate::fault_matrix::splitmix;
use crate::outcome::{Outcome, OutcomeHistogram};
use crate::recovery::{detection_latency, run_with_recovery, static_replan, InferenceFault};
use crate::simcache::{self, SimUsage};
use crate::system::SystemModel;
use crate::{CoreError, Result};
use lts_nn::descriptor::NetworkSpec;
use lts_noc::traffic::{periodic, Message};
use lts_noc::{FaultModel, MonitorConfig, NocConfig, SimReport, Simulator, Topo, Topology};
use lts_partition::{group_occupancy, FailureDomain, StagePipeline, StagePlacement};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Largest request count one run may generate (memory guard: the whole
/// stream is materialized up front for determinism).
const MAX_REQUESTS: usize = 100_000;

/// The open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless stream at a fixed mean rate (requests per megacycle).
    Poisson {
        /// Mean arrival rate in requests per megacycle.
        rate_rpmc: f64,
    },
    /// Two-state Markov-modulated Poisson process: the stream dwells in
    /// a calm state and a burst state with exponentially distributed
    /// dwell times, emitting at the current state's rate.
    Burst {
        /// Mean rate of the calm state (requests per megacycle).
        base_rpmc: f64,
        /// Mean rate of the burst state (requests per megacycle).
        burst_rpmc: f64,
        /// Mean dwell time in each state, in cycles.
        mean_dwell_cycles: u64,
    },
}

impl ArrivalProcess {
    /// The process's worst-case mean rate (the burst state for MMPP).
    pub fn peak_rpmc(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rpmc } => rate_rpmc,
            ArrivalProcess::Burst { base_rpmc, burst_rpmc, .. } => base_rpmc.max(burst_rpmc),
        }
    }

    fn validate(&self) -> Result<()> {
        let ok = match *self {
            ArrivalProcess::Poisson { rate_rpmc } => rate_rpmc > 0.0 && rate_rpmc.is_finite(),
            ArrivalProcess::Burst { base_rpmc, burst_rpmc, mean_dwell_cycles } => {
                base_rpmc > 0.0
                    && burst_rpmc > 0.0
                    && base_rpmc.is_finite()
                    && burst_rpmc.is_finite()
                    && mean_dwell_cycles > 0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(CoreError::BadConfig("arrival rates must be positive and finite".into()))
        }
    }
}

/// A seeded, bounded request stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// The stochastic process requests are drawn from.
    pub process: ArrivalProcess,
    /// Cycles of open-loop arrivals (no request arrives at or past the
    /// horizon; queued work still drains afterwards).
    pub horizon_cycles: u64,
    /// Stream seed: same seed, same request times, on any machine.
    pub seed: u64,
}

impl ArrivalConfig {
    /// Materializes the stream: non-decreasing arrival cycles within
    /// the horizon.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for non-positive rates, a zero horizon,
    /// or a stream that would exceed the request-count guard.
    pub fn times(&self) -> Result<Vec<u64>> {
        self.process.validate()?;
        if self.horizon_cycles == 0 {
            return Err(CoreError::BadConfig("arrival horizon must be positive".into()));
        }
        let expected = self.process.peak_rpmc() * self.horizon_cycles as f64 / 1e6;
        if expected > MAX_REQUESTS as f64 {
            return Err(CoreError::BadConfig(format!(
                "stream would generate ~{expected:.0} requests (cap {MAX_REQUESTS})"
            )));
        }
        let mut state = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut times = Vec::new();
        match self.process {
            ArrivalProcess::Poisson { rate_rpmc } => {
                let mean = 1e6 / rate_rpmc;
                let mut t = 0u64;
                loop {
                    t = t.saturating_add(exp_cycles(&mut state, mean));
                    if t >= self.horizon_cycles || times.len() >= MAX_REQUESTS {
                        break;
                    }
                    times.push(t);
                }
            }
            ArrivalProcess::Burst { base_rpmc, burst_rpmc, mean_dwell_cycles } => {
                let mut t = 0u64;
                let mut bursting = false;
                let mut switch_at = exp_cycles(&mut state, mean_dwell_cycles as f64);
                loop {
                    let rate = if bursting { burst_rpmc } else { base_rpmc };
                    let next = t.saturating_add(exp_cycles(&mut state, 1e6 / rate));
                    if next >= switch_at {
                        // The dwell ends before the next arrival: change
                        // state and redraw from the new rate.
                        t = switch_at;
                        bursting = !bursting;
                        switch_at = switch_at
                            .saturating_add(exp_cycles(&mut state, mean_dwell_cycles as f64));
                        if t >= self.horizon_cycles {
                            break;
                        }
                        continue;
                    }
                    t = next;
                    if t >= self.horizon_cycles || times.len() >= MAX_REQUESTS {
                        break;
                    }
                    times.push(t);
                }
            }
        }
        Ok(times)
    }
}

/// One exponential inter-event draw with the given mean, in cycles
/// (at least 1, so time always advances).
fn exp_cycles(state: &mut u64, mean_cycles: f64) -> u64 {
    let bits = splitmix(state);
    // Uniform in (0, 1]: never ln(0).
    let u = ((bits >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let dt = -u.ln() * mean_cycles;
    if dt >= u64::MAX as f64 {
        u64::MAX
    } else {
        (dt.round() as u64).max(1)
    }
}

/// The strategy ladder the controller walks. Order is the declared
/// degradation order under load: the left end keeps full fidelity and
/// moves the most traffic, the right end trades accuracy for
/// communication locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServingStrategy {
    /// Dense ConvNet, traditional sharding (§IV-A).
    Traditional,
    /// Grouped ConvNet-G, structure-level parallelism (§IV-B).
    Structure,
    /// Dense ConvNet with distance-blind synthetic sparsity (SS).
    Ss,
    /// Dense ConvNet with hop-local SS_Mask-style sparsity (§IV-C).
    SsMask,
}

impl ServingStrategy {
    /// Every strategy, in ladder (degradation) order.
    pub const LADDER: [ServingStrategy; 4] = [
        ServingStrategy::Traditional,
        ServingStrategy::Structure,
        ServingStrategy::Ss,
        ServingStrategy::SsMask,
    ];

    /// The paper's display label.
    pub fn label(self) -> &'static str {
        match self {
            ServingStrategy::Traditional => "Traditional",
            ServingStrategy::Structure => "Structure",
            ServingStrategy::Ss => "SS",
            ServingStrategy::SsMask => "SS_Mask",
        }
    }

    fn index(self) -> usize {
        Self::LADDER.iter().position(|&s| s == self).unwrap_or_default()
    }
}

impl std::fmt::Display for ServingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A mid-stream fault: `dead_cores` die (compute and router together)
/// at `at_cycle` on the serving timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamFault {
    /// Serving-timeline cycle of the death.
    pub at_cycle: u64,
    /// Physical cores killed (distinct, in range, never everything).
    pub dead_cores: Vec<usize>,
}

/// The [`StreamFault`] that kills every core of `chiplet` at `at_cycle`
/// on `config`'s package — the serving-level form of a whole-chiplet
/// death. The dead set covers the chiplet exactly, so profile rebuilds
/// and in-flight recoveries take the hierarchical MCM path
/// (chiplet-liveness detection, survivor-stage restaging) rather than
/// the mesh fallback.
///
/// # Errors
///
/// [`CoreError::BadConfig`] when `config` is not an MCM package
/// (`chiplets <= 1`) or `chiplet` is out of range.
pub fn chiplet_stream_fault(
    config: &ServingConfig,
    chiplet: usize,
    at_cycle: u64,
) -> Result<StreamFault> {
    if config.chiplets <= 1 {
        return Err(CoreError::BadConfig(
            "chiplet faults need an MCM package (chiplets > 1)".into(),
        ));
    }
    if chiplet >= config.chiplets {
        return Err(CoreError::BadConfig(format!(
            "chiplet {chiplet} out of range for a {}-chiplet package",
            config.chiplets
        )));
    }
    let noc = NocConfig::paper_mcm(config.chiplets, config.cores).map_err(CoreError::Noc)?;
    let Topo::Mcm(topo) = noc.topo() else {
        return Err(CoreError::BadConfig("paper_mcm produced a single-chip mesh topology".into()));
    };
    Ok(StreamFault { at_cycle, dead_cores: topo.chiplet_nodes(chiplet) })
}

/// SLO-driven strategy-switching policy. The controller is evaluated at
/// each dispatch: `overloaded` (queue at or above `high_queue`, or
/// windowed p95 above 90% of the budget) for `patience` consecutive
/// dispatches moves one rung right (cheaper); `calm` (queue at or below
/// `low_queue` and p95 under half the budget) for `patience` dispatches
/// moves one rung back left. A `cooldown_cycles` dead time after every
/// switch makes flapping impossible by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Completed-request window the p95 is computed over.
    pub window: usize,
    /// Queue depth at which the controller considers the system
    /// overloaded.
    pub high_queue: usize,
    /// Queue depth at or below which the system counts as calm.
    pub low_queue: usize,
    /// Consecutive overloaded/calm dispatches before a switch.
    pub patience: usize,
    /// Minimum cycles between switches (`0` = twice the latency budget).
    pub cooldown_cycles: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self { window: 16, high_queue: 16, low_queue: 2, patience: 2, cooldown_cycles: 0 }
    }
}

/// One controller decision (including forced switches when a fault
/// leaves the current strategy unable to run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerEvent {
    /// Dispatch cycle of the switch.
    pub at_cycle: u64,
    /// Strategy before the switch.
    pub from: ServingStrategy,
    /// Strategy after the switch.
    pub to: ServingStrategy,
    /// Queue depth observed at the switch.
    pub queue_depth: usize,
    /// Windowed p95 latency observed at the switch (0 with no window).
    pub p95_latency: u64,
    /// Whether the switch was forced by a fault making the previous
    /// strategy unviable (as opposed to an SLO decision).
    pub forced: bool,
}

/// Full serving-run shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Cores per chip (per chiplet when `chiplets > 1`).
    pub cores: usize,
    /// Chiplets in the package; `> 1` selects the MCM system model and
    /// [`McmPlan`] stage pipelining.
    pub chiplets: usize,
    /// The request stream.
    pub arrivals: ArrivalConfig,
    /// Admission queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Most requests coalesced into one pipelined batch.
    pub max_batch: usize,
    /// Per-request latency budget in cycles (`0` = three times the
    /// initial strategy's single-request latency).
    pub latency_budget: u64,
    /// Layer groups for single-chip pipelining (MCM packages pipeline
    /// across their chiplet stages instead).
    pub pipeline_groups: usize,
    /// Initial strategy.
    pub strategy: ServingStrategy,
    /// Strategy-switching policy (`None` pins the initial strategy;
    /// fault-forced switches still happen).
    pub controller: Option<ControllerConfig>,
    /// Mid-stream core deaths, any order (applied in time order).
    pub faults: Vec<StreamFault>,
    /// Heartbeat monitor pricing detections (mesh- and MCM-aware).
    pub monitor: MonitorConfig,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            cores: 16,
            chiplets: 1,
            arrivals: ArrivalConfig {
                process: ArrivalProcess::Poisson { rate_rpmc: 1.0 },
                horizon_cycles: 4_000_000,
                seed: 2019,
            },
            queue_capacity: 64,
            max_batch: 8,
            latency_budget: 0,
            pipeline_groups: 4,
            strategy: ServingStrategy::Traditional,
            controller: None,
            faults: Vec::new(),
            monitor: MonitorConfig::default(),
        }
    }
}

/// One dispatched batch on the serving timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Dispatch cycle.
    pub dispatched_at: u64,
    /// Completion cycle of the batch's last request.
    pub completed_at: u64,
    /// Requests in the batch.
    pub size: usize,
    /// Strategy the batch ran under.
    pub strategy: ServingStrategy,
    /// Entry-burst contention beyond the ideal pipeline schedule.
    pub contention_cycles: u64,
}

/// One mid-stream fault's recovery accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRecovery {
    /// Fault cycle on the serving timeline.
    pub at_cycle: u64,
    /// Cores killed by this fault.
    pub dead_cores: Vec<usize>,
    /// In-flight requests that rode the recovery (0 = the fault struck
    /// an idle server).
    pub in_flight: usize,
    /// Death-to-detection cycles.
    pub detection_cycles: u64,
    /// Cycles of delay charged to the affected requests (or the idle
    /// detection stall when nothing was in flight).
    pub overhead_cycles: u64,
}

/// Order statistics over a set of completion latencies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencySummary {
    /// Completions summarized.
    pub completed: usize,
    /// Median latency in cycles.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst latency.
    pub max: u64,
    /// Mean latency.
    pub mean: f64,
}

impl LatencySummary {
    fn from_latencies(mut lats: Vec<u64>) -> Self {
        if lats.is_empty() {
            return Self::default();
        }
        lats.sort_unstable();
        let mean = lats.iter().sum::<u64>() as f64 / lats.len() as f64;
        Self {
            completed: lats.len(),
            p50: percentile(&lats, 0.50),
            p95: percentile(&lats, 0.95),
            p99: percentile(&lats, 0.99),
            max: *lats.last().unwrap_or(&0),
            mean,
        }
    }
}

/// Nearest-rank percentile over a sorted slice (`0` when empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Serving statistics for one phase (between consecutive applied
/// faults; a fault-free run has a single phase).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// `pre-fault` or `post@<cycle>`.
    pub label: String,
    /// Phase start cycle (inclusive).
    pub start: u64,
    /// Phase end cycle (exclusive; the last phase ends at the makespan).
    pub end: u64,
    /// Requests reaching a terminal non-shed state in the phase.
    pub completed: usize,
    /// Successful completions (served + recovered).
    pub served: usize,
    /// Requests shed in the phase.
    pub shed: usize,
    /// Deadline misses in the phase.
    pub missed: usize,
    /// Successful completions per megacycle — the QPS-dip signal.
    pub sustained_rpmc: f64,
    /// Latency summary over the phase's successful completions.
    pub latency: LatencySummary,
    /// Recovery overhead paid for the fault opening this phase.
    pub recovery_overhead_cycles: u64,
}

/// One strategy's service characteristics on the current system, plus
/// how much of the run it served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategySummary {
    /// The strategy.
    pub strategy: ServingStrategy,
    /// Single-request latency through all layer groups, in cycles.
    pub latency_cycles: u64,
    /// Pipeline initiation interval (slowest group), in cycles.
    pub interval_cycles: u64,
    /// Worst per-group/per-stage core occupancy, in `(0, 1]`.
    pub min_stage_occupancy: f64,
    /// Pipeline groups/stages of the profile. On an MCM package this is
    /// the chiplet stage count — after a whole-chiplet loss it shrinks
    /// to the survivor count (fewer, fatter stages), the typed signature
    /// of a degraded-MCM service profile.
    pub stages: usize,
    /// Batches dispatched under this strategy.
    pub batches: usize,
    /// Requests completed under this strategy.
    pub requests: usize,
}

/// Everything a serving run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests the stream offered.
    pub offered: usize,
    /// The arrival horizon.
    pub horizon_cycles: u64,
    /// Last completion cycle, floored at the horizon.
    pub makespan_cycles: u64,
    /// The per-request latency budget actually used.
    pub latency_budget: u64,
    /// Per-request outcome counts.
    pub outcomes: OutcomeHistogram,
    /// Latency summary over successful completions.
    pub latency: LatencySummary,
    /// Offered load in requests per megacycle.
    pub offered_rpmc: f64,
    /// Successful completions per megacycle of makespan.
    pub sustained_rpmc: f64,
    /// Shed requests over offered requests.
    pub shed_rate: f64,
    /// Deadline misses over offered requests.
    pub miss_rate: f64,
    /// Worst NoC saturation observed across the run, in mean blocked
    /// flits per cycle: the larger of the entry-burst
    /// [`lts_noc::SimReport::blocked_share`] and the per-layer blocked
    /// flits per cycle of the active profiles. Unbounded above, not a
    /// share: a congested burst reads well over 1.
    pub noc_saturation: f64,
    /// Every dispatched batch, in order.
    pub batches: Vec<BatchRecord>,
    /// Per-strategy service characteristics and usage (strategies the
    /// final survivor set made unviable are omitted).
    pub strategies: Vec<StrategySummary>,
    /// Controller decisions, in order.
    pub controller_events: Vec<ControllerEvent>,
    /// Per-fault recovery accounting, in order.
    pub recoveries: Vec<ServeRecovery>,
    /// Per-phase statistics (fault boundaries split phases).
    pub phases: Vec<PhaseStats>,
    /// Set when the run halted fail-operationally (no strategy could
    /// run on the survivors).
    pub halted_at: Option<u64>,
    /// Simulated-vs-cached NoC work behind the run.
    pub sim: SimUsage,
}

impl ServingReport {
    /// Successful completions (served + recovered).
    pub fn served(&self) -> u64 {
        self.outcomes.successes()
    }
}

/// A runnable service profile: the measured pipeline shape of one
/// strategy on the current (possibly degraded) system.
#[derive(Clone)]
struct ServiceProfile {
    /// The pipeline groups (chiplet stages on a package) and their
    /// measured cycles.
    pipeline: StagePipeline,
    /// Physical entry-burst messages (first communicating transition).
    entry: Vec<Message>,
    /// Worst per-group core occupancy.
    min_occupancy: f64,
    /// Kill set in effect (for entry-burst simulations).
    fault: FaultModel,
    /// Worst per-layer blocked flits per communication cycle of the
    /// profile's evaluation.
    saturation: f64,
}

impl ServiceProfile {
    /// Single-request latency through every group, at least one cycle.
    fn latency(&self) -> u64 {
        self.pipeline.latency().max(1)
    }
}

/// The four-strategy serving ladder for `cores`-core chips: the
/// [`workloads`] ladder with the distance-blind SS rung inserted before
/// the hop-local one.
fn serve_workloads(cores: usize) -> Result<Vec<Workload>> {
    let mut ladder = workloads(cores)?;
    let dense = ladder[0].spec.clone();
    // Distance-blind synthetic SS weights: half the off-diagonal
    // producer→consumer weight groups are zeroed by parity, ignoring mesh
    // placement — the paper's plain size-level sparsity, which cuts
    // traffic volume but not hop distance.
    let weights = masked_weights(&dense, cores, |p, c| (p + c) % 2 == 1)?;
    ladder.insert(2, Workload { strategy: "ss", network: "ConvNet", spec: dense, weights });
    Ok(ladder)
}

/// The modeled platform: one system model shared by every profile.
struct Platform {
    model: SystemModel,
    pipeline_groups: usize,
}

impl Platform {
    fn build(config: &ServingConfig) -> Result<Platform> {
        let model = if config.chiplets > 1 {
            SystemModel::paper_mcm(config.chiplets, config.cores)?
        } else {
            SystemModel::paper(config.cores)?
        };
        Ok(Platform { model, pipeline_groups: config.pipeline_groups })
    }

    fn total_cores(&self) -> usize {
        self.model.cores()
    }

    /// The failure domain a dead set falls in, with its domain ids: on a
    /// package whose dead cores cover whole chiplets exactly (none dead
    /// included), the chiplets — so the stage symmetry the package
    /// planner assumes holds; otherwise the cores. A lone dead core on a
    /// package breaks that symmetry, so its profile falls back to
    /// chip-style layer grouping over all the package's cores.
    fn domain(&self, dead: &[usize]) -> (FailureDomain, Vec<usize>) {
        if let Topo::Mcm(topo) = self.model.noc_config().topo() {
            let mut chips: Vec<usize> = dead.iter().map(|&n| topo.chiplet_of(n)).collect();
            chips.sort_unstable();
            chips.dedup();
            let domain = FailureDomain::Chiplets(topo);
            // Dead ids are distinct, so equal counts mean an exact cover.
            if domain.members(&chips).len() == dead.len() {
                return (domain, chips);
            }
        }
        (FailureDomain::Cores(self.total_cores()), dead.to_vec())
    }
}

/// Builds one strategy's service profile on the current survivors.
/// Returns `Ok(None)` when the strategy cannot run on the degraded
/// system (typed unreachable/cycle-limit evaluation failures).
fn build_profile(
    platform: &Platform,
    w: &Workload,
    dead: &[usize],
    usage: &mut SimUsage,
) -> Result<Option<ServiceProfile>> {
    let (domain, ids) = platform.domain(dead);
    let (replan, report) =
        static_replan(&platform.model, &domain, &w.spec, &w.weights, &ids, |f| f)?;
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            Outcome::from_failure(e)?;
            return Ok(None);
        }
    };
    let fault = domain.fault_model(&replan.dead);
    usage.merge(&report.sim);
    // On a package the pipeline groups are the chiplet stages, each as
    // wide as a chiplet; on a chip they split the measured per-layer
    // cycles over the whole plan.
    let layer_cycles = report.layer_cycles();
    let (pipeline, width) = match domain {
        FailureDomain::Chiplets(topo) => (
            StagePipeline::new(
                replan.stages.iter().map(StagePlacement::layers).collect(),
                &layer_cycles,
            ),
            topo.nodes_per_chiplet(),
        ),
        FailureDomain::Cores(_) => (
            StagePipeline::partition(&w.spec, &layer_cycles, platform.pipeline_groups)?,
            replan.tail.cores,
        ),
    };
    let occupancy = group_occupancy(&replan.tail, &pipeline.ranges, width);
    // The first communicating layer transition: the burst a new request
    // injects when it enters the pipeline.
    let entry = replan
        .tail
        .layers
        .iter()
        .find(|lp| !lp.traffic.is_empty())
        .map_or_else(Vec::new, |lp| replan.physical_messages(lp).messages);
    let saturation = report
        .layers
        .iter()
        .map(|l| {
            if l.comm_cycles == 0 {
                0.0
            } else {
                l.blocked_flit_cycles as f64 / l.comm_cycles as f64
            }
        })
        .fold(0.0f64, f64::max);
    Ok(Some(ServiceProfile {
        pipeline,
        entry,
        min_occupancy: occupancy.iter().copied().fold(1.0, f64::min),
        fault,
        saturation,
    }))
}

/// Per-request bookkeeping.
#[derive(Clone, Copy)]
struct RequestRecord {
    outcome: Outcome,
    /// Completion cycle (or shed cycle for shed requests).
    at: u64,
    /// Completion latency (0 for shed requests).
    latency: u64,
}

/// The saturated-pipeline service capacity of `config`'s initial
/// strategy in requests per megacycle: `max_batch` requests complete
/// every `latency + (max_batch − 1) · interval` cycles. Benches use
/// this to position arrival rates relative to saturation.
///
/// # Errors
///
/// [`CoreError::BadConfig`] for invalid configs or a strategy that
/// cannot run on the platform.
pub fn service_capacity_rpmc(config: &ServingConfig) -> Result<f64> {
    validate(config)?;
    let platform = Platform::build(config)?;
    let workloads = serve_workloads(config.cores)?;
    let w = &workloads[config.strategy.index()];
    let mut usage = SimUsage::default();
    let profile = build_profile(&platform, w, &[], &mut usage)?
        .ok_or_else(|| CoreError::BadConfig("strategy cannot run on the healthy system".into()))?;
    let b = config.max_batch as u64;
    let span = profile.latency() + (b - 1) * profile.pipeline.interval();
    Ok(b as f64 * 1e6 / span as f64)
}

fn validate(config: &ServingConfig) -> Result<()> {
    if config.cores == 0 || config.chiplets == 0 {
        return Err(CoreError::BadConfig("cores and chiplets must be positive".into()));
    }
    if config.queue_capacity == 0 || config.max_batch == 0 || config.pipeline_groups == 0 {
        return Err(CoreError::BadConfig(
            "queue_capacity, max_batch and pipeline_groups must be positive".into(),
        ));
    }
    config.arrivals.process.validate()?;
    if config.arrivals.horizon_cycles == 0 {
        return Err(CoreError::BadConfig("arrival horizon must be positive".into()));
    }
    let total = config.cores * config.chiplets;
    let mut all_dead: Vec<usize> = Vec::new();
    for f in &config.faults {
        if f.dead_cores.is_empty() {
            return Err(CoreError::BadConfig("a stream fault must kill at least one core".into()));
        }
        for &d in &f.dead_cores {
            if d >= total {
                return Err(CoreError::BadConfig(format!(
                    "dead core {d} out of range for {total} cores"
                )));
            }
            if all_dead.contains(&d) {
                return Err(CoreError::BadConfig(format!("core {d} killed twice")));
            }
            all_dead.push(d);
        }
    }
    if all_dead.len() + 2 > total {
        return Err(CoreError::BadConfig("faults must leave at least two survivors".into()));
    }
    Ok(())
}

/// Runs the serving simulation described by `config`.
///
/// Deterministic in the config: identical configs produce bit-identical
/// reports across runs, `LTS_THREADS` settings, and simcache
/// temperature.
///
/// # Errors
///
/// [`CoreError::BadConfig`] for invalid configs; plan or simulation
/// errors other than the typed fail-operational outcomes (which are
/// folded into the report instead).
pub fn run_serving(config: &ServingConfig) -> Result<ServingReport> {
    let _probe = lts_obs::span("core.serve");
    validate(config)?;
    let platform = Platform::build(config)?;
    let workloads = serve_workloads(config.cores)?;
    let mut state = ServeState::new(config, &platform, &workloads)?;
    state.run(config, &platform, &workloads)?;
    Ok(state.into_report(config))
}

/// Mutable state of one serving run.
struct ServeState {
    profiles: Vec<Option<ServiceProfile>>,
    idx: usize,
    budget: u64,
    arrival_times: Vec<u64>,
    records: Vec<Option<RequestRecord>>,
    batch_counts: Vec<(usize, usize)>,
    batches: Vec<BatchRecord>,
    recoveries: Vec<ServeRecovery>,
    controller_events: Vec<ControllerEvent>,
    noc_saturation: f64,
    faults: Vec<StreamFault>,
    fault_idx: usize,
    dead_all: Vec<usize>,
    phase_bounds: Vec<u64>,
    queue: VecDeque<(usize, u64)>,
    next_arrival: usize,
    t_free: u64,
    makespan: u64,
    halted_at: Option<u64>,
    lat_window: VecDeque<u64>,
    over_streak: usize,
    calm_streak: usize,
    last_switch: u64,
    cooldown: u64,
    sim: SimUsage,
    /// `(contention, burst share)` of every batch size (the index) of each
    /// profile index whose entry burst was simulated on the current
    /// profiles, `None` until known; cleared when they are rebuilt.
    bursts: HashMap<usize, Vec<Option<(u64, f64)>>>,
}

impl ServeState {
    fn new(
        config: &ServingConfig,
        platform: &Platform,
        workloads: &[Workload],
    ) -> Result<ServeState> {
        let mut sim = SimUsage::default();
        let mut profiles = Vec::with_capacity(workloads.len());
        for w in workloads {
            profiles.push(build_profile(platform, w, &[], &mut sim)?);
        }
        let idx = config.strategy.index();
        let Some(initial) = profiles[idx].as_ref() else {
            return Err(CoreError::BadConfig(
                "initial strategy cannot run on the healthy system".into(),
            ));
        };
        let budget =
            if config.latency_budget == 0 { initial.latency() * 3 } else { config.latency_budget };
        let noc_saturation = initial.saturation;
        let arrival_times = config.arrivals.times()?;
        let offered = arrival_times.len();
        let mut faults = config.faults.clone();
        faults.sort_by_key(|f| f.at_cycle);
        let cooldown =
            config
                .controller
                .map(|c| {
                    if c.cooldown_cycles == 0 {
                        budget.saturating_mul(2)
                    } else {
                        c.cooldown_cycles
                    }
                })
                .unwrap_or(0);
        Ok(ServeState {
            profiles,
            idx,
            budget,
            arrival_times,
            records: vec![None; offered],
            batch_counts: vec![(0, 0); ServingStrategy::LADDER.len()],
            batches: Vec::new(),
            recoveries: Vec::new(),
            controller_events: Vec::new(),
            noc_saturation,
            faults,
            fault_idx: 0,
            dead_all: Vec::new(),
            phase_bounds: Vec::new(),
            queue: VecDeque::new(),
            next_arrival: 0,
            t_free: 0,
            makespan: 0,
            halted_at: None,
            lat_window: VecDeque::new(),
            over_streak: 0,
            calm_streak: 0,
            last_switch: 0,
            cooldown,
            sim,
            bursts: HashMap::new(),
        })
    }

    /// Admits every arrival at or before `now`; a full queue sheds.
    fn admit_until(&mut self, now: u64, capacity: usize) {
        while self.next_arrival < self.arrival_times.len()
            && self.arrival_times[self.next_arrival] <= now
        {
            let at = self.arrival_times[self.next_arrival];
            if self.queue.len() >= capacity {
                self.records[self.next_arrival] =
                    Some(RequestRecord { outcome: Outcome::Shed, at, latency: 0 });
            } else {
                self.queue.push_back((self.next_arrival, at));
            }
            self.next_arrival += 1;
        }
    }

    /// Rebuilds every rung's profile on the current survivor set; if the
    /// active rung died, force-switches to the nearest viable rung
    /// (preferring cheaper strategies) or halts the run.
    fn rebuild_profiles(
        &mut self,
        platform: &Platform,
        workloads: &[Workload],
        at: u64,
    ) -> Result<()> {
        for (i, w) in workloads.iter().enumerate() {
            self.profiles[i] = build_profile(platform, w, &self.dead_all, &mut self.sim)?;
        }
        self.bursts.clear();
        if self.profiles[self.idx].is_none() {
            let fallback = (self.idx + 1..self.profiles.len())
                .chain((0..self.idx).rev())
                .find(|&i| self.profiles[i].is_some());
            match fallback {
                Some(to) => {
                    self.controller_events.push(ControllerEvent {
                        at_cycle: at,
                        from: ServingStrategy::LADDER[self.idx],
                        to: ServingStrategy::LADDER[to],
                        queue_depth: self.queue.len(),
                        p95_latency: windowed_p95(&self.lat_window),
                        forced: true,
                    });
                    self.idx = to;
                    self.last_switch = at;
                }
                None => self.halted_at = Some(at),
            }
        }
        if let Some(p) = self.profiles[self.idx].as_ref() {
            self.noc_saturation = self.noc_saturation.max(p.saturation);
        }
        Ok(())
    }

    /// Applies a fault that struck an idle server and returns the cycle
    /// dispatch may resume (the heartbeat detection stall).
    fn apply_idle_fault(
        &mut self,
        platform: &Platform,
        monitor: &MonitorConfig,
        f: &StreamFault,
    ) -> u64 {
        let detection =
            detection_latency(monitor, platform.model.noc_config(), &f.dead_cores, f.at_cycle);
        self.dead_all.extend_from_slice(&f.dead_cores);
        self.dead_all.sort_unstable();
        self.recoveries.push(ServeRecovery {
            at_cycle: f.at_cycle,
            dead_cores: f.dead_cores.clone(),
            in_flight: 0,
            detection_cycles: detection,
            overhead_cycles: detection,
        });
        self.phase_bounds.push(f.at_cycle);
        f.at_cycle.saturating_add(detection)
    }

    /// Evaluates the SLO controller at a dispatch point.
    fn run_controller(&mut self, cc: &ControllerConfig, t0: u64) {
        let p95 = windowed_p95(&self.lat_window);
        let depth = self.queue.len();
        let overloaded = depth >= cc.high_queue || (p95 > 0 && p95 * 10 > self.budget * 9);
        let calm = depth <= cc.low_queue && p95 * 2 <= self.budget;
        if overloaded {
            self.over_streak += 1;
            self.calm_streak = 0;
        } else if calm {
            self.calm_streak += 1;
            self.over_streak = 0;
        } else {
            self.over_streak = 0;
            self.calm_streak = 0;
        }
        let cooled = t0.saturating_sub(self.last_switch) >= self.cooldown;
        let target = if self.over_streak >= cc.patience && cooled {
            (self.idx + 1..self.profiles.len()).find(|&i| self.profiles[i].is_some())
        } else if self.calm_streak >= cc.patience && cooled && self.last_switch > 0 {
            (0..self.idx).rev().find(|&i| self.profiles[i].is_some())
        } else {
            None
        };
        if let Some(to) = target {
            self.controller_events.push(ControllerEvent {
                at_cycle: t0,
                from: ServingStrategy::LADDER[self.idx],
                to: ServingStrategy::LADDER[to],
                queue_depth: depth,
                p95_latency: p95,
                forced: false,
            });
            self.idx = to;
            self.last_switch = t0;
            self.over_streak = 0;
            self.calm_streak = 0;
        }
    }

    /// Forms a batch under the deadline-shedding predicate.
    fn form_batch(
        &mut self,
        profile: &ServiceProfile,
        config: &ServingConfig,
        t0: u64,
    ) -> Vec<(usize, u64)> {
        let mut batch: Vec<(usize, u64)> = Vec::new();
        while batch.len() < config.max_batch {
            let Some(&(id, arrival)) = self.queue.front() else { break };
            let j = batch.len() as u64;
            let predicted = t0 + profile.latency() + j * profile.pipeline.interval();
            if predicted > arrival + self.budget {
                if batch.is_empty() {
                    // Hopeless even at the front of a fresh batch.
                    self.queue.pop_front();
                    self.records[id] =
                        Some(RequestRecord { outcome: Outcome::Shed, at: t0, latency: 0 });
                    continue;
                }
                // Might still make it at the front of the next batch.
                break;
            }
            self.queue.pop_front();
            batch.push((id, arrival));
        }
        batch
    }

    /// The serving event loop.
    fn run(
        &mut self,
        config: &ServingConfig,
        platform: &Platform,
        workloads: &[Workload],
    ) -> Result<()> {
        let obs = lts_obs::enabled();
        let track = if obs { Some(lts_obs::cycle_track_named("core.serve")) } else { None };
        let window = config.controller.map(|c| c.window.max(1)).unwrap_or(16);

        'serve: loop {
            if self.halted_at.is_some() {
                break;
            }
            if self.queue.is_empty() {
                if self.next_arrival >= self.arrival_times.len() {
                    break;
                }
                // Idle: jump to the next arrival, applying idle faults
                // on the way.
                let next_at = self.arrival_times[self.next_arrival];
                while self.fault_idx < self.faults.len()
                    && self.faults[self.fault_idx].at_cycle <= next_at
                {
                    let f = self.faults[self.fault_idx].clone();
                    self.fault_idx += 1;
                    let stall = self.apply_idle_fault(platform, &config.monitor, &f);
                    self.t_free = self.t_free.max(stall);
                    self.rebuild_profiles(platform, workloads, f.at_cycle)?;
                    if self.halted_at.is_some() {
                        break 'serve;
                    }
                }
                self.admit_until(next_at, config.queue_capacity);
                continue;
            }
            let head_arrival = self.queue.front().map(|&(_, a)| a).unwrap_or(0);
            let mut t0 = self.t_free.max(head_arrival);
            // Faults landing before dispatch hit an idle pipeline.
            while self.fault_idx < self.faults.len() && self.faults[self.fault_idx].at_cycle <= t0 {
                let f = self.faults[self.fault_idx].clone();
                self.fault_idx += 1;
                let stall = self.apply_idle_fault(platform, &config.monitor, &f);
                t0 = t0.max(stall);
                self.rebuild_profiles(platform, workloads, f.at_cycle)?;
                if self.halted_at.is_some() {
                    break 'serve;
                }
            }
            // Late arrivals that landed while the server was busy.
            self.admit_until(t0, config.queue_capacity);

            if let Some(cc) = config.controller {
                self.run_controller(&cc, t0);
            }
            let dispatch_idx = self.idx;
            let Some(profile) = self.profiles[dispatch_idx].clone() else {
                self.halted_at = Some(t0);
                break;
            };

            let batch = self.form_batch(&profile, config, t0);
            if batch.is_empty() {
                continue;
            }

            // Entry-burst contention: the batch's staggered entry bursts
            // on the real NoC, every batch size of a profile from one
            // periodic run.
            let (contention, burst_share) = if batch.len() <= 1 || profile.entry.is_empty() {
                (0, 0.0)
            } else {
                let sizes = match self.bursts.entry(dispatch_idx) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(periodic_contention(
                        platform,
                        &profile,
                        config.max_batch,
                        &mut self.sim,
                    )?),
                };
                match sizes[batch.len()] {
                    Some(memo) => memo,
                    None => {
                        let memo =
                            batch_contention(platform, &profile, batch.len(), &mut self.sim)?;
                        sizes[batch.len()] = Some(memo);
                        memo
                    }
                }
            };
            self.noc_saturation = self.noc_saturation.max(burst_share).max(profile.saturation);

            // In-flight faults: apply every fault landing before the
            // batch fully drains, delaying exactly the requests still in
            // the pipeline.
            let mut deltas: Vec<(u64, u64)> = Vec::new();
            let mut end = completion_of(t0, &profile, batch.len() as u64 - 1, contention, &deltas);
            while self.fault_idx < self.faults.len() && self.faults[self.fault_idx].at_cycle < end {
                let f = self.faults[self.fault_idx].clone();
                self.fault_idx += 1;
                let w = &workloads[dispatch_idx];
                let boundary =
                    fault_boundary_layer(&profile, &w.spec, f.at_cycle.saturating_sub(t0));
                let in_flight = batch
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| {
                        completion_of(t0, &profile, j as u64, contention, &deltas) > f.at_cycle
                    })
                    .count();
                // Whole-chiplet deaths on a package recover as chiplets:
                // chiplet-liveness detection + survivor restaging.
                let (domain, dead) = platform.domain(&f.dead_cores);
                let recovery = run_with_recovery(
                    &platform.model,
                    &domain,
                    &w.spec,
                    &w.weights,
                    &[InferenceFault { layer: boundary, dead }],
                    &config.monitor,
                );
                match recovery {
                    Ok(rec) => {
                        let delta =
                            rec.report.total_cycles.saturating_sub(rec.fault_free.total_cycles);
                        self.sim.merge(&rec.report.sim);
                        self.recoveries.push(ServeRecovery {
                            at_cycle: f.at_cycle,
                            dead_cores: f.dead_cores.clone(),
                            in_flight,
                            detection_cycles: rec.detection_cycles(),
                            overhead_cycles: delta,
                        });
                        self.phase_bounds.push(f.at_cycle);
                        deltas.push((f.at_cycle, delta));
                        end = completion_of(
                            t0,
                            &profile,
                            batch.len() as u64 - 1,
                            contention,
                            &deltas,
                        );
                    }
                    Err(e) => {
                        self.fail_batch(&batch, Outcome::from_failure(e)?, f.at_cycle);
                        self.phase_bounds.push(f.at_cycle);
                        self.halted_at = Some(f.at_cycle);
                        break 'serve;
                    }
                }
                self.dead_all.extend_from_slice(&f.dead_cores);
                self.dead_all.sort_unstable();
                // The in-flight batch was planned on the pre-fault
                // profile and still completes (recovery succeeded); the
                // *next* batch sees the rebuilt, degraded profiles.
                self.rebuild_profiles(platform, workloads, f.at_cycle)?;
                if self.halted_at.is_some() {
                    break;
                }
            }

            // Commit the batch's outcomes.
            let rode_recovery = !deltas.is_empty();
            for (j, &(id, arrival)) in batch.iter().enumerate() {
                let completion = completion_of(t0, &profile, j as u64, contention, &deltas);
                let latency = completion - arrival;
                let outcome = if latency > self.budget {
                    Outcome::DeadlineMiss
                } else if rode_recovery
                    && completion_of(t0, &profile, j as u64, contention, &[]) != completion
                {
                    Outcome::Recovered
                } else {
                    Outcome::Served
                };
                self.records[id] = Some(RequestRecord { outcome, at: completion, latency });
                self.makespan = self.makespan.max(completion);
                self.lat_window.push_back(latency);
                while self.lat_window.len() > window {
                    self.lat_window.pop_front();
                }
                if let Some(track) = track {
                    let label = format!("req{id}");
                    lts_obs::cycle_record(track, "wait", &label, t0.saturating_sub(arrival));
                    lts_obs::cycle_record(track, "service", &label, completion - t0);
                }
            }
            self.batch_counts[dispatch_idx].0 += 1;
            self.batch_counts[dispatch_idx].1 += batch.len();
            self.batches.push(BatchRecord {
                dispatched_at: t0,
                completed_at: end,
                size: batch.len(),
                strategy: ServingStrategy::LADDER[dispatch_idx],
                contention_cycles: contention,
            });
            self.t_free = end;
        }

        // Whatever is left when the run halts is shed.
        if let Some(halt) = self.halted_at {
            let queued: Vec<usize> = self.queue.iter().map(|&(id, _)| id).collect();
            for id in queued {
                self.records[id] =
                    Some(RequestRecord { outcome: Outcome::Shed, at: halt, latency: 0 });
            }
            while self.next_arrival < self.arrival_times.len() {
                self.records[self.next_arrival] = Some(RequestRecord {
                    outcome: Outcome::Shed,
                    at: self.arrival_times[self.next_arrival].max(halt),
                    latency: 0,
                });
                self.next_arrival += 1;
            }
        }
        if obs {
            lts_obs::counter_add("serve.batches", self.batches.len() as u64);
        }
        Ok(())
    }

    /// Marks every batch member with a terminal typed outcome.
    fn fail_batch(&mut self, batch: &[(usize, u64)], outcome: Outcome, at: u64) {
        for &(id, _) in batch {
            self.records[id] = Some(RequestRecord { outcome, at, latency: 0 });
        }
    }

    fn into_report(self, config: &ServingConfig) -> ServingReport {
        let offered = self.arrival_times.len();
        let mut outcomes = OutcomeHistogram::default();
        let mut success_lats = Vec::new();
        for r in self.records.iter().flatten() {
            outcomes.record(r.outcome);
            if r.outcome.is_success() {
                success_lats.push(r.latency);
            }
        }
        debug_assert_eq!(outcomes.total() as usize, offered, "every request must be accounted for");
        let makespan = self.makespan.max(config.arrivals.horizon_cycles);
        let offered_rpmc = offered as f64 * 1e6 / config.arrivals.horizon_cycles as f64;
        let sustained_rpmc = outcomes.successes() as f64 * 1e6 / makespan as f64;
        let shed_rate = if offered == 0 { 0.0 } else { outcomes.shed as f64 / offered as f64 };
        let miss_rate =
            if offered == 0 { 0.0 } else { outcomes.deadline_miss as f64 / offered as f64 };
        let strategies = ServingStrategy::LADDER
            .iter()
            .enumerate()
            .filter_map(|(i, &strategy)| {
                self.profiles[i].as_ref().map(|p| StrategySummary {
                    strategy,
                    latency_cycles: p.latency(),
                    interval_cycles: p.pipeline.interval(),
                    min_stage_occupancy: p.min_occupancy,
                    stages: p.pipeline.ranges.len(),
                    batches: self.batch_counts[i].0,
                    requests: self.batch_counts[i].1,
                })
            })
            .collect();
        let phases = build_phases(&self.records, &self.recoveries, &self.phase_bounds, makespan);
        if lts_obs::enabled() {
            lts_obs::counter_add("serve.offered", offered as u64);
            lts_obs::counter_add("serve.served", outcomes.served);
            lts_obs::counter_add("serve.recovered", outcomes.recovered);
            lts_obs::counter_add("serve.shed", outcomes.shed);
            lts_obs::counter_add("serve.deadline_miss", outcomes.deadline_miss);
        }
        ServingReport {
            offered,
            horizon_cycles: config.arrivals.horizon_cycles,
            makespan_cycles: makespan,
            latency_budget: self.budget,
            outcomes,
            latency: LatencySummary::from_latencies(success_lats),
            offered_rpmc,
            sustained_rpmc,
            shed_rate,
            miss_rate,
            noc_saturation: self.noc_saturation,
            batches: self.batches,
            strategies,
            controller_events: self.controller_events,
            recoveries: self.recoveries,
            phases,
            halted_at: self.halted_at,
            sim: self.sim,
        }
    }
}

/// Completion cycle of batch position `j`, including every recovery
/// delay that landed before the request left the pipeline.
fn completion_of(
    t0: u64,
    profile: &ServiceProfile,
    j: u64,
    contention: u64,
    deltas: &[(u64, u64)],
) -> u64 {
    let mut c = t0 + profile.latency() + j * profile.pipeline.interval() + contention;
    for &(at, delta) in deltas {
        if c > at {
            c += delta;
        }
    }
    c
}

/// Windowed p95 of observed completion latencies (0 with no samples).
fn windowed_p95(window: &VecDeque<u64>) -> u64 {
    if window.is_empty() {
        return 0;
    }
    let mut lats: Vec<u64> = window.iter().copied().collect();
    lats.sort_unstable();
    percentile(&lats, 0.95)
}

/// Maps a fault's offset into the head request's execution onto the
/// recovery path's layer-boundary semantics: the first layer of the
/// group being executed when the fault struck, clamped strictly
/// mid-network so the recovery is always mid-flight.
fn fault_boundary_layer(profile: &ServiceProfile, spec: &NetworkSpec, rel: u64) -> usize {
    let pipeline = &profile.pipeline;
    let start = pipeline.ranges.get(pipeline.stage_at(rel)).map_or(1, |r| r.start);
    start.clamp(1, spec.layers.len().saturating_sub(1).max(1))
}

/// The contention beyond the ideal pipeline schedule and the blocked
/// share of a batch of `batch` requests whose staggered entry bursts gave
/// `report`, against one request's burst `base`.
fn contention(base: &SimReport, report: &SimReport, batch: usize, interval: u64) -> (u64, f64) {
    let ideal = base.makespan + (batch as u64 - 1) * interval;
    (report.makespan.saturating_sub(ideal), report.blocked_share())
}

/// The entry-burst contention and blocked share of every batch size up to
/// `max_batch` (indexed by size), from one periodic run of the profile's
/// staggered entry bursts: copy `j` of the burst enters `j` pipeline
/// intervals after copy 0. A size the run declined stays `None`, to be
/// simulated alone.
fn periodic_contention(
    platform: &Platform,
    profile: &ServiceProfile,
    max_batch: usize,
    usage: &mut SimUsage,
) -> Result<Vec<Option<(u64, f64)>>> {
    let config = *platform.model.noc_config();
    let mut sim = Simulator::with_faults(config, profile.fault.clone())?;
    // An error stops the periodic run short of some sizes. They are all
    // left to `batch_contention` then, where a size meets the error only
    // if a run of its own copies does.
    let interval = profile.pipeline.interval();
    let prefixes =
        simcache::run_periodic_cached(&mut sim, &profile.entry, interval, max_batch, usage)
            .unwrap_or_default();
    let mut sizes = vec![None; max_batch + 1];
    // Prefix 1, one request's burst alone, is the baseline.
    let Some(Some(base)) = prefixes.first() else { return Ok(sizes) };
    for (batch, prefix) in (1..).zip(&prefixes) {
        if let Some(report) = prefix {
            sizes[batch] = Some(contention(base, report, batch, interval));
        }
    }
    Ok(sizes)
}

/// Simulates the batch's staggered entry bursts on their own and returns
/// the contention beyond the ideal pipeline schedule plus the burst's
/// blocked share: the fallback for a batch size the periodic run declined.
fn batch_contention(
    platform: &Platform,
    profile: &ServiceProfile,
    batch: usize,
    usage: &mut SimUsage,
) -> Result<(u64, f64)> {
    let config = *platform.model.noc_config();
    let mut sim = Simulator::with_faults(config, profile.fault.clone())?;
    let base = simcache::run_cached(&mut sim, &config, &profile.fault, &profile.entry, usage)?;
    let interval = profile.pipeline.interval();
    let Some(messages) = periodic(&profile.entry, interval, batch) else {
        return Err(CoreError::BadConfig("entry-burst inject cycles overflow".into()));
    };
    // The staggered burst is a pure triple too: the stream around it
    // decides only when it runs, never what it simulates.
    let report = simcache::run_cached(&mut sim, &config, &profile.fault, &messages, usage)?;
    Ok(contention(&base, &report, batch, interval))
}

/// Splits the run into phases at the applied fault cycles and
/// aggregates per-phase outcome and latency statistics.
fn build_phases(
    records: &[Option<RequestRecord>],
    recoveries: &[ServeRecovery],
    bounds: &[u64],
    makespan: u64,
) -> Vec<PhaseStats> {
    let mut starts = vec![0u64];
    for &b in bounds {
        if starts.last() != Some(&b) {
            starts.push(b);
        }
    }
    let mut phases = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(makespan.max(start + 1));
        let last = i + 1 == starts.len();
        let mut completed = 0usize;
        let mut served = 0usize;
        let mut shed = 0usize;
        let mut missed = 0usize;
        let mut lats = Vec::new();
        for r in records.iter().flatten() {
            if r.at < start || (r.at >= end && !last) {
                continue;
            }
            match r.outcome {
                Outcome::Served | Outcome::Recovered => {
                    completed += 1;
                    served += 1;
                    lats.push(r.latency);
                }
                Outcome::DeadlineMiss => {
                    completed += 1;
                    missed += 1;
                }
                Outcome::Shed => shed += 1,
                Outcome::Unreachable | Outcome::CycleLimit => completed += 1,
            }
        }
        let span = end.saturating_sub(start).max(1);
        let recovery_overhead_cycles = recoveries
            .iter()
            .filter(|r| i > 0 && r.at_cycle == start)
            .map(|r| r.overhead_cycles)
            .sum();
        phases.push(PhaseStats {
            label: if i == 0 { "pre-fault".into() } else { format!("post@{start}") },
            start,
            end,
            completed,
            served,
            shed,
            missed,
            sustained_rpmc: served as f64 * 1e6 / span as f64,
            latency: LatencySummary::from_latencies(lats),
            recovery_overhead_cycles,
        });
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(rate_rpmc: f64, horizon_cycles: u64, seed: u64) -> ArrivalConfig {
        ArrivalConfig { process: ArrivalProcess::Poisson { rate_rpmc }, horizon_cycles, seed }
    }

    /// A small, fast base config used across the tests.
    fn base_config() -> ServingConfig {
        ServingConfig {
            arrivals: poisson(0.5, 4_000_000, 7),
            max_batch: 4,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn arrival_streams_are_deterministic_and_rate_scaling() {
        let a = poisson(2.0, 2_000_000, 11).times().unwrap();
        let b = poisson(2.0, 2_000_000, 11).times().unwrap();
        assert_eq!(a, b, "same seed must reproduce the stream bit-exactly");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals must be ordered");
        assert!(a.iter().all(|&t| t < 2_000_000), "arrivals must respect the horizon");
        let other_seed = poisson(2.0, 2_000_000, 12).times().unwrap();
        assert_ne!(a, other_seed, "different seeds must differ");
        let slow = poisson(0.5, 2_000_000, 11).times().unwrap();
        assert!(
            a.len() > 2 * slow.len(),
            "4x the rate must yield clearly more arrivals ({} vs {})",
            a.len(),
            slow.len()
        );
    }

    #[test]
    fn burst_streams_emit_more_than_their_base_rate() {
        let cfg = ArrivalConfig {
            process: ArrivalProcess::Burst {
                base_rpmc: 0.5,
                burst_rpmc: 8.0,
                mean_dwell_cycles: 400_000,
            },
            horizon_cycles: 4_000_000,
            seed: 3,
        };
        let times = cfg.times().unwrap();
        let base_only = poisson(0.5, 4_000_000, 3).times().unwrap();
        assert!(times.len() > base_only.len(), "bursts must add arrivals over the base rate");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(poisson(0.0, 1_000, 1).times().is_err(), "zero rate");
        assert!(poisson(1.0, 0, 1).times().is_err(), "zero horizon");
        let mut c = base_config();
        c.max_batch = 0;
        assert!(run_serving(&c).is_err(), "zero max_batch");
        let mut c = base_config();
        c.faults = vec![StreamFault { at_cycle: 10, dead_cores: vec![99] }];
        assert!(run_serving(&c).is_err(), "out-of-range dead core");
        let mut c = base_config();
        c.faults = vec![
            StreamFault { at_cycle: 10, dead_cores: vec![5] },
            StreamFault { at_cycle: 20, dead_cores: vec![5] },
        ];
        assert!(run_serving(&c).is_err(), "a core cannot die twice");
    }

    #[test]
    fn sub_saturation_stream_serves_everything_within_budget() {
        let mut config = base_config();
        let capacity = service_capacity_rpmc(&config).unwrap();
        config.arrivals = poisson(capacity * 0.4, config.arrivals.horizon_cycles, 7);
        let report = run_serving(&config).unwrap();
        assert!(report.offered > 0, "the stream must offer work");
        assert_eq!(report.outcomes.shed, 0, "sub-saturation must not shed: {:?}", report.outcomes);
        assert_eq!(report.outcomes.deadline_miss, 0, "sub-saturation must not miss");
        assert_eq!(report.served() as usize, report.offered);
        assert!(report.latency.p99 <= report.latency_budget);
        assert_eq!(report.phases.len(), 1, "fault-free run has one phase");
        assert!(report.halted_at.is_none());
    }

    #[test]
    fn overload_sheds_but_served_requests_stay_within_budget() {
        let mut config = base_config();
        let capacity = service_capacity_rpmc(&config).unwrap();
        config.arrivals = poisson(capacity * 2.0, config.arrivals.horizon_cycles, 7);
        let report = run_serving(&config).unwrap();
        assert!(report.outcomes.shed > 0, "2x overload must shed: {:?}", report.outcomes);
        assert!(report.served() > 0, "overload must still serve");
        assert_eq!(report.outcomes.deadline_miss, 0, "admission control must prevent misses");
        assert!(
            report.latency.p99 <= report.latency_budget,
            "p99 {} must stay within budget {}",
            report.latency.p99,
            report.latency_budget
        );
    }

    #[test]
    fn serving_runs_are_bit_identical() {
        let mut config = base_config();
        config.faults = vec![StreamFault { at_cycle: 1_500_000, dead_cores: vec![5] }];
        let a = run_serving(&config).unwrap();
        simcache::reset();
        let b = run_serving(&config).unwrap();
        assert_eq!(a, b, "identical configs must produce bit-identical reports");
    }

    #[test]
    fn mid_stream_fault_degrades_gracefully() {
        let mut config = base_config();
        let capacity = service_capacity_rpmc(&config).unwrap();
        config.arrivals = poisson(capacity * 0.4, config.arrivals.horizon_cycles, 7);
        config.faults = vec![StreamFault { at_cycle: 1_200_000, dead_cores: vec![5] }];
        let report = run_serving(&config).unwrap();
        assert!(report.halted_at.is_none(), "one dead core must not halt serving");
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].dead_cores, vec![5]);
        assert!(report.recoveries[0].detection_cycles > 0);
        assert_eq!(report.phases.len(), 2, "one fault splits the run into two phases");
        assert!(report.served() > 0, "the degraded system must keep serving");
        assert_eq!(
            report.outcomes.total() as usize,
            report.offered,
            "every request must be accounted for"
        );
    }

    #[test]
    fn controller_switches_under_overload_without_flapping() {
        let mut config = base_config();
        let capacity = service_capacity_rpmc(&config).unwrap();
        config.arrivals = poisson(capacity * 3.0, config.arrivals.horizon_cycles, 7);
        config.controller =
            Some(ControllerConfig { high_queue: 4, patience: 1, ..ControllerConfig::default() });
        let report = run_serving(&config).unwrap();
        assert!(
            !report.controller_events.is_empty(),
            "3x overload with a 4-deep trigger must switch strategies"
        );
        for e in &report.controller_events {
            assert_ne!(e.from, e.to);
            assert!(!e.forced, "no faults: every switch is an SLO decision");
        }
        // Hysteresis: consecutive switches must be separated by the
        // cooldown (2x budget by default).
        for pair in report.controller_events.windows(2) {
            assert!(
                pair[1].at_cycle - pair[0].at_cycle >= report.latency_budget * 2,
                "switches at {} and {} violate the cooldown",
                pair[0].at_cycle,
                pair[1].at_cycle
            );
        }
    }

    #[test]
    fn mcm_package_serves_with_stage_pipelining() {
        let mut config = base_config();
        config.chiplets = 2;
        config.cores = 16;
        config.arrivals = poisson(0.3, 4_000_000, 5);
        let report = run_serving(&config).unwrap();
        assert!(report.served() > 0);
        let traditional = report
            .strategies
            .iter()
            .find(|s| s.strategy == ServingStrategy::Traditional)
            .expect("traditional profile");
        assert!(traditional.interval_cycles <= traditional.latency_cycles);
        assert!(traditional.min_stage_occupancy > 0.0);
    }

    #[test]
    fn whole_chiplet_loss_restages_the_pipeline_on_survivors() {
        let mut config = base_config();
        config.chiplets = 4;
        config.cores = 4;
        config.arrivals = poisson(0.3, 4_000_000, 5);
        config.faults = vec![chiplet_stream_fault(&config, 2, 1_200_000).unwrap()];
        let report = run_serving(&config).unwrap();
        assert!(report.halted_at.is_none(), "a single chiplet loss must not halt the package");
        assert_eq!(report.recoveries.len(), 1, "one chiplet death, exactly one recovery");
        assert_eq!(report.recoveries[0].dead_cores.len(), 4, "the whole chiplet died");
        assert!(report.served() > 0);
        assert_eq!(
            report.outcomes.total() as usize,
            report.offered,
            "every request ends in a typed outcome"
        );
        assert_eq!(report.phases.len(), 2, "the fault splits the run into two phases");
        // The degraded profile is a genuine MCM restage: fewer, fatter
        // stages over the three survivor chiplets — not a mesh-grouping
        // fallback.
        let traditional = report
            .strategies
            .iter()
            .find(|s| s.strategy == ServingStrategy::Traditional)
            .expect("traditional profile survives");
        assert_eq!(traditional.stages, 3, "four chiplet stages shrink to three survivors");
        assert!(traditional.min_stage_occupancy > 0.0);
    }

    #[test]
    fn chiplet_stream_faults_reject_non_package_configs() {
        let flat = base_config();
        assert!(chiplet_stream_fault(&flat, 0, 100).is_err(), "flat mesh has no chiplets");
        let mut mcm = base_config();
        mcm.chiplets = 2;
        mcm.cores = 8;
        assert!(chiplet_stream_fault(&mcm, 2, 100).is_err(), "chiplet id out of range");
        let f = chiplet_stream_fault(&mcm, 1, 100).unwrap();
        assert_eq!(f.at_cycle, 100);
        assert_eq!(f.dead_cores.len(), 8, "the fault covers the whole chiplet");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let lats: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&lats, 0.50), 50);
        assert_eq!(percentile(&lats, 0.95), 95);
        assert_eq!(percentile(&lats, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn service_capacity_is_positive_and_batch_monotone() {
        let config = base_config();
        let c4 = service_capacity_rpmc(&config).unwrap();
        let mut one = config.clone();
        one.max_batch = 1;
        let c1 = service_capacity_rpmc(&one).unwrap();
        assert!(c4 > 0.0);
        assert!(c4 > c1, "batching must raise capacity ({c4} vs {c1})");
    }
}
