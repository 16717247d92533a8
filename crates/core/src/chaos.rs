//! Chaos soak: randomized mid-flight fault schedules hammered against
//! the online recovery path ([`crate::recovery::run_with_recovery`])
//! across all three parallelization strategies.
//!
//! Every trial draws a schedule of mid-inference core deaths from a
//! stateless hash stream (deterministic in `(config, strategy, trial)`,
//! independent of `LTS_THREADS`) and must end one of exactly three
//! ways:
//!
//! * [`Outcome::Recovered`] — the run recovered; the lost-output
//!   fraction is bounded in `[0, 1]` and the overhead ratios are finite;
//! * [`Outcome::Unreachable`] — the dead set disconnected the mesh, a
//!   *typed* error ([`lts_noc::NocError::Unreachable`]);
//! * [`Outcome::CycleLimit`] — the watchdog tripped
//!   ([`lts_noc::NocError::CycleLimitExceeded`]).
//!
//! Outcomes use the typed vocabulary shared with the serving simulator
//! ([`crate::outcome`]); [`outcome_histogram`] aggregates a soak's rows
//! into one [`OutcomeHistogram`].
//!
//! MCM topologies ([`ChaosConfig::chiplets`] entries above 1) soak the
//! package-level fault classes instead: mid-flight whole-chiplet deaths
//! through the same recovery path over a chiplet
//! [`lts_partition::FailureDomain`], and static
//! interposer-seam severings (which succeed as [`Outcome::Served`] when
//! the NoC reroutes around the dead seam).
//!
//! Panics and hangs are the failure modes the soak exists to rule out:
//! anything other than the typed outcomes above aborts the soak with
//! the offending error.

use crate::degradation::{workloads, Workload};
use crate::outcome::{Outcome, OutcomeHistogram};
use crate::recovery::{run_with_recovery, InferenceFault, RecoveryReport};
use crate::simcache::SimUsage;
use crate::system::SystemModel;
use crate::{CoreError, Result};
use lts_noc::{FaultModel, MonitorConfig, NocError, Topo};
use lts_partition::{FailureDomain, McmPlan};
use lts_tensor::par;
use serde::{Deserialize, Serialize};

/// Shape of the randomized soak.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Cores on the (healthy) chip — per chiplet for MCM topologies.
    pub cores: usize,
    /// Trials per strategy.
    pub trials: usize,
    /// Most fault events injected per trial (at least one fires).
    pub max_faults: usize,
    /// Most cores killed per fault event (at least one dies).
    pub max_dead_per_fault: usize,
    /// Schedule seed.
    pub seed: u64,
    /// Package sizes to sample, in order. `1` soaks the single-chip
    /// mesh with mid-flight core deaths; an entry above 1 soaks a
    /// `paper_mcm` package of that many chiplets (`cores` each) with
    /// whole-chiplet and interposer-seam fault classes.
    pub chiplets: Vec<usize>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            cores: 16,
            trials: 8,
            max_faults: 2,
            max_dead_per_fault: 2,
            seed: 2019,
            chiplets: vec![1],
        }
    }
}

impl ChaosConfig {
    /// A trimmed soak for tests and `LTS_EFFORT=quick` runs.
    pub fn quick() -> Self {
        Self { trials: 2, max_faults: 1, ..Self::default() }
    }
}

/// One soak trial's verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosRow {
    /// `traditional`, `structure` or `sparsified`.
    pub strategy: String,
    /// Workload network name.
    pub network: String,
    /// Trial index within the strategy.
    pub trial: usize,
    /// The injected schedule (layer boundary + cores per event).
    pub faults: Vec<InferenceFault>,
    /// How the trial ended ([`Outcome::Recovered`],
    /// [`Outcome::Unreachable`] or [`Outcome::CycleLimit`]).
    pub outcome: Outcome,
    /// Cores dead by the end of the run.
    pub dead_cores: Vec<usize>,
    /// Composed-run latency in cycles (0 unless the trial recovered).
    pub total_cycles: u64,
    /// Latency relative to the fault-free run.
    pub overhead_vs_fault_free: f64,
    /// Latency relative to the oracle static replan (`None` when the
    /// oracle itself cannot run).
    pub overhead_vs_oracle: Option<f64>,
    /// Cycles spent between deaths and detections.
    pub detection_cycles: u64,
    /// Boundary-resync payload moved during recovery.
    pub redistribution_bytes: u64,
    /// Worst output loss across both loss mechanisms, always in
    /// `[0, 1]` — the soak's bounded-loss guarantee.
    pub lost_output_fraction: f64,
    /// Simulated-vs-cached NoC work behind the composed run (zeroed
    /// when the trial fails before evaluation).
    pub sim: SimUsage,
    /// Chiplets of the sampled package (`1` = single-chip mesh).
    pub chiplets: usize,
    /// `cores` (mid-flight core deaths), `chiplet` (mid-flight
    /// whole-chiplet death) or `seam` (static interposer-seam
    /// severing).
    pub fault_class: String,
    /// Chiplet ids behind a package fault: the killed chiplet for
    /// `chiplet` rows, the severed seam's two endpoint chiplets for
    /// `seam` rows, empty for `cores` rows.
    pub dead_chiplets: Vec<usize>,
}

/// One step of the splitmix64 stream the schedules are drawn from
/// (shared with the serving simulator's arrival processes).
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws one trial's fault schedule: sorted distinct layer boundaries,
/// distinct victim cores, and never enough deaths to leave fewer than
/// two survivors.
fn draw_schedule(
    config: &ChaosConfig,
    layers: usize,
    strategy_idx: usize,
    trial: usize,
) -> Vec<InferenceFault> {
    let mut state = config
        .seed
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add((strategy_idx as u64) << 32)
        .wrapping_add(trial as u64 + 1);
    let events = 1 + (splitmix(&mut state) as usize) % config.max_faults;
    // Boundaries 1..=layers-1: strictly mid-flight (some work done, some
    // remaining). Distinct, then sorted.
    let mut boundaries: Vec<usize> = Vec::new();
    let span = layers.saturating_sub(1).max(1);
    while boundaries.len() < events.min(span) {
        let b = 1 + (splitmix(&mut state) as usize) % span;
        if !boundaries.contains(&b) {
            boundaries.push(b);
        }
    }
    boundaries.sort_unstable();
    // Kill budget: always leave at least two survivors.
    let mut budget = config.cores.saturating_sub(2);
    let mut all_dead: Vec<usize> = Vec::new();
    let mut faults = Vec::new();
    for layer in boundaries {
        if budget == 0 {
            break;
        }
        let kills = (1 + (splitmix(&mut state) as usize) % config.max_dead_per_fault).min(budget);
        let mut dead = Vec::with_capacity(kills);
        while dead.len() < kills {
            let c = (splitmix(&mut state) as usize) % config.cores;
            if !dead.contains(&c) && !all_dead.contains(&c) {
                dead.push(c);
            }
        }
        dead.sort_unstable();
        budget -= dead.len();
        all_dead.extend_from_slice(&dead);
        faults.push(InferenceFault { layer, dead });
    }
    faults
}

/// Runs the full soak: `config.trials` randomized fault schedules per
/// strategy, through the online recovery path. Rows come back grouped
/// by strategy in trial order.
///
/// Trials where the schedule defeats the protocol do not abort the
/// soak — they are reported as [`Outcome::Unreachable`] or
/// [`Outcome::CycleLimit`] with zeroed measurements. Any *other*
/// error is a harness failure and propagates.
///
/// # Errors
///
/// [`CoreError::BadConfig`] for an empty or degenerate soak shape;
/// unexpected plan/simulation errors.
pub fn chaos_soak(config: &ChaosConfig) -> Result<Vec<ChaosRow>> {
    if config.cores < 4 {
        return Err(CoreError::BadConfig("chaos soak needs at least 4 cores".into()));
    }
    if config.trials == 0 || config.max_faults == 0 || config.max_dead_per_fault == 0 {
        return Err(CoreError::BadConfig(
            "trials, max_faults and max_dead_per_fault must be positive".into(),
        ));
    }
    if config.chiplets.is_empty() || config.chiplets.contains(&0) {
        return Err(CoreError::BadConfig("chiplet counts must be present and positive".into()));
    }
    let workloads = workloads(config.cores)?;
    let mut rows = Vec::new();
    for &chiplets in &config.chiplets {
        // Strategies are independent; fan them out on the execution
        // engine (par_map preserves order, every trial is deterministic).
        let per_strategy = if chiplets == 1 {
            par::par_map(&workloads, |i, w| soak_workload(config, i, w))
        } else {
            par::par_map(&workloads, |i, w| soak_mcm_workload(config, chiplets, i, w))
        }
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        rows.extend(per_strategy.into_iter().flatten());
    }
    Ok(rows)
}

/// Aggregates a soak's rows into one outcome histogram (the shape the
/// serving simulator also reports, so the two harnesses compare
/// directly).
pub fn outcome_histogram(rows: &[ChaosRow]) -> OutcomeHistogram {
    let mut h = OutcomeHistogram::default();
    for r in rows {
        h.record(r.outcome);
    }
    h
}

fn soak_workload(config: &ChaosConfig, strategy_idx: usize, w: &Workload) -> Result<Vec<ChaosRow>> {
    let model = SystemModel::paper(config.cores)?;
    let domain = FailureDomain::Cores(config.cores);
    let monitor = MonitorConfig::default();
    let mut rows = Vec::with_capacity(config.trials);
    for trial in 0..config.trials {
        let faults = draw_schedule(config, w.spec.layers.len(), strategy_idx, trial);
        let mut row = ChaosRow {
            strategy: w.strategy.into(),
            network: w.network.into(),
            trial,
            faults: faults.clone(),
            outcome: Outcome::Recovered,
            dead_cores: Vec::new(),
            total_cycles: 0,
            overhead_vs_fault_free: 0.0,
            overhead_vs_oracle: None,
            detection_cycles: 0,
            redistribution_bytes: 0,
            lost_output_fraction: 0.0,
            sim: SimUsage::default(),
            chiplets: 1,
            fault_class: "cores".into(),
            dead_chiplets: Vec::new(),
        };
        let recovery = run_with_recovery(&model, &domain, &w.spec, &w.weights, &faults, &monitor);
        record_recovery(&mut row, recovery)?;
        rows.push(row);
    }
    Ok(rows)
}

/// Records a recovery run on its soak row: the composed run's numbers,
/// or the typed outcome it failed with. Any other error aborts the soak.
fn record_recovery(row: &mut ChaosRow, recovery: Result<RecoveryReport>) -> Result<()> {
    match recovery {
        Ok(report) => {
            row.dead_cores = report.dead_cores.clone();
            row.total_cycles = report.report.total_cycles;
            row.overhead_vs_fault_free = report.overhead_vs_fault_free();
            row.overhead_vs_oracle = report.overhead_vs_oracle();
            row.detection_cycles = report.detection_cycles();
            row.redistribution_bytes = report.redistribution_bytes();
            row.lost_output_fraction = report.lost_fraction();
            row.sim = report.report.sim;
        }
        Err(CoreError::Noc(NocError::Unreachable { .. })) => row.outcome = Outcome::Unreachable,
        Err(CoreError::Noc(NocError::CycleLimitExceeded { .. })) => {
            row.outcome = Outcome::CycleLimit;
        }
        Err(e) => return Err(e),
    }
    Ok(())
}

/// MCM package soak: trials alternate between a mid-flight whole-chiplet
/// death (even trials, through the hierarchical detection + survivor
/// restaging path) and a static interposer-seam severing (odd trials,
/// evaluated as a ride-through on the healthy stage plan — the NoC
/// either reroutes around the dead seam or fails with a typed outcome).
fn soak_mcm_workload(
    config: &ChaosConfig,
    chiplets: usize,
    strategy_idx: usize,
    w: &Workload,
) -> Result<Vec<ChaosRow>> {
    let model = SystemModel::paper_mcm(chiplets, config.cores)?;
    let Topo::Mcm(topo) = model.noc_config().topo() else {
        return Err(CoreError::BadConfig("paper_mcm produced a single-chip mesh topology".into()));
    };
    let monitor = MonitorConfig::default();
    let order = topo.serpentine_chiplets();
    let healthy = McmPlan::build(&w.spec, &topo, &w.weights, 2)?;
    let fault_free = model.evaluate(&healthy.plan)?;
    let mut rows = Vec::with_capacity(config.trials);
    for trial in 0..config.trials {
        let mut state = config
            .seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add((chiplets as u64) << 48)
            .wrapping_add((strategy_idx as u64) << 32)
            .wrapping_add(trial as u64 + 1);
        let span = w.spec.layers.len().saturating_sub(1).max(1);
        let layer = 1 + (splitmix(&mut state) as usize) % span;
        let mut row = ChaosRow {
            strategy: w.strategy.into(),
            network: w.network.into(),
            trial,
            faults: Vec::new(),
            outcome: Outcome::Recovered,
            dead_cores: Vec::new(),
            total_cycles: 0,
            overhead_vs_fault_free: 0.0,
            overhead_vs_oracle: None,
            detection_cycles: 0,
            redistribution_bytes: 0,
            lost_output_fraction: 0.0,
            sim: SimUsage::default(),
            chiplets,
            fault_class: String::new(),
            dead_chiplets: Vec::new(),
        };
        if trial % 2 == 0 {
            let victim = (splitmix(&mut state) as usize) % chiplets;
            row.fault_class = "chiplet".into();
            row.dead_chiplets = vec![victim];
            row.faults = vec![InferenceFault { layer, dead: topo.chiplet_nodes(victim) }];
            let faults = [InferenceFault { layer, dead: vec![victim] }];
            let domain = FailureDomain::Chiplets(topo);
            let recovery =
                run_with_recovery(&model, &domain, &w.spec, &w.weights, &faults, &monitor);
            record_recovery(&mut row, recovery)?;
        } else {
            // Consecutive serpentine chiplets are grid-adjacent, so the
            // pair always shares a physical interposer seam.
            let i = (splitmix(&mut state) as usize) % (order.len() - 1);
            let (a, b) = (order[i], order[i + 1]);
            row.fault_class = "seam".into();
            row.dead_chiplets = vec![a, b];
            let severed = FaultModel::none().kill_seam(&topo, a, b);
            match model.clone().with_fault_model(severed).evaluate(&healthy.plan) {
                Ok(report) => {
                    row.outcome = Outcome::Served;
                    row.total_cycles = report.total_cycles;
                    row.overhead_vs_fault_free =
                        report.total_cycles as f64 / fault_free.total_cycles.max(1) as f64;
                    row.sim = report.sim;
                }
                Err(CoreError::Noc(NocError::Unreachable { .. })) => {
                    row.outcome = Outcome::Unreachable;
                }
                Err(CoreError::Noc(NocError::CycleLimitExceeded { .. })) => {
                    row.outcome = Outcome::CycleLimit;
                }
                Err(e) => return Err(e),
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ChaosConfig {
        ChaosConfig { seed: 7, ..ChaosConfig::quick() }
    }

    #[test]
    fn soak_covers_every_strategy_with_bounded_loss() {
        let config = quick();
        let rows = chaos_soak(&config).unwrap();
        assert_eq!(rows.len(), 3 * config.trials);
        for strategy in ["traditional", "structure", "sparsified"] {
            assert_eq!(rows.iter().filter(|r| r.strategy == strategy).count(), config.trials);
        }
        for r in &rows {
            assert!(!r.faults.is_empty(), "every trial injects at least one fault");
            assert!(
                matches!(
                    r.outcome,
                    Outcome::Recovered | Outcome::Unreachable | Outcome::CycleLimit
                ),
                "soak trials never shed or miss deadlines: {}",
                r.outcome
            );
            assert!(
                (0.0..=1.0).contains(&r.lost_output_fraction),
                "lost fraction {} out of bounds",
                r.lost_output_fraction
            );
            if r.outcome == Outcome::Recovered {
                assert!(r.total_cycles > 0);
                assert!(
                    r.overhead_vs_fault_free >= 1.0,
                    "recovery cannot be faster than fault-free ({})",
                    r.overhead_vs_fault_free
                );
                assert!(r.overhead_vs_fault_free.is_finite());
                assert!(r.detection_cycles > 0, "deaths must be detected, not assumed");
                assert!(!r.dead_cores.is_empty());
            }
        }
    }

    #[test]
    fn soak_is_deterministic() {
        let config = quick();
        let a = chaos_soak(&config).unwrap();
        let b = chaos_soak(&config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn aggregate_histogram_accounts_for_every_trial() {
        let rows = chaos_soak(&quick()).unwrap();
        let h = outcome_histogram(&rows);
        assert_eq!(h.total() as usize, rows.len());
        assert_eq!(h.served, 0, "a soak trial that completes did so by recovering");
        assert_eq!(h.shed + h.deadline_miss, 0);
        assert_eq!(
            h.recovered as usize,
            rows.iter().filter(|r| r.outcome == Outcome::Recovered).count()
        );
    }

    #[test]
    fn schedules_are_valid_and_leave_survivors() {
        let config = ChaosConfig { trials: 16, max_faults: 4, max_dead_per_fault: 5, ..quick() };
        for s in 0..3 {
            for t in 0..config.trials {
                let faults = draw_schedule(&config, 11, s, t);
                assert!(!faults.is_empty());
                let mut dead = Vec::new();
                for pair in faults.windows(2) {
                    assert!(pair[0].layer < pair[1].layer, "boundaries sorted and distinct");
                }
                for f in &faults {
                    assert!(f.layer >= 1 && f.layer <= 10, "strictly mid-flight");
                    for &d in &f.dead {
                        assert!(d < config.cores);
                        assert!(!dead.contains(&d), "no double kills");
                        dead.push(d);
                    }
                }
                assert!(dead.len() <= config.cores - 2, "at least two survivors");
            }
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(chaos_soak(&ChaosConfig { cores: 2, ..quick() }).is_err());
        assert!(chaos_soak(&ChaosConfig { trials: 0, ..quick() }).is_err());
        assert!(chaos_soak(&ChaosConfig { max_faults: 0, ..quick() }).is_err());
        assert!(chaos_soak(&ChaosConfig { max_dead_per_fault: 0, ..quick() }).is_err());
        assert!(chaos_soak(&ChaosConfig { chiplets: Vec::new(), ..quick() }).is_err());
        assert!(chaos_soak(&ChaosConfig { chiplets: vec![1, 0], ..quick() }).is_err());
    }

    #[test]
    fn mcm_soak_samples_chiplet_and_seam_fault_classes() {
        let config = ChaosConfig { cores: 8, chiplets: vec![2], ..quick() };
        let rows = chaos_soak(&config).unwrap();
        assert_eq!(rows.len(), 3 * config.trials);
        for r in &rows {
            assert_eq!(r.chiplets, 2);
            match r.fault_class.as_str() {
                "chiplet" => {
                    assert_eq!(r.trial % 2, 0, "even trials kill a chiplet");
                    assert_eq!(r.dead_chiplets.len(), 1);
                    assert_eq!(r.faults.len(), 1);
                    assert_eq!(
                        r.faults[0].dead.len(),
                        config.cores,
                        "a chiplet death is all of its cores"
                    );
                    assert!(matches!(
                        r.outcome,
                        Outcome::Recovered | Outcome::Unreachable | Outcome::CycleLimit
                    ));
                    if r.outcome == Outcome::Recovered {
                        assert!(r.detection_cycles > 0, "chiplet deaths must be detected");
                        assert!(r.overhead_vs_fault_free >= 1.0);
                    }
                }
                "seam" => {
                    assert_eq!(r.trial % 2, 1, "odd trials sever a seam");
                    assert_eq!(r.dead_chiplets.len(), 2, "a seam joins two chiplets");
                    assert!(r.faults.is_empty(), "seam severing kills no cores");
                    assert!(matches!(
                        r.outcome,
                        Outcome::Served | Outcome::Unreachable | Outcome::CycleLimit
                    ));
                }
                other => panic!("unexpected fault class `{other}`"),
            }
            assert!((0.0..=1.0).contains(&r.lost_output_fraction));
        }
        assert!(rows.iter().any(|r| r.fault_class == "chiplet"));
        assert!(rows.iter().any(|r| r.fault_class == "seam"));
        // Histograms split cleanly per topology config.
        let h = outcome_histogram(&rows);
        assert_eq!(h.total() as usize, rows.len());
        // Determinism across simcache temperature.
        crate::simcache::reset();
        let again = chaos_soak(&config).unwrap();
        assert_eq!(rows, again);
    }

    #[test]
    fn mixed_topology_soak_orders_rows_by_package_size() {
        let config = ChaosConfig { cores: 8, chiplets: vec![1, 2], trials: 2, ..quick() };
        let rows = chaos_soak(&config).unwrap();
        assert_eq!(rows.len(), 2 * 3 * config.trials);
        assert!(rows[..6].iter().all(|r| r.chiplets == 1 && r.fault_class == "cores"));
        assert!(rows[6..].iter().all(|r| r.chiplets == 2 && r.fault_class != "cores"));
        for r in &rows[..6] {
            assert!(r.dead_chiplets.is_empty(), "mesh rows carry no chiplet ids");
        }
    }
}
