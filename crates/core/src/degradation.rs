//! Fail-operational degradation experiments: fault rate × core failures
//! swept over the three parallelization strategies.
//!
//! Each cell of the sweep kills a set of cores (their routers die with
//! them), injects a transient flit-drop rate on the surviving links,
//! re-plans the workload over the survivors
//! (a static [`lts_partition::FailureDomain::replan`]) and re-runs the end-to-end system model
//! on the faulty mesh. The three strategies degrade differently:
//!
//! * **traditional** — dense ConvNet; re-sharding preserves accuracy,
//!   latency/traffic shift with the survivor count;
//! * **structure** — grouped ConvNet; a dead core takes its channel
//!   groups' output chain with it ([`FaultSweepRow::lost_output_fraction`]
//!   is the accuracy-degradation proxy);
//! * **sparsified** — dense ConvNet with synthetic SS_Mask-style weights
//!   (producer→consumer groups more than one hop apart are zero), the
//!   communication pattern the paper's mask regularizer converges to.
//!
//! Every cell is deterministic in `(config, seed)` and independent of
//! the execution engine's worker count: the NoC simulator is
//! single-threaded and fault schedules are stateless hash draws.

use crate::simcache::SimUsage;
use crate::system::{SystemModel, SystemReport};
use crate::{CoreError, Result};
use lts_nn::descriptor::{convnet_spec, NetworkSpec, SpecBuilder};
use lts_noc::{NocConfig, NocError, Topology};
use lts_partition::{FailureDomain, Plan};
use lts_tensor::par;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The fault-rate × dead-core grid to sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepConfig {
    /// Cores on the (healthy) chip.
    pub cores: usize,
    /// Transient flit-drop probabilities to inject on surviving links.
    pub fault_rates: Vec<f64>,
    /// Sets of physical cores to kill (router and compute die together).
    pub dead_core_sets: Vec<Vec<usize>>,
    /// Fault-schedule seed.
    pub seed: u64,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        Self {
            cores: 16,
            fault_rates: vec![0.0, 1e-4, 1e-3],
            dead_core_sets: vec![vec![], vec![5], vec![5, 6, 10]],
            seed: 2019,
        }
    }
}

impl FaultSweepConfig {
    /// A trimmed grid for tests and `LTS_EFFORT=quick` runs.
    pub fn quick() -> Self {
        Self {
            fault_rates: vec![0.0, 1e-3],
            dead_core_sets: vec![vec![], vec![5]],
            ..Self::default()
        }
    }

    /// Cells per strategy.
    pub fn cells(&self) -> usize {
        self.fault_rates.len() * self.dead_core_sets.len()
    }
}

/// How one sweep cell ended.
pub mod outcome {
    /// The degraded run completed and delivered every message.
    pub const OK: &str = "ok";
    /// The fault model cut the mesh: some survivor pair has no route.
    pub const UNREACHABLE: &str = "unreachable";
    /// The retransmission protocol could not converge before the cycle
    /// watchdog (pathological fault rates).
    pub const CYCLE_LIMIT: &str = "cycle-limit";
}

/// One cell of the degradation sweep.
///
/// The `*_vs_healthy` ratios compare against the same strategy on the
/// fault-free chip (`> 1` = slower / more energy). On a run that did not
/// complete (`outcome != "ok"`) every measured field is zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// `traditional`, `structure` or `sparsified`.
    pub strategy: String,
    /// Workload network name.
    pub network: String,
    /// Injected flit-drop probability.
    pub fault_rate: f64,
    /// Killed physical cores (sorted, deduplicated).
    pub dead_cores: Vec<usize>,
    /// Surviving cores the plan was rebuilt over.
    pub survivors: usize,
    /// One of the [`outcome`] strings.
    pub outcome: String,
    /// Single-pass latency in cycles.
    pub total_cycles: u64,
    /// Communication share of the latency, in cycles.
    pub comm_cycles: u64,
    /// Bytes crossing the NoC.
    pub traffic_bytes: u64,
    /// NoC energy (pJ), including retransmitted flits.
    pub noc_energy_pj: f64,
    /// Packets re-sent after a timeout.
    pub retransmitted_packets: u64,
    /// Packets rejected at the destination NIC (poisoned payloads).
    pub rejected_packets: u64,
    /// Latency relative to the fault-free run of the same strategy.
    pub latency_vs_healthy: f64,
    /// Total (compute + NoC) energy relative to the fault-free run.
    pub energy_vs_healthy: f64,
    /// Worst per-layer fraction of output channels lost to core death —
    /// the accuracy-degradation proxy (nonzero only for grouped plans).
    pub lost_output_fraction: f64,
    /// Simulated-vs-cached NoC work behind this cell (zeroed when the
    /// cell fails before evaluation).
    pub sim: SimUsage,
}

/// One strategy's workload: a spec plus (possibly sparse) weights.
/// Shared with the chaos-soak harness ([`crate::chaos`]), which stresses
/// the same three strategies with mid-flight faults, and with external
/// fault-injection benches that sweep the same ladder.
pub struct Workload {
    /// Strategy label: `traditional`, `structure` or `sparsified`.
    pub strategy: &'static str,
    /// Workload network name.
    pub network: &'static str,
    /// The network to plan and evaluate.
    pub spec: NetworkSpec,
    /// Per-layer weights; empty for dense strategies.
    pub weights: HashMap<String, Vec<f32>>,
}

/// The CIFAR ConvNet with its deeper convolutions grouped `groups` ways
/// (the §IV-B structure-level layout at chip scale). Shared with the
/// serving simulator's strategy ladder ([`crate::serve`]).
pub(crate) fn grouped_convnet_spec(groups: usize) -> NetworkSpec {
    SpecBuilder::new("ConvNet-G", (3, 32, 32))
        .conv("conv1", 32, 5, 1, 2, 1)
        .pool("pool1", 3, 2)
        .relu()
        .conv("conv2", 32, 5, 1, 2, groups)
        .relu()
        .pool("pool2", 3, 2)
        .conv("conv3", 64, 5, 1, 2, groups)
        .relu()
        .pool("pool3", 3, 2)
        .flatten()
        .linear("ip1", 64)
        .linear("ip2", 10)
        .build()
}

/// Synthetic SS_Mask-style weights for `spec` on `cores` cores: every
/// producer→consumer weight group whose cores sit more than one hop
/// apart on the mesh is zeroed, nearby groups stay dense. This is the
/// hop-local communication pattern the paper's mask regularizer learns,
/// reproduced without training. Shared with the serving simulator's
/// strategy ladder ([`crate::serve`]).
pub(crate) fn hop_local_weights(
    spec: &NetworkSpec,
    cores: usize,
) -> Result<HashMap<String, Vec<f32>>> {
    let cfg = NocConfig::paper_cores(cores)?;
    let mesh = cfg.topo();
    let plan = Plan::dense(spec, cores, 2)?;
    let mut weights = HashMap::new();
    for lp in &plan.layers {
        let Some(layout) = &lp.layout else { continue };
        if lp.traffic.is_empty() {
            // First layer reads the replicated input: leave it dense.
            continue;
        }
        let mut w = vec![1.0f32; layout.weight_len()];
        for p in 0..cores {
            for c in 0..cores {
                if p != c && mesh.distance(p, c) > 1 {
                    layout.visit_group(p, c, |idx| w[idx] = 0.0);
                }
            }
        }
        weights.insert(lp.spec.name.clone(), w);
    }
    Ok(weights)
}

/// The three-strategy workload ladder on a `cores`-core chip:
/// traditional (dense), structure-level (grouped ConvNet, grouping
/// degree picked to divide the conv channel counts), and the
/// communication-aware sparsified layout (synthetic hop-local SS_Mask
/// weights).
///
/// # Errors
///
/// Propagates plan construction failures from the hop-local weight
/// synthesis (e.g. an unsupported core count).
pub fn workloads(cores: usize) -> Result<Vec<Workload>> {
    let dense = convnet_spec();
    // Grouping degree: the chip size when it divides the conv channel
    // counts, otherwise the largest divisor that does.
    let groups = (1..=cores).rev().find(|g| 32 % g == 0 && 64 % g == 0).unwrap_or(1);
    let sparse_weights = hop_local_weights(&dense, cores)?;
    Ok(vec![
        Workload {
            strategy: "traditional",
            network: "ConvNet",
            spec: dense.clone(),
            weights: HashMap::new(),
        },
        Workload {
            strategy: "structure",
            network: "ConvNet-G",
            spec: grouped_convnet_spec(groups),
            weights: HashMap::new(),
        },
        Workload {
            strategy: "sparsified",
            network: "ConvNet",
            spec: dense,
            weights: sparse_weights,
        },
    ])
}

/// Runs the full degradation sweep: every strategy × fault rate ×
/// dead-core set. Rows come back grouped by strategy, then in the grid
/// order of `config` (fault rate outer, dead set inner).
///
/// Cells where the fault configuration defeats the protocol do not
/// abort the sweep: they are reported with [`outcome::UNREACHABLE`] or
/// [`outcome::CYCLE_LIMIT`] and zeroed measurements.
///
/// # Errors
///
/// [`CoreError::BadConfig`] for an empty/invalid grid; plan or
/// simulation errors other than the two fail-operational outcomes.
pub fn fault_sweep(config: &FaultSweepConfig) -> Result<Vec<FaultSweepRow>> {
    if config.cores == 0 {
        return Err(CoreError::BadConfig("cores must be positive".into()));
    }
    if config.fault_rates.is_empty() || config.dead_core_sets.is_empty() {
        return Err(CoreError::BadConfig("empty sweep grid".into()));
    }
    let workloads = workloads(config.cores)?;
    // Strategies are independent; fan them out on the execution engine
    // (par_map preserves order, and every cell is deterministic).
    let per_strategy = par::par_map(&workloads, |_, w| sweep_workload(config, w))
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    Ok(per_strategy.into_iter().flatten().collect())
}

fn sweep_workload(config: &FaultSweepConfig, w: &Workload) -> Result<Vec<FaultSweepRow>> {
    let healthy_plan = Plan::build(&w.spec, config.cores, &w.weights, 2)?;
    let healthy = SystemModel::paper(config.cores)?.evaluate(&healthy_plan)?;
    let mut rows = Vec::with_capacity(config.cells());
    for &rate in &config.fault_rates {
        for dead in &config.dead_core_sets {
            rows.push(sweep_cell(config, w, &healthy, rate, dead)?);
        }
    }
    Ok(rows)
}

fn sweep_cell(
    config: &FaultSweepConfig,
    w: &Workload,
    healthy: &SystemReport,
    rate: f64,
    dead: &[usize],
) -> Result<FaultSweepRow> {
    let domain = FailureDomain::Cores(config.cores);
    let degraded = domain.replan(&w.spec, None, 0, dead, &w.weights, 2)?;
    let fault = domain.fault_model(&degraded.dead).with_seed(config.seed).drop_rate(rate);
    let model = SystemModel::paper(config.cores)?.with_fault_model(fault);
    let mut row = FaultSweepRow {
        strategy: w.strategy.into(),
        network: w.network.into(),
        fault_rate: rate,
        dead_cores: degraded.dead.clone(),
        survivors: degraded.survivors.len(),
        outcome: outcome::OK.into(),
        total_cycles: 0,
        comm_cycles: 0,
        traffic_bytes: 0,
        noc_energy_pj: 0.0,
        retransmitted_packets: 0,
        rejected_packets: 0,
        latency_vs_healthy: 0.0,
        energy_vs_healthy: 0.0,
        lost_output_fraction: degraded.lost_output_fraction(),
        sim: SimUsage::default(),
    };
    match model.evaluate_replan(&degraded) {
        Ok(report) => {
            row.total_cycles = report.total_cycles;
            row.comm_cycles = report.comm_cycles;
            row.traffic_bytes = report.traffic_bytes;
            row.noc_energy_pj = report.noc_energy_pj;
            row.retransmitted_packets = report.faults.packets_retransmitted;
            row.rejected_packets = report.faults.packets_rejected;
            row.latency_vs_healthy = if healthy.total_cycles == 0 {
                1.0
            } else {
                report.total_cycles as f64 / healthy.total_cycles as f64
            };
            let base_energy = healthy.total_energy_pj();
            row.energy_vs_healthy =
                if base_energy == 0.0 { 1.0 } else { report.total_energy_pj() / base_energy };
            row.sim = report.sim;
        }
        Err(CoreError::Noc(NocError::Unreachable { .. })) => {
            row.outcome = outcome::UNREACHABLE.into();
        }
        Err(CoreError::Noc(NocError::CycleLimitExceeded { .. })) => {
            row.outcome = outcome::CYCLE_LIMIT.into();
        }
        Err(e) => return Err(e),
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FaultSweepConfig {
        FaultSweepConfig { seed: 7, ..FaultSweepConfig::quick() }
    }

    #[test]
    fn sweep_covers_every_strategy_and_cell() {
        let config = quick();
        let rows = fault_sweep(&config).unwrap();
        assert_eq!(rows.len(), 3 * config.cells());
        for strategy in ["traditional", "structure", "sparsified"] {
            assert_eq!(rows.iter().filter(|r| r.strategy == strategy).count(), config.cells());
        }
        for r in &rows {
            assert!(
                [outcome::OK, outcome::UNREACHABLE, outcome::CYCLE_LIMIT]
                    .contains(&r.outcome.as_str()),
                "unknown outcome {}",
                r.outcome
            );
        }
    }

    #[test]
    fn zero_fault_rows_match_the_healthy_baseline_exactly() {
        let rows = fault_sweep(&quick()).unwrap();
        for w in workloads(16).unwrap() {
            let healthy = SystemModel::paper(16)
                .unwrap()
                .evaluate(&Plan::build(&w.spec, 16, &w.weights, 2).unwrap())
                .unwrap();
            let row = rows
                .iter()
                .find(|r| {
                    r.strategy == w.strategy && r.fault_rate == 0.0 && r.dead_cores.is_empty()
                })
                .unwrap();
            assert_eq!(row.outcome, outcome::OK);
            assert_eq!(row.total_cycles, healthy.total_cycles, "strategy {}", w.strategy);
            assert_eq!(row.traffic_bytes, healthy.traffic_bytes);
            assert_eq!(row.latency_vs_healthy, 1.0);
            assert_eq!(row.energy_vs_healthy, 1.0);
            assert_eq!(row.retransmitted_packets, 0);
            assert_eq!(row.rejected_packets, 0);
        }
    }

    #[test]
    fn transient_faults_fire_and_cost_latency() {
        let rows = fault_sweep(&quick()).unwrap();
        let row = rows
            .iter()
            .find(|r| {
                r.strategy == "traditional" && r.fault_rate == 1e-3 && r.dead_cores.is_empty()
            })
            .unwrap();
        assert_eq!(row.outcome, outcome::OK);
        assert!(row.retransmitted_packets > 0, "1e-3 must fire on the ConvNet trace");
        assert!(row.latency_vs_healthy > 1.0);
    }

    #[test]
    fn only_grouped_plans_lose_accuracy_to_core_death() {
        let rows = fault_sweep(&quick()).unwrap();
        for r in &rows {
            if r.dead_cores.is_empty() {
                assert_eq!(r.lost_output_fraction, 0.0);
                continue;
            }
            match r.strategy.as_str() {
                "structure" => assert!(
                    r.lost_output_fraction > 0.0,
                    "dead core must take its groups' outputs with it"
                ),
                _ => assert_eq!(r.lost_output_fraction, 0.0, "re-sharding preserves accuracy"),
            }
            assert_eq!(r.survivors, 15);
        }
    }

    #[test]
    fn sparsified_workload_moves_less_traffic_than_traditional() {
        let rows = fault_sweep(&quick()).unwrap();
        let find = |strategy: &str| {
            rows.iter()
                .find(|r| r.strategy == strategy && r.fault_rate == 0.0 && r.dead_cores.is_empty())
                .unwrap()
        };
        let traditional = find("traditional");
        let sparsified = find("sparsified");
        let structure = find("structure");
        assert!(sparsified.traffic_bytes < traditional.traffic_bytes);
        assert!(structure.traffic_bytes < traditional.traffic_bytes);
    }

    #[test]
    fn invalid_grids_are_rejected() {
        let mut config = quick();
        config.cores = 0;
        assert!(fault_sweep(&config).is_err());
        let mut config = quick();
        config.fault_rates.clear();
        assert!(fault_sweep(&config).is_err());
        let mut config = quick();
        config.dead_core_sets = vec![vec![99]];
        assert!(fault_sweep(&config).is_err(), "out-of-range dead core must propagate");
    }
}
