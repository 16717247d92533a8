//! Integration: fault injection is deterministic across the whole stack.
//!
//! Two guarantees from the robustness work are checked end to end:
//!
//! 1. the degradation sweep is bit-identical at any execution-engine
//!    worker count (`LTS_THREADS`) — fault schedules are stateless hash
//!    draws and the NoC simulator is single-threaded;
//! 2. the zero-fault sweep cells match the fault-free system model
//!    exactly, so turning the fault machinery on costs nothing when no
//!    faults are configured.

use learn_to_scale::core::degradation::{fault_sweep, outcome, FaultSweepConfig, FaultSweepRow};
use learn_to_scale::core::SystemModel;
use learn_to_scale::partition::{FailureDomain, Plan};
use learn_to_scale::tensor::par::{install, ExecConfig};
use std::collections::HashMap;

fn config() -> FaultSweepConfig {
    FaultSweepConfig {
        cores: 16,
        fault_rates: vec![0.0, 1e-3],
        dead_core_sets: vec![vec![], vec![5, 10]],
        seed: 23,
    }
}

#[test]
fn sweep_is_bit_identical_across_worker_counts() {
    let mut runs: Vec<Vec<FaultSweepRow>> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        install(ExecConfig::new(threads));
        runs.push(fault_sweep(&config()).expect("sweep"));
    }
    install(ExecConfig::from_env());
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(run, &runs[0], "worker count must not change results (run {i})");
    }
}

#[test]
fn zero_fault_cells_match_the_fault_free_model_exactly() {
    let rows = fault_sweep(&config()).expect("sweep");
    // The traditional strategy's healthy cell, recomputed independently
    // through the plain (pre-fault-model) evaluation path.
    let spec = learn_to_scale::nn::descriptor::convnet_spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    let healthy = SystemModel::paper(16).expect("model").evaluate(&plan).expect("evaluate");
    let cell = rows
        .iter()
        .find(|r| r.strategy == "traditional" && r.fault_rate == 0.0 && r.dead_cores.is_empty())
        .expect("healthy traditional cell");
    assert_eq!(cell.outcome, outcome::OK);
    assert_eq!(cell.total_cycles, healthy.total_cycles);
    assert_eq!(cell.comm_cycles, healthy.comm_cycles);
    assert_eq!(cell.traffic_bytes, healthy.traffic_bytes);
    assert_eq!(cell.noc_energy_pj, healthy.noc_energy_pj);
    assert_eq!(cell.latency_vs_healthy, 1.0);
    assert_eq!(cell.energy_vs_healthy, 1.0);
    assert_eq!(cell.retransmitted_packets, 0);
    assert!(!healthy.faults.any());
}

#[test]
fn degraded_evaluation_is_reproducible_and_survivor_only() {
    let spec = learn_to_scale::nn::descriptor::convnet_spec();
    let dead = [5usize, 10];
    let domain = FailureDomain::Cores(16);
    let degraded = domain.replan(&spec, None, 0, &dead, &HashMap::new(), 2).expect("replan");
    assert_eq!(degraded.survivors.len(), 14);
    let fault = domain.fault_model(&dead).with_seed(23).drop_rate(5e-4);
    let model = SystemModel::paper(16).expect("model").with_fault_model(fault);
    let a = model.evaluate_replan(&degraded).expect("degraded run");
    let b = model.evaluate_replan(&degraded).expect("degraded run");
    assert_eq!(a, b, "same fault model + plan must be bit-identical");
    assert!(a.total_cycles > 0);
}
