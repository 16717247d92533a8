//! Integration: fault injection is deterministic across the whole stack.
//!
//! Two guarantees from the robustness work are checked end to end:
//!
//! 1. fault-matrix rows are bit-identical at any execution-engine worker
//!    count (`LTS_THREADS`) — fault schedules are stateless hash draws
//!    and the NoC simulator is single-threaded;
//! 2. the zero-fault static cells match the fault-free system model
//!    exactly, so turning the fault machinery on costs nothing when no
//!    faults are configured.

use learn_to_scale::core::fault_matrix::{run, Cell, Fault, Row};
use learn_to_scale::core::{Outcome, SystemModel};
use learn_to_scale::partition::{FailureDomain, Plan};
use learn_to_scale::tensor::par::{install, ExecConfig};
use std::collections::HashMap;

/// Every rung × drop rate {0, 1e-3} × dead set {none, {5, 10}} on the
/// 16-core mesh, seed 23.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for rung in 0..3 {
        for drop_rate in [0.0, 1e-3] {
            for dead in [vec![], vec![5, 10]] {
                let fault = Fault::Static { dead, drop_rate, seed: 23 };
                cells.push(Cell { rung, chiplets: 1, cores: 16, fault });
            }
        }
    }
    cells
}

#[test]
fn matrix_rows_are_bit_identical_across_worker_counts() {
    let mut runs: Vec<Vec<Row>> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        install(ExecConfig::new(threads));
        runs.push(run(&cells()).expect("fault matrix"));
    }
    install(ExecConfig::from_env());
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(run, &runs[0], "worker count must not change results (run {i})");
    }
}

#[test]
fn zero_fault_static_cells_match_the_fault_free_model_exactly() {
    let rows = run(&cells()).expect("fault matrix");
    // The traditional strategy's healthy cell, recomputed independently
    // through the plain (pre-fault-model) evaluation path.
    let spec = learn_to_scale::nn::descriptor::convnet_spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    let healthy = SystemModel::paper(16).expect("model").evaluate(&plan).expect("evaluate");
    let cell = &rows[0];
    assert_eq!(cell.strategy, "traditional");
    assert_eq!(cell.cell.fault, Fault::Static { dead: vec![], drop_rate: 0.0, seed: 23 });
    assert_eq!(cell.outcome, Outcome::Served);
    let r = cell.recovery.as_ref().expect("healthy traditional cell");
    assert_eq!(r.report.total_cycles, healthy.total_cycles);
    assert_eq!(r.report.comm_cycles, healthy.comm_cycles);
    assert_eq!(r.report.traffic_bytes, healthy.traffic_bytes);
    assert_eq!(r.report.noc_energy_pj, healthy.noc_energy_pj);
    assert_eq!(r.overhead_vs_fault_free(), 1.0);
    assert_eq!(r.energy_vs_fault_free(), 1.0);
    assert_eq!(r.report.faults.packets_retransmitted, 0);
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
