//! Runs the **MCM fault sweep** (chiplet-loss fault tolerance
//! extension): mid-inference whole-chiplet deaths across package
//! shapes, victim chiplets, and the three parallelization strategies,
//! plus one serving ride-through cell where a chiplet dies mid-stream.
//!
//! Every recovery cell must satisfy the chiplet-loss contract:
//!
//! 1. exactly one recovery event — hierarchical detection (per-router
//!    heartbeats aggregated to a chiplet-liveness verdict) fires once;
//! 2. the pipeline restages onto the survivor chiplets: fewer, fatter
//!    stages, with overhead vs the fault-free run at least 1×;
//! 3. no silent accuracy loss — MCM replans regenerate layouts, so the
//!    lost-output fraction is exactly zero (only in-flight boundary
//!    units can be lost, and that fraction stays in `[0, 1]`).
//!
//! The serving cell must ride the loss out: one recovery, a split
//! timeline, bounded throughput dip, and the traditional profile
//! reporting one fewer pipeline stage after the death.
//!
//! The binary exits nonzero if any cell violates its contract. Timings
//! are recorded per cell and written to `BENCH_mcm_fault.json` (into
//! `LTS_BENCH_DIR`). `LTS_EFFORT=quick` trims the sweep to one package
//! shape and one victim. Run:
//! `cargo run --release -p lts-bench --bin mcm_fault_sweep`
//!
//! Results are bit-reproducible at any `LTS_THREADS` and any simcache
//! temperature: the NoC simulator is single-threaded and the bin
//! re-runs one cell on a cold cache to prove it.

use lts_bench::timing::{self, BenchReport};
use lts_core::recovery::{run_with_recovery, InferenceFault, RecoveryReport};
use lts_core::serve::service_capacity_rpmc;
use lts_core::simcache::{self, SimUsage};
use lts_core::{
    chiplet_stream_fault, run_serving, workloads, ArrivalConfig, ArrivalProcess, ServingConfig,
    ServingStrategy, SystemModel, Workload,
};
use lts_noc::{MonitorConfig, Topo};
use lts_partition::FailureDomain;

/// One recovery cell: a package shape, a strategy workload, and the
/// chiplet that dies mid-inference.
struct RecoveryCell {
    label: String,
    chiplets: usize,
    cores: usize,
    strategy_idx: usize,
    victim: usize,
}

/// The package × victim grid for the effort level. `cores` is per
/// chiplet; every shape keeps 16 cores total so strategies compare
/// across shapes.
fn grid(effort: &str) -> Vec<(usize, usize, Vec<usize>)> {
    match effort {
        "quick" => vec![(2, 8, vec![1])],
        _ => vec![(2, 8, vec![1]), (4, 4, vec![1, 2, 3])],
    }
}

fn recovery_cells(effort: &str, ladders: &[Vec<Workload>]) -> Vec<RecoveryCell> {
    let mut cells = Vec::new();
    for (shape_idx, (chiplets, cores, victims)) in grid(effort).into_iter().enumerate() {
        for (strategy_idx, w) in ladders[shape_idx].iter().enumerate() {
            for &victim in &victims {
                cells.push(RecoveryCell {
                    label: format!("{chiplets}x{cores}/{}/kill-c{victim}", w.strategy),
                    chiplets,
                    cores,
                    strategy_idx,
                    victim,
                });
            }
        }
    }
    cells
}

fn run_cell(cell: &RecoveryCell, w: &Workload) -> RecoveryReport {
    let model = SystemModel::paper_mcm(cell.chiplets, cell.cores).expect("mcm model");
    let Topo::Mcm(topo) = model.noc_config().topo() else { panic!("paper_mcm is a package") };
    // Strike mid-network: some stages complete, some must restage.
    let layer = w.spec.layers.len() / 2;
    let faults = [InferenceFault { layer, dead: vec![cell.victim] }];
    let domain = FailureDomain::Chiplets(topo);
    run_with_recovery(&model, &domain, &w.spec, &w.weights, &faults, &MonitorConfig::default())
        .expect("chiplet recovery run")
}

/// Chiplet-loss contract violations for one recovery cell.
fn check_recovery(cell: &RecoveryCell, r: &RecoveryReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.events.len() != 1 {
        v.push(format!("{} recovery events for one scheduled chiplet death", r.events.len()));
        return v;
    }
    let e = &r.events[0];
    if e.dead_cores.len() != cell.cores {
        v.push(format!(
            "{} dead cores, expected the whole chiplet ({})",
            e.dead_cores.len(),
            cell.cores
        ));
    }
    if e.survivors != (cell.chiplets - 1) * cell.cores {
        v.push(format!(
            "{} survivor cores, expected {}",
            e.survivors,
            (cell.chiplets - 1) * cell.cores
        ));
    }
    if e.detection_cycles == 0 {
        v.push("chiplet death went undetected".into());
    }
    let overhead = r.overhead_vs_fault_free();
    if !overhead.is_finite() || overhead < 1.0 {
        v.push(format!("recovery overhead {overhead:.3}x beats the fault-free run"));
    }
    if r.lost_output_fraction != 0.0 {
        v.push(format!(
            "lost output fraction {} — MCM replans must regenerate layouts",
            r.lost_output_fraction
        ));
    }
    if !(0.0..=1.0).contains(&r.lost_boundary_fraction) {
        v.push(format!("lost boundary fraction {} out of bounds", r.lost_boundary_fraction));
    }
    v
}

/// The serving ride-through cell: a 4-chiplet package at 0.6× capacity
/// loses chiplet 2 at 1.2M cycles and must keep serving.
fn serving_cell(horizon: u64) -> ServingConfig {
    let mut config = ServingConfig {
        cores: 4,
        chiplets: 4,
        strategy: ServingStrategy::Traditional,
        max_batch: 4,
        ..ServingConfig::default()
    };
    let capacity = service_capacity_rpmc(&config).expect("mcm service capacity");
    config.arrivals = ArrivalConfig {
        process: ArrivalProcess::Poisson { rate_rpmc: capacity * 0.6 },
        horizon_cycles: horizon,
        seed: 2019,
    };
    config.faults =
        vec![chiplet_stream_fault(&config, 2, 1_200_000).expect("chiplet stream fault")];
    config
}

fn check_serving(r: &lts_core::ServingReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.outcomes.total() as usize != r.offered {
        v.push(format!("{} outcomes for {} offered requests", r.outcomes.total(), r.offered));
    }
    if r.halted_at.is_some() {
        v.push(format!("stream halted at {:?}", r.halted_at));
    }
    if r.recoveries.len() != 1 {
        v.push(format!("{} recoveries for one scheduled chiplet death", r.recoveries.len()));
    }
    if r.phases.len() < 2 {
        v.push(format!("{} phases — the death never split the timeline", r.phases.len()));
    }
    if let (Some(pre), Some(post)) = (r.phases.first(), r.phases.last()) {
        if post.served == 0 {
            v.push("post-fault phase served nothing".into());
        }
        if post.sustained_rpmc <= 0.0 || post.sustained_rpmc < pre.sustained_rpmc * 0.2 {
            v.push(format!(
                "post-fault throughput {:.3} rpmc collapsed vs pre-fault {:.3}",
                post.sustained_rpmc, pre.sustained_rpmc
            ));
        }
    }
    match r.strategies.iter().find(|s| s.strategy == ServingStrategy::Traditional) {
        Some(s) if s.stages != 3 => v.push(format!(
            "traditional profile reports {} stages on 3 survivor chiplets",
            s.stages
        )),
        None => v.push("traditional profile missing from the degraded ladder".into()),
        _ => {}
    }
    v
}

fn main() {
    lts_obs::enable_from_env();
    let effort = std::env::var("LTS_EFFORT").unwrap_or_else(|_| "paper".into());
    let horizon = match effort.as_str() {
        "quick" => 4_000_000u64,
        "paper" => 4_000_000,
        other => panic!("LTS_EFFORT must be `quick` or `paper`, got `{other}`"),
    };
    let iters = timing::iters_from_env(2);
    println!("=== Learn-to-Scale reproduction: MCM chiplet-loss fault sweep ===");
    println!("(effort: {effort}, mid-network chiplet deaths, {iters} timed iters/cell)\n");

    simcache::reset();
    let mut report = BenchReport::new("mcm_fault", &effort);
    let mut sim = SimUsage::default();
    let mut violations: Vec<String> = Vec::new();

    // One strategy ladder per package shape (per-chiplet core counts
    // differ, so the hop-local sparse weights differ too).
    let ladders: Vec<Vec<Workload>> = grid(&effort)
        .iter()
        .map(|&(_, cores, _)| workloads(cores).expect("strategy ladder"))
        .collect();
    let cells = recovery_cells(&effort, &ladders);
    let mut rows: Vec<(String, RecoveryReport)> = Vec::new();
    for cell in &cells {
        let w = &ladders[grid(&effort)
            .iter()
            .position(|&(c, k, _)| c == cell.chiplets && k == cell.cores)
            .expect("cell shape in grid")][cell.strategy_idx];
        let mut last: Option<RecoveryReport> = None;
        let record = timing::time(&cell.label, 1, iters, || {
            last = Some(run_cell(cell, w));
        });
        report.push(record);
        let r = last.expect("timed at least once");
        for problem in check_recovery(cell, &r) {
            violations.push(format!("{}: {problem}", cell.label));
        }
        sim.merge(&r.sim_usage());
        rows.push((cell.label.clone(), r));
    }

    println!(
        "{:<32} {:>12} {:>12} {:>9} {:>9} {:>8} {:>10} {:>6}",
        "cell", "fault-free", "recovered", "overhead", "v-oracle", "detect", "resync-B", "lostB"
    );
    for (label, r) in &rows {
        println!(
            "{:<32} {:>12} {:>12} {:>9} {:>9} {:>8} {:>10} {:>6.3}",
            label,
            r.fault_free.total_cycles,
            r.report.total_cycles,
            format!("{:.3}x", r.overhead_vs_fault_free()),
            r.overhead_vs_oracle().map_or("-".into(), |o| format!("{o:.3}x")),
            r.detection_cycles(),
            r.redistribution_bytes(),
            r.lost_boundary_fraction,
        );
        report.notes.push(format!(
            "{label}: {} -> {} cycles ({:.3}x), detect {} resync {}B lostB {:.3}",
            r.fault_free.total_cycles,
            r.report.total_cycles,
            r.overhead_vs_fault_free(),
            r.detection_cycles(),
            r.redistribution_bytes(),
            r.lost_boundary_fraction
        ));
    }

    // Cold-cache determinism: the first cell, re-run after a simcache
    // reset, must reproduce the recovered latency bit for bit.
    if let (Some(cell), Some((label, warm))) = (cells.first(), rows.first()) {
        simcache::reset();
        let cold = run_cell(cell, &ladders[0][cell.strategy_idx]);
        if cold.report.total_cycles != warm.report.total_cycles || cold.events != warm.events {
            violations.push(format!("{label}: cold-cache re-run diverged from the warm run"));
        } else {
            println!("\ncold-cache re-run of {label}: bit-identical");
        }
    }

    let serving_config = serving_cell(horizon);
    let mut last_serving = None;
    let record = timing::time("serve/4x4/kill-c2@1.2M", 1, iters, || {
        last_serving = Some(run_serving(&serving_config).expect("serving ride-through"));
    });
    report.push(record);
    let sr = last_serving.expect("timed at least once");
    for problem in check_serving(&sr) {
        violations.push(format!("serve/4x4/kill-c2@1.2M: {problem}"));
    }
    sim.merge(&sr.sim);
    let post_stages = sr
        .strategies
        .iter()
        .find(|s| s.strategy == ServingStrategy::Traditional)
        .map_or(0, |s| s.stages);
    println!(
        "\nserve/4x4/kill-c2@1.2M: offered {} served {} recoveries {} phases {} stages 4->{} \
         sustained {:.3} rpmc",
        sr.offered,
        sr.served(),
        sr.recoveries.len(),
        sr.phases.len(),
        post_stages,
        sr.sustained_rpmc
    );
    report.notes.push(format!(
        "serve/4x4/kill-c2@1.2M: offered {} outcomes[{}] recoveries {} stages {}",
        sr.offered,
        sr.outcomes.render(),
        sr.recoveries.len(),
        post_stages
    ));

    let cache = simcache::stats();
    println!(
        "\nsim usage: {} transitions simulated, {} answered from cache ({} hits / {} misses); \
         {} cycles stepped, {} fast-forwarded",
        sim.sims,
        sim.cache_hits,
        cache.hits,
        cache.misses,
        sim.cycles_simulated,
        sim.cycles_fast_forwarded
    );
    println!();
    println!("Each recovery cell kills one whole chiplet mid-network: per-router heartbeat");
    println!("deadlines aggregate to a chiplet-liveness verdict, the boundary tensor is");
    println!("resynced over the interposer, and the remaining layers restage onto the");
    println!("survivor chiplets (fewer, fatter stages). `v-oracle` compares against the");
    println!("oracle static replan that knew the dead set before the run started.");

    report.attach_probes();
    report.write().expect("write mcm fault bench report");

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION {v}");
        }
        eprintln!(
            "mcm fault sweep: {} cell(s) violated the chiplet-loss contract",
            violations.len()
        );
        std::process::exit(1);
    }
    println!("\nall {} cells satisfied the chiplet-loss contract", rows.len() + 1);
}
