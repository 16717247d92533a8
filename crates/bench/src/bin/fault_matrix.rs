//! Runs the **fault matrix** (fail-operational extension): the three
//! parallelization strategies under inference faults, as three slices of
//! one matrix of (strategy, package, fault) cells:
//!
//! * **degradation** — flit-drop rate × static dead-core set on the
//!   paper's 16-core mesh, replanned over the survivors before the run;
//! * **chaos** — randomized mid-flight core deaths on the mesh, and on
//!   2- and 4-chiplet packages whole-chiplet deaths alternating with
//!   interposer-seam severings, all through the online recovery path;
//! * **chiplet-loss** — one whole chiplet dies before the middle layer,
//!   per package shape and victim chiplet.
//!
//! Every slice's contract is checked on its rows: zero-fault degradation
//! rows read exactly 1.0 against the fault-free run, chaos rows end with
//! a bounded output loss or a typed outcome their fault class allows,
//! and chiplet-loss rows detect the death once, restage onto the
//! survivors and lose no output silently. The first cell of each slice
//! is re-run from the warm simulation cache and must reproduce its row.
//! The binary exits nonzero on any violation. `LTS_EFFORT=quick` trims
//! every slice. Run:
//! `cargo run --release -p lts-bench --bin fault_matrix`
//!
//! Results are bit-reproducible at any `LTS_THREADS`: schedules are
//! stateless hash draws and the NoC simulator is single-threaded.

use lts_bench::effort_from_env;
use lts_core::experiment::EffortPreset;
use lts_core::fault_matrix::{self, Row, Slice};
use lts_core::report::render_table;
use lts_core::simcache;
use lts_core::OutcomeHistogram;

/// Seed of the flit drops and the chaos schedules.
const SEED: u64 = 2019;

fn main() {
    let quick = effort_from_env() == EffortPreset::quick();
    let effort = if quick { "quick" } else { "paper" };
    println!("=== Learn-to-Scale reproduction: fault matrix (inference faults) ===");
    println!("(effort: {effort}, seed {SEED})\n");

    simcache::reset();
    let mut violations: Vec<String> = Vec::new();
    let mut slices: Vec<(Slice, Vec<Row>)> = Vec::new();
    for slice in Slice::ALL {
        let cells = slice.cells(quick, SEED).expect("slice cells");
        let rows = fault_matrix::run(&cells).expect("fault matrix");
        violations
            .extend(slice.violations(&rows).into_iter().map(|v| format!("{}/{v}", slice.name())));
        slices.push((slice, rows));
    }

    let mut table = Vec::new();
    for (slice, rows) in &slices {
        for r in rows {
            let rec = r.recovery.as_ref();
            let ratio = |x: f64| format!("{x:.3}x");
            let dash = |s: Option<String>| s.unwrap_or_else(|| "-".into());
            table.push(vec![
                slice.name().into(),
                format!("{}x{}/{}", r.cell.chiplets, r.cell.cores, r.strategy),
                r.cell.class().into(),
                r.cell.describe(),
                r.outcome.to_string(),
                dash(rec.map(|x| ratio(x.overhead_vs_fault_free()))),
                dash(rec.map(|x| ratio(x.energy_vs_fault_free()))),
                dash(rec.and_then(|x| x.overhead_vs_oracle()).map(ratio)),
                dash(rec.map(|x| x.detection_cycles().to_string())),
                dash(rec.map(|x| x.redistribution_bytes().to_string())),
                dash(rec.map(|x| x.report.faults.packets_retransmitted.to_string())),
                format!("{:.3}", r.lost_fraction()),
            ]);
        }
    }
    let header = [
        "Slice",
        "Package/strategy",
        "Class",
        "Fault",
        "Outcome",
        "Latency",
        "Energy",
        "V-oracle",
        "Detect",
        "Resync B",
        "Retx",
        "Lost",
    ];
    println!("{}", render_table(&header, &table));
    println!();
    for (slice, rows) in &slices {
        let histogram: OutcomeHistogram = rows.iter().map(|r| r.outcome).collect();
        println!("outcomes [{}]: {}", slice.name(), histogram.render());
    }

    // Cache-temperature determinism: each slice's first cell simulated
    // transitions no earlier cell had; re-run from the warm cache, it must
    // reproduce its row bit for bit (row equality ignores the usage
    // counters) and simulate nothing.
    println!();
    for (slice, rows) in &slices {
        let Some(cold) = rows.first() else { continue };
        let warm = fault_matrix::run(std::slice::from_ref(&cold.cell)).expect("warm re-run");
        let sims = |r: &Row| r.recovery.as_ref().map_or(0, |x| x.sim_usage().sims);
        let label = format!("{}/{}", slice.name(), cold.label());
        if sims(cold) == 0 || sims(&warm[0]) != 0 {
            violations.push(format!(
                "{label}: the first run simulated {} transitions and the re-run {}; the check \
                 needs an uncached run and a cached one",
                sims(cold),
                sims(&warm[0])
            ));
        } else if warm[0] != *cold {
            violations.push(format!("{label}: warm-cache re-run diverged from the first run"));
        } else {
            println!("warm-cache re-run of {label}: bit-identical to its first run");
        }
    }

    // Rungs that share a transition (the dense first layers) split its
    // one simulation and its cache answers by which ran first, and two
    // workers that miss one key at once both simulate it, so per-row usage
    // and the hit/miss split depend on `LTS_THREADS`. The count of
    // distinct cache entries and of lookups do not.
    let cache = simcache::stats();
    let lookups = cache.hits + cache.misses;
    let simulated = if simcache::enabled() { cache.entries as u64 } else { lookups };
    println!(
        "\nsim usage: {simulated} transitions simulated, {} answered from cache",
        lookups - simulated
    );
    println!();
    println!("Latency and energy are relative to the fault-free run, `v-oracle` to the static");
    println!("replan that knew the final dead set up front. `static` cells replan before the run,");
    println!("`cores`/`chiplet` cells detect, resync and reshard mid-inference, `seam` cells ride");
    println!(
        "through a severed interposer seam. `lost` counts dead pinned outputs and boundary units."
    );

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION {v}");
        }
        eprintln!("fault matrix: {} contract violation(s)", violations.len());
        std::process::exit(1);
    }
    let cells: usize = slices.iter().map(|(_, rows)| rows.len()).sum();
    println!("\nall {cells} cells satisfied their slice contracts");
}
