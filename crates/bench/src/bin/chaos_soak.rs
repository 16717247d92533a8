//! Runs the **chaos soak** (robustness extension): randomized
//! mid-flight core-death schedules against the online fault-recovery
//! path, over the three parallelization strategies on the paper's
//! 16-core mesh — plus MCM packages, where the soak samples the
//! package-level fault classes (whole-chiplet deaths and interposer
//! seam severings) instead.
//!
//! Every trial must end with a bounded lost-output fraction or a typed
//! fail-operational outcome (`unreachable` / `cycle-limit`; seam
//! ride-throughs report `served`) — never a panic or a hang; the
//! binary exits nonzero if any trial violates that contract.
//! `LTS_EFFORT=quick` trims the soak to a smoke test. Run:
//! `cargo run --release -p lts-bench --bin chaos_soak`
//!
//! Results are bit-reproducible at any `LTS_THREADS`: schedules are
//! stateless hash draws and the NoC simulator is single-threaded.

use lts_core::chaos::{chaos_soak, outcome_histogram, ChaosConfig, ChaosRow};
use lts_core::simcache::{self, SimUsage};
use lts_core::Outcome;

fn main() {
    let effort = std::env::var("LTS_EFFORT").unwrap_or_else(|_| "paper".into());
    let config = match effort.as_str() {
        // Package sizes above 1 soak the MCM fault classes: chiplet
        // deaths and interposer seam severings on a paper_mcm package.
        "quick" => ChaosConfig { chiplets: vec![1, 2], ..ChaosConfig::quick() },
        "paper" => ChaosConfig { chiplets: vec![1, 2, 4], ..ChaosConfig::default() },
        other => panic!("LTS_EFFORT must be `quick` or `paper`, got `{other}`"),
    };
    println!("=== Learn-to-Scale reproduction: chaos soak (online fault recovery) ===");
    println!(
        "(effort: {effort}, {} cores, packages {:?}, {} trials/strategy, ≤{} faults × ≤{} deaths \
         each, seed {})\n",
        config.cores,
        config.chiplets,
        config.trials,
        config.max_faults,
        config.max_dead_per_fault,
        config.seed
    );

    simcache::reset();
    let rows = chaos_soak(&config).expect("chaos soak");
    let mut violations = 0usize;
    println!(
        "{:<12} {:>5} {:>5} {:>8}  {:<28} {:>12} {:>9} {:>8} {:>9}",
        "strategy", "trial", "chips", "class", "schedule", "outcome", "overhead", "lost", "detect"
    );
    for r in &rows {
        let schedule = if r.fault_class == "seam" {
            format!("seam {}~{}", r.dead_chiplets[0], r.dead_chiplets[1])
        } else {
            r.faults
                .iter()
                .map(|f| format!("L{}-{:?}", f.layer, f.dead))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{:<12} {:>5} {:>5} {:>8}  {:<28} {:>12} {:>9} {:>8} {:>9}",
            r.strategy,
            r.trial,
            r.chiplets,
            r.fault_class,
            schedule,
            r.outcome,
            if r.outcome.is_success() {
                format!("{:.3}x", r.overhead_vs_fault_free)
            } else {
                "-".into()
            },
            format!("{:.3}", r.lost_output_fraction),
            if r.outcome.is_success() { r.detection_cycles.to_string() } else { "-".into() },
        );
        // Seam severings are static ride-throughs: success is `served`.
        // Everything else must recover or fail with a typed outcome.
        let allowed = if r.fault_class == "seam" {
            matches!(r.outcome, Outcome::Served | Outcome::Unreachable | Outcome::CycleLimit)
        } else {
            matches!(r.outcome, Outcome::Recovered | Outcome::Unreachable | Outcome::CycleLimit)
        };
        if !(0.0..=1.0).contains(&r.lost_output_fraction) || !allowed {
            violations += 1;
        }
    }
    println!();
    for &chiplets in &config.chiplets {
        let per_topo: Vec<ChaosRow> =
            rows.iter().filter(|r| r.chiplets == chiplets).cloned().collect();
        let histogram = outcome_histogram(&per_topo);
        let label =
            if chiplets == 1 { "single-chip mesh".into() } else { format!("{chiplets}-chiplet") };
        println!("outcomes [{label}]: {}", histogram.render());
    }
    println!("aggregate outcomes: {}", outcome_histogram(&rows).render());
    println!();
    println!("Mesh trials kill cores mid-inference; the system detects the deaths via");
    println!("heartbeat deadlines, reshards the remaining layers over the survivors, and");
    println!("finishes on the degraded mesh. `overhead` is latency vs the fault-free run;");
    println!("`lost` is the bounded output-loss fraction: the in-flight boundary units that");
    println!("died with their cores (any strategy), plus — for grouped plans only — the");
    println!("output channels whose pinned weight chains died (permanent accuracy loss).");
    println!("MCM trials alternate whole-chiplet deaths (hierarchical detection, then the");
    println!("pipeline restages on the survivor chiplets) with interposer-seam severings");
    println!("(static ride-through on the healthy stage plan, `served` when the NoC");
    println!("reroutes around the dead seam).");
    println!();
    let mut sim = SimUsage::default();
    for r in &rows {
        sim.merge(&r.sim);
    }
    // The workloads run in parallel, and two workers that miss one key
    // at once both count a miss, so the process-global hit/miss split
    // depends on `LTS_THREADS`; the count of distinct entries does not.
    println!(
        "sim usage: {} transitions simulated, {} answered from cache ({} cache entries); {} \
         cycles stepped, {} fast-forwarded",
        sim.sims,
        sim.cache_hits,
        simcache::stats().entries,
        sim.cycles_simulated,
        sim.cycles_fast_forwarded
    );

    if violations > 0 {
        eprintln!("chaos soak: {violations} trial(s) violated the bounded-loss contract");
        std::process::exit(1);
    }
}
