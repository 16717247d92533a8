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
//! `LTS_EFFORT=quick` trims the soak to a smoke test.
//! Writes `BENCH_chaos_soak.json` into `LTS_BENCH_DIR` (default: the
//! current directory). Run:
//! `cargo run --release -p lts-bench --bin chaos_soak`
//!
//! Results are bit-reproducible at any `LTS_THREADS`: schedules are
//! stateless hash draws and the NoC simulator is single-threaded.

use lts_core::chaos::{chaos_soak, outcome_histogram, ChaosConfig, ChaosRow};
use lts_core::simcache::{self, SimCacheStats, SimUsage};
use lts_core::Outcome;
use serde::Serialize;

#[derive(Serialize)]
struct SoakArtifact {
    bench: String,
    effort: String,
    threads: usize,
    config: ChaosConfig,
    rows: Vec<ChaosRow>,
    sim: SimUsage,
    sim_cache: SimCacheStats,
}

fn main() {
    lts_obs::enable_from_env();
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
    let sim_cache = simcache::stats();
    println!(
        "sim usage: {} transitions simulated, {} answered from cache ({} cache hits / {} \
         misses); {} cycles stepped, {} fast-forwarded",
        sim.sims,
        sim.cache_hits,
        sim_cache.hits,
        sim_cache.misses,
        sim.cycles_simulated,
        sim.cycles_fast_forwarded
    );

    let artifact = SoakArtifact {
        bench: "chaos_soak".into(),
        effort,
        threads: lts_tensor::par::current().threads(),
        config,
        rows,
        sim,
        sim_cache,
    };
    let dir = std::env::var("LTS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join("BENCH_chaos_soak.json");
    let json = serde_json::to_string_pretty(&artifact).expect("serialize soak");
    std::fs::write(&path, json + "\n").expect("write soak artifact");
    println!("\nwrote {}", path.display());

    if violations > 0 {
        eprintln!("chaos soak: {violations} trial(s) violated the bounded-loss contract");
        std::process::exit(1);
    }
}
