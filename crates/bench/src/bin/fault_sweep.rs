//! Regenerates the **fault-injection degradation sweep** (robustness
//! extension): fault rate × core failures over the three
//! parallelization strategies, on the paper's 16-core mesh.
//!
//! No training is involved, so the sweep is cheap at either effort
//! level; `LTS_EFFORT=quick` trims the grid. Run:
//! `cargo run --release -p lts-bench --bin fault_sweep`
//!
//! Results are bit-reproducible at any `LTS_THREADS`: fault schedules
//! are stateless hash draws and the NoC simulator is single-threaded.

use lts_core::degradation::{fault_sweep, FaultSweepConfig};
use lts_core::report::render_fault_sweep;
use lts_core::simcache::{self, SimUsage};

fn main() {
    let effort = std::env::var("LTS_EFFORT").unwrap_or_else(|_| "paper".into());
    let config = match effort.as_str() {
        "quick" => FaultSweepConfig::quick(),
        "paper" => FaultSweepConfig::default(),
        other => panic!("LTS_EFFORT must be `quick` or `paper`, got `{other}`"),
    };
    println!("=== Learn-to-Scale reproduction: fault-injection degradation sweep ===");
    println!(
        "(effort: {effort}, {} cores, drop rates {:?}, dead-core sets {:?}, seed {})\n",
        config.cores, config.fault_rates, config.dead_core_sets, config.seed
    );

    simcache::reset();
    let rows = fault_sweep(&config).expect("fault sweep");
    println!("{}", render_fault_sweep(&rows));
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
    println!();
    println!("Latency/energy are relative to the same strategy on the fault-free chip.");
    println!("`Lost out.` is the accuracy proxy: output channels that died with their core");
    println!("(nonzero only for the grouped structure-level plan — its channel groups");
    println!("pin weights and activations to one core; dense plans re-shard losslessly).");
}
