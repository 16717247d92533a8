//! **Extension experiment**: multi-chip-module throughput scaling.
//! Sweeps 1 → 8 chiplets (each a Table II 16-core mesh, joined by
//! interposer links) over the Table III/IV benchmark networks, pitting
//! the stage-pipelined schedule against whole-network replication, and
//! emits `BENCH_mcm.json` with per-hop-class (intra- vs inter-chip)
//! traversal and energy accounting plus simcache hit/miss totals.
//!
//! Analytic + simulation, no training. Run:
//! `cargo run --release -p lts-bench --bin mcm_scaling`
//! (`LTS_MCM_MAX_CHIPLETS=2` caps the sweep for a smoke pass).
//!
//! # Panics
//!
//! Panics when throughput fails to scale monotonically with the chiplet
//! count — that is the experiment's acceptance invariant.

use lts_bench::timing::{iters_from_env, time, BenchReport};
use lts_bench::{banner, effort_from_env};
use lts_core::{scale_chiplets, McmScalingRow};
use lts_nn::descriptor::{convnet_spec, lenet_spec, mlp_spec};
use serde::Serialize;
use std::collections::HashMap;

/// Cores per chiplet: the paper's Table II chip.
const CORES_PER_CHIPLET: usize = 16;

/// One serialized sweep point, tagged with its network.
#[derive(Serialize)]
struct TaggedRow {
    network: String,
    row: McmScalingRow,
}

fn chiplet_counts() -> Vec<usize> {
    let max = std::env::var("LTS_MCM_MAX_CHIPLETS")
        .ok()
        .map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| panic!("LTS_MCM_MAX_CHIPLETS must be an integer, got `{v}`"))
                .max(1)
        })
        .unwrap_or(8);
    [1usize, 2, 4, 8].into_iter().filter(|&n| n <= max).collect()
}

fn main() {
    let preset = effort_from_env();
    banner("Extension — multi-chip-module throughput scaling", &preset);
    let counts = chiplet_counts();
    let mut report = BenchReport::new("mcm", if counts.len() < 4 { "quick" } else { "paper" });
    let iters = iters_from_env(2);
    lts_core::simcache::reset();

    for spec in [mlp_spec(), lenet_spec(), convnet_spec()] {
        let weights = HashMap::new();
        let mut rows = Vec::new();
        // Warmup populates the cross-sweep simcache; measured iterations
        // then show the memoized steady state.
        report.push(time(&format!("scale_chiplets/{}", spec.name), 1, iters, || {
            rows = scale_chiplets(&spec, &weights, CORES_PER_CHIPLET, &counts)
                .expect("mcm scaling sweep");
        }));
        println!(
            "  {:<10} {:>8} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "network", "chiplets", "stages", "latency", "interval", "ipmc", "intra", "inter"
        );
        for row in &rows {
            println!(
                "  {:<10} {:>8} {:>6} {:>12} {:>12} {:>12.3} {:>10} {:>10}",
                spec.name,
                row.chiplets,
                row.stages,
                row.latency_cycles,
                row.interval_cycles,
                row.throughput_ipmc,
                row.intra_chip_traversals,
                row.inter_chip_traversals
            );
            let tagged = TaggedRow { network: spec.name.clone(), row: row.clone() };
            report.notes.push(serde_json::to_string(&tagged).expect("sweep row serializes"));
        }
        for pair in rows.windows(2) {
            assert!(
                pair[1].throughput_ipmc > pair[0].throughput_ipmc,
                "{}: throughput must scale monotonically ({} -> {} chiplets)",
                spec.name,
                pair[0].chiplets,
                pair[1].chiplets
            );
        }
        println!();
    }

    let cache = lts_core::simcache::stats();
    report.note(format!(
        "simcache: {} hits / {} misses ({} entries)",
        cache.hits, cache.misses, cache.entries
    ));
    if counts.len() < 4 {
        report.note(format!("sweep capped at {:?} chiplets (LTS_MCM_MAX_CHIPLETS)", counts));
    }
    report.attach_probes();
    report.write().expect("write BENCH_mcm.json");
}
