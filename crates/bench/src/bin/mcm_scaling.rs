//! **Extension experiment**: multi-chip-module throughput scaling.
//! Sweeps 1 → 8 chiplets (each a Table II 16-core mesh, joined by
//! interposer links) over the Table III/IV benchmark networks, pitting
//! the stage-pipelined schedule against whole-network replication. Each
//! row prints both schedules' throughput and the winner, per-hop-class
//! (intra- vs inter-chip) traversals and the pipelined pass's NoC and
//! compute energy; a closing line gives simulation and simcache totals.
//!
//! Analytic + simulation, no training. `LTS_EFFORT=quick` sweeps 1 → 2
//! chiplets for a smoke pass. Run:
//! `cargo run --release -p lts-bench --bin mcm_scaling`
//!
//! # Panics
//!
//! Panics when throughput fails to scale monotonically with the chiplet
//! count — that is the experiment's acceptance invariant.

use lts_bench::{banner, effort_from_env};
use lts_core::experiment::EffortPreset;
use lts_core::scale_chiplets;
use lts_core::simcache::{self, SimUsage};
use lts_nn::descriptor::{convnet_spec, lenet_spec, mlp_spec};
use std::collections::HashMap;

/// Cores per chiplet: the paper's Table II chip.
const CORES_PER_CHIPLET: usize = 16;

fn main() {
    let quick = effort_from_env() == EffortPreset::quick();
    let counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    banner(&format!("Extension — multi-chip-module throughput scaling, {counts:?} chiplets"), None);
    simcache::reset();
    let mut sim = SimUsage::default();

    for spec in [mlp_spec(), lenet_spec(), convnet_spec()] {
        let rows = scale_chiplets(&spec, &HashMap::new(), CORES_PER_CHIPLET, counts)
            .expect("mcm scaling sweep");
        println!(
            "  {:<10} {:>8} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12} {:>10} {:>12} \
             {:>12}",
            "network",
            "chiplets",
            "stages",
            "latency",
            "interval",
            "ipmc",
            "intra",
            "inter",
            "pipe ipmc",
            "repl ipmc",
            "mode",
            "noc pJ",
            "compute pJ"
        );
        for row in &rows {
            println!(
                "  {:<10} {:>8} {:>6} {:>12} {:>12} {:>12.3} {:>10} {:>10} {:>12.3} {:>12.3} \
                 {:>10} {:>12.0} {:>12.0}",
                spec.name,
                row.chiplets,
                row.stages,
                row.latency_cycles,
                row.interval_cycles,
                row.throughput_ipmc,
                row.intra_chip_traversals,
                row.inter_chip_traversals,
                row.pipelined_ipmc,
                row.replicated_ipmc,
                format!("{:?}", row.mode),
                row.noc_energy_pj,
                row.compute_energy_pj
            );
            sim.merge(&row.sim);
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

    let cache = simcache::stats();
    println!(
        "sim usage: {} transitions simulated, {} answered from cache ({} hits / {} misses, {} \
         entries); {} cycles stepped, {} fast-forwarded, {} replicated",
        sim.sims,
        sim.cache_hits,
        cache.hits,
        cache.misses,
        cache.entries,
        sim.cycles_simulated,
        sim.cycles_fast_forwarded,
        sim.cycles_replicated
    );
}
