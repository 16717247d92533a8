//! **Extension experiment**: the §I throughput-vs-latency distinction,
//! with the §II-B alternative between its two ends.
//! Data-level parallelism (one independent inference per core, the
//! DaDianNao/TPU service model) maximizes throughput but does nothing for
//! single-inference latency; the paper's model parallelism trades some
//! aggregate throughput for much lower latency — the QoS metric embedded
//! systems care about. Inter-layer pipelining (contiguous layer stages,
//! one per core) keeps the single-core latency, and its throughput is
//! gated by the slowest stage: the load imbalance the paper objects to.
//! Its transfers between stages are not charged, so its latency is a
//! lower bound.
//!
//! Analytic + simulation, no training. Run:
//! `cargo run --release -p lts-bench --bin extension_throughput_latency`.

use lts_bench::banner;
use lts_core::experiment::{parallelism_tradeoff, EffortPreset};
use lts_nn::descriptor::{alexnet_spec, lenet_spec};

fn main() {
    banner(
        "Extension — data vs layer-pipeline vs model parallelism (16 cores)",
        &EffortPreset::paper(),
    );
    for spec in [lenet_spec(), alexnet_spec()] {
        println!("{}:", spec.name);
        let rows = parallelism_tradeoff(&spec, 16).expect("tradeoff experiment");
        for r in &rows {
            let imbalance =
                r.imbalance.map_or_else(String::new, |x| format!("   load imbalance {x:.2}x"));
            println!(
                "  {:<26} latency {:>9} cycles   throughput {:>8.2} inf/Mcycle{imbalance}",
                r.mode, r.latency_cycles, r.throughput_per_mcycle
            );
        }
        let (data, pipe, model) = (&rows[0], &rows[1], &rows[2]);
        let latency_gain = data.latency_cycles as f64 / model.latency_cycles as f64;
        let throughput_cost = data.throughput_per_mcycle / model.throughput_per_mcycle;
        println!(
            "  -> model parallelism answers {latency_gain:.1}x sooner at {throughput_cost:.1}x lower peak throughput"
        );
        println!(
            "  -> the layer pipeline keeps one core's latency (a lower bound: stage transfers are \
             free here), and its slowest stage runs {:.2}x above the mean\n",
            pipe.imbalance.unwrap_or(0.0)
        );
    }
    println!("This is why the paper's communication optimizations matter: they close");
    println!("the throughput gap of model parallelism without giving up its latency.");
}
