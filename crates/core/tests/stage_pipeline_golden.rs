//! Golden stage-pipeline fingerprints: one clear-text line per row of
//! every caller that cuts a network into contiguous stages and derives a
//! pipeline interval and latency from them — the MCM scaling sweep, the
//! data/model parallelism tradeoff and the serving profiles.
//!
//! These pin every measured number across commits, so a refactor of the
//! stage arithmetic that moves any cycle, ratio or energy trips them.
//! Floats print with `{:?}`, so the pins are exact. Only the adapters
//! below (`mcm`, `tradeoff` and `serving`) name the API; the pinned lines
//! never change.
//!
//! Simulation-cache usage is excluded: it depends on what other tests in
//! the process have already simulated.
//!
//! To re-capture (only legitimate after an *intentional* semantic
//! change): `LTS_GOLDEN_CAPTURE=1 cargo test -p lts-core --test
//! stage_pipeline_golden -- --nocapture` and paste the printed lines.

use lts_core::serve::{chiplet_stream_fault, service_capacity_rpmc};
use lts_core::{
    run_serving, scale_chiplets, ArrivalConfig, ArrivalProcess, ServingConfig, StreamFault,
};
use lts_nn::descriptor::{alexnet_spec, convnet_spec, lenet_spec, mlp_spec};
use std::collections::HashMap;

/// The `mcm_scaling` quick sweep: 1 and 2 chiplets of 16 cores.
fn mcm() -> Vec<String> {
    [mlp_spec(), lenet_spec(), convnet_spec()]
        .iter()
        .flat_map(|spec| {
            let rows = scale_chiplets(spec, &HashMap::new(), 16, &[1, 2]).expect("mcm sweep");
            rows.into_iter().map(move |r| {
                format!(
                    "{} chiplets={} cores={} stages={} latency={} interval={} pipelined={:?} \
                     replicated={:?} throughput={:?} mode={:?} intra={} inter={} noc_pj={:?} \
                     compute_pj={:?}",
                    spec.name,
                    r.chiplets,
                    r.cores_per_chiplet,
                    r.stages,
                    r.latency_cycles,
                    r.interval_cycles,
                    r.pipelined_ipmc,
                    r.replicated_ipmc,
                    r.throughput_ipmc,
                    r.mode,
                    r.intra_chip_traversals,
                    r.inter_chip_traversals,
                    r.noc_energy_pj,
                    r.compute_energy_pj
                )
            })
        })
        .collect()
}

/// The `paper_tables tradeoff` rows on 16 cores: the data and
/// model rows (`layer_pipeline == false`) or the layer-pipeline rows,
/// which add their load imbalance.
fn tradeoff(layer_pipeline: bool) -> Vec<String> {
    [lenet_spec(), alexnet_spec()]
        .iter()
        .flat_map(|spec| {
            let rows = lts_core::experiment::parallelism_tradeoff(spec, 16).expect("tradeoff");
            rows.into_iter().filter(move |r| r.imbalance.is_some() == layer_pipeline).map(
                move |r| {
                    let line = format!(
                        "{} {} latency={} throughput={:?}",
                        spec.name, r.mode, r.latency_cycles, r.throughput_per_mcycle
                    );
                    match r.imbalance {
                        Some(x) => format!("{line} imbalance={x:?}"),
                        None => line,
                    }
                },
            )
        })
        .collect()
}

/// Saturated capacity and per-strategy pipeline shape of the
/// `serving_sweep` cell shapes: a chip and a 2-chiplet package, healthy,
/// plus a chip that loses core 5 and a 4-chiplet package that loses
/// chiplet 2 mid-stream, whose final profiles are the degraded ones.
fn serving() -> Vec<String> {
    let chip = ServingConfig { max_batch: 4, ..ServingConfig::default() };
    let package = ServingConfig { chiplets: 2, ..chip.clone() };
    let dead_core = ServingConfig {
        faults: vec![StreamFault { at_cycle: 200_000, dead_cores: vec![5] }],
        ..chip.clone()
    };
    let mut lost_chiplet = ServingConfig { cores: 4, chiplets: 4, ..chip.clone() };
    lost_chiplet.faults = vec![chiplet_stream_fault(&lost_chiplet, 2, 200_000).expect("fault")];
    [("chip", chip), ("2-chiplet", package), ("chip-dead5", dead_core), ("4x4-lose2", lost_chiplet)]
        .into_iter()
        .flat_map(|(label, mut config)| {
            let capacity = service_capacity_rpmc(&config).expect("capacity");
            config.arrivals = ArrivalConfig {
                process: ArrivalProcess::Poisson { rate_rpmc: capacity * 0.5 },
                horizon_cycles: 400_000,
                seed: 2019,
            };
            let report = run_serving(&config).expect("serving run");
            std::iter::once(format!("{label} capacity={capacity:?}")).chain(
                report.strategies.into_iter().map(move |s| {
                    format!(
                        "{label} {} latency={} interval={} stages={} occupancy={:?}",
                        s.strategy.label(),
                        s.latency_cycles,
                        s.interval_cycles,
                        s.stages,
                        s.min_stage_occupancy
                    )
                }),
            )
        })
        .collect()
}

fn check(label: &str, got: &[String], pinned: &str) {
    if std::env::var("LTS_GOLDEN_CAPTURE").is_ok() {
        println!("GOLDEN {label}:\n{}", got.join("\n"));
        return;
    }
    let pinned: Vec<&str> = pinned.lines().collect();
    for (i, (got, pinned)) in got.iter().zip(&pinned).enumerate() {
        assert_eq!(got, pinned, "{label} row {i} drifted");
    }
    assert_eq!(got.len(), pinned.len(), "{label} row count drifted");
}

#[test]
fn mcm_scaling_rows_match_their_fingerprints() {
    check("mcm", &mcm(), MCM);
}

#[test]
fn parallelism_tradeoff_rows_match_their_fingerprints() {
    check("tradeoff", &tradeoff(false), TRADEOFF);
    check("layer pipeline", &tradeoff(true), LAYER_PIPELINE);
}

#[test]
fn serving_profiles_match_their_fingerprints() {
    check("serving", &serving(), SERVING);
}

const MCM: &str = "\
MLP chiplets=1 cores=16 stages=1 latency=442 interval=442 pipelined=2262.443438914027 replicated=2262.443438914027 throughput=2262.443438914027 mode=Replicated intra=1032 inter=0 noc_pj=13819.5 compute_pj=429772.48000000004
MLP chiplets=2 cores=16 stages=2 latency=578 interval=478 pipelined=2092.050209205021 replicated=4524.886877828054 throughput=4524.886877828054 mode=Replicated intra=1480 inter=256 noc_pj=111696.40000000001 compute_pj=429772.48000000004
LeNet chiplets=1 cores=16 stages=1 latency=4654 interval=4654 pipelined=214.86892995272885 replicated=214.86892995272885 throughput=214.86892995272885 mode=Replicated intra=5576 inter=0 noc_pj=72105.5 compute_pj=1465332.6400000004
LeNet chiplets=2 cores=16 stages=2 latency=4872 interval=4153 pipelined=240.78979051288226 replicated=429.7378599054577 throughput=429.7378599054577 mode=Replicated intra=6472 inter=512 noc_pj=277650.1 compute_pj=1465332.6400000004
ConvNet chiplets=1 cores=16 stages=1 latency=25002 interval=25002 pipelined=39.99680025597952 replicated=39.99680025597952 throughput=39.99680025597952 mode=Replicated intra=14472 inter=0 noc_pj=189403.49999999997 compute_pj=7513171.520000001
ConvNet chiplets=2 cores=16 stages=2 latency=25352 interval=20783 pipelined=48.11624885723909 replicated=79.99360051195904 throughput=79.99360051195904 mode=Replicated intra=16264 inter=1024 noc_pj=611846.5000000001 compute_pj=7513171.520000001
";

const TRADEOFF: &str = "\
LeNet data (1 net/core) latency=13080 throughput=1223.2415902140672
LeNet model (16-way split) latency=4654 throughput=214.86892995272885
AlexNet data (1 net/core) latency=4550422 throughput=3.5161574025442035
AlexNet model (16-way split) latency=455147 throughput=2.1970923679602414
";

const SERVING: &str = "\
chip capacity=56.313440610437695
chip Traditional latency=25002 interval=15343 stages=4 occupancy=1.0
chip Structure latency=7311 interval=5440 stages=4 occupancy=1.0
chip SS latency=23203 interval=14010 stages=4 occupancy=1.0
chip SS_Mask latency=22178 interval=13259 stages=4 occupancy=1.0
2-chiplet capacity=45.609514144650575
2-chiplet Traditional latency=25352 interval=20783 stages=2 occupancy=1.0
2-chiplet Structure latency=7532 interval=5440 stages=2 occupancy=1.0
2-chiplet SS latency=23457 interval=19450 stages=2 occupancy=1.0
2-chiplet SS_Mask latency=22379 interval=18699 stages=2 occupancy=1.0
chip-dead5 capacity=56.313440610437695
chip-dead5 Traditional latency=26205 interval=16107 stages=4 occupancy=1.0
chip-dead5 Structure latency=7726 interval=5600 stages=4 occupancy=1.0
chip-dead5 SS latency=24587 interval=14832 stages=4 occupancy=1.0
chip-dead5 SS_Mask latency=22831 interval=13541 stages=4 occupancy=1.0
4x4-lose2 capacity=54.30503136115561
4x4-lose2 Traditional latency=26381 interval=15730 stages=3 occupancy=1.0
4x4-lose2 Structure latency=11834 interval=6400 stages=3 occupancy=1.0
4x4-lose2 SS latency=24348 interval=14184 stages=3 occupancy=1.0
4x4-lose2 SS_Mask latency=25127 interval=14716 stages=3 occupancy=1.0
";

const LAYER_PIPELINE: &str = "\
LeNet layer pipeline (4 stages) latency=13080 throughput=119.16110581506196 imbalance=2.5663608562691134
AlexNet layer pipeline (8 stages) latency=4550422 throughput=0.5600358422939068 imbalance=3.139225328991465
";
