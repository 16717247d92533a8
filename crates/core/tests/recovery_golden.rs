//! Golden recovery fingerprints: pinned text summaries of online
//! recovery runs on a flat 16-core mesh and on a 4-chiplet package, and
//! of serving runs that ride through a core death and a chiplet death,
//! in flight and on an idle server, and of two fault-free streams whose
//! batches replay staggered entry bursts on several rungs of the ladder.
//!
//! The chaos and determinism tests compare two runs inside one process;
//! these pin the numbers across commits, so a refactor of the replan or
//! recovery path that moves any cycle, byte, energy or event trips them.
//! Only the adapters below (`flat`, `chiplets` and `recover`) name the recovery
//! entry points; the fingerprints themselves never change.
//!
//! Cross-sweep simulation-cache usage (`sim`) is excluded: it depends on
//! what other tests in the process have already simulated.
//!
//! To re-capture (only legitimate after an *intentional* semantic
//! change): `LTS_GOLDEN_CAPTURE=1 cargo test -p lts-core --test
//! recovery_golden -- --nocapture` and paste the printed fingerprints.

use lts_core::recovery::{run_with_recovery, InferenceFault};
use lts_core::{
    chiplet_stream_fault, run_serving, ArrivalConfig, ArrivalProcess, ControllerConfig,
    RecoveryReport, ServingConfig, ServingReport, StreamFault, SystemModel, SystemReport,
};
use lts_nn::descriptor::{convnet_spec, lenet_spec, NetworkSpec};
use lts_noc::MonitorConfig;
use lts_partition::{FailureDomain, McmPlan};
use std::collections::HashMap;

/// Mid-inference core deaths on `SystemModel::paper(16)`: one
/// `(layer, dead cores)` pair per fault.
fn flat(spec: &NetworkSpec, faults: &[(usize, &[usize])]) -> RecoveryReport {
    let model = SystemModel::paper(16).expect("model");
    recover(&model, &FailureDomain::Cores(16), spec, faults)
}

/// Mid-inference chiplet deaths on `SystemModel::paper_mcm(4, 4)`: one
/// `(layer, dead chiplets)` pair per fault.
fn chiplets(spec: &NetworkSpec, faults: &[(usize, &[usize])]) -> RecoveryReport {
    let model = SystemModel::paper_mcm(4, 4).expect("model");
    let lts_noc::Topo::Mcm(topo) = model.noc_config().topo() else {
        panic!("paper_mcm is a package");
    };
    recover(&model, &FailureDomain::Chiplets(topo), spec, faults)
}

fn recover(
    model: &SystemModel,
    domain: &FailureDomain,
    spec: &NetworkSpec,
    faults: &[(usize, &[usize])],
) -> RecoveryReport {
    let faults: Vec<InferenceFault> =
        faults.iter().map(|&(layer, dead)| InferenceFault { layer, dead: dead.to_vec() }).collect();
    run_with_recovery(model, domain, spec, &HashMap::new(), &faults, &MonitorConfig::default())
        .expect("recovery")
}

/// FNV-1a over a text dump: pins every field without a page-long
/// constant.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A report's `Debug` text with its cleared cache usage rendered as it was
/// when the hashes were pinned, before [`lts_core::simcache::SimUsage`]
/// counted replicated cycles.
fn without_usage(debug: &str) -> String {
    debug.replace(", cycles_replicated: 0 }", " }")
}

/// Totals in clear text plus a hash of the full report, cache usage
/// cleared.
fn system(r: &SystemReport) -> String {
    let mut r = r.clone();
    r.sim = Default::default();
    format!(
        "total={} layers={} fnv={:016x}",
        r.total_cycles,
        r.layers.len(),
        fnv(&without_usage(&format!("{r:?}")))
    )
}

fn recovery(r: &RecoveryReport) -> String {
    let events: Vec<String> = r
        .events
        .iter()
        .map(|e| {
            format!(
                "@{} dead={:?} died={} detect={} resync={}B/{}f/{}c lost={}/{} live={}",
                e.layer,
                e.dead_cores,
                e.died_at,
                e.detection_cycles,
                e.redistribution_bytes,
                e.redistribution_flits,
                e.redistribution_cycles,
                e.lost_boundary_units,
                e.boundary_units,
                e.survivors
            )
        })
        .collect();
    format!(
        "run[{}] free[{}] oracle[{}] events[{}] dead={:?} lost={:?}/{:?}",
        system(&r.report),
        system(&r.fault_free),
        r.oracle.as_ref().map_or("none".into(), system),
        events.join("; "),
        r.dead_cores,
        r.lost_output_fraction,
        r.lost_boundary_fraction
    )
}

fn serving(r: &ServingReport) -> String {
    let mut r = r.clone();
    r.sim = Default::default();
    let recoveries: Vec<String> = r
        .recoveries
        .iter()
        .map(|e| {
            format!(
                "@{} in_flight={} detect={} overhead={}",
                e.at_cycle, e.in_flight, e.detection_cycles, e.overhead_cycles
            )
        })
        .collect();
    format!(
        "outcomes={:?} p99={} batches={} recoveries[{}] fnv={:016x}",
        r.outcomes,
        r.latency.p99,
        r.batches.len(),
        recoveries.join("; "),
        fnv(&without_usage(&format!("{r:?}")))
    )
}

fn check(label: &str, got: &str, pinned: &str) {
    if std::env::var("LTS_GOLDEN_CAPTURE").is_ok() {
        println!("GOLDEN {label}: {got}");
        return;
    }
    assert_eq!(got, pinned, "{label} recovery fingerprint drifted");
}

#[test]
fn flat_lenet_recoveries_match_their_fingerprints() {
    let spec = lenet_spec();
    let n = spec.layers.len();
    check("lenet layer-0", &recovery(&flat(&spec, &[(0, &[7])])), "run[total=6032 layers=9 fnv=2b3822c8a195bddc] free[total=4654 layers=8 fnv=7cb36cc3636b4f60] oracle[total=5243 layers=8 fnv=91ce0bc9f93a79fa] events[@0 dead=[7] died=0 detect=789 resync=0B/0f/0c lost=0/0 live=15] dead=[7] lost=0.0/0.0");
    check("lenet mid", &recovery(&flat(&spec, &[(3, &[5])])), "run[total=5655 layers=9 fnv=90a8ca1a45b77095] free[total=4654 layers=8 fnv=7cb36cc3636b4f60] oracle[total=5048 layers=8 fnv=7c482999bf90aaa7] events[@3 dead=[5] died=4137 detect=740 resync=384B/6f/64c lost=3/50 live=15] dead=[5] lost=0.0/0.06");
    check("lenet stacked", &recovery(&flat(&spec, &[(2, &[3]), (5, &[11, 3])])), "run[total=6157 layers=10 fnv=d01aa5ed0037d01c] free[total=4654 layers=8 fnv=7cb36cc3636b4f60] oracle[total=5180 layers=8 fnv=506e8192ff43bf6c] events[@2 dead=[3] died=1224 detect=585 resync=288B/5f/38c lost=2/20 live=15; @5 dead=[11] died=4835 detect=566 resync=396B/13f/55c lost=48/800 live=14] dead=[3, 11] lost=0.0/0.1");
    check("lenet last", &recovery(&flat(&spec, &[(n, &[9, 2])])), "run[total=5448 layers=9 fnv=cc141a3c48b46824] free[total=4654 layers=8 fnv=7cb36cc3636b4f60] oracle[total=5437 layers=8 fnv=6f4c62e91204771d] events[@8 dead=[2, 9] died=4654 detect=739 resync=12B/6f/55c lost=2/10 live=14] dead=[2, 9] lost=0.0/0.2");
}

#[test]
fn flat_convnet_recoveries_match_their_fingerprints() {
    let spec = convnet_spec();
    let n = spec.layers.len();
    check("convnet layer-0", &recovery(&flat(&spec, &[(0, &[7])])), "run[total=27051 layers=13 fnv=2d4d860ab2c30b5f] free[total=25002 layers=12 fnv=c3b6cc8d447a2d3b] oracle[total=26262 layers=12 fnv=79e45e21b44cb5a2] events[@0 dead=[7] died=0 detect=789 resync=0B/0f/0c lost=0/0 live=15] dead=[7] lost=0.0/0.0");
    check("convnet mid", &recovery(&flat(&spec, &[(4, &[5, 10])])), "run[total=26298 layers=13 fnv=5407a2f38b281074] free[total=25002 layers=12 fnv=c3b6cc8d447a2d3b] oracle[total=26883 layers=12 fnv=6b292826d85b0e4c] events[@4 dead=[5, 10] died=20679 detect=590 resync=7680B/120f/165c lost=4/32 live=14] dead=[5, 10] lost=0.0/0.125");
    check("convnet stacked", &recovery(&flat(&spec, &[(2, &[3]), (2, &[6]), (7, &[12, 3])])), "run[total=25413 layers=15 fnv=0ad5b3eb9885a25b] free[total=25002 layers=12 fnv=c3b6cc8d447a2d3b] oracle[total=27727 layers=12 fnv=a0f868ae605652e7] events[@2 dead=[3] died=5408 detect=753 resync=1536B/24f/79c lost=2/32 live=15; @2 dead=[6] died=6240 detect=689 resync=0B/0f/0c lost=0/0 live=14; @7 dead=[12] died=24044 detect=549 resync=256B/4f/23c lost=4/64 live=13] dead=[3, 6, 12] lost=0.0/0.0625");
    check("convnet last", &recovery(&flat(&spec, &[(n, &[0])])), "run[total=25660 layers=13 fnv=8cd6c7b5181e2b20] free[total=25002 layers=12 fnv=c3b6cc8d447a2d3b] oracle[total=25317 layers=12 fnv=c61cf3dba97e6e81] events[@12 dead=[0] died=25002 detect=603 resync=18B/9f/55c lost=1/10 live=15] dead=[0] lost=0.0/0.1");
}

#[test]
fn chiplet_recoveries_match_their_fingerprints() {
    let pinned = [
        (
            lenet_spec(),
            "lenet",
            [
                "run[total=5835 layers=9 fnv=820b96d1c4fb4b56] free[total=5055 layers=8 fnv=c16def52cbbd37e0] oracle[total=5507 layers=8 fnv=c2644e765669c30e] events[@3 dead=[2, 3, 6, 7] died=4202 detect=686 resync=0B/0f/0c lost=50/50 live=12] dead=[2, 3, 6, 7] lost=0.0/1.0",
                "run[total=5625 layers=9 fnv=06f6ad926395a942] free[total=5055 layers=8 fnv=c16def52cbbd37e0] oracle[total=4972 layers=8 fnv=93c37eb8711fb9ba] events[@1 dead=[0, 1, 4, 5] died=1152 detect=653 resync=0B/0f/0c lost=20/20 live=12] dead=[0, 1, 4, 5] lost=0.0/1.0",
                "run[total=6134 layers=10 fnv=87f8ac61aa4b5df4] free[total=5055 layers=8 fnv=c16def52cbbd37e0] oracle[total=4691 layers=8 fnv=8d4d0b0318d20f4b] events[@2 dead=[10, 11, 14, 15] died=1332 detect=751 resync=0B/0f/0c lost=0/20 live=12; @4 dead=[2, 3, 6, 7] died=4675 detect=725 resync=0B/0f/0c lost=0/50 live=8] dead=[2, 3, 6, 7, 10, 11, 14, 15] lost=0.0/0.0",
            ],
        ),
        (
            convnet_spec(),
            "convnet",
            [
                "run[total=26319 layers=13 fnv=723a69f05eaebe82] free[total=26468 layers=12 fnv=e58bcb5068d6d85c] oracle[total=27392 layers=12 fnv=9db800b0fe098391] events[@3 dead=[2, 3, 6, 7] died=6400 detect=536 resync=0B/0f/0c lost=0/32 live=12] dead=[2, 3, 6, 7] lost=0.0/0.0",
                "run[total=26846 layers=13 fnv=e79a696a5739328c] free[total=26468 layers=12 fnv=e58bcb5068d6d85c] oracle[total=26321 layers=12 fnv=880a06dc67ba4c6f] events[@1 dead=[0, 1, 4, 5] died=5120 detect=525 resync=0B/0f/0c lost=32/32 live=12] dead=[0, 1, 4, 5] lost=0.0/1.0",
                "run[total=27624 layers=14 fnv=a63553f0de1164cf] free[total=26468 layers=12 fnv=e58bcb5068d6d85c] oracle[total=25390 layers=12 fnv=f1946b04ebe78482] events[@2 dead=[10, 11, 14, 15] died=6272 detect=675 resync=0B/0f/0c lost=0/32 live=12; @4 dead=[2, 3, 6, 7] died=22389 detect=675 resync=0B/0f/0c lost=32/32 live=8] dead=[2, 3, 6, 7, 10, 11, 14, 15] lost=0.0/1.0",
            ],
        ),
    ];
    for (spec, name, [single, dead_producer, stacked]) in pinned {
        // The chiplet holding layer 0's output: killing it before layer 1
        // orphans the whole boundary.
        let model = SystemModel::paper_mcm(4, 4).expect("model");
        let lts_noc::Topo::Mcm(topo) = model.noc_config().topo() else {
            panic!("paper_mcm is a package");
        };
        let healthy = McmPlan::build(&spec, &topo, &HashMap::new(), 2).expect("plan");
        let producer = healthy.chiplet_of_layer(0).expect("layer 0 is placed");
        check(&format!("{name} chiplet"), &recovery(&chiplets(&spec, &[(3, &[1])])), single);
        check(
            &format!("{name} producer death"),
            &recovery(&chiplets(&spec, &[(1, &[producer])])),
            dead_producer,
        );
        check(
            &format!("{name} stacked chiplets"),
            &recovery(&chiplets(&spec, &[(2, &[3]), (4, &[1, 3])])),
            stacked,
        );
    }
}

/// A Poisson stream at 30 requests per megacycle with a death a fifth of
/// the way in.
fn serve_config(chiplets: usize) -> ServingConfig {
    ServingConfig {
        chiplets,
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_rpmc: 30.0 },
            horizon_cycles: 5_000_000,
            seed: 11,
        },
        max_batch: 4,
        ..ServingConfig::default()
    }
}

#[test]
fn serving_through_deaths_matches_its_fingerprints() {
    let mut core = serve_config(1);
    core.faults = vec![StreamFault { at_cycle: 1_000_000, dead_cores: vec![5] }];
    check("serve core-5 death", &serving(&run_serving(&core).expect("serve")), "outcomes=OutcomeHistogram { served: 140, recovered: 2, shed: 4, deadline_miss: 1, unreachable: 0, cycle_limit: 0 } p99=72727 batches=110 recoveries[@1000000 in_flight=3 detect=534 overhead=791] fnv=995cceb1f2acf0a8");

    let mut package = serve_config(2);
    package.faults = vec![chiplet_stream_fault(&package, 1, 1_000_000).expect("fault")];
    check("serve chiplet-1 death", &serving(&run_serving(&package).expect("serve")), "outcomes=OutcomeHistogram { served: 132, recovered: 1, shed: 13, deadline_miss: 1, unreachable: 0, cycle_limit: 0 } p99=71812 batches=112 recoveries[@1000000 in_flight=2 detect=769 overhead=419] fnv=f53f4c7ef0faab54");

    // Deaths before the first arrival strike an idle server: a detection
    // stall and a profile rebuild, no in-flight recovery.
    core.faults[0].at_cycle = 1;
    check("serve idle core-5 death", &serving(&run_serving(&core).expect("serve")), "outcomes=OutcomeHistogram { served: 142, recovered: 0, shed: 5, deadline_miss: 0, unreachable: 0, cycle_limit: 0 } p99=72727 batches=110 recoveries[@1 in_flight=0 detect=780 overhead=780] fnv=606be72e0940d404");
    package.faults[0].at_cycle = 1;
    check("serve idle chiplet-1 death", &serving(&run_serving(&package).expect("serve")), "outcomes=OutcomeHistogram { served: 134, recovered: 0, shed: 13, deadline_miss: 0, unreachable: 0, cycle_limit: 0 } p99=73288 batches=112 recoveries[@1 in_flight=0 detect=815 overhead=815] fnv=9be41581a1c98deb");
}

/// A fault-free stream on `SystemModel::paper(16)` with batches of up to
/// four requests.
fn stream(process: ArrivalProcess, controller: Option<ControllerConfig>) -> ServingConfig {
    ServingConfig {
        arrivals: ArrivalConfig { process, horizon_cycles: 5_000_000, seed: 23 },
        max_batch: 4,
        controller,
        ..ServingConfig::default()
    }
}

#[test]
fn fault_free_serving_matches_its_fingerprints() {
    // Above saturation on the traditional rung: the queue stays deep, so
    // batches of two, three and four requests all form.
    let overload = stream(ArrivalProcess::Poisson { rate_rpmc: 55.0 }, None);
    let r = run_serving(&overload).expect("serve");
    assert!((2..=4).all(|size| r.batches.iter().any(|b| b.size == size)));
    check("serve overload", &serving(&r), "outcomes=OutcomeHistogram { served: 217, recovered: 0, shed: 33, deadline_miss: 0, unreachable: 0, cycle_limit: 0 } p99=74793 batches=124 recoveries[] fnv=3abd0716e6b7091e");

    // Bursts overload the traditional rung, so the controller walks the
    // ladder and back.
    let burst =
        ArrivalProcess::Burst { base_rpmc: 20.0, burst_rpmc: 80.0, mean_dwell_cycles: 1_000_000 };
    let r = run_serving(&stream(burst, Some(ControllerConfig::default()))).expect("serve");
    assert!(r.controller_events.len() >= 3, "the controller must climb past one rung");
    check("serve burst controller", &serving(&r), "outcomes=OutcomeHistogram { served: 128, recovered: 0, shed: 9, deadline_miss: 0, unreachable: 0, cycle_limit: 0 } p99=72313 batches=100 recoveries[] fnv=898e44c53c3d957e");
}
