//! Golden simulation fingerprints, pinned from the pre-optimization
//! full-scan stepper.
//!
//! The hot-path overhaul (active-set worklist, idle fast-forward
//! extension, packetize scratch reuse) is gated on bit-identical
//! `SimReport`s: these tests pin the reports of four representative runs
//! — a sparse timed trace, an all-to-all burst, a static faulty run with
//! retransmissions, and a dynamic-schedule recoverable run — as exact
//! fingerprints captured before the optimizations landed. Any
//! accumulation/ordering change in the simulator trips them.
//!
//! Five more cases pin whole reports (cycle counters and a digest of
//! every per-message and per-link figure included) from the
//! `Vec<Router>` stepper, captured before its state moved into one flat
//! ring-buffer arena: an 8×8 all-to-all burst, a two-chiplet package
//! whose traffic crosses the seam, YX and O1TURN routing, a router with
//! one VC, one lane and one buffer slot, and transient drops on a
//! package. `run_reference` shares the stepper's state layout, so only
//! fingerprints taken before a layout change check it independently.
//!
//! One more pins four staggered copies of an entry burst on a package
//! with a dead router, the shape of a serving batch in fault mode.
//!
//! To re-capture (only legitimate after an *intentional* semantic
//! change): `LTS_GOLDEN_CAPTURE=1 cargo test -p lts-noc --test golden --
//! --nocapture` and paste the printed fingerprints.

use lts_noc::recovery::{FaultSchedule, MonitorConfig};
use lts_noc::stats::SimReport;
use lts_noc::topology::Direction;
use lts_noc::traffic::{all_to_all, uniform_random, Message, TrafficTrace};
use lts_noc::{FaultModel, NocConfig, RoutingPolicy, Simulator};

/// A deterministic sparse trace: a few messages spread far apart in time,
/// so the simulator spends most cycles idle (the fast-forward showcase).
fn sparse_trace(nodes: usize) -> TrafficTrace {
    let mut t = TrafficTrace::new();
    for i in 0..40usize {
        let src = i % nodes;
        let mut dst = (i * 7 + 3) % nodes;
        if dst == src {
            dst = (dst + 1) % nodes;
        }
        t.push(Message::new(src, dst, 64 + (i as u64) * 13, (i as u64) * 3_000));
    }
    t
}

/// Stable text fingerprint over the report fields that predate the
/// hot-path overhaul (`cycles_simulated`/`cycles_fast_forwarded` are
/// intentionally excluded: they are new observability counters, not
/// simulation results).
fn fingerprint(r: &SimReport) -> String {
    format!(
        "makespan={} delivered={} bytes={} flits={} blocked={} latsum={} latn={} links={} \
         events={:?} faults={:?}",
        r.makespan,
        r.messages_delivered,
        r.bytes_delivered,
        r.flits_delivered,
        r.blocked_flit_cycles,
        r.message_latencies.iter().sum::<u64>(),
        r.message_latencies.len(),
        r.link_flits.iter().sum::<u64>(),
        r.events,
        r.faults,
    )
}

fn check(label: &str, got: &str, pinned: &str) {
    if std::env::var("LTS_GOLDEN_CAPTURE").is_ok() {
        println!("GOLDEN {label}: {got}");
        return;
    }
    assert_eq!(got, pinned, "{label} fingerprint drifted from the pre-optimization capture");
}

#[test]
fn sparse_timed_trace_matches_pre_optimization_fingerprint() {
    let trace = sparse_trace(16);
    let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
    let report = sim.run(&trace.messages).expect("run");
    check(
        "sparse",
        &fingerprint(&report),
        "makespan=117076 delivered=40 bytes=12700 flits=219 blocked=0 latsum=2419 latn=40 links=657 events=EventCounts { buffer_writes: 876, buffer_reads: 876, crossbar_traversals: 876, link_traversals: 657, arbitrations: 996, ejections: 219 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 }",
    );
}

#[test]
fn all_to_all_burst_matches_pre_optimization_fingerprint() {
    let trace = all_to_all(16, 256);
    let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
    let report = sim.run(&trace.messages).expect("run");
    check(
        "all_to_all",
        &fingerprint(&report),
        "makespan=532 delivered=240 bytes=61440 flits=960 blocked=34003 latsum=66475 latn=240 links=2560 events=EventCounts { buffer_writes: 3520, buffer_reads: 3520, crossbar_traversals: 3520, link_traversals: 2560, arbitrations: 8303, ejections: 960 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 }",
    );
}

#[test]
fn static_faulty_run_matches_pre_optimization_fingerprint() {
    // Node 5 is dead, so survivors only talk to survivors.
    let trace: TrafficTrace = uniform_random(16, 3, 256, 9)
        .messages
        .into_iter()
        .filter(|m| m.src != 5 && m.dst != 5)
        .collect();
    let fault = FaultModel::none().with_seed(42).kill_router(5).drop_rate(0.02).retry_limit(6);
    let mut sim = Simulator::with_faults(NocConfig::paper_16core(), fault).expect("sim");
    let report = sim.run(&trace.messages).expect("run");
    check(
        "static_faulty",
        &fingerprint(&report),
        "makespan=4731 delivered=40 bytes=10240 flits=160 blocked=1587 latsum=18836 latn=40 links=560 events=EventCounts { buffer_writes: 756, buffer_reads: 756, crossbar_traversals: 756, link_traversals: 560, arbitrations: 919, ejections: 196 } faults=FaultStats { flits_dropped: 10, flits_corrupted: 0, packets_rejected: 9, packets_retransmitted: 9, duplicate_packets: 0, flits_lost: 0 }",
    );
}

#[test]
fn recoverable_run_matches_pre_optimization_fingerprint() {
    let trace = sparse_trace(16);
    let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
    let schedule =
        FaultSchedule::new().router_death(20_000, 10).link_death(50_000, 0, Direction::East);
    let rec = sim
        .run_recoverable(&trace.messages, &schedule, &MonitorConfig::default())
        .expect("recoverable run");
    let got = format!(
        "{} detections={:?} abandoned={:?}",
        fingerprint(&rec.report),
        rec.detections,
        rec.abandoned
    );
    check(
        "recoverable",
        &got,
        "makespan=117076 delivered=36 bytes=11326 flits=195 blocked=0 latsum=2279 latn=40 links=641 events=EventCounts { buffer_writes: 836, buffer_reads: 836, crossbar_traversals: 836, link_traversals: 641, arbitrations: 954, ejections: 195 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 } detections=[Detection { node: 10, died_at: 20000, detected_at: 20757, cause: MissedHeartbeats }] abandoned=[10, 17, 26, 33]",
    );
}

/// [`fingerprint`] plus every field it leaves out: the stepper's cycle
/// counters, the hop-class split, and an FNV-1a digest of the whole
/// report's `Debug` rendering (per-message latencies and per-link flit
/// counts included). Pinned from the `Vec<Router>` stepper before the
/// flat-arena rewrite, so the new state layout is checked against an
/// oracle that does not share it.
fn full_fingerprint(r: &SimReport) -> String {
    let digest = format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    format!(
        "{} cycles={} ff={} intra={} inter={} digest={digest:016x}",
        fingerprint(r),
        r.cycles_simulated,
        r.cycles_fast_forwarded,
        r.intra_chip_traversals,
        r.inter_chip_traversals,
    )
}

fn run_full(config: NocConfig, fault: FaultModel, messages: &[Message]) -> String {
    let mut sim = Simulator::with_faults(config, fault).expect("sim");
    full_fingerprint(&sim.run(messages).expect("run"))
}

#[test]
fn dense_8x8_all_to_all_matches_pre_arena_fingerprint() {
    let trace = all_to_all(64, 128);
    check(
        "dense_8x8",
        &run_full(NocConfig::paper_mesh(8, 8), FaultModel::none(), &trace.messages),
        "makespan=1816 delivered=4032 bytes=516096 flits=8064 blocked=536909 latsum=3477960 latn=4032 links=43008 events=EventCounts { buffer_writes: 51072, buffer_reads: 51072, crossbar_traversals: 51072, link_traversals: 43008, arbitrations: 234805, ejections: 8064 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 } cycles=1806 ff=10 intra=43008 inter=0 digest=8b7d754e8afc4c83",
    );
}

#[test]
fn mcm_seam_crossing_run_matches_pre_arena_fingerprint() {
    let trace = all_to_all(32, 192);
    check(
        "mcm_seam",
        &run_full(NocConfig::paper_mcm(2, 16).expect("mcm"), FaultModel::none(), &trace.messages),
        "makespan=987 delivered=992 bytes=190464 flits=2976 blocked=147179 latsum=490634 latn=992 links=11904 events=EventCounts { buffer_writes: 14880, buffer_reads: 14880, crossbar_traversals: 14880, link_traversals: 11904, arbitrations: 49609, ejections: 2976 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 } cycles=987 ff=0 intra=10368 inter=1536 digest=a19d8b91c3a8e8a2",
    );
}

#[test]
fn yx_and_o1turn_runs_match_pre_arena_fingerprints() {
    let trace = uniform_random(16, 12, 640, 21);
    for (policy, pinned) in [(RoutingPolicy::YxDor, "makespan=881 delivered=192 bytes=122880 flits=1920 blocked=37852 latsum=86277 latn=192 links=4950 events=EventCounts { buffer_writes: 6870, buffer_reads: 6870, crossbar_traversals: 6870, link_traversals: 4950, arbitrations: 9032, ejections: 1920 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 } cycles=872 ff=9 intra=4950 inter=0 digest=05b33ee77188b9e8"), (RoutingPolicy::O1Turn, "makespan=1133 delivered=192 bytes=122880 flits=1920 blocked=33403 latsum=93847 latn=192 links=4950 events=EventCounts { buffer_writes: 6870, buffer_reads: 6870, crossbar_traversals: 6870, link_traversals: 4950, arbitrations: 11342, ejections: 1920 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 } cycles=1126 ff=7 intra=4950 inter=0 digest=b9a3325c61a18e5a")] {
        let config = NocConfig { routing: policy, ..NocConfig::paper_16core() };
        check(&format!("{policy:?}"), &run_full(config, FaultModel::none(), &trace.messages), pinned);
    }
}

#[test]
fn minimal_router_matches_pre_arena_fingerprint() {
    // One VC, one physical lane and a single credit per VC: every hop
    // serializes on the buffer and the lane.
    let config =
        NocConfig { vcs: 1, physical_channels: 1, vc_buffer_flits: 1, ..NocConfig::paper_16core() };
    let trace = all_to_all(16, 320);
    check("minimal_router", &run_full(config, FaultModel::none(), &trace.messages), "makespan=2242 delivered=240 bytes=76800 flits=1200 blocked=34622 latsum=267623 latn=240 links=3200 events=EventCounts { buffer_writes: 4400, buffer_reads: 4400, crossbar_traversals: 4400, link_traversals: 3200, arbitrations: 17385, ejections: 1200 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 } cycles=2238 ff=4 intra=3200 inter=0 digest=65d1e2f7b3138daf");
}

#[test]
fn mcm_transient_drops_match_pre_arena_fingerprint() {
    let trace = uniform_random(32, 6, 900, 5);
    let fault = FaultModel::none().with_seed(9).drop_rate(0.01).corrupt_rate(0.005);
    check(
        "mcm_drops",
        &run_full(NocConfig::paper_mcm(2, 16).expect("mcm"), fault, &trace.messages),
        "makespan=1705858 delivered=192 bytes=172800 flits=2880 blocked=99112 latsum=11898626 latn=192 links=48135 events=EventCounts { buffer_writes: 57045, buffer_reads: 57045, crossbar_traversals: 57045, link_traversals: 48135, arbitrations: 65839, ejections: 8910 } faults=FaultStats { flits_dropped: 452, flits_corrupted: 245, packets_rejected: 402, packets_retransmitted: 402, duplicate_packets: 0, flits_lost: 0 } cycles=13953 ff=1691905 intra=41565 inter=6570 digest=5addfaf3b8ed565b",
    );
}

/// One entry burst on a two-chiplet package with router 9 dead, and the
/// spacing of its copies: the shape of a serving batch's staggered entry
/// burst, in fault mode. When a copy's last message lands, its
/// acknowledgements and retransmission timeouts are still pending.
fn staggered_burst() -> (Vec<Message>, u64) {
    let burst = uniform_random(32, 2, 768, 13)
        .messages
        .into_iter()
        .filter(|m| m.src != 9 && m.dst != 9)
        .enumerate()
        .map(|(i, m)| Message { inject_cycle: (i as u64 % 4) * 6, ..m })
        .collect();
    (burst, 4_000)
}

/// The first `copies` copies of `burst`, copy `j` shifted by `j * period`.
fn expand(burst: &[Message], period: u64, copies: u64) -> Vec<Message> {
    (0..copies)
        .flat_map(|j| {
            burst.iter().map(move |m| Message { inject_cycle: m.inject_cycle + j * period, ..*m })
        })
        .collect()
}

#[test]
fn staggered_burst_on_a_faulty_package_matches_its_fingerprint() {
    let (burst, period) = staggered_burst();
    let config = NocConfig::paper_mcm(2, 16).expect("mcm");
    let fault = FaultModel::none().kill_router(9);
    let pinned = "makespan=12374 delivered=232 bytes=178176 flits=2784 blocked=53224 latsum=48740 latn=232 links=10896 events=EventCounts { buffer_writes: 13680, buffer_reads: 13680, crossbar_traversals: 13680, link_traversals: 10896, arbitrations: 18508, ejections: 2784 } faults=FaultStats { flits_dropped: 0, flits_corrupted: 0, packets_rejected: 0, packets_retransmitted: 0, duplicate_packets: 0, flits_lost: 0 } cycles=1628 ff=10746 intra=9168 inter=1728 digest=2ae72e02aa40bfe4";
    check("staggered_burst", &run_full(config, fault.clone(), &expand(&burst, period, 4)), pinned);
    // One periodic run steps the copies until two drained boundaries
    // match, then extends them exactly.
    let mut sim = Simulator::with_faults(config, fault).expect("sim");
    let periodic = sim.run_periodic(&burst, period, 4).expect("periodic run");
    assert!(periodic.cycles_replicated > 0, "the copies drain and repeat");
    let longest = periodic.prefixes[3].as_ref().expect("the longest prefix");
    check("staggered_burst periodic", &full_fingerprint(longest), pinned);
}
