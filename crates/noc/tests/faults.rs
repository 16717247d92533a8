//! Fault-injection integration tests: fault-free parity, deterministic
//! schedules, retransmission behaviour, rerouting, and the termination
//! guarantee (typed errors, never hangs) under arbitrary fault configs.

use lts_noc::topology::Direction;
use lts_noc::traffic::{uniform_random, Message};
use lts_noc::{FaultModel, FaultSchedule, MonitorConfig, NocConfig, NocError, Simulator};
use proptest::prelude::*;

fn trace() -> Vec<Message> {
    uniform_random(16, 5, 600, 21).messages
}

#[test]
fn none_model_is_bit_identical_to_plain_run() {
    let cfg = NocConfig::paper_16core();
    let msgs = trace();
    let plain = Simulator::new(cfg).unwrap().run(&msgs).unwrap();
    let faulty = Simulator::with_faults(cfg, FaultModel::none()).unwrap().run(&msgs).unwrap();
    // Full report equality: stats, events, and per-message latencies.
    assert_eq!(plain, faulty);
    assert!(!faulty.faults.any());
}

#[test]
fn transient_drops_cost_latency_not_correctness() {
    let cfg = NocConfig::paper_16core();
    let msgs = trace();
    let clean = Simulator::new(cfg).unwrap().run(&msgs).unwrap();
    let fault = FaultModel::none().with_seed(7).drop_rate(0.05);
    let r = Simulator::with_faults(cfg, fault).unwrap().run(&msgs).unwrap();
    assert_eq!(r.messages_delivered, msgs.len(), "every message must still arrive");
    assert_eq!(r.flits_delivered, clean.flits_delivered, "clean flit count is preserved");
    assert!(r.faults.flits_dropped > 0, "a 5% drop rate must fire on this trace");
    assert!(r.faults.packets_rejected > 0);
    assert!(r.faults.packets_retransmitted >= r.faults.packets_rejected);
    assert!(r.makespan > clean.makespan, "retransmissions must cost time");
}

#[test]
fn corruption_is_detected_and_retried() {
    let cfg = NocConfig::paper_16core();
    let msgs = trace();
    let fault = FaultModel::none().with_seed(11).corrupt_rate(0.05);
    let r = Simulator::with_faults(cfg, fault).unwrap().run(&msgs).unwrap();
    assert_eq!(r.messages_delivered, msgs.len());
    assert!(r.faults.flits_corrupted > 0);
    assert_eq!(r.faults.flits_dropped, 0);
}

#[test]
fn same_seed_reproduces_the_same_fault_schedule() {
    let cfg = NocConfig::paper_16core();
    let msgs = trace();
    let fault = FaultModel::none().with_seed(99).drop_rate(0.03).corrupt_rate(0.01);
    let a = Simulator::with_faults(cfg, fault.clone()).unwrap().run(&msgs).unwrap();
    let b = Simulator::with_faults(cfg, fault).unwrap().run(&msgs).unwrap();
    assert_eq!(a, b, "identical seed + config must be bit-identical");
    let other = FaultModel::none().with_seed(100).drop_rate(0.03).corrupt_rate(0.01);
    let c = Simulator::with_faults(cfg, other).unwrap().run(&msgs).unwrap();
    assert_ne!(a.faults, c.faults, "a different seed should fault differently");
}

#[test]
fn traffic_detours_around_a_dead_router() {
    let cfg = NocConfig::paper_16core();
    // Node 5 is interior on the 4x4 mesh; kill it and send traffic whose
    // XY route would cross it: 4 -> 6 goes straight East through 5.
    let fault = FaultModel::none().kill_router(5);
    let mut sim = Simulator::with_faults(cfg, fault).unwrap();
    let r = sim.run(&[Message::new(4, 6, 2048, 0)]).unwrap();
    assert_eq!(r.messages_delivered, 1);
    // No flit may touch any of the dead router's links.
    for dir in 0..4 {
        assert_eq!(r.link_flits[5 * 4 + dir], 0, "dead router forwarded flits");
    }
}

#[test]
fn dead_link_forces_a_detour() {
    let cfg = NocConfig::paper_16core();
    let fault = FaultModel::none().kill_link(0, Direction::East);
    let mut sim = Simulator::with_faults(cfg, fault).unwrap();
    let r = sim.run(&[Message::new(0, 3, 1024, 0)]).unwrap();
    assert_eq!(r.messages_delivered, 1);
    assert_eq!(r.link_flits[Direction::East.index()], 0, "flits crossed the dead link");
    // The detour is longer than the 3-hop XY route.
    let clean = Simulator::new(cfg).unwrap().run(&[Message::new(0, 3, 1024, 0)]).unwrap();
    assert!(r.events.link_traversals > clean.events.link_traversals);
}

#[test]
fn unreachable_destination_is_a_typed_error() {
    // A 4x1 line mesh cut in the middle.
    let cfg = NocConfig::paper_mesh(4, 1);
    let fault = FaultModel::none().kill_router(1);
    let mut sim = Simulator::with_faults(cfg, fault).unwrap();
    assert_eq!(
        sim.run(&[Message::new(0, 3, 64, 0)]),
        Err(NocError::Unreachable { src: 0, dst: 3 })
    );
    // A dead endpoint is unreachable too.
    let fault = FaultModel::none().kill_router(3);
    let mut sim = Simulator::with_faults(NocConfig::paper_mesh(4, 1), fault).unwrap();
    assert!(matches!(sim.run(&[Message::new(0, 3, 64, 0)]), Err(NocError::Unreachable { .. })));
    // Traffic between surviving nodes still flows.
    let fault = FaultModel::none().kill_router(3);
    let mut sim = Simulator::with_faults(NocConfig::paper_mesh(4, 1), fault).unwrap();
    assert_eq!(sim.run(&[Message::new(0, 2, 64, 0)]).unwrap().messages_delivered, 1);
}

#[test]
fn certain_loss_hits_the_watchdog_not_a_hang() {
    let mut cfg = NocConfig::paper_16core();
    cfg.max_cycles = 300_000;
    let fault = FaultModel::none().with_seed(3).drop_rate(1.0);
    let mut sim = Simulator::with_faults(cfg, fault).unwrap();
    let got = sim.run(&[Message::new(0, 15, 512, 0)]);
    assert!(
        matches!(got, Err(NocError::CycleLimitExceeded { .. })),
        "certain loss must end in the typed watchdog error, got {got:?}"
    );
}

#[test]
fn retransmit_energy_and_traffic_exceed_clean_run() {
    let cfg = NocConfig::paper_16core();
    let msgs = trace();
    let clean = Simulator::new(cfg).unwrap().run(&msgs).unwrap();
    let fault = FaultModel::none().with_seed(5).drop_rate(0.08);
    let faulty = Simulator::with_faults(cfg, fault).unwrap().run(&msgs).unwrap();
    assert!(faulty.events.link_traversals > clean.events.link_traversals);
    assert!(faulty.events.buffer_writes > clean.events.buffer_writes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline robustness guarantee: under ANY fault configuration
    /// the simulator terminates with either a delivered trace or a typed
    /// error — no panic, no unbounded loop.
    #[test]
    fn any_fault_config_terminates_with_ok_or_typed_error(
        seed in 0u64..1000,
        drop_milli in 0u64..=1000,
        corrupt_milli in 0u64..=1000,
        dead_router in 0usize..32,
        dead_link_node in 0usize..16,
        dead_link_dir in 0usize..4,
        kill_any in 0u8..4,
        msgs in proptest::collection::vec(
            (0usize..16, 0usize..16, 1u64..1500, 0u64..100).prop_map(|(s, d, bytes, t)| {
                let dst = if d == s { (d + 1) % 16 } else { d };
                Message::new(s, dst, bytes, t)
            }),
            1..12,
        ),
    ) {
        let mut cfg = NocConfig::paper_16core();
        cfg.max_cycles = 150_000;
        let mut fault = FaultModel::none()
            .with_seed(seed)
            .drop_rate(drop_milli as f64 / 1000.0)
            .corrupt_rate(corrupt_milli as f64 / 1000.0);
        // kill_any selects which permanent faults to include; dead_router
        // may be out of range on purpose (validation must catch it).
        if kill_any & 1 != 0 {
            fault = fault.kill_router(dead_router);
        }
        if kill_any & 2 != 0 {
            fault = fault.kill_link(dead_link_node, Direction::ALL[dead_link_dir]);
        }
        match Simulator::with_faults(cfg, fault) {
            Err(NocError::BadConfig(_)) => {} // out-of-range hardware, rejected cleanly
            Err(e) => prop_assert!(false, "unexpected construction error {e:?}"),
            Ok(mut sim) => match sim.run(&msgs) {
                Ok(r) => {
                    prop_assert_eq!(r.messages_delivered, msgs.len());
                    prop_assert_eq!(r.message_latencies.len(), msgs.len());
                    // Flit conservation holds under faults too: every
                    // buffered flit is read once, and every read either
                    // crosses a link or ejects.
                    prop_assert_eq!(r.events.buffer_reads, r.events.buffer_writes);
                    prop_assert_eq!(
                        r.events.link_traversals,
                        r.events.buffer_reads - r.events.ejections
                    );
                }
                Err(NocError::Unreachable { .. }) => {}
                Err(NocError::CycleLimitExceeded { undelivered, .. }) => {
                    prop_assert!(undelivered > 0);
                }
                Err(e) => prop_assert!(false, "unexpected run error {e:?}"),
            },
        }
    }

    /// Flits are conserved: every flit that enters a buffer other than
    /// over a link (`buffer_writes − link_traversals`: injections, plus
    /// the poisoned tails that close worms a death severs) leaves by
    /// ejection, poisoned ones included, or is counted lost. Random
    /// traces under random drop and corruption rates; two cases in three
    /// also lose a router or a link while traffic is in flight, routers
    /// from the four central ones, which most XY routes cross.
    #[test]
    fn injected_flits_are_ejected_or_lost(
        seed in 0u64..1000,
        drop_milli in 0u64..40,
        corrupt_milli in 0u64..40,
        death in (0u8..3, 0usize..16, 0u64..1_200),
        msgs in proptest::collection::vec(
            (0usize..16, 0usize..16, 1u64..600, 0u64..1_000).prop_map(|(s, d, bytes, t)| {
                let dst = if d == s { (d + 1) % 16 } else { d };
                Message::new(s, dst, bytes, t)
            }),
            1..64,
        ),
    ) {
        let mut cfg = NocConfig::paper_16core();
        cfg.max_cycles = 400_000;
        let fault = FaultModel::none()
            .with_seed(seed)
            .drop_rate(drop_milli as f64 / 1000.0)
            .corrupt_rate(corrupt_milli as f64 / 1000.0);
        let mut sim = Simulator::with_faults(cfg, fault).unwrap();
        let (kind, node, cycle) = death;
        let schedule = match kind {
            0 => None,
            1 => Some(FaultSchedule::new().router_death(cycle, [5, 6, 9, 10][node % 4])),
            _ => Some(FaultSchedule::new().link_death(cycle, node, Direction::ALL[node % 4])),
        };
        let report = match &schedule {
            None => sim.run(&msgs),
            Some(schedule) => sim
                .run_recoverable(&msgs, schedule, &MonitorConfig::default())
                .map(|rec| rec.report),
        };
        match report {
            Ok(r) => {
                let entered = r.events.buffer_writes - r.events.link_traversals;
                prop_assert_eq!(entered, r.events.ejections + r.faults.flits_lost);
                let flits: u64 = msgs.iter().map(|m| cfg.flits_for_bytes(m.bytes)).sum();
                if schedule.is_none() {
                    prop_assert_eq!(r.faults.flits_lost, 0);
                    prop_assert!(entered >= flits);
                }
            }
            Err(NocError::Unreachable { .. }) | Err(NocError::CycleLimitExceeded { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected run error {e:?}"),
        }
    }

    /// Fault schedules are a pure function of (seed, config): repeated
    /// runs of one simulator instance are bit-identical.
    #[test]
    fn faulty_runs_are_reproducible(
        seed in 0u64..500,
        drop_milli in 0u64..100,
        msgs in proptest::collection::vec(
            (0usize..16, 0usize..16, 1u64..1200, 0u64..50).prop_map(|(s, d, bytes, t)| {
                let dst = if d == s { (d + 1) % 16 } else { d };
                Message::new(s, dst, bytes, t)
            }),
            1..10,
        ),
    ) {
        let cfg = NocConfig::paper_16core();
        let fault = FaultModel::none().with_seed(seed).drop_rate(drop_milli as f64 / 1000.0);
        let mut sim = Simulator::with_faults(cfg, fault).unwrap();
        let a = sim.run(&msgs).unwrap();
        let b = sim.run(&msgs).unwrap();
        prop_assert_eq!(a, b);
    }
}

#[test]
fn bounded_retransmission_surfaces_unreachable_within_budget() {
    // Regression: with a finite retry budget, a destination that can never
    // accept a clean packet must surface as a typed `Unreachable` long
    // before the cycle watchdog, not spin in an unbounded retry loop.
    let mut cfg = NocConfig::paper_16core();
    cfg.max_cycles = 300_000;
    let fault = FaultModel::none().with_seed(11).drop_rate(1.0).retry_limit(6);
    let mut s = Simulator::with_faults(cfg, fault).unwrap();
    match s.run(&[Message::new(0, 5, 256, 0)]) {
        Err(NocError::Unreachable { src: 0, dst: 5 }) => {}
        other => panic!("expected Unreachable, got {other:?}"),
    }
}

#[test]
fn retry_limit_zero_keeps_the_unbounded_default() {
    // The unbounded default retries past any finite budget; total loss
    // then ends at the watchdog exactly as before the bound existed.
    let mut cfg = NocConfig::paper_16core();
    cfg.max_cycles = 200_000;
    let fault = FaultModel::none().with_seed(11).drop_rate(1.0).retry_limit(0);
    let mut s = Simulator::with_faults(cfg, fault).unwrap();
    assert!(matches!(
        s.run(&[Message::new(0, 5, 256, 0)]),
        Err(NocError::CycleLimitExceeded { .. })
    ));
}

#[test]
fn generous_retry_limit_still_delivers_under_moderate_loss() {
    let cfg = NocConfig::paper_16core();
    let msgs = trace();
    let fault = FaultModel::none().with_seed(7).drop_rate(0.05).retry_limit(64);
    let r = Simulator::with_faults(cfg, fault).unwrap().run(&msgs).unwrap();
    assert_eq!(r.messages_delivered, msgs.len());
}
