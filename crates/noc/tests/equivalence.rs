//! Active-set vs full-scan stepper equivalence.
//!
//! The active-set sweep ([`Simulator::run`], [`Simulator::run_recoverable`])
//! must be a pure strength reduction of the retained pre-overhaul full-scan
//! stepper ([`Simulator::run_reference`],
//! [`Simulator::run_recoverable_reference`]): every report — including the
//! `cycles_simulated` / `cycles_fast_forwarded` observability counters,
//! detections and abandonment sets — must be bit-identical on any input.
//! These properties drive randomized traces through both steppers, with and
//! without fault injection, retransmissions and mid-run death schedules,
//! and congested bursts that keep every switch allocator contended.

use lts_noc::recovery::{FaultSchedule, MonitorConfig};
use lts_noc::stats::SimReport;
use lts_noc::topology::Direction;
use lts_noc::traffic::Message;
use lts_noc::{FaultModel, NocConfig, NocError, RoutingPolicy, Simulator};
use proptest::prelude::*;

/// Renders a run outcome for comparison: the steppers must agree on
/// errors (e.g. retry-budget exhaustion) exactly as they do on reports.
fn outcome(r: Result<SimReport, NocError>) -> String {
    format!("{r:?}")
}

/// Random valid trace on `nodes` cores; inject cycles span far enough to
/// exercise idle fast-forwarding between bursts.
fn trace_strategy(nodes: usize, max_msgs: usize) -> impl Strategy<Value = Vec<Message>> {
    proptest::collection::vec(
        (0..nodes, 0..nodes, 1u64..1500, 0u64..20_000).prop_map(move |(s, d, bytes, t)| {
            let dst = if d == s { (d + 1) % nodes } else { d };
            Message::new(s, dst, bytes, t)
        }),
        1..max_msgs,
    )
}

/// A burst injected within the first four cycles: every node toward one
/// hotspot, or every ordered pair (all-to-all). Either way the switch
/// allocators see many ready fronts contending for the same outputs, VCs
/// queue tails behind heads, and round-robin pointers keep rotating.
fn burst_strategy(nodes: usize) -> impl Strategy<Value = Vec<Message>> {
    let pairs = nodes * (nodes - 1);
    let sizes = proptest::collection::vec((1u64..1500, 0u64..4), pairs);
    (0u8..2, 0..nodes, sizes).prop_map(move |(hotspot, hot, sizes)| {
        let mut msgs = Vec::new();
        for src in 0..nodes {
            for dst in (0..nodes).filter(|&d| d != src) {
                let (bytes, t) = sizes[msgs.len() % pairs];
                if hotspot == 0 || dst == hot {
                    msgs.push(Message::new(src, dst, bytes, t));
                }
            }
        }
        msgs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn active_set_matches_full_scan_under_congestion(
        msgs in burst_strategy(16),
        vcs in 1usize..=4,
        physical_channels in 1usize..=2,
        vc_buffer_flits in 1usize..=4,
        o1turn in 0u8..2,
        package in 0u8..2,
    ) {
        // A 4x4 mesh or a package of two 4x2 chiplets (16 nodes either
        // way); O1TURN needs at least two VCs to split its classes.
        let mut config = if package == 1 {
            NocConfig::paper_mcm(2, 8).unwrap()
        } else {
            NocConfig::paper_16core()
        };
        config.vcs = vcs;
        config.physical_channels = physical_channels;
        config.vc_buffer_flits = vc_buffer_flits;
        config.routing =
            if o1turn == 1 && vcs >= 2 { RoutingPolicy::O1Turn } else { RoutingPolicy::XyDor };
        let mut sim = Simulator::new(config).unwrap();
        let active = sim.run(&msgs).unwrap();
        let full = sim.run_reference(&msgs).unwrap();
        prop_assert!(active.blocked_flit_cycles > 0, "the burst must contend");
        prop_assert_eq!(active, full);
    }

    #[test]
    fn active_set_matches_full_scan_fault_free(msgs in trace_strategy(16, 30)) {
        let mut sim = Simulator::new(NocConfig::paper_16core()).unwrap();
        let active = sim.run(&msgs).unwrap();
        let full = sim.run_reference(&msgs).unwrap();
        prop_assert_eq!(active, full);
    }

    #[test]
    fn active_set_matches_full_scan_with_retransmissions(
        msgs in trace_strategy(16, 20),
        seed in 0u64..1000,
        drop_pct in 1u32..8,
    ) {
        // Transient drops force NIC rejections, timeouts and retries.
        let fault = FaultModel::none()
            .with_seed(seed)
            .drop_rate(f64::from(drop_pct) / 100.0)
            .retry_limit(12);
        // Heavy drop rates can legitimately exhaust the retry budget, which
        // static runs surface as `Err(Unreachable)` — the steppers must agree
        // on that outcome exactly as they do on successful reports.
        let mut sim = Simulator::with_faults(NocConfig::paper_16core(), fault).unwrap();
        let active = outcome(sim.run(&msgs));
        let full = outcome(sim.run_reference(&msgs));
        prop_assert_eq!(active, full);
    }

    #[test]
    fn active_set_matches_full_scan_with_dead_router(
        msgs in trace_strategy(16, 25),
        dead in 1usize..15,
        seed in 0u64..1000,
    ) {
        // Survivors only talk to survivors; rerouting around the dead
        // router plus a light drop rate exercises the faulty switch paths.
        let msgs: Vec<Message> =
            msgs.into_iter().filter(|m| m.src != dead && m.dst != dead).collect();
        let fault =
            FaultModel::none().with_seed(seed).kill_router(dead).drop_rate(0.01).retry_limit(8);
        let mut sim = Simulator::with_faults(NocConfig::paper_16core(), fault).unwrap();
        let active = outcome(sim.run(&msgs));
        let full = outcome(sim.run_reference(&msgs));
        prop_assert_eq!(active, full);
    }

    #[test]
    fn active_set_matches_full_scan_recoverable(
        msgs in trace_strategy(16, 20),
        death_node in 1usize..15,
        death_cycle in 100u64..30_000,
        link_node in 0usize..16,
        dir_idx in 0usize..4,
        link_cycle in 100u64..30_000,
    ) {
        // A router death and a link death land mid-run: worms get severed,
        // messages get abandoned, the monitor detects — all of it must
        // agree between the two steppers.
        let schedule = FaultSchedule::new()
            .router_death(death_cycle, death_node)
            .link_death(link_cycle, link_node, Direction::ALL[dir_idx]);
        let monitor = MonitorConfig::default();
        let mut sim = Simulator::new(NocConfig::paper_16core()).unwrap();
        let active = sim.run_recoverable(&msgs, &schedule, &monitor).unwrap();
        let full = sim.run_recoverable_reference(&msgs, &schedule, &monitor).unwrap();
        prop_assert_eq!(active.report, full.report);
        prop_assert_eq!(active.detections, full.detections);
        prop_assert_eq!(active.abandoned, full.abandoned);
    }
}
