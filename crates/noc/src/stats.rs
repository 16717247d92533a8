//! Simulation statistics.

use serde::{Deserialize, Serialize};

/// Raw event counts accumulated during a simulation (the energy model's
/// inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Flit writes into input buffers (arrivals + injections).
    pub buffer_writes: u64,
    /// Flit reads out of input buffers (switch traversals).
    pub buffer_reads: u64,
    /// Crossbar traversals (one per switch win).
    pub crossbar_traversals: u64,
    /// Router-to-router link traversals.
    pub link_traversals: u64,
    /// Switch/VC arbitration decisions performed.
    pub arbitrations: u64,
    /// Flits ejected at their destination's local port.
    pub ejections: u64,
}

/// Counters for injected faults and the NIC retransmission protocol.
/// All-zero on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Flits poisoned by an injected drop.
    pub flits_dropped: u64,
    /// Flits poisoned by an injected corruption.
    pub flits_corrupted: u64,
    /// Packets discarded at the destination NIC (failed integrity check).
    pub packets_rejected: u64,
    /// Packets re-sent after a timeout.
    pub packets_retransmitted: u64,
    /// Clean packets discarded as duplicates of an earlier delivery.
    pub duplicate_packets: u64,
    /// Flits discarded in flight by a mid-run topology death (they were
    /// inside, or heading into, a router that died under them). Only
    /// nonzero for dynamic-schedule runs.
    pub flits_lost: u64,
}

impl FaultStats {
    /// Whether any fault or protocol event occurred.
    pub fn any(&self) -> bool {
        self != &FaultStats::default()
    }

    /// Accumulates another run's counters into `self` (used when a
    /// workload issues several simulations on one faulty mesh).
    pub fn merge(&mut self, other: &FaultStats) {
        self.flits_dropped += other.flits_dropped;
        self.flits_corrupted += other.flits_corrupted;
        self.packets_rejected += other.packets_rejected;
        self.packets_retransmitted += other.packets_retransmitted;
        self.duplicate_packets += other.duplicate_packets;
        self.flits_lost += other.flits_lost;
    }
}

/// Result of simulating one traffic trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Cycle at which the last flit was ejected (0 for an empty trace).
    pub makespan: u64,
    /// Messages fully delivered.
    pub messages_delivered: usize,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Total flits ejected.
    pub flits_delivered: u64,
    /// Per-message latency (completion − injection), message order matches
    /// the input trace.
    pub message_latencies: Vec<u64>,
    /// Flit-cycles spent blocked: every cycle, each ready flit that lost
    /// arbitration or stalled on credits adds one — the congestion
    /// measure. Several flits can block in one cycle, so this can exceed
    /// the makespan.
    pub blocked_flit_cycles: u64,
    /// Low-level event counts for the energy model.
    pub events: EventCounts,
    /// Flits carried per directed link, indexed `node * 4 + direction`
    /// (N/E/S/W); the utilization heat map.
    pub link_flits: Vec<u64>,
    /// Link traversals that stayed inside one chiplet. On a plain mesh
    /// every traversal is intra-chip, so this equals
    /// `events.link_traversals`.
    pub intra_chip_traversals: u64,
    /// Link traversals that crossed an interposer seam between chiplets
    /// (always 0 on a plain mesh). `intra + inter` sums bit-exactly to
    /// `events.link_traversals`.
    pub inter_chip_traversals: u64,
    /// Injected-fault and retransmission counters (all zero when the run
    /// used no fault model).
    pub faults: FaultStats,
    /// Cycles the stepper actually evaluated (observability only: the
    /// active-set and full-scan steppers produce identical values, and
    /// the field is excluded from equivalence fingerprints by callers
    /// that pin pre-overhaul reports).
    pub cycles_simulated: u64,
    /// Idle cycles skipped by fast-forwarding to the next event instead of
    /// being stepped. `cycles_simulated + cycles_fast_forwarded` spans the
    /// whole run; a high fast-forward share marks a sparse trace.
    pub cycles_fast_forwarded: u64,
}

impl SimReport {
    /// Mean message latency in cycles (`0` when no messages).
    pub fn mean_latency(&self) -> f64 {
        if self.message_latencies.is_empty() {
            return 0.0;
        }
        self.message_latencies.iter().sum::<u64>() as f64 / self.message_latencies.len() as f64
    }

    /// Maximum message latency (`0` when no messages).
    pub fn max_latency(&self) -> u64 {
        self.message_latencies.iter().copied().max().unwrap_or(0)
    }

    /// Delivered throughput in flits per cycle (`0` for empty traces).
    pub fn throughput_flits_per_cycle(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / self.makespan as f64
    }

    /// Mean number of blocked flits per cycle (`blocked_flit_cycles /
    /// makespan`, `0` for an empty trace) — the saturation signal serving
    /// and the sweeps report. Not a share in [0, 1]: `0` means the
    /// network was contention-free, and a congested burst that keeps
    /// many flits waiting at once reads well above `1`.
    pub fn blocked_share(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.blocked_flit_cycles as f64 / self.makespan as f64
    }

    /// Adds to every additive counter its growth from `from` to `to`, two
    /// snapshots of one run: the counters a periodic run's replicated copy
    /// repeats. Makespan, message counts, bytes and latencies are left to
    /// the caller.
    pub(crate) fn add_growth(&mut self, from: &SimReport, to: &SimReport) {
        macro_rules! grow {
            ($($field:ident).+) => { self.$($field).+ += to.$($field).+ - from.$($field).+ };
        }
        grow!(flits_delivered);
        grow!(blocked_flit_cycles);
        grow!(events.buffer_writes);
        grow!(events.buffer_reads);
        grow!(events.crossbar_traversals);
        grow!(events.link_traversals);
        grow!(events.arbitrations);
        grow!(events.ejections);
        grow!(intra_chip_traversals);
        grow!(inter_chip_traversals);
        grow!(faults.flits_dropped);
        grow!(faults.flits_corrupted);
        grow!(faults.packets_rejected);
        grow!(faults.packets_retransmitted);
        grow!(faults.duplicate_packets);
        grow!(faults.flits_lost);
        grow!(cycles_simulated);
        grow!(cycles_fast_forwarded);
        for ((x, a), b) in self.link_flits.iter_mut().zip(&from.link_flits).zip(&to.link_flits) {
            *x += b - a;
        }
    }

    /// The most-loaded directed link's flit count.
    pub fn max_link_flits(&self) -> u64 {
        self.link_flits.iter().copied().max().unwrap_or(0)
    }

    /// Load-imbalance factor: max link load over mean nonzero link load
    /// (`0` when nothing moved). High values mean a hotspot.
    pub fn link_imbalance(&self) -> f64 {
        let nonzero: Vec<u64> = self.link_flits.iter().copied().filter(|&f| f > 0).collect();
        if nonzero.is_empty() {
            return 0.0;
        }
        let mean = nonzero.iter().sum::<u64>() as f64 / nonzero.len() as f64;
        self.max_link_flits() as f64 / mean
    }
}

/// Result of [`crate::Simulator::run_periodic`]: the report of every
/// prefix of a periodic trace, and how much of the longest prefix was
/// stepped rather than replicated.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicReport {
    /// Entry `b - 1` is the report [`crate::Simulator::run`] returns on
    /// the first `b` copies, bit for bit, or `None` where the periodic run
    /// declines prefix `b` (the [`crate::network`] module docs give the
    /// rule).
    pub prefixes: Vec<Option<SimReport>>,
    /// Cycles the stepper evaluated.
    pub cycles_simulated: u64,
    /// Idle cycles the stepper skipped by fast-forward.
    pub cycles_fast_forwarded: u64,
    /// Cycles of the longest prefix's span built from a fixed point instead
    /// of stepped: the three counters sum to that prefix's
    /// `cycles_simulated + cycles_fast_forwarded`.
    pub cycles_replicated: u64,
}

/// Renders per-node outgoing link load as an ASCII grid (sum over the
/// four outgoing directions), plus the single hottest directed link.
pub fn render_link_heatmap<T: crate::topology::Topology>(report: &SimReport, topo: &T) -> String {
    use crate::topology::Direction;
    let mut out = String::from("outgoing flits per node (sum over N/E/S/W links):\n");
    for y in 0..topo.height() {
        for x in 0..topo.width() {
            let node = topo.node_at(x, y);
            let total: u64 =
                (0..4).map(|d| report.link_flits.get(node * 4 + d).copied().unwrap_or(0)).sum();
            out.push_str(&format!("[{node:>2}]{total:<8}"));
        }
        out.push('\n');
    }
    // Name the hottest directed link.
    if let Some((idx, &max)) = report.link_flits.iter().enumerate().max_by_key(|&(_, &f)| f) {
        if max > 0 {
            let node = idx / 4;
            let dir = Direction::ALL[idx % 4];
            out.push_str(&format!("hottest link: node {node} {dir:?} ({max} flits)\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_helpers_handle_empty_reports() {
        let r = SimReport {
            makespan: 0,
            messages_delivered: 0,
            bytes_delivered: 0,
            flits_delivered: 0,
            message_latencies: vec![],
            blocked_flit_cycles: 0,
            events: EventCounts::default(),
            link_flits: vec![],
            intra_chip_traversals: 0,
            inter_chip_traversals: 0,
            faults: FaultStats::default(),
            cycles_simulated: 0,
            cycles_fast_forwarded: 0,
        };
        assert_eq!(r.mean_latency(), 0.0);
        assert_eq!(r.max_link_flits(), 0);
        assert_eq!(r.link_imbalance(), 0.0);
        assert_eq!(r.max_latency(), 0);
        assert_eq!(r.throughput_flits_per_cycle(), 0.0);
        assert_eq!(r.blocked_share(), 0.0);
    }

    #[test]
    fn latency_helpers_compute_aggregates() {
        let r = SimReport {
            makespan: 100,
            messages_delivered: 2,
            bytes_delivered: 128,
            flits_delivered: 50,
            message_latencies: vec![10, 30],
            blocked_flit_cycles: 5,
            events: EventCounts::default(),
            link_flits: vec![4, 0, 2, 0],
            intra_chip_traversals: 0,
            inter_chip_traversals: 0,
            faults: FaultStats::default(),
            cycles_simulated: 0,
            cycles_fast_forwarded: 0,
        };
        assert_eq!(r.mean_latency(), 20.0);
        assert_eq!(r.max_latency(), 30);
        assert_eq!(r.throughput_flits_per_cycle(), 0.5);
        assert_eq!(r.max_link_flits(), 4);
        assert!((r.link_imbalance() - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.blocked_share(), 0.05);
    }

    #[test]
    fn blocked_share_exceeds_one_under_a_congested_burst() {
        // Fifteen cores burst into node 0 at once: many flits wait at the
        // hot links every cycle, so the mean blocked flits per cycle is
        // above 1 — a count, not a share of cycles.
        let mut sim = crate::Simulator::new(crate::NocConfig::paper_16core()).unwrap();
        let burst: Vec<crate::traffic::Message> =
            (1..16).map(|src| crate::traffic::Message::new(src, 0, 640, 0)).collect();
        let r = sim.run(&burst).unwrap();
        assert!(r.blocked_flit_cycles > r.makespan, "{r:?}");
        assert!(r.blocked_share() > 1.0, "blocked share {}", r.blocked_share());
    }

    #[test]
    fn heatmap_renders_loads_for_a_2x2_mesh() {
        let mesh = crate::topology::Mesh2d::new(2, 2);
        let mut link_flits = vec![0u64; 16];
        link_flits[1] = 7; // node 0 East
        link_flits[2] = 9; // node 0 South
        let r = SimReport {
            makespan: 1,
            messages_delivered: 0,
            bytes_delivered: 0,
            flits_delivered: 0,
            message_latencies: vec![],
            blocked_flit_cycles: 0,
            events: EventCounts::default(),
            link_flits,
            intra_chip_traversals: 0,
            inter_chip_traversals: 0,
            faults: FaultStats::default(),
            cycles_simulated: 0,
            cycles_fast_forwarded: 0,
        };
        let s = render_link_heatmap(&r, &mesh);
        // Node 0's outgoing total is 7 + 9 = 16.
        assert!(s.contains("[ 0]16"), "{s}");
        assert!(s.contains("[ 3]"), "{s}");
        assert!(s.contains("hottest link: node 0 South (9 flits)"), "{s}");
    }

    fn report_with_links(link_flits: Vec<u64>) -> SimReport {
        SimReport {
            makespan: 10,
            messages_delivered: 0,
            bytes_delivered: 0,
            flits_delivered: 0,
            message_latencies: vec![],
            blocked_flit_cycles: 0,
            events: EventCounts::default(),
            link_flits,
            intra_chip_traversals: 0,
            inter_chip_traversals: 0,
            faults: FaultStats::default(),
            cycles_simulated: 0,
            cycles_fast_forwarded: 0,
        }
    }

    #[test]
    fn fault_stats_any_sees_every_counter() {
        assert!(!FaultStats::default().any());
        let one_each = [
            FaultStats { flits_dropped: 1, ..FaultStats::default() },
            FaultStats { flits_corrupted: 1, ..FaultStats::default() },
            FaultStats { packets_rejected: 1, ..FaultStats::default() },
            FaultStats { packets_retransmitted: 1, ..FaultStats::default() },
            FaultStats { duplicate_packets: 1, ..FaultStats::default() },
            FaultStats { flits_lost: 1, ..FaultStats::default() },
        ];
        assert!(one_each.iter().all(FaultStats::any));
    }

    #[test]
    fn fault_stats_merge_sums_every_counter() {
        let a = FaultStats {
            flits_dropped: 1,
            flits_corrupted: 2,
            packets_rejected: 3,
            packets_retransmitted: 4,
            duplicate_packets: 5,
            flits_lost: 6,
        };
        let mut total = FaultStats::default();
        total.merge(&a);
        assert_eq!(total, a, "merging into zero copies");
        total.merge(&a);
        assert_eq!(
            total,
            FaultStats {
                flits_dropped: 2,
                flits_corrupted: 4,
                packets_rejected: 6,
                packets_retransmitted: 8,
                duplicate_packets: 10,
                flits_lost: 12,
            }
        );
    }

    #[test]
    fn evenly_loaded_links_have_unit_imbalance() {
        let r = report_with_links(vec![5, 0, 5, 5, 0, 5]);
        assert_eq!(r.max_link_flits(), 5);
        assert_eq!(r.link_imbalance(), 1.0);
        let hot = report_with_links(vec![9, 0, 1, 1, 0, 1]);
        assert_eq!(hot.link_imbalance(), 9.0 / 3.0);
    }

    #[test]
    fn idle_heatmap_names_no_hottest_link() {
        let mesh = crate::topology::Mesh2d::new(2, 1);
        let s = render_link_heatmap(&report_with_links(vec![0; 8]), &mesh);
        assert!(s.contains("[ 0]0"), "{s}");
        assert!(s.contains("[ 1]0"), "{s}");
        assert!(!s.contains("hottest"), "{s}");
        assert_eq!(s.lines().count(), 2, "header plus one mesh row: {s}");
    }
}
