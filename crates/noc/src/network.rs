//! The cycle-driven NoC simulator.
//!
//! Wormhole switching over input-queued VC routers: head flits compute an
//! XY route when they reach a buffer front, allocate a downstream virtual
//! channel, and win round-robin switch arbitration before traversing;
//! body/tail flits follow on the same VC; tails release it. Credits flow
//! back one per dequeued flit. Congestion appears as flits that are ready
//! but lose arbitration or stall on credits, counted in
//! [`SimReport::blocked_flit_cycles`].
//!
//! Each stepped cycle sweeps only the active set: sources with something
//! due and routers with buffered flits, in ascending node order; idle gaps
//! fast-forward to the next event. A visited router allocates all five
//! outputs in one pass: it latches the routes of its ready fronts once,
//! buckets them by output in ascending flat `(port, vc)` order, and for
//! each output in port order runs VC allocation and the credit check, then
//! takes winners by rotating from the output's round-robin pointer. The
//! outputs of one router share only the input queues, so one re-latch rule
//! keeps this equal to allocating the outputs one at a time: a winning
//! tail that exposes an already-ready head latches that head at once and,
//! if it routes to a later output, adds it to that output's bucket in
//! sorted position. The buckets live on the [`Simulator`], so switch
//! allocation touches no heap.
//!
//! The pre-overhaul stepper is kept as the oracle behind
//! [`Simulator::run_reference`] and [`Simulator::run_recoverable_reference`]:
//! it visits every source and router each stepped cycle and rescans all
//! input VCs once per output. Property tests hold the two bit-identical.

use crate::config::{NocConfig, NocError};
use crate::fault::{edge_dead, plan_routes, FaultModel};
use crate::packet::{packetize_into, Flit, PacketDescriptor, PacketId};
use crate::recovery::{
    Detection, DetectionCause, FaultEventKind, FaultSchedule, MonitorConfig, RecoverableReport,
};
use crate::router::{Router, TimedFlit, PORTS};
use crate::stats::{EventCounts, FaultStats, SimReport};
use crate::topology::{Direction, HopClass, Topo, Topology};
use crate::traffic::Message;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

const LOCAL: usize = 4;

/// Retransmission attempts per packet used by [`Simulator::run_recoverable`]
/// when the fault model leaves [`crate::RetransmitConfig::max_attempts`] at
/// its unbounded default: a dynamic run must never retry forever against a
/// destination that died under it.
const DYNAMIC_DEFAULT_MAX_ATTEMPTS: u32 = 8;

/// A packet queued at a source, waiting to start injection.
#[derive(Debug, Clone)]
struct PendingPacket {
    desc: PacketDescriptor,
    inject_cycle: u64,
    /// Index into the run's message list.
    message_index: usize,
}

/// A packet currently streaming its flits into the local input port.
#[derive(Debug, Clone)]
struct OpenPacket {
    desc: PacketDescriptor,
    message_index: usize,
    sent: u64,
    vc: usize,
}

/// Switch-allocation scratch for [`Simulator::switch_router`], sized at
/// construction and reused by every router and cycle, so allocating a
/// cycle's outputs touches no heap.
#[derive(Debug, Clone, Default)]
struct SwitchScratch {
    /// `buckets[op]`: flat `ip * vcs + vc` indices of the ready fronts
    /// routed to output `op`, ascending.
    buckets: [Vec<usize>; PORTS],
    /// The ready fronts of the output being allocated that hold a
    /// downstream VC with credit, ascending.
    movable: Vec<usize>,
}

impl SwitchScratch {
    /// Scratch for routers with `vcs` virtual channels per port. An input
    /// VC enters a given bucket at most once per router pass, so no bucket
    /// holds more than `PORTS * vcs` entries and none ever reallocates.
    fn new(vcs: usize) -> Self {
        Self {
            buckets: std::array::from_fn(|_| Vec::with_capacity(PORTS * vcs)),
            movable: Vec::with_capacity(PORTS * vcs),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct SourceState {
    pending: VecDeque<PendingPacket>,
    open: Option<OpenPacket>,
    /// Core→router link lanes: first free cycle per physical channel.
    lanes: Vec<u64>,
}

#[derive(Debug, Clone)]
struct MessageState {
    inject_cycle: u64,
    remaining_flits: u64,
    bytes: u64,
    completed_at: Option<u64>,
}

/// Per-packet retransmission bookkeeping (fault mode only; indexed by
/// packet id, which the run assigns densely from 0).
#[derive(Debug, Clone)]
struct PacketRecord {
    desc: PacketDescriptor,
    /// Current (latest) attempt number.
    attempt: u32,
    /// The destination accepted a clean copy.
    delivered: bool,
    /// The source received the acknowledgement.
    acked: bool,
}

/// Reassembly state of one `(packet, attempt)` at the destination NIC.
#[derive(Debug, Clone, Copy, Default)]
struct RecvState {
    received: u64,
    poisoned: bool,
}

/// Flit-accurate simulator for one [`NocConfig`].
///
/// Reusable: each [`Simulator::run`] starts from a clean network.
///
/// # Examples
///
/// ```
/// use lts_noc::traffic::Message;
/// use lts_noc::{NocConfig, Simulator};
///
/// # fn main() -> Result<(), lts_noc::NocError> {
/// let mut sim = Simulator::new(NocConfig::paper_16core())?;
/// // Opposite mesh corners: 6 hops of pipeline + serialization.
/// let report = sim.run(&[Message::new(0, 15, 640, 0)])?;
/// assert_eq!(report.messages_delivered, 1);
/// assert!(report.mean_latency() > 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: NocConfig,
    fault: FaultModel,
    /// Fault-aware next-hop table (`here * nodes + dst`); empty when no
    /// permanent faults are configured (plain dimension-ordered routing).
    routes: Vec<Option<Direction>>,
    /// Resolved first-retry timeout in cycles (fault mode).
    base_timeout: u64,
    topo: Topo,
    routers: Vec<Router>,
    sources: Vec<SourceState>,
    messages: Vec<MessageState>,
    /// message_index per MessageId (identity here, but kept explicit).
    events: EventCounts,
    blocked_flit_cycles: u64,
    /// Flits carried per directed link (`node * 4 + direction`).
    link_flits: Vec<u64>,
    /// Link traversals that stayed on one chiplet. Always equal to
    /// `events.link_traversals` minus `inter_link_traversals`; kept as its
    /// own counter so the split is asserted, not derived.
    intra_link_traversals: u64,
    /// Link traversals that crossed an interposer seam (0 on a mesh).
    inter_link_traversals: u64,
    cycle: u64,
    // --- retransmission-protocol state (used only in fault mode) ---
    packets: Vec<PacketRecord>,
    recv: HashMap<(PacketId, u32), RecvState>,
    /// Acknowledgement arrivals: cycle → packet ids acked then.
    ack_at: BTreeMap<u64, Vec<PacketId>>,
    /// Retransmission deadlines: cycle → packet ids to re-examine.
    timeout_at: BTreeMap<u64, Vec<PacketId>>,
    faults: FaultStats,
    /// Flits of packets accepted cleanly at their destination.
    delivered_flits: u64,
    // --- dynamic mid-run death state (run_recoverable only) ---
    /// Whether the current run executes a time-varying fault schedule.
    dynamic: bool,
    /// Cycle each node died at (`u64::MAX` = alive).
    died_at: Vec<u64>,
    /// `(packet, attempt)` worms whose remaining flits must be discarded.
    doomed: HashSet<(PacketId, u32)>,
    /// Per-message abandonment flags.
    abandoned_msgs: Vec<bool>,
    /// Node deaths noticed so far, in detection order.
    detections: Vec<Detection>,
    /// Nodes already declared dead (first detection wins).
    detected_nodes: HashSet<usize>,
    // --- active-set stepper state ---
    /// Flits buffered in each router's input VCs, maintained incrementally
    /// on every enqueue/dequeue; a router with zero buffered flits is
    /// provably a no-op for switch allocation and is skipped by the
    /// active-set sweep.
    buffered: Vec<u64>,
    /// Sources that must attempt injection this cycle: an open packet is
    /// streaming (possibly lane/credit-blocked — such sources are never
    /// retired) or the front pending packet is due.
    inject_ready: Vec<bool>,
    /// Sleeping sources keyed by the cycle their front pending packet
    /// becomes due; drained into `inject_ready` each stepped cycle.
    inject_wake: BTreeMap<u64, Vec<usize>>,
    /// Cycles the stepper evaluated (for [`SimReport::cycles_simulated`]).
    cycles_simulated: u64,
    /// Idle cycles skipped by fast-forward (for
    /// [`SimReport::cycles_fast_forwarded`]).
    cycles_fast_forwarded: u64,
    /// Reused buffers of the one-pass switch allocator.
    switch: SwitchScratch,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::BadConfig`] for an invalid configuration.
    pub fn new(config: NocConfig) -> Result<Self, NocError> {
        Self::with_faults(config, FaultModel::none())
    }

    /// Creates a simulator that injects faults from `fault`.
    ///
    /// With [`FaultModel::none`] this is exactly [`Simulator::new`]: the
    /// fault-free code path is untouched and reports are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::BadConfig`] for an invalid configuration or
    /// fault model.
    pub fn with_faults(config: NocConfig, fault: FaultModel) -> Result<Self, NocError> {
        config.validate()?;
        fault.validate(&config)?;
        let topo = config.topo();
        let routes = if fault.has_permanent() { plan_routes(&topo, &fault) } else { Vec::new() };
        let base_timeout = if fault.retransmit.base_timeout > 0 {
            fault.retransmit.base_timeout
        } else {
            // Auto: several uncongested round trips, so lightly-loaded
            // traffic rarely retransmits spuriously. Conservative per-hop
            // pricing: the slowest hop class the package actually has
            // (interposer pricing only when seams exist, so a one-chiplet
            // package times out exactly like the plain mesh).
            let diameter = topo.diameter() as u64;
            let (worst_link, worst_ser) = if topo.chiplets() > 1 {
                (
                    config.link_cycles.max(config.link_cycles_for(HopClass::Inter)),
                    config
                        .serialization_cycles()
                        .max(config.serialization_cycles_for(HopClass::Inter)),
                )
            } else {
                (config.link_cycles, config.serialization_cycles())
            };
            let per_hop = config.router_stages + worst_link;
            let packet = config.max_packet_flits as u64 * worst_ser;
            8 * (diameter * per_hop + packet) + 64
        };
        Ok(Self {
            config,
            fault,
            routes,
            base_timeout,
            topo,
            routers: Vec::new(),
            sources: Vec::new(),
            messages: Vec::new(),
            events: EventCounts::default(),
            blocked_flit_cycles: 0,
            link_flits: Vec::new(),
            intra_link_traversals: 0,
            inter_link_traversals: 0,
            cycle: 0,
            packets: Vec::new(),
            recv: HashMap::new(),
            ack_at: BTreeMap::new(),
            timeout_at: BTreeMap::new(),
            faults: FaultStats::default(),
            delivered_flits: 0,
            dynamic: false,
            died_at: Vec::new(),
            doomed: HashSet::new(),
            abandoned_msgs: Vec::new(),
            detections: Vec::new(),
            detected_nodes: HashSet::new(),
            buffered: Vec::new(),
            inject_ready: Vec::new(),
            inject_wake: BTreeMap::new(),
            cycles_simulated: 0,
            cycles_fast_forwarded: 0,
            switch: SwitchScratch::new(config.vcs),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The fault model.
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault
    }

    /// The topology.
    pub fn topo(&self) -> &Topo {
        &self.topo
    }

    /// Whether the fault layer (poisoning, acknowledgements, timeouts) is
    /// engaged for this simulator.
    fn fault_active(&self) -> bool {
        !self.fault.is_none() || self.dynamic
    }

    /// The retransmission bound in force: the configured bound, or — only
    /// for dynamic runs — a finite default so mid-run deaths cannot trap
    /// the NIC in an unbounded retry loop.
    fn effective_max_attempts(&self) -> u32 {
        let configured = self.fault.retransmit.max_attempts;
        if configured == 0 && self.dynamic {
            DYNAMIC_DEFAULT_MAX_ATTEMPTS
        } else {
            configured
        }
    }

    /// Simulates the delivery of `messages` and returns the report.
    ///
    /// Messages with `src == dst` are rejected: same-core data never enters
    /// the NoC (callers filter these out when generating traffic).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::BadNode`] for out-of-range endpoints or
    /// self-messages, [`NocError::Unreachable`] when permanent faults
    /// leave no surviving route between a message's endpoints, and
    /// [`NocError::CycleLimitExceeded`] if the run does not finish within
    /// the configured cycle budget (injected faults can slow delivery
    /// arbitrarily, but never escape this watchdog).
    pub fn run(&mut self, messages: &[Message]) -> Result<SimReport, NocError> {
        let _probe = lts_obs::span("noc.run");
        self.reset();
        self.enqueue(messages)?;
        let delivered = self.drive(messages.len(), false)?;
        Ok(self.build_report(delivered))
    }

    /// The retained pre-overhaul stepper: semantically identical to
    /// [`Simulator::run`] — bit-identical reports, including the cycle
    /// counters — but every evaluated cycle scans all sources and all
    /// `nodes × PORTS` switch outputs unconditionally instead of sweeping
    /// the active set, rescanning every input VC for each output. Kept as
    /// the benchmark baseline and the property-test oracle for the
    /// active-set sweep and the one-pass switch allocator.
    ///
    /// # Errors
    ///
    /// Exactly as [`Simulator::run`].
    pub fn run_reference(&mut self, messages: &[Message]) -> Result<SimReport, NocError> {
        let _probe = lts_obs::span("noc.run_reference");
        self.reset();
        self.enqueue(messages)?;
        let delivered = self.drive(messages.len(), true)?;
        Ok(self.build_report(delivered))
    }

    /// Validates `messages` and queues their packets at the sources,
    /// arming injection wake-ups. Requires a fresh [`Simulator::reset`].
    fn enqueue(&mut self, messages: &[Message]) -> Result<(), NocError> {
        let nodes = self.config.nodes();
        let fault_active = self.fault_active();
        let mut next_packet_id = 0u64;
        // One packetize scratch shared across every message of the run.
        let mut packets = Vec::new();
        for (i, m) in messages.iter().enumerate() {
            if m.src >= nodes {
                return Err(NocError::BadNode { node: m.src, nodes });
            }
            if m.dst >= nodes || m.dst == m.src {
                return Err(NocError::BadNode { node: m.dst, nodes });
            }
            if fault_active {
                let endpoint_dead = self.fault.router_dead(m.src) || self.fault.router_dead(m.dst);
                let no_route =
                    !self.routes.is_empty() && self.routes[m.src * nodes + m.dst].is_none();
                if endpoint_dead || no_route {
                    return Err(NocError::Unreachable { src: m.src, dst: m.dst });
                }
            }
            packetize_into(
                i as u64,
                m.src,
                m.dst,
                m.bytes,
                &self.config,
                &mut next_packet_id,
                &mut packets,
            );
            let flits: u64 = packets.iter().map(|p| p.flits).sum();
            self.messages.push(MessageState {
                inject_cycle: m.inject_cycle,
                remaining_flits: flits,
                bytes: m.bytes,
                completed_at: None,
            });
            for &p in &packets {
                if fault_active {
                    debug_assert_eq!(p.id as usize, self.packets.len());
                    self.packets.push(PacketRecord {
                        desc: p,
                        attempt: 0,
                        delivered: false,
                        acked: false,
                    });
                }
                self.sources[m.src].pending.push_back(PendingPacket {
                    desc: p,
                    inject_cycle: m.inject_cycle,
                    message_index: i,
                });
            }
        }
        // Per-source pending packets must start in inject-cycle order.
        // Traces are usually generated in global injection order, which
        // preserves per-source order — skip the sort (stable, so the
        // result is identical either way) unless actually needed.
        for node in 0..nodes {
            let s = &mut self.sources[node];
            let ordered = s.pending.iter().zip(s.pending.iter().skip(1));
            if ordered.clone().any(|(a, b)| a.inject_cycle > b.inject_cycle) {
                let mut v: Vec<PendingPacket> = s.pending.drain(..).collect();
                v.sort_by_key(|p| p.inject_cycle);
                s.pending = v.into();
            }
            if let Some(p) = self.sources[node].pending.front() {
                let due = p.inject_cycle;
                self.wake_source_at(node, due);
            }
        }
        Ok(())
    }

    /// Steps the static run to completion and returns how many messages
    /// were delivered. `full_scan` selects the retained pre-overhaul
    /// sweep (every source and every router, every evaluated cycle); the
    /// default active-set sweep skips sources with nothing due and
    /// routers with no buffered flits, which are provably no-ops (see
    /// [`Simulator::sweep_routers`]).
    fn drive(&mut self, total: usize, full_scan: bool) -> Result<usize, NocError> {
        let nodes = self.config.nodes();
        let fault_active = self.fault_active();
        let mut delivered = 0usize;
        while delivered < total {
            if self.cycle > self.config.max_cycles {
                return Err(NocError::CycleLimitExceeded {
                    limit: self.config.max_cycles,
                    undelivered: total - delivered,
                });
            }
            let mut activity = false;
            if fault_active {
                self.fire_protocol_events()?;
            }
            self.drain_inject_wake();
            for node in 0..nodes {
                if !full_scan && !self.inject_ready[node] {
                    continue;
                }
                if self.inject(node) {
                    activity = true;
                }
                self.retire_or_keep_source(node);
            }
            let (moved, completed) = self.sweep_routers(full_scan);
            activity |= moved;
            delivered += completed;
            self.cycles_simulated += 1;
            if activity {
                self.cycle += 1;
            } else {
                // Idle: fast-forward to the next event.
                match self.next_event_cycle() {
                    Some(next) if next > self.cycle => {
                        self.cycles_fast_forwarded += next - self.cycle - 1;
                        self.cycle = next;
                    }
                    Some(_) => self.cycle += 1,
                    None => {
                        if fault_active && delivered < total {
                            // Every undelivered packet should hold a pending
                            // timeout; a stall here means the protocol lost
                            // track — surface it as a typed error, never a
                            // hang or a wrong report.
                            return Err(NocError::CycleLimitExceeded {
                                limit: self.config.max_cycles,
                                undelivered: total - delivered,
                            });
                        }
                        // No buffered flits and no pending injections, yet
                        // messages remain — impossible unless accounting broke.
                        debug_assert!(delivered == total, "simulator stalled with no events");
                        break;
                    }
                }
            }
        }
        Ok(delivered)
    }

    /// Reports a finished run's stepper counters and cycle timeline into
    /// `lts-obs`: how many cycles the active-set sweep actually evaluated
    /// versus skipped by fast-forward, plus retransmission-protocol
    /// activity. Cheap no-op while recording is disabled.
    fn record_obs(&self) {
        if !lts_obs::enabled() {
            return;
        }
        lts_obs::counter_add("noc.runs", 1);
        lts_obs::counter_add("noc.cycles_simulated", self.cycles_simulated);
        lts_obs::counter_add("noc.cycles_fast_forwarded", self.cycles_fast_forwarded);
        lts_obs::counter_add("noc.packets_retransmitted", self.faults.packets_retransmitted);
        lts_obs::counter_add("noc.intra_chip_traversals", self.intra_link_traversals);
        lts_obs::counter_add("noc.inter_chip_traversals", self.inter_link_traversals);
        let track = lts_obs::cycle_track_named("noc.stepper");
        lts_obs::cycle_record(track, "active-sweep", "", self.cycles_simulated);
        lts_obs::cycle_record(track, "fast-forward", "", self.cycles_fast_forwarded);
        let hops = lts_obs::cycle_track_named("noc.hops");
        lts_obs::cycle_record(hops, "intra-chip", "", self.intra_link_traversals);
        lts_obs::cycle_record(hops, "inter-chip", "", self.inter_link_traversals);
    }

    /// Assembles the report of a completed static run.
    fn build_report(&mut self, delivered: usize) -> SimReport {
        self.record_obs();
        let makespan = self.messages.iter().filter_map(|m| m.completed_at).max().unwrap_or(0);
        SimReport {
            makespan,
            messages_delivered: delivered,
            bytes_delivered: self.messages.iter().map(|m| m.bytes).sum(),
            // In fault mode some ejected flits belong to rejected or
            // duplicate packets; count only cleanly accepted ones.
            flits_delivered: if self.fault_active() {
                self.delivered_flits
            } else {
                self.events.ejections
            },
            message_latencies: self
                .messages
                .iter()
                .map(|m| m.completed_at.unwrap_or(0).saturating_sub(m.inject_cycle))
                .collect(),
            blocked_flit_cycles: self.blocked_flit_cycles,
            events: self.events,
            link_flits: self.link_flits.clone(),
            intra_chip_traversals: self.intra_link_traversals,
            inter_chip_traversals: self.inter_link_traversals,
            faults: self.faults,
            cycles_simulated: self.cycles_simulated,
            cycles_fast_forwarded: self.cycles_fast_forwarded,
        }
    }

    /// Flags `node` for injection at `cycle` (immediately when due).
    fn wake_source_at(&mut self, node: usize, cycle: u64) {
        if cycle <= self.cycle {
            self.inject_ready[node] = true;
        } else {
            self.inject_wake.entry(cycle).or_default().push(node);
        }
    }

    /// Moves sources whose wake cycle has arrived into the ready set.
    fn drain_inject_wake(&mut self) {
        while let Some((&c, _)) = self.inject_wake.iter().next() {
            if c > self.cycle {
                break;
            }
            for node in self.inject_wake.remove(&c).unwrap_or_default() {
                self.inject_ready[node] = true;
            }
        }
    }

    /// After an injection attempt: keeps `node` in the ready set while it
    /// can make progress next cycle (an open packet is streaming, possibly
    /// blocked on lanes/buffer space, or the front pending packet is due),
    /// otherwise retires it — arming a wake-up for a future pending packet.
    fn retire_or_keep_source(&mut self, node: usize) {
        // A sleeping source already holds a wake-up; re-examining it (the
        // full-scan sweep visits every node) must not arm duplicates.
        if !self.inject_ready[node] {
            return;
        }
        if self.sources[node].open.is_some() {
            return;
        }
        match self.sources[node].pending.front() {
            Some(p) if p.inject_cycle <= self.cycle => {}
            Some(p) => {
                let due = p.inject_cycle;
                self.inject_ready[node] = false;
                self.inject_wake.entry(due).or_default().push(node);
            }
            None => self.inject_ready[node] = false,
        }
    }

    fn reset(&mut self) {
        let nodes = self.config.nodes();
        self.routers = (0..nodes)
            .map(|_| {
                Router::new(
                    self.config.vcs,
                    self.config.vc_buffer_flits,
                    self.config.physical_channels,
                )
            })
            .collect();
        self.sources = (0..nodes)
            .map(|_| SourceState {
                lanes: vec![0u64; self.config.physical_channels],
                ..SourceState::default()
            })
            .collect();
        self.messages.clear();
        self.events = EventCounts::default();
        self.blocked_flit_cycles = 0;
        self.link_flits = vec![0u64; nodes * 4];
        self.intra_link_traversals = 0;
        self.inter_link_traversals = 0;
        self.cycle = 0;
        self.packets.clear();
        self.recv.clear();
        self.ack_at.clear();
        self.timeout_at.clear();
        self.faults = FaultStats::default();
        self.delivered_flits = 0;
        self.dynamic = false;
        self.died_at = vec![u64::MAX; nodes];
        self.doomed.clear();
        self.abandoned_msgs.clear();
        self.detections.clear();
        self.detected_nodes.clear();
        self.buffered = vec![0; nodes];
        self.inject_ready = vec![false; nodes];
        self.inject_wake.clear();
        self.cycles_simulated = 0;
        self.cycles_fast_forwarded = 0;
    }

    /// Delivers due acknowledgements and fires due retransmission
    /// timeouts (fault mode only). Returns how many messages were newly
    /// abandoned (dynamic runs only; always 0 otherwise).
    ///
    /// # Errors
    ///
    /// On a non-dynamic run with a positive retry bound, an exhausted
    /// packet surfaces as [`NocError::Unreachable`] — the regression
    /// guarantee that a permanently unreachable destination never burns
    /// the whole cycle budget.
    fn fire_protocol_events(&mut self) -> Result<usize, NocError> {
        while let Some((&c, _)) = self.ack_at.iter().next() {
            if c > self.cycle {
                break;
            }
            for id in self.ack_at.remove(&c).unwrap_or_default() {
                self.packets[id as usize].acked = true;
            }
        }
        let mut newly_abandoned = 0usize;
        let max_attempts = self.effective_max_attempts();
        while let Some((&c, _)) = self.timeout_at.iter().next() {
            if c > self.cycle {
                break;
            }
            for id in self.timeout_at.remove(&c).unwrap_or_default() {
                let rec = &mut self.packets[id as usize];
                if rec.acked {
                    continue;
                }
                if self.dynamic && self.died_at[rec.desc.src] <= self.cycle {
                    // The sending NIC died; nobody is left to retry.
                    continue;
                }
                if max_attempts > 0 && rec.attempt + 1 >= max_attempts {
                    // Retransmission budget exhausted.
                    let desc = rec.desc;
                    if !self.dynamic {
                        return Err(NocError::Unreachable { src: desc.src, dst: desc.dst });
                    }
                    newly_abandoned += self.abandon_message(desc.message as usize);
                    // Exhaustion against a node that died mid-run doubles
                    // as a detection signal, racing the heartbeat monitor.
                    if self.died_at[desc.dst] <= self.cycle && self.detected_nodes.insert(desc.dst)
                    {
                        self.detections.push(Detection {
                            node: desc.dst,
                            died_at: self.died_at[desc.dst],
                            detected_at: self.cycle,
                            cause: DetectionCause::RetransmitExhaustion,
                        });
                    }
                    continue;
                }
                // No acknowledgement in time: send the packet again. The
                // next timeout arms when the retry finishes injecting.
                rec.attempt += 1;
                self.faults.packets_retransmitted += 1;
                let desc = rec.desc;
                self.sources[desc.src].pending.push_back(PendingPacket {
                    desc,
                    inject_cycle: self.cycle,
                    message_index: desc.message as usize,
                });
                // The retry is due immediately: pull the source out of the
                // active-set sleep state (its armed wake-up, if any, may
                // point arbitrarily far in the future).
                self.inject_ready[desc.src] = true;
            }
        }
        Ok(newly_abandoned)
    }

    /// Gives up on message `mi`: cancels its timers and queued sends and
    /// counts it as resolved. A packet already streaming keeps flowing so
    /// its worm stays well-formed (its flits drain toward the dead
    /// destination and are discarded en route). Returns 1 if the message
    /// was newly abandoned.
    fn abandon_message(&mut self, mi: usize) -> usize {
        if self.abandoned_msgs[mi] || self.messages[mi].completed_at.is_some() {
            return 0;
        }
        self.abandoned_msgs[mi] = true;
        let mut src = None;
        for rec in &mut self.packets {
            if rec.desc.message as usize == mi {
                // Neutralize the timer without faking a delivery.
                rec.acked = true;
                src = Some(rec.desc.src);
            }
        }
        if let Some(s) = src {
            self.sources[s].pending.retain(|p| p.message_index != mi);
        }
        1
    }

    /// Arms the retransmission timer for a fully injected packet, with
    /// bounded exponential backoff over its attempt number.
    fn arm_timeout(&mut self, id: PacketId) {
        let attempt = self.packets[id as usize].attempt;
        let shift = attempt.min(self.fault.retransmit.backoff_cap);
        let wait = self.base_timeout.saturating_mul(1u64 << shift);
        let deadline = self.cycle.saturating_add(wait.max(1));
        self.timeout_at.entry(deadline).or_default().push(id);
    }

    /// Schedules the acknowledgement for a cleanly received packet: an
    /// out-of-band credit modelled at uncongested pipeline latency
    /// (per-hop-class link pricing, so interposer hops cost their share).
    fn schedule_ack(&mut self, id: PacketId) {
        let desc = self.packets[id as usize].desc;
        let route = self.config.uncongested_route_cycles(desc.dst, desc.src);
        let at = self.cycle + route + self.fault.retransmit.ack_overhead + 1;
        self.ack_at.entry(at).or_default().push(id);
    }

    /// Destination-NIC acceptance logic for one ejected flit (fault mode):
    /// reassembles per `(packet, attempt)`, discards poisoned or duplicate
    /// packets, acknowledges and credits clean first deliveries. Returns 1
    /// if this completed a message.
    fn eject_with_protocol(&mut self, flit: Flit) -> usize {
        let key = (flit.packet, flit.attempt);
        let st = self.recv.entry(key).or_default();
        st.received += 1;
        st.poisoned |= flit.poisoned;
        if !flit.is_tail {
            return 0;
        }
        let st = self.recv.remove(&key).unwrap_or_default();
        let id = flit.packet as usize;
        // A poisoned worm may arrive partial on dynamic runs: a mid-run
        // death can destroy body flits and close the worm with a synthetic
        // poisoned tail.
        debug_assert!(
            st.poisoned || st.received == self.packets[id].desc.flits,
            "partial clean packet at tail"
        );
        if st.poisoned {
            // Failed integrity check: drop silently; the source times out.
            self.faults.packets_rejected += 1;
            return 0;
        }
        if self.packets[id].delivered {
            // A late duplicate of an already-accepted packet.
            self.faults.duplicate_packets += 1;
            return 0;
        }
        self.packets[id].delivered = true;
        self.schedule_ack(flit.packet);
        let desc = self.packets[id].desc;
        self.delivered_flits += desc.flits;
        let mi = desc.message as usize;
        let m = &mut self.messages[mi];
        debug_assert!(m.remaining_flits >= desc.flits, "over-delivery of message {mi}");
        m.remaining_flits -= desc.flits;
        if m.remaining_flits == 0 {
            m.completed_at = Some(self.cycle + 1);
            if self.dynamic && self.abandoned_msgs[mi] {
                // A message given up on (e.g. after its source died with
                // everything already in flight) made it after all; it was
                // already counted as resolved when abandoned.
                self.abandoned_msgs[mi] = false;
                return 0;
            }
            return 1;
        }
        0
    }

    /// The planned output direction at `here` toward `dst`, or `None`
    /// when the surviving topology has no route.
    fn lookup_route(&self, yx: bool, here: usize, dst: usize) -> Option<Direction> {
        if self.routes.is_empty() {
            return Some(self.topo.route_ordered(yx, here, dst));
        }
        self.routes[here * self.config.nodes() + dst]
    }

    /// The output direction for a flit at `here`: the fault-aware table
    /// when permanent faults exist, dimension-ordered routing otherwise.
    fn route_for(&self, yx: bool, here: usize, dst: usize) -> Direction {
        match self.lookup_route(yx, here, dst) {
            Some(dir) => dir,
            None => {
                // Unreachable pairs are rejected before injection, and
                // flits only visit nodes on a planned route; on dynamic
                // runs the purge pass removes unroutable heads before
                // they reach arbitration.
                debug_assert!(self.dynamic, "flit at {here} with no route to {dst}");
                self.topo.route_ordered(yx, here, dst)
            }
        }
    }

    /// Streams up to `physical_channels` flits from the node's source queue
    /// into the local input port. Returns whether anything was injected.
    fn inject(&mut self, node: usize) -> bool {
        let mut injected = false;
        let ser = self.config.serialization_cycles();
        // A free core→router lane is needed for every flit.
        while let Some(lane) =
            self.sources[node].lanes.iter().position(|&busy_until| busy_until <= self.cycle)
        {
            // Open the next packet if none is streaming.
            if self.sources[node].open.is_none() {
                let ready = matches!(
                    self.sources[node].pending.front(),
                    Some(p) if p.inject_cycle <= self.cycle
                );
                if !ready {
                    break;
                }
                let yx =
                    self.sources[node].pending.front().map(|p| p.desc.yx).expect("checked above");
                let vc = self
                    .config
                    .vc_class(yx)
                    .find(|&v| self.routers[node].inputs[LOCAL][v].accepts_new_packet());
                let Some(vc) = vc else { break };
                let p = self.sources[node].pending.pop_front().expect("checked above");
                self.sources[node].open =
                    Some(OpenPacket { desc: p.desc, message_index: p.message_index, sent: 0, vc });
            }
            let Some(open) = self.sources[node].open.clone() else { break };
            let queue_len = self.routers[node].inputs[LOCAL][open.vc].queue.len();
            if queue_len >= self.config.vc_buffer_flits {
                break;
            }
            let attempt =
                if self.fault_active() { self.packets[open.desc.id as usize].attempt } else { 0 };
            let flit = Flit {
                packet: open.desc.id,
                message: open.message_index as u64,
                dst: open.desc.dst,
                is_head: open.sent == 0,
                is_tail: open.sent + 1 == open.desc.flits,
                yx: open.desc.yx,
                attempt,
                seq: open.sent,
                poisoned: false,
            };
            self.routers[node].inputs[LOCAL][open.vc].queue.push_back(TimedFlit {
                flit,
                // The flit finishes arriving after `ser` phit cycles, then
                // clears the router pipeline.
                ready_at: self.cycle + (ser - 1) + self.config.router_stages,
            });
            self.buffered[node] += 1;
            self.sources[node].lanes[lane] = self.cycle + ser;
            self.events.buffer_writes += 1;
            injected = true;
            let open_mut = self.sources[node].open.as_mut().expect("still open");
            open_mut.sent += 1;
            if open_mut.sent == open_mut.desc.flits {
                let id = open_mut.desc.id;
                self.sources[node].open = None;
                if self.fault_active() {
                    self.arm_timeout(id);
                }
            }
        }
        injected
    }

    /// Runs switch allocation on every live router, in ascending node
    /// order, and returns `(any flit moved, messages completed)`. The
    /// active-set sweep skips routers with nothing buffered (provably
    /// no-ops) and allocates each visited router in one
    /// [`Simulator::switch_router`] pass; `full_scan` selects the retained
    /// oracle, which visits every router and scans each output separately
    /// with [`Simulator::switch_output`]. Dead routers (dynamic runs only;
    /// every router is alive on a static run) never switch.
    fn sweep_routers(&mut self, full_scan: bool) -> (bool, usize) {
        let mut moved = false;
        let mut completed = 0usize;
        for node in 0..self.config.nodes() {
            if self.died_at[node] <= self.cycle || (!full_scan && self.buffered[node] == 0) {
                continue;
            }
            let (m, c) = if full_scan {
                (0..PORTS).fold((false, 0), |(m, c), op| {
                    let (mo, co) = self.switch_output(node, op);
                    (m | mo, c + co)
                })
            } else {
                self.switch_router(node)
            };
            moved |= m;
            completed += c;
        }
        (moved, completed)
    }

    /// Latches the route of the front flit of `(node, ip, vc)` if that
    /// flit has cleared the pipeline — a head computes its route once,
    /// when it first reaches the front — and returns the route. `None`
    /// when the VC is empty or its front is not ready this cycle.
    fn latch_ready_front(&mut self, node: usize, ip: usize, vc: usize) -> Option<Direction> {
        let input = &self.routers[node].inputs[ip][vc];
        let tf = input.queue.front()?;
        if tf.ready_at > self.cycle {
            return None;
        }
        if input.route.is_some() {
            return input.route;
        }
        let flit = tf.flit;
        debug_assert!(flit.is_head, "non-head flit with no route state");
        let dir = self.route_for(flit.yx, node, flit.dst);
        let input = &mut self.routers[node].inputs[ip][vc];
        input.route = Some(dir);
        input.active = Some(flit);
        Some(dir)
    }

    /// Whether the ready front of `(node, ip, vc)`, routed to output `op`,
    /// may traverse this cycle: ejection needs nothing; a mesh output needs
    /// a downstream VC — allocated here for a head, within the packet's
    /// dimension-order VC class — with at least one credit.
    fn can_move(&mut self, node: usize, op: usize, ip: usize, vc: usize) -> bool {
        if op == LOCAL {
            return true;
        }
        let out_vc = match self.routers[node].inputs[ip][vc].out_vc {
            Some(v) => Some(v),
            None => {
                self.events.arbitrations += 1;
                let yx = self.routers[node].inputs[ip][vc]
                    .queue
                    .front()
                    .map(|tf| tf.flit.yx)
                    .unwrap_or(false);
                let free = self
                    .config
                    .vc_class(yx)
                    .find(|&v| self.routers[node].outputs[op][v].holder.is_none());
                if let Some(v) = free {
                    self.routers[node].outputs[op][v].holder = Some((ip, vc));
                    self.routers[node].inputs[ip][vc].out_vc = Some(v);
                }
                free
            }
        };
        out_vc.is_some_and(|v| self.routers[node].outputs[op][v].credits > 0)
    }

    /// Runs switch allocation and traversal for every output of one router
    /// in one pass. Returns `(any flit moved, messages completed)`.
    ///
    /// Bit-identical to calling [`Simulator::switch_output`] for each
    /// output in port order, without its per-output rescans: the ready
    /// fronts are latched once and bucketed by output in ascending flat
    /// `(ip, vc)` order, and each output's winners are the first movable
    /// fronts at or after its round-robin pointer, wrapping. Outputs of one
    /// router share no state except the input queues, so the one coupling
    /// is a winning tail exposing a head that is already ready: the
    /// per-output scan would latch it at the next output and offer it to
    /// every later one. The same rule applies here — the head latches at
    /// once (only if a later output exists) and joins a later output's
    /// bucket in sorted position.
    fn switch_router(&mut self, node: usize) -> (bool, usize) {
        let vcs = self.config.vcs;
        let slots = PORTS * vcs;
        let mut scratch = std::mem::take(&mut self.switch);
        for bucket in &mut scratch.buckets {
            bucket.clear();
        }
        for f in 0..slots {
            if let Some(dir) = self.latch_ready_front(node, f / vcs, f % vcs) {
                scratch.buckets[dir.index()].push(f);
            }
        }
        let mut moved = false;
        let mut completed = 0usize;
        for op in 0..PORTS {
            let (done, later) = scratch.buckets.split_at_mut(op + 1);
            let ready = &done[op];
            if ready.is_empty() {
                continue;
            }
            scratch.movable.clear();
            for &f in ready {
                if self.can_move(node, op, f / vcs, f % vcs) {
                    scratch.movable.push(f);
                }
            }
            // Everything ready but not movable (or losing arbitration
            // below, or stalled on a busy physical lane) counts as blocked.
            let free_lanes = self.routers[node].free_lanes(op, self.cycle);
            let winners = scratch.movable.len().min(free_lanes);
            self.blocked_flit_cycles += (ready.len() - winners) as u64;
            if winners == 0 {
                continue;
            }
            moved = true;
            let pointer = self.routers[node].rr_pointer[op];
            let first = scratch.movable.partition_point(|&f| f < pointer);
            for i in 0..winners {
                let f = scratch.movable[(first + i) % scratch.movable.len()];
                let (ip, vc) = (f / vcs, f % vcs);
                self.events.arbitrations += 1;
                completed += self.traverse(node, op, ip, vc);
                self.routers[node].rr_pointer[op] = (f + 1) % slots;
                // A tail left (its route cleared): re-latch the exposed head.
                if op + 1 < PORTS && self.routers[node].inputs[ip][vc].route.is_none() {
                    if let Some(dir) = self.latch_ready_front(node, ip, vc) {
                        if dir.index() > op {
                            let bucket = &mut later[dir.index() - op - 1];
                            let at = bucket.partition_point(|&g| g < f);
                            bucket.insert(at, f);
                        }
                    }
                }
            }
        }
        self.switch = scratch;
        (moved, completed)
    }

    /// Runs switch allocation and traversal for one output port of one
    /// router. Returns `(any flit moved, messages completed)`.
    ///
    /// The retained pre-overhaul scan behind [`Simulator::run_reference`]
    /// and [`Simulator::run_recoverable_reference`]: it rescans every input
    /// VC for each output and sorts the candidates into round-robin order.
    /// [`Simulator::switch_router`] must match it bit for bit.
    fn switch_output(&mut self, node: usize, op: usize) -> (bool, usize) {
        let vcs = self.config.vcs;
        let op_dir = Direction::ALL[op];
        // 1. Gather candidates: (input port, vc) whose front flit is ready
        //    and routed to this output.
        let mut ready: Vec<(usize, usize)> = Vec::new();
        for ip in 0..PORTS {
            for vc in 0..vcs {
                if self.latch_ready_front(node, ip, vc) == Some(op_dir) {
                    ready.push((ip, vc));
                }
            }
        }
        if ready.is_empty() {
            return (false, 0);
        }
        // 2. Filter by VC allocation + credits (ejection needs neither).
        let mut movable: Vec<(usize, usize)> = Vec::new();
        for &(ip, vc) in &ready {
            if self.can_move(node, op, ip, vc) {
                movable.push((ip, vc));
            }
        }
        // Everything ready but not movable (or losing arbitration below,
        // or stalled on a busy physical lane) counts as blocked this cycle.
        let free_lanes = self.routers[node].free_lanes(op, self.cycle);
        let winners = movable.len().min(free_lanes);
        self.blocked_flit_cycles += (ready.len() - winners) as u64;
        if winners == 0 {
            return (false, 0);
        }
        // 3. Round-robin pick among movable.
        let mut completed = 0usize;
        let flat = |ip: usize, vc: usize| ip * vcs + vc;
        let pointer = self.routers[node].rr_pointer[op];
        let mut order: Vec<(usize, usize)> = movable.clone();
        order.sort_by_key(|&(ip, vc)| {
            let f = flat(ip, vc);
            (f + PORTS * vcs - pointer) % (PORTS * vcs)
        });
        for &(ip, vc) in order.iter().take(winners) {
            self.events.arbitrations += 1;
            completed += self.traverse(node, op, ip, vc);
            self.routers[node].rr_pointer[op] = (flat(ip, vc) + 1) % (PORTS * vcs);
        }
        (true, completed)
    }

    /// Moves the front flit of `(node, ip, vc)` through output `op`.
    /// Returns 1 if this completed a message.
    fn traverse(&mut self, node: usize, op: usize, ip: usize, vc: usize) -> usize {
        // Hop-class pricing: a seam-crossing output rides the interposer
        // (wider phits → shorter serialization, longer link latency). On a
        // plain mesh every class is `Intra` and the constants are exactly
        // the pre-MCM ones.
        let class = if op == LOCAL {
            HopClass::Intra
        } else {
            self.topo.hop_class(node, Direction::ALL[op])
        };
        let ser = self.config.serialization_cycles_for(class);
        let lane = self.routers[node]
            .free_lane(op, self.cycle)
            .expect("winner count bounded by free lanes");
        self.routers[node].lanes[op][lane] = self.cycle + ser;
        let tf = self.routers[node].inputs[ip][vc]
            .queue
            .pop_front()
            .expect("movable candidate has a front flit");
        self.buffered[node] -= 1;
        self.events.buffer_reads += 1;
        self.events.crossbar_traversals += 1;
        // Credit return to the upstream router (none for local injections:
        // the source checks buffer space directly).
        if ip != LOCAL {
            let ip_dir = Direction::ALL[ip];
            let upstream =
                self.topo.neighbor(node, ip_dir).expect("mesh input port implies a neighbor");
            let up_out = ip_dir.opposite().index();
            self.routers[upstream].outputs[up_out][vc].credits += 1;
        }
        let out_vc = self.routers[node].inputs[ip][vc].out_vc;
        if tf.flit.is_tail {
            self.routers[node].inputs[ip][vc].route = None;
            self.routers[node].inputs[ip][vc].out_vc = None;
            self.routers[node].inputs[ip][vc].active = None;
        }
        if op == LOCAL {
            // Ejection.
            self.events.ejections += 1;
            if self.fault_active() {
                return self.eject_with_protocol(tf.flit);
            }
            let mi = tf.flit.message as usize;
            let m = &mut self.messages[mi];
            debug_assert!(m.remaining_flits > 0, "over-delivery of message {mi}");
            m.remaining_flits -= 1;
            if m.remaining_flits == 0 {
                m.completed_at = Some(self.cycle + 1);
                return 1;
            }
            return 0;
        }
        let v = out_vc.expect("mesh traversal requires an allocated VC");
        let op_dir = Direction::ALL[op];
        let downstream =
            self.topo.neighbor(node, op_dir).expect("routing never leaves the topology");
        if self.dynamic
            && (self.died_at[downstream] <= self.cycle
                || edge_dead(&self.fault, &self.topo, node, op_dir))
        {
            // Null sink: the flit vanishes on the dead link / into the dead
            // router. Upstream credit was already returned; the downstream
            // buffer is never occupied, so no credit is consumed.
            self.faults.flits_lost += 1;
            if tf.flit.is_tail && self.routers[node].outputs[op][v].holder == Some((ip, vc)) {
                self.routers[node].outputs[op][v].holder = None;
            }
            return 0;
        }
        self.routers[node].outputs[op][v].credits -= 1;
        if tf.flit.is_tail {
            self.routers[node].outputs[op][v].holder = None;
        }
        let in_port = op_dir.opposite().index();
        let mut flit = tf.flit;
        if self.fault.has_transient() {
            // Transient faults poison the flit in place: it still occupies
            // link bandwidth and buffer space (wormhole invariants hold),
            // but the destination NIC will reject the whole packet.
            let link = (node * 4 + op) as u64;
            if self.fault.drops_flit(flit.packet, flit.attempt, flit.seq, link) {
                if !flit.poisoned {
                    self.faults.flits_dropped += 1;
                }
                flit.poisoned = true;
            } else if self.fault.corrupts_flit(flit.packet, flit.attempt, flit.seq, link) {
                if !flit.poisoned {
                    self.faults.flits_corrupted += 1;
                }
                flit.poisoned = true;
            }
        }
        self.routers[downstream].inputs[in_port][v].queue.push_back(TimedFlit {
            flit,
            // Last phit lands after `ser` cycles on the link, then the
            // downstream pipeline processes the flit.
            ready_at: self.cycle
                + (ser - 1)
                + self.config.link_cycles_for(class)
                + self.config.router_stages,
        });
        self.buffered[downstream] += 1;
        self.events.link_traversals += 1;
        match class {
            HopClass::Intra => self.intra_link_traversals += 1,
            HopClass::Inter => self.inter_link_traversals += 1,
        }
        self.events.buffer_writes += 1;
        self.link_flits[node * 4 + op] += 1;
        0
    }

    /// Runs `messages` under a time-varying fault `schedule` with online
    /// death detection via the heartbeat `monitor`.
    ///
    /// With an empty schedule this is exactly [`Simulator::run`] — the
    /// report is bit-identical to the static path. With scheduled deaths
    /// the run keeps going on the degraded topology: flits crossing dead
    /// hardware are discarded, severed wormholes are closed with synthetic
    /// poisoned tails so no VC stays wedged, undeliverable messages are
    /// abandoned after a bounded retransmission budget (a finite default
    /// applies even when [`crate::RetransmitConfig::max_attempts`] is 0),
    /// and each router death is detected either by `miss_threshold`
    /// consecutive missed heartbeats or by NIC retransmission exhaustion —
    /// whichever fires first. The run extends past delivery until every
    /// scheduled death has had its detection deadline, so reported
    /// detection latencies are complete.
    ///
    /// The simulator's static fault model and routes are restored
    /// afterwards, so the same instance can keep serving static runs.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::BadConfig`] for an invalid schedule or monitor,
    /// [`NocError::BadNode`] / [`NocError::Unreachable`] for endpoints
    /// invalid before the run starts, and [`NocError::CycleLimitExceeded`]
    /// if the run outlives `max_cycles` — it never hangs past the
    /// watchdog.
    pub fn run_recoverable(
        &mut self,
        messages: &[Message],
        schedule: &FaultSchedule,
        monitor: &MonitorConfig,
    ) -> Result<RecoverableReport, NocError> {
        self.run_recoverable_mode(messages, schedule, monitor, false)
    }

    /// The retained pre-overhaul full-scan variant of
    /// [`Simulator::run_recoverable`]: semantically identical (bit-identical
    /// reports, detections and abandonment sets) but without the active-set
    /// sweep. Kept as the benchmark baseline and property-test oracle.
    ///
    /// # Errors
    ///
    /// Exactly as [`Simulator::run_recoverable`].
    pub fn run_recoverable_reference(
        &mut self,
        messages: &[Message],
        schedule: &FaultSchedule,
        monitor: &MonitorConfig,
    ) -> Result<RecoverableReport, NocError> {
        self.run_recoverable_mode(messages, schedule, monitor, true)
    }

    fn run_recoverable_mode(
        &mut self,
        messages: &[Message],
        schedule: &FaultSchedule,
        monitor: &MonitorConfig,
        full_scan: bool,
    ) -> Result<RecoverableReport, NocError> {
        let _probe = lts_obs::span("noc.run_recoverable");
        schedule.validate(&self.config)?;
        monitor.validate(&self.config)?;
        // Hierarchical package-level events (chiplet/seam deaths) lower
        // to flat router/link deaths here, so the stepper below only
        // ever sees hardware-granularity faults.
        let schedule = schedule.expanded(&self.config)?;
        if schedule.is_empty() {
            let report =
                if full_scan { self.run_reference(messages)? } else { self.run(messages)? };
            return Ok(RecoverableReport { report, detections: Vec::new(), abandoned: Vec::new() });
        }
        let saved_fault = self.fault.clone();
        let saved_routes = self.routes.clone();
        let result = self.run_recoverable_inner(messages, &schedule, monitor, full_scan);
        self.fault = saved_fault;
        self.routes = saved_routes;
        self.dynamic = false;
        result
    }

    fn run_recoverable_inner(
        &mut self,
        messages: &[Message],
        schedule: &FaultSchedule,
        monitor: &MonitorConfig,
        full_scan: bool,
    ) -> Result<RecoverableReport, NocError> {
        self.reset();
        self.dynamic = true;
        self.abandoned_msgs = vec![false; messages.len()];
        let nodes = self.config.nodes();
        // Endpoints must be alive *at the start*; deaths after cycle 0
        // are the whole point of this entry point (`enqueue` checks the
        // static fault model because `dynamic` is already set).
        self.enqueue(messages)?;

        // Heartbeat arithmetic is resolvable up front: beat deadlines are a
        // pure function of the schedule, so precompute when the monitor
        // will declare each scheduled router death (the in-sim exhaustion
        // path can still race these and win).
        let events = schedule.sorted();
        let monitor_death = events.iter().find_map(|e| match e.kind {
            FaultEventKind::RouterDeath { node } if node == monitor.monitor => Some(e.cycle),
            _ => None,
        });
        let mut beats: Vec<(u64, usize, u64)> = Vec::new();
        let mut scheduled: HashSet<usize> = HashSet::new();
        for e in &events {
            if let FaultEventKind::RouterDeath { node } = e.kind {
                // The monitor cannot observe its own death, and deaths it
                // would only have noticed after dying go unreported.
                if node == monitor.monitor || !scheduled.insert(node) {
                    continue;
                }
                let det = monitor.detection_cycle(&self.config, node, e.cycle);
                if monitor_death.is_none_or(|md| det <= md) {
                    beats.push((det, node, e.cycle));
                }
            }
        }
        beats.sort_unstable();

        let total = self.messages.len();
        let mut resolved = 0usize;
        let mut next_event = 0usize;
        let mut next_beat = 0usize;
        while resolved < total || next_event < events.len() || next_beat < beats.len() {
            if self.cycle > self.config.max_cycles {
                return Err(NocError::CycleLimitExceeded {
                    limit: self.config.max_cycles,
                    undelivered: self.messages.iter().filter(|m| m.completed_at.is_none()).count(),
                });
            }
            let mut activity = false;
            while next_event < events.len() && events[next_event].cycle <= self.cycle {
                let e = events[next_event];
                next_event += 1;
                match e.kind {
                    FaultEventKind::RouterDeath { node } => {
                        resolved += self.apply_router_death(node);
                    }
                    FaultEventKind::LinkDeath { node, dir } => self.apply_link_death(node, dir),
                    FaultEventKind::ChipletDeath { .. } | FaultEventKind::SeamDeath { .. } => {
                        unreachable!("hierarchical fault events are lowered before stepping")
                    }
                }
            }
            while next_beat < beats.len()
                && (beats[next_beat].0 <= self.cycle
                    || self.detected_nodes.contains(&beats[next_beat].1))
            {
                let (det, node, died) = beats[next_beat];
                next_beat += 1;
                if self.detected_nodes.insert(node) {
                    resolved += self.declare_dead(Detection {
                        node,
                        died_at: died,
                        detected_at: det,
                        cause: DetectionCause::MissedHeartbeats,
                    });
                }
            }
            resolved += self.fire_protocol_events()?;
            if self.purge_unroutable(full_scan) {
                activity = true;
            }
            self.drain_inject_wake();
            for node in 0..nodes {
                if self.died_at[node] <= self.cycle {
                    continue;
                }
                if !full_scan && !self.inject_ready[node] {
                    continue;
                }
                if self.inject(node) {
                    activity = true;
                }
                self.retire_or_keep_source(node);
            }
            let (moved, completed) = self.sweep_routers(full_scan);
            activity |= moved;
            resolved += completed;
            self.cycles_simulated += 1;
            if activity {
                self.cycle += 1;
            } else {
                // Everything may have resolved within this iteration (e.g.
                // an exhaustion-detection after this cycle's beat check):
                // re-test the loop condition before treating an empty wake
                // list as a wedged network.
                if resolved >= total && next_event >= events.len() && next_beat >= beats.len() {
                    break;
                }
                let pending_protocol =
                    [events.get(next_event).map(|e| e.cycle), beats.get(next_beat).map(|b| b.0)];
                let next = self
                    .next_event_cycle()
                    .into_iter()
                    .chain(pending_protocol.into_iter().flatten())
                    .map(|c| c.max(self.cycle + 1))
                    .min();
                match next {
                    Some(n) if n > self.cycle => {
                        self.cycles_fast_forwarded += n - self.cycle - 1;
                        self.cycle = n;
                    }
                    Some(_) => self.cycle += 1,
                    None => {
                        return Err(NocError::CycleLimitExceeded {
                            limit: self.config.max_cycles,
                            undelivered: self
                                .messages
                                .iter()
                                .filter(|m| m.completed_at.is_none())
                                .count(),
                        });
                    }
                }
            }
        }

        self.record_obs();
        let makespan = self.messages.iter().filter_map(|m| m.completed_at).max().unwrap_or(0);
        let abandoned: Vec<usize> =
            self.abandoned_msgs.iter().enumerate().filter_map(|(i, &a)| a.then_some(i)).collect();
        let report = SimReport {
            makespan,
            messages_delivered: total - abandoned.len(),
            bytes_delivered: self
                .messages
                .iter()
                .zip(&self.abandoned_msgs)
                .filter(|&(_, &a)| !a)
                .map(|(m, _)| m.bytes)
                .sum(),
            flits_delivered: self.delivered_flits,
            message_latencies: self
                .messages
                .iter()
                .map(|m| m.completed_at.unwrap_or(0).saturating_sub(m.inject_cycle))
                .collect(),
            blocked_flit_cycles: self.blocked_flit_cycles,
            events: self.events,
            link_flits: self.link_flits.clone(),
            intra_chip_traversals: self.intra_link_traversals,
            inter_chip_traversals: self.inter_link_traversals,
            faults: self.faults,
            cycles_simulated: self.cycles_simulated,
            cycles_fast_forwarded: self.cycles_fast_forwarded,
        };
        Ok(RecoverableReport {
            report,
            detections: std::mem::take(&mut self.detections),
            abandoned,
        })
    }

    /// Records a detection and gives up on all unresolved traffic destined
    /// to the declared-dead node (the monitor broadcasts the verdict, so
    /// NICs stop waiting on their own exhaustion timers). Returns how many
    /// messages were newly abandoned.
    fn declare_dead(&mut self, detection: Detection) -> usize {
        let node = detection.node;
        self.detections.push(detection);
        let doomed_msgs: Vec<usize> = self
            .packets
            .iter()
            .filter(|r| r.desc.dst == node)
            .map(|r| r.desc.message as usize)
            .collect();
        let mut abandoned = 0;
        for mi in doomed_msgs {
            abandoned += self.abandon_message(mi);
        }
        abandoned
    }

    /// Kills `node` mid-run: reshapes the fault model and routes, discards
    /// everything buffered inside the router, restores neighbour credit
    /// pools (no credit will ever return from the dead router), closes
    /// worms severed mid-stream, and abandons the dead core's own traffic.
    /// Returns how many messages were newly abandoned.
    fn apply_router_death(&mut self, node: usize) -> usize {
        if self.died_at[node] <= self.cycle {
            return 0;
        }
        self.died_at[node] = self.cycle;
        self.fault = self.fault.clone().kill_router(node);
        self.routes = plan_routes(&self.topo, &self.fault);
        for ip in 0..PORTS {
            for vc in 0..self.config.vcs {
                let input = &mut self.routers[node].inputs[ip][vc];
                let lost = input.queue.len() as u64;
                input.queue.clear();
                input.route = None;
                input.out_vc = None;
                input.active = None;
                self.faults.flits_lost += lost;
            }
        }
        self.buffered[node] = 0;
        for dir in [Direction::North, Direction::East, Direction::South, Direction::West] {
            let Some(nb) = self.topo.neighbor(node, dir) else { continue };
            let toward_dead = dir.opposite().index();
            for vc in 0..self.config.vcs {
                self.routers[nb].outputs[toward_dead][vc].credits = self.config.vc_buffer_flits;
            }
            self.close_severed_worms(nb, toward_dead);
        }
        self.sources[node].pending.clear();
        self.sources[node].open = None;
        // A dead core never injects again; drop it from the active set
        // (any armed wake-up degenerates to a no-op visit).
        self.inject_ready[node] = false;
        let orphaned: Vec<usize> = self
            .packets
            .iter()
            .filter(|r| r.desc.src == node)
            .map(|r| r.desc.message as usize)
            .collect();
        let mut abandoned = 0;
        for mi in orphaned {
            abandoned += self.abandon_message(mi);
        }
        abandoned
    }

    /// Kills the link `(node, dir)` mid-run (both directions): reshapes
    /// routes and closes worms severed across the link. Flits later
    /// crossing the dead link are discarded by [`Simulator::traverse`].
    fn apply_link_death(&mut self, node: usize, dir: Direction) {
        let Some(nb) = self.topo.neighbor(node, dir) else {
            return; // A mesh-edge "link" has no far side; nothing to kill.
        };
        self.fault = self.fault.clone().kill_link(node, dir);
        self.routes = plan_routes(&self.topo, &self.fault);
        // Both receiving sides may hold worms whose remaining flits were
        // still across the link (the sending sides self-heal: their flits
        // drain into the null sink and the real tail clears their state).
        self.close_severed_worms(nb, dir.opposite().index());
        self.close_severed_worms(node, dir.index());
    }

    /// Closes incomplete worms on input port `ip` of `node` after the
    /// upstream hardware feeding that port died: any worm still waiting
    /// for flits that can no longer arrive gets a synthetic poisoned tail
    /// appended, which then follows the worm's latched route trail,
    /// releasing per-hop VC state; the destination NIC rejects the partial
    /// packet, and the source retransmits or exhausts its budget.
    fn close_severed_worms(&mut self, node: usize, ip: usize) {
        if self.died_at[node] <= self.cycle {
            return;
        }
        // The synthetic tail notionally crossed the severed input link, so
        // it lands with that link's class timing.
        let class = if ip == LOCAL {
            HopClass::Intra
        } else {
            self.topo.hop_class(node, Direction::ALL[ip])
        };
        let ser = self.config.serialization_cycles_for(class);
        let ready_at =
            self.cycle + (ser - 1) + self.config.link_cycles_for(class) + self.config.router_stages;
        for vc in 0..self.config.vcs {
            let input = &mut self.routers[node].inputs[ip][vc];
            // Worms are contiguous, so only the last worm in the queue can
            // be incomplete; an idle VC has neither flits nor a latched
            // worm. A queue already ending in a tail needs no closure.
            let template = match input.queue.back() {
                Some(tf) if tf.flit.is_tail => None,
                Some(tf) => Some(tf.flit),
                None => input.active,
            };
            let Some(worm) = template else { continue };
            let tail =
                Flit { is_head: false, is_tail: true, poisoned: true, seq: u64::MAX, ..worm };
            input.queue.push_back(TimedFlit { flit: tail, ready_at });
            self.buffered[node] += 1;
            self.events.buffer_writes += 1;
        }
    }

    /// Drops ready front flits that can no longer route anywhere (their
    /// destination became unreachable mid-run), plus the rest of each such
    /// worm as it surfaces. Returns whether anything was dropped.
    fn purge_unroutable(&mut self, full_scan: bool) -> bool {
        let mut dropped_any = false;
        for node in 0..self.config.nodes() {
            if self.died_at[node] <= self.cycle {
                continue;
            }
            // An empty router has nothing to purge; only the retained
            // full-scan stepper insists on visiting it anyway.
            if !full_scan && self.buffered[node] == 0 {
                continue;
            }
            for ip in 0..PORTS {
                for vc in 0..self.config.vcs {
                    loop {
                        let front = self.routers[node].inputs[ip][vc].queue.front().copied();
                        let Some(tf) = front else { break };
                        if tf.ready_at > self.cycle {
                            break;
                        }
                        let key = (tf.flit.packet, tf.flit.attempt);
                        let doomed = self.doomed.contains(&key);
                        let unroutable = !doomed
                            && tf.flit.is_head
                            && self.routers[node].inputs[ip][vc].route.is_none()
                            && self.lookup_route(tf.flit.yx, node, tf.flit.dst).is_none();
                        if !doomed && !unroutable {
                            break;
                        }
                        if unroutable && !tf.flit.is_tail {
                            self.doomed.insert(key);
                        }
                        self.routers[node].inputs[ip][vc].queue.pop_front();
                        self.buffered[node] -= 1;
                        self.faults.flits_lost += 1;
                        dropped_any = true;
                        if ip != LOCAL {
                            let ip_dir = Direction::ALL[ip];
                            let upstream = self
                                .topo
                                .neighbor(node, ip_dir)
                                .expect("mesh input port implies a neighbor");
                            if self.died_at[upstream] > self.cycle {
                                self.routers[upstream].outputs[ip_dir.opposite().index()][vc]
                                    .credits += 1;
                            }
                        }
                        if tf.flit.is_tail {
                            self.doomed.remove(&key);
                            self.routers[node].inputs[ip][vc].route = None;
                            self.routers[node].inputs[ip][vc].out_vc = None;
                            self.routers[node].inputs[ip][vc].active = None;
                        }
                    }
                }
            }
        }
        dropped_any
    }

    /// The earliest future cycle at which anything can happen.
    fn next_event_cycle(&self) -> Option<u64> {
        let buffered = self.routers.iter().filter_map(Router::earliest_ready).min();
        let inject = self
            .sources
            .iter()
            .filter_map(|s| {
                if s.open.is_some() {
                    // An open packet stalled on buffer space becomes
                    // unblocked by flit movement, which counts as activity;
                    // still, poll next cycle.
                    Some(self.cycle + 1)
                } else {
                    s.pending.front().map(|p| p.inject_cycle.max(self.cycle + 1))
                }
            })
            .min();
        // Pending acknowledgements and retransmission deadlines are events
        // too: cycle fast-forwarding must not skip over them.
        let ack = self.ack_at.keys().next().copied();
        let timeout = self.timeout_at.keys().next().copied();
        [buffered, inject, ack, timeout].into_iter().flatten().map(|c| c.max(self.cycle + 1)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{all_to_all, uniform_random};

    fn sim() -> Simulator {
        Simulator::new(NocConfig::paper_16core()).unwrap()
    }

    /// Node 5 of the 4x4 mesh with worm A's tail at the front of its west
    /// input VC 0 (route latched to `a_route`, downstream VC 0 held) and a
    /// ready single-flit packet B to `b_dst` queued behind it.
    fn tail_then_head(a_route: Direction, b_dst: usize) -> Simulator {
        let mut s = sim();
        s.reset();
        for _ in 0..2 {
            s.messages.push(MessageState {
                inject_cycle: 0,
                remaining_flits: 1,
                bytes: 8,
                completed_at: None,
            });
        }
        let flit = |message: u64, dst: usize, is_head: bool| Flit {
            packet: message,
            message,
            dst,
            is_head,
            is_tail: true,
            yx: false,
            attempt: 0,
            seq: 0,
            poisoned: false,
        };
        let (node, west) = (5, Direction::West.index());
        let a_dst = if a_route == Direction::Local { node } else { 6 };
        let router = &mut s.routers[node];
        let input = &mut router.inputs[west][0];
        input.queue.push_back(TimedFlit { flit: flit(0, a_dst, false), ready_at: 0 });
        input.queue.push_back(TimedFlit { flit: flit(1, b_dst, true), ready_at: 0 });
        input.route = Some(a_route);
        input.active = Some(flit(0, a_dst, true));
        if a_route != Direction::Local {
            input.out_vc = Some(0);
            router.outputs[a_route.index()][0].holder = Some((west, 0));
        }
        s.buffered[node] = 2;
        s
    }

    /// Allocates node 5 once in one pass and once per output with the
    /// oracle scan behind [`Simulator::run_reference`]; asserts identical
    /// state and returns the one-pass side.
    fn allocate_both_ways(s: &Simulator) -> (Simulator, usize) {
        let mut one_pass = s.clone();
        let (_, completed) = one_pass.switch_router(5);
        let mut oracle = s.clone();
        let oracle_completed: usize = (0..PORTS).map(|op| oracle.switch_output(5, op).1).sum();
        assert_eq!(completed, oracle_completed);
        assert_eq!(format!("{:?}", one_pass.routers), format!("{:?}", oracle.routers));
        assert_eq!(one_pass.events, oracle.events);
        assert_eq!(one_pass.blocked_flit_cycles, oracle.blocked_flit_cycles);
        assert_eq!(one_pass.link_flits, oracle.link_flits);
        assert_eq!(one_pass.buffered, oracle.buffered);
        (one_pass, completed)
    }

    #[test]
    fn exposed_head_leaves_on_a_later_output_in_the_same_cycle() {
        // A's tail leaves east; B (to node 5 itself) is already ready and
        // routes to the later local output, so it ejects this cycle too.
        let (s, completed) = allocate_both_ways(&tail_then_head(Direction::East, 5));
        assert!(s.routers[5].inputs[Direction::West.index()][0].queue.is_empty());
        assert_eq!((s.events.link_traversals, s.events.ejections, completed), (1, 1, 1));
        assert_eq!(s.messages[1].completed_at, Some(1));
    }

    #[test]
    fn exposed_head_routed_to_an_earlier_output_waits_but_latches() {
        // B (to node 1) routes north, an output already allocated this
        // cycle: it latches its route but stays queued.
        let (s, _) = allocate_both_ways(&tail_then_head(Direction::East, 1));
        let input = &s.routers[5].inputs[Direction::West.index()][0];
        assert_eq!((input.queue.len(), input.route), (1, Some(Direction::North)));
        assert_eq!(s.events.link_traversals, 1);
    }

    #[test]
    fn head_exposed_by_the_last_output_latches_next_cycle() {
        // A's tail ejects on the local output, the last one: no later
        // output exists, so B's route stays unlatched this cycle.
        let (s, completed) = allocate_both_ways(&tail_then_head(Direction::Local, 6));
        let input = &s.routers[5].inputs[Direction::West.index()][0];
        assert_eq!((input.queue.len(), input.route, completed), (1, None, 1));
    }

    #[test]
    fn single_flit_message_has_minimum_latency() {
        let mut s = sim();
        // Node 0 -> node 1: 1 hop. Pipeline: inject ready at +3, local
        // router traverses, +3+1 at next router, eject.
        let r = s.run(&[Message::new(0, 1, 8, 0)]).unwrap();
        assert_eq!(r.messages_delivered, 1);
        assert_eq!(r.flits_delivered, 1);
        // Lower bound: 2 router traversals * 3 stages + 1 link cycle +
        // 2 link serializations of 8 phit-cycles each (64-bit phits).
        assert!(r.message_latencies[0] >= 7 + 14, "latency {}", r.message_latencies[0]);
        assert!(r.message_latencies[0] <= 35, "latency {}", r.message_latencies[0]);
    }

    #[test]
    fn longer_distances_take_longer() {
        let mut s = sim();
        let near = s.run(&[Message::new(0, 1, 1024, 0)]).unwrap();
        let far = s.run(&[Message::new(0, 15, 1024, 0)]).unwrap();
        assert!(far.message_latencies[0] > near.message_latencies[0]);
    }

    #[test]
    fn all_messages_delivered_under_burst() {
        let mut s = sim();
        let trace = all_to_all(16, 2048);
        let r = s.run(&trace.messages).unwrap();
        assert_eq!(r.messages_delivered, trace.len());
        assert_eq!(r.bytes_delivered, trace.total_bytes());
        // 2048 B = 32 flits per message.
        assert_eq!(r.flits_delivered, 240 * 32);
    }

    #[test]
    fn burst_traffic_blocks_more_than_spread_traffic() {
        let mut s = sim();
        let burst = all_to_all(16, 4096);
        let burst_report = s.run(&burst.messages).unwrap();
        // Same messages, but staggered by 400-cycle injection offsets.
        let spread: Vec<Message> = burst
            .messages
            .iter()
            .enumerate()
            .map(|(i, m)| Message::new(m.src, m.dst, m.bytes, (i as u64) * 400))
            .collect();
        let spread_report = s.run(&spread).unwrap();
        assert!(
            burst_report.blocked_flit_cycles > spread_report.blocked_flit_cycles,
            "burst {} vs spread {}",
            burst_report.blocked_flit_cycles,
            spread_report.blocked_flit_cycles
        );
    }

    #[test]
    fn delayed_injection_is_respected() {
        let mut s = sim();
        let r = s.run(&[Message::new(0, 1, 8, 1000)]).unwrap();
        assert!(r.makespan >= 1000);
        // Latency is measured from injection, so it stays small.
        assert!(r.message_latencies[0] < 50);
    }

    #[test]
    fn self_message_and_bad_nodes_are_rejected() {
        let mut s = sim();
        assert!(matches!(s.run(&[Message::new(3, 3, 8, 0)]), Err(NocError::BadNode { .. })));
        assert!(s.run(&[Message::new(0, 99, 8, 0)]).is_err());
        assert!(s.run(&[Message::new(99, 0, 8, 0)]).is_err());
    }

    #[test]
    fn empty_trace_completes_immediately() {
        let mut s = sim();
        let r = s.run(&[]).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.messages_delivered, 0);
    }

    #[test]
    fn conservation_of_flits() {
        let mut s = sim();
        let trace = uniform_random(16, 5, 777, 9);
        let r = s.run(&trace.messages).unwrap();
        // Every flit is written once at injection plus once per hop, and
        // read exactly once per write.
        assert_eq!(r.events.buffer_reads, r.events.buffer_writes);
        // Ejections equal total flits of all messages.
        let expect_flits: u64 =
            trace.messages.iter().map(|m| s.config().flits_for_bytes(m.bytes)).sum();
        assert_eq!(r.flits_delivered, expect_flits);
        // Link traversals are reads minus ejections.
        assert_eq!(r.events.link_traversals, r.events.buffer_reads - r.flits_delivered);
    }

    #[test]
    fn latency_at_least_hop_lower_bound() {
        let mut s = sim();
        let trace = uniform_random(16, 3, 256, 4);
        let r = s.run(&trace.messages).unwrap();
        for (i, m) in trace.messages.iter().enumerate() {
            let hops = s.topo().distance(m.src, m.dst) as u64;
            let flits = s.config().flits_for_bytes(m.bytes);
            // (hops+1) router pipelines + hops links + serialization.
            let lower = (hops + 1) * 3 + hops + (flits - 1);
            assert!(
                r.message_latencies[i] >= lower,
                "message {i}: {} < lower bound {lower}",
                r.message_latencies[i]
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut s = sim();
        let trace = uniform_random(16, 4, 300, 5);
        let a = s.run(&trace.messages).unwrap();
        let b = s.run(&trace.messages).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cycle_limit_guard_fires() {
        let mut config = NocConfig::paper_16core();
        config.max_cycles = 10;
        let mut s = Simulator::new(config).unwrap();
        let big = all_to_all(16, 1 << 16);
        assert!(matches!(s.run(&big.messages), Err(NocError::CycleLimitExceeded { .. })));
    }

    #[test]
    fn single_flit_buffers_still_deliver_under_burst() {
        // Failure injection: minimum credit everywhere. Slower, but the
        // protocol must not deadlock or drop flits.
        let mut config = NocConfig::paper_16core();
        config.vc_buffer_flits = 1;
        let mut s = Simulator::new(config).unwrap();
        let trace = all_to_all(16, 1024);
        let tight = s.run(&trace.messages).unwrap();
        assert_eq!(tight.messages_delivered, trace.len());
        let mut roomy = sim();
        let normal = roomy.run(&trace.messages).unwrap();
        assert!(tight.makespan >= normal.makespan, "less buffering cannot be faster");
    }

    #[test]
    fn single_vc_still_delivers() {
        let mut config = NocConfig::paper_16core();
        config.vcs = 1;
        let mut s = Simulator::new(config).unwrap();
        let trace = uniform_random(16, 4, 500, 8);
        let r = s.run(&trace.messages).unwrap();
        assert_eq!(r.messages_delivered, trace.len());
    }

    #[test]
    fn degenerate_one_by_n_mesh_works() {
        let mut s = Simulator::new(NocConfig::paper_mesh(8, 1)).unwrap();
        let r = s.run(&[Message::new(0, 7, 2048, 0), Message::new(7, 0, 2048, 0)]).unwrap();
        assert_eq!(r.messages_delivered, 2);
    }

    #[test]
    fn single_node_mesh_rejects_every_message() {
        let mut s = Simulator::new(NocConfig::paper_mesh(1, 1)).unwrap();
        // Only possible message is a self-send, which is invalid.
        assert!(s.run(&[Message::new(0, 0, 8, 0)]).is_err());
        // Empty trace is fine.
        assert_eq!(s.run(&[]).unwrap().messages_delivered, 0);
    }

    #[test]
    fn zero_byte_message_still_carries_a_head_flit() {
        let mut s = sim();
        let r = s.run(&[Message::new(0, 3, 0, 0)]).unwrap();
        assert_eq!(r.flits_delivered, 1);
        assert_eq!(r.messages_delivered, 1);
    }

    #[test]
    fn all_routing_policies_deliver_everything() {
        use crate::config::RoutingPolicy;
        let trace = uniform_random(16, 6, 700, 11);
        let mut reference_flits = None;
        for policy in [RoutingPolicy::XyDor, RoutingPolicy::YxDor, RoutingPolicy::O1Turn] {
            let mut config = NocConfig::paper_16core();
            config.routing = policy;
            let mut s = Simulator::new(config).unwrap();
            let r = s.run(&trace.messages).unwrap();
            assert_eq!(r.messages_delivered, trace.len(), "{policy:?}");
            // Minimal routing: flit-hops identical across policies.
            match reference_flits {
                None => reference_flits = Some(r.events.link_traversals),
                Some(f) => assert_eq!(r.events.link_traversals, f, "{policy:?}"),
            }
        }
    }

    #[test]
    fn o1turn_requires_two_vcs() {
        let mut config = NocConfig::paper_16core();
        config.routing = crate::config::RoutingPolicy::O1Turn;
        config.vcs = 1;
        assert!(Simulator::new(config).is_err());
    }

    #[test]
    fn o1turn_spreads_load_on_transpose_like_traffic() {
        use crate::config::RoutingPolicy;
        // Row-to-column traffic concentrates on few links under pure XY;
        // O1TURN splits it across both dimension orders.
        let mut msgs = Vec::new();
        for i in 0..4usize {
            for j in 0..4usize {
                let src = i * 4 + j;
                let dst = j * 4 + i;
                if src != dst {
                    msgs.push(Message::new(src, dst, 2048, 0));
                }
            }
        }
        let xy = {
            let mut s = Simulator::new(NocConfig::paper_16core()).unwrap();
            s.run(&msgs).unwrap()
        };
        let o1 = {
            let mut config = NocConfig::paper_16core();
            config.routing = RoutingPolicy::O1Turn;
            let mut s = Simulator::new(config).unwrap();
            s.run(&msgs).unwrap()
        };
        assert!(
            o1.max_link_flits() < xy.max_link_flits(),
            "O1TURN hot link {} should beat XY hot link {}",
            o1.max_link_flits(),
            xy.max_link_flits()
        );
    }

    #[test]
    fn link_flits_sum_to_link_traversals() {
        let mut s = sim();
        let trace = uniform_random(16, 5, 900, 3);
        let r = s.run(&trace.messages).unwrap();
        assert_eq!(r.link_flits.iter().sum::<u64>(), r.events.link_traversals);
        assert!(r.max_link_flits() > 0);
    }

    #[test]
    fn hop_split_sums_to_link_traversals_on_mesh() {
        let mut s = sim();
        let trace = uniform_random(16, 5, 901, 6);
        let r = s.run(&trace.messages).unwrap();
        assert_eq!(r.inter_chip_traversals, 0, "a mesh has no interposer hops");
        assert_eq!(r.intra_chip_traversals, r.events.link_traversals);
        assert_eq!(r.intra_chip_traversals + r.inter_chip_traversals, r.events.link_traversals);
    }

    #[test]
    fn mcm_delivers_and_splits_hops_exactly() {
        let config = NocConfig::paper_mcm(2, 16).unwrap();
        let mut s = Simulator::new(config).unwrap();
        let trace = uniform_random(32, 4, 902, 7);
        let r = s.run(&trace.messages).unwrap();
        assert_eq!(r.messages_delivered, trace.len());
        assert!(r.inter_chip_traversals > 0, "cross-package traffic must ride the interposer");
        assert_eq!(r.intra_chip_traversals + r.inter_chip_traversals, r.events.link_traversals);
        // The seam columns carry exactly the inter-chip flits: per-link
        // counters and the class split agree.
        let topo = *s.topo();
        let inter_from_links: u64 = (0..config.nodes())
            .flat_map(|n| (0..4).map(move |d| (n, d)))
            .filter(|&(n, d)| {
                topo.neighbor(n, Direction::ALL[d]).is_some()
                    && topo.hop_class(n, Direction::ALL[d]) == HopClass::Inter
            })
            .map(|(n, d)| r.link_flits[n * 4 + d])
            .sum();
        assert_eq!(inter_from_links, r.inter_chip_traversals);
    }

    #[test]
    fn single_chiplet_mcm_report_is_bit_identical_to_mesh() {
        let mesh_cfg = NocConfig::paper_16core();
        let mcm_cfg = NocConfig::paper_mcm(1, 16).unwrap();
        let trace = uniform_random(16, 6, 903, 9);
        let a = Simulator::new(mesh_cfg).unwrap().run(&trace.messages).unwrap();
        let b = Simulator::new(mcm_cfg).unwrap().run(&trace.messages).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn interposer_latency_slows_cross_chip_messages() {
        // Same global 8x4 geometry; the MCM prices the seam crossing.
        let mesh = NocConfig::paper_mesh(8, 4);
        let mcm = NocConfig::paper_mcm(2, 16).unwrap();
        let msg = [Message::new(0, 7, 64, 0)]; // one flit, 0 -> (7,0) crosses the seam
        let rm = Simulator::new(mesh).unwrap().run(&msg).unwrap();
        let rc = Simulator::new(mcm).unwrap().run(&msg).unwrap();
        // Interposer: +3 link cycles but -6 serialization cycles on the
        // seam hop; a single-flit head sees the net effect.
        assert_ne!(rm.message_latencies[0], rc.message_latencies[0]);
        assert_eq!(rc.messages_delivered, 1);
    }

    #[test]
    fn two_physical_channels_beat_one() {
        let mut narrow_cfg = NocConfig::paper_16core();
        narrow_cfg.physical_channels = 1;
        let mut narrow = Simulator::new(narrow_cfg).unwrap();
        let mut wide = sim();
        let trace = all_to_all(16, 4096);
        let rn = narrow.run(&trace.messages).unwrap();
        let rw = wide.run(&trace.messages).unwrap();
        assert!(rw.makespan < rn.makespan, "wide {} vs narrow {}", rw.makespan, rn.makespan);
    }
}
