//! The cycle-driven NoC simulator.
//!
//! Wormhole switching over input-queued VC routers with five ports
//! (N/E/S/W/Local): head flits compute an XY route when they reach a
//! buffer front, allocate a downstream virtual channel, and win
//! round-robin switch arbitration before traversing; body/tail flits
//! follow on the same VC; tails release it. Credits flow back one per
//! dequeued flit. Congestion appears as flits that are ready but lose
//! arbitration or stall on credits, counted in
//! [`SimReport::blocked_flit_cycles`].
//!
//! The network's state is flat and index-addressed (`Fabric`). A per-run
//! packet table holds each injected packet copy's destination, dimension
//! order, message, attempt and flit count once; a buffered flit is a small
//! `Slot` handle into it. Every input-VC queue is a ring in one arena,
//! addressed by `(node, port, vc)`; routes, allocated VCs, holders,
//! credits, lanes and round-robin pointers sit in flat arrays beside it.
//! Per-`(node, port)` link tables and one next-hop table are built once
//! per simulator.
//!
//! Each stepped cycle sweeps only the active set: sources with something
//! due and routers with buffered flits, in ascending node order; idle gaps
//! fast-forward to the next event. A visited router allocates all five
//! outputs in one pass: it latches the routes of its ready fronts once,
//! collects them per output as a mask over the flat `(port, vc)` inputs,
//! and for each output in port order runs VC allocation and the credit
//! check, then takes winners by rotating from the output's round-robin
//! pointer. The outputs of one router share only the input queues, so one
//! re-latch rule keeps this equal to allocating the outputs one at a time:
//! a winning tail that exposes an already-ready head latches that head at
//! once and, if it routes to a later output, adds it to that output's
//! mask. A visit that changes nothing — no move, latch or allocation — is
//! recorded, and until one of its fronts or lanes comes due, or an input
//! VC gains a front, or an output VC regains a credit, the router's next
//! visits only repeat its blocked-flit and arbitration counts.
//!
//! [`Simulator::run_periodic`] steps `copies` copies of one burst, copy
//! `j` injected `j · period` cycles after copy 0, in one run, and returns
//! the report [`Simulator::run`] gives on every prefix of them:
//!
//! - *Prefix snapshots.* The report of the first `b` copies is taken at
//!   the end of the stepped cycle in which their last message completes.
//!   It is what `run` gives on those copies alone only if copy `b` was not
//!   yet due then, and no retransmission of theirs queued behind a packet
//!   of a later copy (it would wait there, where a run on the first `b`
//!   copies alone sends it at once). Any other prefix is declined (`None`).
//! - *Fixed point.* A boundary is the cycle a copy becomes due. It is
//!   quiescent when all earlier copies have completed, nothing is buffered,
//!   every lane is free, no source is streaming or holds an earlier copy's
//!   packet, and no acknowledgement or timeout is pending. At a quiescent
//!   boundary the only state that steers the coming copy is the array of
//!   round-robin pointers (DESIGN.md §12 lists every other field and why it
//!   is inert). So once two consecutive quiescent boundaries have equal
//!   pointers, every later copy repeats the last stepped one, shifted by the
//!   period: its report is the previous one plus the counters' growth
//!   between the two boundaries, its latencies repeated and its makespan
//!   one period later. Stepping stops there.
//! - *Exclusions.* O1TURN picks each packet's dimension order from its id,
//!   and transient faults draw from the packet id too; ids differ from copy
//!   to copy, so such runs never replicate. They still step every copy and
//!   take exact prefix snapshots.
//!
//! None of this bookkeeping runs inside [`Simulator::run`].
//!
//! The pre-overhaul sweep is kept as the oracle behind
//! [`Simulator::run_reference`] and [`Simulator::run_recoverable_reference`]:
//! it visits every source and router each stepped cycle and rescans all
//! input VCs once per output. Property tests hold the two bit-identical.

use crate::config::{NocConfig, NocError, RoutingPolicy};
use crate::fault::{edge_dead, plan_routes, FaultModel};
use crate::packet::{packetize_into, PacketDescriptor, PacketId};
use crate::recovery::{
    Detection, DetectionCause, FaultEventKind, FaultSchedule, MonitorConfig, RecoverableReport,
};
use crate::stats::{EventCounts, FaultStats, PeriodicReport, SimReport};
use crate::topology::{Direction, HopClass, Topo, Topology};
use crate::traffic::Message;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Router ports: the four mesh directions, then the local core, in
/// [`Direction::index`] order.
const PORTS: usize = 5;
const LOCAL: usize = 4;
/// The port a flit leaving on port `p` arrives on downstream.
const OPPOSITE: [usize; PORTS] = [2, 3, 0, 1, LOCAL];
/// Empty marker of the `u32` index arrays of a [`Fabric`].
const NONE: u32 = u32::MAX;
/// Next-hop table entry of an unreachable destination.
const NO_ROUTE: u8 = u8::MAX;

/// [`Slot::bits`]: the flit heads its packet.
const HEAD: u8 = 1;
/// [`Slot::bits`]: the flit ends its packet and releases the VC.
const TAIL: u8 = 2;
/// [`Slot::bits`]: a transient fault hit the flit in transit; the
/// destination NIC discards the whole packet and awaits a retry.
const POISONED: u8 = 4;
/// [`Slot::seq`] of the synthetic tail that closes a severed worm.
const SYNTHETIC_SEQ: u64 = u64::MAX;

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
#[derive(Debug, Clone, Copy)]
struct OpenPacket {
    /// The packet copy's entry in [`Simulator::worms`].
    worm: u32,
    sent: u64,
    vc: usize,
}

/// One injected copy of a packet (one retransmission attempt), held once
/// for all of its flits: the per-run packet table behind [`Slot::worm`].
#[derive(Debug, Clone, Copy)]
struct Worm {
    packet: PacketId,
    /// Index into the run's message list.
    message: u32,
    dst: u32,
    flits: u32,
    attempt: u32,
    /// Dimension order (`true` = YX), fixed at injection.
    yx: bool,
    /// Destination-NIC reassembly (fault mode): flits of this copy
    /// received since its last tail, and whether any was poisoned.
    received: u32,
    poisoned: bool,
    /// Dynamic runs: the worm lost its route mid-run, so its remaining
    /// flits are discarded as they surface.
    doomed: bool,
}

/// A buffered flit: a handle into the packet table plus what differs
/// from flit to flit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    /// First cycle at which this flit may traverse the switch (models
    /// router pipeline + link latency).
    ready_at: u64,
    /// Position within the packet (0 = head; [`SYNTHETIC_SEQ`] for a
    /// synthetic tail).
    seq: u64,
    /// The owning packet copy's entry in [`Simulator::worms`].
    worm: u32,
    /// [`HEAD`], [`TAIL`] and [`POISONED`].
    bits: u8,
}

impl Slot {
    fn is_tail(self) -> bool {
        self.bits & TAIL != 0
    }
}

/// What a router's last switch-allocation visit did when it changed
/// nothing — no flit moved, no route latched, no VC allocated: its
/// blocked-flit and failed-arbitration counts. Until `until` (a front
/// becomes ready or a lane frees) an identical visit would repeat them,
/// unless an input VC gains a front or an output VC regains a credit,
/// which clears the record. `until == 0` means no record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Stall {
    until: u64,
    blocked: u64,
    arbitrations: u64,
}

/// The network's buffers and allocation state as flat arrays.
///
/// Input VC `(node, port, vc)` and the output VC `vc` of `(node, port)`
/// both sit at index `(node * PORTS + port) * vcs + vc` of their arrays.
/// All input-VC queues share one ring-buffer arena: VC `q` owns slots
/// `q * cap .. (q + 1) * cap`, where `cap = vc_buffer_flits + 1`. Credits
/// bound a VC to `vc_buffer_flits` flits; the one spare slot takes the
/// synthetic tail that closes a worm severed by a mid-run death, which
/// may land on a full VC. A push beyond `cap` is a flow-control breach
/// and returns [`NocError::FlowControl`] rather than overwrite a flit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fabric {
    vcs: usize,
    cap: usize,
    /// Physical lanes per output port.
    lanes_per_port: usize,
    /// The ring-buffer arena of every input VC.
    ring: Vec<Slot>,
    /// Ring start and length per input VC.
    head: Vec<u32>,
    len: Vec<u32>,
    /// `ready_at` of each input VC's front flit (`u64::MAX` when empty),
    /// so a router's ready fronts are one contiguous scan.
    front: Vec<u64>,
    /// Output port latched for the worm at each input VC's front
    /// (`u8::MAX` = none yet).
    route: Vec<u8>,
    /// Downstream VC allocated to each input VC's current worm.
    out_vc: Vec<u32>,
    /// Worm whose head latched each input VC's route (set when the route
    /// latches, cleared when the tail dequeues). Identifies the worm so
    /// a mid-run router death can close its orphaned remainder.
    active: Vec<u32>,
    /// Per output VC: the flat `port * vcs + vc` input holding it.
    holder: Vec<u32>,
    /// Per output VC: free flit slots in the downstream input buffer.
    credits: Vec<u32>,
    /// First free cycle of each physical lane, `lanes_per_port` per
    /// `(node, port)` (a flit holds a lane for its serialization time).
    lanes: Vec<u64>,
    /// Round-robin arbitration pointer per `(node, output port)`, over
    /// the flattened `(input port, vc)` space.
    rr: Vec<u32>,
    /// Per router: its last visit, if that visit changed nothing.
    stalls: Vec<Stall>,
    /// The router of each VC index (so invalidating a [`Stall`] needs no
    /// division).
    router_of: Vec<u32>,
}

impl Fabric {
    fn new(nodes: usize, config: &NocConfig) -> Self {
        let vcs = config.vcs;
        let queues = nodes * PORTS * vcs;
        let cap = config.vc_buffer_flits + 1;
        let mut fabric = Self {
            vcs,
            cap,
            lanes_per_port: config.physical_channels,
            ring: vec![Slot::default(); queues * cap],
            head: vec![0; queues],
            len: vec![0; queues],
            front: vec![0; queues],
            route: vec![0; queues],
            out_vc: vec![0; queues],
            active: vec![0; queues],
            holder: vec![0; queues],
            credits: vec![0; queues],
            lanes: vec![0; nodes * PORTS * config.physical_channels],
            rr: vec![0; nodes * PORTS],
            stalls: vec![Stall::default(); nodes],
            router_of: (0..queues).map(|q| (q / (PORTS * vcs)) as u32).collect(),
        };
        fabric.reset(config.vc_buffer_flits);
        fabric
    }

    /// Empties every buffer and restores full credits, keeping the
    /// allocations.
    fn reset(&mut self, vc_buffer_flits: usize) {
        self.ring.fill(Slot::default());
        self.head.fill(0);
        self.len.fill(0);
        self.front.fill(u64::MAX);
        self.route.fill(u8::MAX);
        self.out_vc.fill(NONE);
        self.active.fill(NONE);
        self.holder.fill(NONE);
        self.credits.fill(vc_buffer_flits as u32);
        self.lanes.fill(0);
        self.rr.fill(0);
        self.stalls.fill(Stall::default());
    }

    /// Index of VC `vc` of `(node, port)` in the per-VC arrays.
    fn vc_index(&self, node: usize, port: usize, vc: usize) -> usize {
        (node * PORTS + port) * self.vcs + vc
    }

    /// The front flit of input VC `q`. Only meaningful while the VC is
    /// non-empty (`front[q] != u64::MAX`); the read itself cannot fail.
    fn front_slot(&self, q: usize) -> Slot {
        self.ring[q * self.cap + self.head[q] as usize]
    }

    /// The newest flit of input VC `q`, if any.
    fn back_slot(&self, q: usize) -> Option<Slot> {
        let len = self.len[q] as usize;
        (len > 0).then(|| self.ring[q * self.cap + self.wrap(self.head[q] as usize + len - 1)])
    }

    /// Reduces a ring offset below `2 * cap` into the ring (a branch, not
    /// a division: this runs once per flit move).
    fn wrap(&self, at: usize) -> usize {
        if at >= self.cap {
            at - self.cap
        } else {
            at
        }
    }

    /// Appends `slot` to input VC `q`.
    fn push(&mut self, q: usize, slot: Slot) -> Result<(), NocError> {
        let len = self.len[q] as usize;
        if len == self.cap {
            let per_node = PORTS * self.vcs;
            return Err(NocError::FlowControl {
                node: q / per_node,
                port: q % per_node / self.vcs,
                vc: q % self.vcs,
            });
        }
        let at = self.wrap(self.head[q] as usize + len);
        self.ring[q * self.cap + at] = slot;
        if len == 0 {
            self.front[q] = slot.ready_at;
            self.stalls[self.router_of[q] as usize] = Stall::default();
        }
        self.len[q] += 1;
        Ok(())
    }

    /// Returns one credit to output VC `out`; a VC regaining its first
    /// credit may unblock its router.
    fn return_credit(&mut self, out: usize) {
        self.credits[out] += 1;
        if self.credits[out] == 1 {
            self.stalls[self.router_of[out] as usize] = Stall::default();
        }
    }

    /// Removes and returns the front flit of input VC `q`, if any.
    fn pop(&mut self, q: usize) -> Option<Slot> {
        if self.len[q] == 0 {
            return None;
        }
        let slot = self.front_slot(q);
        let next = self.wrap(self.head[q] as usize + 1);
        self.head[q] = next as u32;
        self.len[q] -= 1;
        self.front[q] =
            if self.len[q] == 0 { u64::MAX } else { self.ring[q * self.cap + next].ready_at };
        Some(slot)
    }

    /// Drops every flit of input VC `q` and its worm state; returns how
    /// many flits were dropped.
    fn clear(&mut self, q: usize) -> u64 {
        let lost = u64::from(self.len[q]);
        self.len[q] = 0;
        self.front[q] = u64::MAX;
        self.release(q);
        lost
    }

    /// Forgets the route, downstream VC and worm of input VC `q` (its
    /// tail left).
    fn release(&mut self, q: usize) {
        self.route[q] = u8::MAX;
        self.out_vc[q] = NONE;
        self.active[q] = NONE;
    }

    /// Whether a new packet may start buffering at input VC `q` (no packet
    /// of a previous allocation is still flowing through).
    fn accepts_new_packet(&self, q: usize) -> bool {
        self.len[q] == 0 && self.route[q] == u8::MAX
    }

    /// The lanes of output `(node, port)`, as a range of `lanes`.
    fn lane_range(&self, node: usize, port: usize) -> std::ops::Range<usize> {
        let start = (node * PORTS + port) * self.lanes_per_port;
        start..start + self.lanes_per_port
    }

    /// Number of lanes of output `(node, port)` free at `cycle`.
    fn free_lanes(&self, node: usize, port: usize, cycle: u64) -> usize {
        self.lanes[self.lane_range(node, port)].iter().filter(|&&busy| busy <= cycle).count()
    }
}

/// Timing and wiring of one `(node, port)`, built once per simulator.
#[derive(Debug, Clone, Copy)]
struct PortLink {
    /// The neighbour across this port; `None` for `Local` and at a mesh
    /// edge.
    peer: Option<usize>,
    /// Index of the neighbour's VC 0 on the port facing back here: its
    /// input VCs for a flit leaving on this port, its output VCs for a
    /// credit returned through it (0 when there is no neighbour).
    facing: usize,
    /// Cycles a flit holds a lane of this output (interposer links are
    /// wider, so shorter).
    ser: u64,
    /// Cycles from switch traversal of this output until the flit clears
    /// the neighbour's pipeline: `ser - 1` to land its last phit, the
    /// link latency, then the router stages.
    arrive: u64,
    /// Whether the link crosses an interposer seam.
    inter: bool,
}

/// The per-`(node, port)` link table of `topo` under `config`.
fn port_links(config: &NocConfig, topo: &Topo) -> Vec<PortLink> {
    let vcs = config.vcs;
    let mut links = Vec::with_capacity(topo.nodes() * PORTS);
    for node in 0..topo.nodes() {
        for dir in Direction::ALL {
            // Hop-class pricing: a seam-crossing port rides the interposer
            // (wider phits → shorter serialization, longer link latency).
            // On a plain mesh every class is `Intra` and the constants are
            // exactly the pre-MCM ones.
            let class =
                if dir == Direction::Local { HopClass::Intra } else { topo.hop_class(node, dir) };
            let ser = config.serialization_cycles_for(class);
            let peer = if dir == Direction::Local { None } else { topo.neighbor(node, dir) };
            links.push(PortLink {
                peer,
                facing: peer.map_or(0, |p| (p * PORTS + OPPOSITE[dir.index()]) * vcs),
                ser,
                arrive: (ser - 1) + config.link_cycles_for(class) + config.router_stages,
                inter: class == HopClass::Inter,
            });
        }
    }
    links
}

/// The next-hop table: entry `(yx * nodes + here) * nodes + dst` is the
/// output port at `here` toward `dst` for a packet of that dimension
/// order, or [`NO_ROUTE`]. Without permanent faults it is dimension-ordered
/// routing; with them both orders share the fault-aware plan.
fn next_hop_table(topo: &Topo, fault: &FaultModel) -> Vec<u8> {
    let port = |d: Option<Direction>| d.map_or(NO_ROUTE, |d| d.index() as u8);
    if fault.has_permanent() {
        let planned = plan_routes(topo, fault);
        return planned.iter().chain(&planned).map(|&d| port(d)).collect();
    }
    let n = topo.nodes();
    let mut table = Vec::with_capacity(2 * n * n);
    for yx in [false, true] {
        for here in 0..n {
            table.extend((0..n).map(|dst| port(Some(topo.route_ordered(yx, here, dst)))));
        }
    }
    table
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let f = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(f)
    })
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
    /// Next-hop table ([`next_hop_table`]); rebuilt when a mid-run death
    /// reshapes the topology.
    next_hop: Vec<u8>,
    /// Wiring and hop timing per `(node, port)`.
    links: Vec<PortLink>,
    /// Per input VC: the upstream output VC its credits return to
    /// ([`NONE`] for the local port and at a mesh edge).
    credit_return: Vec<u32>,
    /// Resolved first-retry timeout in cycles (fault mode).
    base_timeout: u64,
    topo: Topo,
    fabric: Fabric,
    /// The run's packet table: one entry per injected packet copy.
    worms: Vec<Worm>,
    sources: Vec<SourceState>,
    messages: Vec<MessageState>,
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
        let nodes = config.nodes();
        let links = port_links(&config, &topo);
        let credit_return = (0..nodes * PORTS * config.vcs)
            .map(|q| {
                let link = links[q / config.vcs];
                link.peer.map_or(NONE, |_| (link.facing + q % config.vcs) as u32)
            })
            .collect();
        Ok(Self {
            config,
            next_hop: next_hop_table(&topo, &fault),
            links,
            credit_return,
            fault,
            base_timeout,
            topo,
            fabric: Fabric::new(nodes, &config),
            worms: Vec::new(),
            sources: Vec::new(),
            messages: Vec::new(),
            events: EventCounts::default(),
            blocked_flit_cycles: 0,
            link_flits: Vec::new(),
            intra_link_traversals: 0,
            inter_link_traversals: 0,
            cycle: 0,
            packets: Vec::new(),
            ack_at: BTreeMap::new(),
            timeout_at: BTreeMap::new(),
            faults: FaultStats::default(),
            delivered_flits: 0,
            dynamic: false,
            died_at: Vec::new(),
            abandoned_msgs: Vec::new(),
            detections: Vec::new(),
            detected_nodes: HashSet::new(),
            buffered: Vec::new(),
            inject_ready: Vec::new(),
            inject_wake: BTreeMap::new(),
            cycles_simulated: 0,
            cycles_fast_forwarded: 0,
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

    /// The retained pre-overhaul sweep: semantically identical to
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
        // The packet table holds message indices, and node ids and packet
        // flit counts (which the config bounds), in 32 bits.
        if u32::try_from(messages.len()).is_err() {
            return Err(NocError::BadConfig(format!("{} messages in one run", messages.len())));
        }
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
                if endpoint_dead || self.lookup_route(false, m.src, m.dst).is_none() {
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
        let fault_active = self.fault_active();
        let mut delivered = 0usize;
        while delivered < total {
            self.check_budget(total - delivered)?;
            let (activity, completed) = self.step(full_scan, fault_active)?;
            delivered += completed;
            if !self.advance(activity) {
                self.stalled(total - delivered)?;
                break;
            }
        }
        Ok(delivered)
    }

    /// The cycle-budget watchdog, checked before every stepped cycle.
    fn check_budget(&self, undelivered: usize) -> Result<(), NocError> {
        if self.cycle > self.config.max_cycles {
            return Err(NocError::CycleLimitExceeded {
                limit: self.config.max_cycles,
                undelivered,
            });
        }
        Ok(())
    }

    /// Evaluates one cycle of a static run: due protocol events, injection
    /// at every source with something due, then switch allocation.
    /// Returns whether anything moved and how many messages completed.
    fn step(&mut self, full_scan: bool, fault_active: bool) -> Result<(bool, usize), NocError> {
        let mut activity = false;
        if fault_active {
            self.fire_protocol_events()?;
        }
        self.drain_inject_wake();
        for node in 0..self.config.nodes() {
            if !full_scan && !self.inject_ready[node] {
                continue;
            }
            if self.inject(node)? {
                activity = true;
            }
            self.retire_or_keep_source(node);
        }
        let (moved, completed) = self.sweep_routers(full_scan)?;
        self.cycles_simulated += 1;
        Ok((activity | moved, completed))
    }

    /// Moves the clock past a stepped cycle: to the next cycle after
    /// activity, otherwise fast-forward to the next event. Returns `false`
    /// when no event is left.
    fn advance(&mut self, activity: bool) -> bool {
        if activity {
            self.cycle += 1;
            return true;
        }
        match self.next_event_cycle() {
            Some(next) if next > self.cycle => {
                self.cycles_fast_forwarded += next - self.cycle - 1;
                self.cycle = next;
            }
            Some(_) => self.cycle += 1,
            None => return false,
        }
        true
    }

    /// A static run with `undelivered` messages left has no event left.
    fn stalled(&self, undelivered: usize) -> Result<(), NocError> {
        if self.fault_active() && undelivered > 0 {
            // Every undelivered packet should hold a pending timeout; a
            // stall here means the protocol lost track — surface it as a
            // typed error, never a hang or a wrong report.
            return Err(NocError::CycleLimitExceeded {
                limit: self.config.max_cycles,
                undelivered,
            });
        }
        // No buffered flits and no pending injections, yet messages
        // remain — impossible unless accounting broke.
        debug_assert!(undelivered == 0, "simulator stalled with no events");
        Ok(())
    }

    /// Simulates `copies` copies of `burst`, copy `j` injected `j * period`
    /// cycles after copy 0, in one run, and returns the report
    /// [`Simulator::run`] gives on every prefix of them (see the module
    /// docs for the prefix rule and the fixed point that ends stepping
    /// early). The copies form [`crate::traffic::periodic`]'s trace, so
    /// prefix `b`'s messages are its first `b * burst.len()`.
    ///
    /// # Errors
    ///
    /// Those of [`Simulator::run`] on all `copies` copies, raised while
    /// stepping them, and [`NocError::BadConfig`] when an inject cycle of
    /// the expansion overflows `u64`. A replicated prefix that `run` would
    /// stop at the cycle budget is declined instead.
    pub fn run_periodic(
        &mut self,
        burst: &[Message],
        period: u64,
        copies: usize,
    ) -> Result<PeriodicReport, NocError> {
        let _probe = lts_obs::span("noc.run_periodic");
        let n = burst.len();
        let messages = crate::traffic::periodic(burst, period, copies).ok_or_else(|| {
            NocError::BadConfig(format!("{copies} copies {period} cycles apart overflow"))
        })?;
        // `due[k]`: the cycle copy `k`'s first message is due (the inject
        // cycle of a message of the expansion, so it saturates only when
        // the burst is empty).
        let first = burst.iter().map(|m| m.inject_cycle).min().unwrap_or(0);
        let due: Vec<u64> =
            (0..copies as u64).map(|k| first.saturating_add(k.saturating_mul(period))).collect();
        self.reset();
        self.enqueue(&messages)?;
        let fault_active = self.fault_active();
        // O1TURN's dimension order and the transient-fault draws read the
        // packet id, which differs from copy to copy.
        let replicable = !self.fault.has_transient()
            && matches!(self.config.routing, RoutingPolicy::XyDor | RoutingPolicy::YxDor);
        let total = messages.len();
        let mut prefixes: Vec<Option<SimReport>> = Vec::with_capacity(copies);
        let (mut delivered, mut done) = (0usize, 0usize);
        // The next boundary to examine, and the round-robin pointers and
        // counters at the previous one if it was quiescent.
        let mut boundary = 1;
        let mut last: Option<(Vec<u32>, SimReport)> = None;
        let mut replicated = 0;
        'run: loop {
            while replicable && boundary < copies && self.cycle >= due[boundary] {
                let quiet = self.cycle == due[boundary]
                    && delivered == boundary * n
                    && self.quiescent(boundary * n);
                let now = quiet.then(|| (self.fabric.rr.clone(), self.report_of(0, 0)));
                if let (Some((rr, then)), Some((rr_now, now))) = (&last, &now) {
                    if rr == rr_now {
                        replicated =
                            self.replicate(&mut prefixes, copies, burst, period, then, now);
                        break 'run;
                    }
                }
                last = now;
                boundary += 1;
            }
            if delivered >= total {
                break;
            }
            self.check_budget(total - delivered)?;
            let (activity, completed) = self.step(false, fault_active)?;
            delivered += completed;
            if completed > 0 {
                while done < total && self.messages[done].completed_at.is_some() {
                    done += 1;
                }
                // Prefix `b` is what `run` gives on its copies alone only if
                // copy `b` was not yet due when they completed and none of
                // their retransmissions queued behind a later copy.
                while prefixes.len() < copies && done >= (prefixes.len() + 1) * n {
                    let b = prefixes.len() + 1;
                    let alone = b == copies || (due[b] > self.cycle && !self.queued_behind(b * n));
                    prefixes.push(alone.then(|| self.report_of(b * n, b * n)));
                }
            }
            if !self.advance(activity) {
                self.stalled(total - delivered)?;
                break;
            }
        }
        if n == 0 {
            prefixes.resize(copies, Some(self.report_of(0, 0)));
        }
        prefixes.resize(copies, None);
        self.record_obs(Some(replicated));
        Ok(PeriodicReport {
            prefixes,
            cycles_simulated: self.cycles_simulated,
            cycles_fast_forwarded: self.cycles_fast_forwarded,
            cycles_replicated: replicated,
        })
    }

    /// Whether a source queues a packet of the first `next` messages behind
    /// a packet of a later one: a retransmission pushed while a later
    /// copy's packets were already queued, which a run on the first `next`
    /// messages alone would have sent sooner.
    fn queued_behind(&self, next: usize) -> bool {
        self.sources.iter().any(|s| {
            let mut later = false;
            s.pending.iter().any(|p| {
                later |= p.message_index >= next;
                later && p.message_index < next
            })
        })
    }

    /// Whether a periodic run is drained at the boundary where the copy
    /// whose first message is `next` becomes due: nothing buffered, every
    /// lane free, no source streaming, no acknowledgement or timeout
    /// pending, and nothing queued but the packets of later copies.
    fn quiescent(&self, next: usize) -> bool {
        let cycle = self.cycle;
        let quiet = self.buffered.iter().all(|&b| b == 0)
            && self.fabric.lanes.iter().all(|&busy| busy <= cycle)
            && self.ack_at.is_empty()
            && self.timeout_at.is_empty()
            && self.sources.iter().all(|s| {
                s.open.is_none()
                    && s.lanes.iter().all(|&busy| busy <= cycle)
                    && s.pending.iter().all(|p| p.message_index >= next)
            });
        // A drained network holds no worm state (DESIGN.md §12).
        debug_assert!(
            !quiet
                || (self.fabric.route.iter().all(|&r| r == u8::MAX)
                    && self.fabric.holder.iter().all(|&h| h == NONE)
                    && (self.fabric.credits.iter())
                        .all(|&c| c as usize == self.config.vc_buffer_flits)),
            "quiescent boundary with worm state left"
        );
        quiet
    }

    /// Completes the prefixes of a periodic run whose last two boundaries
    /// matched: every copy after the stepped ones repeats the last stepped
    /// copy shifted by `period`, and adds the counters' growth from
    /// boundary `then` to boundary `now`. Returns the cycles of the longest
    /// prefix's span this built instead of stepping.
    fn replicate(
        &self,
        prefixes: &mut Vec<Option<SimReport>>,
        copies: usize,
        burst: &[Message],
        period: u64,
        then: &SimReport,
        now: &SimReport,
    ) -> u64 {
        // Both boundaries were quiescent, so the last stepped copy had
        // completed on its own before the next one was due.
        let Some(Some(mut report)) = prefixes.last().cloned() else { return 0 };
        let n = burst.len();
        let latencies = report.message_latencies[report.message_latencies.len() - n..].to_vec();
        let bytes: u64 = burst.iter().map(|m| m.bytes).sum();
        while prefixes.len() < copies {
            report.makespan += period;
            report.messages_delivered += n;
            report.bytes_delivered += bytes;
            report.message_latencies.extend_from_slice(&latencies);
            report.add_growth(then, now);
            // `run` stops at the budget before the last completion.
            let within = report.makespan - 1 <= self.config.max_cycles;
            prefixes.push(within.then(|| report.clone()));
        }
        let stepped = self.cycles_simulated + self.cycles_fast_forwarded;
        report.cycles_simulated + report.cycles_fast_forwarded - stepped
    }

    /// Reports a finished run's stepper counters and cycle timeline into
    /// `lts-obs`: how many cycles the active-set sweep actually evaluated
    /// versus skipped by fast-forward, plus retransmission-protocol
    /// activity. A periodic run passes the cycles it `replicated` instead
    /// of stepping; every other counter covers stepped work only. Cheap
    /// no-op while recording is disabled.
    fn record_obs(&self, replicated: Option<u64>) {
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
        if let Some(replicated) = replicated {
            lts_obs::counter_add("noc.cycles_replicated", replicated);
            lts_obs::cycle_record(track, "replicated", "", replicated);
        }
        let hops = lts_obs::cycle_track_named("noc.hops");
        lts_obs::cycle_record(hops, "intra-chip", "", self.intra_link_traversals);
        lts_obs::cycle_record(hops, "inter-chip", "", self.inter_link_traversals);
    }

    /// Assembles the report of a completed run that delivered `delivered`
    /// messages (abandoned messages' bytes do not count as delivered).
    fn build_report(&mut self, delivered: usize) -> SimReport {
        self.record_obs(None);
        self.report_of(self.messages.len(), delivered)
    }

    /// The report of the run's first `upto` messages, `delivered` of them
    /// delivered, with every counter as it stands now.
    fn report_of(&self, upto: usize, delivered: usize) -> SimReport {
        let messages = &self.messages[..upto];
        let makespan = messages.iter().filter_map(|m| m.completed_at).max().unwrap_or(0);
        let abandoned = |i: usize| self.abandoned_msgs.get(i).copied().unwrap_or(false);
        SimReport {
            makespan,
            messages_delivered: delivered,
            bytes_delivered: (messages.iter().enumerate())
                .filter(|&(i, _)| !abandoned(i))
                .map(|(_, m)| m.bytes)
                .sum(),
            // In fault mode some ejected flits belong to rejected or
            // duplicate packets; count only cleanly accepted ones.
            flits_delivered: if self.fault_active() {
                self.delivered_flits
            } else {
                self.events.ejections
            },
            message_latencies: messages
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
        self.fabric.reset(self.config.vc_buffer_flits);
        self.worms.clear();
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
        self.ack_at.clear();
        self.timeout_at.clear();
        self.faults = FaultStats::default();
        self.delivered_flits = 0;
        self.dynamic = false;
        self.died_at = vec![u64::MAX; nodes];
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
    /// reassembles per packet copy, discards poisoned or duplicate
    /// packets, acknowledges and credits clean first deliveries. Returns 1
    /// if this completed a message.
    fn eject_with_protocol(&mut self, slot: Slot) -> usize {
        let worm = &mut self.worms[slot.worm as usize];
        worm.received += 1;
        worm.poisoned |= slot.bits & POISONED != 0;
        if !slot.is_tail() {
            return 0;
        }
        let (received, poisoned) = (worm.received, worm.poisoned);
        (worm.received, worm.poisoned) = (0, false);
        let packet = worm.packet;
        let id = packet as usize;
        // A poisoned worm may arrive partial on dynamic runs: a mid-run
        // death can destroy body flits and close the worm with a synthetic
        // poisoned tail.
        debug_assert!(
            poisoned || u64::from(received) == self.packets[id].desc.flits,
            "partial clean packet at tail"
        );
        if poisoned {
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
        self.schedule_ack(packet);
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

    /// The planned output port at `here` toward `dst`, or `None` when the
    /// surviving topology has no route.
    fn lookup_route(&self, yx: bool, here: usize, dst: usize) -> Option<usize> {
        let nodes = self.config.nodes();
        let port = self.next_hop[(usize::from(yx) * nodes + here) * nodes + dst];
        (port != NO_ROUTE).then_some(usize::from(port))
    }

    /// The output port for a flit at `here`: the fault-aware plan when
    /// permanent faults exist, dimension-ordered routing otherwise.
    fn route_for(&self, yx: bool, here: usize, dst: usize) -> usize {
        match self.lookup_route(yx, here, dst) {
            Some(port) => port,
            None => {
                // Unreachable pairs are rejected before injection, and
                // flits only visit nodes on a planned route; on dynamic
                // runs the purge pass removes unroutable heads before
                // they reach arbitration.
                debug_assert!(self.dynamic, "flit at {here} with no route to {dst}");
                self.topo.route_ordered(yx, here, dst).index()
            }
        }
    }

    /// Streams up to `physical_channels` flits from the node's source queue
    /// into the local input port. Returns whether anything was injected.
    fn inject(&mut self, node: usize) -> Result<bool, NocError> {
        let mut injected = false;
        let ser = self.links[node * PORTS + LOCAL].ser;
        // A free core→router lane is needed for every flit.
        while let Some(lane) =
            self.sources[node].lanes.iter().position(|&busy_until| busy_until <= self.cycle)
        {
            // Open the next packet if none is streaming.
            let open = match self.sources[node].open {
                Some(open) => open,
                None => {
                    let Some(p) = self.sources[node].pending.front() else { break };
                    if p.inject_cycle > self.cycle {
                        break;
                    }
                    let fabric = &self.fabric;
                    let vc = self
                        .config
                        .vc_class(p.desc.yx)
                        .find(|&v| fabric.accepts_new_packet(fabric.vc_index(node, LOCAL, v)));
                    let Some(vc) = vc else { break };
                    let Some(p) = self.sources[node].pending.pop_front() else { break };
                    // A packet's attempt number cannot change while it
                    // streams: its next timeout arms only once it is
                    // fully injected.
                    let attempt = if self.fault_active() {
                        self.packets[p.desc.id as usize].attempt
                    } else {
                        0
                    };
                    let worm = self.worms.len() as u32;
                    self.worms.push(Worm {
                        packet: p.desc.id,
                        message: p.message_index as u32,
                        dst: p.desc.dst as u32,
                        flits: p.desc.flits as u32,
                        attempt,
                        yx: p.desc.yx,
                        received: 0,
                        poisoned: false,
                        doomed: false,
                    });
                    OpenPacket { worm, sent: 0, vc }
                }
            };
            let q = self.fabric.vc_index(node, LOCAL, open.vc);
            if self.fabric.len[q] as usize >= self.config.vc_buffer_flits {
                self.sources[node].open = Some(open);
                break;
            }
            let worm = self.worms[open.worm as usize];
            let mut bits = 0;
            if open.sent == 0 {
                bits |= HEAD;
            }
            if open.sent + 1 == u64::from(worm.flits) {
                bits |= TAIL;
            }
            self.fabric.push(
                q,
                Slot {
                    // The flit finishes arriving after `ser` phit cycles,
                    // then clears the router pipeline.
                    ready_at: self.cycle + (ser - 1) + self.config.router_stages,
                    seq: open.sent,
                    worm: open.worm,
                    bits,
                },
            )?;
            self.buffered[node] += 1;
            self.sources[node].lanes[lane] = self.cycle + ser;
            self.events.buffer_writes += 1;
            injected = true;
            let sent = open.sent + 1;
            if sent == u64::from(worm.flits) {
                self.sources[node].open = None;
                if self.fault_active() {
                    self.arm_timeout(worm.packet);
                }
            } else {
                self.sources[node].open = Some(OpenPacket { sent, ..open });
            }
        }
        Ok(injected)
    }

    /// Runs switch allocation on every live router, in ascending node
    /// order, and returns `(any flit moved, messages completed)`. The
    /// active-set sweep skips routers with nothing buffered (provably
    /// no-ops) and allocates each visited router in one
    /// [`Simulator::switch_router`] pass; `full_scan` selects the retained
    /// oracle, which visits every router and scans each output separately
    /// with [`Simulator::switch_output`]. Dead routers (dynamic runs only;
    /// every router is alive on a static run) never switch.
    fn sweep_routers(&mut self, full_scan: bool) -> Result<(bool, usize), NocError> {
        let mut moved = false;
        let mut completed = 0usize;
        for node in 0..self.config.nodes() {
            if self.died_at[node] <= self.cycle || (!full_scan && self.buffered[node] == 0) {
                continue;
            }
            let (m, c) = if full_scan {
                let mut any = (false, 0);
                for op in 0..PORTS {
                    let (mo, co) = self.switch_output(node, op)?;
                    any = (any.0 | mo, any.1 + co);
                }
                any
            } else {
                self.switch_router(node)?
            };
            moved |= m;
            completed += c;
        }
        Ok((moved, completed))
    }

    /// Latches the route of the front flit of input `f` (flat
    /// `port * vcs + vc`) of `node` if that flit has cleared the pipeline
    /// — a head computes its route once, when it first reaches the front
    /// — and returns the output port. `None` when the VC is empty or its
    /// front is not ready this cycle.
    fn latch_ready_front(&mut self, node: usize, f: usize) -> Option<usize> {
        let q = self.fabric.vc_index(node, 0, f);
        if self.fabric.front[q] > self.cycle {
            return None;
        }
        match self.fabric.route[q] {
            u8::MAX => Some(self.latch(node, q)),
            port => Some(usize::from(port)),
        }
    }

    /// Latches the route of the head at the front of input VC `q` of
    /// `node` and returns its output port.
    fn latch(&mut self, node: usize, q: usize) -> usize {
        let slot = self.fabric.front_slot(q);
        debug_assert!(slot.bits & HEAD != 0, "non-head flit with no route state");
        let worm = &self.worms[slot.worm as usize];
        let port = self.route_for(worm.yx, node, worm.dst as usize);
        self.fabric.route[q] = port as u8;
        self.fabric.active[q] = slot.worm;
        port
    }

    /// Whether the ready front of input `f` of the router whose VC 0 of
    /// port 0 sits at index `fronts`, routed to output `op`, may traverse
    /// this cycle: ejection needs nothing; a mesh output needs a
    /// downstream VC — allocated here for a head, within the packet's
    /// dimension-order VC class — with at least one credit. Also returns
    /// whether a VC was allocated.
    fn can_move(&mut self, fronts: usize, op: usize, f: usize) -> (bool, bool) {
        if op == LOCAL {
            return (true, false);
        }
        let q = fronts + f;
        let outs = fronts + op * self.fabric.vcs;
        let out_vc = match self.fabric.out_vc[q] {
            NONE => {
                self.events.arbitrations += 1;
                let yx = self.worms[self.fabric.front_slot(q).worm as usize].yx;
                let fabric = &self.fabric;
                let free = self.config.vc_class(yx).find(|&v| fabric.holder[outs + v] == NONE);
                let Some(v) = free else { return (false, false) };
                self.fabric.holder[outs + v] = f as u32;
                self.fabric.out_vc[q] = v as u32;
                return (self.fabric.credits[outs + v] > 0, true);
            }
            v => v as usize,
        };
        (self.fabric.credits[outs + out_vc] > 0, false)
    }

    /// Runs switch allocation and traversal for every output of one router
    /// in one pass. Returns `(any flit moved, messages completed)`.
    ///
    /// Bit-identical to calling [`Simulator::switch_output`] for each
    /// output in port order, without its per-output rescans: the ready
    /// fronts are latched once and collected per output as a mask over
    /// the flat `(ip, vc)` inputs (bit order is ascending input order),
    /// and each output's winners are the first movable fronts at or after
    /// its round-robin pointer, wrapping. Outputs of one router share no
    /// state except the input queues, so the one coupling is a winning
    /// tail exposing a head that is already ready: the per-output scan
    /// would latch it at the next output and offer it to every later one.
    /// The same rule applies here — the head latches at once (only if a
    /// later output exists) and joins a later output's mask.
    ///
    /// A visit that changes nothing is recorded as a [`Stall`]; while
    /// the record holds, the visit only repeats its counts.
    fn switch_router(&mut self, node: usize) -> Result<(bool, usize), NocError> {
        let stall = self.fabric.stalls[node];
        if self.cycle < stall.until {
            // Nothing this visit reads has changed since a visit that
            // changed nothing: it would repeat that visit's counts.
            self.blocked_flit_cycles += stall.blocked;
            self.events.arbitrations += stall.arbitrations;
            return Ok((false, 0));
        }
        let (blocked, arbitrations) = (self.blocked_flit_cycles, self.events.arbitrations);
        let slots = PORTS * self.fabric.vcs;
        let fronts = self.fabric.vc_index(node, 0, 0);
        let cycle = self.cycle;
        // `ready[op]` holds bit `f` when input `f`'s ready front routes to
        // output `op`.
        let mut ready = [0u64; PORTS];
        // Whether a route latched or a VC was allocated this visit, and
        // when a lane frees for a movable front that found none.
        let mut changed = false;
        let mut lane_wait = u64::MAX;
        for f in 0..slots {
            let q = fronts + f;
            if self.fabric.front[q] > cycle {
                continue;
            }
            let port = match self.fabric.route[q] {
                u8::MAX => {
                    changed = true;
                    self.latch(node, q)
                }
                port => usize::from(port),
            };
            ready[port] |= 1 << f;
        }
        let mut moved = false;
        let mut completed = 0usize;
        for op in 0..PORTS {
            let candidates = ready[op];
            if candidates == 0 {
                continue;
            }
            let mut movable = 0u64;
            for f in bits(candidates) {
                let (can, allocated) = self.can_move(fronts, op, f);
                movable |= u64::from(can) << f;
                changed |= allocated;
            }
            // Everything ready but not movable (or losing arbitration
            // below, or stalled on a busy physical lane) counts as blocked.
            let free_lanes = self.fabric.free_lanes(node, op, cycle);
            let winners = (movable.count_ones() as usize).min(free_lanes);
            self.blocked_flit_cycles += u64::from(candidates.count_ones()) - winners as u64;
            if winners == 0 {
                if movable != 0 {
                    // Movable fronts wait for this output's first free lane.
                    let lanes = &self.fabric.lanes[self.fabric.lane_range(node, op)];
                    lane_wait = lanes.iter().copied().fold(lane_wait, u64::min);
                }
                continue;
            }
            moved = true;
            let rr = node * PORTS + op;
            let from_pointer = movable & (u64::MAX << self.fabric.rr[rr]);
            for f in bits(from_pointer).chain(bits(movable & !from_pointer)).take(winners) {
                self.events.arbitrations += 1;
                completed += self.traverse(node, op, f)?;
                self.fabric.rr[rr] = if f + 1 == slots { 0 } else { f as u32 + 1 };
                // A tail left (its route cleared): re-latch the exposed head.
                if op + 1 < PORTS && self.fabric.route[fronts + f] == u8::MAX {
                    if let Some(port) = self.latch_ready_front(node, f) {
                        if port > op {
                            ready[port] |= 1 << f;
                        }
                    }
                }
            }
        }
        if !moved && !changed && !self.dynamic {
            self.record_stall(node, lane_wait, blocked, arbitrations);
        }
        Ok((moved, completed))
    }

    /// Records the visit of `node` that just changed nothing (the
    /// counters stood at `blocked` and `arbitrations` before it), valid
    /// until the first of its not-yet-ready fronts becomes ready or, at
    /// `lane_wait`, a lane frees for a front that could move but found
    /// none. Only static runs record: a mid-run death rewrites routes,
    /// credits and buffers outside the invalidation points.
    fn record_stall(&mut self, node: usize, lane_wait: u64, blocked: u64, arbitrations: u64) {
        let cycle = self.cycle;
        let fronts = self.fabric.vc_index(node, 0, 0);
        let pending = self.fabric.front[fronts..fronts + PORTS * self.fabric.vcs].iter();
        let until = pending.copied().filter(|&c| c > cycle).fold(lane_wait, u64::min);
        self.fabric.stalls[node] = Stall {
            until,
            blocked: self.blocked_flit_cycles - blocked,
            arbitrations: self.events.arbitrations - arbitrations,
        };
    }

    /// Runs switch allocation and traversal for one output port of one
    /// router. Returns `(any flit moved, messages completed)`.
    ///
    /// The retained pre-overhaul scan behind [`Simulator::run_reference`]
    /// and [`Simulator::run_recoverable_reference`]: it rescans every input
    /// VC for each output and sorts the candidates into round-robin order.
    /// [`Simulator::switch_router`] must match it bit for bit.
    fn switch_output(&mut self, node: usize, op: usize) -> Result<(bool, usize), NocError> {
        let slots = PORTS * self.fabric.vcs;
        // 1. Gather candidates: inputs whose front flit is ready and
        //    routed to this output.
        let mut ready: Vec<usize> = Vec::new();
        for f in 0..slots {
            if self.latch_ready_front(node, f) == Some(op) {
                ready.push(f);
            }
        }
        if ready.is_empty() {
            return Ok((false, 0));
        }
        // 2. Filter by VC allocation + credits (ejection needs neither).
        let fronts = self.fabric.vc_index(node, 0, 0);
        let mut movable: Vec<usize> = Vec::new();
        for &f in &ready {
            if self.can_move(fronts, op, f).0 {
                movable.push(f);
            }
        }
        // Everything ready but not movable (or losing arbitration below,
        // or stalled on a busy physical lane) counts as blocked this cycle.
        let free_lanes = self.fabric.free_lanes(node, op, self.cycle);
        let winners = movable.len().min(free_lanes);
        self.blocked_flit_cycles += (ready.len() - winners) as u64;
        if winners == 0 {
            return Ok((false, 0));
        }
        // 3. Round-robin pick among movable.
        let mut completed = 0usize;
        let rr = node * PORTS + op;
        let pointer = self.fabric.rr[rr] as usize;
        movable.sort_by_key(|&f| (f + slots - pointer) % slots);
        for &f in movable.iter().take(winners) {
            self.events.arbitrations += 1;
            completed += self.traverse(node, op, f)?;
            self.fabric.rr[rr] = ((f + 1) % slots) as u32;
        }
        Ok((true, completed))
    }

    /// Moves the front flit of input `f` (flat `port * vcs + vc`) of
    /// `node` through output `op`. Returns 1 if this completed a message.
    /// Callers bound the winners of an output by its free lanes and pick
    /// only non-empty inputs, so the lane and the flit are always there.
    fn traverse(&mut self, node: usize, op: usize, f: usize) -> Result<usize, NocError> {
        let q = self.fabric.vc_index(node, 0, f);
        let link = self.links[node * PORTS + op];
        let cycle = self.cycle;
        let lanes = self.fabric.lane_range(node, op);
        let Some(lane) = lanes.clone().find(|&l| self.fabric.lanes[l] <= cycle) else {
            return Ok(0);
        };
        let Some(mut slot) = self.fabric.pop(q) else { return Ok(0) };
        self.fabric.lanes[lane] = cycle + link.ser;
        self.buffered[node] -= 1;
        self.events.buffer_reads += 1;
        self.events.crossbar_traversals += 1;
        // Credit return to the upstream router (none for local injections:
        // the source checks buffer space directly).
        let up = self.credit_return[q];
        if up != NONE {
            self.fabric.return_credit(up as usize);
        }
        let out_vc = self.fabric.out_vc[q];
        if slot.is_tail() {
            self.fabric.release(q);
        }
        if op == LOCAL {
            // Ejection.
            self.events.ejections += 1;
            if self.fault_active() {
                return Ok(self.eject_with_protocol(slot));
            }
            let mi = self.worms[slot.worm as usize].message as usize;
            let m = &mut self.messages[mi];
            debug_assert!(m.remaining_flits > 0, "over-delivery of message {mi}");
            m.remaining_flits -= 1;
            if m.remaining_flits == 0 {
                m.completed_at = Some(cycle + 1);
                return Ok(1);
            }
            return Ok(0);
        }
        if out_vc == NONE {
            // `can_move` allocates a downstream VC before any mesh
            // traversal; leaving without one would corrupt the credits.
            let vcs = self.fabric.vcs;
            return Err(NocError::FlowControl { node, port: f / vcs, vc: f % vcs });
        }
        let out = self.fabric.vc_index(node, op, out_vc as usize);
        let downstream = match link.peer {
            Some(d)
                if !self.dynamic
                    || (self.died_at[d] > cycle
                        && !edge_dead(&self.fault, &self.topo, node, Direction::ALL[op])) =>
            {
                d
            }
            _ => {
                // Null sink: the flit vanishes on the dead link / into the
                // dead router. Upstream credit was already returned; the
                // downstream buffer is never occupied, so no credit is
                // consumed.
                self.faults.flits_lost += 1;
                if slot.is_tail() && self.fabric.holder[out] == f as u32 {
                    self.fabric.holder[out] = NONE;
                }
                return Ok(0);
            }
        };
        self.fabric.credits[out] -= 1;
        if slot.is_tail() {
            self.fabric.holder[out] = NONE;
        }
        if self.fault.has_transient() {
            // Transient faults poison the flit in place: it still occupies
            // link bandwidth and buffer space (wormhole invariants hold),
            // but the destination NIC will reject the whole packet.
            let worm = &self.worms[slot.worm as usize];
            let wire = (node * 4 + op) as u64;
            let poisoned = slot.bits & POISONED != 0;
            if self.fault.drops_flit(worm.packet, worm.attempt, slot.seq, wire) {
                if !poisoned {
                    self.faults.flits_dropped += 1;
                }
                slot.bits |= POISONED;
            } else if self.fault.corrupts_flit(worm.packet, worm.attempt, slot.seq, wire) {
                if !poisoned {
                    self.faults.flits_corrupted += 1;
                }
                slot.bits |= POISONED;
            }
        }
        // Last phit lands after `ser` cycles on the link, then the
        // downstream pipeline processes the flit.
        slot.ready_at = cycle + link.arrive;
        self.fabric.push(link.facing + out_vc as usize, slot)?;
        self.buffered[downstream] += 1;
        self.events.link_traversals += 1;
        if link.inter {
            self.inter_link_traversals += 1;
        } else {
            self.intra_link_traversals += 1;
        }
        self.events.buffer_writes += 1;
        self.link_flits[node * 4 + op] += 1;
        Ok(0)
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
        let saved_next_hop = self.next_hop.clone();
        let result = self.run_recoverable_inner(messages, &schedule, monitor, full_scan);
        self.fault = saved_fault;
        self.next_hop = saved_next_hop;
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
                        resolved += self.apply_router_death(node)?;
                    }
                    FaultEventKind::LinkDeath { node, dir } => self.apply_link_death(node, dir)?,
                    FaultEventKind::ChipletDeath { .. } | FaultEventKind::SeamDeath { .. } => {
                        return Err(NocError::BadConfig(format!(
                            "fault event {e:?} reached the stepper without being lowered to \
                             router and link deaths"
                        )));
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
                if self.inject(node)? {
                    activity = true;
                }
                self.retire_or_keep_source(node);
            }
            let (moved, completed) = self.sweep_routers(full_scan)?;
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

        let abandoned: Vec<usize> =
            self.abandoned_msgs.iter().enumerate().filter_map(|(i, &a)| a.then_some(i)).collect();
        let report = self.build_report(total - abandoned.len());
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
    fn apply_router_death(&mut self, node: usize) -> Result<usize, NocError> {
        if self.died_at[node] <= self.cycle {
            return Ok(0);
        }
        self.died_at[node] = self.cycle;
        self.fault = self.fault.clone().kill_router(node);
        self.next_hop = next_hop_table(&self.topo, &self.fault);
        let inputs = self.fabric.vc_index(node, 0, 0);
        for q in inputs..inputs + PORTS * self.fabric.vcs {
            self.faults.flits_lost += self.fabric.clear(q);
        }
        self.buffered[node] = 0;
        for (dir, &toward_dead) in OPPOSITE[..LOCAL].iter().enumerate() {
            let link = self.links[node * PORTS + dir];
            let Some(nb) = link.peer else { continue };
            self.fabric.credits[link.facing..link.facing + self.fabric.vcs]
                .fill(self.config.vc_buffer_flits as u32);
            self.close_severed_worms(nb, toward_dead)?;
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
        Ok(abandoned)
    }

    /// Kills the link `(node, dir)` mid-run (both directions): reshapes
    /// routes and closes worms severed across the link. Flits later
    /// crossing the dead link are discarded by [`Simulator::traverse`].
    fn apply_link_death(&mut self, node: usize, dir: Direction) -> Result<(), NocError> {
        let Some(nb) = self.links[node * PORTS + dir.index()].peer else {
            return Ok(()); // A mesh-edge "link" has no far side; nothing to kill.
        };
        self.fault = self.fault.clone().kill_link(node, dir);
        self.next_hop = next_hop_table(&self.topo, &self.fault);
        // Both receiving sides may hold worms whose remaining flits were
        // still across the link (the sending sides self-heal: their flits
        // drain into the null sink and the real tail clears their state).
        self.close_severed_worms(nb, dir.opposite().index())?;
        self.close_severed_worms(node, dir.index())
    }

    /// Closes incomplete worms on input port `ip` of `node` after the
    /// upstream hardware feeding that port died: any worm still waiting
    /// for flits that can no longer arrive gets a synthetic poisoned tail
    /// appended, which then follows the worm's latched route trail,
    /// releasing per-hop VC state; the destination NIC rejects the partial
    /// packet, and the source retransmits or exhausts its budget.
    fn close_severed_worms(&mut self, node: usize, ip: usize) -> Result<(), NocError> {
        if self.died_at[node] <= self.cycle {
            return Ok(());
        }
        // The synthetic tail notionally crossed the severed input link, so
        // it lands with that link's class timing.
        let ready_at = self.cycle + self.links[node * PORTS + ip].arrive;
        for vc in 0..self.fabric.vcs {
            let q = self.fabric.vc_index(node, ip, vc);
            // Worms are contiguous, so only the last worm in the queue can
            // be incomplete; an idle VC has neither flits nor a latched
            // worm. A queue already ending in a tail needs no closure.
            let worm = match self.fabric.back_slot(q) {
                Some(slot) if slot.is_tail() => continue,
                Some(slot) => slot.worm,
                None if self.fabric.active[q] == NONE => continue,
                None => self.fabric.active[q],
            };
            let tail = Slot { ready_at, seq: SYNTHETIC_SEQ, worm, bits: TAIL | POISONED };
            self.fabric.push(q, tail)?;
            self.buffered[node] += 1;
            self.events.buffer_writes += 1;
        }
        Ok(())
    }

    /// Drops ready front flits that can no longer route anywhere (their
    /// destination became unreachable mid-run), plus the rest of each such
    /// worm as it surfaces. Returns whether anything was dropped.
    fn purge_unroutable(&mut self, full_scan: bool) -> bool {
        let mut dropped_any = false;
        let vcs = self.fabric.vcs;
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
                let link = self.links[node * PORTS + ip];
                for vc in 0..vcs {
                    let q = self.fabric.vc_index(node, ip, vc);
                    while self.fabric.front[q] <= self.cycle {
                        let slot = self.fabric.front_slot(q);
                        let worm = self.worms[slot.worm as usize];
                        let unroutable = !worm.doomed
                            && slot.bits & HEAD != 0
                            && self.fabric.route[q] == u8::MAX
                            && self.lookup_route(worm.yx, node, worm.dst as usize).is_none();
                        if !worm.doomed && !unroutable {
                            break;
                        }
                        if unroutable && !slot.is_tail() {
                            self.worms[slot.worm as usize].doomed = true;
                        }
                        self.fabric.pop(q);
                        self.buffered[node] -= 1;
                        self.faults.flits_lost += 1;
                        dropped_any = true;
                        if link.peer.is_some_and(|up| self.died_at[up] > self.cycle) {
                            self.fabric.return_credit(link.facing + vc);
                        }
                        if slot.is_tail() {
                            self.worms[slot.worm as usize].doomed = false;
                            self.fabric.release(q);
                        }
                    }
                }
            }
        }
        dropped_any
    }

    /// The earliest future cycle at which anything can happen.
    fn next_event_cycle(&self) -> Option<u64> {
        let buffered = self.fabric.front.iter().copied().min().filter(|&c| c != u64::MAX);
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

    fn slot(ready_at: u64, worm: u32, bits: u8) -> Slot {
        Slot { ready_at, seq: 0, worm, bits }
    }

    /// Node 5 of the 4x4 mesh with worm A's tail at the front of its west
    /// input VC 0 (route latched to `a_route`, downstream VC 0 held) and a
    /// ready single-flit packet B to `b_dst` queued behind it.
    fn tail_then_head(a_route: Direction, b_dst: usize) -> Simulator {
        let mut s = sim();
        s.reset();
        let (node, west) = (5, Direction::West.index());
        let a_dst = if a_route == Direction::Local { node } else { 6 };
        for (message, dst) in [(0, a_dst), (1, b_dst)] {
            s.messages.push(MessageState {
                inject_cycle: 0,
                remaining_flits: 1,
                bytes: 8,
                completed_at: None,
            });
            s.worms.push(Worm {
                packet: u64::from(message),
                message,
                dst: dst as u32,
                flits: 1,
                attempt: 0,
                yx: false,
                received: 0,
                poisoned: false,
                doomed: false,
            });
        }
        let q = s.fabric.vc_index(node, west, 0);
        s.fabric.push(q, slot(0, 0, TAIL)).unwrap();
        s.fabric.push(q, slot(0, 1, HEAD | TAIL)).unwrap();
        s.fabric.route[q] = a_route.index() as u8;
        s.fabric.active[q] = 0;
        if a_route != Direction::Local {
            s.fabric.out_vc[q] = 0;
            let out = s.fabric.vc_index(node, a_route.index(), 0);
            s.fabric.holder[out] = (west * s.fabric.vcs) as u32;
        }
        s.buffered[node] = 2;
        s
    }

    /// Allocates node 5 once in one pass and once per output with the
    /// oracle scan behind [`Simulator::run_reference`]; asserts identical
    /// state and returns the one-pass side.
    fn allocate_both_ways(s: &Simulator) -> (Simulator, usize) {
        let mut one_pass = s.clone();
        let (_, completed) = one_pass.switch_router(5).unwrap();
        let mut oracle = s.clone();
        let oracle_completed: usize =
            (0..PORTS).map(|op| oracle.switch_output(5, op).unwrap().1).sum();
        assert_eq!(completed, oracle_completed);
        assert_eq!(one_pass.fabric, oracle.fabric);
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
        let q = s.fabric.vc_index(5, Direction::West.index(), 0);
        assert_eq!(s.fabric.len[q], 0);
        assert_eq!((s.events.link_traversals, s.events.ejections, completed), (1, 1, 1));
        assert_eq!(s.messages[1].completed_at, Some(1));
    }

    #[test]
    fn exposed_head_routed_to_an_earlier_output_waits_but_latches() {
        // B (to node 1) routes north, an output already allocated this
        // cycle: it latches its route but stays queued.
        let (s, _) = allocate_both_ways(&tail_then_head(Direction::East, 1));
        let q = s.fabric.vc_index(5, Direction::West.index(), 0);
        assert_eq!((s.fabric.len[q], s.fabric.route[q]), (1, Direction::North.index() as u8));
        assert_eq!(s.events.link_traversals, 1);
    }

    #[test]
    fn head_exposed_by_the_last_output_latches_next_cycle() {
        // A's tail ejects on the local output, the last one: no later
        // output exists, so B's route stays unlatched this cycle.
        let (s, completed) = allocate_both_ways(&tail_then_head(Direction::Local, 6));
        let q = s.fabric.vc_index(5, Direction::West.index(), 0);
        assert_eq!((s.fabric.len[q], s.fabric.route[q], completed), (1, u8::MAX, 1));
    }

    #[test]
    fn rings_are_fifo_across_the_wrap_and_track_their_front() {
        let config = NocConfig { vcs: 2, vc_buffer_flits: 2, ..NocConfig::paper_16core() };
        let mut fabric = Fabric::new(16, &config);
        let q = fabric.vc_index(3, Direction::South.index(), 1);
        assert!(fabric.accepts_new_packet(q));
        assert_eq!((fabric.front[q], fabric.back_slot(q)), (u64::MAX, None));
        // Three rounds through a three-slot ring wrap its start twice.
        for round in 0..3u64 {
            for i in 0..3 {
                fabric.push(q, slot(10 * round + i, i as u32, 0)).unwrap();
            }
            assert_eq!(fabric.front[q], 10 * round);
            assert_eq!(fabric.back_slot(q).map(|s| s.worm), Some(2));
            for i in 0..3 {
                assert_eq!(fabric.pop(q).map(|s| s.ready_at), Some(10 * round + i));
            }
            assert_eq!((fabric.pop(q), fabric.front[q]), (None, u64::MAX));
        }
        // Neighbouring VCs were never touched.
        assert!(fabric.len.iter().all(|&l| l == 0));
    }

    #[test]
    fn ring_overflow_is_a_typed_error_that_keeps_every_flit() {
        let config = NocConfig { vc_buffer_flits: 1, ..NocConfig::paper_16core() };
        let mut fabric = Fabric::new(16, &config);
        let q = fabric.vc_index(7, Direction::East.index(), 2);
        // One credit-bounded flit plus the synthetic-tail spare.
        fabric.push(q, slot(1, 0, HEAD)).unwrap();
        fabric.push(q, slot(2, 0, TAIL)).unwrap();
        let err = fabric.push(q, slot(3, 1, HEAD | TAIL)).unwrap_err();
        assert_eq!(err, NocError::FlowControl { node: 7, port: Direction::East.index(), vc: 2 });
        assert_eq!(fabric.pop(q).map(|s| s.ready_at), Some(1));
        assert_eq!(fabric.pop(q).map(|s| s.ready_at), Some(2));
        assert_eq!(fabric.pop(q), None);
    }

    #[test]
    fn unlowered_package_events_are_a_typed_error() {
        let mut s = Simulator::new(NocConfig::paper_mcm(2, 16).unwrap()).unwrap();
        let schedule = FaultSchedule::new().chiplet_death(10, 1);
        let err = s
            .run_recoverable_inner(
                &[Message::new(0, 3, 64, 0)],
                &schedule,
                &MonitorConfig::default(),
                false,
            )
            .unwrap_err();
        assert!(matches!(err, NocError::BadConfig(_)), "{err:?}");
    }

    #[test]
    fn next_hop_table_is_dimension_ordered_without_faults() {
        let s = Simulator::new(NocConfig::paper_mcm(2, 16).unwrap()).unwrap();
        let topo = *s.topo();
        for yx in [false, true] {
            for here in 0..32 {
                for dst in 0..32 {
                    let want = topo.route_ordered(yx, here, dst).index();
                    assert_eq!(s.lookup_route(yx, here, dst), Some(want));
                }
            }
        }
    }

    /// The first `copies` copies of `burst`, `period` cycles apart.
    fn expand(burst: &[Message], period: u64, copies: u64) -> Vec<Message> {
        (0..copies)
            .flat_map(|j| {
                burst
                    .iter()
                    .map(move |m| Message { inject_cycle: m.inject_cycle + j * period, ..*m })
            })
            .collect()
    }

    #[test]
    fn transient_faults_and_o1turn_step_every_copy() {
        let burst = [Message::new(0, 5, 640, 0), Message::new(3, 12, 900, 4)];
        let xy = NocConfig::paper_16core();
        let o1turn = NocConfig { routing: RoutingPolicy::O1Turn, ..xy };
        // A drop rate this low drops nothing here, yet still rules out replication.
        let drops = FaultModel::none().with_seed(3).drop_rate(1e-9);
        for (config, fault, replicable) in [
            (xy, FaultModel::none(), true),
            (o1turn, FaultModel::none(), false),
            (xy, drops, false),
        ] {
            let mut s = Simulator::with_faults(config, fault).unwrap();
            let periodic = s.run_periodic(&burst, 3_000, 4).unwrap();
            for (b, prefix) in (1..=4).zip(&periodic.prefixes) {
                assert_eq!(prefix.as_ref(), Some(&s.run(&expand(&burst, 3_000, b)).unwrap()));
            }
            let longest = periodic.prefixes[3].as_ref().unwrap();
            let span = longest.cycles_simulated + longest.cycles_fast_forwarded;
            let stepped = periodic.cycles_simulated + periodic.cycles_fast_forwarded;
            assert_eq!(stepped + periodic.cycles_replicated, span);
            assert_eq!(periodic.cycles_replicated > 0, replicable, "{config:?}");
        }
    }

    #[test]
    fn periodic_edge_cases() {
        let mut s = sim();
        let empty = s.run(&[]).unwrap();
        assert_eq!(s.run_periodic(&[], 100, 3).unwrap().prefixes, vec![Some(empty.clone()); 3]);
        assert_eq!(s.run_periodic(&[], u64::MAX, 3).unwrap().prefixes, vec![Some(empty); 3]);
        assert!(s.run_periodic(&[Message::new(0, 1, 8, 0)], 100, 0).unwrap().prefixes.is_empty());
        let overflow = s.run_periodic(&[Message::new(0, 1, 8, 5)], u64::MAX / 2, 3);
        assert!(matches!(overflow, Err(NocError::BadConfig(_))), "{overflow:?}");
        // All copies at once: only the longest prefix stands alone.
        let at_once = s.run_periodic(&[Message::new(0, 1, 8, 0)], 0, 3).unwrap();
        assert_eq!(at_once.prefixes[..2], [None, None]);
        let alone = s.run(&expand(&[Message::new(0, 1, 8, 0)], 0, 3)).unwrap();
        assert_eq!(at_once.prefixes[2], Some(alone));
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
