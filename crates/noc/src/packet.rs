//! Messages, packets and flits.

use crate::config::NocConfig;
use serde::{Deserialize, Serialize};

/// Unique message id within one simulation.
pub type MessageId = u64;
/// Unique packet id within one simulation.
pub type PacketId = u64;

/// A single flit in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Owning message.
    pub message: MessageId,
    /// Destination node.
    pub dst: usize,
    /// Head flit (carries routing info; triggers VC allocation).
    pub is_head: bool,
    /// Tail flit (releases the VC).
    pub is_tail: bool,
    /// Dimension order of this packet (`true` = YX); fixed at injection
    /// by the routing policy.
    pub yx: bool,
    /// Retransmission attempt of the owning packet (0 = first try).
    pub attempt: u32,
    /// Position of this flit within its packet (0 = head).
    pub seq: u64,
    /// Set when a transient fault hit this flit in transit; the
    /// destination NIC discards the whole packet and awaits a retry.
    pub poisoned: bool,
}

/// A packet: a contiguous run of flits of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketDescriptor {
    /// Packet id.
    pub id: PacketId,
    /// Owning message id.
    pub message: MessageId,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Number of flits (including head and tail).
    pub flits: u64,
    /// Dimension order (`true` = YX).
    pub yx: bool,
}

/// Splits a message payload into packet descriptors of at most
/// `config.max_packet_flits` flits each.
///
/// The first flit of each packet is its head and the last its tail (a
/// single-flit packet is both). `next_packet_id` supplies globally unique
/// packet ids and is advanced.
pub fn packetize(
    message: MessageId,
    src: usize,
    dst: usize,
    bytes: u64,
    config: &NocConfig,
    next_packet_id: &mut PacketId,
) -> Vec<PacketDescriptor> {
    let mut packets = Vec::new();
    packetize_into(message, src, dst, bytes, config, next_packet_id, &mut packets);
    packets
}

/// [`packetize`] into a caller-owned buffer: `out` is cleared and refilled,
/// so one scratch vector can serve every message of a run instead of a
/// fresh allocation per message.
#[allow(clippy::too_many_arguments)]
pub fn packetize_into(
    message: MessageId,
    src: usize,
    dst: usize,
    bytes: u64,
    config: &NocConfig,
    next_packet_id: &mut PacketId,
    out: &mut Vec<PacketDescriptor>,
) {
    out.clear();
    let total_flits = config.flits_for_bytes(bytes);
    let max = config.max_packet_flits as u64;
    out.reserve(total_flits.div_ceil(max) as usize);
    let mut remaining = total_flits;
    while remaining > 0 {
        let flits = remaining.min(max);
        out.push(PacketDescriptor {
            id: *next_packet_id,
            message,
            src,
            dst,
            flits,
            yx: config.packet_order_is_yx(*next_packet_id),
        });
        *next_packet_id += 1;
        remaining -= flits;
    }
}

impl PacketDescriptor {
    /// Materializes the packet's flits in wire order.
    pub fn flit_sequence(&self) -> impl Iterator<Item = Flit> + '_ {
        let n = self.flits;
        (0..n).map(move |i| Flit {
            packet: self.id,
            message: self.message,
            dst: self.dst,
            is_head: i == 0,
            is_tail: i + 1 == n,
            yx: self.yx,
            attempt: 0,
            seq: i,
            poisoned: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packetize_splits_at_max_packet_size() {
        let config = NocConfig::paper_16core(); // 64 B flits, 20-flit packets
        let mut next = 0;
        // 64 * 45 bytes = 45 flits = 20 + 20 + 5.
        let packets = packetize(1, 0, 5, 64 * 45, &config, &mut next);
        assert_eq!(packets.len(), 3);
        assert_eq!(packets[0].flits, 20);
        assert_eq!(packets[1].flits, 20);
        assert_eq!(packets[2].flits, 5);
        assert_eq!(next, 3);
        assert!(packets.iter().all(|p| p.message == 1 && p.src == 0 && p.dst == 5));
    }

    #[test]
    fn tiny_message_is_single_flit_packet() {
        let config = NocConfig::paper_16core();
        let mut next = 10;
        let packets = packetize(2, 1, 2, 4, &config, &mut next);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].flits, 1);
        assert_eq!(packets[0].id, 10);
    }

    #[test]
    fn flit_sequence_marks_head_and_tail() {
        let p = PacketDescriptor { id: 0, message: 0, src: 0, dst: 1, flits: 3, yx: false };
        let flits: Vec<Flit> = p.flit_sequence().collect();
        assert!(flits[0].is_head && !flits[0].is_tail);
        assert!(!flits[1].is_head && !flits[1].is_tail);
        assert!(!flits[2].is_head && flits[2].is_tail);
    }

    #[test]
    fn single_flit_is_head_and_tail() {
        let p = PacketDescriptor { id: 0, message: 0, src: 0, dst: 1, flits: 1, yx: false };
        let flits: Vec<Flit> = p.flit_sequence().collect();
        assert!(flits[0].is_head && flits[0].is_tail);
    }

    #[test]
    fn empty_message_still_sends_one_flit() {
        let config = NocConfig::paper_16core();
        let mut next = 0;
        let packets = packetize(0, 3, 4, 0, &config, &mut next);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].flits, 1);
        assert_eq!(next, 1);
    }

    #[test]
    fn packetize_into_reuses_the_buffer_and_matches_packetize() {
        let config = NocConfig::paper_16core();
        let mut out =
            vec![PacketDescriptor { id: 99, message: 9, src: 9, dst: 9, flits: 9, yx: true }];
        let mut next_a = 5;
        packetize_into(7, 0, 15, 64 * 41, &config, &mut next_a, &mut out);
        let mut next_b = 5;
        assert_eq!(out, packetize(7, 0, 15, 64 * 41, &config, &mut next_b));
        assert_eq!(next_a, next_b);
        assert_eq!(out.iter().map(|p| p.flits).sum::<u64>(), 41);
        let ids: Vec<PacketId> = out.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![5, 6, 7]);
    }

    #[test]
    fn flit_sequence_carries_packet_identity_in_order() {
        let p = PacketDescriptor { id: 4, message: 2, src: 0, dst: 6, flits: 4, yx: true };
        let flits: Vec<Flit> = p.flit_sequence().collect();
        assert_eq!(flits.iter().map(|f| f.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        for f in &flits {
            assert_eq!((f.packet, f.message, f.dst, f.yx), (4, 2, 6, true));
            assert_eq!((f.attempt, f.poisoned), (0, false));
        }
    }
}
