//! Traffic traces: the messages a workload injects into the NoC.

use serde::{Deserialize, Serialize};

/// One core-to-core transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Source node.
    pub src: usize,
    /// Destination node (must differ from `src`; same-core data never
    /// enters the NoC).
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Cycle at which the source makes the data available.
    pub inject_cycle: u64,
}

impl Message {
    /// Creates a message.
    pub fn new(src: usize, dst: usize, bytes: u64, inject_cycle: u64) -> Self {
        Self { src, dst, bytes, inject_cycle }
    }
}

/// A whole trace with summary helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficTrace {
    /// Messages in no particular order (the simulator sorts per source).
    pub messages: Vec<Message>,
}

impl TrafficTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a message.
    pub fn push(&mut self, message: Message) {
        self.messages.push(message);
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.bytes).sum()
    }

    /// Total byte·hop product under a distance function (the analytic
    /// communication-cost integrand the SS_Mask training minimizes).
    pub fn byte_hops(&self, distance: impl Fn(usize, usize) -> usize) -> u64 {
        self.messages.iter().map(|m| m.bytes * distance(m.src, m.dst) as u64).sum()
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

impl FromIterator<Message> for TrafficTrace {
    fn from_iter<I: IntoIterator<Item = Message>>(iter: I) -> Self {
        Self { messages: iter.into_iter().collect() }
    }
}

impl Extend<Message> for TrafficTrace {
    fn extend<I: IntoIterator<Item = Message>>(&mut self, iter: I) {
        self.messages.extend(iter);
    }
}

/// Uniform-random traffic: every node sends `messages_per_node` messages of
/// `bytes` each to uniformly random other nodes — the classic NoC stress
/// pattern, used by the `noc_explorer` example and load tests.
pub fn uniform_random(
    nodes: usize,
    messages_per_node: usize,
    bytes: u64,
    seed: u64,
) -> TrafficTrace {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut trace = TrafficTrace::new();
    for src in 0..nodes {
        for _ in 0..messages_per_node {
            let mut dst = rng.gen_range(0..nodes);
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            trace.push(Message::new(src, dst, bytes, 0));
        }
    }
    trace
}

/// All-to-all broadcast burst: every node sends `bytes` to every other node
/// at cycle 0 — exactly the layer-transition traffic of the paper's
/// *traditional parallelization*.
pub fn all_to_all(nodes: usize, bytes: u64) -> TrafficTrace {
    let mut trace = TrafficTrace::new();
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst {
                trace.push(Message::new(src, dst, bytes, 0));
            }
        }
    }
    trace
}

/// `copies` copies of `burst` in copy order, copy `j` injected `j * period`
/// cycles later: the trace [`crate::Simulator::run_periodic`] steps, whose
/// first `b * burst.len()` messages are its prefix of `b` copies. `None`
/// when an inject cycle overflows `u64`.
pub fn periodic(burst: &[Message], period: u64, copies: usize) -> Option<Vec<Message>> {
    let mut messages = Vec::with_capacity(burst.len().saturating_mul(copies));
    if burst.is_empty() {
        return Some(messages);
    }
    for j in 0..copies as u64 {
        let shift = j.checked_mul(period)?;
        for m in burst {
            messages.push(Message { inject_cycle: m.inject_cycle.checked_add(shift)?, ..*m });
        }
    }
    Some(messages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_has_n_times_n_minus_one_messages() {
        let t = all_to_all(4, 100);
        assert_eq!(t.len(), 12);
        assert_eq!(t.total_bytes(), 1200);
        assert!(t.messages.iter().all(|m| m.src != m.dst));
    }

    #[test]
    fn uniform_random_never_self_sends() {
        let t = uniform_random(8, 10, 64, 3);
        assert_eq!(t.len(), 80);
        assert!(t.messages.iter().all(|m| m.src != m.dst));
        // Deterministic per seed.
        assert_eq!(t, uniform_random(8, 10, 64, 3));
        assert_ne!(t, uniform_random(8, 10, 64, 4));
    }

    #[test]
    fn byte_hops_weighs_by_distance() {
        let mut t = TrafficTrace::new();
        t.push(Message::new(0, 1, 10, 0));
        t.push(Message::new(0, 2, 10, 0));
        let dist = |a: usize, b: usize| b.abs_diff(a);
        assert_eq!(t.byte_hops(dist), 10 + 20);
    }

    #[test]
    fn periodic_copies_shift_by_the_period() {
        let burst = [Message::new(0, 1, 8, 3), Message::new(2, 1, 16, 0)];
        let t = periodic(&burst, 100, 3).unwrap();
        let injects: Vec<u64> = t.iter().map(|m| m.inject_cycle).collect();
        assert_eq!(injects, [3, 0, 103, 100, 203, 200]);
        assert!(t.chunks(2).all(|copy| copy[0].src == 0 && copy[1].bytes == 16));
        assert_eq!(periodic(&burst, u64::MAX, 3), None);
        assert_eq!(periodic(&burst, 5, 0), Some(vec![]));
        assert_eq!(periodic(&[], u64::MAX, 3), Some(vec![]));
    }

    #[test]
    fn collects_from_iterator() {
        let t: TrafficTrace = (0..3).map(|i| Message::new(i, i + 1, 1, 0)).collect();
        assert_eq!(t.len(), 3);
    }
}
