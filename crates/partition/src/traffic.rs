//! Layer-transition traffic generation.
//!
//! Before a partitioned layer can run, every core must hold the input
//! units its kernels read. Data produced on the same core stays local;
//! everything else crosses the NoC. Three regimes:
//!
//! * **dense** (traditional parallelization): every consumer needs every
//!   input unit → each producer broadcasts its block to all other cores;
//! * **grouped** (structure-level): a consumer only reads the channels of
//!   its own kernel group — with `groups == cores` and aligned blocks,
//!   nothing crosses the NoC;
//! * **sparse** (SS/SS_Mask): a producer sends unit `i` to consumer `c`
//!   only if some surviving (nonzero) weight of `c` reads it.

use crate::ownership::OwnershipMap;
use lts_nn::descriptor::{LayerKind, LayerSpec};
use lts_nn::grouping::GroupLayout;
use lts_noc::traffic::{Message, TrafficTrace};
use std::ops::Range;

/// Generates the messages that synchronize `spec`'s input before it runs.
///
/// * `producer` — ownership of the layer's input units (from
///   [`crate::ownership::propagate`] on the previous layers).
/// * `consumers` — output-unit block per consumer core.
/// * `sparse` — the layer's block layout and trained weights; `None`
///   means dense (traditional) traffic. Only meaningful for ungrouped
///   layers.
///
/// # Panics
///
/// Panics if the producer map's core count differs from `consumers`'
/// length, or (for sparse traffic) the layout disagrees with the producer
/// blocks — those are construction bugs in the caller, not runtime
/// conditions.
pub fn transition_messages(
    producer: &OwnershipMap,
    spec: &LayerSpec,
    consumers: &[Range<usize>],
    sparse: Option<(&GroupLayout, &[f32])>,
    bytes_per_value: usize,
    inject_cycle: u64,
) -> TrafficTrace {
    transition_messages_mapped(
        producer,
        spec,
        consumers,
        sparse,
        bytes_per_value,
        inject_cycle,
        |p| p,
        |c| c,
    )
}

/// [`transition_messages`] with explicit logical-core → NoC-node maps, for
/// plans whose cores are placed on a larger package (e.g. one pipeline
/// stage per chiplet). A transfer is emitted whenever the *mapped* nodes
/// differ — in particular, logical pair `p == c` produces a message when
/// stage boundaries put producer and consumer on different chiplets. With
/// identity maps this is exactly [`transition_messages`].
///
/// # Panics
///
/// Same conditions as [`transition_messages`].
#[allow(clippy::too_many_arguments)]
pub fn transition_messages_mapped(
    producer: &OwnershipMap,
    spec: &LayerSpec,
    consumers: &[Range<usize>],
    sparse: Option<(&GroupLayout, &[f32])>,
    bytes_per_value: usize,
    inject_cycle: u64,
    src_node: impl Fn(usize) -> usize,
    dst_node: impl Fn(usize) -> usize,
) -> TrafficTrace {
    let cores = consumers.len();
    assert_eq!(producer.cores(), cores, "producer/consumer core counts differ");
    // Sparse ungrouped layers: how many of producer `p`'s units consumer
    // `c` reads (`needed[p * cores + c]`), from each consumer's
    // needed-input mask, built in one row-major pass over the weights.
    let ungrouped = match spec.kind {
        LayerKind::Conv { groups, .. } => groups <= 1,
        LayerKind::Linear { .. } => true,
        _ => false,
    };
    let needed: Option<Vec<usize>> = sparse.filter(|_| ungrouped).map(|(layout, weights)| {
        let mut needed = vec![0; cores * cores];
        for (c, block) in consumers.iter().enumerate() {
            let mask = needed_input_units(layout, weights, block);
            for p in 0..cores {
                needed[p * cores + c] = producer.block(p).filter(|&i| mask[i]).count();
            }
        }
        needed
    });
    let mut trace = TrafficTrace::new();
    let unit_bytes = (producer.values_per_unit() * bytes_per_value) as u64;
    for p in 0..cores {
        for (c, consumer_block) in consumers.iter().enumerate() {
            let (src, dst) = (src_node(p), dst_node(c));
            if src == dst || consumer_block.is_empty() {
                continue;
            }
            let units_needed = match &needed {
                Some(needed) => needed[p * cores + c],
                None => {
                    producer.block(p).filter(|&i| unit_needed_by(spec, i, consumer_block)).count()
                }
            } as u64;
            if units_needed > 0 {
                trace.push(Message::new(src, dst, units_needed * unit_bytes, inject_cycle));
            }
        }
    }
    trace
}

/// Which input units a consumer owning `consumer_block` of the output
/// units reads through a nonzero weight: entry `i` is set iff some output
/// unit of the block has a nonzero tap on input unit `i`. One row-major
/// pass over the block's weight rows.
///
/// # Panics
///
/// Panics if `weights` is shorter than `layout` or the block runs past
/// its output units.
pub fn needed_input_units(
    layout: &GroupLayout,
    weights: &[f32],
    consumer_block: &Range<usize>,
) -> Vec<bool> {
    let (in_units, taps) = (layout.in_units(), layout.taps());
    let mut needed = vec![false; in_units];
    let len = in_units * taps;
    for o in consumer_block.clone() {
        let row = &weights[o * len..(o + 1) * len];
        if taps == 1 {
            // Linear layers: one weight per unit, a branch-free sweep.
            for (needed, &w) in needed.iter_mut().zip(row) {
                *needed |= w != 0.0;
            }
        } else {
            for (needed, unit) in needed.iter_mut().zip(row.chunks_exact(taps)) {
                *needed |= unit.iter().any(|&w| w != 0.0);
            }
        }
    }
    needed
}

/// Whether input unit `i` must be present on a consumer owning
/// `consumer_block` of the output units of a dense or grouped layer
/// (sparse layers use [`needed_input_units`]).
fn unit_needed_by(spec: &LayerSpec, i: usize, consumer_block: &Range<usize>) -> bool {
    match spec.kind {
        LayerKind::Conv { out_c, groups, .. } if groups > 1 => {
            // Grouped conv: input channel i belongs to kernel group g and
            // only that group's output channels read it.
            let in_per_group = spec.in_dims.0 / groups;
            let out_per_group = out_c / groups;
            let g = i / in_per_group;
            let group_out = g * out_per_group..(g + 1) * out_per_group;
            ranges_intersect(&group_out, consumer_block)
        }
        LayerKind::Conv { .. } | LayerKind::Linear { .. } => true,
        // Pool/activation/flatten layers run where their data lives; they
        // never trigger inter-core traffic.
        _ => false,
    }
}

fn ranges_intersect(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

/// Transition volume when suppression decisions are made at *group*
/// granularity only: producer `p` sends its whole block to consumer `c`
/// unless the entire `(p, c)` weight group is zero. Coarser than
/// [`transition_messages`]'s per-unit rule — the difference is the payoff
/// of fine-grained bookkeeping (the `ablation_granularity` experiment).
pub fn group_level_volume_bytes(
    producer: &OwnershipMap,
    layout: &GroupLayout,
    weights: &[f32],
    bytes_per_value: usize,
) -> u64 {
    let cores = producer.cores();
    assert_eq!(layout.cores(), cores, "layout/ownership core counts differ");
    let unit_bytes = (producer.values_per_unit() * bytes_per_value) as u64;
    let mut total = 0u64;
    for p in 0..cores {
        for c in 0..cores {
            if p == c {
                continue;
            }
            if !layout.group_is_zero(p, c, weights) {
                total += producer.block(p).len() as u64 * unit_bytes;
            }
        }
    }
    total
}

/// Dense broadcast volume of one transition (the Table I integrand):
/// every producer sends its share of the input activations to all other
/// cores, so the total is `input_bytes × (cores − 1)` for an ungrouped
/// layer and `0` for a fully grouped one.
pub fn dense_volume_bytes(spec: &LayerSpec, cores: usize, bytes_per_value: usize) -> u64 {
    match spec.kind {
        LayerKind::Conv { groups, .. } if groups >= cores && cores > 1 => 0,
        LayerKind::Conv { groups, .. } if groups > 1 => {
            // Each input channel is needed by its group's consumers only.
            // With g groups evenly spread over C cores, a channel reaches
            // the C/g − 1 other cores of its group.
            let input_bytes =
                (spec.in_dims.0 * spec.in_dims.1 * spec.in_dims.2 * bytes_per_value) as u64;
            let per_group_cores = (cores / groups).max(1) as u64;
            input_bytes * (per_group_cores - 1)
        }
        LayerKind::Conv { .. } | LayerKind::Linear { .. } => {
            let input_bytes =
                (spec.in_dims.0 * spec.in_dims.1 * spec.in_dims.2 * bytes_per_value) as u64;
            input_bytes * (cores as u64 - 1)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_nn::descriptor::SpecBuilder;
    use lts_nn::grouping::even_blocks;

    fn conv_spec(out_c: usize, groups: usize) -> LayerSpec {
        SpecBuilder::new("n", (8, 4, 4)).conv("c", out_c, 3, 1, 1, groups).build().layers[0].clone()
    }

    #[test]
    fn dense_transition_is_all_to_all_broadcast() {
        let spec = conv_spec(8, 1);
        let producer = OwnershipMap::even(8, 16, 4); // 8 channels of 4x4
        let consumers = even_blocks(8, 4);
        let trace = transition_messages(&producer, &spec, &consumers, None, 2, 0);
        // 4 producers x 3 remote consumers.
        assert_eq!(trace.len(), 12);
        // Each producer owns 2 channels of 16 values at 2 B.
        assert!(trace.messages.iter().all(|m| m.bytes == 2 * 16 * 2));
        let total = trace.total_bytes();
        assert_eq!(total, dense_volume_bytes(&spec, 4, 2));
    }

    #[test]
    fn fully_grouped_conv_has_zero_traffic() {
        let spec = conv_spec(8, 4);
        let producer = OwnershipMap::even(8, 16, 4);
        let consumers = even_blocks(8, 4);
        let trace = transition_messages(&producer, &spec, &consumers, None, 2, 0);
        assert!(trace.is_empty());
        assert_eq!(dense_volume_bytes(&spec, 4, 2), 0);
    }

    #[test]
    fn partially_grouped_conv_stays_within_group_cores() {
        // 2 groups over 4 cores: group 0 = channels 0..4 = cores 0,1.
        let spec = conv_spec(8, 2);
        let producer = OwnershipMap::even(8, 16, 4);
        let consumers = even_blocks(8, 4);
        let trace = transition_messages(&producer, &spec, &consumers, None, 2, 0);
        for m in &trace.messages {
            let same_half = (m.src < 2) == (m.dst < 2);
            assert!(same_half, "{} -> {} crosses groups", m.src, m.dst);
        }
        assert_eq!(trace.total_bytes(), dense_volume_bytes(&spec, 4, 2));
    }

    #[test]
    fn sparse_weights_suppress_exactly_the_zero_blocks() {
        let spec = conv_spec(8, 1);
        let producer = OwnershipMap::even(8, 16, 4);
        let consumers = even_blocks(8, 4);
        let layout = GroupLayout::new(8, 8, 9, 4);
        // All weights zero except group (producer 1 -> consumer 0).
        let mut w = vec![0.0f32; layout.weight_len()];
        layout.visit_group(1, 0, |idx| w[idx] = 0.5);
        let trace = transition_messages(&producer, &spec, &consumers, Some((&layout, &w)), 2, 0);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.messages[0].src, 1);
        assert_eq!(trace.messages[0].dst, 0);
        // Producer 1 owns channels 2..4 -> 2 units of 32 B.
        assert_eq!(trace.messages[0].bytes, 2 * 16 * 2);
    }

    #[test]
    fn partially_zero_group_sends_only_used_channels() {
        let spec = conv_spec(8, 1);
        let producer = OwnershipMap::even(8, 16, 4);
        let consumers = even_blocks(8, 4);
        let layout = GroupLayout::new(8, 8, 9, 4);
        let mut w = vec![0.0f32; layout.weight_len()];
        // Consumer core 3 (out channels 6..8) uses only input channel 2
        // (owned by producer 1): set one tap of weight (o=6, i=2).
        w[(6 * 8 + 2) * 9 + 4] = 1.0;
        let trace = transition_messages(&producer, &spec, &consumers, Some((&layout, &w)), 2, 0);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.messages[0].bytes, 16 * 2); // a single channel
    }

    #[test]
    fn sparse_linear_after_flatten_respects_uneven_ownership() {
        // 5 channels of 4 px over 2 cores (3/2 channels -> 12/8 values).
        let producer = OwnershipMap::even(5, 4, 2).flattened();
        let spec = SpecBuilder::new("n", (20, 1, 1)).linear("ip", 6).build().layers[0].clone();
        let consumers = even_blocks(6, 2);
        let layout = GroupLayout::with_blocks(1, consumers.clone(), producer.blocks().to_vec());
        // Only consumer core 1 uses inputs, and only input 0 (owned by 0).
        let mut w = vec![0.0f32; layout.weight_len()];
        w[3 * 20] = 1.0; // weight (o=3, i=0); o=3 owned by core 1
        let trace = transition_messages(&producer, &spec, &consumers, Some((&layout, &w)), 2, 0);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.messages[0].src, 0);
        assert_eq!(trace.messages[0].dst, 1);
        assert_eq!(trace.messages[0].bytes, 2); // one flat value
    }

    #[test]
    fn sparse_traffic_never_exceeds_dense() {
        let spec = conv_spec(8, 1);
        let producer = OwnershipMap::even(8, 16, 4);
        let consumers = even_blocks(8, 4);
        let layout = GroupLayout::new(8, 8, 9, 4);
        let w = vec![1.0f32; layout.weight_len()];
        let dense = transition_messages(&producer, &spec, &consumers, None, 2, 0);
        let sparse = transition_messages(&producer, &spec, &consumers, Some((&layout, &w)), 2, 0);
        assert_eq!(dense.total_bytes(), sparse.total_bytes());
    }

    #[test]
    fn group_level_volume_bounds_per_unit_volume() {
        let spec = conv_spec(8, 1);
        let producer = OwnershipMap::even(8, 16, 4);
        let consumers = even_blocks(8, 4);
        let layout = GroupLayout::new(8, 8, 9, 4);
        // One nonzero weight: per-unit sends 1 channel; per-group sends
        // the producer's whole 2-channel block.
        let mut w = vec![0.0f32; layout.weight_len()];
        w[(6 * 8 + 2) * 9] = 1.0; // (o=6 ∈ core 3, i=2 ∈ core 1)
        let per_unit = transition_messages(&producer, &spec, &consumers, Some((&layout, &w)), 2, 0)
            .total_bytes();
        let per_group = group_level_volume_bytes(&producer, &layout, &w, 2);
        assert_eq!(per_unit, 16 * 2);
        assert_eq!(per_group, 2 * 16 * 2);
        assert!(per_group >= per_unit);
        // All-zero weights: both are zero.
        let zeros = vec![0.0f32; layout.weight_len()];
        assert_eq!(group_level_volume_bytes(&producer, &layout, &zeros, 2), 0);
    }

    #[test]
    fn pool_layers_generate_no_traffic() {
        let spec = SpecBuilder::new("n", (8, 4, 4)).pool("p", 2, 2).build().layers[0].clone();
        let producer = OwnershipMap::even(8, 16, 4);
        let consumers = even_blocks(8, 4);
        let trace = transition_messages(&producer, &spec, &consumers, None, 2, 0);
        assert!(trace.is_empty());
    }
}
