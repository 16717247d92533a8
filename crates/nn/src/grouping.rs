//! Producer-core × consumer-core block layout over weight tensors.
//!
//! Section IV-C-3 of the paper: "we firstly partition the weight matrix
//! into several groups of the same number as the square of the core
//! number". For a chip of `C` cores, the input units (channels or neurons,
//! produced by the previous layer and owned by their producer core) and the
//! output units (owned by their consumer core) are each split into `C`
//! contiguous blocks, giving `C × C` weight groups. Group `(p, c)` contains
//! exactly the weights that force core `p` to send data to core `c` — if
//! the whole group is zero, that transfer never happens.
//!
//! Weights are stored output unit by output unit, so a group is one
//! contiguous *row segment* per output unit of its consumer block. Every
//! group operation walks those segments, one group at a time
//! ([`GroupLayout::segments`]) or all groups in one row-major pass
//! ([`GroupLayout::row_segments`]); both visit a group in ascending flat
//! index order, so a per-group sum is the same whichever walk computes it.

use crate::descriptor::{LayerKind, LayerSpec};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Splits `n` units into `cores` contiguous, maximally even blocks.
///
/// The first `n % cores` blocks get one extra unit. Blocks may be empty
/// when `n < cores`.
pub fn even_blocks(n: usize, cores: usize) -> Vec<Range<usize>> {
    assert!(cores > 0, "cores must be positive");
    let base = n / cores;
    let extra = n % cores;
    let mut blocks = Vec::with_capacity(cores);
    let mut start = 0;
    for b in 0..cores {
        let size = base + usize::from(b < extra);
        blocks.push(start..start + size);
        start += size;
    }
    blocks
}

/// The block structure of one weight tensor for a `cores`-way partition.
///
/// Weights are addressed as `(out_unit, in_unit, tap)` with flat index
/// `(out * in_units + in) * taps + tap`; `taps = kh*kw` for convolutions
/// and `1` for fully-connected layers, matching the storage order of
/// [`crate::conv::Conv2d`] and [`crate::linear::Linear`].
///
/// # Examples
///
/// ```
/// use lts_nn::grouping::GroupLayout;
///
/// // An 8x8 FC weight matrix on 4 cores: 16 groups of 2x2 weights.
/// let layout = GroupLayout::new(8, 8, 1, 4);
/// assert_eq!(layout.group_len(0, 0), 4);
/// // Producer core 1 owns input neurons 2..4.
/// assert_eq!(layout.in_block(1), 2..4);
/// // A weight from input 2 to output 0 lives in group (producer 1, consumer 0).
/// assert_eq!(layout.producer_of(2), Some(1));
/// assert_eq!(layout.consumer_of(0), Some(0));
/// // Its weights are one row segment per output unit of consumer block 0.
/// let segments: Vec<_> = layout.segments(1, 0).collect();
/// assert_eq!(segments, vec![2..4, 10..12]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupLayout {
    cores: usize,
    out_units: usize,
    in_units: usize,
    taps: usize,
    out_blocks: Vec<Range<usize>>,
    in_blocks: Vec<Range<usize>>,
}

impl GroupLayout {
    /// Creates a layout for a weight tensor of `out_units × in_units ×
    /// taps` values partitioned over `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `taps == 0`.
    pub fn new(out_units: usize, in_units: usize, taps: usize, cores: usize) -> Self {
        assert!(cores > 0, "cores must be positive");
        assert!(taps > 0, "taps must be positive");
        Self {
            cores,
            out_units,
            in_units,
            taps,
            out_blocks: even_blocks(out_units, cores),
            in_blocks: even_blocks(in_units, cores),
        }
    }

    /// Creates a layout with explicit block boundaries.
    ///
    /// Used when input-unit ownership is dictated by the previous layer's
    /// output partition (e.g. a fully-connected layer following a
    /// flattened convolution: each producer core owns the pixels of its
    /// channels, which is not in general an even split of the flat
    /// vector).
    ///
    /// # Panics
    ///
    /// Panics if the block lists have different lengths, are not
    /// contiguous ascending partitions of `0..out_units` / `0..in_units`,
    /// or `taps == 0`.
    pub fn with_blocks(
        taps: usize,
        out_blocks: Vec<Range<usize>>,
        in_blocks: Vec<Range<usize>>,
    ) -> Self {
        assert!(taps > 0, "taps must be positive");
        assert_eq!(out_blocks.len(), in_blocks.len(), "one block per core on each axis");
        assert!(!out_blocks.is_empty(), "need at least one core");
        let check = |blocks: &[Range<usize>], what: &str| -> usize {
            let mut expected = 0;
            for b in blocks {
                assert_eq!(b.start, expected, "{what} blocks must be contiguous");
                assert!(b.end >= b.start, "{what} blocks must be ascending");
                expected = b.end;
            }
            expected
        };
        let out_units = check(&out_blocks, "output");
        let in_units = check(&in_blocks, "input");
        Self { cores: out_blocks.len(), out_units, in_units, taps, out_blocks, in_blocks }
    }

    /// Derives the layout from a layer spec.
    ///
    /// Returns `None` for layers without weights. Grouped convolutions are
    /// laid out over their *per-group* input channels (their weight tensor
    /// is already block-diagonal by construction).
    pub fn from_spec(spec: &LayerSpec, cores: usize) -> Option<Self> {
        match spec.kind {
            LayerKind::Conv { out_c, kernel, groups, .. } => {
                let in_per_group = spec.in_dims.0 / groups;
                Some(Self::new(out_c, in_per_group, kernel * kernel, cores))
            }
            LayerKind::Linear { in_f, out_f } => Some(Self::new(out_f, in_f, 1, cores)),
            _ => None,
        }
    }

    /// Number of cores (blocks per axis).
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Total number of weight entries covered by the layout.
    pub fn weight_len(&self) -> usize {
        self.out_units * self.in_units * self.taps
    }

    /// Output units (channels/neurons).
    pub fn out_units(&self) -> usize {
        self.out_units
    }

    /// Input units (channels/neurons).
    pub fn in_units(&self) -> usize {
        self.in_units
    }

    /// Kernel taps per `(out, in)` pair.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// The output-unit range owned by consumer core `c`.
    pub fn out_block(&self, c: usize) -> Range<usize> {
        self.out_blocks[c].clone()
    }

    /// The input-unit range owned by producer core `p`.
    pub fn in_block(&self, p: usize) -> Range<usize> {
        self.in_blocks[p].clone()
    }

    /// The producer core that owns input unit `i`, or `None` if `i` is
    /// out of range.
    pub fn producer_of(&self, i: usize) -> Option<usize> {
        owner(&self.in_blocks, i)
    }

    /// The consumer core that owns output unit `o`, or `None` if `o` is
    /// out of range.
    pub fn consumer_of(&self, o: usize) -> Option<usize> {
        owner(&self.out_blocks, o)
    }

    /// The row segments of group `(p, c)`: for each output unit of
    /// consumer block `c`, in ascending order, the contiguous flat range of
    /// its taps on producer block `p`'s input units.
    pub fn segments(&self, p: usize, c: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        self.out_blocks[c].clone().map(move |o| self.segment(o, p))
    }

    /// Every group's row segments in one row-major pass: `(p, c, segment)`
    /// for each output unit in ascending order and, within it, each
    /// producer in ascending order, so the segments tile the tensor in flat
    /// index order.
    pub fn row_segments(&self) -> impl Iterator<Item = (usize, usize, Range<usize>)> + '_ {
        let rows = self.out_blocks.iter().enumerate();
        let rows = rows.flat_map(|(c, block)| block.clone().map(move |o| (c, o)));
        rows.flat_map(move |(c, o)| (0..self.cores).map(move |p| (p, c, self.segment(o, p))))
    }

    /// The flat range of output unit `o`'s taps on producer block `p`.
    fn segment(&self, o: usize, p: usize) -> Range<usize> {
        let (row, inputs) = (o * self.in_units, &self.in_blocks[p]);
        (row + inputs.start) * self.taps..(row + inputs.end) * self.taps
    }

    /// Visits the flat weight index of every entry in group `(p, c)`, in
    /// ascending order.
    pub fn visit_group(&self, p: usize, c: usize, mut f: impl FnMut(usize)) {
        for segment in self.segments(p, c) {
            segment.for_each(&mut f);
        }
    }

    /// Number of weight entries in group `(p, c)`.
    pub fn group_len(&self, p: usize, c: usize) -> usize {
        self.out_blocks[c].len() * self.in_blocks[p].len() * self.taps
    }

    /// L2 norm of group `(p, c)` over the flat weight slice.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is shorter than [`GroupLayout::weight_len`].
    pub fn group_norm(&self, p: usize, c: usize, weights: &[f32]) -> f32 {
        let ss = self.segments(p, c).fold(0.0, |ss, s| sum_squares(ss, &weights[s]));
        ss.sqrt() as f32
    }

    /// Whether every weight in group `(p, c)` is exactly zero; stops at the
    /// first nonzero weight.
    pub fn group_is_zero(&self, p: usize, c: usize, weights: &[f32]) -> bool {
        self.segments(p, c).all(|s| weights[s].iter().all(|&w| w == 0.0))
    }

    /// The full `cores × cores` matrix of group norms (row = producer,
    /// column = consumer), from one row-major pass over `weights`. Each
    /// entry equals [`GroupLayout::group_norm`] bit for bit: a group's
    /// squares are added in the same flat index order.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is shorter than [`GroupLayout::weight_len`].
    pub fn norm_matrix(&self, weights: &[f32]) -> Vec<f32> {
        let mut ss = vec![0.0; self.cores * self.cores];
        for (p, c, s) in self.row_segments() {
            let g = p * self.cores + c;
            ss[g] = sum_squares(ss[g], &weights[s]);
        }
        ss.into_iter().map(|ss: f64| ss.sqrt() as f32).collect()
    }
}

/// The index of the block of the ascending partition `blocks` that holds
/// `unit`, or `None` past the last block.
fn owner(blocks: &[Range<usize>], unit: usize) -> Option<usize> {
    let b = blocks.partition_point(|r| r.end <= unit);
    (b < blocks.len()).then_some(b)
}

/// `ss` plus the squares of `weights` in f64, added in order.
fn sum_squares(ss: f64, weights: &[f32]) -> f64 {
    weights.iter().fold(ss, |ss, &w| ss + w as f64 * w as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SpecBuilder;

    #[test]
    fn even_blocks_cover_everything_without_overlap() {
        let blocks = even_blocks(10, 4);
        assert_eq!(blocks, vec![0..3, 3..6, 6..8, 8..10]);
        let blocks = even_blocks(3, 4);
        assert_eq!(blocks[3], 3..3); // empty trailing block
    }

    #[test]
    fn producer_consumer_lookup() {
        let l = GroupLayout::new(8, 8, 1, 4);
        assert_eq!(l.producer_of(0), Some(0));
        assert_eq!(l.producer_of(7), Some(3));
        assert_eq!(l.consumer_of(3), Some(1));
        assert_eq!(l.producer_of(8), None);
        assert_eq!(l.consumer_of(8), None);
        // Empty blocks own nothing: unit 3 of a 3-core split of 4 units
        // with one empty middle block belongs to the last core.
        let l = GroupLayout::with_blocks(1, vec![0..4, 4..4, 4..4], vec![0..3, 3..3, 3..4]);
        assert_eq!(l.producer_of(3), Some(2));
        assert_eq!(l.consumer_of(3), Some(0));
    }

    #[test]
    fn visit_group_touches_exactly_group_len_indices() {
        let l = GroupLayout::new(4, 6, 9, 2);
        let mut count = 0;
        l.visit_group(1, 0, |_| count += 1);
        assert_eq!(count, l.group_len(1, 0));
        assert_eq!(l.group_len(1, 0), 2 * 3 * 9);
    }

    #[test]
    fn groups_partition_the_weight_tensor() {
        let l = GroupLayout::new(5, 7, 4, 3);
        let mut seen = vec![0u8; l.weight_len()];
        for p in 0..3 {
            for c in 0..3 {
                l.visit_group(p, c, |idx| seen[idx] += 1);
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "every weight in exactly one group");
    }

    #[test]
    fn group_norm_matches_manual() {
        let l = GroupLayout::new(2, 2, 1, 2);
        // weight[(o,i)] flat = o*2+i; groups are single entries.
        let w = [3.0, 0.0, 0.0, 4.0];
        assert_eq!(l.group_norm(0, 0, &w), 3.0); // (p=0,c=0) -> o=0,i=0
        assert_eq!(l.group_norm(1, 1, &w), 4.0); // o=1,i=1
        assert_eq!(l.group_norm(1, 0, &w), 0.0);
        assert!(l.group_is_zero(1, 0, &w));
        assert!(!l.group_is_zero(0, 0, &w));
    }

    #[test]
    fn norm_matrix_is_row_producer_col_consumer() {
        let l = GroupLayout::new(2, 2, 1, 2);
        let w = [0.0, 5.0, 0.0, 0.0]; // only weight (o=0, i=1): producer 1 -> consumer 0
        let m = l.norm_matrix(&w);
        assert_eq!(m, vec![0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn with_blocks_accepts_uneven_ownership() {
        // 3 cores, outputs split 2/2/2 but inputs split 4/1/1.
        let l = GroupLayout::with_blocks(1, vec![0..2, 2..4, 4..6], vec![0..4, 4..5, 5..6]);
        assert_eq!(l.cores(), 3);
        assert_eq!(l.in_units(), 6);
        assert_eq!(l.producer_of(3), Some(0));
        assert_eq!(l.producer_of(4), Some(1));
        // Still a partition of the weight tensor.
        let mut seen = vec![0u8; l.weight_len()];
        for p in 0..3 {
            for c in 0..3 {
                l.visit_group(p, c, |idx| seen[idx] += 1);
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn with_blocks_rejects_gaps() {
        GroupLayout::with_blocks(1, vec![0..2, 3..4], vec![0..1, 1..2]);
    }

    #[test]
    fn from_spec_handles_conv_linear_and_others() {
        let spec = SpecBuilder::new("n", (8, 8, 8))
            .conv("c", 16, 3, 1, 1, 1)
            .pool("p", 2, 2)
            .flatten()
            .linear("l", 10)
            .build();
        let conv_layout = GroupLayout::from_spec(spec.layer("c").unwrap(), 4).unwrap();
        assert_eq!(conv_layout.taps(), 9);
        assert_eq!(conv_layout.in_units(), 8);
        assert_eq!(conv_layout.out_units(), 16);
        let lin_layout = GroupLayout::from_spec(spec.layer("l").unwrap(), 4).unwrap();
        assert_eq!(lin_layout.taps(), 1);
        assert!(GroupLayout::from_spec(spec.layer("p").unwrap(), 4).is_none());
    }

    #[test]
    fn grouped_conv_uses_per_group_input_channels() {
        let spec = SpecBuilder::new("n", (8, 8, 8)).conv("c", 16, 3, 1, 1, 4).build();
        let layout = GroupLayout::from_spec(spec.layer("c").unwrap(), 4).unwrap();
        assert_eq!(layout.in_units(), 2); // 8 / 4 groups
        assert_eq!(layout.weight_len(), spec.layer("c").unwrap().weight_count());
    }
}
