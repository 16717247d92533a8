//! Row-parallel 16-bit fixed-point `C = A · B` that skips A's zero runs.
//!
//! The i16 instance of the f32 A·B register tile in [`crate::matmul`],
//! and the one i16 GEMM of the quantized inference path: operands are
//! per-tensor-scaled i16 values ([`crate::quant::QuantParams`]),
//! products accumulate in i32, and the caller dequantizes the i32 output
//! with the product of the operand scales. The convolution feeds it the
//! weights as A and the column unroll ([`crate::im2col::im2col_into`]) as
//! B, read in place; the linear layer feeds its input rows as A and the
//! transposed weights it stores at quantization as B.
//!
//! It shares the f32 kernel's tiles, panels and per-row run table: the
//! SS_Mask hop-local layout zeroes whole producer-core × consumer-core
//! blocks of each weight row, and in products at least 32 columns wide
//! the tile walks only the nonzero runs between them. Unlike f32 it does
//! not test zeros inside a run, since an i16 zero adds exactly nothing.
//! `tensor.macs_i16` counts m·k·n; the elided share is counted in
//! `tensor.macs_i16_skipped`.
//!
//! # Determinism
//!
//! All accumulation is i32 *wrapping* arithmetic, which is associative
//! and commutative, and a skipped product is an exact zero, so no
//! blocking, run skipping, or row-striping order can perturb results:
//! the kernel is bit-identical to the naive [`reference`] oracle for any
//! worker count and any sparsity, even when an accumulator overflows (it
//! wraps identically everywhere). Individual products cannot overflow
//! (|a·b| ≤ 2³⁰).

use crate::matmul::{Element, Operands};

impl Element for i16 {
    type Acc = i32;
    const TEST_ZEROS: bool = false;
    const SKIPPED: &'static str = "tensor.macs_i16_skipped";
    #[inline(always)]
    fn mul_add(acc: i32, x: i16, y: i16) -> i32 {
        acc.wrapping_add(i32::from(x) * i32::from(y))
    }
}

/// Flat-slice i16 `C = A · B` with `A: [m, k]`, `B: [k, n]`, `C: [m, n]`
/// (i32), all row-major. Overwrites `C`. At least 32 columns wide, it
/// multiplies only over the nonzero runs of each A row (see the module
/// docs).
///
/// # Panics
///
/// Panics (in debug builds) if the slice lengths disagree with the
/// dimensions.
pub fn matmul_i16_into(a: &[i16], b: &[i16], c: &mut [i32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let _probe = lts_obs::span("tensor.matmul_i16");
    lts_obs::counter_add("tensor.macs_i16", (m * k * n) as u64);
    Operands { a, sa: (k, 1), b, sb: (n, 1) }.gemm::<true>(c, m, k, n);
}

pub mod reference {
    //! Naive serial i16 oracle: the tiled, run-skipping kernel above is
    //! gated on bit-identity to it (exact `assert_eq!`, including
    //! wrap-around on accumulator overflow) by unit tests here and the
    //! proptests in `tests/properties.rs`. Not for production use.

    /// Naive `C = A · B` (one dot per element, wrapping i32 accumulation).
    pub fn matmul_i16_into_ref(a: &[i16], b: &[i16], c: &mut [i32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc = acc.wrapping_add(a[i * k + p] as i32 * b[p * n + j] as i32);
                }
                c[i * n + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::MIN_GAP;

    /// Deterministic i16 pattern with exact zeros and sign changes.
    fn gen(len: usize, s: usize) -> Vec<i16> {
        (0..len).map(|x| (((x * s + 5) % 13) as i16) - 6).collect()
    }

    fn assert_matches_reference(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) {
        let (mut c, mut cr) = (vec![1i32; m * n], vec![2i32; m * n]);
        matmul_i16_into(a, b, &mut c, m, k, n);
        reference::matmul_i16_into_ref(a, b, &mut cr, m, k, n);
        assert_eq!(c, cr, "i16 {m}x{k}x{n}");
    }

    #[test]
    fn small_product_matches_hand_computation() {
        let a: Vec<i16> = vec![1, 2, 3, 4, 5, 6];
        let b: Vec<i16> = vec![7, 8, 9, 10, 11, 12];
        let mut c = vec![0i32; 4];
        matmul_i16_into(&a, &b, &mut c, 2, 3, 2);
        assert_eq!(c, &[58, 64, 139, 154]);
    }

    #[test]
    fn tiled_kernel_matches_reference_on_tile_boundary_shapes() {
        // n on and off the 32-, 16- and 8-wide tiles and the padded
        // remainder, k across the 128-deep panel, degenerate dims.
        for (mm, kk, nn) in [
            (5, 265, 19),
            (3, 513, 32),
            (7, 11, 9),
            (4, 256, 69),
            (2, 1, 1),
            (1, 255, 15),
            (3, 129, 10),
        ] {
            assert_matches_reference(&gen(mm * kk, 37), &gen(kk * nn, 17), mm, kk, nn);
        }
    }

    #[test]
    fn extreme_operands_wrap_identically_to_reference() {
        // i16::MIN · i16::MAX · k overflows i32 for k ≥ 2: the wrapping
        // contract must hold bit-for-bit between tiled and naive kernels.
        let (m, k, n) = (2, 768, 59);
        assert_matches_reference(&vec![i16::MIN; m * k], &vec![i16::MAX; k * n], m, k, n);
        assert_matches_reference(&vec![i16::MIN; m * k], &vec![i16::MIN; k * n], m, k, n);
    }

    #[test]
    fn parallel_threshold_does_not_change_results() {
        // Big enough to cross the parallel threshold and stripe across
        // workers.
        let (m, k, n) = (48, 40, 24);
        assert!(m * k * n >= 32 * 1024);
        assert_matches_reference(&gen(m * k, 37), &gen(k * n, 17), m, k, n);
    }

    #[test]
    fn zero_blocks_longer_than_the_gap_are_skipped_bit_identically() {
        // Hop-local-style rows: blocks of MIN_GAP + 18 taps, each row
        // keeping a different subset, one row all zero, over a full-range
        // B so sums wrap.
        let (m, block, n) = (6, MIN_GAP + 18, 37);
        let k = 5 * block;
        let mut a = gen(m * k, 29);
        for (i, row) in a.chunks_exact_mut(k).enumerate() {
            for (blk, taps) in row.chunks_exact_mut(block).enumerate() {
                if i == m - 1 || (blk + i) % 3 != 0 {
                    taps.fill(0);
                }
            }
        }
        let b: Vec<i16> = (0..k * n).map(|x| (x * 7919 % 65536) as u16 as i16).collect();
        assert_matches_reference(&a, &b, m, k, n);
    }
}
