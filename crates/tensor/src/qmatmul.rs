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
//! It shares the f32 kernel's stripes, panels, column tiles and per-row
//! run table: the SS_Mask hop-local layout zeroes whole producer-core ×
//! consumer-core blocks of each weight row, and in products at least 32
//! columns wide the tile walks only the nonzero runs between them.
//! Unlike f32 it does not test zeros inside a run, since an i16 zero adds
//! exactly nothing. `tensor.macs_i16` counts m·k·n; the elided share is
//! counted in `tensor.macs_i16_skipped`.
//!
//! # The pair tile
//!
//! Where the CPU has AVX2 (see the dispatch rule in [`crate::matmul`]),
//! each `KC × W` panel of B is first packed pair-interleaved,
//! `pack[(q2·W + j)·2 + t] = B(p0 + 2·q2 + t, j0 + j)`, zero past `k` and
//! past `n`, and the tile broadcasts the A pair `(a[q], a[q + 1])` as one
//! i32 against it: one `pmaddwd` does 16 multiplies for 8 columns, and an
//! `A·B` 32 columns wide keeps four registers of accumulators. It walks
//! each run as whole pairs; the element an odd run edge brings in is a
//! zero of a gap at least `MIN_GAP` long, or past `k`, so it adds
//! nothing. Without AVX2 the broadcast tile multiplies one A element at
//! a time.
//!
//! # Determinism
//!
//! All accumulation is i32 *wrapping* arithmetic, which is associative
//! and commutative, and a skipped product is an exact zero, so no
//! blocking, pairing, run skipping, or row-striping order can perturb
//! results: the kernel is bit-identical to the naive [`reference`]
//! oracle on either arm, for any worker count and any sparsity, even
//! when an accumulator overflows (it wraps identically everywhere).
//! Individual products cannot overflow (|a·b| ≤ 2³⁰); the one pair sum
//! that does, 2·(−32768)² = 2³¹, wraps in `pmaddwd` to what two wrapping
//! adds give.

use crate::matmul::{Arm, Block, Element, Operands};
use std::ops::Range;

impl Element for i16 {
    type Acc = i32;
    const TEST_ZEROS: bool = false;
    const SKIPPED: &'static str = "tensor.macs_i16_skipped";
    const PAIRS: bool = true;
    #[inline(always)]
    fn mul_add(acc: i32, x: i16, y: i16) -> i32 {
        acc.wrapping_add(i32::from(x) * i32::from(y))
    }

    /// The broadcast tile, or with AVX2 the pair tile over a pair-packed
    /// panel.
    #[inline(always)]
    fn panel<const W: usize, const SKIP: bool>(
        arm: Arm,
        ops: Operands<'_, i16>,
        pack: &mut [i16],
        rows: &mut Block<'_, i32>,
        p: Range<usize>,
        j: Range<usize>,
    ) {
        match arm {
            Arm::Portable => ops.panel::<W, SKIP>(pack, rows, p, j),
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2(cpu) => {
                pack_pairs::<W>(ops, pack, p.clone(), j.clone());
                let (pack, k) = (pack.as_chunks::<16>().0, ops.sa.0);
                rows.each_row::<W>(
                    j,
                    #[inline(always)]
                    |i, runs, c| {
                        cpu.tile_pairs::<W>(&ops.a[i * k..][..k], runs, p.clone(), pack, c);
                    },
                );
            }
        }
    }
}

/// Packs the panel `p × j` of B (`j.len() ≤ W`, B rows contiguous) pair
/// by pair: `pack[(q2·W + jj)·2 + t] = B(p.start + 2·q2 + t, j.start + jj)`,
/// zero past `p.end` and `j.end`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pack_pairs<const W: usize>(
    ops: Operands<'_, i16>,
    pack: &mut [i16],
    p: Range<usize>,
    j: Range<usize>,
) {
    debug_assert_eq!(ops.sb.1, 1);
    let row = |q: usize| if q < p.end { &ops.b[q * ops.sb.0 + j.start..][..j.len()] } else { &[] };
    for (q2, dst) in pack.chunks_exact_mut(2 * W).take(p.len().div_ceil(2)).enumerate() {
        let (b0, b1) = (row(p.start + 2 * q2), row(p.start + 2 * q2 + 1));
        let (dst, _) = dst.as_chunks_mut::<2>();
        match (<&[i16; W]>::try_from(b0), <&[i16; W]>::try_from(b1)) {
            (Ok(b0), Ok(b1)) => {
                for (jj, d) in dst.iter_mut().enumerate().take(W) {
                    *d = [b0[jj], b1[jj]];
                }
            }
            _ => {
                for (jj, d) in dst.iter_mut().enumerate() {
                    *d = [b0.get(jj).copied().unwrap_or(0), b1.get(jj).copied().unwrap_or(0)];
                }
            }
        }
    }
}

/// Flat-slice i16 `C = A · B` with `A: [m, k]`, `B: [k, n]`, `C: [m, n]`
/// (i32), all row-major. Overwrites `C`. At least 32 columns wide, it
/// multiplies only over the nonzero runs of each A row (see the module
/// docs).
///
/// # Panics
///
/// Panics if `A` or `B` is shorter than the dimensions require, and in
/// debug builds if any slice length disagrees with them.
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
    use crate::matmul::{KC, MIN_GAP};
    use proptest::prelude::*;

    /// Deterministic i16 pattern with exact zeros and sign changes.
    fn gen(len: usize, s: usize) -> Vec<i16> {
        (0..len).map(|x| (((x * s + 5) % 13) as i16) - 6).collect()
    }

    /// The public entry and both arms equal the naive oracle bit for bit.
    fn assert_matches_reference(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) {
        let (mut c, mut cr) = (vec![1i32; m * n], vec![2i32; m * n]);
        reference::matmul_i16_into_ref(a, b, &mut cr, m, k, n);
        matmul_i16_into(a, b, &mut c, m, k, n);
        assert_eq!(c, cr, "i16 {m}x{k}x{n}");
        for arm in Arm::both() {
            let mut c = vec![3i32; m * n];
            Operands { a, sa: (k, 1), b, sb: (n, 1) }.gemm_on::<true>(arm, &mut c, m, k, n);
            assert_eq!(c, cr, "i16 {m}x{k}x{n} on {arm:?}");
        }
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

    #[test]
    #[should_panic]
    fn a_short_operand_panics_in_safe_slicing() {
        // Without the entry's debug-build length checks, a B one element
        // short must still stop at a bounds check, on any arm.
        let (m, k, n) = (2, 9, 5);
        matmul_i16_into(&gen(m * k, 3), &gen(k * n - 1, 5), &mut vec![0; m * n], m, k, n);
    }

    #[test]
    fn pair_edges_match_reference() {
        // n below 8 and on the tiles, odd and even k around the KC panel.
        for n in [1, 3, 7, 8, 33] {
            for k in [1, 3, 127, 129, 2 * KC - 1, 2 * KC + 1] {
                assert_matches_reference(&gen(3 * k, 37), &gen(k * n, 17), 3, k, n);
            }
        }
        // Runs that start and end at odd indices, end on a KC edge, start
        // on one, hold one element, or end at an odd k, over full-range B
        // at n below, on and above the 32 columns that build run tables.
        let k = 2 * KC + MIN_GAP + 13;
        let runs: [&[(usize, usize)]; 6] = [
            &[(0, KC), (KC + MIN_GAP, 2 * KC)],
            &[(KC - 41, KC), (KC + MIN_GAP + 1, k)],
            &[(5, KC + 7), (2 * KC - 39, 2 * KC)],
            &[(KC - 1, KC), (KC + MIN_GAP, KC + MIN_GAP + 1), (k - 1, k)],
            &[(2 * KC, k)],
            &[],
        ];
        let mut a = vec![0i16; runs.len() * k];
        for (row, spans) in a.chunks_exact_mut(k).zip(runs) {
            for &(s, e) in spans {
                row[s..e].iter_mut().enumerate().for_each(|(i, x)| *x = (i as i16 % 7) - 3);
            }
        }
        for n in [5, 32, 59] {
            let b: Vec<i16> = (0..k * n).map(|x| (x * 7919 % 65536) as u16 as i16).collect();
            assert_matches_reference(&a, &b, runs.len(), k, n);
            // i16::MIN pairs wrap: 2·(−32768)² is 2³¹.
            let min: Vec<i16> = a.iter().map(|&x| if x == 0 { 0 } else { i16::MIN }).collect();
            assert_matches_reference(&min, &vec![i16::MIN; k * n], runs.len(), k, n);
        }
    }

    fn i16_strategy(len: usize) -> impl Strategy<Value = Vec<i16>> {
        proptest::collection::vec(i16::MIN..=i16::MAX, len)
    }

    // The generators of `tests/properties.rs`, run on both arms.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn i16_kernel_bit_identical_to_naive_oracle(
            m in 1usize..5, k in 1usize..260, n in 1usize..70, extreme in 0usize..3,
            pool in i16_strategy(5 * 260 + 260 * 70)
        ) {
            // Full-range operands wrap; one case in three pins A to
            // i16::MIN and B to i16::MIN or i16::MAX.
            let mut a = pool[..m * k].to_vec();
            let mut b = pool[5 * 260..5 * 260 + k * n].to_vec();
            if extreme > 0 {
                a.fill(i16::MIN);
                b.fill(if extreme == 1 { i16::MIN } else { i16::MAX });
            }
            assert_matches_reference(&a, &b, m, k, n);
        }

        #[test]
        fn i16_kernel_skips_zero_blocks_bit_identically(
            dims in (1usize..40, 1usize..400, 1usize..80),
            pattern in (1usize..90, 1usize..90, 0usize..180),
            blocks in (1usize..17, 1usize..60, 0u64..u64::MAX),
            zero_rows in 0u64..u64::MAX,
            pool in i16_strategy(40 * 400 + 400 * 80)
        ) {
            // Random runs and gaps on both sides of MIN_GAP, or SS_Mask
            // style producer blocks, some rows all zero.
            let ((m, k, n), (run, gap, phase), (cores, taps, keep)) = (dims, pattern, blocks);
            let mut a = pool[..m * k].to_vec();
            for (i, row) in a.chunks_exact_mut(k).enumerate() {
                let all_zero = (zero_rows >> (i % 64)) & 1 == 1 && i % 3 == 0;
                for (p, x) in row.iter_mut().enumerate() {
                    let masked = if phase % 2 == 0 {
                        (p + phase + 7 * i) % (run + gap) >= run
                    } else {
                        (keep >> (((p / taps) % cores + 5 * i) % 64)) & 1 == 0
                    };
                    if all_zero || masked {
                        *x = 0;
                    }
                }
            }
            assert_matches_reference(&a, &pool[40 * 400..40 * 400 + k * n], m, k, n);
        }
    }
}
