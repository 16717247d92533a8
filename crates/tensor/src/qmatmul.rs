//! Row-parallel 16-bit fixed-point `C = A · Bᵀ` that skips A's zero runs.
//!
//! The i16 twin of the f32 A·Bᵀ kernel in [`crate::matmul`], and the one
//! i16 GEMM of the quantized inference path: operands are
//! per-tensor-scaled i16 values ([`crate::quant::QuantParams`]),
//! products accumulate in i32, and the caller dequantizes the i32 output
//! with the product of the operand scales. Both operands are contiguous
//! in the shared dimension, so the convolution feeds it an im2row unroll
//! ([`crate::im2col::im2row_i16_into`]) and the linear layer its input
//! rows as they are; large products stripe output rows across the
//! execution engine ([`crate::par`]) like the f32 kernels.
//!
//! # Kernel shape
//!
//! The microkernel runs `NR_DOT` concurrent i32 accumulator chains that
//! share one A row, sweeping B's rows in groups of `NR_DOT`. A single
//! dot is latency-bound on its multiply-add chain; eight independent
//! chains fill the pipeline, which is where i16 beats the f32 scalar
//! dot.
//!
//! # Zero runs
//!
//! Block-sparse weights (the SS_Mask hop-local layout zeroes whole
//! producer-core × consumer-core blocks of each weight row) are A rows
//! made of long zero runs. Before each A row the kernel records its
//! nonzero runs on the stack — zero gaps shorter than `MIN_GAP` are
//! merged, so a dense row is a single run — and the microkernel walks only
//! `a[s..e]` and `b[j][s..e]` of each run. Finding runs is O(m·k)
//! against O(m·k·n) multiply-adds; no mask is passed in and nothing is
//! allocated. `tensor.macs_i16` still counts m·k·n; the elided share
//! is counted in `tensor.macs_i16_skipped`.
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

use crate::par;

/// Dot products computed concurrently by the microkernel — one i32
/// accumulator chain each, sharing the A row, to fill the ALU pipeline.
const NR_DOT: usize = 8;

/// Shortest zero gap inside an A row that the microkernel skips; shorter
/// gaps are multiplied through, because restarting the `NR_DOT` chains
/// on a new run costs about as much as a few dozen multiply-adds.
const MIN_GAP: usize = 32;

/// Nonzero runs recorded per A row; a row with more keeps its tail as
/// one run (correct, just multiplied through).
const MAX_RUNS: usize = 16;

/// Multiply-adds below which a product runs inline (same rationale and
/// value as the f32 kernels).
const PAR_THRESHOLD: usize = 32 * 1024;

/// Writes the half-open `(start, end)` runs of `row` that the microkernel
/// must multiply into `runs` and returns how many it wrote: every zero
/// run of at least
/// [`MIN_GAP`] taps — leading, inner or trailing — is left out, shorter
/// ones stay inside a run. An all-zero row of `MIN_GAP` or more taps
/// has no runs.
fn nonzero_runs(row: &[i16], runs: &mut [(usize, usize); MAX_RUNS]) -> usize {
    // Too few zeros for one skippable gap: the whole row is one run. The
    // count vectorizes, so a dense row pays almost nothing for the scan.
    if row.iter().map(|&x| u32::from(x == 0)).sum::<u32>() < MIN_GAP as u32 {
        runs[0] = (0, row.len());
        return 1;
    }
    let mut count = 0;
    let mut gap = 0;
    for (p, &x) in row.iter().enumerate() {
        if x == 0 {
            gap += 1;
            continue;
        }
        if count > 0 && (gap < MIN_GAP || count == MAX_RUNS) {
            runs[count - 1].1 = p + 1;
        } else {
            runs[count] = (if count == 0 && gap < MIN_GAP { 0 } else { p }, p + 1);
            count += 1;
        }
        gap = 0;
    }
    if count > 0 && gap < MIN_GAP {
        runs[count - 1].1 = row.len();
    }
    count
}

/// Flat-slice i16 `C = A · Bᵀ` with `A: [m, k]`, `B: [n, k]`, `C: [m, n]`
/// (i32). Overwrites `C`. Multiplies only over the nonzero runs of each
/// A row (see the module docs).
///
/// # Panics
///
/// Panics (in debug builds) if the slice lengths disagree with the
/// dimensions.
pub fn matmul_a_bt_i16_into(a: &[i16], b: &[i16], c: &mut [i32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let _probe = lts_obs::span("tensor.matmul_a_bt_i16");
    lts_obs::counter_add("tensor.macs_i16", (m * k * n) as u64);
    if n == 0 {
        return;
    }
    let kernel = |first_row: usize, stripe: &mut [i32]| {
        let mut table = [(0, 0); MAX_RUNS];
        let mut skipped = 0;
        for (r, crow) in stripe.chunks_exact_mut(n).enumerate() {
            let arow = &a[(first_row + r) * k..(first_row + r + 1) * k];
            let count = nonzero_runs(arow, &mut table);
            let runs = &table[..count];
            skipped += (k - runs.iter().map(|&(s, e)| e - s).sum::<usize>()) * n;
            let mut j = 0;
            while j + NR_DOT <= n {
                let mut acc = [0i32; NR_DOT];
                for &(s, e) in runs {
                    let bt: [&[i16]; NR_DOT] =
                        std::array::from_fn(|jj| &b[(j + jj) * k + s..(j + jj) * k + e]);
                    for (p, &x) in arow[s..e].iter().enumerate() {
                        for jj in 0..NR_DOT {
                            acc[jj] = acc[jj].wrapping_add(x as i32 * bt[jj][p] as i32);
                        }
                    }
                }
                crow[j..j + NR_DOT].copy_from_slice(&acc);
                j += NR_DOT;
            }
            for j in j..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0i32;
                for &(s, e) in runs {
                    for (&x, &y) in arow[s..e].iter().zip(&brow[s..e]) {
                        acc = acc.wrapping_add(x as i32 * y as i32);
                    }
                }
                crow[j] = acc;
            }
        }
        lts_obs::counter_add("tensor.macs_i16_skipped", skipped as u64);
    };
    if m * k * n < PAR_THRESHOLD {
        kernel(0, c);
    } else {
        par::par_row_stripes_of(c, n, kernel);
    }
}

pub mod reference {
    //! Naive serial i16 oracle: the blocked, run-skipping kernel above is
    //! gated on bit-identity to it (exact `assert_eq!`, including
    //! wrap-around on accumulator overflow) by unit tests here and the
    //! proptests in `tests/properties.rs`. Not for production use.

    /// Naive `C = A · Bᵀ` (one dot per element, wrapping i32 accumulation).
    pub fn matmul_a_bt_i16_into_ref(
        a: &[i16],
        b: &[i16],
        c: &mut [i32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(c.len(), m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc = acc.wrapping_add(a[i * k + p] as i32 * b[j * k + p] as i32);
                }
                c[i * n + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic i16 pattern with exact zeros and sign changes.
    fn gen(len: usize, s: usize) -> Vec<i16> {
        (0..len).map(|x| (((x * s + 5) % 13) as i16) - 6).collect()
    }

    fn assert_matches_reference(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) {
        let (mut c, mut cr) = (vec![1i32; m * n], vec![2i32; m * n]);
        matmul_a_bt_i16_into(a, b, &mut c, m, k, n);
        reference::matmul_a_bt_i16_into_ref(a, b, &mut cr, m, k, n);
        assert_eq!(c, cr, "a_bt_i16 {m}x{k}x{n}");
    }

    #[test]
    fn small_product_matches_hand_computation() {
        let a: Vec<i16> = vec![1, 2, 3, 4, 5, 6];
        let bt: Vec<i16> = vec![7, 9, 11, 8, 10, 12];
        let mut c = vec![0i32; 4];
        matmul_a_bt_i16_into(&a, &bt, &mut c, 2, 3, 2);
        assert_eq!(c, &[58, 64, 139, 154]);
    }

    #[test]
    fn blocked_kernel_matches_reference_on_tile_boundary_shapes() {
        // Shapes straddling the NR_DOT group, with awkward tails and
        // degenerate dims.
        for (mm, kk, nn) in
            [(5, 265, 19), (3, 513, 32), (7, 11, NR_DOT + 1), (4, 256, 69), (2, 1, 1), (1, 255, 15)]
        {
            assert_matches_reference(&gen(mm * kk, 37), &gen(nn * kk, 17), mm, kk, nn);
        }
    }

    #[test]
    fn extreme_operands_wrap_identically_to_reference() {
        // i16::MIN · i16::MAX · k overflows i32 for k ≥ 2: the wrapping
        // contract must hold bit-for-bit between blocked and naive kernels.
        let (m, k, n) = (2, 768, NR_DOT * 2 + 1);
        assert_matches_reference(&vec![i16::MIN; m * k], &vec![i16::MAX; n * k], m, k, n);
    }

    #[test]
    fn parallel_threshold_does_not_change_results() {
        // Big enough to cross PAR_THRESHOLD and stripe across workers.
        let (m, k, n) = (48, 40, 24);
        assert!(m * k * n >= PAR_THRESHOLD);
        assert_matches_reference(&gen(m * k, 37), &gen(n * k, 17), m, k, n);
    }

    #[test]
    fn runs_merge_short_gaps_and_skip_long_ones() {
        let mut runs = [(0, 0); MAX_RUNS];
        let mut row = vec![0i16; 200];
        assert_eq!(nonzero_runs(&row, &mut runs), 0);
        row[3] = 1; // a short leading gap: multiplied through
        row[3 + MIN_GAP] = 2; // a gap of MIN_GAP - 1 zeros: merged
        row[3 + 2 * MIN_GAP + 1] = 3; // a gap of exactly MIN_GAP zeros: skipped
        assert_eq!(nonzero_runs(&row, &mut runs), 2);
        assert_eq!(runs[..2], [(0, 4 + MIN_GAP), (4 + 2 * MIN_GAP, 5 + 2 * MIN_GAP)]);
        // A long leading gap is skipped, a short trailing one is not.
        row[..4].fill(0);
        row[198] = 4;
        assert_eq!(nonzero_runs(&row, &mut runs), 3);
        let inner = (4 + 2 * MIN_GAP, 5 + 2 * MIN_GAP);
        assert_eq!(runs[..3], [(3 + MIN_GAP, 4 + MIN_GAP), inner, (198, 200)]);
        // Dense rows are one run, with or without a few scattered zeros.
        assert_eq!(nonzero_runs(&[5; 70], &mut runs), 1);
        assert_eq!(runs[0], (0, 70));
        let scattered: Vec<i16> = (0..200).map(|p| i16::from(p % 4 != 0)).collect();
        assert_eq!(nonzero_runs(&scattered, &mut runs), 1);
        assert_eq!(runs[0], (0, 200));
    }

    #[test]
    fn rows_with_more_runs_than_the_table_keep_their_tail_as_one_run() {
        let period = MIN_GAP + 1;
        let row: Vec<i16> =
            (0..period * (MAX_RUNS + 4)).map(|p| i16::from(p % period == 0)).collect();
        let mut runs = [(0, 0); MAX_RUNS];
        assert_eq!(nonzero_runs(&row, &mut runs), MAX_RUNS);
        assert_eq!(runs[MAX_RUNS - 1], ((MAX_RUNS - 1) * period, (MAX_RUNS + 3) * period + 1));
        let n = NR_DOT + 3;
        assert_matches_reference(&row, &gen(n * row.len(), 7), 1, row.len(), n);
    }
}
