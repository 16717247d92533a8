//! The x86_64 arms of the GEMM, and the crate's only `unsafe` code.
//!
//! An [`Avx2`] token exists only where the running CPU has AVX2, and an
//! [`Avx512`] token only where it has AVX-512F as well, so every call
//! below that needs a feature is sound by construction.
//! [`Avx2::stripe`] and [`Avx512::stripe`] run the generic stripe of
//! [`crate::matmul`] compiled for their feature: the f32 row-group tile
//! then runs 8 or 16 lanes wide, with as many rows per group as its
//! register budget allows. Only `avx2` or `avx512f` is enabled; rustc
//! may imply `fma` from either, but Rust never contracts `a·b + c`, so
//! every f32 sum is unchanged. [`Avx2::tile_pairs`] is the i16 `pmaddwd`
//! tile of [`crate::qmatmul`], which both SIMD arms run. The remaining
//! `unsafe` blocks are the unaligned loads and stores of one 256-bit
//! register, from arrays whose length is in their type.

#![allow(unsafe_code)]

use crate::matmul::{Arm, Element, Operands};
use std::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
    _mm256_setzero_si256, _mm256_storeu_si256,
};
use std::ops::Range;

/// Proof that the running CPU has AVX2: only [`Avx2::detect`] builds one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// A token if the CPU has AVX2.
    pub(crate) fn detect() -> Option<Avx2> {
        std::is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// [`Operands::stripe`] compiled for AVX2.
    #[inline(always)]
    pub(crate) fn stripe<T: Element, const SKIP: bool>(
        self,
        ops: Operands<'_, T>,
        first_row: usize,
        c: &mut [T::Acc],
        k: usize,
        n: usize,
    ) -> usize {
        // SAFETY: `stripe_avx2` needs AVX2, and `self` exists only where the
        // CPU has it.
        unsafe { stripe_avx2::<T, SKIP>(self, ops, first_row, c, k, n) }
    }

    /// `c[jj] += Σ_q a[q] · B(q, jj)` for `jj < W` over the indices `q` of
    /// the panel `p` inside `runs`, with `a` one whole A row and `pack`
    /// the panel of B pair-interleaved,
    /// `pack[(q2·W + jj)·2 + t] = B(p.start + 2·q2 + t, jj)` (zero past
    /// the panel and past the tile's columns), as 16-lane arrays.
    ///
    /// Each step broadcasts the pair `(a[q], a[q + 1])` and adds
    /// `a[q]·B(q, jj) + a[q + 1]·B(q + 1, jj)` to all `W` accumulators
    /// with one `pmaddwd` per 8 columns. Runs are walked as pairs from
    /// the even index at or below their start to the even index at or
    /// above their end; `p` starts at an even index, so a pair never
    /// straddles panels. The extra element an odd run edge brings in lies
    /// in a zero gap of at least `MIN_GAP` elements, or past the row,
    /// where the pack holds zeros and `a` is read as 0, so it adds 0.
    /// Wrapping i32 sums are associative, and the one pair sum that
    /// overflows, 2·(−32768)², wraps to what two wrapping adds give, so
    /// `c` ends bit-identical to the element-by-element tile.
    #[inline(always)]
    pub(crate) fn tile_pairs<const W: usize>(
        self,
        a: &[i16],
        runs: &[(usize, usize)],
        p: Range<usize>,
        pack: &[[i16; 16]],
        c: &mut [i32; W],
    ) {
        // SAFETY: `tile_pairs_avx2` needs AVX2, and `self` exists only where
        // the CPU has it.
        unsafe { tile_pairs_avx2(a, runs, p, pack, c) }
    }
}

#[target_feature(enable = "avx2")]
fn stripe_avx2<T: Element, const SKIP: bool>(
    cpu: Avx2,
    ops: Operands<'_, T>,
    first_row: usize,
    c: &mut [T::Acc],
    k: usize,
    n: usize,
) -> usize {
    ops.stripe::<SKIP>(Arm::Avx2(cpu), first_row, c, k, n)
}

/// Proof that the running CPU has AVX-512F and AVX2: only
/// [`Avx512::detect`] builds one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx512(Avx2);

impl Avx512 {
    /// A token if the CPU has AVX-512F and AVX2.
    pub(crate) fn detect() -> Option<Avx512> {
        let avx2 = Avx2::detect()?;
        std::is_x86_feature_detected!("avx512f").then_some(Avx512(avx2))
    }

    /// The AVX2 token this CPU also holds, for the i16 pair tile.
    pub(crate) fn avx2(self) -> Avx2 {
        self.0
    }

    /// [`Operands::stripe`] compiled for AVX-512F.
    #[inline(always)]
    pub(crate) fn stripe<T: Element, const SKIP: bool>(
        self,
        ops: Operands<'_, T>,
        first_row: usize,
        c: &mut [T::Acc],
        k: usize,
        n: usize,
    ) -> usize {
        // SAFETY: `stripe_avx512` needs AVX-512F, and `self` exists only
        // where the CPU has it.
        unsafe { stripe_avx512::<T, SKIP>(self, ops, first_row, c, k, n) }
    }
}

#[target_feature(enable = "avx512f")]
fn stripe_avx512<T: Element, const SKIP: bool>(
    cpu: Avx512,
    ops: Operands<'_, T>,
    first_row: usize,
    c: &mut [T::Acc],
    k: usize,
    n: usize,
) -> usize {
    ops.stripe::<SKIP>(Arm::Avx512(cpu), first_row, c, k, n)
}

#[target_feature(enable = "avx2")]
fn tile_pairs_avx2<const W: usize>(
    a: &[i16],
    runs: &[(usize, usize)],
    p: Range<usize>,
    pack: &[[i16; 16]],
    c: &mut [i32; W],
) {
    // W / 8 ≤ 4 registers of eight i32 accumulators.
    let (c, _) = c.as_chunks_mut::<8>();
    let mut acc = [_mm256_setzero_si256(); 4];
    for (acc, c) in acc.iter_mut().zip(&*c) {
        *acc = load_i32(c);
    }
    let step = |acc: &mut [__m256i; 4], x: i16, y: i16, b: &[[i16; 16]]| {
        let xy = _mm256_set1_epi32(i32::from(x) & 0xffff | i32::from(y) << 16);
        for (acc, b) in acc.iter_mut().zip(b) {
            *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(xy, load_i16(b)));
        }
    };
    for &(s, e) in runs {
        if s >= p.end {
            break;
        }
        let (s, e) = (s.max(p.start), e.min(p.end));
        if s >= e {
            continue;
        }
        let (lo, hi) = (s & !1, (e + 1) & !1);
        let (pairs, last) = a[lo..hi.min(a.len())].as_chunks::<2>();
        let mut b = pack[(lo - p.start) / 2 * (W / 8)..].chunks_exact(W / 8);
        for (&[x, y], b) in pairs.iter().zip(b.by_ref()) {
            step(&mut acc, x, y, b);
        }
        // An odd k ends the row inside a pair, whose second element is 0.
        if let (&[x], Some(b)) = (last, b.next()) {
            step(&mut acc, x, 0, b);
        }
    }
    for (acc, c) in acc.iter().zip(c) {
        store_i32(c, *acc);
    }
}

#[target_feature(enable = "avx2")]
fn load_i16(x: &[i16; 16]) -> __m256i {
    // SAFETY: `x` is 32 readable bytes, and `loadu` needs no alignment.
    unsafe { _mm256_loadu_si256(x.as_ptr().cast()) }
}

#[target_feature(enable = "avx2")]
fn load_i32(x: &[i32; 8]) -> __m256i {
    // SAFETY: `x` is 32 readable bytes, and `loadu` needs no alignment.
    unsafe { _mm256_loadu_si256(x.as_ptr().cast()) }
}

#[target_feature(enable = "avx2")]
fn store_i32(x: &mut [i32; 8], v: __m256i) {
    // SAFETY: `x` is 32 writable bytes, and `storeu` needs no alignment.
    unsafe { _mm256_storeu_si256(x.as_mut_ptr().cast(), v) }
}
