//! Register-tile, row-parallel matrix multiplication.
//!
//! Training the paper's networks spends most of its time here
//! (convolutions are lowered to GEMM via [`crate::im2col`]). All three
//! f32 products — `A·B`, `Aᵀ·B` and `A·Bᵀ` — and the i16 `A·B` of
//! [`crate::qmatmul`] run one microkernel, `tile`, generic over the
//! element type, which keeps a `1 × W` strip of a C row in registers
//! across a `KC`-deep panel of the shared dimension. Each output row is
//! covered by 32-wide tiles, then at most one 16-wide and one 8-wide
//! tile; the last ≤ 7 columns run an 8-wide tile over zero-padded B
//! columns, so narrow outputs (the 4×4 maps of a third conv layer,
//! n = 16) never leave registers. `A·Bᵀ` first packs each `KC × W` panel
//! of Bᵀ into a stack array so the tile reads it row by row like `B`;
//! output rows are partitioned across the execution engine
//! ([`crate::par`]).
//!
//! # Dispatch
//!
//! Each call picks its arm once at run time. Where the CPU has AVX2, the
//! whole stripe is compiled a second time with `avx2` enabled, so the
//! f32 tile runs the same source in 8-wide lanes, and i16 `A·B` runs the
//! fused `pmaddwd` tile of [`crate::qmatmul`] over pair-interleaved B
//! panels. Everywhere else, non-x86_64 targets included, the tile built
//! for the baseline target runs. Both arms give bit-identical results;
//! the unit tests run every generator on both.
//!
//! # Zero runs
//!
//! SS_Mask weights zero whole producer-core × consumer-core blocks, long
//! zero runs in each A row. `A·B` at least one full tile wide records
//! each A row's nonzero runs once per call in a per-thread table (zero
//! gaps shorter than `MIN_GAP` stay inside a run, so a dense row is one
//! run), and the tile walks only the runs of its panel, its accumulators
//! in registers throughout.
//! `tensor.macs_f32` counts m·k·n, `tensor.macs_f32_skipped` the elided
//! gaps. `Aᵀ·B` reads A strided, so it tests its zeros one at a time.
//!
//! # Determinism
//!
//! Every kernel accumulates each output element's terms from `+0.0` in
//! ascending order of the shared dimension; the accumulator round-trips
//! through C in f32 between panels, and row partitioning never splits an
//! element's accumulation. `A·B` and `Aᵀ·B` skip exact-zero A elements
//! (whole gaps through the run table, single zeros by the tile's test
//! inside a run), `A·Bᵀ` does not — the rules of the [`reference`]
//! kernels, which the results equal bit for bit for every input
//! (`c + 0.0·x` is not always `c` in IEEE arithmetic: `-0.0` and
//! non-finite `x`). The AVX2 arm enables no `fma`, Rust never fuses
//! `a·b + c` on its own, and lanes never mix, so wider lanes round every
//! product and sum as the baseline build does. Results are therefore
//! bit-identical on either arm and for any worker count, including 1.

use crate::par;
use crate::shape::Shape;
use crate::tensor::{Tensor, TensorError};
use std::cell::Cell;
use std::ops::Range;

/// Rows of the shared-dimension panel kept hot in cache per pass by the
/// [`reference`] kernels.
const PANEL: usize = 64;

/// Shared-dimension panel depth of the microkernel. A `KC × NR` tile of B
/// (16 KB) is the L1 working set and the size of the `A·Bᵀ` pack buffer;
/// deeper panels amortize the per-panel accumulator load/store further.
/// Panel depth never changes results (see the module docs).
pub(crate) const KC: usize = 128;

/// Width of the widest register tile: eight SSE registers of
/// accumulators, enough independent chains to hide the add latency
/// without spilling (four AVX2 registers, which do not hide it).
const NR: usize = 32;

/// Multiply-adds below which a product runs inline: for tiny operands the
/// cost of spawning scoped workers exceeds the whole product.
const PAR_THRESHOLD: usize = 32 * 1024;

/// Computes the matrix product `C = A · B` for rank-2 tensors.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2 and
/// [`TensorError::MatmulDimMismatch`] if `A` has a different number of
/// columns than `B` has rows.
///
/// # Examples
///
/// ```
/// use lts_tensor::{matmul::matmul, Shape, Tensor};
/// # fn main() -> Result<(), lts_tensor::TensorError> {
/// let a = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
/// let i = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 0.0, 0.0, 1.0])?;
/// assert_eq!(matmul(&a, &i)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = check_product_dims(a, b, false, false)?;
    let mut c = Tensor::zeros(Shape::d2(m, n));
    matmul_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    Ok(c)
}

/// Computes `C = Aᵀ · B` without materializing the transpose.
///
/// `A` is `[k, m]`, `B` is `[k, n]`, result is `[m, n]`. Used for the
/// weight-gradient step of linear layers.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or
/// [`TensorError::MatmulDimMismatch`] under the same conditions as
/// [`matmul`].
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = check_product_dims(a, b, true, false)?;
    let mut c = Tensor::zeros(Shape::d2(m, n));
    matmul_at_b_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    Ok(c)
}

/// Computes `C = A · Bᵀ` without materializing the transpose.
///
/// `A` is `[m, k]`, `B` is `[n, k]`, result is `[m, n]`. Used for the
/// input-gradient step of linear layers.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or
/// [`TensorError::MatmulDimMismatch`] under the same conditions as
/// [`matmul`].
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = check_product_dims(a, b, false, true)?;
    let mut c = Tensor::zeros(Shape::d2(m, n));
    matmul_a_bt_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    Ok(c)
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `a` is not rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor, TensorError> {
    check_rank2(a)?;
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    let mut out = Tensor::zeros(Shape::d2(n, m));
    let (av, ov) = (a.as_slice(), out.as_mut_slice());
    for i in 0..m {
        for j in 0..n {
            ov[j * m + i] = av[i * n + j];
        }
    }
    Ok(out)
}

fn check_rank2(t: &Tensor) -> Result<(), TensorError> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: t.shape().rank() });
    }
    Ok(())
}

/// Validates a product's operand shapes and returns `(m, k, n)`.
fn check_product_dims(
    a: &Tensor,
    b: &Tensor,
    transpose_a: bool,
    transpose_b: bool,
) -> Result<(usize, usize, usize), TensorError> {
    check_rank2(a)?;
    check_rank2(b)?;
    let (m, k) = if transpose_a {
        (a.shape().dim(1), a.shape().dim(0))
    } else {
        (a.shape().dim(0), a.shape().dim(1))
    };
    let (k2, n) = if transpose_b {
        (b.shape().dim(1), b.shape().dim(0))
    } else {
        (b.shape().dim(0), b.shape().dim(1))
    };
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: k2 });
    }
    Ok((m, k, n))
}

/// Flat-slice GEMM `C = A · B` with `A: [m, k]`, `B: [k, n]`, `C: [m, n]`,
/// all row-major. Overwrites `C`, walking only the nonzero runs of A's
/// rows. Output rows are partitioned across the execution engine; see
/// the module docs for the determinism contract.
///
/// # Panics
///
/// Panics if `A` or `B` is shorter than the dimensions require, and in
/// debug builds if any slice length disagrees with them.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let _probe = lts_obs::span("tensor.matmul");
    lts_obs::counter_add("tensor.macs_f32", (m * k * n) as u64);
    Operands { a, sa: (k, 1), b, sb: (n, 1) }.gemm::<true>(c, m, k, n);
}

/// Flat-slice `C = Aᵀ · B` with `A: [k, m]`, `B: [k, n]`, `C: [m, n]`.
/// Overwrites `C`. Same determinism contract as [`matmul_into`].
pub fn matmul_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let _probe = lts_obs::span("tensor.matmul_at_b");
    lts_obs::counter_add("tensor.macs_f32", (m * k * n) as u64);
    Operands { a, sa: (1, m), b, sb: (n, 1) }.gemm::<true>(c, m, k, n);
}

/// Flat-slice `C = A · Bᵀ` with `A: [m, k]`, `B: [n, k]`, `C: [m, n]`.
/// Overwrites `C`. Same determinism contract as [`matmul_into`].
pub fn matmul_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let _probe = lts_obs::span("tensor.matmul_a_bt");
    lts_obs::counter_add("tensor.macs_f32", (m * k * n) as u64);
    Operands { a, sa: (k, 1), b, sb: (1, k) }.gemm::<false>(c, m, k, n);
}

/// An element type of the tile: f32 accumulates in f32, i16 in wrapping
/// i32 ([`crate::qmatmul`]).
pub(crate) trait Element: Copy + Default + PartialEq + Sync {
    /// The accumulator, and the element type of C.
    type Acc: Copy + Default + Send;
    /// Whether the tile tests A's elements inside a run for exact zeros:
    /// f32 must, for the reference skip rule; an i16 zero adds nothing.
    const TEST_ZEROS: bool;
    /// Counter of the multiply-adds the run table elides.
    const SKIPPED: &'static str;
    /// Whether every panel packs B on the AVX2 arm: i16's pair tile reads
    /// only pair-interleaved panels.
    const PAIRS: bool = false;
    /// `acc + x·y`.
    fn mul_add(acc: Self::Acc, x: Self, y: Self) -> Self::Acc;

    /// Adds the products over shared indices `p` to columns `j` of a block
    /// of C rows on `arm`: the broadcast tile of [`Operands::panel`],
    /// unless the element type has its own tile on that arm.
    #[inline(always)]
    fn panel<const W: usize, const SKIP: bool>(
        _arm: Arm,
        ops: Operands<'_, Self>,
        pack: &mut [Self],
        rows: &mut Block<'_, Self::Acc>,
        p: Range<usize>,
        j: Range<usize>,
    ) {
        ops.panel::<W, SKIP>(pack, rows, p, j);
    }
}

impl Element for f32 {
    type Acc = f32;
    const TEST_ZEROS: bool = true;
    const SKIPPED: &'static str = "tensor.macs_f32_skipped";
    #[inline(always)]
    fn mul_add(acc: f32, x: f32, y: f32) -> f32 {
        acc + x * y
    }
}

/// The compiled form a product runs in, chosen once per call. Both arms
/// give bit-identical results (see the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Arm {
    /// The kernel built for the baseline target, on every CPU.
    Portable,
    /// The same stripe compiled for AVX2, with i16 `A·B` on the pair tile
    /// of [`crate::avx2`]; the token proves the CPU runs AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2(crate::avx2::Avx2),
}

impl Arm {
    /// The widest arm this CPU runs.
    pub(crate) fn detect() -> Arm {
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = crate::avx2::Avx2::detect() {
            return Arm::Avx2(cpu);
        }
        Arm::Portable
    }

    /// The portable arm and the one this CPU dispatches to (the same arm
    /// twice where the CPU lacks AVX2), for the tests that run both.
    #[cfg(test)]
    pub(crate) fn both() -> [Arm; 2] {
        [Arm::Portable, Arm::detect()]
    }
}

/// Shortest zero gap inside an A row that the run table leaves out;
/// shorter gaps stay inside a run, because restarting the walk costs
/// about as much as a few dozen multiply-adds.
pub(crate) const MIN_GAP: usize = 32;

/// Nonzero runs recorded per A row; a row with more keeps its tail as
/// one run (correct, just walked through).
const MAX_RUNS: usize = 16;

/// A rows whose run tables are built together before their panels run.
const ROWS: usize = 32;

thread_local! {
    /// Each thread's run tables, taken for the length of a call. A block
    /// scans the entries of its rows before it reads them, so no call
    /// clears the table, and a block of fewer than `ROWS` rows touches
    /// only their entries.
    static TABLES: Cell<Option<Box<[Runs; ROWS]>>> = const { Cell::new(None) };
}

/// The half-open `(start, end)` runs of one A row that the tile walks.
struct Runs {
    spans: [(usize, usize); MAX_RUNS],
    len: usize,
}

impl Runs {
    /// No runs: a table slot before its row is scanned.
    const EMPTY: Runs = Runs { spans: [(0, 0); MAX_RUNS], len: 0 };

    /// Overwrites the table with the runs of `row`: every zero run of at
    /// least [`MIN_GAP`] elements — leading, inner or trailing — is left
    /// out, shorter ones stay inside a run.
    fn scan<T: Element>(&mut self, row: &[T]) {
        self.len = 0;
        let zero = |x: &&T| **x == T::default();
        let zeros =
            |xs: &[T]| xs.iter().map(|&x| u32::from(x == T::default())).sum::<u32>() as usize;
        // Too few zeros for one skippable gap: the whole row is one run.
        // The count vectorizes, so a dense row pays almost nothing for it.
        if zeros(row) < MIN_GAP {
            return self.push(0, row.len());
        }
        // A zero gap of MIN_GAP ≥ 2·CHUNK − 1 elements covers a whole
        // chunk, so the row is read a chunk at a time, and element by
        // element only to widen an all-zero chunk to its gap.
        const CHUNK: usize = 16;
        let (mut start, mut p) = (0, 0);
        while p < row.len() {
            let chunk = &row[p..row.len().min(p + CHUNK)];
            if zeros(chunk) < chunk.len() {
                p += chunk.len();
                continue;
            }
            let gap_start = p - row[..p].iter().rev().take_while(zero).count();
            let gap_end = p + row[p..].iter().take_while(zero).count();
            if gap_end - gap_start >= MIN_GAP {
                self.push(start, gap_start);
                start = gap_end;
            }
            p = gap_end;
        }
        self.push(start, row.len());
    }

    /// Appends the run `s..e` if it is not empty; a full table extends its
    /// last run to `e` instead.
    fn push(&mut self, s: usize, e: usize) {
        if s < e && self.len == MAX_RUNS {
            self.spans[MAX_RUNS - 1].1 = e;
        } else if s < e {
            self.spans[self.len] = (s, e);
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[(usize, usize)] {
        &self.spans[..self.len]
    }
}

/// The two operands of one product as strided views:
/// `A(i, p) = a[i·sa.0 + p·sa.1]` and `B(p, j) = b[p·sb.0 + j·sb.1]`.
#[derive(Clone, Copy)]
pub(crate) struct Operands<'a, T> {
    pub(crate) a: &'a [T],
    pub(crate) sa: (usize, usize),
    pub(crate) b: &'a [T],
    pub(crate) sb: (usize, usize),
}

impl<T: Element> Operands<'_, T> {
    /// Overwrites `C = A · B` on the widest arm this CPU runs, skipping
    /// exact-zero A elements when `SKIP`.
    pub(crate) fn gemm<const SKIP: bool>(self, c: &mut [T::Acc], m: usize, k: usize, n: usize) {
        self.gemm_on::<SKIP>(Arm::detect(), c, m, k, n);
    }

    /// [`Operands::gemm`] on `arm`. Stripes of C rows go to the execution
    /// engine, each computed by [`Operands::stripe`].
    pub(crate) fn gemm_on<const SKIP: bool>(
        self,
        arm: Arm,
        c: &mut [T::Acc],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        let kernel = |first_row: usize, stripe: &mut [T::Acc]| {
            let skipped = match arm {
                Arm::Portable => self.stripe::<SKIP>(arm, first_row, stripe, k, n),
                #[cfg(target_arch = "x86_64")]
                Arm::Avx2(cpu) => cpu.stripe::<T, SKIP>(self, first_row, stripe, k, n),
            };
            if SKIP {
                lts_obs::counter_add(T::SKIPPED, skipped as u64);
            }
        };
        if m * k * n < PAR_THRESHOLD {
            kernel(0, c);
        } else {
            par::par_row_stripes(c, n, kernel);
        }
    }

    /// Overwrites the C rows of `stripe`, the first of them row
    /// `first_row`, and returns the multiply-adds its run tables elided.
    /// Blocks of `ROWS` rows build their run tables, then the shared
    /// dimension is cut into `KC` panels and each panel's columns into
    /// 32-wide tiles, at most one 16- and one 8-wide tile, and an 8-wide
    /// tile padded over the last ≤ 7 columns.
    #[inline(always)]
    pub(crate) fn stripe<const SKIP: bool>(
        self,
        arm: Arm,
        first_row: usize,
        stripe: &mut [T::Acc],
        k: usize,
        n: usize,
    ) -> usize {
        stripe.fill(T::Acc::default());
        // Only A·B has contiguous A rows to build run tables from. The scan
        // reads A once more, and a product narrower than one full tile
        // reads A only once itself, so such products walk whole rows.
        let tables = SKIP && self.sa.1 == 1 && n >= NR;
        // A·Bᵀ, a last tile narrower than 8 columns and the pair tile pack B.
        let pairs = T::PAIRS && !matches!(arm, Arm::Portable);
        let packs = pairs || self.sb.1 != 1 || !n.is_multiple_of(8);
        // The pack is built only on the paths that read it.
        let mut pack_buf;
        let pack: &mut [T] = if packs {
            pack_buf = [T::default(); KC * NR];
            &mut pack_buf
        } else {
            &mut []
        };
        let mut table =
            tables.then(|| TABLES.take().unwrap_or_else(|| Box::new([Runs::EMPTY; ROWS])));
        let block_rows = if tables { ROWS } else { (stripe.len() / n).max(1) };
        let mut skipped = 0;
        for (i, block) in stripe.chunks_mut(block_rows * n).enumerate() {
            let first = first_row + i * block_rows;
            let runs = match &mut table {
                Some(table) => &mut table[..block.len() / n],
                None => &mut [],
            };
            for (r, row_runs) in runs.iter_mut().enumerate() {
                row_runs.scan(&self.a[(first + r) * self.sa.0..][..k]);
                let taps: usize = row_runs.as_slice().iter().map(|&(s, e)| e - s).sum();
                skipped += (k - taps) * n;
            }
            let mut rows = Block { first, runs, c: block, n };
            for p0 in (0..k).step_by(KC) {
                let p = p0..(p0 + KC).min(k);
                let mut j0 = 0;
                while j0 + NR <= n {
                    T::panel::<NR, SKIP>(arm, self, pack, &mut rows, p.clone(), j0..j0 + NR);
                    j0 += NR;
                }
                if j0 + 16 <= n {
                    T::panel::<16, SKIP>(arm, self, pack, &mut rows, p.clone(), j0..j0 + 16);
                    j0 += 16;
                }
                while j0 < n {
                    let j1 = (j0 + 8).min(n);
                    T::panel::<8, SKIP>(arm, self, pack, &mut rows, p.clone(), j0..j1);
                    j0 = j1;
                }
            }
        }
        if table.is_some() {
            TABLES.set(table);
        }
        skipped
    }

    /// The broadcast tile's panel: adds the products over shared indices
    /// `p` to columns `j` (`j.len() ≤ W`) of every row of a block of C rows.
    ///
    /// B is read in place when its rows are contiguous and the tile is
    /// full. Otherwise (`A·Bᵀ`, or the last `< 8` columns) the panel is
    /// first packed as `pack[q·W + jj] = B(p.start + q, j.start + jj)`,
    /// zero past `j.end`: the padded lanes compute values that are never
    /// stored, and lanes never mix, so the stored columns are exactly
    /// what a `j.len()`-wide tile would give.
    #[inline(always)]
    pub(crate) fn panel<const W: usize, const SKIP: bool>(
        self,
        pack: &mut [T],
        rows: &mut Block<'_, T::Acc>,
        p: Range<usize>,
        j: Range<usize>,
    ) {
        let (sa, sb, kc, w) = (self.sa, self.sb, p.len(), j.len());
        let (bt, ldb): (&[T], usize) = if sb.1 == 1 && w == W {
            (&self.b[p.start * sb.0 + j.start..], sb.0)
        } else {
            for jj in 0..W {
                for q in 0..kc {
                    pack[q * W + jj] = if jj < w {
                        self.b[(p.start + q) * sb.0 + (j.start + jj) * sb.1]
                    } else {
                        T::default()
                    };
                }
            }
            (&pack[..], W)
        };
        rows.each_row::<W>(
            j,
            #[inline(always)]
            |i, runs, c| {
                tile::<T, W, SKIP>(&self.a[i * sa.0..], sa.1, runs, p.clone(), bt, ldb, c);
            },
        );
    }
}

/// A block of C rows, the index of its first row and the run tables of
/// its A rows (none for the transposed products).
pub(crate) struct Block<'r, Acc> {
    first: usize,
    runs: &'r [Runs],
    c: &'r mut [Acc],
    n: usize,
}

impl<Acc: Copy + Default> Block<'_, Acc> {
    /// Calls `tile(i, runs, c)` for every row of the block: `i` is the row
    /// index, `runs` its A row's runs (one run over everything without a
    /// table) and `c` its `W` accumulators at columns `j`. A tile narrower
    /// than `W` works on a zero-padded copy and stores back `j.len()`.
    #[inline(always)]
    pub(crate) fn each_row<const W: usize>(
        &mut self,
        j: Range<usize>,
        mut tile: impl FnMut(usize, &[(usize, usize)], &mut [Acc; W]),
    ) {
        for (r, crow) in self.c.chunks_exact_mut(self.n).enumerate() {
            let runs = self.runs.get(r).map_or(&[(0, usize::MAX)][..], Runs::as_slice);
            let c = &mut crow[j.clone()];
            match <&mut [Acc; W]>::try_from(&mut *c) {
                Ok(full) => tile(self.first + r, runs, full),
                Err(_) => {
                    let mut part = [Acc::default(); W];
                    part[..c.len()].copy_from_slice(c);
                    tile(self.first + r, runs, &mut part);
                    c.copy_from_slice(&part[..c.len()]);
                }
            }
        }
    }
}

/// The microkernel: `c[jj] += Σ_q a[q·lda] · b[(q − p.start)·ldb + jj]`
/// for `jj < W`, over the indices `q` of the panel `p` that lie inside
/// `runs`, terms added in ascending `q`. The `W` accumulators stay in
/// registers across every run of the panel, so C is loaded and stored
/// once per panel and each A element read once per tile. With `SKIP`,
/// an exact-zero f32 A element inside a run skips its whole update.
#[inline(always)]
fn tile<T: Element, const W: usize, const SKIP: bool>(
    a: &[T],
    lda: usize,
    runs: &[(usize, usize)],
    p: Range<usize>,
    b: &[T],
    ldb: usize,
    c: &mut [T::Acc; W],
) {
    let mut acc = *c;
    for &(s, e) in runs {
        if s >= p.end {
            break;
        }
        for q in s.max(p.start)..e.min(p.end) {
            let x = a[q * lda];
            if SKIP && T::TEST_ZEROS && x == T::default() {
                continue;
            }
            let o = (q - p.start) * ldb;
            let bq = &b[o..o + W];
            for jj in 0..W {
                acc[jj] = T::mul_add(acc[jj], x, bq[jj]);
            }
        }
    }
    *c = acc;
}

pub mod reference {
    //! The pre-overhaul GEMM kernels, retained verbatim (serial form).
    //!
    //! The register-tile microkernel in the parent module is gated on
    //! producing bit-identical results to these: the equivalence proptests
    //! assert exact equality on random shapes. Not for production use.

    use super::PANEL;

    /// Pre-overhaul `C = A · B` (i-k-j panel loop, no register tile).
    pub fn matmul_into_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        if n == 0 {
            return;
        }
        c.fill(0.0);
        for p0 in (0..k).step_by(PANEL) {
            let p1 = (p0 + PANEL).min(k);
            for r in 0..m {
                let arow = &a[r * k..r * k + k];
                let crow = &mut c[r * n..(r + 1) * n];
                for (p, &aval) in arow[p0..p1].iter().enumerate().map(|(o, v)| (p0 + o, v)) {
                    if aval == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (cj, &bj) in crow.iter_mut().zip(brow) {
                        *cj += aval * bj;
                    }
                }
            }
        }
    }

    /// Pre-overhaul `C = Aᵀ · B`.
    pub fn matmul_at_b_into_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        if n == 0 {
            return;
        }
        c.fill(0.0);
        for p0 in (0..k).step_by(PANEL) {
            let p1 = (p0 + PANEL).min(k);
            for i in 0..m {
                let crow = &mut c[i * n..(i + 1) * n];
                for p in p0..p1 {
                    let aval = a[p * m + i];
                    if aval == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (cj, &bj) in crow.iter_mut().zip(brow) {
                        *cj += aval * bj;
                    }
                }
            }
        }
    }

    /// Pre-overhaul `C = A · Bᵀ` (one dot product per element).
    pub fn matmul_a_bt_into_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(c.len(), m * n);
        if n == 0 {
            return;
        }
        for j0 in (0..n).step_by(PANEL) {
            let j1 = (j0 + PANEL).min(n);
            for r in 0..m {
                let arow = &a[r * k..r * k + k];
                let crow = &mut c[r * n..(r + 1) * n];
                for j in j0..j1 {
                    let brow = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&x, &y) in arow.iter().zip(brow) {
                        acc += x * y;
                    }
                    crow[j] = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::d2(rows, cols), v).unwrap()
    }

    #[test]
    fn small_product_matches_hand_computation() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(2, 2, vec![1., 2., 3., 4.]);
        let i = m(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = m(2, 3, vec![0.; 6]);
        let b = m(2, 3, vec![0.; 6]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { left_cols: 3, right_rows: 2 })
        ));
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let a = Tensor::zeros(Shape::d3(1, 2, 3));
        let b = Tensor::zeros(Shape::d2(3, 1));
        assert!(matches!(matmul(&a, &b), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = m(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, (0..12).map(|x| x as f32).collect());
        let expected = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert_eq!(matmul_at_b(&a, &b).unwrap(), expected);
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, (0..12).map(|x| x as f32).collect());
        let expected = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert_eq!(matmul_a_bt(&a, &b).unwrap(), expected);
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(transpose(&transpose(&a).unwrap()).unwrap(), a);
    }

    /// Reference triple loop in the naive j-inner order.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn blocked_kernel_matches_naive_beyond_panel_size() {
        // Exercise shapes that straddle the panel boundary.
        for (mm, kk, nn) in [(3, PANEL + 7, 5), (17, 2 * PANEL, PANEL + 1), (1, 1, 1)] {
            let a: Vec<f32> = (0..mm * kk).map(|x| ((x * 37 % 23) as f32) - 11.0).collect();
            let b: Vec<f32> = (0..kk * nn).map(|x| ((x * 17 % 19) as f32) - 9.0).collect();
            let mut c = vec![1.0f32; mm * nn];
            matmul_into(&a, &b, &mut c, mm, kk, nn);
            assert_eq!(c, naive(&a, &b, mm, kk, nn), "{mm}x{kk}x{nn}");
        }
    }

    #[test]
    fn microkernels_match_retained_reference_kernels() {
        // Shapes straddling both the panel and the register-tile widths,
        // with exact zeros in A (the zero-skip path) and awkward tails.
        for (mm, kk, nn) in
            [(5, PANEL + 9, NR + 3), (3, 2 * PANEL + 1, 2 * NR), (7, KC + 11, 75), (2, 1, 1)]
        {
            let gen = |len: usize, s: usize| -> Vec<f32> {
                (0..len).map(|x| (((x * s + 5) % 13) as f32) - 6.0).collect()
            };
            let a = gen(mm * kk, 37);
            let at = gen(kk * mm, 37);
            let b = gen(kk * nn, 17);
            let bt = gen(nn * kk, 17);
            assert_products_match_reference(&a, &at, &b, &bt, mm, kk, nn);
        }
    }

    #[test]
    fn zero_skip_rule_holds_on_non_finite_inputs() {
        // ±inf and NaN in B sit opposite exact zeros (±0) in A, in a full
        // 32-wide tile, the 16- and 8-wide tiles and the padded remainder
        // (n = 59 = 32 + 16 + 8 + 3). Every row has scattered zeros,
        // tested one at a time inside its runs, and a zero run longer
        // than MIN_GAP across a panel boundary, which A·B's run table
        // leaves out; row 1 also starts with a long zero run and row 2
        // ends with one. B is non-finite wherever every row of A is
        // zero (elsewhere NaN payloads would depend on operand order).
        // A·B and Aᵀ·B skip the zeros and stay finite; A·Bᵀ multiplies
        // them through and yields NaN, exactly as the reference kernels
        // do.
        let (mm, kk, nn) = (3, 2 * KC + 5, 59);
        let gap = |i: usize, p: usize| {
            (KC - 20..KC + 2 * MIN_GAP).contains(&p)
                || (i == 1 && p < MIN_GAP + 3)
                || (i == 2 && p >= kk - MIN_GAP)
        };
        let zero_at = |i: usize, p: usize| p % 7 == 3 || gap(i, p);
        let a: Vec<f32> = (0..mm * kk)
            .map(|x| match (zero_at(x / kk, x % kk), x % 2) {
                (true, 0) => 0.0,
                (true, _) => -0.0,
                _ => ((x % 5) as f32) - 2.5,
            })
            .collect();
        let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let b_at = |p: usize, j: usize| {
            if (0..mm).all(|i| zero_at(i, p)) {
                special[(p + j) % 3]
            } else {
                ((p * 3 + j) % 11) as f32 * 0.25
            }
        };
        let b: Vec<f32> = (0..kk * nn).map(|x| b_at(x / nn, x % nn)).collect();
        let bt: Vec<f32> = (0..nn * kk).map(|x| b_at(x % kk, x / kk)).collect();
        let at: Vec<f32> = (0..kk * mm).map(|x| a[(x % mm) * kk + x / mm]).collect();
        for row in a.chunks_exact(kk) {
            assert_eq!(runs_of(row).len, 2);
        }
        let [ab, atb, abt] = assert_products_match_reference(&a, &at, &b, &bt, mm, kk, nn);
        assert!(ab.iter().all(|x| x.is_finite()), "A·B skips the zeros");
        assert!(atb.iter().all(|x| x.is_finite()), "Aᵀ·B skips the zeros");
        assert!(abt.iter().all(|x| x.is_nan()), "A·Bᵀ multiplies the zeros through");
    }

    /// Asserts that the public entries and both arms give the `reference`
    /// kernels' `[A·B, Aᵀ·B, A·Bᵀ]` bit for bit, with `at` and `bt` stored
    /// transposed, and returns them.
    fn assert_products_match_reference(
        a: &[f32],
        at: &[f32],
        b: &[f32],
        bt: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> [Vec<f32>; 3] {
        let mut want = [vec![2.0f32; m * n], vec![2.0f32; m * n], vec![2.0f32; m * n]];
        reference::matmul_into_ref(a, b, &mut want[0], m, k, n);
        reference::matmul_at_b_into_ref(at, b, &mut want[1], m, k, n);
        reference::matmul_a_bt_into_ref(a, bt, &mut want[2], m, k, n);
        let mut public = [vec![1.0f32; m * n], vec![1.0f32; m * n], vec![1.0f32; m * n]];
        matmul_into(a, b, &mut public[0], m, k, n);
        matmul_at_b_into(at, b, &mut public[1], m, k, n);
        matmul_a_bt_into(a, bt, &mut public[2], m, k, n);
        let bits = |c: &[Vec<f32>; 3]| {
            c.each_ref().map(|c| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&public), bits(&want), "{m}x{k}x{n}");
        for arm in Arm::both() {
            let got = products_on(arm, a, at, b, bt, m, k, n);
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} on {arm:?}");
        }
        want
    }

    /// `[A·B, Aᵀ·B, A·Bᵀ]` on `arm`, with `at` and `bt` stored transposed,
    /// as the public entries compute them.
    #[allow(clippy::too_many_arguments)]
    fn products_on(
        arm: Arm,
        a: &[f32],
        at: &[f32],
        b: &[f32],
        bt: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> [Vec<f32>; 3] {
        let mut c = [vec![1.0f32; m * n], vec![1.0f32; m * n], vec![1.0f32; m * n]];
        Operands { a, sa: (k, 1), b, sb: (n, 1) }.gemm_on::<true>(arm, &mut c[0], m, k, n);
        Operands { a: at, sa: (1, m), b, sb: (n, 1) }.gemm_on::<true>(arm, &mut c[1], m, k, n);
        Operands { a, sa: (k, 1), b: bt, sb: (1, k) }.gemm_on::<false>(arm, &mut c[2], m, k, n);
        c
    }

    /// `v` with every `every`-th element an exact zero, the sign alternating.
    fn with_zeros(v: &[f32], every: usize) -> Vec<f32> {
        let zero = |i: usize| if (i / every).is_multiple_of(2) { 0.0 } else { -0.0 };
        v.iter()
            .enumerate()
            .map(|(i, &x)| if i.is_multiple_of(every) { zero(i) } else { x })
            .collect()
    }

    // The generator of `tests/properties.rs`, run on both arms, for all
    // three products.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn register_blocked_microkernel_matches_naive_across_tile_boundaries(
            m in 1usize..5, k in 1usize..260, zero_every in 2usize..6,
            pool in proptest::collection::vec(-8.0f32..8.0, 5 * 260 + 260 * 72)
        ) {
            // Every n in 1..=72, so every tile mix; k across KC; exact
            // zeros in A. Each element sums in ascending p, as the naive
            // loops do.
            let left = with_zeros(&pool[..m * k], zero_every);
            let at: Vec<f32> = (0..k * m).map(|x| left[(x % m) * k + x / m]).collect();
            for n in 1..=72 {
                let b = &pool[5 * 260..5 * 260 + k * n];
                let bt: Vec<f32> = (0..n * k).map(|x| b[(x % k) * n + x / k]).collect();
                let dot = |i: usize, j: usize| {
                    (0..k).fold(0.0f32, |acc, p| acc + left[i * k + p] * b[p * n + j])
                };
                let naive: Vec<f32> = (0..m * n).map(|x| dot(x / n, x % n)).collect();
                for arm in Arm::both() {
                    for (c, name) in products_on(arm, &left, &at, b, &bt, m, k, n).iter().zip(["ab", "at_b", "a_bt"]) {
                        proptest::prop_assert_eq!(c, &naive, "{} n={} on {:?}", name, n, arm);
                    }
                }
            }
        }
    }

    #[test]
    fn runs_merge_short_gaps_and_skip_long_ones() {
        let mut row = vec![0i16; 200];
        assert_eq!(runs_of(&row).as_slice(), []);
        row[3] = 1; // a short leading gap: walked through
        row[3 + MIN_GAP] = 2; // a gap of MIN_GAP - 1 zeros: merged
        row[3 + 2 * MIN_GAP + 1] = 3; // a gap of exactly MIN_GAP zeros: skipped
        let inner = (4 + 2 * MIN_GAP, 5 + 2 * MIN_GAP);
        assert_eq!(runs_of(&row).as_slice(), [(0, 4 + MIN_GAP), inner]);
        // A long leading gap is skipped, a short trailing one is not.
        row[..4].fill(0);
        row[198] = 4;
        assert_eq!(runs_of(&row).as_slice(), [(3 + MIN_GAP, 4 + MIN_GAP), inner, (198, 200)]);
        // Dense rows are one run, with or without a few scattered zeros,
        // and f32 rows follow the same rule, -0.0 counting as a zero.
        assert_eq!(runs_of(&[5i16; 70]).as_slice(), [(0, 70)]);
        let scattered: Vec<i16> = (0..200).map(|p| i16::from(p % 4 != 0)).collect();
        assert_eq!(runs_of(&scattered).as_slice(), [(0, 200)]);
        let f: Vec<f32> = row.iter().map(|&x| if x == 0 { -0.0 } else { f32::from(x) }).collect();
        assert_eq!(runs_of(&f).as_slice(), runs_of(&row).as_slice());
        assert_eq!(runs_of(&f).as_slice().iter().map(|&(s, e)| e - s).sum::<usize>(), 4);
    }

    fn runs_of<T: Element>(row: &[T]) -> Runs {
        let mut runs = Runs::EMPTY;
        runs.scan(row);
        runs
    }

    /// The run table's rule, one element at a time: the complement of
    /// the zero runs of at least MIN_GAP elements, a full table
    /// extending its last run.
    fn runs_by_scan(row: &[i16]) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let (mut start, mut p) = (0, 0);
        while p < row.len() {
            let zeros = row[p..].iter().take_while(|&&x| x == 0).count();
            if zeros >= MIN_GAP {
                if p > start {
                    match runs.len() {
                        MAX_RUNS => runs[MAX_RUNS - 1].1 = p,
                        _ => runs.push((start, p)),
                    }
                }
                start = p + zeros;
            }
            p += zeros.max(1);
        }
        if start < row.len() {
            match runs.len() {
                MAX_RUNS => runs[MAX_RUNS - 1].1 = row.len(),
                _ => runs.push((start, row.len())),
            }
        }
        runs
    }

    #[test]
    fn chunked_run_scan_equals_the_element_scan() {
        // Zero runs of every length from 1 to 3·MIN_GAP at every offset
        // of the 16-element chunks, rows of every length up to 300 (whole
        // and partial last chunks), and pseudo-random rows from 2% to 90%
        // zeros, alone and with their zeros widened to blocks of seven.
        let mut rows: Vec<Vec<i16>> = Vec::new();
        for len in 0..3 * MIN_GAP {
            for at in 0..40 {
                let mut row = vec![1i16; at + len + 20];
                row[at..at + len].fill(0);
                rows.push(row.clone());
                rows.push(row[..at + len].to_vec());
            }
        }
        let mut state = 7u64;
        for len in 0..300 {
            for density in [2, 8, 40, 90] {
                let row = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        i16::from((state >> 33) % 100 >= density)
                    })
                    .collect::<Vec<_>>();
                rows.push(row.iter().enumerate().map(|(p, &x)| x * row[p / 7 * 7]).collect());
                rows.push(row);
            }
        }
        for row in &rows {
            assert_eq!(runs_of(row).as_slice(), runs_by_scan(row), "{row:?}");
        }
    }

    #[test]
    fn rows_with_more_runs_than_the_table_keep_their_tail_as_one_run() {
        let period = MIN_GAP + 1;
        let row: Vec<f32> =
            (0..period * (MAX_RUNS + 4)).map(|p| f32::from(u8::from(p % period == 0))).collect();
        let runs = runs_of(&row);
        assert_eq!(runs.len, MAX_RUNS);
        assert_eq!(
            runs.spans[MAX_RUNS - 1],
            ((MAX_RUNS - 1) * period, (MAX_RUNS + 3) * period + 1)
        );
        let (k, n) = (row.len(), NR + 5);
        let b: Vec<f32> = (0..k * n).map(|x| ((x * 7 % 13) as f32) - 6.0).collect();
        let (mut c, mut cr) = (vec![1.0f32; n], vec![2.0f32; n]);
        matmul_into(&row, &b, &mut c, 1, k, n);
        reference::matmul_into_ref(&row, &b, &mut cr, 1, k, n);
        assert_eq!(c, cr);
        // The i16 tiles walk the same table, its runs starting at odd and
        // even indices in turn.
        let qrow: Vec<i16> = row.iter().map(|&x| x as i16).collect();
        let qb: Vec<i16> = b.iter().map(|&x| x as i16).collect();
        let mut want = vec![2i32; n];
        crate::qmatmul::reference::matmul_i16_into_ref(&qrow, &qb, &mut want, 1, k, n);
        for arm in Arm::both() {
            let mut c = vec![1i32; n];
            let ops = Operands { a: &qrow[..], sa: (k, 1), b: &qb[..], sb: (n, 1) };
            ops.gemm_on::<true>(arm, &mut c, 1, k, n);
            assert_eq!(c, want, "i16 on {arm:?}");
        }
    }
}
