//! Property-based tests for the tensor crate.

use lts_tensor::im2col::reference::im2col_into_ref;
use lts_tensor::im2col::{col2im, im2col, im2col_into, ConvGeometry};
use lts_tensor::matmul::{matmul, matmul_a_bt, matmul_at_b, transpose};
use lts_tensor::qmatmul::{matmul_i16_into, reference};
use lts_tensor::{ops, stats, Fixed16, QuantParams, Shape, Tensor};
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, len)
}

/// `v` with every `every`-th element replaced by an exact zero, the sign
/// alternating, so the f32 kernels' zero-skip path runs.
fn with_zeros(v: &[f32], every: usize) -> Vec<f32> {
    let zero = |i: usize| if (i / every).is_multiple_of(2) { 0.0 } else { -0.0 };
    v.iter().enumerate().map(|(i, &x)| if i.is_multiple_of(every) { zero(i) } else { x }).collect()
}

fn i16_strategy(len: usize) -> impl Strategy<Value = Vec<i16>> {
    proptest::collection::vec(i16::MIN..=i16::MAX, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(6), b in tensor_strategy(8), c in tensor_strategy(8)
    ) {
        let a = Tensor::from_vec(Shape::d2(3, 2), a).unwrap();
        let b = Tensor::from_vec(Shape::d2(2, 4), b).unwrap();
        let c = Tensor::from_vec(Shape::d2(2, 4), c).unwrap();
        let lhs = matmul(&a, &ops::add(&b, &c).unwrap()).unwrap();
        let rhs = ops::add(&matmul(&a, &b).unwrap(), &matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_swaps_product_order(a in tensor_strategy(6), b in tensor_strategy(8)) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let a = Tensor::from_vec(Shape::d2(3, 2), a).unwrap();
        let b = Tensor::from_vec(Shape::d2(2, 4), b).unwrap();
        let lhs = transpose(&matmul(&a, &b).unwrap()).unwrap();
        let rhs = matmul(&transpose(&b).unwrap(), &transpose(&a).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn fused_transpose_products_match_explicit(a in tensor_strategy(6), b in tensor_strategy(9)) {
        let a_t = Tensor::from_vec(Shape::d2(3, 2), a.clone()).unwrap();
        let b_t = Tensor::from_vec(Shape::d2(3, 3), b).unwrap();
        let fused = matmul_at_b(&a_t, &b_t).unwrap();
        let explicit = matmul(&transpose(&a_t).unwrap(), &b_t).unwrap();
        prop_assert_eq!(fused, explicit);

        let a2 = Tensor::from_vec(Shape::d2(2, 3), a).unwrap();
        let fused2 = matmul_a_bt(&a2, &b_t).unwrap();
        let explicit2 = matmul(&a2, &transpose(&b_t).unwrap()).unwrap();
        for (x, y) in fused2.as_slice().iter().zip(explicit2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn fixed16_roundtrip_error_bounded(x in -100.0f32..100.0) {
        let err = (Fixed16::from_f32(x).to_f32() - x).abs();
        prop_assert!(err <= Fixed16::resolution() / 2.0 + 1e-6);
    }

    #[test]
    fn fixed16_quantization_is_idempotent(x in -100.0f32..100.0) {
        let once = Fixed16::from_f32(x).to_f32();
        let twice = Fixed16::from_f32(once).to_f32();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn col2im_im2col_identity_on_disjoint_fields(data in tensor_strategy(36)) {
        let img = Tensor::from_vec(Shape::d3(1, 6, 6), data).unwrap();
        let g = ConvGeometry { in_c: 1, in_h: 6, in_w: 6, kh: 2, kw: 2, stride: 2, pad: 0 };
        let back = col2im(&im2col(&img, &g).unwrap(), &g).unwrap();
        prop_assert_eq!(back, img);
    }

    #[test]
    fn im2col_preserves_l1_mass_without_padding(data in tensor_strategy(16)) {
        // With stride == kernel (disjoint fields, no padding), the column
        // matrix is a permutation of the image, so L1 norms match.
        let img = Tensor::from_vec(Shape::d3(1, 4, 4), data).unwrap();
        let g = ConvGeometry { in_c: 1, in_h: 4, in_w: 4, kh: 2, kw: 2, stride: 2, pad: 0 };
        let cols = im2col(&img, &g).unwrap();
        let a = stats::l1_norm(img.as_slice());
        let b = stats::l1_norm(cols.as_slice());
        prop_assert!((a - b).abs() < 1e-3);
    }

    #[test]
    fn axpy_matches_manual(alpha in -2.0f32..2.0, x in tensor_strategy(10), y in tensor_strategy(10)) {
        let xt = Tensor::from_slice_1d(&x);
        let mut yt = Tensor::from_slice_1d(&y);
        ops::axpy(alpha, &xt, &mut yt).unwrap();
        for i in 0..10 {
            prop_assert!((yt.as_slice()[i] - (y[i] + alpha * x[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn sparsity_bounds(data in tensor_strategy(32)) {
        let s = stats::sparsity(&data);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn blocked_matmul_matches_naive_triple_loop(
        m in 1usize..6, k in 1usize..140, n in 1usize..6, pool in tensor_strategy(6 * 140 * 2)
    ) {
        // The shared dimension sweeps across the cache-panel boundary; the
        // blocked kernel accumulates each element in the same p-ascending
        // order as the naive loop, so results must be bitwise equal.
        let a = Tensor::from_vec(Shape::d2(m, k), pool[..m * k].to_vec()).unwrap();
        let b = Tensor::from_vec(
            Shape::d2(k, n),
            pool[6 * 140..6 * 140 + k * n].to_vec(),
        )
        .unwrap();
        let c = matmul(&a, &b).unwrap();
        let (av, bv) = (a.as_slice(), b.as_slice());
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += av[i * k + p] * bv[p * n + j];
                }
                prop_assert_eq!(c.as_slice()[i * n + j], acc, "({}, {})", i, j);
            }
        }
    }
}

// Wider shapes at fewer cases: these sweep the register-tile microkernel's
// boundaries — every mix of 32-, 16- and 8-wide column tiles plus a 1–7
// column remainder, and KC = 128 shared-dimension panels — where the f32
// pools get large enough that 64 cases would dominate the suite's runtime.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn register_blocked_microkernel_matches_naive_across_tile_boundaries(
        m in 1usize..5, k in 1usize..260, zero_every in 2usize..6,
        pool in tensor_strategy(5 * 260 + 260 * 72)
    ) {
        // Every n in 1..=72 runs, so each case covers every tile mix; k
        // crosses the KC = 128 panel boundary (up to two full panels plus
        // a remainder). A carries exact zeros (the skip path). The
        // microkernel still accumulates every output element in
        // ascending-p order, so results must stay bitwise equal to the
        // naive triple loop.
        let av = with_zeros(&pool[..m * k], zero_every);
        let a = Tensor::from_vec(Shape::d2(m, k), av.clone()).unwrap();
        for n in 1..=72 {
            let bv = &pool[5 * 260..5 * 260 + k * n];
            let b = Tensor::from_vec(Shape::d2(k, n), bv.to_vec()).unwrap();
            let c = matmul(&a, &b).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += av[i * k + p] * bv[p * n + j];
                    }
                    prop_assert_eq!(c.as_slice()[i * n + j], acc, "n={} ({}, {})", n, i, j);
                }
            }
        }
    }

    #[test]
    fn transposed_microkernels_match_naive_p_ascending(
        m in 1usize..5, k in 1usize..260, zero_every in 2usize..6,
        pool in tensor_strategy(5 * 260 + 260 * 72)
    ) {
        // Aᵀ·B reads A transposed, A·Bᵀ packs Bᵀ panels; both keep each
        // element's k-accumulation in ascending-p order and must match the
        // naive transposed loops bitwise for every n in 1..=72, with exact
        // zeros in A.
        let left = with_zeros(&pool[..k * m], zero_every);
        for n in 1..=72 {
            let right = &pool[5 * 260..5 * 260 + k * n];

            // Aᵀ·B: A stored (k, m), B stored (k, n).
            let a_t = Tensor::from_vec(Shape::d2(k, m), left.clone()).unwrap();
            let b = Tensor::from_vec(Shape::d2(k, n), right.to_vec()).unwrap();
            let c = matmul_at_b(&a_t, &b).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += left[p * m + i] * right[p * n + j];
                    }
                    prop_assert_eq!(c.as_slice()[i * n + j], acc, "at_b n={} ({}, {})", n, i, j);
                }
            }

            // A·Bᵀ: A stored (m, k), B stored (n, k).
            let a = Tensor::from_vec(Shape::d2(m, k), left.clone()).unwrap();
            let b_t = Tensor::from_vec(Shape::d2(n, k), right.to_vec()).unwrap();
            let c2 = matmul_a_bt(&a, &b_t).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += left[i * k + p] * right[j * k + p];
                    }
                    prop_assert_eq!(c2.as_slice()[i * n + j], acc, "a_bt n={} ({}, {})", n, i, j);
                }
            }
        }
    }

    #[test]
    fn i16_kernel_bit_identical_to_naive_oracle(
        m in 1usize..5, k in 1usize..260, n in 1usize..70, extreme in 0usize..3,
        pool in i16_strategy(5 * 260 + 260 * 70)
    ) {
        // n sweeps across the 32-, 16- and 8-wide tiles and the padded
        // remainder, k across the 128-deep panel, with full-range i16
        // operands so accumulators wrap; one case in three pins A to
        // i16::MIN and B to i16::MIN or i16::MAX, the largest products.
        // Wrapping i32 accumulation is associative, so the tiled kernel
        // must equal the naive serial oracle *exactly*, bit for bit.
        let mut a = pool[..m * k].to_vec();
        let mut b = pool[5 * 260..5 * 260 + k * n].to_vec();
        if extreme > 0 {
            a.fill(i16::MIN);
            b.fill(if extreme == 1 { i16::MIN } else { i16::MAX });
        }
        let (mut c, mut cr) = (vec![1i32; m * n], vec![2i32; m * n]);
        matmul_i16_into(&a, &b, &mut c, m, k, n);
        reference::matmul_i16_into_ref(&a, &b, &mut cr, m, k, n);
        prop_assert_eq!(&c, &cr, "i16 {}x{}x{}", m, k, n);
    }

    #[test]
    fn i16_kernel_skips_zero_blocks_bit_identically(
        dims in (1usize..40, 1usize..400, 1usize..80),
        pattern in (1usize..90, 1usize..90, 0usize..180),
        blocks in (1usize..17, 1usize..60, 0u64..u64::MAX),
        zero_rows in 0u64..u64::MAX,
        pool in i16_strategy(40 * 400 + 400 * 80)
    ) {
        let ((m, k, n), (run, gap, phase), (cores, taps, keep)) = (dims, pattern, blocks);
        // Half the cases cut A's rows into nonzero runs and zero gaps of
        // random lengths (the gap threshold is 32, so gaps fall on both
        // sides of it), shifted per row so runs start and end anywhere.
        // The other half mask them like SS_Mask: `cores` producer blocks
        // of `taps` each, a random subset kept per row (hop-local
        // layouts keep a few). Some rows are all zero; n crosses every
        // tile width, and the output width 10 of a classifier runs
        // whenever n is 10 or 42; operands are full-range so sums wrap.
        let mut a = pool[..m * k].to_vec();
        for (i, row) in a.chunks_exact_mut(k).enumerate() {
            let all_zero = (zero_rows >> (i % 64)) & 1 == 1 && i % 3 == 0;
            for (p, x) in row.iter_mut().enumerate() {
                let masked = if phase % 2 == 0 {
                    (p + phase + 7 * i) % (run + gap) >= run
                } else {
                    let block = (p / taps) % cores;
                    (keep >> ((block + 5 * i) % 64)) & 1 == 0
                };
                if all_zero || masked {
                    *x = 0;
                }
            }
        }
        let b = &pool[40 * 400..40 * 400 + k * n];
        let (mut c, mut cr) = (vec![1i32; m * n], vec![2i32; m * n]);
        matmul_i16_into(&a, b, &mut c, m, k, n);
        reference::matmul_i16_into_ref(&a, b, &mut cr, m, k, n);
        prop_assert_eq!(&c, &cr, "i16 {}x{}x{} run {} gap {}", m, k, n, run, gap);
    }

    #[test]
    fn segment_unroll_equals_the_reference_loop(
        image in (1usize..5, 1usize..10, 1usize..34),
        kernel in (1usize..6, 1usize..6, 1usize..4, 0usize..4),
        pool in collection::vec(-300i16..300, 4 * 9 * 33)
    ) {
        let ((in_c, in_h, in_w), (kh, kw, stride, pad)) = (image, kernel);
        // Strided, padded, non-square geometries, including maps smaller
        // than the kernel (which only the padding lets fit), and output
        // widths on and off the unroll's fixed 8, 16 and 32; both element
        // types must match the per-element loop exactly.
        let geom = ConvGeometry {
            in_c,
            in_h,
            in_w,
            kh: 1 + (kh - 1) % (in_h + 2 * pad),
            kw: 1 + (kw - 1) % (in_w + 2 * pad),
            stride,
            pad,
        };
        let len = geom.col_rows() * geom.col_cols();
        let q = &pool[..in_c * in_h * in_w];
        let (mut got, mut want) = (vec![9i16; len], vec![7i16; len]);
        im2col_into(q, &geom, &mut got);
        im2col_into_ref(q, &geom, &mut want);
        prop_assert_eq!(&got, &want, "i16 {:?}", geom);
        let f: Vec<f32> = q.iter().map(|&x| f32::from(x) * 0.5).collect();
        let (mut got, mut want) = (vec![9.0f32; len], vec![7.0f32; len]);
        im2col_into(&f, &geom, &mut got);
        im2col_into_ref(&f, &geom, &mut want);
        prop_assert_eq!(&got, &want, "f32 {:?}", geom);
    }

    #[test]
    fn quantize_equals_round_then_clamp_on_any_bits(
        bits in collection::vec(0u32..=u32::MAX, 64),
        codes in collection::vec(-33000.0f32..33000.0, 64),
        amax in 1e-3f32..1e3, head in 1.0f32..40.0
    ) {
        // Any f32 bit pattern (NaN, ±inf, subnormals included), and
        // quotients near every code, half-way points and the saturation
        // bound, at a random scale and accumulator headroom: the
        // libm-free rounding must give exactly the `round` and `clamp`
        // codes.
        let p = QuantParams::from_min_max_with_headroom(-amax, amax, head);
        let m = p.max_code() as f32;
        let near = codes
            .iter()
            .flat_map(|&q| [q, q.trunc() + 0.5, q / head].map(|v| v * p.scale()));
        for x in bits.into_iter().map(f32::from_bits).chain(near) {
            let want = (x / p.scale()).round().clamp(-m, m) as i16;
            prop_assert_eq!(p.quantize(x), want, "{} at {:?}", x, p);
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded_by_half_scale(
        values in tensor_strategy(64), x in -8.0f32..8.0
    ) {
        // Calibrating on the observed values guarantees every in-range
        // element round-trips within half a quantization step.
        let params = QuantParams::from_slice(&values);
        let mut q = vec![0i16; values.len()];
        params.quantize_into(&values, &mut q);
        let mut back = vec![0.0f32; values.len()];
        params.dequantize_into(&q, &mut back);
        for (v, b) in values.iter().zip(&back) {
            prop_assert!(
                (v - b).abs() <= params.scale() / 2.0 + f32::EPSILON,
                "{} -> {} (scale {})", v, b, params.scale()
            );
        }
        // A lone value is always within calibration range of itself.
        let p = QuantParams::from_min_max(-x.abs(), x.abs());
        let err = (p.dequantize(p.quantize(x)) - x).abs();
        prop_assert!(err <= p.scale() / 2.0 + f32::EPSILON);
    }
}
