//! Property-based tests for layers, grouping, and pruning invariants.

use lts_nn::conv::Conv2d;
use lts_nn::grouping::{even_blocks, GroupLayout};
use lts_nn::layer::Layer;
use lts_nn::loss::softmax_cross_entropy;
use lts_nn::models;
use lts_nn::network::Network;
use lts_nn::param::Param;
use lts_nn::prune::{prune_groups, zero_group_count, PruneCriterion};
use lts_nn::regularizer::{GroupLasso, StrengthMask};
use lts_tensor::{init, Shape, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn even_blocks_partition_any_range(n in 0usize..200, cores in 1usize..17) {
        let blocks = even_blocks(n, cores);
        prop_assert_eq!(blocks.len(), cores);
        let mut expected_start = 0;
        for b in &blocks {
            prop_assert_eq!(b.start, expected_start);
            expected_start = b.end;
        }
        prop_assert_eq!(expected_start, n);
        // Sizes differ by at most one.
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn groups_partition_weights_for_any_geometry(
        out_u in 1usize..20, in_u in 1usize..20, taps in 1usize..10, cores in 1usize..9
    ) {
        let layout = GroupLayout::new(out_u, in_u, taps, cores);
        let mut seen = vec![0u32; layout.weight_len()];
        for p in 0..cores {
            for c in 0..cores {
                layout.visit_group(p, c, |idx| seen[idx] += 1);
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn group_lasso_penalty_is_absolutely_homogeneous(
        scale in 0.1f32..4.0,
        w in proptest::collection::vec(-2.0f32..2.0, 36)
    ) {
        // ||k·w|| = |k|·||w|| for every group, so the penalty scales linearly.
        let layout = GroupLayout::new(6, 6, 1, 3);
        let gl = GroupLasso::new("l", layout, 0.3, StrengthMask::uniform(3)).unwrap();
        let scaled: Vec<f32> = w.iter().map(|&x| x * scale).collect();
        let p1 = gl.penalty(&w);
        let p2 = gl.penalty(&scaled);
        prop_assert!((p2 - scale * p1).abs() < 1e-3 * (1.0 + p2.abs()));
    }

    #[test]
    fn pruning_more_aggressively_zeroes_more_groups(
        w in proptest::collection::vec(-1.0f32..1.0, 64),
        f1 in 0.0f32..0.5, extra in 0.0f32..0.5
    ) {
        let layout = GroupLayout::new(8, 8, 1, 4);
        let f2 = (f1 + extra).min(1.0);
        let mut p1 = Param::new(Tensor::from_vec(Shape::d1(64), w.clone()).unwrap());
        let mut p2 = Param::new(Tensor::from_vec(Shape::d1(64), w).unwrap());
        prune_groups(&mut p1, &layout, PruneCriterion::SmallestFraction(f1)).unwrap();
        prune_groups(&mut p2, &layout, PruneCriterion::SmallestFraction(f2)).unwrap();
        let z1 = zero_group_count(&layout, p1.value.as_slice());
        let z2 = zero_group_count(&layout, p2.value.as_slice());
        prop_assert!(z2 >= z1, "fraction {f2} pruned {z2} < fraction {f1} pruned {z1}");
    }

    #[test]
    fn softmax_loss_is_nonnegative_and_grad_rows_sum_to_zero(
        logits in proptest::collection::vec(-5.0f32..5.0, 12),
        labels in proptest::collection::vec(0usize..4, 3)
    ) {
        let t = Tensor::from_vec(Shape::d2(3, 4), logits).unwrap();
        let out = softmax_cross_entropy(&t, &labels).unwrap();
        prop_assert!(out.loss >= 0.0);
        for b in 0..3 {
            let s: f32 = out.grad.as_slice()[b * 4..(b + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn grouped_conv_output_channels_ignore_other_groups(seed in 0u64..50) {
        // Changing group 1's input channels must not change group 0's outputs.
        let mut rng = init::rng(seed);
        let conv = Conv2d::new("g", (4, 5, 5), 4, 3, 1, 1, 2, &mut rng).unwrap();
        let base = init::uniform(Shape::d4(1, 4, 5, 5), 1.0, &mut rng);
        let y1 = conv.forward(&base).unwrap();
        let mut perturbed = base.clone();
        // Channels 2..4 belong to group 1.
        for ch in 2..4 {
            for h in 0..5 {
                for w in 0..5 {
                    *perturbed.at_mut(&[0, ch, h, w]) += 1.0;
                }
            }
        }
        let y2 = conv.forward(&perturbed).unwrap();
        // Output channels 0..2 (group 0) must be identical.
        for oc in 0..2 {
            for h in 0..5 {
                for w in 0..5 {
                    prop_assert_eq!(y1.at(&[0, oc, h, w]), y2.at(&[0, oc, h, w]));
                }
            }
        }
        // And group 1's outputs must differ somewhere (sanity).
        let mut differs = false;
        for oc in 2..4 {
            for h in 0..5 {
                for w in 0..5 {
                    if y1.at(&[0, oc, h, w]) != y2.at(&[0, oc, h, w]) {
                        differs = true;
                    }
                }
            }
        }
        prop_assert!(differs);
    }

    #[test]
    fn frozen_weights_never_resurrect(
        freeze in proptest::collection::vec(0usize..16, 1..8),
        steps in 1usize..6
    ) {
        let mut p = Param::new(Tensor::ones(Shape::d1(16)));
        p.freeze_indices(&freeze);
        let opt = lts_nn::optim::Sgd::new(0.3, 0.9, 0.01).unwrap();
        for _ in 0..steps {
            p.grad.fill(-5.0); // gradient pushing weights up
            opt.step(&mut [&mut p]);
        }
        for &i in &freeze {
            prop_assert_eq!(p.value.as_slice()[i], 0.0);
        }
    }
}

/// Model `index` of the zoo (modulo its size), with weights from `seed`.
fn zoo(index: usize, seed: u64) -> Network {
    let net = match index % 5 {
        0 => models::mlp(64, 10, seed),
        1 => models::lenet(10, seed),
        2 => models::convnet(10, seed),
        3 => models::convnet_variant([8, 16, 32], 4, seed),
        _ => models::caffenet_small(10, seed),
    };
    net.unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn training_forward_matches_evaluation_forward_bit_for_bit(
        model in 0usize..5, seed in 0u64..1000, batch in 1usize..3
    ) {
        let net = zoo(model, seed);
        let (c, h, w) = net.input_dims();
        let x = init::uniform(Shape::d4(batch, c, h, w), 1.0, &mut init::rng(seed ^ 0x5eed));
        let eval = net.forward(&x).unwrap();
        let (train, _tape) = net.forward_train(x).unwrap();
        prop_assert_eq!(eval.shape(), train.shape());
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&eval), bits(&train), "{}", net.name());
    }
}

/// A random layout: an even split of `sizes`' totals over `cores`, or the
/// explicit (possibly empty) blocks of those sizes.
fn random_layout(even: bool, cores: usize, taps: usize, sizes: &[(usize, usize)]) -> GroupLayout {
    let sizes = &sizes[..cores];
    if even {
        let (out, inp) = sizes.iter().fold((0, 0), |(o, i), &(so, si)| (o + so, i + si));
        return GroupLayout::new(out, inp, taps, cores);
    }
    let blocks = |size: fn(&(usize, usize)) -> usize| {
        let mut start = 0;
        let mut blocks = Vec::new();
        for s in sizes {
            blocks.push(start..start + size(s));
            start += size(s);
        }
        blocks
    };
    GroupLayout::with_blocks(taps, blocks(|s| s.0), blocks(|s| s.1))
}

/// The flat indices of group `(p, c)` in the order of the per-`(o, i, t)`
/// loop every group walk must reproduce.
fn oracle_indices(l: &GroupLayout, p: usize, c: usize) -> Vec<usize> {
    let mut indices = Vec::new();
    for o in l.out_block(c) {
        for i in l.in_block(p) {
            for t in 0..l.taps() {
                indices.push((o * l.in_units() + i) * l.taps() + t);
            }
        }
    }
    indices
}

/// The per-index group norm: squares added in f64 in oracle order.
fn oracle_norm(l: &GroupLayout, p: usize, c: usize, w: &[f32]) -> f32 {
    let mut ss = 0.0f64;
    for idx in oracle_indices(l, p, c) {
        let x = w[idx] as f64;
        ss += x * x;
    }
    ss.sqrt() as f32
}

/// Weights drawn from a palette of ±0.0, subnormals and normal values by
/// a hash of `seed`, with every group whose bit is set in `zero_groups`
/// all zero.
fn oracle_weights(l: &GroupLayout, seed: u64, zero_groups: u64) -> Vec<f32> {
    // Full-width mantissas at magnitudes far apart, beside ±0.0 and
    // subnormals, so sums of squares round.
    const PALETTE: [f32; 16] = [
        0.0,
        -0.0,
        1e-40,
        -3e-42,
        0.1,
        -1000.3,
        3.333_333_3,
        -7e-5,
        1.000_000_1,
        0.75,
        -1.5,
        123.456,
        -9.765_625e-4,
        1e-20,
        65504.0,
        -0.3,
    ];
    let hash = |i: usize| (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60;
    let mut w: Vec<f32> = (0..l.weight_len()).map(|i| PALETTE[hash(i) as usize]).collect();
    for p in 0..l.cores() {
        for c in 0..l.cores() {
            if zero_groups >> ((p * l.cores() + c) % 64) & 1 == 1 {
                for idx in oracle_indices(l, p, c) {
                    w[idx] = if idx % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
    }
    w
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_walks_match_the_per_index_loop(
        shape in (0u8..2, 1usize..6, 1usize..26),
        sizes in proptest::collection::vec((0usize..5, 0usize..5), 5),
        weights in (0u64..u64::MAX, 0u64..u64::MAX),
        lasso in (0usize..3, 0usize..3, 0u64..u64::MAX)
    ) {
        let (even, cores, taps) = (shape.0 == 1, shape.1, shape.2);
        let l = random_layout(even, cores, taps, &sizes);
        let w = oracle_weights(&l, weights.0, weights.1);
        let groups = || (0..cores).flat_map(|p| (0..cores).map(move |c| (p, c)));

        // Visit order: segments, visit_group and the row-major walk.
        let mut tiled = Vec::new();
        for (p, c, s) in l.row_segments() {
            prop_assert!(s.start <= s.end);
            tiled.extend(s.clone().map(|idx| (idx, p, c)));
        }
        prop_assert_eq!(tiled.iter().map(|t| t.0).collect::<Vec<_>>(), (0..l.weight_len()).collect::<Vec<_>>());
        for (p, c) in groups() {
            let oracle = oracle_indices(&l, p, c);
            let segments: Vec<usize> = l.segments(p, c).flatten().collect();
            let mut visited = Vec::new();
            l.visit_group(p, c, |idx| visited.push(idx));
            let walked: Vec<usize> =
                tiled.iter().filter(|t| (t.1, t.2) == (p, c)).map(|t| t.0).collect();
            prop_assert_eq!(&segments, &oracle);
            prop_assert_eq!(&visited, &oracle);
            prop_assert_eq!(&walked, &oracle);
        }

        // Norms and zero groups, bit for bit.
        let norms = l.norm_matrix(&w);
        let mut zero = 0;
        for (p, c) in groups() {
            let oracle = oracle_norm(&l, p, c, &w);
            prop_assert_eq!(l.group_norm(p, c, &w).to_bits(), oracle.to_bits());
            prop_assert_eq!(norms[p * cores + c].to_bits(), oracle.to_bits());
            let is_zero = oracle_indices(&l, p, c).iter().all(|&i| w[i] == 0.0);
            prop_assert_eq!(l.group_is_zero(p, c, &w), is_zero);
            zero += usize::from(l.group_len(p, c) > 0 && is_zero);
        }
        prop_assert_eq!(zero_group_count(&l, &w), zero);

        // The group-Lasso step against the per-index form of Eq. (1)-(3).
        const NORM_EPS: f32 = 1e-8;
        let lambda = [0.0, 0.3, 1.7][lasso.0];
        let step = [0.01, 0.5, 2.0][lasso.1];
        let factors: Vec<f32> =
            (0..cores * cores).map(|g| [0.0, 0.5, 1.0, 3.5][(lasso.2 >> (2 * (g % 32))) as usize & 3]).collect();
        let mask = StrengthMask::from_factors(cores, factors.clone()).unwrap();
        let gl = GroupLasso::new("l", l.clone(), lambda, mask).unwrap();
        let mut total = 0.0f64;
        let (mut shrunk, mut grad) = (w.clone(), vec![0.25f32; w.len()]);
        for (p, c) in groups() {
            let (f, norm) = (factors[p * cores + c], oracle_norm(&l, p, c, &w));
            if f > 0.0 {
                total += (f * norm) as f64;
            }
            if f == 0.0 {
                continue;
            }
            let threshold = step * lambda * f;
            let s = if norm <= threshold + NORM_EPS { 0.0 } else { 1.0 - threshold / norm };
            let g = if norm > NORM_EPS { lambda * f / norm } else { 0.0 };
            for idx in oracle_indices(&l, p, c) {
                if s != 1.0 {
                    shrunk[idx] *= s;
                }
                if g != 0.0 {
                    grad[idx] += g * w[idx];
                }
            }
        }
        prop_assert_eq!(gl.penalty(&w).to_bits(), (lambda * total as f32).to_bits());
        let n = w.len();
        let mut param = Param::new(Tensor::from_vec(Shape::d1(n), w.clone()).unwrap());
        gl.proximal_shrink(&mut param, step);
        prop_assert_eq!(bits(param.value.as_slice()), bits(&shrunk));
        let mut param = Param::new(Tensor::from_vec(Shape::d1(n), w).unwrap());
        param.grad.fill(0.25);
        gl.accumulate_grad(&mut param);
        prop_assert_eq!(bits(param.grad.as_slice()), bits(&grad));
    }
}
