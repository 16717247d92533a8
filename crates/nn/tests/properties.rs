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
