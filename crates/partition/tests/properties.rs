//! Property-based tests for ownership, masks, traffic generation and
//! fail-operational degradation.

use lts_nn::descriptor::SpecBuilder;
use lts_nn::grouping::GroupLayout;
use lts_noc::{McmTopology, Mesh2d};
use lts_partition::ownership::OwnershipMap;
use lts_partition::traffic::{
    dense_volume_bytes, needed_input_units, transition_messages, transition_messages_mapped,
};
use lts_partition::{hop_power_mask, FailureDomain, McmPlan, Plan};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ownership_covers_every_unit_exactly_once(
        units in 1usize..100, vpu in 1usize..16, cores in 1usize..17
    ) {
        let o = OwnershipMap::even(units, vpu, cores);
        prop_assert_eq!(o.units(), units);
        for u in 0..units {
            let owner = o.owner_of(u);
            prop_assert!(o.block(owner).contains(&u));
        }
        let total: usize = (0..cores).map(|c| o.block(c).len()).sum();
        prop_assert_eq!(total, units);
    }

    #[test]
    fn flattening_preserves_ownership_boundaries(
        units in 1usize..40, vpu in 1usize..12, cores in 1usize..9
    ) {
        let o = OwnershipMap::even(units, vpu, cores);
        let f = o.flattened();
        prop_assert_eq!(f.units(), units * vpu);
        // Every flat value belongs to the owner of its source unit.
        for u in 0..units {
            let owner = o.owner_of(u);
            for v in 0..vpu {
                prop_assert_eq!(f.owner_of(u * vpu + v), owner);
            }
        }
    }

    #[test]
    fn hop_masks_are_symmetric_and_zero_diagonal(
        w in 1usize..6, h in 1usize..6, power in 0.0f32..3.0
    ) {
        let mesh = Mesh2d::new(w, h);
        let mask = hop_power_mask(&mesh, power, true).unwrap();
        let n = mesh.nodes();
        for p in 0..n {
            prop_assert_eq!(mask.factor(p, p), 0.0);
            for c in 0..n {
                prop_assert_eq!(mask.factor(p, c), mask.factor(c, p));
                prop_assert!(mask.factor(p, c) >= 0.0);
            }
        }
    }

    #[test]
    fn sparse_traffic_is_monotone_in_the_weight_support(
        cores in 2usize..6, seed in 0u64..1000
    ) {
        // Adding nonzero weights can only add traffic, never remove it.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out_c = 8;
        let in_c = 8;
        let spec = SpecBuilder::new("n", (in_c, 4, 4))
            .conv("c", out_c, 3, 1, 1, 1)
            .build()
            .layers[0]
            .clone();
        let producer = OwnershipMap::even(in_c, 16, cores);
        let consumers = lts_nn::grouping::even_blocks(out_c, cores);
        let layout = GroupLayout::with_blocks(
            9,
            consumers.clone(),
            producer.blocks().to_vec(),
        );
        let mut w1 = vec![0.0f32; layout.weight_len()];
        for v in w1.iter_mut() {
            if rng.gen::<f32>() < 0.1 {
                *v = 1.0;
            }
        }
        // w2 = w1 plus extra support.
        let mut w2 = w1.clone();
        for v in w2.iter_mut() {
            if rng.gen::<f32>() < 0.1 {
                *v = 1.0;
            }
        }
        let t1 = transition_messages(&producer, &spec, &consumers, Some((&layout, &w1)), 2, 0);
        let t2 = transition_messages(&producer, &spec, &consumers, Some((&layout, &w2)), 2, 0);
        prop_assert!(t2.total_bytes() >= t1.total_bytes());
        // And both are bounded by the dense broadcast volume.
        prop_assert!(t2.total_bytes() <= dense_volume_bytes(&spec, cores, 2));
    }

    #[test]
    fn sparse_transition_matches_a_naive_per_unit_scan(
        conv in 0u8..2,
        in_sizes in proptest::collection::vec(0usize..5, 1..6),
        out_seed in 0u64..1000,
        seed in 0u64..1000,
        chips in (0usize..4, 0usize..4),
    ) {
        // Uneven (possibly empty) blocks on both axes, block-sparse
        // weights, and logical cores placed on two chiplets of a 2×2
        // package of 3×2 meshes, as pipeline stages are.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cores = in_sizes.len();
        let mut out_rng = rand::rngs::StdRng::seed_from_u64(out_seed);
        let out_sizes: Vec<usize> = (0..cores).map(|_| out_rng.gen_range(0..5)).collect();
        // The first block of each axis is never empty, so neither axis is.
        let blocks = |sizes: &[usize]| {
            let mut start = 0;
            sizes
                .iter()
                .enumerate()
                .map(|(c, &n)| {
                    let end = start + n + usize::from(c == 0);
                    let block = start..end;
                    start = end;
                    block
                })
                .collect::<Vec<_>>()
        };
        let (in_blocks, out_blocks) = (blocks(&in_sizes), blocks(&out_sizes));
        let (in_units, out_units) = (in_blocks[cores - 1].end, out_blocks[cores - 1].end);
        let (spec, taps, vpu) = if conv == 1 {
            let spec = SpecBuilder::new("n", (in_units, 4, 4)).conv("c", out_units, 3, 1, 1, 1);
            (spec.build().layers[0].clone(), 9, 16)
        } else {
            let spec = SpecBuilder::new("n", (in_units, 1, 1)).linear("ip", out_units);
            (spec.build().layers[0].clone(), 1, 1)
        };
        let layout = GroupLayout::with_blocks(taps, out_blocks.clone(), in_blocks.clone());
        let mut weights = vec![0.0f32; layout.weight_len()];
        for in_block in &in_blocks {
            for out_block in &out_blocks {
                if rng.gen::<f32>() < 0.5 {
                    continue; // this (producer, consumer) block stays zero
                }
                for o in out_block.clone() {
                    for i in in_block.clone() {
                        for t in 0..taps {
                            if rng.gen::<f32>() < 0.3 {
                                weights[(o * in_units + i) * taps + t] = 1.0;
                            }
                        }
                    }
                }
            }
        }
        let used = |i: usize, block: &std::ops::Range<usize>| {
            block.clone().any(|o| (0..taps).any(|t| weights[(o * in_units + i) * taps + t] != 0.0))
        };
        for block in &out_blocks {
            let mask = needed_input_units(&layout, &weights, block);
            let naive: Vec<bool> = (0..in_units).map(|i| used(i, block)).collect();
            prop_assert_eq!(mask, naive);
        }
        let topo = McmTopology::new(3, 2, 2, 2);
        let (src_chip, dst_chip) = chips;
        let producer = OwnershipMap::from_blocks(in_blocks.clone(), vpu);
        let trace = transition_messages_mapped(
            &producer,
            &spec,
            &out_blocks,
            Some((&layout, &weights)),
            2,
            7,
            |p| topo.chiplet_node(src_chip, p),
            |c| topo.chiplet_node(dst_chip, c),
        );
        let mut naive = Vec::new();
        for (p, in_block) in in_blocks.iter().enumerate() {
            for (c, out_block) in out_blocks.iter().enumerate() {
                let (src, dst) = (topo.chiplet_node(src_chip, p), topo.chiplet_node(dst_chip, c));
                if src == dst || out_block.is_empty() {
                    continue;
                }
                let units = in_block.clone().filter(|&i| used(i, out_block)).count() as u64;
                if units > 0 {
                    naive.push((src, dst, units * vpu as u64 * 2, 7));
                }
            }
        }
        let got: Vec<_> =
            trace.messages.iter().map(|m| (m.src, m.dst, m.bytes, m.inject_cycle)).collect();
        prop_assert_eq!(got, naive);
    }

    #[test]
    fn plan_traffic_equals_sum_of_message_bytes(cores in 1usize..33) {
        let spec = lts_nn::descriptor::lenet_spec();
        let plan = Plan::dense(&spec, cores, 2).unwrap();
        let by_layer: u64 = plan.layers.iter().map(|l| l.traffic.total_bytes()).sum();
        prop_assert_eq!(by_layer, plan.total_traffic_bytes());
        // Every message endpoint is a valid core and never a self-send.
        for lp in &plan.layers {
            for m in &lp.traffic.messages {
                prop_assert!(m.src < cores && m.dst < cores && m.src != m.dst);
            }
        }
    }

    #[test]
    fn zeroing_one_layer_removes_exactly_its_transition(cores in 2usize..17) {
        let spec = lts_nn::descriptor::mlp_spec();
        let dense = Plan::dense(&spec, cores, 2).unwrap();
        let layout = dense.layer("ip2").unwrap().layout.clone().unwrap();
        let mut weights = HashMap::new();
        weights.insert("ip2".to_string(), vec![0.0f32; layout.weight_len()]);
        let sparse = Plan::build(&spec, cores, &weights, 2).unwrap();
        let expected = dense.total_traffic_bytes()
            - dense.layer("ip2").unwrap().traffic.total_bytes();
        prop_assert_eq!(sparse.total_traffic_bytes(), expected);
    }

    #[test]
    fn degraded_lost_fraction_is_a_valid_fraction(
        group_pow in 1u32..5, seed in 0u64..1_000, deaths in 1usize..8
    ) {
        // Grouped plans lose pinned chains; the loss proxy stays in [0, 1].
        let spec = grouped_spec(1 << group_pow);
        let dead = pseudo_dead(seed, deaths);
        let d = replan(&spec, &dead, &HashMap::new());
        let f = d.lost_output_fraction();
        prop_assert!((0.0..=1.0).contains(&f), "lost fraction {f} for dead {dead:?}");
        for lg in &d.lost_groups {
            prop_assert!((0.0..=1.0).contains(&lg.lost_fraction()));
            prop_assert!(lg.lost_channels <= lg.out_channels);
            prop_assert!(lg.lost.len() <= lg.groups);
        }
    }

    #[test]
    fn grouped_loss_is_monotone_in_the_dead_set(
        group_pow in 1u32..5, seed in 0u64..1_000, deaths in 1usize..7, extra in 0usize..16
    ) {
        // Killing one more core can only lose more (or the same) output.
        let spec = grouped_spec(1 << group_pow);
        let dead = pseudo_dead(seed, deaths);
        if dead.contains(&extra) || dead.len() + 1 >= 16 {
            return;
        }
        let mut more = dead.clone();
        more.push(extra);
        let base = replan(&spec, &dead, &HashMap::new());
        let worse = replan(&spec, &more, &HashMap::new());
        prop_assert!(worse.lost_output_fraction() >= base.lost_output_fraction());
        let channels = |d: &lts_partition::Replan| -> usize {
            d.lost_groups.iter().map(|lg| lg.lost_channels).sum()
        };
        prop_assert!(channels(&worse) >= channels(&base));
    }

    #[test]
    fn dense_and_sparsified_plans_never_lose_output(
        seed in 0u64..1_000, deaths in 1usize..8
    ) {
        // Ungrouped weights are re-loadable: degradation costs latency,
        // not accuracy — the lost fraction is exactly zero.
        let spec = lts_nn::descriptor::lenet_spec();
        let dead = pseudo_dead(seed, deaths);
        let dense = replan(&spec, &dead, &HashMap::new());
        prop_assert_eq!(dense.lost_output_fraction(), 0.0);
        prop_assert!(dense.lost_groups.is_empty());
        let layout = dense.tail.layer("conv2").unwrap().layout.clone().unwrap();
        let mut weights = HashMap::new();
        weights.insert("conv2".to_string(), vec![0.0f32; layout.weight_len()]);
        let sparse = replan(&spec, &dead, &weights);
        prop_assert_eq!(sparse.lost_output_fraction(), 0.0);
        prop_assert!(sparse.lost_groups.is_empty());
    }

    #[test]
    fn incremental_replans_stay_on_survivors_with_bounded_resync(
        fault_layer in 0usize..8, seed in 0u64..1_000, deaths in 1usize..6
    ) {
        let spec = lts_nn::descriptor::lenet_spec();
        let fault_layer = fault_layer.min(spec.layers.len());
        let dead = pseudo_dead(seed, deaths);
        let inc = FailureDomain::Cores(16)
            .replan(&spec, None, fault_layer, &dead, &HashMap::new(), 2)
            .unwrap();
        prop_assert_eq!(inc.survivors.len() + dead.len(), 16);
        prop_assert!(inc.lost_boundary_units <= inc.boundary_units);
        let f = inc.lost_boundary_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
        for m in &inc.redistribution.messages {
            prop_assert!(!dead.contains(&m.src) && !dead.contains(&m.dst));
            prop_assert!(m.src != m.dst && m.src < 16 && m.dst < 16);
        }
    }
}

/// A static replan of `spec` on 16 cores without `dead`.
fn replan(
    spec: &lts_nn::descriptor::NetworkSpec,
    dead: &[usize],
    weights: &HashMap<String, Vec<f32>>,
) -> lts_partition::Replan {
    FailureDomain::Cores(16).replan(spec, None, 0, dead, weights, 2).unwrap()
}

/// A deterministic pseudo-random dead set of at most `deaths` distinct
/// cores out of 16, never killing everyone.
fn pseudo_dead(seed: u64, deaths: usize) -> Vec<usize> {
    let mut dead = Vec::new();
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    while dead.len() < deaths.min(15) {
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let c = (x >> 33) as usize % 16;
        if !dead.contains(&c) {
            dead.push(c);
        }
    }
    dead
}

fn grouped_spec(groups: usize) -> lts_nn::descriptor::NetworkSpec {
    SpecBuilder::new("g", (3, 16, 16))
        .conv("conv1", 16, 5, 1, 2, 1)
        .pool("pool1", 2, 2)
        .conv("conv2", 32, 3, 1, 1, groups)
        .pool("pool2", 2, 2)
        .flatten()
        .linear("ip1", 10)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn replanning_without_no_chiplets_is_bit_identical_to_the_plan(
        chip_w in 2usize..5,
        chip_h in 1usize..3,
        grid_w in 1usize..4,
        grid_h in 1usize..3,
        groups in 1usize..3,
    ) {
        // A package replan with an empty fault set must be the original
        // MCM plan, bit for bit, on any package shape — the degraded path
        // IS the healthy path at zero faults.
        let spec = grouped_spec(if groups == 1 { 1 } else { 16 });
        let topo = McmTopology::new(chip_w, chip_h, grid_w, grid_h);
        let original = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        let replanned = FailureDomain::Chiplets(topo)
            .replan(&spec, None, 0, &[], &HashMap::new(), 2)
            .unwrap();
        prop_assert_eq!((original.plan, original.stages), (replanned.tail, replanned.stages));
    }
}
