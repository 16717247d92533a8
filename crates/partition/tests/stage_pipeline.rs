//! Property-based tests for the stage-pipeline model: the linear-partition
//! DP behind `partition_stages` and the latency / interval / imbalance
//! that `StagePipeline` derives from it.

use lts_nn::descriptor::{NetworkSpec, SpecBuilder};
use lts_partition::{partition_stages, StagePipeline};
use proptest::prelude::*;
use std::ops::Range;

/// A fully connected network whose layer `i` is weighted (`linear`) when
/// `weighted[i]` holds and an activation otherwise. Only weighted layers
/// may start a stage.
fn mixed_spec(weighted: &[bool]) -> NetworkSpec {
    weighted
        .iter()
        .enumerate()
        .fold(SpecBuilder::new("mixed", (8, 1, 1)), |b, (i, &w)| {
            if w {
                b.linear(&format!("ip{i}"), 8)
            } else {
                b.relu()
            }
        })
        .build()
}

/// Layer kinds for [`mixed_spec`], about two in three weighted.
fn layer_mix(len: Range<usize>) -> impl Strategy<Value = Vec<bool>> {
    collection::vec(0u8..3, len).prop_map(|v| v.into_iter().map(|x| x > 0).collect())
}

/// The legal stage starts of `weighted` past the first layer.
fn usable_cuts(weighted: &[bool]) -> Vec<usize> {
    (1..weighted.len()).filter(|&j| weighted[j]).collect()
}

fn stage_sums(ranges: &[Range<usize>], costs: &[u64]) -> Vec<u64> {
    ranges.iter().map(|r| costs[r.clone()].iter().sum()).collect()
}

/// The smallest achievable slowest stage over every choice of exactly
/// `stages - 1` legal cuts, by exhaustive search.
fn brute_force_interval(weighted: &[bool], costs: &[u64], stages: usize) -> u64 {
    let cuts = usable_cuts(weighted);
    let mut best = u64::MAX;
    for mask in 0u32..(1 << cuts.len()) {
        if mask.count_ones() as usize != stages - 1 {
            continue;
        }
        let mut bounds = vec![0];
        bounds
            .extend(cuts.iter().enumerate().filter(|(b, _)| (mask >> b) & 1 == 1).map(|(_, &c)| c));
        bounds.push(costs.len());
        let slowest = bounds.windows(2).map(|w| costs[w[0]..w[1]].iter().sum()).max().unwrap();
        best = best.min(slowest);
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stages_tile_the_network_in_order(
        weighted in layer_mix(1..10),
        seed in 0u64..1000,
        stages in 1usize..8,
    ) {
        let costs: Vec<u64> = (0..weighted.len() as u64).map(|i| (seed * 7 + i * 13) % 50).collect();
        let ranges = partition_stages(&mixed_spec(&weighted), &costs, stages).unwrap();
        prop_assert_eq!(ranges.first().unwrap().start, 0);
        prop_assert_eq!(ranges.last().unwrap().end, weighted.len());
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        prop_assert!(ranges.iter().all(|r| !r.is_empty()), "{ranges:?}");
    }

    #[test]
    fn stage_count_is_the_request_capped_by_the_legal_cuts(
        weighted in layer_mix(1..10),
        stages in 0usize..12,
    ) {
        let costs = vec![1u64; weighted.len()];
        let ranges = partition_stages(&mixed_spec(&weighted), &costs, stages).unwrap();
        let expected = stages.clamp(1, usable_cuts(&weighted).len() + 1);
        prop_assert_eq!(ranges.len(), expected);
    }

    #[test]
    fn later_stages_start_at_weighted_layers(
        weighted in layer_mix(2..10),
        seed in 0u64..1000,
        stages in 2usize..8,
    ) {
        let costs: Vec<u64> = (0..weighted.len() as u64).map(|i| (seed + i * 31) % 40).collect();
        let ranges = partition_stages(&mixed_spec(&weighted), &costs, stages).unwrap();
        for r in ranges.iter().skip(1) {
            prop_assert!(weighted[r.start], "stage {r:?} starts at an unweighted layer");
        }
    }

    #[test]
    fn dp_interval_is_the_exhaustive_optimum(
        weighted in layer_mix(1..9),
        seed in 0u64..1000,
        stages in 1usize..6,
    ) {
        let costs: Vec<u64> = (0..weighted.len() as u64).map(|i| (seed * 3 + i * i * 17) % 60).collect();
        let ranges = partition_stages(&mixed_spec(&weighted), &costs, stages).unwrap();
        let dp = *stage_sums(&ranges, &costs).iter().max().unwrap();
        prop_assert_eq!(dp, brute_force_interval(&weighted, &costs, ranges.len()));
    }

    #[test]
    fn more_stages_never_lengthen_the_interval(
        n in 1usize..9,
        seed in 0u64..1000,
        stages in 1usize..8,
    ) {
        let spec = mixed_spec(&vec![true; n]);
        let costs: Vec<u64> = (0..n as u64).map(|i| (seed * 11 + i * 29) % 70).collect();
        let fewer = StagePipeline::partition(&spec, &costs, stages).unwrap();
        let more = StagePipeline::partition(&spec, &costs, stages + 1).unwrap();
        prop_assert!(more.interval() <= fewer.interval(), "{fewer:?} vs {more:?}");
    }

    #[test]
    fn scaling_every_cost_keeps_the_cuts(
        n in 1usize..9,
        seed in 0u64..1000,
        stages in 1usize..6,
        factor in 2u64..9,
    ) {
        let spec = mixed_spec(&vec![true; n]);
        let costs: Vec<u64> = (0..n as u64).map(|i| (seed * 5 + i * 23) % 90).collect();
        let scaled: Vec<u64> = costs.iter().map(|&c| c * factor).collect();
        prop_assert_eq!(
            partition_stages(&spec, &costs, stages).unwrap(),
            partition_stages(&spec, &scaled, stages).unwrap()
        );
    }

    #[test]
    fn latency_is_the_sum_and_interval_bounds_it(
        weighted in layer_mix(1..10),
        seed in 0u64..1000,
        stages in 1usize..8,
    ) {
        let costs: Vec<u64> = (0..weighted.len() as u64).map(|i| (seed * 19 + i * 7) % 45).collect();
        let p = StagePipeline::partition(&mixed_spec(&weighted), &costs, stages).unwrap();
        prop_assert_eq!(p.latency(), costs.iter().sum::<u64>());
        prop_assert_eq!(p.stage_cycles.clone(), stage_sums(&p.ranges, &costs));
        prop_assert!(p.interval() >= costs.iter().copied().max().unwrap().max(1));
        prop_assert!(p.interval() <= p.latency().max(1));
        // The slowest of k stages is at least their mean.
        prop_assert!(p.interval() * p.ranges.len() as u64 >= p.latency());
    }

    #[test]
    fn imbalance_lies_between_one_and_the_busy_stage_count(
        cycles in collection::vec(0u64..100, 1..8),
    ) {
        let ranges: Vec<Range<usize>> = (0..cycles.len()).map(|i| i..i + 1).collect();
        let p = StagePipeline::new(ranges, &cycles);
        let busy = cycles.iter().filter(|&&c| c > 0).count();
        if busy == 0 {
            prop_assert_eq!(p.imbalance(), 0.0);
        } else {
            prop_assert!(p.imbalance() >= 1.0 - 1e-12, "{}", p.imbalance());
            prop_assert!(p.imbalance() <= busy as f64 + 1e-12, "{}", p.imbalance());
        }
    }

    #[test]
    fn stage_at_is_monotone_and_lands_on_a_busy_stage(
        cycles in collection::vec(0u64..20, 1..8),
        a in 0u64..200,
        b in 0u64..200,
    ) {
        let ranges: Vec<Range<usize>> = (0..cycles.len()).map(|i| i..i + 1).collect();
        let p = StagePipeline::new(ranges, &cycles);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(p.stage_at(lo) <= p.stage_at(hi));
        prop_assert!(p.stage_at(hi) < cycles.len());
        if lo < p.latency() {
            let s = p.stage_at(lo);
            prop_assert!(cycles[s] > 0, "offset {lo} sits in empty stage {s}");
            let before: u64 = cycles[..s].iter().sum();
            prop_assert!(before <= lo && lo < before + cycles[s]);
        }
    }

    #[test]
    fn one_stage_is_the_whole_network(
        weighted in layer_mix(1..10),
        seed in 0u64..1000,
    ) {
        let costs: Vec<u64> = (0..weighted.len() as u64).map(|i| (seed + i * 41) % 30).collect();
        let p = StagePipeline::partition(&mixed_spec(&weighted), &costs, 1).unwrap();
        prop_assert_eq!(p.ranges.clone(), vec![0..weighted.len()]);
        prop_assert_eq!(p.interval(), p.latency().max(1));
    }
}
