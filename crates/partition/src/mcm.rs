//! Multi-chip-module plans: pipeline stages on chiplets, channel groups
//! within a chiplet.
//!
//! A single-chip plan ([`Plan::build`]) spreads every layer's output
//! channels across all cores. On a multi-chip package that would put every
//! layer transition on the interposer, so the MCM plan uses the two-level
//! split the paper's scaling argument implies:
//!
//! * **between chiplets**: the network is cut into contiguous *pipeline
//!   stages*, one per chiplet, balanced by MAC count (a DP over prefix
//!   sums). Stages follow the serpentine chiplet order, so consecutive
//!   stages sit on grid-adjacent chiplets and cross exactly one interposer
//!   seam;
//! * **within a chiplet**: each stage's layers are partitioned over that
//!   chiplet's cores exactly like a single-chip plan (channel groups,
//!   ownership propagation, sparsity-aware transitions).
//!
//! With one chiplet the stage partition is the whole network, every map is
//! the identity and [`McmPlan::build`] reproduces [`Plan::build`]
//! bit-exactly — the single-chip plan IS the 1-chiplet special case.

use crate::ownership::OwnershipMap;
use crate::plan::{assignment_counts, consumer_blocks, LayerPlan, Plan, PlanError};
use crate::traffic::transition_messages_mapped;
use lts_nn::descriptor::NetworkSpec;
use lts_noc::traffic::TrafficTrace;
use lts_noc::{McmTopology, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

/// One pipeline stage placed on one chiplet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagePlacement {
    /// The chiplet executing this stage.
    pub chiplet: usize,
    /// First layer index (into the network spec) of the stage.
    pub layer_start: usize,
    /// One past the last layer index of the stage.
    pub layer_end: usize,
    /// Total MACs of the stage's layers (the balance measure).
    pub macs: u64,
}

impl StagePlacement {
    /// The stage's layer index range.
    pub fn layers(&self) -> Range<usize> {
        self.layer_start..self.layer_end
    }
}

/// A network placed on a multi-chip package: a global [`Plan`] whose node
/// ids span the whole package, plus the stage→chiplet placement that
/// produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McmPlan {
    /// The global plan. `plan.cores` is the package's total node count;
    /// `assignments` are indexed by global node id, and `traffic` message
    /// endpoints are global node ids (interposer crossings appear at
    /// stage boundaries). `layout` stays in stage-local core coordinates —
    /// it parameterizes training, which happens per stage.
    pub plan: Plan,
    /// Stage placements, in execution order.
    pub stages: Vec<StagePlacement>,
    /// Cores per chiplet (each stage's intra-chip parallel width).
    pub cores_per_chiplet: usize,
}

impl McmPlan {
    /// Builds the MCM plan for `spec` on `topo`.
    ///
    /// `weights` follows [`Plan::build`]: layers present in the map use
    /// sparsity-aware transition traffic (block layouts are stage-local).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::BadConfig`] for an empty network or zero
    /// `bytes_per_value`, and [`PlanError::WeightsMismatch`] if a provided
    /// weight tensor has the wrong length.
    pub fn build(
        spec: &NetworkSpec,
        topo: &McmTopology,
        weights: &HashMap<String, Vec<f32>>,
        bytes_per_value: usize,
    ) -> Result<McmPlan, PlanError> {
        let _probe = lts_obs::span("partition.mcm_plan_build");
        Self::build_on_order(
            spec,
            topo,
            weights,
            bytes_per_value,
            &topo.serpentine_chiplets(),
            None,
        )
    }

    /// The shared stage builder: lays `spec` out as pipeline stages over
    /// the given chiplet `order` ([`McmPlan::build`] and every package
    /// [`crate::FailureDomain::replan`] are this with different orders).
    /// `seed` preseeds the boundary ownership for tail plans whose input
    /// feature map already lives sharded on `order[0]`.
    pub(crate) fn build_on_order(
        spec: &NetworkSpec,
        topo: &McmTopology,
        weights: &HashMap<String, Vec<f32>>,
        bytes_per_value: usize,
        order: &[usize],
        seed: Option<OwnershipMap>,
    ) -> Result<McmPlan, PlanError> {
        if spec.layers.is_empty() {
            return Err(PlanError::BadConfig("network has no layers".into()));
        }
        if bytes_per_value == 0 {
            return Err(PlanError::BadConfig("bytes_per_value must be positive".into()));
        }
        let per_chip = topo.nodes_per_chiplet();
        let total = Topology::nodes(topo);
        let costs: Vec<u64> = spec.layers.iter().map(|l| l.macs()).collect();
        let ranges = partition_stages(spec, &costs, order.len())?;

        let mut ownership: Option<OwnershipMap> = seed;
        // The chiplet holding the previous layer's outputs (sources of the
        // next transition). The first layer reads the replicated input.
        let mut prev_chip = order[0];
        let mut layers = Vec::with_capacity(spec.layers.len());
        let mut stages = Vec::with_capacity(ranges.len());
        for (s, range) in ranges.iter().enumerate() {
            let chip = order[s];
            let mut macs = 0u64;
            for li in range.clone() {
                let layer = &spec.layers[li];
                macs += layer.macs();
                let layout = Plan::layout_for(layer, ownership.as_ref(), per_chip);
                if let (Some(l), Some(w)) = (&layout, weights.get(&layer.name)) {
                    if l.weight_len() != w.len() {
                        return Err(PlanError::WeightsMismatch {
                            layer: layer.name.clone(),
                            expected: l.weight_len(),
                            actual: w.len(),
                        });
                    }
                }
                let consumers = consumer_blocks(layer, per_chip);
                let traffic = match (&ownership, layer.has_weights()) {
                    (Some(producer), true) => {
                        let sparse = match (&layout, weights.get(&layer.name)) {
                            (Some(l), Some(w)) => Some((l, w.as_slice())),
                            _ => None,
                        };
                        transition_messages_mapped(
                            producer,
                            layer,
                            &consumers,
                            sparse,
                            bytes_per_value,
                            0,
                            |p| topo.chiplet_node(prev_chip, p),
                            |c| topo.chiplet_node(chip, c),
                        )
                    }
                    _ => TrafficTrace::new(),
                };
                let local = assignment_counts(layer, ownership.as_ref(), per_chip);
                let mut assignments = vec![0usize; total];
                for (i, &a) in local.iter().enumerate() {
                    assignments[topo.chiplet_node(chip, i)] = a;
                }
                ownership = crate::ownership::propagate(layer, ownership.as_ref(), per_chip);
                prev_chip = chip;
                layers.push(LayerPlan { spec: layer.clone(), assignments, layout, traffic });
            }
            stages.push(StagePlacement {
                chiplet: chip,
                layer_start: range.start,
                layer_end: range.end,
                macs,
            });
        }
        Ok(McmPlan { plan: Plan { cores: total, layers }, stages, cores_per_chiplet: per_chip })
    }

    /// The chiplet executing layer `li` (`None` past the network's end).
    pub fn chiplet_of_layer(&self, li: usize) -> Option<usize> {
        self.stages.iter().find(|s| s.layers().contains(&li)).map(|s| s.chiplet)
    }

    /// Per-stage MAC totals, in execution order.
    pub fn stage_macs(&self) -> Vec<u64> {
        self.stages.iter().map(|s| s.macs).collect()
    }
}

/// Fraction of a stage's `width` cores that hold work in each layer
/// group of `plan` — the pipeline-stage occupancy signal serving reports
/// per strategy. `width` is the plan's core count on a chip and the
/// cores per chiplet on a package, whose stages each own one chiplet.
/// Out-of-range layer indices count as idle.
pub fn group_occupancy(plan: &Plan, groups: &[Range<usize>], width: usize) -> Vec<f64> {
    groups
        .iter()
        .map(|r| {
            let busy = (0..plan.cores)
                .filter(|&c| {
                    r.clone().any(|li| {
                        plan.layers
                            .get(li)
                            .is_some_and(|lp| lp.assignments.get(c).copied().unwrap_or(0) > 0)
                    })
                })
                .count();
            busy as f64 / width.max(1) as f64
        })
        .collect()
}

/// Splits the layers of `spec` into at most `stages` non-empty contiguous
/// ranges minimizing the maximum range sum of `costs` (one entry per
/// layer) — the classic linear-partition DP. A stage may start only at
/// the first layer or right before a weighted layer, where the plan
/// already synchronizes: cutting before a pool/activation/flatten layer
/// would move the feature maps between stages without any transition
/// traffic to account for it. Returns fewer ranges when there are fewer
/// such cuts than stages. Ties break toward earlier cuts, so the result
/// is deterministic.
///
/// # Errors
///
/// [`PlanError::BadConfig`] if `spec` has no layers or `costs` a
/// different length.
pub fn partition_stages(
    spec: &NetworkSpec,
    costs: &[u64],
    stages: usize,
) -> Result<Vec<Range<usize>>, PlanError> {
    let allowed: Vec<bool> = spec.layers.iter().map(|l| l.has_weights()).collect();
    let n = costs.len();
    if allowed.is_empty() {
        return Err(PlanError::BadConfig("cannot partition a network with no layers".into()));
    }
    if allowed.len() != n {
        return Err(PlanError::BadConfig(format!(
            "{} stage costs for a {}-layer network",
            n,
            allowed.len()
        )));
    }
    let usable_cuts = allowed.iter().skip(1).filter(|&&a| a).count();
    let k = stages.clamp(1, usable_cuts + 1);
    let mut prefix = vec![0u64; n + 1];
    for (i, &c) in costs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    // dp[s][i]: minimal max-stage-cost over the first i layers in s stages.
    let mut dp = vec![vec![u64::MAX; n + 1]; k + 1];
    let mut cut = vec![vec![0usize; n + 1]; k + 1];
    dp[0][0] = 0;
    for s in 1..=k {
        for i in s..=n {
            for j in (s - 1)..i {
                if dp[s - 1][j] == u64::MAX || (j > 0 && !allowed[j]) {
                    continue;
                }
                let cost = dp[s - 1][j].max(prefix[i] - prefix[j]);
                if cost < dp[s][i] {
                    dp[s][i] = cost;
                    cut[s][i] = j;
                }
            }
        }
    }
    // With few permitted cuts the exact k-stage split may be infeasible;
    // fall back to the largest feasible stage count.
    let mut best_k = k;
    while best_k > 1 && dp[best_k][n] == u64::MAX {
        best_k -= 1;
    }
    let mut bounds = vec![n];
    let mut i = n;
    for s in (1..=best_k).rev() {
        i = cut[s][i];
        bounds.push(i);
    }
    bounds.reverse();
    Ok(bounds.windows(2).map(|w| w[0]..w[1]).collect())
}

/// A network cut into contiguous layer stages that run as a pipeline:
/// one request occupies each stage in turn, and a new one may enter every
/// initiation interval. This is the one model of stage-pipelined timing —
/// package stages on chiplets, serving's layer groups on a chip and the
/// inter-layer pipeline the paper argues against (§II-B) all derive their
/// latency, interval and balance here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePipeline {
    /// Layer index ranges of the stages, in execution order.
    pub ranges: Vec<Range<usize>>,
    /// Cycles of each stage (same order as `ranges`).
    pub stage_cycles: Vec<u64>,
}

impl StagePipeline {
    /// The pipeline over the given stage `ranges`, each stage costing the
    /// sum of its layers' `layer_cycles`. Layers past the end of
    /// `layer_cycles` cost nothing, so a degraded plan whose tail is
    /// shorter than the ranges still yields a pipeline.
    pub fn new(ranges: Vec<Range<usize>>, layer_cycles: &[u64]) -> StagePipeline {
        let stage_cycles =
            ranges.iter().map(|r| r.clone().filter_map(|li| layer_cycles.get(li)).sum()).collect();
        StagePipeline { ranges, stage_cycles }
    }

    /// The pipeline that cuts `spec` into at most `stages` stages,
    /// balancing `layer_cycles` with [`partition_stages`].
    ///
    /// # Errors
    ///
    /// As [`partition_stages`].
    pub fn partition(
        spec: &NetworkSpec,
        layer_cycles: &[u64],
        stages: usize,
    ) -> Result<StagePipeline, PlanError> {
        Ok(StagePipeline::new(partition_stages(spec, layer_cycles, stages)?, layer_cycles))
    }

    /// Single-request latency: every stage in sequence, in cycles.
    pub fn latency(&self) -> u64 {
        self.stage_cycles.iter().sum()
    }

    /// Initiation interval: the slowest stage's cycles, at least 1.
    pub fn interval(&self) -> u64 {
        self.stage_cycles.iter().copied().max().unwrap_or(0).max(1)
    }

    /// Load imbalance: the slowest stage over the mean of the non-empty
    /// stages (1.0 = perfectly balanced, 0.0 with no non-empty stage).
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self.stage_cycles.iter().copied().filter(|&c| c > 0).collect();
        if busy.is_empty() {
            return 0.0;
        }
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        self.interval() as f64 / mean
    }

    /// The stage a request is in `offset` cycles after entering the
    /// pipeline; offsets at or past the latency map to the last stage.
    pub fn stage_at(&self, offset: u64) -> usize {
        let mut end = 0u64;
        for (s, &cycles) in self.stage_cycles.iter().enumerate() {
            end += cycles;
            if offset < end {
                return s;
            }
        }
        self.stage_cycles.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureDomain;
    use lts_nn::descriptor::{lenet_spec, SpecBuilder};

    /// `n` fully connected layers: every layer may start a stage.
    fn linear_stack(n: usize) -> NetworkSpec {
        (0..n)
            .fold(SpecBuilder::new("fc", (8, 1, 1)), |b, i| b.linear(&format!("ip{i}"), 8))
            .build()
    }

    #[test]
    fn partition_balances_uniform_costs() {
        let spec = linear_stack(4);
        assert_eq!(partition_stages(&spec, &[4, 4, 4, 4], 2).unwrap(), vec![0..2, 2..4]);
        assert_eq!(
            partition_stages(&spec, &[4, 4, 4, 4], 4).unwrap(),
            vec![0..1, 1..2, 2..3, 3..4]
        );
    }

    #[test]
    fn partition_isolates_the_dominant_layer() {
        // One huge layer: it gets a stage to itself.
        let ranges = partition_stages(&linear_stack(4), &[1, 100, 1, 1], 2).unwrap();
        let sums: Vec<u64> =
            ranges.iter().map(|r| r.clone().map(|i| [1u64, 100, 1, 1][i]).sum()).collect();
        assert!(sums.iter().max().unwrap() <= &102);
        assert_eq!(ranges.iter().map(Range::len).sum::<usize>(), 4);
    }

    #[test]
    fn more_stages_than_layers_caps_at_layers() {
        let ranges = partition_stages(&linear_stack(2), &[5, 5], 8).unwrap();
        assert_eq!(ranges, vec![0..1, 1..2]);
    }

    #[test]
    fn stages_start_only_before_weighted_layers() {
        // Layers 1 and 3 are pools following convs, so they may not start
        // a stage: the only legal 2-way cut is before layer 2.
        let spec = SpecBuilder::new("cp", (3, 8, 8))
            .conv("conv1", 4, 3, 1, 1, 1)
            .pool("pool1", 2, 2)
            .conv("conv2", 4, 3, 1, 1, 1)
            .pool("pool2", 2, 2)
            .build();
        assert_eq!(partition_stages(&spec, &[10, 1, 10, 1], 2).unwrap(), vec![0..2, 2..4]);
        // With no weighted layer after the first, nothing may be cut.
        let spec = SpecBuilder::new("c", (3, 8, 8))
            .conv("conv1", 4, 3, 1, 1, 1)
            .pool("pool1", 2, 2)
            .relu()
            .flatten()
            .build();
        assert_eq!(partition_stages(&spec, &[10, 1, 10, 1], 4).unwrap(), vec![0..4]);
    }

    #[test]
    fn partitioning_an_empty_network_is_a_typed_error() {
        let empty = SpecBuilder::new("empty", (8, 1, 1)).build();
        assert!(matches!(partition_stages(&empty, &[], 2), Err(PlanError::BadConfig(_))));
    }

    #[test]
    fn partitioning_with_a_wrong_cost_count_is_a_typed_error() {
        let spec = linear_stack(3);
        assert!(matches!(partition_stages(&spec, &[1, 2], 2), Err(PlanError::BadConfig(_))));
        assert!(matches!(
            StagePipeline::partition(&spec, &[1, 2, 3, 4], 2),
            Err(PlanError::BadConfig(_))
        ));
    }

    #[test]
    fn stage_pipeline_derives_latency_interval_and_imbalance() {
        let p = StagePipeline::new(vec![0..1, 1..3, 3..4], &[4, 1, 1, 6]);
        assert_eq!(p.stage_cycles, vec![4, 2, 6]);
        assert_eq!(p.latency(), 12);
        assert_eq!(p.interval(), 6);
        assert_eq!(p.imbalance(), 6.0 / 4.0);
        // Empty stages count toward neither the mean nor the interval.
        let sparse = StagePipeline::new(vec![0..2, 2..2], &[3, 3]);
        assert_eq!((sparse.latency(), sparse.interval(), sparse.imbalance()), (6, 6, 1.0));
        // A zero-cycle pipeline still admits one request per cycle.
        let idle = StagePipeline::new(vec![0..1, 1..1], &[0]);
        assert_eq!((idle.latency(), idle.interval(), idle.imbalance()), (0, 1, 0.0));
    }

    #[test]
    fn stage_pipeline_tolerates_ranges_past_the_measured_layers() {
        // A degraded tail measured fewer layers than the ranges name.
        let p = StagePipeline::new(vec![0..2, 2..5], &[2, 3, 4]);
        assert_eq!(p.stage_cycles, vec![5, 4]);
    }

    #[test]
    fn stage_at_walks_the_stages_in_order() {
        let p = StagePipeline::new(vec![0..1, 1..2, 2..3], &[10, 0, 5]);
        assert_eq!(p.stage_at(0), 0);
        assert_eq!(p.stage_at(9), 0);
        assert_eq!(p.stage_at(10), 2, "a zero-cycle stage is never current");
        assert_eq!(p.stage_at(14), 2);
        assert_eq!(p.stage_at(15), 2, "past the latency is the last stage");
        assert_eq!(StagePipeline::new(Vec::new(), &[]).stage_at(3), 0);
    }

    #[test]
    fn partitioned_pipeline_matches_its_ranges() {
        let spec = linear_stack(4);
        let p = StagePipeline::partition(&spec, &[1, 100, 1, 1], 2).unwrap();
        assert_eq!(p.ranges, partition_stages(&spec, &[1, 100, 1, 1], 2).unwrap());
        assert_eq!(p.latency(), 103);
        assert_eq!(p.interval(), *p.stage_cycles.iter().max().unwrap());
    }

    #[test]
    fn one_chiplet_plan_is_the_single_chip_plan() {
        let spec = lenet_spec();
        let topo = McmTopology::new(4, 4, 1, 1);
        let mcm = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        let single = Plan::dense(&spec, 16, 2).unwrap();
        assert_eq!(mcm.plan, single);
        assert_eq!(mcm.stages.len(), 1);
        assert_eq!(mcm.stages[0].chiplet, 0);
    }

    #[test]
    fn stage_boundaries_cross_exactly_one_seam() {
        let spec = lenet_spec();
        // 2x1 grid of 4x2 chiplets.
        let topo = McmTopology::new(4, 2, 2, 1);
        let mcm = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        assert_eq!(mcm.stages.len(), 2);
        // Every layer's traffic either stays on one chiplet or flows
        // between the two stages' (grid-adjacent) chiplets.
        for (li, lp) in mcm.plan.layers.iter().enumerate() {
            let chip = mcm.chiplet_of_layer(li).unwrap();
            for m in &lp.traffic.messages {
                let dst_chip = topo.chiplet_of(m.dst);
                assert_eq!(dst_chip, chip, "layer {li} consumer off its chiplet");
                let src_chip = topo.chiplet_of(m.src);
                assert!(
                    topo.chiplet_distance(
                        topo.chiplet_node(src_chip, 0),
                        topo.chiplet_node(dst_chip, 0)
                    ) <= 1,
                    "stage transition jumps more than one seam"
                );
            }
        }
        // The cross-chip transition exists: some message changes chiplet.
        let crossings: usize = mcm
            .plan
            .layers
            .iter()
            .flat_map(|l| &l.traffic.messages)
            .filter(|m| topo.chiplet_of(m.src) != topo.chiplet_of(m.dst))
            .count();
        assert!(crossings > 0, "pipelined stages must talk over the interposer");
    }

    #[test]
    fn stage_occupancy_is_positive_and_bounded() {
        let spec = lenet_spec();
        let topo = McmTopology::new(4, 2, 2, 1);
        let mcm = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        let ranges: Vec<Range<usize>> = mcm.stages.iter().map(StagePlacement::layers).collect();
        let occ = group_occupancy(&mcm.plan, &ranges, mcm.cores_per_chiplet);
        assert_eq!(occ.len(), mcm.stages.len());
        for (s, &o) in occ.iter().enumerate() {
            assert!(o > 0.0 && o <= 1.0, "stage {s} occupancy {o} out of (0, 1]");
        }
    }

    #[test]
    fn group_occupancy_matches_hand_counted_assignments() {
        let spec = lenet_spec();
        let plan = Plan::dense(&spec, 4, 2).unwrap();
        let groups = vec![0..2, 2..plan.layers.len()];
        let occ = group_occupancy(&plan, &groups, plan.cores);
        assert_eq!(occ.len(), 2);
        for (g, range) in groups.iter().enumerate() {
            let busy = (0..plan.cores)
                .filter(|&c| range.clone().any(|li| plan.layers[li].assignments[c] > 0))
                .count();
            assert_eq!(occ[g], busy as f64 / plan.cores as f64);
            assert!(occ[g] > 0.0);
        }
        // Out-of-range groups read as idle instead of panicking.
        assert_eq!(group_occupancy(&plan, std::slice::from_ref(&(999..1000)), 4), vec![0.0]);
    }

    #[test]
    fn package_replan_without_faults_is_the_original_plan() {
        let spec = lenet_spec();
        let topo = McmTopology::new(4, 2, 2, 1);
        let original = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        let replanned =
            FailureDomain::Chiplets(topo).replan(&spec, None, 0, &[], &HashMap::new(), 2).unwrap();
        assert_eq!((original.plan, original.stages), (replanned.tail, replanned.stages));
    }

    #[test]
    fn package_replan_restages_over_the_survivors() {
        let spec = lenet_spec();
        // 2x2 package grid of 2x2 chiplets, serpentine order 0,1,3,2.
        let topo = McmTopology::new(2, 2, 2, 2);
        let healthy = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        assert_eq!(healthy.stages.len(), 4);
        let domain = FailureDomain::Chiplets(topo);
        let degraded = domain.replan(&spec, None, 0, &[1], &HashMap::new(), 2).unwrap();
        // Fewer, fatter stages over the survivor order 0,3,2.
        assert_eq!(degraded.stages.len(), 3);
        let chips: Vec<usize> = degraded.stages.iter().map(|s| s.chiplet).collect();
        assert_eq!(chips, vec![0, 3, 2]);
        assert_eq!(
            degraded.stages.iter().map(|s| s.layers().len()).sum::<usize>(),
            spec.layers.len(),
            "every layer is still placed"
        );
        // Dead chiplet 1 holds neither assignments nor traffic endpoints.
        for lp in &degraded.tail.layers {
            for &node in &topo.chiplet_nodes(1) {
                assert_eq!(lp.assignments[node], 0);
            }
            for m in &lp.traffic.messages {
                assert_ne!(topo.chiplet_of(m.src), 1);
                assert_ne!(topo.chiplet_of(m.dst), 1);
            }
        }
        // The 0 -> 3 stage transition now crosses two seams — re-priced
        // over the survivor distances rather than silently assumed
        // adjacent.
        let max_seams = degraded
            .tail
            .layers
            .iter()
            .flat_map(|l| &l.traffic.messages)
            .map(|m| topo.chiplet_distance(m.src, m.dst))
            .max()
            .unwrap();
        assert_eq!(max_seams, 2, "survivor transitions are priced over real seam distances");
        // Typed errors for unsurvivable or nonsensical fault sets.
        assert!(domain.replan(&spec, None, 0, &[4], &HashMap::new(), 2).is_err());
        assert!(domain.replan(&spec, None, 0, &[0, 1, 2, 3], &HashMap::new(), 2).is_err());
    }

    #[test]
    fn incremental_replan_resyncs_the_boundary_onto_the_first_survivor_stage() {
        let spec = lenet_spec();
        let topo = McmTopology::new(4, 2, 2, 1);
        let healthy = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        // Kill the chiplet executing the *last* stage, mid-network. The
        // boundary (conv1 output, layer 0) lives on stage 0's chiplet,
        // which survives: its shard resyncs onto the tail's first stage.
        let dead = healthy.stages.last().unwrap().chiplet;
        let domain = FailureDomain::Chiplets(topo);
        let inc = domain.replan(&spec, None, 1, &[dead], &HashMap::new(), 2).unwrap();
        assert_eq!(inc.fault_layer, 1);
        assert_eq!(inc.dead, vec![dead]);
        assert_eq!(inc.survivors.len(), 1);
        assert_eq!(inc.boundary_units, 20);
        assert_eq!(inc.lost_boundary_units, 0, "the producer chiplet survived");
        assert_eq!(inc.tail.layers.len(), spec.layers.len() - 1);
        // Resync endpoints are physical, on survivors, and the source
        // side sits on the old producer chiplet.
        let producer = healthy.chiplet_of_layer(0).unwrap();
        assert_ne!(producer, dead);
        for m in &inc.redistribution.messages {
            assert_eq!(topo.chiplet_of(m.src), producer);
            assert_ne!(topo.chiplet_of(m.dst), dead);
            assert_ne!(m.src, m.dst);
        }
        // Producer == tail's first stage here, so the resync is the
        // intra-chiplet rebalance (possibly empty when layouts agree).
        assert_eq!(inc.redistribution_bytes, inc.redistribution.total_bytes());
    }

    #[test]
    fn incremental_replan_orphans_the_boundary_when_its_producer_dies() {
        let spec = lenet_spec();
        let topo = McmTopology::new(4, 2, 2, 1);
        let healthy = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        let producer = healthy.chiplet_of_layer(0).unwrap();
        let domain = FailureDomain::Chiplets(topo);
        let inc = domain.replan(&spec, None, 1, &[producer], &HashMap::new(), 2).unwrap();
        assert_eq!(inc.lost_boundary_units, inc.boundary_units);
        assert!((inc.lost_boundary_fraction() - 1.0).abs() < 1e-12);
        assert!(inc.redistribution.is_empty(), "nothing survives to resync");
        assert_eq!(inc.tail.layers.len(), spec.layers.len() - 1);
        // Fault before anything ran: no boundary exists at all.
        let healthy_replan = domain.replan(&spec, None, 0, &[], &HashMap::new(), 2).unwrap();
        let fresh = domain
            .replan(&spec, Some(&healthy_replan), 0, &[producer], &HashMap::new(), 2)
            .unwrap();
        assert_eq!(fresh.boundary_units, 0);
        assert!(fresh.redistribution.is_empty());
        assert_eq!(
            fresh,
            domain.replan(&spec, None, 0, &[producer], &HashMap::new(), 2).unwrap(),
            "layer-0 fault degenerates to the static replan"
        );
        // Fault after everything ran: empty tail, orphaned output.
        let n = spec.layers.len();
        let late = domain.replan(&spec, None, n, &[producer], &HashMap::new(), 2).unwrap();
        assert!(late.tail.layers.is_empty());
        assert!(domain.replan(&spec, None, n + 1, &[0], &HashMap::new(), 2).is_err());
    }

    #[test]
    fn assignments_live_only_on_the_owning_chiplet() {
        let spec = lenet_spec();
        let topo = McmTopology::new(4, 2, 2, 1);
        let mcm = McmPlan::build(&spec, &topo, &HashMap::new(), 2).unwrap();
        for (li, lp) in mcm.plan.layers.iter().enumerate() {
            let chip = mcm.chiplet_of_layer(li).unwrap();
            assert_eq!(lp.assignments.len(), Topology::nodes(&topo));
            for (node, &a) in lp.assignments.iter().enumerate() {
                if a > 0 {
                    assert_eq!(topo.chiplet_of(node), chip, "layer {li} node {node}");
                }
            }
            if lp.spec.has_weights() {
                let total: usize = lp.assignments.iter().sum();
                assert_eq!(total, lp.spec.out_dims.0, "layer {}", lp.spec.name);
            }
        }
    }
}
