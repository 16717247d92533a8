//! Failure domains and the one replan over their survivors.
//!
//! A *failure domain* is a set of routers that dies together: one core of
//! a single chip ([`FailureDomain::Cores`]) or one whole chiplet of a
//! multi-chip package ([`FailureDomain::Chiplets`]), which also takes its
//! interposer seam endpoints with it. The domain validates fault ids,
//! expands them to member routers and builds the NoC [`FaultModel`]; its
//! [`FailureDomain::replan`] is the only re-planning routine. A static
//! replan (the dead set known before the run) is its layer-0 case.
//!
//! The paper's layer-barrier schedule makes every layer boundary a free
//! checkpoint, so recovering from a fault at boundary `fault_layer` takes
//! two steps:
//!
//! 1. **Boundary resync.** The output of layer `fault_layer − 1` lives
//!    sharded over the cores of the stage that produced it. Units held by
//!    dead routers are orphaned and reported, not resent; the surviving
//!    units are rebalanced onto the even ownership the tail plan expects.
//!    [`Replan::redistribution`] is exactly that traffic, with physical
//!    endpoints ready to run on the faulty chip.
//! 2. **Tail plan.** Layers `fault_layer..` are planned over the
//!    survivors, seeded with the post-resync ownership. On a chip the tail
//!    spreads over the surviving cores, in logical ids mapped to physical
//!    ones by [`Replan::core_map`]. On a package the tail is re-staged over
//!    the surviving chiplets in serpentine order (fewer, fatter stages,
//!    transitions re-priced over the new seam distances), in physical ids.
//!
//! The recovery semantics differ by strategy, mirroring where each one
//! keeps its weights:
//!
//! * **Traditional / sparsified** layers shard by *even output blocks*
//!   whose weights are re-loadable from memory, so the tail simply
//!   re-partitions every layer. Latency and traffic degrade; accuracy
//!   does not.
//! * **Structure-level grouped** layers pin each channel group — weights
//!   *and* the group-local activation chain — to one core. A dead core
//!   takes its groups' entire output chain with it: those channels cannot
//!   be recomputed elsewhere, so they are reported as [`LostGroups`]
//!   (degraded accuracy) rather than re-sharded. Package replans
//!   regenerate every per-stage layout, so they lose no groups.

use crate::mcm::{McmPlan, StagePlacement};
use crate::ownership::{propagate, OwnershipMap};
use crate::plan::{LayerPlan, Plan, PlanError};
use lts_nn::descriptor::{LayerKind, NetworkSpec};
use lts_nn::grouping::even_blocks;
use lts_noc::traffic::{Message, TrafficTrace};
use lts_noc::{FaultModel, McmTopology, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

/// What dies together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureDomain {
    /// The cores of a chip with this many cores: each core is its own
    /// domain, one router.
    Cores(usize),
    /// The chiplets of a package: each chiplet is a domain of its member
    /// routers plus the interposer seam endpoints it terminates.
    Chiplets(McmTopology),
}

/// Channel groups of one grouped layer that died with their cores.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LostGroups {
    /// Layer name.
    pub layer: String,
    /// Total groups in the layer.
    pub groups: usize,
    /// Indices of the lost groups.
    pub lost: Vec<usize>,
    /// Output channels owned by the lost groups.
    pub lost_channels: usize,
    /// Total output channels of the layer.
    pub out_channels: usize,
}

impl LostGroups {
    /// Fraction of this layer's output channels that are lost.
    pub fn lost_fraction(&self) -> f64 {
        if self.out_channels == 0 {
            return 0.0;
        }
        self.lost_channels as f64 / self.out_channels as f64
    }
}

/// A plan for the layers a fault left to run, over the survivors of a
/// failure domain, plus the boundary resync that makes it runnable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Replan {
    /// Index of the first layer the tail covers: the first layer that had
    /// not run when the fault hit (`0` for a static replan).
    pub fault_layer: usize,
    /// Dead domain ids, cores or chiplets (sorted, deduplicated).
    pub dead: Vec<usize>,
    /// Surviving domain ids in placement order: the surviving cores in
    /// logical order on a chip, the tail's stage chiplets on a package.
    pub survivors: Vec<usize>,
    /// `core_map[logical] = physical` node id for the cores of
    /// [`Replan::tail`]. The surviving cores on a chip; the identity over
    /// the whole package on a package, whose tail uses physical ids.
    pub core_map: Vec<usize>,
    /// The plan for layers `fault_layer..` (empty when the fault hit
    /// after the last layer).
    pub tail: Plan,
    /// Chiplet stages of the tail on a package, layer indices relative to
    /// `fault_layer`; empty on a chip.
    pub stages: Vec<StagePlacement>,
    /// Boundary-resync messages with physical endpoints: surviving
    /// feature-map units moving from their old owner to their new one.
    pub redistribution: TrafficTrace,
    /// Total bytes of [`Replan::redistribution`].
    pub redistribution_bytes: u64,
    /// Boundary unit ranges that died with their holders (one possibly
    /// empty range per dead holder, in holder order).
    pub orphan: Vec<Range<usize>>,
    /// Pinned channel-group chains lost in the remaining layers.
    pub lost_groups: Vec<LostGroups>,
    /// Boundary units orphaned by the dead routers.
    pub lost_boundary_units: usize,
    /// Total units in the boundary feature map (0 when the fault hit
    /// before the first layer, whose input is replicated everywhere).
    pub boundary_units: usize,
}

impl Replan {
    /// Fraction of the boundary feature map lost with the dead routers.
    pub fn lost_boundary_fraction(&self) -> f64 {
        if self.boundary_units == 0 {
            return 0.0;
        }
        self.lost_boundary_units as f64 / self.boundary_units as f64
    }

    /// Worst per-layer fraction of output channels lost to pinned-group
    /// death in the remaining layers — the accuracy-degradation proxy
    /// (`0.0` for dense/sparsified tails: full accuracy is preserved).
    pub fn lost_output_fraction(&self) -> f64 {
        self.lost_groups.iter().map(LostGroups::lost_fraction).fold(0.0, f64::max)
    }

    /// One tail layer's transition traffic with logical endpoints
    /// remapped to physical nodes, ready to run on the faulty chip.
    pub fn physical_messages(&self, layer: &LayerPlan) -> TrafficTrace {
        let mut trace = TrafficTrace::new();
        for m in &layer.traffic.messages {
            trace.messages.push(Message::new(
                self.core_map[m.src],
                self.core_map[m.dst],
                m.bytes,
                m.inject_cycle,
            ));
        }
        trace
    }
}

impl FailureDomain {
    /// Routers on the whole chip or package.
    pub fn nodes(&self) -> usize {
        match self {
            FailureDomain::Cores(cores) => *cores,
            FailureDomain::Chiplets(topo) => Topology::nodes(topo),
        }
    }

    /// `ids` sorted and deduplicated.
    ///
    /// # Errors
    ///
    /// [`PlanError::BadConfig`] when an id names no core or chiplet.
    pub fn validate(&self, ids: &[usize]) -> Result<Vec<usize>, PlanError> {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let (count, noun, of) = match self {
            FailureDomain::Cores(cores) => (*cores, "core", format!("{cores} cores")),
            FailureDomain::Chiplets(topo) => {
                let chiplets = Topology::chiplets(topo);
                (chiplets, "chiplet", format!("a {chiplets}-chiplet package"))
            }
        };
        match ids.iter().find(|&&id| id >= count) {
            Some(bad) => {
                Err(PlanError::BadConfig(format!("dead {noun} {bad} out of range for {of}")))
            }
            None => Ok(ids),
        }
    }

    /// The member routers of the domains `ids`, sorted.
    pub fn members(&self, ids: &[usize]) -> Vec<usize> {
        let mut nodes: Vec<usize> = match self {
            FailureDomain::Cores(_) => ids.to_vec(),
            FailureDomain::Chiplets(topo) => {
                ids.iter().flat_map(|&c| topo.chiplet_nodes(c)).collect()
            }
        };
        nodes.sort_unstable();
        nodes
    }

    /// The NoC fault model of losing the domains `ids`: every member
    /// router dies, and a chiplet's seam endpoints die with it.
    ///
    /// # Panics
    ///
    /// Panics if a chiplet id is out of range (see
    /// [`FailureDomain::validate`]).
    pub fn fault_model(&self, ids: &[usize]) -> FaultModel {
        match self {
            FailureDomain::Cores(_) => {
                ids.iter().fold(FaultModel::none(), |f, &d| f.kill_router(d))
            }
            FailureDomain::Chiplets(topo) => {
                ids.iter().fold(FaultModel::none(), |f, &c| f.kill_chiplet(topo, c))
            }
        }
    }

    /// Replans layers `fault_layer..` of `spec` over the survivors of the
    /// domains `dead`, resyncing the boundary feature map from where
    /// `from` left it.
    ///
    /// `from` is the plan that was running when the fault hit (`None`:
    /// the healthy plan over the whole domain), `fault_layer` the first
    /// layer that had *not* run, in `spec`'s numbering. `dead` may repeat
    /// ids already dead in `from`. With `fault_layer == 0` nothing ran, so
    /// the result is the static replan with no resync; with no dead ids
    /// as well it is the healthy plan, bit-identical to [`Plan::build`]
    /// on a chip and to [`McmPlan::build`] on a package. With
    /// `fault_layer == spec.layers.len()` the tail is empty and the dead
    /// holders' share of the final output is orphaned.
    ///
    /// # Errors
    ///
    /// [`PlanError::BadConfig`] when a dead id is out of range, nothing
    /// survives, or `fault_layer` lies outside `from`'s tail; plus
    /// anything [`Plan::build`] or [`McmPlan::build`] rejects.
    pub fn replan(
        &self,
        spec: &NetworkSpec,
        from: Option<&Replan>,
        fault_layer: usize,
        dead: &[usize],
        weights: &HashMap<String, Vec<f32>>,
        bytes_per_value: usize,
    ) -> Result<Replan, PlanError> {
        let _probe = lts_obs::span("partition.replan");
        let start = from.map_or(0, |f| f.fault_layer);
        if fault_layer < start || fault_layer > spec.layers.len() {
            return Err(PlanError::BadConfig(format!(
                "fault layer {fault_layer} outside layers {start}..={} of the network",
                spec.layers.len()
            )));
        }
        let dead = self.validate(dead)?;
        let dead_nodes = self.members(&dead);
        let tail_spec = NetworkSpec {
            name: spec.name.clone(),
            input: if fault_layer == 0 {
                spec.input
            } else {
                spec.layers[fault_layer - 1].out_dims
            },
            layers: spec.layers[fault_layer..].to_vec(),
        };

        // Per domain: the cores each stage spans, the boundary's holders
        // under `from` and its owners in the tail (physical ids, in local
        // order), and the surviving domain ids in placement order.
        let (width, holders, targets, survivors) = match self {
            FailureDomain::Cores(cores) => {
                let live: Vec<usize> =
                    from.map_or_else(|| (0..*cores).collect(), |f| f.core_map.clone());
                let core_map: Vec<usize> =
                    live.iter().copied().filter(|n| !dead_nodes.contains(n)).collect();
                if core_map.is_empty() {
                    return Err(PlanError::BadConfig("no surviving cores to re-plan onto".into()));
                }
                (live.len(), live, core_map.clone(), core_map)
            }
            FailureDomain::Chiplets(topo) => {
                let order: Vec<usize> =
                    topo.serpentine_chiplets().into_iter().filter(|c| !dead.contains(c)).collect();
                if order.is_empty() {
                    return Err(PlanError::BadConfig("no chiplet survives the fault set".into()));
                }
                // The chiplet whose stage produced the boundary.
                let producer = match from {
                    _ if fault_layer == start => None,
                    Some(f) => {
                        let li = fault_layer - 1 - start;
                        f.stages.iter().find(|s| s.layers().contains(&li)).map(|s| s.chiplet)
                    }
                    None => McmPlan::build(spec, topo, weights, bytes_per_value)?
                        .chiplet_of_layer(fault_layer - 1),
                }
                .unwrap_or(order[0]);
                (
                    topo.nodes_per_chiplet(),
                    topo.chiplet_nodes(producer),
                    topo.chiplet_nodes(order[0]),
                    order,
                )
            }
        };

        // Ownership of the boundary feature map under `from`'s plan.
        let mut boundary: Option<OwnershipMap> = None;
        for layer in &spec.layers[start..fault_layer] {
            boundary = propagate(layer, boundary.as_ref(), width);
        }
        let mut redistribution = TrafficTrace::new();
        let mut orphan = Vec::new();
        let mut lost_boundary_units = 0usize;
        let mut seed = None;
        if let Some(old) = &boundary {
            // Rebalance surviving units onto the tail's even input
            // ownership; data already on its new owner stays put.
            let unit_bytes = (old.values_per_unit() * bytes_per_value) as u64;
            let new_blocks = even_blocks(old.units(), targets.len());
            for (i, &src) in holders.iter().enumerate() {
                let have = old.block(i);
                if dead_nodes.contains(&src) {
                    lost_boundary_units += have.len();
                    orphan.push(have);
                    continue;
                }
                for (nb, &dst) in new_blocks.iter().zip(&targets) {
                    let moved = have.end.min(nb.end).saturating_sub(have.start.max(nb.start));
                    if dst != src && moved > 0 {
                        redistribution.push(Message::new(src, dst, moved as u64 * unit_bytes, 0));
                    }
                }
            }
            seed = Some(OwnershipMap::even(old.units(), old.values_per_unit(), targets.len()));
        }

        let (tail, stages, core_map, lost_groups) = match self {
            FailureDomain::Cores(_) => {
                let tail =
                    Plan::build_from(&tail_spec, targets.len(), weights, bytes_per_value, seed)?;
                let logical_dead: Vec<usize> =
                    (0..width).filter(|&l| dead_nodes.contains(&holders[l])).collect();
                let lost = collect_lost_groups(&tail_spec, width, &logical_dead);
                (tail, Vec::new(), targets, lost)
            }
            FailureDomain::Chiplets(topo) => {
                let nodes = Topology::nodes(topo);
                let (tail, stages) = if tail_spec.layers.is_empty() {
                    (Plan { cores: nodes, layers: Vec::new() }, Vec::new())
                } else {
                    let mcm = McmPlan::build_on_order(
                        &tail_spec,
                        topo,
                        weights,
                        bytes_per_value,
                        &survivors,
                        seed,
                    )?;
                    (mcm.plan, mcm.stages)
                };
                (tail, stages, (0..nodes).collect(), Vec::new())
            }
        };
        Ok(Replan {
            fault_layer,
            dead,
            survivors,
            core_map,
            tail,
            stages,
            redistribution_bytes: redistribution.total_bytes(),
            redistribution,
            orphan,
            lost_groups,
            lost_boundary_units,
            boundary_units: boundary.as_ref().map_or(0, OwnershipMap::units),
        })
    }
}

/// Finds the channel groups of grouped conv layers whose original owner
/// core died. A group is lost if *any* core owning part of its output
/// block is dead: grouped layers chain group-local activations, so the
/// whole chain collapses with the core.
fn collect_lost_groups(spec: &NetworkSpec, cores: usize, dead: &[usize]) -> Vec<LostGroups> {
    let mut out = Vec::new();
    for layer in &spec.layers {
        let LayerKind::Conv { out_c, groups, .. } = layer.kind else { continue };
        if groups <= 1 {
            continue;
        }
        let owner_blocks = even_blocks(out_c, cores);
        let group_blocks = even_blocks(out_c, groups);
        let mut lost = Vec::new();
        let mut lost_channels = 0usize;
        for (g, gb) in group_blocks.iter().enumerate() {
            let doomed = dead.iter().any(|&d| {
                let ob = &owner_blocks[d];
                ob.start < gb.end && gb.start < ob.end
            });
            if doomed {
                lost.push(g);
                lost_channels += gb.len();
            }
        }
        if !lost.is_empty() {
            out.push(LostGroups {
                layer: layer.name.clone(),
                groups,
                lost,
                lost_channels,
                out_channels: out_c,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_nn::descriptor::{convnet_spec, lenet_spec, SpecBuilder};

    const CHIP: FailureDomain = FailureDomain::Cores(16);

    fn grouped_spec(groups: usize) -> NetworkSpec {
        SpecBuilder::new("g", (3, 16, 16))
            .conv("conv1", 16, 5, 1, 2, 1)
            .pool("pool1", 2, 2)
            .conv("conv2", 32, 3, 1, 1, groups)
            .pool("pool2", 2, 2)
            .flatten()
            .linear("ip1", 10)
            .build()
    }

    /// A static replan of `spec` on 16 cores without `dead`.
    fn static_replan(spec: &NetworkSpec, dead: &[usize]) -> Result<Replan, PlanError> {
        CHIP.replan(spec, None, 0, dead, &HashMap::new(), 2)
    }

    /// An incremental replan from the healthy 16-core plan.
    fn after_layer(
        spec: &NetworkSpec,
        fault_layer: usize,
        dead: &[usize],
    ) -> Result<Replan, PlanError> {
        CHIP.replan(spec, None, fault_layer, dead, &HashMap::new(), 2)
    }

    #[test]
    fn no_dead_cores_matches_the_healthy_plan() {
        let spec = lenet_spec();
        let d = static_replan(&spec, &[]).unwrap();
        assert_eq!(d.tail, Plan::dense(&spec, 16, 2).unwrap());
        assert_eq!(d.core_map, (0..16).collect::<Vec<_>>());
        assert!(d.lost_groups.is_empty());
        assert_eq!(d.lost_output_fraction(), 0.0);
    }

    #[test]
    fn dead_cores_shrink_the_plan_and_the_core_map() {
        let spec = lenet_spec();
        let d = static_replan(&spec, &[5, 10, 5]).unwrap();
        assert_eq!(d.survivors.len(), 14);
        assert_eq!(d.dead, vec![5, 10], "duplicates are collapsed");
        assert!(!d.core_map.contains(&5) && !d.core_map.contains(&10));
        assert_eq!(d.tail.cores, 14);
        // Dense layers re-shard: nothing is lost, accuracy is intact.
        assert!(d.lost_groups.is_empty());
    }

    #[test]
    fn invalid_dead_sets_are_rejected() {
        let spec = lenet_spec();
        assert!(static_replan(&spec, &[16]).is_err());
        let all: Vec<usize> = (0..16).collect();
        assert!(static_replan(&spec, &all).is_err());
        assert!(FailureDomain::Cores(0).replan(&spec, None, 0, &[], &HashMap::new(), 2).is_err());
    }

    #[test]
    fn grouped_layers_report_lost_groups() {
        // 16 groups on 16 cores: group g lives on core g exactly.
        let spec = grouped_spec(16);
        let d = static_replan(&spec, &[3, 7]).unwrap();
        assert_eq!(d.lost_groups.len(), 1);
        let lg = &d.lost_groups[0];
        assert_eq!(lg.layer, "conv2");
        assert_eq!(lg.lost, vec![3, 7]);
        assert_eq!(lg.lost_channels, 4, "32 channels / 16 groups = 2 per group");
        assert!((d.lost_output_fraction() - 4.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn ungrouped_networks_never_lose_groups() {
        let d = static_replan(&convnet_spec(), &[0, 1, 2, 3]).unwrap();
        assert!(d.lost_groups.is_empty());
        assert_eq!(d.lost_output_fraction(), 0.0);
    }

    #[test]
    fn physical_messages_avoid_dead_cores() {
        let spec = lenet_spec();
        let d = static_replan(&spec, &[0, 6]).unwrap();
        for lp in &d.tail.layers {
            let physical = d.physical_messages(lp);
            assert_eq!(physical.len(), lp.traffic.len());
            for m in &physical.messages {
                assert!(m.src != 0 && m.src != 6, "message from dead core {}", m.src);
                assert!(m.dst != 0 && m.dst != 6, "message to dead core {}", m.dst);
                assert!(m.src < 16 && m.dst < 16);
            }
        }
    }

    #[test]
    fn fewer_survivors_move_less_total_traffic() {
        // Each survivor holds a bigger slice, so less data crosses cores.
        let spec = lenet_spec();
        let healthy = Plan::dense(&spec, 16, 2).unwrap();
        let degraded = static_replan(&spec, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert!(degraded.tail.total_traffic_bytes() < healthy.total_traffic_bytes());
    }

    #[test]
    fn fault_before_the_first_layer_degenerates_to_a_fresh_replan() {
        let spec = lenet_spec();
        let healthy = static_replan(&spec, &[]).unwrap();
        let inc = CHIP.replan(&spec, Some(&healthy), 0, &[5], &HashMap::new(), 2).unwrap();
        let full = static_replan(&spec, &[5]).unwrap();
        assert_eq!(inc.tail, full.tail);
        assert_eq!(inc.core_map, full.core_map);
        assert!(inc.redistribution.is_empty());
        assert_eq!(inc.boundary_units, 0);
        assert_eq!(inc.lost_boundary_fraction(), 0.0);
    }

    #[test]
    fn tail_covers_exactly_the_remaining_layers() {
        let spec = lenet_spec();
        let inc = after_layer(&spec, 3, &[2, 9]).unwrap();
        assert_eq!(inc.tail.layers.len(), spec.layers.len() - 3);
        assert_eq!(inc.tail.cores, 14);
        for (lp, orig) in inc.tail.layers.iter().zip(&spec.layers[3..]) {
            assert_eq!(lp.spec.name, orig.name);
        }
    }

    #[test]
    fn boundary_resync_moves_only_surviving_units_between_different_owners() {
        let spec = lenet_spec();
        // Fault after conv1 (boundary = conv1's 20-channel output).
        let inc = after_layer(&spec, 1, &[0, 7]).unwrap();
        assert_eq!(inc.boundary_units, 20);
        // Cores 0..4 own 2 channels, the rest 1: dead 0 and 7 orphan 3.
        assert_eq!(inc.lost_boundary_units, 3);
        assert_eq!(inc.orphan, vec![0..2, 11..12]);
        for m in &inc.redistribution.messages {
            assert!(m.src != 0 && m.src != 7, "dead core {} sends", m.src);
            assert!(m.dst != 0 && m.dst != 7, "dead core {} receives", m.dst);
            assert_ne!(m.src, m.dst);
        }
        // Moved units are bounded by the surviving boundary payload.
        let unit_bytes = (24 * 24 * 2) as u64; // conv1 spatial x 2 B
        assert!(inc.redistribution_bytes <= 17 * unit_bytes);
        assert!(inc.redistribution_bytes > 0);
    }

    #[test]
    fn no_deaths_and_no_progress_is_the_healthy_plan_with_no_resync() {
        let spec = lenet_spec();
        let inc = after_layer(&spec, 0, &[]).unwrap();
        assert_eq!(inc.tail, Plan::dense(&spec, 16, 2).unwrap());
        assert!(inc.redistribution.is_empty());
    }

    #[test]
    fn late_faults_leave_shorter_tails_and_orphan_final_outputs() {
        let spec = lenet_spec();
        let n = spec.layers.len();
        let inc = after_layer(&spec, n, &[3]).unwrap();
        assert!(inc.tail.layers.is_empty());
        // Boundary = ip2's 10 outputs; core 3 owned one of them.
        assert_eq!(inc.boundary_units, 10);
        assert_eq!(inc.lost_boundary_units, 1);
        assert!((inc.lost_boundary_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn grouped_tails_report_lost_chains() {
        let spec = grouped_spec(16);
        // Fault before the grouped conv2: its pinned groups on cores 3, 7
        // are unrecoverable even though conv2 has not run yet.
        let inc = after_layer(&spec, 2, &[3, 7]).unwrap();
        assert_eq!(inc.lost_groups.len(), 1);
        assert_eq!(inc.lost_groups[0].lost, vec![3, 7]);
        assert!(inc.lost_output_fraction() > 0.0);
        // Fault *after* conv2: the chain loss shows up as orphaned
        // boundary units instead.
        let late = after_layer(&spec, 4, &[3, 7]).unwrap();
        assert!(late.lost_groups.is_empty());
        assert!(late.lost_boundary_units > 0);
    }

    #[test]
    fn physical_messages_stay_on_survivors() {
        let spec = lenet_spec();
        let inc = after_layer(&spec, 2, &[1, 12]).unwrap();
        for lp in &inc.tail.layers {
            for m in &inc.physical_messages(lp).messages {
                assert!(m.src != 1 && m.src != 12 && m.dst != 1 && m.dst != 12);
                assert!(m.src < 16 && m.dst < 16);
            }
        }
    }

    #[test]
    fn out_of_range_fault_layers_are_rejected() {
        let spec = lenet_spec();
        let n = spec.layers.len();
        assert!(after_layer(&spec, n + 1, &[0]).is_err());
        assert!(after_layer(&spec, 2, &[16]).is_err());
        let all: Vec<usize> = (0..16).collect();
        assert!(after_layer(&spec, 2, &all).is_err());
    }

    #[test]
    fn sparse_weights_shrink_the_tail_gather() {
        let spec = lenet_spec();
        let dense = after_layer(&spec, 2, &[4]).unwrap();
        // All-zero conv2 weights suppress the transition into conv2.
        let conv2 = spec.layer("conv2").unwrap();
        let LayerKind::Conv { out_c, kernel, .. } = conv2.kind else {
            panic!("conv2 is a conv layer");
        };
        let w = vec![0.0f32; out_c * conv2.in_dims.0 * kernel * kernel];
        let mut weights = HashMap::new();
        weights.insert("conv2".to_string(), w);
        let sparse = CHIP.replan(&spec, None, 2, &[4], &weights, 2).unwrap();
        let dense_bytes = dense.tail.layer("conv2").unwrap().traffic.total_bytes();
        let sparse_bytes = sparse.tail.layer("conv2").unwrap().traffic.total_bytes();
        assert!(dense_bytes > 0);
        assert_eq!(sparse_bytes, 0);
        // The resync itself is weight-independent: same surviving bytes.
        assert_eq!(dense.redistribution_bytes, sparse.redistribution_bytes);
    }

    #[test]
    fn stacked_replans_compose_the_core_map_and_skip_the_already_dead() {
        let spec = lenet_spec();
        let first = after_layer(&spec, 2, &[3]).unwrap();
        // Re-naming dead core 3 alongside core 11 kills only core 11.
        let second = CHIP.replan(&spec, Some(&first), 5, &[3, 11], &HashMap::new(), 2).unwrap();
        assert_eq!(second.survivors.len(), 14);
        assert!(!second.core_map.contains(&3) && !second.core_map.contains(&11));
        assert_eq!(second.tail.layers.len(), spec.layers.len() - 5);
        // Only core 11's share of the boundary dies, in first's layout.
        assert_eq!(second.orphan.len(), 1);
        for m in &second.redistribution.messages {
            assert!(![3, 11].contains(&m.src) && ![3, 11].contains(&m.dst));
        }
        // A fault cannot strike before the plan it interrupts started.
        assert!(CHIP.replan(&spec, Some(&first), 1, &[4], &HashMap::new(), 2).is_err());
    }

    #[test]
    fn chiplet_domains_expand_to_member_routers_and_seams() {
        let topo = McmTopology::new(2, 2, 2, 2);
        let domain = FailureDomain::Chiplets(topo);
        assert_eq!(domain.nodes(), 16);
        assert_eq!(domain.validate(&[3, 1, 3]).unwrap(), vec![1, 3]);
        assert!(domain.validate(&[4]).is_err());
        let mut expected = topo.chiplet_nodes(1);
        expected.extend(topo.chiplet_nodes(3));
        expected.sort_unstable();
        assert_eq!(domain.members(&[1, 3]), expected);
        let chiplet = FaultModel::none().kill_chiplet(&topo, 1).kill_chiplet(&topo, 3);
        assert_eq!(domain.fault_model(&[1, 3]), chiplet);
        // A core domain kills routers only, no seams.
        let cores = FailureDomain::Cores(16).fault_model(&[2, 5]);
        assert_eq!(cores, FaultModel::none().kill_router(2).kill_router(5));
        assert_eq!(FailureDomain::Cores(16).members(&[5, 2]), vec![2, 5]);
    }
}
