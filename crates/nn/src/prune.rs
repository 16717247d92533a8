//! Magnitude pruning of weight groups, with permanent freezing.
//!
//! After group-Lasso training has pushed selected producer→consumer blocks
//! toward zero, pruning snaps small-norm groups to *exactly* zero and
//! freezes them (see [`crate::param::Param::freeze_indices`]) so that
//! fine-tuning cannot regrow them. Exact zeros are what the traffic model
//! keys on: a zero group means the corresponding inter-core transfer is
//! skipped.

use crate::grouping::GroupLayout;
use crate::param::Param;
use crate::{NnError, Result};
use serde::{Deserialize, Serialize};

/// How to decide which groups get pruned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PruneCriterion {
    /// Prune groups whose RMS weight magnitude (`||w_g||₂ / √|g|`) is below
    /// the threshold. Scale-free w.r.t. group size.
    RmsBelow(f32),
    /// Prune the fraction of groups with the smallest norms
    /// (0.0 = prune nothing, 1.0 = prune everything).
    SmallestFraction(f32),
    /// Prune groups whose RMS magnitude is below `ratio × tensor RMS` —
    /// scale-free across layers with different weight magnitudes, so one
    /// setting works for a whole network.
    RmsBelowRelative(f32),
}

impl PruneCriterion {
    fn validate(&self) -> Result<()> {
        match *self {
            PruneCriterion::RmsBelow(t) if !t.is_finite() || t < 0.0 => {
                Err(NnError::BadConfig(format!("rms threshold must be finite and >= 0, got {t}")))
            }
            PruneCriterion::SmallestFraction(f) if !(0.0..=1.0).contains(&f) => {
                Err(NnError::BadConfig(format!("fraction must be in [0, 1], got {f}")))
            }
            PruneCriterion::RmsBelowRelative(r) if !r.is_finite() || r < 0.0 => Err(
                NnError::BadConfig(format!("relative threshold must be finite and >= 0, got {r}")),
            ),
            _ => Ok(()),
        }
    }
}

/// Outcome of a pruning pass over one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneReport {
    /// Groups zeroed by this pass.
    pub groups_pruned: usize,
    /// Total (non-empty) groups examined.
    pub groups_total: usize,
    /// Weight entries frozen by this pass.
    pub weights_frozen: usize,
}

impl PruneReport {
    /// Fraction of groups pruned (`0` when no groups exist).
    pub fn pruned_ratio(&self) -> f32 {
        if self.groups_total == 0 {
            0.0
        } else {
            self.groups_pruned as f32 / self.groups_total as f32
        }
    }
}

/// Prunes groups of `param` according to `criterion` and freezes them.
///
/// Already-frozen groups count as pruned but are not re-frozen.
///
/// # Examples
///
/// ```
/// use lts_nn::grouping::GroupLayout;
/// use lts_nn::param::Param;
/// use lts_nn::prune::{prune_groups, PruneCriterion};
/// use lts_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), lts_nn::NnError> {
/// let layout = GroupLayout::new(2, 2, 1, 2);
/// let mut p = Param::new(Tensor::from_vec(Shape::d1(4), vec![0.01, 1.0, 0.02, 2.0])
///     .map_err(lts_nn::NnError::from)?);
/// let report = prune_groups(&mut p, &layout, PruneCriterion::RmsBelow(0.1))?;
/// assert_eq!(report.groups_pruned, 2);
/// assert_eq!(p.value.as_slice(), &[0.0, 1.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for an invalid criterion or if the layout
/// does not match the parameter size, and [`NnError::BadInput`] if any
/// group norm is not finite (a NaN or infinite weight).
pub fn prune_groups(
    param: &mut Param,
    layout: &GroupLayout,
    criterion: PruneCriterion,
) -> Result<PruneReport> {
    criterion.validate()?;
    if layout.weight_len() != param.len() {
        return Err(NnError::BadConfig(format!(
            "layout covers {} weights but parameter has {}",
            layout.weight_len(),
            param.len()
        )));
    }
    // Gather (p, c, norm, len) for non-empty groups, norms from one
    // row-major pass.
    let cores = layout.cores();
    let norms = layout.norm_matrix(param.value.as_slice());
    let mut groups: Vec<(usize, usize, f32, usize)> = Vec::with_capacity(cores * cores);
    for (g, &norm) in norms.iter().enumerate() {
        let (p, c) = (g / cores, g % cores);
        let len = layout.group_len(p, c);
        if len == 0 {
            continue;
        }
        if !norm.is_finite() {
            return Err(NnError::BadInput {
                layer: "pruned parameter".into(),
                reason: format!("group ({p}, {c}) has non-finite norm {norm}"),
            });
        }
        groups.push((p, c, norm, len));
    }
    let to_prune: Vec<(usize, usize)> = match criterion {
        PruneCriterion::RmsBelowRelative(r) => {
            let tensor_rms = lts_tensor::stats::rms(param.value.as_slice());
            let t = r * tensor_rms;
            groups
                .iter()
                .filter(|(_, _, norm, len)| norm / (*len as f32).sqrt() < t)
                .map(|&(p, c, _, _)| (p, c))
                .collect()
        }
        PruneCriterion::RmsBelow(t) => groups
            .iter()
            .filter(|(_, _, norm, len)| norm / (*len as f32).sqrt() < t)
            .map(|&(p, c, _, _)| (p, c))
            .collect(),
        PruneCriterion::SmallestFraction(f) => {
            let mut sorted = groups.clone();
            sorted.sort_by(|a, b| a.2.total_cmp(&b.2));
            let count = ((sorted.len() as f32) * f).round() as usize;
            sorted.iter().take(count).map(|&(p, c, _, _)| (p, c)).collect()
        }
    };
    let mut indices = Vec::new();
    for &(p, c) in &to_prune {
        layout.segments(p, c).for_each(|s| indices.extend(s));
    }
    let weights_frozen = indices.len();
    param.freeze_indices(&indices);
    Ok(PruneReport { groups_pruned: to_prune.len(), groups_total: groups.len(), weights_frozen })
}

/// Counts groups of `weights` that are entirely zero (the quantity the
/// traffic model ultimately exploits).
pub fn zero_group_count(layout: &GroupLayout, weights: &[f32]) -> usize {
    let cores = layout.cores();
    let mut count = 0;
    for p in 0..cores {
        for c in 0..cores {
            if layout.group_len(p, c) > 0 && layout.group_is_zero(p, c, weights) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_tensor::{Shape, Tensor};

    fn param(values: Vec<f32>) -> Param {
        let n = values.len();
        Param::new(Tensor::from_vec(Shape::d1(n), values).unwrap())
    }

    #[test]
    fn rms_criterion_prunes_small_groups() {
        let layout = GroupLayout::new(2, 2, 1, 2); // 4 single-entry groups
        let mut p = param(vec![0.01, 1.0, 0.02, 2.0]);
        let report = prune_groups(&mut p, &layout, PruneCriterion::RmsBelow(0.1)).unwrap();
        assert_eq!(report.groups_pruned, 2);
        assert_eq!(report.groups_total, 4);
        assert_eq!(report.weights_frozen, 2);
        assert_eq!(p.value.as_slice(), &[0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn fraction_criterion_prunes_exactly_the_smallest() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mut p = param(vec![0.5, 0.1, 0.9, 0.3]);
        let report = prune_groups(&mut p, &layout, PruneCriterion::SmallestFraction(0.5)).unwrap();
        assert_eq!(report.groups_pruned, 2);
        // The two smallest magnitudes (0.1, 0.3) are zeroed.
        assert_eq!(p.value.as_slice(), &[0.5, 0.0, 0.9, 0.0]);
    }

    #[test]
    fn pruned_groups_survive_fine_tuning() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mut p = param(vec![0.01, 1.0, 0.02, 2.0]);
        prune_groups(&mut p, &layout, PruneCriterion::RmsBelow(0.1)).unwrap();
        // Simulate a training step trying to regrow pruned weights.
        p.grad.fill(-10.0);
        let opt = crate::optim::Sgd::new(0.1, 0.0, 0.0).unwrap();
        opt.step(&mut [&mut p]);
        assert_eq!(p.value.as_slice()[0], 0.0);
        assert_eq!(p.value.as_slice()[2], 0.0);
        assert!(p.value.as_slice()[1] > 1.0);
    }

    #[test]
    fn zero_group_count_matches_pruning() {
        let layout = GroupLayout::new(4, 4, 1, 2); // 4 groups of 4 entries
        let mut p = param((1..=16).map(|i| i as f32 * 0.1).collect());
        assert_eq!(zero_group_count(&layout, p.value.as_slice()), 0);
        prune_groups(&mut p, &layout, PruneCriterion::SmallestFraction(0.25)).unwrap();
        assert_eq!(zero_group_count(&layout, p.value.as_slice()), 1);
    }

    #[test]
    fn validation_errors() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mut p = param(vec![0.0; 4]);
        assert!(prune_groups(&mut p, &layout, PruneCriterion::SmallestFraction(1.5)).is_err());
        assert!(prune_groups(&mut p, &layout, PruneCriterion::RmsBelow(-1.0)).is_err());
        let wrong_layout = GroupLayout::new(3, 3, 1, 3);
        assert!(prune_groups(&mut p, &wrong_layout, PruneCriterion::RmsBelow(0.1)).is_err());
    }

    #[test]
    fn a_nan_weight_is_a_typed_error_not_a_panic() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        for criterion in [
            PruneCriterion::SmallestFraction(0.5),
            PruneCriterion::RmsBelow(0.1),
            PruneCriterion::RmsBelowRelative(0.1),
        ] {
            let mut p = param(vec![1.0, f32::NAN, 3.0, 4.0]);
            let err = prune_groups(&mut p, &layout, criterion).unwrap_err();
            assert!(matches!(err, NnError::BadInput { .. }), "{criterion:?}: {err}");
            assert_eq!(p.value.as_slice()[0], 1.0, "nothing is pruned on error");
        }
    }

    #[test]
    fn relative_criterion_is_scale_free() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        // Same relative structure at two very different scales.
        for scale in [1.0f32, 1000.0] {
            let mut p = param(vec![0.01 * scale, 1.0 * scale, 0.02 * scale, 2.0 * scale]);
            let report =
                prune_groups(&mut p, &layout, PruneCriterion::RmsBelowRelative(0.1)).unwrap();
            assert_eq!(report.groups_pruned, 2, "scale {scale}");
        }
    }

    #[test]
    fn fraction_one_prunes_everything() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mut p = param(vec![1.0, 2.0, 3.0, 4.0]);
        let report = prune_groups(&mut p, &layout, PruneCriterion::SmallestFraction(1.0)).unwrap();
        assert_eq!(report.groups_pruned, 4);
        assert!(p.value.as_slice().iter().all(|&w| w == 0.0));
        assert_eq!(report.pruned_ratio(), 1.0);
    }

    #[test]
    fn an_infinite_weight_is_a_typed_error() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mut p = param(vec![1.0, 2.0, f32::INFINITY, 4.0]);
        let err = prune_groups(&mut p, &layout, PruneCriterion::SmallestFraction(0.25));
        assert!(matches!(err, Err(NnError::BadInput { .. })));
        assert_eq!(p.frozen_count(), 0);
    }

    #[test]
    fn fraction_zero_prunes_nothing() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mut p = param(vec![0.0, 2.0, 3.0, 4.0]);
        let report = prune_groups(&mut p, &layout, PruneCriterion::SmallestFraction(0.0)).unwrap();
        assert_eq!(report, PruneReport { groups_pruned: 0, groups_total: 4, weights_frozen: 0 });
        assert_eq!(report.pruned_ratio(), 0.0);
        assert_eq!(p.frozen_count(), 0);
    }

    #[test]
    fn pruned_ratio_of_an_empty_report_is_zero() {
        let r = PruneReport { groups_pruned: 0, groups_total: 0, weights_frozen: 0 };
        assert_eq!(r.pruned_ratio(), 0.0);
        let r = PruneReport { groups_pruned: 1, groups_total: 4, weights_frozen: 3 };
        assert_eq!(r.pruned_ratio(), 0.25);
    }

    #[test]
    fn non_finite_thresholds_are_rejected() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mut p = param(vec![1.0; 4]);
        for criterion in [
            PruneCriterion::RmsBelow(f32::NAN),
            PruneCriterion::RmsBelowRelative(f32::INFINITY),
            PruneCriterion::RmsBelowRelative(-0.5),
            PruneCriterion::SmallestFraction(f32::NAN),
            PruneCriterion::SmallestFraction(-0.1),
        ] {
            let err = prune_groups(&mut p, &layout, criterion);
            assert!(matches!(err, Err(NnError::BadConfig(_))), "{criterion:?}");
        }
        assert_eq!(p.frozen_count(), 0);
    }
}
