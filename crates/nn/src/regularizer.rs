//! Group-Lasso structured-sparsity regularization (Eq. (1)–(3) of the
//! paper) with per-group strength masks.
//!
//! The training objective is
//!
//! ```text
//! L(W) = L_D(W) + λ·R(W) + λ_g · Σ_l R_g(W^l)          (1)
//! R_g(W) = Σ_g s_g · ||w^g||₂                          (2,3) + strength mask
//! ```
//!
//! where `s_g` is the *sparsity strength* of group `g`. The paper's **SS**
//! scheme uses one strength for every group of a layer
//! ([`StrengthMask::uniform`]); the **SS_Mask** scheme scales each
//! producer→consumer group by the NoC hop distance between the two cores,
//! so groups that would cause long-distance traffic feel the strongest pull
//! toward zero (built by `lts-partition`'s distance model and passed in via
//! [`StrengthMask::from_factors`]).
//!
//! Each step makes two row-major passes over a layer's weights: one for
//! every group norm ([`GroupLayout::norm_matrix`]), one applying each
//! group's scale to its row segments.

use crate::grouping::GroupLayout;
use crate::param::Param;
use crate::{NnError, Result};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Group norms below this are treated as zero for the subgradient.
const NORM_EPS: f32 = 1e-8;

/// A `cores × cores` matrix of per-group sparsity strengths
/// (row = producer core, column = consumer core).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrengthMask {
    cores: usize,
    factors: Vec<f32>,
}

impl StrengthMask {
    /// The SS scheme: the same strength (1.0) on every group, distance
    /// oblivious.
    pub fn uniform(cores: usize) -> Self {
        assert!(cores > 0, "cores must be positive");
        Self { cores, factors: vec![1.0; cores * cores] }
    }

    /// Builds a mask from explicit per-group factors (row-major,
    /// producer × consumer). The SS_Mask scheme passes hop distances here.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the factor count is not
    /// `cores²` or any factor is negative/non-finite.
    pub fn from_factors(cores: usize, factors: Vec<f32>) -> Result<Self> {
        if factors.len() != cores * cores {
            return Err(NnError::BadConfig(format!(
                "strength mask needs {} factors for {cores} cores, got {}",
                cores * cores,
                factors.len()
            )));
        }
        if factors.iter().any(|f| !f.is_finite() || *f < 0.0) {
            return Err(NnError::BadConfig("strength factors must be finite and >= 0".into()));
        }
        Ok(Self { cores, factors })
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Strength factor of the producer `p` → consumer `c` group.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn factor(&self, p: usize, c: usize) -> f32 {
        assert!(p < self.cores && c < self.cores, "core index out of range");
        self.factors[p * self.cores + c]
    }

    /// The raw row-major factor matrix.
    pub fn factors(&self) -> &[f32] {
        &self.factors
    }

    /// Largest factor in the mask.
    pub fn max_factor(&self) -> f32 {
        self.factors.iter().cloned().fold(0.0, f32::max)
    }
}

/// How the group-Lasso term is optimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LassoMode {
    /// Proximal gradient: after each SGD step, every group is
    /// soft-thresholded — `w_g ← w_g · max(0, 1 − η·λ·s_g / ‖w_g‖)`.
    /// The mathematically exact treatment of the non-smooth ‖·‖₂ term;
    /// produces exact zeros during training, which is what the traffic
    /// model keys on. The default.
    #[default]
    Proximal,
    /// Subgradient: add `λ·s_g·w/‖w_g‖` to the gradient. Matches naive
    /// implementations; needs many more steps to approach zero. Kept for
    /// the `ablation_lasso_mode` experiment.
    Subgradient,
}

/// Group-Lasso regularizer bound to one layer's block layout.
///
/// # Examples
///
/// ```
/// use lts_nn::grouping::GroupLayout;
/// use lts_nn::regularizer::{GroupLasso, StrengthMask};
///
/// # fn main() -> Result<(), lts_nn::NnError> {
/// // A 2-core partition of a 4x4 weight matrix: 4 single-entry-per-axis
/// // blocks, uniformly penalized (the SS scheme).
/// let layout = GroupLayout::new(4, 4, 1, 2);
/// let lasso = GroupLasso::new("ip1", layout, 0.1, StrengthMask::uniform(2))?;
/// let weights = vec![0.5f32; 16];
/// assert!(lasso.penalty(&weights) > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupLasso {
    /// Name of the layer this regularizer acts on.
    pub layer: String,
    /// Block layout of the layer's weight tensor.
    pub layout: GroupLayout,
    /// Global group-sparsity coefficient λ_g.
    pub lambda: f32,
    /// Per-group strength factors.
    pub mask: StrengthMask,
    /// Optimization mode (proximal by default).
    pub mode: LassoMode,
}

impl GroupLasso {
    /// Creates a regularizer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the mask core count disagrees with
    /// the layout or `lambda` is negative/non-finite.
    pub fn new(layer: &str, layout: GroupLayout, lambda: f32, mask: StrengthMask) -> Result<Self> {
        if mask.cores() != layout.cores() {
            return Err(NnError::BadConfig(format!(
                "mask has {} cores but layout has {}",
                mask.cores(),
                layout.cores()
            )));
        }
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(NnError::BadConfig(format!(
                "lambda must be finite and >= 0, got {lambda}"
            )));
        }
        Ok(Self { layer: layer.to_string(), layout, lambda, mask, mode: LassoMode::default() })
    }

    /// Switches the optimization mode.
    pub fn with_mode(mut self, mode: LassoMode) -> Self {
        self.mode = mode;
        self
    }

    /// The regularization penalty `λ_g · Σ_g s_g ||w_g||₂` on `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is shorter than the layout expects.
    pub fn penalty(&self, weights: &[f32]) -> f32 {
        let norms = self.layout.norm_matrix(weights);
        let mut total = 0.0f64;
        for (&f, &norm) in self.mask.factors().iter().zip(&norms) {
            if f > 0.0 {
                total += (f * norm) as f64;
            }
        }
        self.lambda * total as f32
    }

    /// Applies the proximal operator of `η·λ_g·s_g·‖·‖₂` to every group:
    /// soft-thresholds the group norm by `step_size · λ · s_g`, zeroing
    /// groups whose norm falls below the threshold.
    pub fn proximal_shrink(&self, param: &mut Param, step_size: f32) {
        let segments = self.scaled_segments(param.value.as_slice(), 1.0, |f, norm| {
            let threshold = step_size * self.lambda * f;
            if norm <= threshold + NORM_EPS {
                0.0
            } else {
                1.0 - threshold / norm
            }
        });
        let w = param.value.as_mut_slice();
        for (segment, s) in segments {
            w[segment].iter_mut().for_each(|x| *x *= s);
        }
    }

    /// Adds the group-Lasso subgradient
    /// `λ_g · s_g · w / ||w_g||₂` to `param.grad`.
    ///
    /// Groups whose norm is (numerically) zero contribute no gradient — the
    /// standard subgradient choice that keeps already-zero groups at zero.
    pub fn accumulate_grad(&self, param: &mut Param) {
        let segments = self.scaled_segments(param.value.as_slice(), 0.0, |f, norm| {
            if norm > NORM_EPS {
                self.lambda * f / norm
            } else {
                0.0
            }
        });
        let (w, grad) = (param.value.as_slice(), param.grad.as_mut_slice());
        for (segment, s) in segments {
            for (d, &x) in grad[segment.clone()].iter_mut().zip(&w[segment]) {
                *d += s * x;
            }
        }
    }

    /// The row segments of every group whose scale is not `identity`, with
    /// that scale, in one row-major pass. A group's scale is
    /// `scale(s_g, ‖w_g‖)`, or `identity` where its strength `s_g` is zero;
    /// the norms come from one row-major pass over `weights`.
    fn scaled_segments(
        &self,
        weights: &[f32],
        identity: f32,
        scale: impl Fn(f32, f32) -> f32,
    ) -> impl Iterator<Item = (Range<usize>, f32)> + '_ {
        let norms = self.layout.norm_matrix(weights);
        let factors = self.mask.factors().iter().zip(norms);
        let scales: Vec<f32> =
            factors.map(|(&f, norm)| if f == 0.0 { identity } else { scale(f, norm) }).collect();
        let cores = self.layout.cores();
        self.layout.row_segments().filter_map(move |(p, c, segment)| {
            let s = scales[p * cores + c];
            (s != identity).then_some((segment, s))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_tensor::{Shape, Tensor};

    fn param_with(values: Vec<f32>) -> Param {
        let n = values.len();
        Param::new(Tensor::from_vec(Shape::d1(n), values).unwrap())
    }

    #[test]
    fn uniform_mask_has_all_ones() {
        let m = StrengthMask::uniform(3);
        for p in 0..3 {
            for c in 0..3 {
                assert_eq!(m.factor(p, c), 1.0);
            }
        }
    }

    #[test]
    fn mask_validation() {
        assert!(StrengthMask::from_factors(2, vec![1.0; 3]).is_err());
        assert!(StrengthMask::from_factors(2, vec![1.0, -1.0, 0.0, 0.0]).is_err());
        assert!(StrengthMask::from_factors(2, vec![0.0, 1.0, 2.0, 0.0]).is_ok());
    }

    #[test]
    fn penalty_is_weighted_sum_of_group_norms() {
        // 2x2 weight, single-entry groups, taps=1.
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mask = StrengthMask::from_factors(2, vec![0.0, 2.0, 1.0, 0.0]).unwrap();
        let gl = GroupLasso::new("l", layout, 0.5, mask).unwrap();
        // w[(o,i)]: (0,0)=3 (p0,c0, factor 0), (0,1)=4 (p1,c0, factor 1),
        // (1,0)=5 (p0,c1, factor 2), (1,1)=6 (p1,c1, factor 0).
        let penalty = gl.penalty(&[3.0, 4.0, 5.0, 6.0]);
        assert!((penalty - 0.5 * (1.0 * 4.0 + 2.0 * 5.0)).abs() < 1e-6);
    }

    #[test]
    fn gradient_points_toward_zero_with_unit_norm_direction() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let gl = GroupLasso::new("l", layout, 1.0, StrengthMask::uniform(2)).unwrap();
        let mut p = param_with(vec![3.0, 0.0, 0.0, -4.0]);
        gl.accumulate_grad(&mut p);
        // Each nonzero single-entry group contributes sign(w) * lambda.
        assert!((p.grad.as_slice()[0] - 1.0).abs() < 1e-6);
        assert!((p.grad.as_slice()[3] + 1.0).abs() < 1e-6);
        // Zero groups contribute nothing.
        assert_eq!(p.grad.as_slice()[1], 0.0);
        assert_eq!(p.grad.as_slice()[2], 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference_of_penalty() {
        let layout = GroupLayout::new(4, 4, 1, 2);
        let mask = StrengthMask::from_factors(2, vec![0.5, 2.0, 1.0, 0.25]).unwrap();
        let gl = GroupLasso::new("l", layout, 0.7, mask).unwrap();
        let w: Vec<f32> = (0..16).map(|i| 0.3 + 0.1 * i as f32).collect();
        let mut p = param_with(w.clone());
        gl.accumulate_grad(&mut p);
        let eps = 1e-3;
        for idx in [0usize, 5, 10, 15] {
            let mut wp = w.clone();
            wp[idx] += eps;
            let mut wm = w.clone();
            wm[idx] -= eps;
            let numeric = (gl.penalty(&wp) - gl.penalty(&wm)) / (2.0 * eps);
            let analytic = p.grad.as_slice()[idx];
            assert!((numeric - analytic).abs() < 1e-3, "idx {idx}: {numeric} vs {analytic}");
        }
    }

    #[test]
    fn masked_out_groups_receive_no_gradient() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mask = StrengthMask::from_factors(2, vec![0.0, 0.0, 0.0, 0.0]).unwrap();
        let gl = GroupLasso::new("l", layout, 5.0, mask).unwrap();
        let mut p = param_with(vec![1.0, 2.0, 3.0, 4.0]);
        gl.accumulate_grad(&mut p);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(gl.penalty(p.value.as_slice()), 0.0);
    }

    #[test]
    fn proximal_shrink_zeroes_small_groups_and_scales_large_ones() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let gl = GroupLasso::new("l", layout, 1.0, StrengthMask::uniform(2)).unwrap();
        // Threshold = step * lambda * factor = 0.5.
        let mut p = param_with(vec![0.3, -2.0, 0.5, 4.0]);
        gl.proximal_shrink(&mut p, 0.5);
        let w = p.value.as_slice();
        assert_eq!(w[0], 0.0, "below threshold -> exact zero");
        assert_eq!(w[2], 0.0, "at threshold -> exact zero");
        assert!((w[1] - (-1.5)).abs() < 1e-6, "norm 2 shrinks by 0.5");
        assert!((w[3] - 3.5).abs() < 1e-6);
    }

    #[test]
    fn proximal_shrink_respects_zero_factors() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        let mask = StrengthMask::from_factors(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let gl = GroupLasso::new("l", layout, 10.0, mask).unwrap();
        let mut p = param_with(vec![0.1, 0.1, 0.1, 0.1]);
        gl.proximal_shrink(&mut p, 1.0);
        let w = p.value.as_slice();
        // Diagonal groups (factor 0) untouched, off-diagonal zeroed.
        assert_eq!(w[0], 0.1);
        assert_eq!(w[3], 0.1);
        assert_eq!(w[1], 0.0);
        assert_eq!(w[2], 0.0);
    }

    #[test]
    fn proximal_is_contraction_toward_zero() {
        let layout = GroupLayout::new(4, 4, 1, 2);
        let gl = GroupLasso::new("l", layout.clone(), 0.3, StrengthMask::uniform(2)).unwrap();
        let w0: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.25).collect();
        let mut p = param_with(w0.clone());
        gl.proximal_shrink(&mut p, 0.1);
        for pr in 0..2 {
            for c in 0..2 {
                let before = layout.group_norm(pr, c, &w0);
                let after = layout.group_norm(pr, c, p.value.as_slice());
                assert!(after <= before + 1e-6);
            }
        }
    }

    #[test]
    fn constructor_validates_core_agreement() {
        let layout = GroupLayout::new(2, 2, 1, 2);
        assert!(GroupLasso::new("l", layout.clone(), 1.0, StrengthMask::uniform(3)).is_err());
        assert!(GroupLasso::new("l", layout, -1.0, StrengthMask::uniform(2)).is_err());
    }
}
