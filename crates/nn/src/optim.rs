//! Stochastic gradient descent with momentum and weight decay.

use crate::param::Param;
use crate::{NnError, Result};
use serde::{Deserialize, Serialize};

/// SGD with classical momentum and L2 weight decay.
///
/// The update per parameter entry is
///
/// ```text
/// v ← μ·v − lr·(g + wd·w)
/// w ← w + v
/// ```
///
/// Frozen (pruned) entries are re-pinned to zero after every step via
/// [`Param::apply_freeze`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient μ.
    pub momentum: f32,
    /// L2 weight decay (the generic `R(W)` term of Eq. (1)).
    pub weight_decay: f32,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if any hyper-parameter is negative or
    /// non-finite, or `momentum >= 1`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Result<Self> {
        for (name, v) in [("lr", lr), ("momentum", momentum), ("weight_decay", weight_decay)] {
            if !v.is_finite() || v < 0.0 {
                return Err(NnError::BadConfig(format!("{name} must be finite and >= 0, got {v}")));
            }
        }
        if momentum >= 1.0 {
            return Err(NnError::BadConfig(format!("momentum must be < 1, got {momentum}")));
        }
        Ok(Self { lr, momentum, weight_decay })
    }

    /// Applies one update to every parameter, then clears gradients.
    pub fn step(&self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            p.apply_freeze();
            let n = p.len();
            for i in 0..n {
                let w = p.value.as_slice()[i];
                let g = p.grad.as_slice()[i] + self.weight_decay * w;
                let v = self.momentum * p.momentum.as_slice()[i] - self.lr * g;
                p.momentum.as_mut_slice()[i] = v;
                p.value.as_mut_slice()[i] = w + v;
            }
            p.apply_freeze();
            p.zero_grad();
        }
    }

    /// Returns a copy with the learning rate multiplied by `factor`
    /// (for step/epoch decay schedules).
    pub fn with_lr_scaled(&self, factor: f32) -> Self {
        Self { lr: self.lr * factor, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_tensor::{Shape, Tensor};

    fn param(values: Vec<f32>, grads: Vec<f32>) -> Param {
        let n = values.len();
        let mut p = Param::new(Tensor::from_vec(Shape::d1(n), values).unwrap());
        p.grad = Tensor::from_vec(Shape::d1(n), grads).unwrap();
        p
    }

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let opt = Sgd::new(0.1, 0.0, 0.0).unwrap();
        let mut p = param(vec![1.0, -1.0], vec![2.0, -2.0]);
        opt.step(&mut [&mut p]);
        assert_eq!(p.value.as_slice(), &[0.8, -0.8]);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0), "grad cleared");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let opt = Sgd::new(0.1, 0.9, 0.0).unwrap();
        let mut p = param(vec![0.0], vec![1.0]);
        opt.step(&mut [&mut p]);
        assert!((p.value.as_slice()[0] - (-0.1)).abs() < 1e-6);
        // Second step with the same gradient: v = 0.9*(-0.1) - 0.1 = -0.19.
        p.grad.fill(1.0);
        opt.step(&mut [&mut p]);
        assert!((p.value.as_slice()[0] - (-0.29)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let opt = Sgd::new(0.1, 0.0, 0.5).unwrap();
        let mut p = param(vec![1.0], vec![0.0]);
        opt.step(&mut [&mut p]);
        assert!((p.value.as_slice()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn frozen_entries_stay_exactly_zero() {
        let opt = Sgd::new(0.5, 0.9, 0.1).unwrap();
        let mut p = param(vec![1.0, 2.0], vec![3.0, 4.0]);
        p.freeze_indices(&[1]);
        for _ in 0..5 {
            p.grad.fill(1.0);
            opt.step(&mut [&mut p]);
        }
        assert_eq!(p.value.as_slice()[1], 0.0);
        assert_ne!(p.value.as_slice()[0], 1.0);
    }

    #[test]
    fn config_validation() {
        assert!(Sgd::new(-0.1, 0.0, 0.0).is_err());
        assert!(Sgd::new(0.1, 1.0, 0.0).is_err());
        assert!(Sgd::new(0.1, 0.9, f32::NAN).is_err());
    }

    #[test]
    fn lr_scaling_returns_adjusted_copy() {
        let opt = Sgd::new(0.2, 0.5, 0.0).unwrap();
        let decayed = opt.with_lr_scaled(0.5);
        assert!((decayed.lr - 0.1).abs() < 1e-7);
        assert_eq!(decayed.momentum, 0.5);
    }

    #[test]
    fn zero_learning_rate_leaves_weights_but_clears_gradients() {
        let opt = Sgd::new(0.0, 0.9, 0.5).unwrap();
        let mut p = param(vec![1.0, -2.0], vec![3.0, 4.0]);
        opt.step(&mut [&mut p]);
        assert_eq!(p.value.as_slice(), &[1.0, -2.0]);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn step_updates_every_parameter_given() {
        let opt = Sgd::new(1.0, 0.0, 0.0).unwrap();
        let mut a = param(vec![1.0], vec![0.5]);
        let mut b = param(vec![2.0, 3.0], vec![1.0, -1.0]);
        opt.step(&mut [&mut a, &mut b]);
        assert_eq!(a.value.as_slice(), &[0.5]);
        assert_eq!(b.value.as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn every_bad_hyper_parameter_is_named() {
        let cases = [
            (Sgd::new(f32::INFINITY, 0.0, 0.0), "lr"),
            (Sgd::new(0.1, -0.5, 0.0), "momentum"),
            (Sgd::new(0.1, 0.0, -1.0), "weight_decay"),
        ];
        for (result, name) in cases {
            match result {
                Err(NnError::BadConfig(msg)) => assert!(msg.starts_with(name), "{msg}"),
                other => panic!("{name}: expected BadConfig, got {other:?}"),
            }
        }
    }
}
