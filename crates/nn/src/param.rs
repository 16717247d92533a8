//! Trainable parameters with gradient, momentum and freeze-mask storage.

use lts_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// A trainable parameter tensor with its gradient accumulator, momentum
/// buffer, and an optional freeze mask.
///
/// The freeze mask is how pruning is made *permanent*: once a weight group
/// is pruned, its entries are frozen at zero and the optimizer skips them,
/// so subsequent fine-tuning cannot resurrect pruned connections (§IV-C of
/// the paper trains, prunes, then retrains the survivors).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient accumulated by the current backward pass.
    pub grad: Tensor,
    /// Momentum buffer for SGD.
    pub momentum: Tensor,
    /// Per-entry freeze flags; frozen entries stay exactly zero.
    frozen: Option<Vec<bool>>,
}

impl Param {
    /// Wraps an initialized value tensor.
    pub fn new(value: Tensor) -> Self {
        let shape = value.shape().clone();
        Self {
            value,
            grad: Tensor::zeros(shape.clone()),
            momentum: Tensor::zeros(shape),
            frozen: None,
        }
    }

    /// A zero-initialized parameter of the given shape (used for biases).
    pub fn zeros(shape: Shape) -> Self {
        Self::new(Tensor::zeros(shape))
    }

    /// Number of scalar entries.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the gradient (called once per optimizer step).
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Freezes the entries at `indices` and zeroes their values.
    ///
    /// Frozen entries are pinned at exactly zero: their gradients are
    /// discarded by [`Param::apply_freeze`] and the optimizer leaves them
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn freeze_indices(&mut self, indices: &[usize]) {
        let n = self.value.len();
        let mask = self.frozen.get_or_insert_with(|| vec![false; n]);
        let values = self.value.as_mut_slice();
        for &i in indices {
            assert!(i < n, "freeze index {i} out of bounds ({n} entries)");
            mask[i] = true;
            values[i] = 0.0;
        }
    }

    /// Whether entry `i` is frozen.
    pub fn is_frozen(&self, i: usize) -> bool {
        self.frozen.as_ref().is_some_and(|m| m[i])
    }

    /// The full freeze mask, if any entries were ever frozen.
    pub fn frozen_mask(&self) -> Option<&[bool]> {
        self.frozen.as_deref()
    }

    /// Number of frozen entries.
    pub fn frozen_count(&self) -> usize {
        self.frozen.as_ref().map_or(0, |m| m.iter().filter(|&&f| f).count())
    }

    /// Zeroes gradients and values of frozen entries (enforces the pin).
    pub fn apply_freeze(&mut self) {
        if let Some(mask) = &self.frozen {
            let g = self.grad.as_mut_slice();
            for (i, &f) in mask.iter().enumerate() {
                if f {
                    g[i] = 0.0;
                }
            }
            let v = self.value.as_mut_slice();
            for (i, &f) in mask.iter().enumerate() {
                if f {
                    v[i] = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_and_momentum() {
        let p = Param::new(Tensor::ones(Shape::d1(4)));
        assert!(p.grad.as_slice().iter().all(|&x| x == 0.0));
        assert!(p.momentum.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(p.frozen_count(), 0);
    }

    #[test]
    fn freezing_zeroes_values_and_pins_them() {
        let mut p = Param::new(Tensor::ones(Shape::d1(4)));
        p.freeze_indices(&[1, 3]);
        assert_eq!(p.value.as_slice(), &[1.0, 0.0, 1.0, 0.0]);
        assert!(p.is_frozen(1));
        assert!(!p.is_frozen(0));
        assert_eq!(p.frozen_count(), 2);

        // A later gradient on a frozen entry is discarded.
        p.grad.as_mut_slice().copy_from_slice(&[1.0; 4]);
        p.value.as_mut_slice()[1] = 5.0; // simulate drift
        p.apply_freeze();
        assert_eq!(p.grad.as_slice(), &[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(p.value.as_slice()[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn freeze_rejects_bad_index() {
        Param::new(Tensor::ones(Shape::d1(2))).freeze_indices(&[2]);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(Shape::d1(2)));
        p.grad.fill(3.0);
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn freezing_accumulates_across_calls() {
        let mut p = Param::new(Tensor::ones(Shape::d1(5)));
        assert!(p.frozen_mask().is_none());
        p.freeze_indices(&[0]);
        p.freeze_indices(&[4, 0]);
        assert_eq!(p.frozen_mask().unwrap(), &[true, false, false, false, true]);
        assert_eq!(p.frozen_count(), 2);
        assert_eq!(p.value.as_slice(), &[0.0, 1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn apply_freeze_without_a_mask_changes_nothing() {
        let mut p = Param::new(Tensor::full(Shape::d1(3), 2.0));
        p.grad.fill(1.0);
        p.apply_freeze();
        assert_eq!(p.value.as_slice(), &[2.0; 3]);
        assert_eq!(p.grad.as_slice(), &[1.0; 3]);
        assert!(!p.is_frozen(2));
    }

    #[test]
    fn zeros_builds_an_all_zero_parameter_of_the_shape() {
        let p = Param::zeros(Shape::d2(2, 3));
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        assert_eq!(p.grad.shape(), p.value.shape());
        assert_eq!(p.momentum.shape(), p.value.shape());
        assert!(p.value.as_slice().iter().all(|&v| v == 0.0));
        assert!(Param::zeros(Shape::d1(0)).is_empty());
    }
}
