//! Softmax cross-entropy loss.

use crate::{NnError, Result};
use lts_tensor::{ops, Shape, Tensor};

/// The value and gradient of a softmax cross-entropy loss over a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Gradient of the mean loss w.r.t. the logits, `[batch, classes]`.
    pub grad: Tensor,
    /// Number of samples whose argmax logit equals the label.
    pub correct: usize,
}

/// Computes softmax cross-entropy and its gradient for logits
/// `[batch, classes]` against integer labels.
///
/// The gradient is already divided by the batch size, so it can be fed
/// straight into `Network::backward`.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] if `logits` is not rank 2, the label count
/// differs from the batch size, or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
    if logits.shape().rank() != 2 {
        return Err(NnError::BadInput {
            layer: "loss".into(),
            reason: format!("logits must be [batch, classes], got {}", logits.shape()),
        });
    }
    let batch = logits.shape().dim(0);
    let classes = logits.shape().dim(1);
    if labels.len() != batch {
        return Err(NnError::BadInput {
            layer: "loss".into(),
            reason: format!("{} labels for batch of {batch}", labels.len()),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(NnError::BadInput {
            layer: "loss".into(),
            reason: format!("label {bad} out of range for {classes} classes"),
        });
    }
    let mut grad = Tensor::zeros(Shape::d2(batch, classes));
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let src = logits.as_slice();
    let g = grad.as_mut_slice();
    for b in 0..batch {
        let row = &src[b * classes..(b + 1) * classes];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let label = labels[b];
        let prob_label = exps[label] / sum;
        total_loss += -(prob_label.max(1e-12).ln() as f64);
        if ops::argmax(row).map(|(i, _)| i) == Some(label) {
            correct += 1;
        }
        for c in 0..classes {
            let p = exps[c] / sum;
            let y = if c == label { 1.0 } else { 0.0 };
            g[b * classes + c] = (p - y) / batch as f32;
        }
    }
    Ok(LossOutput { loss: (total_loss / batch as f64) as f32, grad, correct })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Tensor::zeros(Shape::d2(2, 4));
        let out = softmax_cross_entropy(&logits, &[0, 3]).unwrap();
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let logits = Tensor::from_vec(Shape::d2(1, 3), vec![10.0, 0.0, 0.0]).unwrap();
        let out = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(out.loss < 0.01);
        assert_eq!(out.correct, 1);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., -1., 0., 1.]).unwrap();
        let out = softmax_cross_entropy(&logits, &[2, 0]).unwrap();
        for b in 0..2 {
            let s: f32 = out.grad.as_slice()[b * 3..(b + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut logits = Tensor::from_vec(Shape::d2(1, 3), vec![0.3, -0.2, 0.8]).unwrap();
        let labels = [1usize];
        let out = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for i in 0..3 {
            let base = logits.as_slice()[i];
            logits.as_mut_slice()[i] = base + eps;
            let lp = softmax_cross_entropy(&logits, &labels).unwrap().loss;
            logits.as_mut_slice()[i] = base - eps;
            let lm = softmax_cross_entropy(&logits, &labels).unwrap().loss;
            logits.as_mut_slice()[i] = base;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - out.grad.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn input_validation() {
        let logits = Tensor::zeros(Shape::d2(2, 3));
        assert!(softmax_cross_entropy(&logits, &[0]).is_err()); // wrong label count
        assert!(softmax_cross_entropy(&logits, &[0, 3]).is_err()); // label out of range
        assert!(softmax_cross_entropy(&Tensor::zeros(Shape::d1(3)), &[0]).is_err());
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let out = softmax_cross_entropy(&logits, &[0, 0]).unwrap();
        assert_eq!(out.correct, 1);
    }

    #[test]
    fn huge_logits_stay_finite() {
        let logits = Tensor::from_vec(Shape::d2(1, 3), vec![1000.0, 0.0, -1000.0]).unwrap();
        let right = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(right.loss.is_finite() && right.loss < 1e-6);
        assert!(right.grad.as_slice().iter().all(|g| g.is_finite()));
        // A confidently wrong answer is capped by the probability floor.
        let wrong = softmax_cross_entropy(&logits, &[2]).unwrap();
        assert!(wrong.loss.is_finite());
        assert!((wrong.loss - (1e-12f32).ln().abs()).abs() < 1e-3, "{}", wrong.loss);
    }

    #[test]
    fn gradient_is_averaged_over_the_batch() {
        let row = [0.4, -0.1, 0.7];
        let one = Tensor::from_vec(Shape::d2(1, 3), row.to_vec()).unwrap();
        let single = softmax_cross_entropy(&one, &[1]).unwrap();
        let four = Tensor::from_vec(Shape::d2(4, 3), row.repeat(4)).unwrap();
        let batch = softmax_cross_entropy(&four, &[1; 4]).unwrap();
        assert!((batch.loss - single.loss).abs() < 1e-6);
        for b in 0..4 {
            for c in 0..3 {
                let g = batch.grad.as_slice()[b * 3 + c];
                assert!((4.0 * g - single.grad.as_slice()[c]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_batch_has_zero_correct() {
        let logits = Tensor::zeros(Shape::d2(0, 3));
        let out = softmax_cross_entropy(&logits, &[]).unwrap();
        assert_eq!(out.correct, 0);
        assert!(out.grad.is_empty());
    }
}
