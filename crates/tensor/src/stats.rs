//! Norms and sparsity statistics.
//!
//! The structured-sparsification pipeline constantly asks two questions of a
//! block of weights: *how big is it* (group-Lasso norm, pruning decision)
//! and *is it all zero* (does the corresponding feature-map transfer need to
//! happen). These helpers answer both.

use crate::tensor::Tensor;

/// L2 (Euclidean) norm of a flat slice.
pub fn l2_norm(values: &[f32]) -> f32 {
    values.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt() as f32
}

/// L1 norm of a flat slice.
pub fn l1_norm(values: &[f32]) -> f32 {
    values.iter().map(|&x| x.abs() as f64).sum::<f64>() as f32
}

/// Root-mean-square of a flat slice (`0` for an empty slice).
pub fn rms(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let ss: f64 = values.iter().map(|&x| (x as f64) * (x as f64)).sum();
    (ss / values.len() as f64).sqrt() as f32
}

/// Number of exactly-zero entries.
pub fn count_zeros(values: &[f32]) -> usize {
    values.iter().filter(|&&x| x == 0.0).count()
}

/// Fraction of exactly-zero entries (`0` for an empty slice).
pub fn sparsity(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    count_zeros(values) as f32 / values.len() as f32
}

/// Whether every entry is exactly zero.
pub fn is_all_zero(values: &[f32]) -> bool {
    values.iter().all(|&x| x == 0.0)
}

/// L2 norm of a whole tensor.
pub fn tensor_l2(t: &Tensor) -> f32 {
    l2_norm(t.as_slice())
}

/// Mean of a flat slice (`0` for an empty slice).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|&x| x as f64).sum::<f64>() / values.len() as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_matches_pythagoras() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn l1_sums_magnitudes() {
        assert_eq!(l1_norm(&[1.0, -2.0, 3.0]), 6.0);
    }

    #[test]
    fn rms_of_constant_is_that_constant() {
        assert!((rms(&[2.0; 10]) - 2.0).abs() < 1e-6);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let v = [0.0, 1.0, 0.0, 0.0];
        assert_eq!(count_zeros(&v), 3);
        assert_eq!(sparsity(&v), 0.75);
        assert_eq!(sparsity(&[]), 0.0);
    }

    #[test]
    fn all_zero_detection() {
        assert!(is_all_zero(&[0.0, 0.0]));
        assert!(!is_all_zero(&[0.0, 1e-30]));
        assert!(is_all_zero(&[]));
    }

    #[test]
    fn mean_is_average() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn norms_accumulate_in_double_precision() {
        // Squares of 1e20 overflow f32; the f64 accumulator does not.
        let big = [1e20f32, 1e20];
        let l2 = l2_norm(&big);
        assert!(l2.is_finite());
        assert!((l2 / 1e20 - 2f32.sqrt()).abs() < 1e-6);
        assert!((rms(&big) / 1e20 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tensor_l2_matches_the_flat_norm() {
        let t = Tensor::from_vec(crate::Shape::d2(2, 2), vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(tensor_l2(&t), l2_norm(t.as_slice()));
        assert_eq!(tensor_l2(&t), 5.0);
    }

    #[test]
    fn empty_slices_have_zero_statistics() {
        assert_eq!(l1_norm(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(count_zeros(&[]), 0);
    }

    #[test]
    fn negative_zero_counts_as_zero() {
        assert_eq!(count_zeros(&[-0.0, 0.0, 1.0]), 2);
        assert!(is_all_zero(&[-0.0]));
    }
}
