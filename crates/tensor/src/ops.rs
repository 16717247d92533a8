//! Elementwise tensor operations.
//!
//! These are the handful of BLAS-1 style kernels the training loop needs.
//! All binary operations require identical shapes and return
//! [`TensorError::ShapeMismatch`] otherwise.

use crate::tensor::{Tensor, TensorError};

fn check_same_shape(a: &Tensor, b: &Tensor) -> Result<(), TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
        });
    }
    Ok(())
}

/// Elementwise sum `a + b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_same_shape(a, b)?;
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x + y).collect();
    Tensor::from_vec(a.shape().clone(), data)
}

/// Elementwise difference `a - b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_same_shape(a, b)?;
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x - y).collect();
    Tensor::from_vec(a.shape().clone(), data)
}

/// Elementwise (Hadamard) product `a ⊙ b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_same_shape(a, b)?;
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x * y).collect();
    Tensor::from_vec(a.shape().clone(), data)
}

/// In-place `y += alpha * x` (the BLAS `axpy`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<(), TensorError> {
    check_same_shape(x, y)?;
    for (yi, &xi) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *yi += alpha * xi;
    }
    Ok(())
}

/// In-place scaling `x *= alpha`.
pub fn scale(alpha: f32, x: &mut Tensor) {
    for xi in x.as_mut_slice() {
        *xi *= alpha;
    }
}

/// Dot product of two tensors viewed as flat vectors.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f32, TensorError> {
    check_same_shape(a, b)?;
    Ok(a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x * y).sum())
}

/// Sum of all elements.
pub fn sum(a: &Tensor) -> f32 {
    a.as_slice().iter().sum()
}

/// Index and value of the maximum element of a flat slice.
///
/// Ties resolve to the lowest index; an empty slice yields `None`. A NaN
/// never beats a finite value, wherever it sits: it is the result only
/// when every element is NaN, and then the first one is.
pub fn argmax(values: &[f32]) -> Option<(usize, f32)> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv || v.is_nan() => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice_1d(v)
    }

    #[test]
    fn add_sub_mul_elementwise() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(mul(&a, &b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn binary_ops_reject_shape_mismatch() {
        let a = Tensor::zeros(Shape::d2(2, 2));
        let b = Tensor::zeros(Shape::d1(4));
        assert!(add(&a, &b).is_err());
        assert!(dot(&a, &b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let x = t(&[1.0, 1.0]);
        let mut y = t(&[1.0, 2.0]);
        axpy(0.5, &x, &mut y).unwrap();
        assert_eq!(y.as_slice(), &[1.5, 2.5]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut x = t(&[2.0, -4.0]);
        scale(0.5, &mut x);
        assert_eq!(x.as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn dot_and_sum() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(dot(&a, &b).unwrap(), 32.0);
        assert_eq!(sum(&a), 6.0);
    }

    #[test]
    fn argmax_finds_first_maximum() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some((1, 3.0)));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[-5.0]), Some((0, -5.0)));
    }

    #[test]
    fn same_length_different_shape_is_a_mismatch() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(3, 2));
        for result in [add(&a, &b), sub(&a, &b), mul(&a, &b)] {
            assert!(matches!(result, Err(TensorError::ShapeMismatch { .. })));
        }
    }

    #[test]
    fn failed_axpy_leaves_the_target_untouched() {
        let x = t(&[1.0, 1.0, 1.0]);
        let mut y = t(&[1.0, 2.0]);
        assert!(axpy(2.0, &x, &mut y).is_err());
        assert_eq!(y.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn argmax_of_all_negative_values_is_the_least_negative() {
        assert_eq!(argmax(&[-3.0, -1.0, -2.0, -1.0]), Some((1, -1.0)));
    }

    #[test]
    fn argmax_never_lets_a_nan_beat_a_finite_value() {
        assert_eq!(argmax(&[1.0, f32::NAN]), Some((0, 1.0)));
        assert_eq!(argmax(&[f32::NAN, 1.0]), Some((1, 1.0)));
        assert_eq!(argmax(&[2.0, f32::NAN, 3.0, f32::NAN]), Some((2, 3.0)));
        let (i, v) = argmax(&[f32::NAN, f32::NAN]).unwrap();
        assert_eq!(i, 0);
        assert!(v.is_nan());
    }
}
