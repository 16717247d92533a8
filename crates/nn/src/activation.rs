//! Elementwise activation layers.

use crate::descriptor::{Dims, LayerKind, LayerSpec};
use crate::layer::{check_grad, Layer};
use crate::Result;
use lts_tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
///
/// # Examples
///
/// ```
/// use lts_nn::activation::Relu;
/// use lts_nn::layer::Layer;
/// use lts_tensor::Tensor;
///
/// # fn main() -> Result<(), lts_nn::NnError> {
/// let relu = Relu::new("relu1", (1, 1, 3));
/// let y = relu.forward(&Tensor::from_slice_1d(&[-1.0, 0.0, 2.0]))?;
/// assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Relu {
    name: String,
    dims: Dims,
}

impl Relu {
    /// Creates a ReLU over activations of the given dims.
    pub fn new(name: &str, dims: Dims) -> Self {
        Self { name: name.to_string(), dims }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec {
            name: self.name.clone(),
            kind: LayerKind::Activation,
            in_dims: self.dims,
            out_dims: self.dims,
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.map(|x| x.max(0.0)))
    }

    fn backward(&self, input: &Tensor, grad_out: &Tensor, _grads: &mut [Tensor]) -> Result<Tensor> {
        check_grad(&self.name, input.shape().clone(), grad_out)?;
        let gated = grad_out.as_slice().iter().zip(input.as_slice());
        let data = gated.map(|(&g, &x)| if x > 0.0 { g } else { 0.0 }).collect();
        Ok(Tensor::from_vec(grad_out.shape().clone(), data)?)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_tensor::Shape;

    #[test]
    fn forward_clamps_negatives() {
        let r = Relu::new("r", (1, 1, 4));
        let y = r.forward(&Tensor::from_slice_1d(&[-2.0, -0.5, 0.0, 3.0])).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_gates_gradient_by_input_sign() {
        let r = Relu::new("r", (1, 1, 4));
        let x = Tensor::from_slice_1d(&[-2.0, -0.5, 0.0, 3.0]);
        let g = r.backward(&x, &Tensor::from_slice_1d(&[1.0, 1.0, 1.0, 1.0]), &mut []).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn backward_rejects_mismatched_gradient() {
        let r = Relu::new("r", (1, 1, 2));
        let x = Tensor::zeros(Shape::d1(2));
        assert!(r.backward(&x, &Tensor::zeros(Shape::d1(3)), &mut []).is_err());
    }

    #[test]
    fn spec_is_a_shape_preserving_activation() {
        let r = Relu::new("act", (3, 4, 5));
        let spec = r.spec();
        assert_eq!(spec.name, "act");
        assert_eq!(spec.kind, LayerKind::Activation);
        assert_eq!((spec.in_dims, spec.out_dims), ((3, 4, 5), (3, 4, 5)));
        assert!(!spec.has_weights());
    }
}
