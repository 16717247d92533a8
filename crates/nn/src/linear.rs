//! Fully-connected (inner-product) layer.

use crate::descriptor::{LayerKind, LayerSpec};
use crate::layer::{check_grad, weight_bias_grads, Layer};
use crate::param::Param;
use crate::{NnError, Result};
use lts_tensor::matmul::{matmul, matmul_a_bt, matmul_at_b_into};
use lts_tensor::{init, workspace, Shape, Tensor};
use rand::rngs::StdRng;

/// A fully-connected layer `y = W·x + b` with weight `[out_f, in_f]`.
///
/// Inputs are batches `[batch, in_f]`. The weight matrix is the object the
/// paper's MLP experiments sparsify: rows belong to the consumer core that
/// owns the output neuron, columns to the producer core that computed the
/// input neuron.
#[derive(Debug, Clone)]
pub struct Linear {
    name: String,
    in_f: usize,
    out_f: usize,
    weight: Param,
    bias: Param,
}

impl Linear {
    /// Creates a layer with He-normal weights drawn from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if either dimension is zero.
    pub fn new(name: &str, in_f: usize, out_f: usize, rng: &mut StdRng) -> Result<Self> {
        if in_f == 0 || out_f == 0 {
            return Err(NnError::BadConfig(format!(
                "linear layer `{name}` needs positive dims, got {in_f}x{out_f}"
            )));
        }
        Ok(Self {
            name: name.to_string(),
            in_f,
            out_f,
            weight: Param::new(init::he_normal(Shape::d2(out_f, in_f), in_f, rng)),
            bias: Param::zeros(Shape::d1(out_f)),
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_f
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_f
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.shape().rank() == 2 && input.shape().dim(1) == self.in_f {
            return Ok(());
        }
        Err(NnError::BadInput {
            layer: self.name.clone(),
            reason: format!("expected [batch, {}], got {}", self.in_f, input.shape()),
        })
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec {
            name: self.name.clone(),
            kind: LayerKind::Linear { in_f: self.in_f, out_f: self.out_f },
            in_dims: (self.in_f, 1, 1),
            out_dims: (self.out_f, 1, 1),
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        // Y[b, o] = Σ_i X[b, i] * W[o, i] + bias[o]
        let mut out = matmul_a_bt(input, &self.weight.value)?;
        let bias = self.bias.value.as_slice();
        let batch = out.shape().dim(0);
        let data = out.as_mut_slice();
        for b in 0..batch {
            for (o, &bv) in bias.iter().enumerate() {
                data[b * self.out_f + o] += bv;
            }
        }
        Ok(out)
    }

    fn backward(&self, input: &Tensor, grad_out: &Tensor, grads: &mut [Tensor]) -> Result<Tensor> {
        self.check_input(input)?;
        let batch_rows = input.shape().dim(0);
        check_grad(&self.name, Shape::d2(batch_rows, self.out_f), grad_out)?;
        let (wgrad, bgrad) = weight_bias_grads(&self.name, &self.weight, &self.bias, grads)?;
        // dW[o, i] += Σ_b dY[b, o] * X[b, i]  == dYᵀ · X, computed into a
        // pooled scratch buffer and accumulated in place.
        let mut dw = workspace::take(self.out_f * self.in_f);
        matmul_at_b_into(
            grad_out.as_slice(),
            input.as_slice(),
            &mut dw,
            self.out_f,
            batch_rows,
            self.in_f,
        );
        for (gw, &v) in wgrad.as_mut_slice().iter_mut().zip(&dw) {
            *gw += v;
        }
        workspace::give(dw);
        // db[o] += Σ_b dY[b, o]
        let g = grad_out.as_slice();
        let db = bgrad.as_mut_slice();
        for b in 0..batch_rows {
            for (o, dbv) in db.iter_mut().enumerate() {
                *dbv += g[b * self.out_f + o];
            }
        }
        // dX = dY · W
        Ok(matmul(grad_out, &self.weight.value)?)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn weight(&self) -> Option<&Param> {
        Some(&self.weight)
    }

    fn weight_mut(&mut self) -> Option<&mut Param> {
        Some(&mut self.weight)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::zeroed_grads;

    fn layer_with_weights(w: Vec<f32>, bias: Vec<f32>, in_f: usize, out_f: usize) -> Linear {
        let mut rng = init::rng(0);
        let mut l = Linear::new("ip", in_f, out_f, &mut rng).unwrap();
        l.weight.value = Tensor::from_vec(Shape::d2(out_f, in_f), w).unwrap();
        l.bias.value = Tensor::from_vec(Shape::d1(out_f), bias).unwrap();
        l
    }

    #[test]
    fn forward_matches_hand_computation() {
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5], x = [1, 1]
        let l = layer_with_weights(vec![1., 2., 3., 4.], vec![0.5, -0.5], 2, 2);
        let y = l.forward(&Tensor::from_vec(Shape::d2(1, 2), vec![1., 1.]).unwrap()).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_produces_correct_gradients() {
        let l = layer_with_weights(vec![1., 2., 3., 4.], vec![0., 0.], 2, 2);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![5., 7.]).unwrap();
        let dy = Tensor::from_vec(Shape::d2(1, 2), vec![1., 2.]).unwrap();
        let mut grads = zeroed_grads(&l.params());
        let dx = l.backward(&x, &dy, &mut grads).unwrap();
        // dX = dY · W = [1*1+2*3, 1*2+2*4] = [7, 10]
        assert_eq!(dx.as_slice(), &[7., 10.]);
        // dW = dYᵀ · X = [[5,7],[10,14]]
        assert_eq!(grads[0].as_slice(), &[5., 7., 10., 14.]);
        assert_eq!(grads[1].as_slice(), &[1., 2.]);
        // The buffers accumulate: a second pass doubles them.
        l.backward(&x, &dy, &mut grads).unwrap();
        assert_eq!(grads[1].as_slice(), &[2., 4.]);
    }

    #[test]
    fn numerical_gradient_check() {
        // Finite-difference check of dL/dW for L = sum(y).
        let mut rng = init::rng(42);
        let mut l = Linear::new("ip", 3, 2, &mut rng).unwrap();
        let x = init::uniform(Shape::d2(2, 3), 1.0, &mut rng);
        let eps = 1e-3;
        let idx = 4; // some weight entry
        let base = l.weight.value.as_slice()[idx];

        l.weight.value.as_mut_slice()[idx] = base + eps;
        let y_plus: f32 = l.forward(&x).unwrap().as_slice().iter().sum();
        l.weight.value.as_mut_slice()[idx] = base - eps;
        let y_minus: f32 = l.forward(&x).unwrap().as_slice().iter().sum();
        let numeric = (y_plus - y_minus) / (2.0 * eps);

        l.weight.value.as_mut_slice()[idx] = base;
        let ones = Tensor::ones(Shape::d2(2, 2));
        let mut grads = zeroed_grads(&l.params());
        l.backward(&x, &ones, &mut grads).unwrap();
        let analytic = grads[0].as_slice()[idx];
        assert!((numeric - analytic).abs() < 1e-2, "{numeric} vs {analytic}");
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut rng = init::rng(0);
        let l = Linear::new("ip", 3, 2, &mut rng).unwrap();
        assert!(l.forward(&Tensor::zeros(Shape::d2(1, 4))).is_err());
        assert!(Linear::new("z", 0, 2, &mut rng).is_err());
        let mut grads = zeroed_grads(&l.params());
        let x = Tensor::zeros(Shape::d2(1, 3));
        assert!(l.backward(&x, &Tensor::zeros(Shape::d2(1, 3)), &mut grads).is_err());
        assert!(l.backward(&x, &Tensor::zeros(Shape::d2(1, 2)), &mut grads[1..]).is_err());
    }

    #[test]
    fn batch_forward_is_per_row() {
        let l = layer_with_weights(vec![1., 0., 0., 1.], vec![0., 0.], 2, 2);
        let x = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[1., 2., 3., 4.]);
    }
}
