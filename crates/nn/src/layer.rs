//! The layer abstraction shared by all network components.

use crate::descriptor::{Dims, LayerSpec};
use crate::param::Param;
use crate::{NnError, Result};
use lts_tensor::{Shape, Tensor};

/// A differentiable network layer.
///
/// A layer holds its configuration and weights and nothing else: `forward`
/// and `backward` borrow it immutably and keep no state between calls, so
/// one network serves any number of concurrent evaluations and training
/// shards. `backward` takes the input of the matching `forward` call (a
/// [`crate::network::Tape`] keeps it during training) and adds parameter
/// gradients into buffers the caller owns. Kernel scratch comes from the
/// calling thread's pool ([`lts_tensor::workspace::take`]).
pub trait Layer: Send + Sync {
    /// The layer's unique name within its network.
    fn name(&self) -> &str;

    /// The analytic geometry descriptor of this layer.
    fn spec(&self) -> LayerSpec;

    /// Runs the layer on a batch (NCHW for spatial layers, `[batch, f]` for
    /// flat layers) and returns the output batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the input shape does not match the
    /// layer's geometry.
    fn forward(&self, input: &Tensor) -> Result<Tensor>;

    /// Propagates `grad_out`, the loss gradient w.r.t. the output of
    /// `forward(input)`, back to the input. The gradients of
    /// [`Layer::params`] are added into `grads`, one buffer per parameter
    /// in the same order and shape (see [`zeroed_grads`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if `input`, `grad_out` or `grads` do
    /// not match the layer's geometry.
    fn backward(&self, input: &Tensor, grad_out: &Tensor, grads: &mut [Tensor]) -> Result<Tensor>;

    /// The layer's trainable parameters (empty for pools/activations).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// The main weight parameter (what structured sparsification operates
    /// on), if the layer has one.
    fn weight(&self) -> Option<&Param> {
        None
    }

    /// Mutable access to the main weight parameter.
    fn weight_mut(&mut self) -> Option<&mut Param> {
        None
    }

    /// Clones the layer into a boxed trait object (weights included).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Zeroed gradient buffers for `params`, one per parameter in order: what
/// [`Layer::backward`] and [`crate::Network::backward`] add into.
pub fn zeroed_grads(params: &[&Param]) -> Vec<Tensor> {
    params.iter().map(|p| Tensor::zeros(p.value.shape().clone())).collect()
}

/// The weight and bias buffers of a `[weight, bias]` layer's `grads`,
/// checked against the parameters' shapes.
pub(crate) fn weight_bias_grads<'g>(
    layer: &str,
    weight: &Param,
    bias: &Param,
    grads: &'g mut [Tensor],
) -> Result<(&'g mut Tensor, &'g mut Tensor)> {
    match grads {
        [w, b] if w.shape() == weight.value.shape() && b.shape() == bias.value.shape() => {
            Ok((w, b))
        }
        _ => Err(NnError::BadInput {
            layer: layer.to_string(),
            reason: format!(
                "expected gradient buffers of shapes {} and {}",
                weight.value.shape(),
                bias.value.shape()
            ),
        }),
    }
}

/// Checks that `input` is an NCHW batch of `dims` samples and returns its
/// batch size.
pub(crate) fn check_nchw(layer: &str, dims: Dims, input: &Tensor) -> Result<usize> {
    let (c, h, w) = dims;
    let s = input.shape();
    if s.rank() == 4 && s.dim(1) == c && s.dim(2) == h && s.dim(3) == w {
        return Ok(s.dim(0));
    }
    Err(NnError::BadInput {
        layer: layer.to_string(),
        reason: format!("expected [batch, {c}, {h}, {w}], got {s}"),
    })
}

/// Checks that an output gradient has the shape of the layer's output.
pub(crate) fn check_grad(layer: &str, expect: Shape, grad_out: &Tensor) -> Result<()> {
    if grad_out.shape() == &expect {
        return Ok(());
    }
    Err(NnError::BadInput {
        layer: layer.to_string(),
        reason: format!("expected gradient {expect}, got {}", grad_out.shape()),
    })
}
