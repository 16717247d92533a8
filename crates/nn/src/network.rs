//! Sequential network container and builder.

use crate::descriptor::{dims_len, Dims, LayerKind, LayerSpec, NetworkSpec};
use crate::layer::Layer;
use crate::param::Param;
use crate::{activation::Relu, conv::Conv2d, linear::Linear, pool::MaxPool2d};
use crate::{NnError, Result};
use lts_tensor::{par, Shape, Tensor};
use rand::rngs::StdRng;
use std::borrow::Cow;

/// Structural adapter collapsing NCHW activations to `[batch, features]`.
#[derive(Debug, Clone)]
pub struct Flatten {
    in_dims: Dims,
}

impl Flatten {
    /// Creates a flatten layer for inputs of the given dims.
    pub fn new(in_dims: Dims) -> Self {
        Self { in_dims }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec {
            name: "flatten".into(),
            kind: LayerKind::Flatten,
            in_dims: self.in_dims,
            out_dims: (dims_len(self.in_dims), 1, 1),
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let batch = input.shape().dim(0);
        Ok(input.reshaped(Shape::d2(batch, input.len() / batch.max(1)))?)
    }

    fn backward(&self, input: &Tensor, grad_out: &Tensor, _grads: &mut [Tensor]) -> Result<Tensor> {
        Ok(grad_out.reshaped(input.shape().clone())?)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// The input of every layer of one training forward pass, in layer order.
///
/// Only [`Network::forward_train`] makes a tape and only
/// [`Network::backward`] consumes one, so a backward pass cannot run
/// without the forward pass it differentiates.
#[derive(Debug)]
pub struct Tape {
    inputs: Vec<Tensor>,
}

/// A feed-forward network: an ordered chain of layers.
///
/// # Examples
///
/// ```
/// use lts_nn::network::NetworkBuilder;
/// use lts_tensor::{init, Shape, Tensor};
///
/// # fn main() -> Result<(), lts_nn::NnError> {
/// let mut rng = init::rng(1);
/// let net = NetworkBuilder::new("tiny", (1, 8, 8))
///     .conv("conv1", 4, 3, 1, 1, 1)
///     .relu()
///     .pool("pool1", 2, 2)
///     .flatten()
///     .linear("ip1", 10)
///     .build(&mut rng)?;
/// let out = net.forward(&Tensor::zeros(Shape::d4(2, 1, 8, 8)))?;
/// assert_eq!(out.shape().dims(), &[2, 10]);
/// # Ok(())
/// # }
/// ```
pub struct Network {
    name: String,
    input: Dims,
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Self { name: self.name.clone(), input: self.input, layers: self.layers.clone() }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field("input", &self.input)
            .field("layers", &self.layers.iter().map(|l| l.name().to_string()).collect::<Vec<_>>())
            .finish()
    }
}

impl Network {
    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input dims `(c, h, w)`.
    pub fn input_dims(&self) -> Dims {
        self.input
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The analytic descriptor of the whole network.
    pub fn spec(&self) -> NetworkSpec {
        NetworkSpec {
            name: self.name.clone(),
            input: self.input,
            layers: self.layers.iter().map(|l| l.spec()).collect(),
        }
    }

    /// Runs a full forward pass over a batch and keeps no activations.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (usually a shape mismatch).
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.run(Cow::Borrowed(input), None)
    }

    /// Runs the same forward pass as [`Network::forward`] and also returns
    /// the [`Tape`] of layer inputs that [`Network::backward`] needs.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (usually a shape mismatch).
    pub fn forward_train(&self, input: Tensor) -> Result<(Tensor, Tape)> {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let out = self.run(Cow::Owned(input), Some(&mut inputs))?;
        Ok((out, Tape { inputs }))
    }

    /// The forward loop shared by evaluation and training: each layer's
    /// input is moved onto `tape` when there is one and dropped otherwise.
    fn run(&self, input: Cow<'_, Tensor>, mut tape: Option<&mut Vec<Tensor>>) -> Result<Tensor> {
        let _probe = lts_obs::span("nn.forward");
        let mut current = input;
        for layer in &self.layers {
            let _layer_probe = lts_obs::span(layer.name());
            let next = layer.forward(&current)?;
            if let Some(tape) = tape.as_deref_mut() {
                tape.push(current.into_owned());
            }
            current = Cow::Owned(next);
        }
        Ok(current.into_owned())
    }

    /// Back-propagates the loss gradient `grad` of the forward pass that
    /// recorded `tape`, adding the parameter gradients into `grads` (one
    /// buffer per [`Network::params`] entry, in order; see
    /// [`crate::layer::zeroed_grads`]). Returns the input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if `grads` does not match the
    /// parameters or the tape is not this network's, and propagates layer
    /// errors (shape mismatches).
    pub fn backward(&self, tape: Tape, grad: &Tensor, grads: &mut [Tensor]) -> Result<Tensor> {
        let _probe = lts_obs::span("nn.backward");
        let counts: Vec<usize> = self.layers.iter().map(|l| l.params().len()).collect();
        if tape.inputs.len() != self.layers.len() || grads.len() != counts.iter().sum::<usize>() {
            return Err(NnError::BadInput {
                layer: "backward".into(),
                reason: format!(
                    "{} tape entries and {} gradient buffers for {} layers",
                    tape.inputs.len(),
                    grads.len(),
                    self.layers.len()
                ),
            });
        }
        let mut end = grads.len();
        let mut current = Cow::Borrowed(grad);
        let steps = self.layers.iter().zip(counts).zip(tape.inputs).rev();
        for ((layer, count), input) in steps {
            let _layer_probe = lts_obs::span(layer.name());
            let start = end - count;
            current = Cow::Owned(layer.backward(&input, &current, &mut grads[start..end])?);
            end = start;
        }
        Ok(current.into_owned())
    }

    /// All trainable parameters, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All trainable parameters, mutably, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Clears all parameter gradients.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Immutable access to the layer called `name`.
    pub fn layer(&self, name: &str) -> Option<&dyn Layer> {
        self.layers.iter().find(|l| l.name() == name).map(|b| b.as_ref())
    }

    /// Mutable access to the layer called `name`.
    pub fn layer_mut(&mut self, name: &str) -> Option<&mut Box<dyn Layer>> {
        self.layers.iter_mut().find(|l| l.name() == name)
    }

    /// Mutable access to the weight parameter of the layer called `name`.
    pub fn layer_weight_mut(&mut self, name: &str) -> Option<&mut Param> {
        self.layers.iter_mut().find(|l| l.name() == name).and_then(|l| l.weight_mut())
    }

    /// The weight parameter of the layer called `name`.
    pub fn layer_weight(&self, name: &str) -> Option<&Param> {
        self.layers.iter().find(|l| l.name() == name).and_then(|l| l.weight())
    }

    /// The layer chain, in order.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|l| l.as_ref())
    }

    /// Quantizes every parameter through the accelerator's 16-bit
    /// fixed-point format (what the simulated chip computes with).
    pub fn quantize_weights(&mut self) {
        for p in self.params_mut() {
            lts_tensor::fixed::quantize_dequantize_in_place(p.value.as_mut_slice());
        }
    }

    /// Predicted class per sample of a batch.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn predict(&self, batch: &Tensor) -> Result<Vec<usize>> {
        Ok(predictions(&self.forward(batch)?))
    }

    /// Classification accuracy on `(inputs, labels)`, evaluated in batches
    /// of `batch_size`.
    ///
    /// # Errors
    ///
    /// Propagates forward errors; returns [`NnError::BadInput`] if the
    /// label count disagrees with the input batch dimension.
    pub fn evaluate(&self, inputs: &Tensor, labels: &[usize], batch_size: usize) -> Result<f32> {
        let forward = || |batch: &Tensor| self.forward(batch);
        batched_accuracy("evaluate", inputs, labels, batch_size, 1, forward)
    }
}

/// The arg-max class of every row of a `[batch, classes]` logit matrix.
pub(crate) fn predictions(logits: &Tensor) -> Vec<usize> {
    let (rows, classes) = (logits.shape().dim(0), logits.shape().dim(1));
    let row = |b: usize| &logits.as_slice()[b * classes..(b + 1) * classes];
    (0..rows).map(|b| lts_tensor::ops::argmax(row(b)).map_or(0, |(i, _)| i)).collect()
}

/// Classification accuracy of a forward function on `(inputs, labels)`.
///
/// The samples are split into `stripes` contiguous ranges that run
/// data-parallel; each range gets its own forward function from
/// `forward_for` and runs it in batches of `batch_size`, counting the
/// samples whose arg-max logit is their label. A sample's logits do not
/// depend on its batchmates, so the accuracy does not depend on `stripes`,
/// `batch_size` or the engine's worker count. `caller` names the entry
/// point in the label-count error.
pub(crate) fn batched_accuracy<F>(
    caller: &str,
    inputs: &Tensor,
    labels: &[usize],
    batch_size: usize,
    stripes: usize,
    forward_for: impl Fn() -> F + Sync,
) -> Result<f32>
where
    F: FnMut(&Tensor) -> Result<Tensor>,
{
    let total = inputs.shape().dim(0);
    if labels.len() != total {
        return Err(NnError::BadInput {
            layer: caller.into(),
            reason: format!("{} labels for {total} inputs", labels.len()),
        });
    }
    if total == 0 {
        return Ok(0.0);
    }
    let sample_len = inputs.len() / total;
    let ranges = par::stripe_ranges(total, stripes.clamp(1, total));
    let counts = par::par_map(&ranges, |_, range| -> Result<usize> {
        let mut forward = forward_for();
        let mut correct = 0;
        for start in range.clone().step_by(batch_size.max(1)) {
            let end = (start + batch_size.max(1)).min(range.end);
            let mut dims = inputs.shape().dims().to_vec();
            dims[0] = end - start;
            let slice = inputs.as_slice()[start * sample_len..end * sample_len].to_vec();
            let logits = forward(&Tensor::from_vec(Shape::new(dims), slice)?)?;
            let hits = predictions(&logits).into_iter().zip(&labels[start..end]);
            correct += hits.filter(|(p, l)| p == *l).count();
        }
        Ok(correct)
    });
    let mut correct = 0usize;
    for count in counts {
        correct += count?;
    }
    Ok(correct as f32 / total as f32)
}

/// Builds a [`Network`] layer by layer, tracking activation dims.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    input: Dims,
    current: Dims,
    ops: Vec<BuilderOp>,
    auto_relu: usize,
}

#[derive(Debug, Clone)]
enum BuilderOp {
    Conv {
        name: String,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        in_dims: Dims,
    },
    Pool {
        name: String,
        kernel: usize,
        stride: usize,
        in_dims: Dims,
    },
    AvgPool {
        name: String,
        kernel: usize,
        stride: usize,
        in_dims: Dims,
    },
    Relu {
        name: String,
        dims: Dims,
    },
    Flatten {
        in_dims: Dims,
    },
    Linear {
        name: String,
        in_f: usize,
        out_f: usize,
    },
}

impl NetworkBuilder {
    /// Starts a network for inputs of `input` dims.
    pub fn new(name: &str, input: Dims) -> Self {
        Self { name: name.to_string(), input, current: input, ops: Vec::new(), auto_relu: 0 }
    }

    /// Current activation dims.
    pub fn current_dims(&self) -> Dims {
        self.current
    }

    /// Appends a (possibly grouped) convolution.
    pub fn conv(
        mut self,
        name: &str,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Self {
        let in_dims = self.current;
        let oh = crate::descriptor::conv_out(in_dims.1, kernel, stride, pad);
        let ow = crate::descriptor::conv_out(in_dims.2, kernel, stride, pad);
        self.ops.push(BuilderOp::Conv {
            name: name.into(),
            out_c,
            kernel,
            stride,
            pad,
            groups,
            in_dims,
        });
        self.current = (out_c, oh, ow);
        self
    }

    /// Appends a max-pooling layer.
    pub fn pool(mut self, name: &str, kernel: usize, stride: usize) -> Self {
        let in_dims = self.current;
        let oh = crate::descriptor::pool_out(in_dims.1, kernel, stride);
        let ow = crate::descriptor::pool_out(in_dims.2, kernel, stride);
        self.ops.push(BuilderOp::Pool { name: name.into(), kernel, stride, in_dims });
        self.current = (in_dims.0, oh, ow);
        self
    }

    /// Appends an average-pooling layer.
    pub fn avg_pool(mut self, name: &str, kernel: usize, stride: usize) -> Self {
        let in_dims = self.current;
        let oh = crate::descriptor::pool_out(in_dims.1, kernel, stride);
        let ow = crate::descriptor::pool_out(in_dims.2, kernel, stride);
        self.ops.push(BuilderOp::AvgPool { name: name.into(), kernel, stride, in_dims });
        self.current = (in_dims.0, oh, ow);
        self
    }

    /// Appends a ReLU.
    pub fn relu(mut self) -> Self {
        self.auto_relu += 1;
        self.ops
            .push(BuilderOp::Relu { name: format!("relu{}", self.auto_relu), dims: self.current });
        self
    }

    /// Appends a flatten adapter.
    pub fn flatten(mut self) -> Self {
        let in_dims = self.current;
        self.ops.push(BuilderOp::Flatten { in_dims });
        self.current = (dims_len(in_dims), 1, 1);
        self
    }

    /// Appends a fully-connected layer.
    pub fn linear(mut self, name: &str, out_f: usize) -> Self {
        let in_f = dims_len(self.current);
        self.ops.push(BuilderOp::Linear { name: name.into(), in_f, out_f });
        self.current = (out_f, 1, 1);
        self
    }

    /// Instantiates all layers with weights drawn from `rng`.
    ///
    /// # Errors
    ///
    /// Returns the first layer-construction error (invalid geometry).
    pub fn build(self, rng: &mut StdRng) -> Result<Network> {
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(self.ops.len());
        for op in self.ops {
            match op {
                BuilderOp::Conv { name, out_c, kernel, stride, pad, groups, in_dims } => {
                    layers.push(Box::new(Conv2d::new(
                        &name, in_dims, out_c, kernel, stride, pad, groups, rng,
                    )?));
                }
                BuilderOp::Pool { name, kernel, stride, in_dims } => {
                    layers.push(Box::new(MaxPool2d::new(&name, in_dims, kernel, stride)?));
                }
                BuilderOp::AvgPool { name, kernel, stride, in_dims } => {
                    layers.push(Box::new(crate::pool::AvgPool2d::new(
                        &name, in_dims, kernel, stride,
                    )?));
                }
                BuilderOp::Relu { name, dims } => layers.push(Box::new(Relu::new(&name, dims))),
                BuilderOp::Flatten { in_dims } => layers.push(Box::new(Flatten::new(in_dims))),
                BuilderOp::Linear { name, in_f, out_f } => {
                    layers.push(Box::new(Linear::new(&name, in_f, out_f, rng)?));
                }
            }
        }
        Ok(Network { name: self.name, input: self.input, layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::zeroed_grads;
    use lts_tensor::init;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = init::rng(seed);
        NetworkBuilder::new("tiny", (1, 6, 6))
            .conv("conv1", 2, 3, 1, 1, 1)
            .relu()
            .pool("pool1", 2, 2)
            .flatten()
            .linear("ip1", 4)
            .build(&mut rng)
            .unwrap()
    }

    #[test]
    fn forward_produces_logits_of_right_shape() {
        let net = tiny_net(1);
        let out = net.forward(&Tensor::zeros(Shape::d4(3, 1, 6, 6))).unwrap();
        assert_eq!(out.shape().dims(), &[3, 4]);
    }

    #[test]
    fn spec_matches_live_layers() {
        let net = tiny_net(2);
        let spec = net.spec();
        assert_eq!(spec.layer("conv1").unwrap().out_dims, (2, 6, 6));
        assert_eq!(spec.layer("ip1").unwrap().in_dims, (2 * 3 * 3, 1, 1));
        let weighted = net.layers().filter(|l| l.weight().is_some()).map(|l| l.name());
        assert_eq!(weighted.collect::<Vec<_>>(), spec.weight_layer_names());
        assert_eq!(spec.weight_layer_names(), vec!["conv1", "ip1"]);
    }

    #[test]
    fn backward_runs_after_forward_and_fills_grads() {
        let net = tiny_net(3);
        let x = init::uniform(Shape::d4(2, 1, 6, 6), 1.0, &mut init::rng(0));
        let (y, tape) = net.forward_train(x.clone()).unwrap();
        assert_eq!(y, net.forward(&x).unwrap());
        let mut grads = zeroed_grads(&net.params());
        let dx = net.backward(tape, &Tensor::ones(y.shape().clone()), &mut grads).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert!(grads.iter().any(|g| g.as_slice().iter().any(|&v| v != 0.0)));
        // Gradient buffers that do not match the parameters are rejected.
        let (_, tape) = net.forward_train(x).unwrap();
        assert!(net.backward(tape, &Tensor::ones(y.shape().clone()), &mut grads[1..]).is_err());
    }

    #[test]
    fn clone_is_deep() {
        let a = tiny_net(4);
        let mut b = a.clone();
        let x = init::uniform(Shape::d4(1, 1, 6, 6), 1.0, &mut init::rng(0));
        let ya = a.forward(&x).unwrap();
        // Mutating the clone's weights must not affect the original.
        b.layer_weight_mut("ip1").unwrap().value.fill(0.0);
        let ya2 = a.forward(&x).unwrap();
        assert_eq!(ya, ya2);
        let yb = b.forward(&x).unwrap();
        assert_ne!(ya, yb);
    }

    #[test]
    fn evaluate_counts_accuracy() {
        let net = tiny_net(5);
        let x = init::uniform(Shape::d4(4, 1, 6, 6), 1.0, &mut init::rng(1));
        let preds = net.predict(&x).unwrap();
        let acc = net.evaluate(&x, &preds, 2).unwrap();
        assert_eq!(acc, 1.0);
        let wrong: Vec<usize> = preds.iter().map(|&p| (p + 1) % 4).collect();
        let acc0 = net.evaluate(&x, &wrong, 3).unwrap();
        assert_eq!(acc0, 0.0);
    }

    #[test]
    fn evaluate_rejects_mismatched_labels() {
        let net = tiny_net(6);
        let x = Tensor::zeros(Shape::d4(2, 1, 6, 6));
        assert!(net.evaluate(&x, &[0], 2).is_err());
    }

    #[test]
    fn quantize_weights_rounds_to_fixed_grid() {
        let mut net = tiny_net(7);
        net.quantize_weights();
        let step = lts_tensor::Fixed16::resolution();
        for p in net.params_mut() {
            for &w in p.value.as_slice() {
                let q = (w / step).round() * step;
                assert!((w - q).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn flatten_backward_restores_shape() {
        let f = Flatten::new((2, 3, 3));
        let x = Tensor::zeros(Shape::d4(2, 2, 3, 3));
        let y = f.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 18]);
        let g = f.backward(&x, &y, &mut []).unwrap();
        assert_eq!(g.shape().dims(), &[2, 2, 3, 3]);
    }
}
