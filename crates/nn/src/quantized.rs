//! End-to-end 16-bit quantized inference.
//!
//! [`QuantizedNetwork`] is built from a trained f32 [`Network`] by a
//! *calibration pass*: a sample of the dataset is run through the f32
//! layers and each weight-bearing layer records the min/max of its input
//! activations, from which a per-tensor symmetric scale
//! ([`lts_tensor::quant::QuantParams`]) is chosen. Weights are scaled
//! from their own min/max. At inference time, `Conv2d`/`Linear` forward
//! passes run entirely in i16 (quantize input → the column unroll the f32
//! convolution uses → i16 A·B GEMM with i32 accumulators, which skips the
//! zero runs of the weight rows → dequantize with `in_scale · w_scale`,
//! add the f32 bias), while
//! pooling, activations, flatten, and the loss stay in
//! f32 — the *dequantize-at-boundary* convention, matching the paper's
//! chip where the 16-bit MAC arrays do the heavy lifting and per-value
//! NoC traffic is 2 bytes (Table I/II).
//!
//! Zero survives quantization exactly (symmetric scales map 0.0 to code
//! 0), so sparsified/pruned weights stay zero in i16 and the zero-valued
//! activations that the sparsified strategies elide from the NoC remain
//! genuinely zero.
//!
//! Each quantized stage owns reusable scratch buffers (`Vec<i16>`/
//! `Vec<i32>`, grown once, reused every batch), so steady-state inference
//! allocates only its output tensors; that is why its forward pass takes
//! `&mut self` where the f32 layers borrow their weights immutably.

use crate::descriptor::{Dims, LayerKind};
use crate::layer::{check_nchw, Layer};
use crate::network::{batched_accuracy, predictions, Network};
use crate::{NnError, Result};
use lts_tensor::im2col::{im2col_into, ConvGeometry};
use lts_tensor::qmatmul::matmul_i16_into;
use lts_tensor::quant::QuantParams;
use lts_tensor::{Shape, Tensor};

/// Quantized grouped 2-D convolution: i16 weights + activations, i32
/// accumulation, f32 output.
#[derive(Debug, Clone)]
pub struct QuantConv2d {
    name: String,
    in_dims: Dims,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    wq: Vec<i16>,
    bias: Vec<f32>,
    w_params: QuantParams,
    in_params: QuantParams,
    qin: Vec<i16>,
    unrolled: Vec<i16>,
    prod: Vec<i32>,
}

impl QuantConv2d {
    fn group_geometry(&self) -> ConvGeometry {
        ConvGeometry {
            in_c: self.in_dims.0 / self.groups,
            in_h: self.in_dims.1,
            in_w: self.in_dims.2,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    fn out_dims(&self) -> Dims {
        let g = self.group_geometry();
        (self.out_c, g.out_h(), g.out_w())
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let batch = check_nchw(&self.name, self.in_dims, input)?;
        let (c, h, w) = self.in_dims;
        let (out_c, oh, ow) = self.out_dims();
        let geom = self.group_geometry();
        let icg = c / self.groups;
        let ocg = out_c / self.groups;
        let positions = oh * ow;
        let row = geom.col_rows();
        let wrow = icg * self.kernel * self.kernel;
        let mut out = Tensor::zeros(Shape::d4(batch, out_c, oh, ow));
        self.qin.resize(icg * h * w, 0);
        self.unrolled.resize(row * positions, 0);
        self.prod.resize(ocg * positions, 0);
        let (inp, rescale) = (self.in_params, self.in_params.scale() * self.w_params.scale());
        let src = input.as_slice();
        let dst = out.as_mut_slice();
        for n in 0..batch {
            for g in 0..self.groups {
                let start = (n * c + g * icg) * h * w;
                inp.quantize_into(&src[start..start + icg * h * w], &mut self.qin);
                im2col_into(&self.qin, &geom, &mut self.unrolled);
                // prod[oc, pos] = Σ_r Wq[oc, r] · unrolled[r, pos]: the weight
                // rows are A, so their SS_Mask zero blocks are skipped.
                let wmat = &self.wq[g * ocg * wrow..(g + 1) * ocg * wrow];
                matmul_i16_into(wmat, &self.unrolled, &mut self.prod, ocg, row, positions);
                // The group's output channels are contiguous, laid out as prod.
                let out = &mut dst[(n * out_c + g * ocg) * positions..][..ocg * positions];
                let rows = out.chunks_exact_mut(positions).zip(self.prod.chunks_exact(positions));
                for ((o, p), &b) in rows.zip(&self.bias[g * ocg..]) {
                    for (d, &x) in o.iter_mut().zip(p) {
                        *d = x as f32 * rescale + b;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Quantized fully-connected layer: i16 weights + activations, i32
/// accumulation, f32 output.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    name: String,
    in_f: usize,
    out_f: usize,
    /// The quantized weights transposed once, `[in_f, out_f]`: the B of
    /// the i16 A·B kernel.
    wqt: Vec<i16>,
    bias: Vec<f32>,
    w_params: QuantParams,
    in_params: QuantParams,
    qin: Vec<i16>,
    prod: Vec<i32>,
}

impl QuantLinear {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if input.shape().rank() != 2 || input.shape().dim(1) != self.in_f {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!("expected [batch, {}], got {}", self.in_f, input.shape()),
            });
        }
        let batch = input.shape().dim(0);
        let mut out = Tensor::zeros(Shape::d2(batch, self.out_f));
        self.qin.resize(batch * self.in_f, 0);
        self.prod.resize(batch * self.out_f, 0);
        self.in_params.quantize_into(input.as_slice(), &mut self.qin);
        // Y[b, o] = Σ_i Xq[b, i] · Wqᵀ[i, o].
        matmul_i16_into(&self.qin, &self.wqt, &mut self.prod, batch, self.in_f, self.out_f);
        let rescale = self.in_params.scale() * self.w_params.scale();
        let dst = out.as_mut_slice();
        for b in 0..batch {
            for (o, &bv) in self.bias.iter().enumerate() {
                dst[b * self.out_f + o] = self.prod[b * self.out_f + o] as f32 * rescale + bv;
            }
        }
        Ok(out)
    }
}

/// One stage of a quantized network: either a quantized weighted layer or
/// the retained f32 layer (pooling/activation/flatten — and any
/// weighted layer kind the quantizer does not recognize, kept in f32
/// rather than silently mis-quantized).
enum QuantStage {
    Conv(QuantConv2d),
    Linear(QuantLinear),
    Passthrough(Box<dyn Layer>),
}

impl Clone for QuantStage {
    fn clone(&self) -> Self {
        match self {
            QuantStage::Conv(c) => QuantStage::Conv(c.clone()),
            QuantStage::Linear(l) => QuantStage::Linear(l.clone()),
            QuantStage::Passthrough(p) => QuantStage::Passthrough(p.clone_box()),
        }
    }
}

impl QuantStage {
    fn name(&self) -> &str {
        match self {
            QuantStage::Conv(c) => &c.name,
            QuantStage::Linear(l) => &l.name,
            QuantStage::Passthrough(p) => p.name(),
        }
    }
}

/// A 16-bit quantized inference network built from a trained f32
/// [`Network`] via a calibration pass.
///
/// # Examples
///
/// ```
/// use lts_nn::network::NetworkBuilder;
/// use lts_nn::quantized::QuantizedNetwork;
/// use lts_tensor::{init, Shape, Tensor};
///
/// # fn main() -> Result<(), lts_nn::NnError> {
/// let mut rng = init::rng(1);
/// let net = NetworkBuilder::new("tiny", (1, 8, 8))
///     .conv("conv1", 4, 3, 1, 1, 1)
///     .relu()
///     .flatten()
///     .linear("ip1", 10)
///     .build(&mut rng)?;
/// let calib = init::uniform(Shape::d4(4, 1, 8, 8), 1.0, &mut rng);
/// let mut qnet = QuantizedNetwork::from_network(&net, &calib)?;
/// let out = qnet.forward(&Tensor::zeros(Shape::d4(2, 1, 8, 8)))?;
/// assert_eq!(out.shape().dims(), &[2, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct QuantizedNetwork {
    name: String,
    stages: Vec<QuantStage>,
}

impl std::fmt::Debug for QuantizedNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedNetwork")
            .field("name", &self.name)
            .field("stages", &self.stages.len())
            .finish()
    }
}

impl QuantizedNetwork {
    /// Builds the quantized network from a trained f32 network and a
    /// calibration batch (a representative sample of inputs; a few dozen
    /// samples suffice — the pass only collects activation ranges).
    ///
    /// # Errors
    ///
    /// Propagates layer errors from the calibration forward pass (usually
    /// a calibration-batch shape mismatch).
    pub fn from_network(network: &Network, calibration: &Tensor) -> Result<Self> {
        let _probe = lts_obs::span("nn.quantize_calibrate");
        let mut stages = Vec::with_capacity(network.len());
        let mut current: Option<Tensor> = None;
        for layer in network.layers() {
            let input = current.as_ref().unwrap_or(calibration);
            let stage = match (layer.weight().is_some(), layer.spec().kind) {
                (true, LayerKind::Conv { out_c, kernel, stride, pad, groups }) => {
                    let spec = layer.spec();
                    // √k headroom on both operands of the length-k GEMM
                    // reduction (k = icg·kh·kw receptive-field taps) keeps
                    // the i32 accumulators overflow-free by construction.
                    let head = (((spec.in_dims.0 / groups) * kernel * kernel) as f32).sqrt();
                    let in_params = QuantParams::from_slice_with_headroom(input.as_slice(), head);
                    let params = layer.params();
                    let (weight, bias) = (params[0].value.as_slice(), params[1].value.as_slice());
                    let w_params = QuantParams::from_slice_with_headroom(weight, head);
                    let mut wq = vec![0i16; weight.len()];
                    w_params.quantize_into(weight, &mut wq);
                    Some(QuantStage::Conv(QuantConv2d {
                        name: layer.name().to_string(),
                        in_dims: spec.in_dims,
                        out_c,
                        kernel,
                        stride,
                        pad,
                        groups,
                        wq,
                        bias: bias.to_vec(),
                        w_params,
                        in_params,
                        qin: Vec::new(),
                        unrolled: Vec::new(),
                        prod: Vec::new(),
                    }))
                }
                (true, LayerKind::Linear { in_f, out_f }) => {
                    // √k headroom with k = in_f (see the Conv arm).
                    let head = (in_f as f32).sqrt();
                    let in_params = QuantParams::from_slice_with_headroom(input.as_slice(), head);
                    let params = layer.params();
                    let (weight, bias) = (params[0].value.as_slice(), params[1].value.as_slice());
                    let w_params = QuantParams::from_slice_with_headroom(weight, head);
                    let wqt = (0..in_f * out_f)
                        .map(|x| w_params.quantize(weight[(x % out_f) * in_f + x / out_f]))
                        .collect();
                    Some(QuantStage::Linear(QuantLinear {
                        name: layer.name().to_string(),
                        in_f,
                        out_f,
                        wqt,
                        bias: bias.to_vec(),
                        w_params,
                        in_params,
                        qin: Vec::new(),
                        prod: Vec::new(),
                    }))
                }
                _ => None,
            };
            current = Some(layer.forward(input)?);
            stages.push(stage.unwrap_or_else(|| QuantStage::Passthrough(layer.clone_box())));
        }
        Ok(QuantizedNetwork { name: format!("{}_i16", network.name()), stages })
    }

    /// The network's name (`<f32 name>_i16`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of the stages that run quantized (i16) kernels, in order.
    pub fn quantized_stage_names(&self) -> Vec<String> {
        self.stages
            .iter()
            .filter(|s| !matches!(s, QuantStage::Passthrough(_)))
            .map(|s| s.name().to_string())
            .collect()
    }

    /// The `(input_scale, weight_scale)` pair of a quantized stage, if
    /// `name` names one.
    pub fn stage_scales(&self, name: &str) -> Option<(f32, f32)> {
        self.stages.iter().find(|s| s.name() == name).and_then(|s| match s {
            QuantStage::Conv(c) => Some((c.in_params.scale(), c.w_params.scale())),
            QuantStage::Linear(l) => Some((l.in_params.scale(), l.w_params.scale())),
            QuantStage::Passthrough(_) => None,
        })
    }

    /// Runs a full quantized forward pass over a batch.
    ///
    /// # Errors
    ///
    /// Propagates the first stage error (usually a shape mismatch).
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let _probe = lts_obs::span("nn.forward_i16");
        let mut current: Option<Tensor> = None;
        for stage in &mut self.stages {
            let _stage_probe = lts_obs::span(stage.name());
            let input = current.as_ref().unwrap_or(input);
            current = Some(match stage {
                QuantStage::Conv(c) => c.forward(input)?,
                QuantStage::Linear(l) => l.forward(input)?,
                QuantStage::Passthrough(p) => p.forward(input)?,
            });
        }
        Ok(current.unwrap_or_else(|| input.clone()))
    }

    /// Predicted class per sample of a batch.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn predict(&mut self, batch: &Tensor) -> Result<Vec<usize>> {
        Ok(predictions(&self.forward(batch)?))
    }

    /// Classification accuracy on `(inputs, labels)` in batches of
    /// `batch_size` — the quantized mirror of [`Network::evaluate`]. It
    /// runs on a copy of the network, whose stage buffers it owns.
    ///
    /// # Errors
    ///
    /// Propagates forward errors; returns [`NnError::BadInput`] if the
    /// label count disagrees with the input batch dimension.
    pub fn evaluate(&self, inputs: &Tensor, labels: &[usize], batch_size: usize) -> Result<f32> {
        batched_accuracy("evaluate", inputs, labels, batch_size, 1, || self.stripe_forward())
    }

    /// A forward function over a private copy of the network, for one
    /// stripe of a batched evaluation.
    fn stripe_forward(&self) -> impl FnMut(&Tensor) -> Result<Tensor> {
        let mut local = self.clone();
        move |batch| local.forward(batch)
    }
}

/// Data-parallel quantized accuracy: the i16 twin of
/// [`crate::trainer::parallel_accuracy`], with the identical contiguous
/// chunk decomposition, so the result is independent of `threads` and of
/// the engine worker count (quantized forward passes are integer-exact
/// per sample). Every chunk runs on its own copy of the network.
///
/// # Errors
///
/// Propagates forward errors from any worker.
pub fn quantized_parallel_accuracy(
    net: &QuantizedNetwork,
    inputs: &Tensor,
    labels: &[usize],
    batch_size: usize,
    threads: usize,
) -> Result<f32> {
    let forward = || net.stripe_forward();
    batched_accuracy("quantized_parallel_accuracy", inputs, labels, batch_size, threads, forward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use lts_tensor::init;

    fn tiny_net(seed: u64) -> (Network, Tensor) {
        let mut rng = init::rng(seed);
        let net = NetworkBuilder::new("tiny", (1, 8, 8))
            .conv("conv1", 4, 3, 1, 1, 1)
            .relu()
            .pool("pool1", 2, 2)
            .flatten()
            .linear("ip1", 10)
            .build(&mut rng)
            .unwrap();
        let calib = init::uniform(Shape::d4(8, 1, 8, 8), 1.0, &mut rng);
        (net, calib)
    }

    #[test]
    fn quantized_forward_tracks_f32_forward() {
        let (net, calib) = tiny_net(3);
        let mut qnet = QuantizedNetwork::from_network(&net, &calib).unwrap();
        let mut rng = init::rng(7);
        let x = init::uniform(Shape::d4(4, 1, 8, 8), 1.0, &mut rng);
        let f = net.forward(&x).unwrap();
        let q = qnet.forward(&x).unwrap();
        assert_eq!(f.shape(), q.shape());
        // Per-tensor 16-bit scales keep logits within a small absolute
        // error of the f32 network on in-calibration-range inputs.
        let mut max_err = 0.0f32;
        let mut max_mag = 0.0f32;
        for (a, b) in f.as_slice().iter().zip(q.as_slice()) {
            max_err = max_err.max((a - b).abs());
            max_mag = max_mag.max(a.abs());
        }
        assert!(max_err <= 0.02 * max_mag.max(1.0), "max_err={max_err} max_mag={max_mag}");
    }

    #[test]
    fn quantized_stages_are_conv_and_linear_only() {
        let (net, calib) = tiny_net(4);
        let qnet = QuantizedNetwork::from_network(&net, &calib).unwrap();
        assert_eq!(qnet.quantized_stage_names(), vec!["conv1", "ip1"]);
        assert_eq!(qnet.name(), "tiny_i16");
        let (in_s, w_s) = qnet.stage_scales("conv1").unwrap();
        assert!(in_s > 0.0 && w_s > 0.0);
        assert!(qnet.stage_scales("pool1").is_none());
    }

    #[test]
    fn pruned_zero_weights_stay_zero_in_i16() {
        let (mut net, calib) = tiny_net(5);
        // Zero out half the linear weights, as pruning would.
        {
            let w = net.layer_weight_mut("ip1").unwrap();
            for (i, v) in w.value.as_mut_slice().iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v = 0.0;
                }
            }
        }
        let qnet = QuantizedNetwork::from_network(&net, &calib).unwrap();
        let stage = qnet
            .stages
            .iter()
            .find_map(|s| match s {
                QuantStage::Linear(l) => Some(l),
                _ => None,
            })
            .unwrap();
        // The stage stores the weights transposed: Wᵀ[i, o] = W[o, i].
        for (x, &q) in stage.wqt.iter().enumerate() {
            let i = (x % stage.out_f) * stage.in_f + x / stage.out_f;
            if i % 2 == 0 {
                assert_eq!(q, 0, "pruned weight {i} must quantize to exactly 0");
            }
        }
    }

    #[test]
    fn evaluate_matches_parallel_accuracy_for_any_thread_count() {
        let (net, calib) = tiny_net(6);
        let qnet = QuantizedNetwork::from_network(&net, &calib).unwrap();
        let mut rng = init::rng(11);
        let x = init::uniform(Shape::d4(12, 1, 8, 8), 1.0, &mut rng);
        let labels: Vec<usize> = (0..12).map(|i| i % 10).collect();
        let serial = qnet.evaluate(&x, &labels, 4).unwrap();
        for threads in [1, 2, 5] {
            let par = quantized_parallel_accuracy(&qnet, &x, &labels, 4, threads).unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn quantized_conv_products_equal_a_direct_i32_convolution() {
        // A grouped, strided, padded, non-square layer masked like SS_Mask:
        // every weight row zeroes one of its two 4-channel blocks (36
        // taps, long enough for the kernel to skip) and the last row is
        // all zero. Unit scales and zero bias make the f32 output the i32
        // products exactly.
        let (in_c, h, w, out_c, kernel, stride, pad, groups) = (16, 7, 6, 6, 3, 2, 1, 2);
        let (icg, ocg, taps) = (in_c / groups, out_c / groups, kernel * kernel);
        let wq: Vec<i16> = (0..out_c * icg * taps)
            .map(|i| {
                let (oc, ic) = (i / (icg * taps), i / taps % icg);
                if (oc + ic / 4) % 2 == 0 || oc == out_c - 1 {
                    0
                } else {
                    (i * 37 % 41) as i16 - 20
                }
            })
            .collect();
        assert!(wq.iter().filter(|&&x| x == 0).count() > wq.len() / 2);
        let unit = QuantParams::from_min_max(-32767.0, 32767.0);
        assert_eq!(unit.scale(), 1.0);
        let mut conv = QuantConv2d {
            name: "conv".into(),
            in_dims: (in_c, h, w),
            out_c,
            kernel,
            stride,
            pad,
            groups,
            wq: wq.clone(),
            bias: vec![0.0; out_c],
            w_params: unit,
            in_params: unit,
            qin: Vec::new(),
            unrolled: Vec::new(),
            prod: Vec::new(),
        };
        let batch = 2;
        let x: Vec<i32> = (0..batch * in_c * h * w).map(|i| (i * 53 % 61) as i32 - 30).collect();
        let input =
            Tensor::from_vec(Shape::d4(batch, in_c, h, w), x.iter().map(|&v| v as f32).collect())
                .unwrap();
        let out = conv.forward(&input).unwrap();
        let (oh, ow) = ((h + 2 * pad - kernel) / stride + 1, (w + 2 * pad - kernel) / stride + 1);
        assert_eq!(out.shape().dims(), &[batch, out_c, oh, ow]);
        for n in 0..batch {
            for oc in 0..out_c {
                let g = oc / ocg;
                for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                    let mut acc = 0i32;
                    for ic in 0..icg {
                        for (ky, kx) in
                            (0..kernel).flat_map(|ky| (0..kernel).map(move |kx| (ky, kx)))
                        {
                            let (sy, sx) = (
                                (oy * stride + ky) as isize - pad as isize,
                                (ox * stride + kx) as isize - pad as isize,
                            );
                            if sy < 0 || sx < 0 || sy >= h as isize || sx >= w as isize {
                                continue;
                            }
                            let xi =
                                ((n * in_c + g * icg + ic) * h + sy as usize) * w + sx as usize;
                            acc += wq[(oc * icg + ic) * taps + ky * kernel + kx] as i32 * x[xi];
                        }
                    }
                    let got = out.as_slice()[((n * out_c + oc) * oh + oy) * ow + ox];
                    assert_eq!(got, acc as f32, "n {n} oc {oc} at ({oy}, {ox})");
                }
            }
        }
    }

    #[test]
    fn calibration_shape_mismatch_is_an_error() {
        let (net, _) = tiny_net(8);
        let bad = Tensor::zeros(Shape::d4(2, 3, 8, 8));
        assert!(QuantizedNetwork::from_network(&net, &bad).is_err());
        let mut qnet =
            QuantizedNetwork::from_network(&net, &Tensor::zeros(Shape::d4(1, 1, 8, 8))).unwrap();
        assert!(qnet.forward(&Tensor::zeros(Shape::d4(1, 2, 8, 8))).is_err());
        assert!(qnet.evaluate(&Tensor::zeros(Shape::d4(2, 1, 8, 8)), &[0], 2).is_err());
    }
}
