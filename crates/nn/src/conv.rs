//! Grouped 2-D convolution.
//!
//! `groups = 1` is an ordinary dense convolution. `groups = n` splits both
//! the input and output channels into `n` independent blocks — the
//! "grouping" structure of AlexNet that the paper repurposes as
//! *structure-level parallelization*: when each group is mapped to one
//! core, the layer needs **no inter-core feature-map traffic at all**.

use crate::descriptor::{Dims, LayerKind, LayerSpec};
use crate::layer::{check_grad, check_nchw, weight_bias_grads, Layer};
use crate::param::Param;
use crate::{NnError, Result};
use lts_tensor::im2col::{col2im_into, im2col_into, ConvGeometry};
use lts_tensor::matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use lts_tensor::{init, workspace, Shape, Tensor};
use rand::rngs::StdRng;

/// A grouped 2-D convolution layer.
///
/// Weights are stored `[out_c, in_c/groups, kh, kw]`; inputs and outputs
/// are NCHW batches. Because both tensors are row-major, the weights and
/// input channels of one group are *contiguous* — the per-group GEMMs below
/// operate directly on slices of the stored tensors, with scratch
/// intermediates drawn from the calling thread's [`workspace`] pool.
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    in_dims: Dims,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    weight: Param,
    bias: Param,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if channels are not divisible by
    /// `groups`, the kernel exceeds the padded input, or any dimension is
    /// zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        in_dims: Dims,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let (in_c, in_h, in_w) = in_dims;
        if in_c == 0 || out_c == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::BadConfig(format!("conv `{name}`: zero-sized dimension")));
        }
        if groups == 0 || in_c % groups != 0 || !out_c.is_multiple_of(groups) {
            return Err(NnError::BadConfig(format!(
                "conv `{name}`: channels ({in_c} in, {out_c} out) not divisible by {groups} groups"
            )));
        }
        if in_h + 2 * pad < kernel || in_w + 2 * pad < kernel {
            return Err(NnError::BadConfig(format!(
                "conv `{name}`: kernel {kernel} exceeds padded input {in_h}x{in_w}+2*{pad}"
            )));
        }
        let icg = in_c / groups;
        let fan_in = icg * kernel * kernel;
        Ok(Self {
            name: name.to_string(),
            in_dims,
            out_c,
            kernel,
            stride,
            pad,
            groups,
            weight: Param::new(init::he_normal(Shape::d4(out_c, icg, kernel, kernel), fan_in, rng)),
            bias: Param::zeros(Shape::d1(out_c)),
        })
    }

    /// Number of channel groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Output dims `(out_c, oh, ow)`.
    pub fn out_dims(&self) -> Dims {
        let g = self.group_geometry();
        (self.out_c, g.out_h(), g.out_w())
    }

    /// Geometry of one channel group's convolution.
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

    /// Group `g`'s input channels of sample `n`, as a contiguous slice of
    /// the flat NCHW batch (`[icg, h, w]` row-major).
    fn group_input_slice<'a>(&self, batch: &'a [f32], n: usize, g: usize) -> &'a [f32] {
        let (in_c, h, w) = self.in_dims;
        let icg = in_c / self.groups;
        let start = (n * in_c + g * icg) * h * w;
        &batch[start..start + icg * h * w]
    }

    /// Group `g`'s `[ocg, icg*k*k]` weight matrix, as a contiguous slice of
    /// the stored `[out_c, icg, k, k]` weight tensor.
    fn group_weight_slice<'a>(&self, weight: &'a [f32], g: usize) -> &'a [f32] {
        let icg = self.in_dims.0 / self.groups;
        let ocg = self.out_c / self.groups;
        let row = icg * self.kernel * self.kernel;
        let start = g * ocg * row;
        &weight[start..start + ocg * row]
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec {
            name: self.name.clone(),
            kind: LayerKind::Conv {
                out_c: self.out_c,
                kernel: self.kernel,
                stride: self.stride,
                pad: self.pad,
                groups: self.groups,
            },
            in_dims: self.in_dims,
            out_dims: self.out_dims(),
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let batch = check_nchw(&self.name, self.in_dims, input)?;
        let (out_c, oh, ow) = self.out_dims();
        let geom = self.group_geometry();
        let ocg = out_c / self.groups;
        let positions = oh * ow;
        let row = geom.col_rows();
        let mut out = Tensor::zeros(Shape::d4(batch, out_c, oh, ow));
        let mut cols = workspace::take(row * positions);
        let mut prod = workspace::take(ocg * positions);
        {
            let src = input.as_slice();
            let wslice = self.weight.value.as_slice();
            let bias = self.bias.value.as_slice();
            let dst = out.as_mut_slice();
            for n in 0..batch {
                for g in 0..self.groups {
                    im2col_into(self.group_input_slice(src, n, g), &geom, &mut cols);
                    // [ocg, R] x [R, P] -> [ocg, P]
                    let wmat = self.group_weight_slice(wslice, g);
                    matmul_into(wmat, &cols, &mut prod, ocg, row, positions);
                    // The group's output channels are contiguous, laid out as prod.
                    let out = &mut dst[(n * out_c + g * ocg) * positions..][..ocg * positions];
                    let rows = out.chunks_exact_mut(positions).zip(prod.chunks_exact(positions));
                    for ((o, p), &b) in rows.zip(&bias[g * ocg..]) {
                        for (d, &x) in o.iter_mut().zip(p) {
                            *d = x + b;
                        }
                    }
                }
            }
        }
        workspace::give(prod);
        workspace::give(cols);
        Ok(out)
    }

    fn backward(&self, input: &Tensor, grad_out: &Tensor, grads: &mut [Tensor]) -> Result<Tensor> {
        let batch = check_nchw(&self.name, self.in_dims, input)?;
        let (out_c, oh, ow) = self.out_dims();
        check_grad(&self.name, Shape::d4(batch, out_c, oh, ow), grad_out)?;
        let (wgrad, bgrad) = weight_bias_grads(&self.name, &self.weight, &self.bias, grads)?;
        let geom = self.group_geometry();
        let (in_c, in_h, in_w) = self.in_dims;
        let icg = in_c / self.groups;
        let ocg = out_c / self.groups;
        let positions = oh * ow;
        let row = icg * self.kernel * self.kernel;
        let group_image = icg * in_h * in_w;
        let mut grad_in = Tensor::zeros(input.shape().clone());
        let mut cols = workspace::take(row * positions);
        let mut gmat = workspace::take(ocg * positions);
        let mut dw = workspace::take(ocg * row);
        let mut dcols = workspace::take(row * positions);
        {
            let src = input.as_slice();
            let go = grad_out.as_slice();
            let wslice = self.weight.value.as_slice();
            let gi = grad_in.as_mut_slice();
            for n in 0..batch {
                for g in 0..self.groups {
                    im2col_into(self.group_input_slice(src, n, g), &geom, &mut cols);
                    // Gather this group's output gradient [ocg, P].
                    for oc in 0..ocg {
                        let abs_oc = g * ocg + oc;
                        let base = ((n * out_c) + abs_oc) * positions;
                        gmat[oc * positions..(oc + 1) * positions]
                            .copy_from_slice(&go[base..base + positions]);
                    }
                    // dW_g = G · colsᵀ  -> [ocg, R]
                    matmul_a_bt_into(&gmat, &cols, &mut dw, ocg, positions, row);
                    {
                        let wg = wgrad.as_mut_slice();
                        let start = g * ocg * row;
                        for (i, &v) in dw.iter().enumerate() {
                            wg[start + i] += v;
                        }
                    }
                    // db
                    {
                        let bg = bgrad.as_mut_slice();
                        for oc in 0..ocg {
                            let abs_oc = g * ocg + oc;
                            bg[abs_oc] +=
                                gmat[oc * positions..(oc + 1) * positions].iter().sum::<f32>();
                        }
                    }
                    // dCols = Wᵀ · G -> [R, P], accumulated back through
                    // col2im straight into this group's slice of grad_in.
                    let wmat = self.group_weight_slice(wslice, g);
                    matmul_at_b_into(wmat, &gmat, &mut dcols, row, ocg, positions);
                    let base = ((n * in_c) + g * icg) * in_h * in_w;
                    col2im_into(&dcols, &geom, &mut gi[base..base + group_image]);
                }
            }
        }
        workspace::give(dcols);
        workspace::give(dw);
        workspace::give(gmat);
        workspace::give(cols);
        Ok(grad_in)
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

    /// Backward of `sum(forward(x))`: the input gradient and the
    /// `[weight, bias]` gradients.
    fn sum_backward(c: &Conv2d, x: &Tensor) -> (Tensor, Vec<Tensor>) {
        let y = c.forward(x).unwrap();
        let mut grads = zeroed_grads(&c.params());
        let dx = c.backward(x, &Tensor::ones(y.shape().clone()), &mut grads).unwrap();
        (dx, grads)
    }

    fn tiny_conv(groups: usize) -> Conv2d {
        let mut rng = init::rng(9);
        Conv2d::new("conv", (2, 4, 4), 2, 3, 1, 1, groups, &mut rng).unwrap()
    }

    #[test]
    fn forward_identity_kernel_passes_input_through() {
        // Single channel, 1x1 kernel with weight 1 is the identity.
        let mut rng = init::rng(0);
        let mut c = Conv2d::new("id", (1, 3, 3), 1, 1, 1, 0, 1, &mut rng).unwrap();
        c.weight.value.fill(1.0);
        let x =
            Tensor::from_vec(Shape::d4(1, 1, 3, 3), (0..9).map(|v| v as f32).collect()).unwrap();
        let y = c.forward(&x).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn forward_matches_hand_convolution() {
        // 2x2 input, 2x2 kernel of ones, no pad: output = sum of input.
        let mut rng = init::rng(0);
        let mut c = Conv2d::new("sum", (1, 2, 2), 1, 2, 1, 0, 1, &mut rng).unwrap();
        c.weight.value.fill(1.0);
        c.bias.value.fill(0.5);
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1., 2., 3., 4.]).unwrap();
        let y = c.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[10.5]);
    }

    #[test]
    fn grouped_conv_equals_dense_with_block_diagonal_weights() {
        // A dense conv whose cross-group weight blocks are zero must equal
        // the grouped conv with the same within-group weights.
        let mut rng = init::rng(5);
        let x = init::uniform(Shape::d4(2, 4, 5, 5), 1.0, &mut rng);
        let grouped = Conv2d::new("g", (4, 5, 5), 4, 3, 1, 1, 2, &mut rng).unwrap();
        let mut dense = Conv2d::new("d", (4, 5, 5), 4, 3, 1, 1, 1, &mut rng).unwrap();
        // Embed grouped weights [4][2][3][3] into dense [4][4][3][3] block-diagonally.
        dense.weight.value.fill(0.0);
        let gw = grouped.weight.value.as_slice().to_vec();
        let k2 = 9;
        for oc in 0..4 {
            let g = oc / 2; // groups of 2 output channels
            for ic_local in 0..2 {
                let ic_abs = g * 2 + ic_local;
                for t in 0..k2 {
                    let src = (oc * 2 + ic_local) * k2 + t;
                    let dst = (oc * 4 + ic_abs) * k2 + t;
                    dense.weight.value.as_mut_slice()[dst] = gw[src];
                }
            }
        }
        let yg = grouped.forward(&x).unwrap();
        let yd = dense.forward(&x).unwrap();
        for (a, b) in yg.as_slice().iter().zip(yd.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn backward_weight_gradient_passes_numerical_check() {
        let mut rng = init::rng(3);
        let mut c = tiny_conv(1);
        let x = init::uniform(Shape::d4(1, 2, 4, 4), 1.0, &mut rng);
        let eps = 1e-2;
        let idx = 7;
        let base = c.weight.value.as_slice()[idx];

        c.weight.value.as_mut_slice()[idx] = base + eps;
        let p: f32 = c.forward(&x).unwrap().as_slice().iter().sum();
        c.weight.value.as_mut_slice()[idx] = base - eps;
        let m: f32 = c.forward(&x).unwrap().as_slice().iter().sum();
        let numeric = (p - m) / (2.0 * eps);

        c.weight.value.as_mut_slice()[idx] = base;
        let analytic = sum_backward(&c, &x).1[0].as_slice()[idx];
        assert!((numeric - analytic).abs() < 1e-2, "{numeric} vs {analytic}");
    }

    #[test]
    fn backward_input_gradient_passes_numerical_check() {
        let mut rng = init::rng(4);
        let c = tiny_conv(2);
        let mut x = init::uniform(Shape::d4(1, 2, 4, 4), 1.0, &mut rng);
        let eps = 1e-2;
        let idx = 9;
        let base = x.as_slice()[idx];

        x.as_mut_slice()[idx] = base + eps;
        let p: f32 = c.forward(&x).unwrap().as_slice().iter().sum();
        x.as_mut_slice()[idx] = base - eps;
        let m: f32 = c.forward(&x).unwrap().as_slice().iter().sum();
        let numeric = (p - m) / (2.0 * eps);

        x.as_mut_slice()[idx] = base;
        let analytic = sum_backward(&c, &x).0.as_slice()[idx];
        assert!((numeric - analytic).abs() < 1e-2, "{numeric} vs {analytic}");
    }

    #[test]
    fn strided_padded_conv_passes_numerical_gradient_check() {
        let mut rng = init::rng(11);
        let mut c = Conv2d::new("s2", (3, 7, 7), 4, 3, 2, 1, 1, &mut rng).unwrap();
        let x = init::uniform(Shape::d4(2, 3, 7, 7), 1.0, &mut rng);
        let eps = 1e-2;
        for idx in [0usize, 13, 51] {
            let base = c.weight.value.as_slice()[idx];
            c.weight.value.as_mut_slice()[idx] = base + eps;
            let p: f32 = c.forward(&x).unwrap().as_slice().iter().sum();
            c.weight.value.as_mut_slice()[idx] = base - eps;
            let m: f32 = c.forward(&x).unwrap().as_slice().iter().sum();
            let numeric = (p - m) / (2.0 * eps);
            c.weight.value.as_mut_slice()[idx] = base;
            let analytic = sum_backward(&c, &x).1[0].as_slice()[idx];
            assert!((numeric - analytic).abs() < 2e-2, "idx {idx}: {numeric} vs {analytic}");
        }
    }

    #[test]
    fn one_by_one_spatial_input_works() {
        // Degenerate spatial extent: a conv acting as a per-pixel linear map.
        let mut rng = init::rng(12);
        let c = Conv2d::new("pix", (4, 1, 1), 6, 1, 1, 0, 1, &mut rng).unwrap();
        let x = init::uniform(Shape::d4(3, 4, 1, 1), 1.0, &mut rng);
        let y = c.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[3, 6, 1, 1]);
        let (g, _) = sum_backward(&c, &x);
        assert_eq!(g.shape().dims(), &[3, 4, 1, 1]);
    }

    #[test]
    fn config_validation() {
        let mut rng = init::rng(0);
        assert!(Conv2d::new("bad", (3, 8, 8), 4, 3, 1, 1, 2, &mut rng).is_err()); // 3 % 2 != 0
        assert!(Conv2d::new("bad", (2, 2, 2), 2, 5, 1, 0, 1, &mut rng).is_err()); // kernel too big
        assert!(Conv2d::new("bad", (2, 8, 8), 2, 3, 0, 1, 1, &mut rng).is_err());
        // stride 0
    }

    #[test]
    fn forward_rejects_wrong_input_shape() {
        let c = tiny_conv(1);
        assert!(c.forward(&Tensor::zeros(Shape::d4(1, 3, 4, 4))).is_err());
        assert!(c.forward(&Tensor::zeros(Shape::d3(2, 4, 4))).is_err());
        // Backward checks its input, its output gradient and its buffers.
        let x = Tensor::zeros(Shape::d4(1, 2, 4, 4));
        let mut grads = zeroed_grads(&c.params());
        let g = Tensor::zeros(Shape::d4(1, 2, 4, 4));
        assert!(c.backward(&Tensor::zeros(Shape::d4(1, 3, 4, 4)), &g, &mut grads).is_err());
        assert!(c.backward(&x, &Tensor::zeros(Shape::d4(2, 2, 4, 4)), &mut grads).is_err());
        assert!(c.backward(&x, &g, &mut grads[..1]).is_err());
        assert!(c.backward(&x, &g, &mut grads).is_ok());
    }

    #[test]
    fn spec_reports_geometry() {
        let c = tiny_conv(2);
        let s = c.spec();
        assert_eq!(s.out_dims, (2, 4, 4));
        assert!(matches!(s.kind, LayerKind::Conv { groups: 2, .. }));
    }
}
