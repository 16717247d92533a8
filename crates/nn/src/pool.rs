//! Max-pooling layer (ceil mode, matching Caffe).

use crate::descriptor::pool_out;
use crate::descriptor::{Dims, LayerKind, LayerSpec};
use crate::layer::{check_grad, check_nchw, Layer};
use crate::{NnError, Result};
use lts_tensor::{Shape, Tensor};

/// 2-D max pooling over an NCHW batch.
///
/// Uses ceil-mode output sizing (a partial window at the right/bottom edge
/// still produces an output), matching the Caffe networks the paper
/// evaluates.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    name: String,
    in_dims: Dims,
    kernel: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the window exceeds the input or
    /// `stride == 0`.
    pub fn new(name: &str, in_dims: Dims, kernel: usize, stride: usize) -> Result<Self> {
        check_window(name, in_dims, kernel, stride)?;
        Ok(Self { name: name.to_string(), in_dims, kernel, stride })
    }

    /// Output dims `(c, oh, ow)`.
    pub fn out_dims(&self) -> Dims {
        pooled_dims(self.in_dims, self.kernel, self.stride)
    }

    /// Calls `f(o, winner, max)` for every output element `o` of the batch
    /// `src` in ascending order, where `max` is the window's maximum and
    /// `winner` the flat input index holding it (the first one on ties).
    fn for_each_winner(&self, src: &[f32], batch: usize, mut f: impl FnMut(usize, usize, f32)) {
        let (c, h, w) = self.in_dims;
        let (_, oh, ow) = self.out_dims();
        for n in 0..batch {
            for ch in 0..c {
                let plane = (n * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (y0, x0, y1, x1) =
                            window(self.in_dims, self.kernel, self.stride, oy, ox);
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = plane + y0 * w + x0;
                        for y in y0..y1 {
                            for x in x0..x1 {
                                let idx = plane + y * w + x;
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        f(((n * c + ch) * oh + oy) * ow + ox, best_idx, best);
                    }
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec {
            name: self.name.clone(),
            kind: LayerKind::Pool { kernel: self.kernel, stride: self.stride, average: false },
            in_dims: self.in_dims,
            out_dims: self.out_dims(),
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let batch = check_nchw(&self.name, self.in_dims, input)?;
        let (c, oh, ow) = self.out_dims();
        let mut out = Tensor::zeros(Shape::d4(batch, c, oh, ow));
        let dst = out.as_mut_slice();
        self.for_each_winner(input.as_slice(), batch, |o, _, max| dst[o] = max);
        Ok(out)
    }

    fn backward(&self, input: &Tensor, grad_out: &Tensor, _grads: &mut [Tensor]) -> Result<Tensor> {
        let batch = check_nchw(&self.name, self.in_dims, input)?;
        let (c, oh, ow) = self.out_dims();
        check_grad(&self.name, Shape::d4(batch, c, oh, ow), grad_out)?;
        // The forward pass's winners, recomputed from its input.
        let mut grad_in = Tensor::zeros(input.shape().clone());
        let gi = grad_in.as_mut_slice();
        let go = grad_out.as_slice();
        self.for_each_winner(input.as_slice(), batch, |o, winner, _| gi[winner] += go[o]);
        Ok(grad_in)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// 2-D average pooling over an NCHW batch (ceil mode).
///
/// Edge windows average over their *actual* (possibly clipped) element
/// count, matching Caffe's behaviour.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    name: String,
    in_dims: Dims,
    kernel: usize,
    stride: usize,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the window exceeds the input or
    /// `stride == 0`.
    pub fn new(name: &str, in_dims: Dims, kernel: usize, stride: usize) -> Result<Self> {
        check_window(name, in_dims, kernel, stride)?;
        Ok(Self { name: name.to_string(), in_dims, kernel, stride })
    }

    /// Output dims `(c, oh, ow)`.
    pub fn out_dims(&self) -> Dims {
        pooled_dims(self.in_dims, self.kernel, self.stride)
    }

    /// The clipped window for output `(oy, ox)`.
    fn window(&self, oy: usize, ox: usize) -> (usize, usize, usize, usize) {
        window(self.in_dims, self.kernel, self.stride, oy, ox)
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec {
            name: self.name.clone(),
            kind: LayerKind::Pool { kernel: self.kernel, stride: self.stride, average: true },
            in_dims: self.in_dims,
            out_dims: self.out_dims(),
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let batch = check_nchw(&self.name, self.in_dims, input)?;
        let (c, h, w) = self.in_dims;
        let (_, oh, ow) = self.out_dims();
        let mut out = Tensor::zeros(Shape::d4(batch, c, oh, ow));
        let src = input.as_slice();
        let dst = out.as_mut_slice();
        for n in 0..batch {
            for ch in 0..c {
                let plane = (n * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (y0, x0, y1, x1) = self.window(oy, ox);
                        let mut acc = 0.0f32;
                        for y in y0..y1 {
                            for x in x0..x1 {
                                acc += src[plane + y * w + x];
                            }
                        }
                        let count = ((y1 - y0) * (x1 - x0)) as f32;
                        dst[((n * c + ch) * oh + oy) * ow + ox] = acc / count;
                    }
                }
            }
        }
        Ok(out)
    }

    fn backward(&self, input: &Tensor, grad_out: &Tensor, _grads: &mut [Tensor]) -> Result<Tensor> {
        let batch = check_nchw(&self.name, self.in_dims, input)?;
        let (c, h, w) = self.in_dims;
        let (_, oh, ow) = self.out_dims();
        check_grad(&self.name, Shape::d4(batch, c, oh, ow), grad_out)?;
        let mut grad_in = Tensor::zeros(input.shape().clone());
        let gi = grad_in.as_mut_slice();
        let go = grad_out.as_slice();
        for n in 0..batch {
            for ch in 0..c {
                let plane = (n * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (y0, x0, y1, x1) = self.window(oy, ox);
                        let count = ((y1 - y0) * (x1 - x0)) as f32;
                        let g = go[((n * c + ch) * oh + oy) * ow + ox] / count;
                        for y in y0..y1 {
                            for x in x0..x1 {
                                gi[plane + y * w + x] += g;
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Rejects a zero kernel or stride and a window larger than the input.
fn check_window(name: &str, (_, h, w): Dims, kernel: usize, stride: usize) -> Result<()> {
    if stride == 0 || kernel == 0 {
        return Err(NnError::BadConfig(format!("pool `{name}`: zero kernel or stride")));
    }
    if kernel > h || kernel > w {
        return Err(NnError::BadConfig(format!(
            "pool `{name}`: kernel {kernel} exceeds input {h}x{w}"
        )));
    }
    Ok(())
}

/// Ceil-mode pooled dims `(c, oh, ow)`.
fn pooled_dims((c, h, w): Dims, kernel: usize, stride: usize) -> Dims {
    (c, pool_out(h, kernel, stride), pool_out(w, kernel, stride))
}

/// The window `(y0, x0, y1, x1)` of output `(oy, ox)`, clipped to the input.
fn window(
    (_, h, w): Dims,
    kernel: usize,
    stride: usize,
    oy: usize,
    ox: usize,
) -> (usize, usize, usize, usize) {
    let y0 = oy * stride;
    let x0 = ox * stride;
    (y0, x0, (y0 + kernel).min(h), (x0 + kernel).min(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pool_computes_window_means() {
        let p = AvgPool2d::new("a", (1, 4, 4), 2, 2).unwrap();
        let x =
            Tensor::from_vec(Shape::d4(1, 1, 4, 4), (0..16).map(|v| v as f32).collect()).unwrap();
        let y = p.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avg_pool_backward_distributes_uniformly() {
        let p = AvgPool2d::new("a", (1, 2, 2), 2, 2).unwrap();
        let x = Tensor::ones(Shape::d4(1, 1, 2, 2));
        let go = Tensor::from_vec(Shape::d4(1, 1, 1, 1), vec![4.0]).unwrap();
        let g = p.backward(&x, &go, &mut []).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_gradient_conserves_mass() {
        // Sum of input gradients equals sum of output gradients when
        // windows tile the input exactly.
        let p = AvgPool2d::new("a", (2, 4, 4), 2, 2).unwrap();
        let x = Tensor::ones(Shape::d4(1, 2, 4, 4));
        let go = Tensor::ones(Shape::d4(1, 2, 2, 2));
        let gi = p.backward(&x, &go, &mut []).unwrap();
        let sum_in: f32 = gi.as_slice().iter().sum();
        let sum_out: f32 = go.as_slice().iter().sum();
        assert!((sum_in - sum_out).abs() < 1e-5);
    }

    #[test]
    fn avg_pool_edge_windows_average_actual_elements() {
        // 3x3 input, 2x2 window stride 2 (ceil mode): bottom/right windows
        // are clipped and average fewer elements.
        let p = AvgPool2d::new("a", (1, 3, 3), 2, 2).unwrap();
        let x = Tensor::ones(Shape::d4(1, 1, 3, 3));
        let y = p.forward(&x).unwrap();
        // Means of all-ones are 1 regardless of window size.
        assert!(y.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn avg_pool_validation() {
        assert!(AvgPool2d::new("a", (1, 2, 2), 3, 2).is_err());
        let p = AvgPool2d::new("a", (1, 4, 4), 2, 2).unwrap();
        let x = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        assert!(p.backward(&x, &Tensor::zeros(Shape::d4(1, 1, 4, 4)), &mut []).is_err());
        assert!(p.backward(&x, &Tensor::zeros(Shape::d4(1, 1, 2, 2)), &mut []).is_ok());
    }

    #[test]
    fn forward_takes_window_maximum() {
        let p = MaxPool2d::new("p", (1, 4, 4), 2, 2).unwrap();
        let x =
            Tensor::from_vec(Shape::d4(1, 1, 4, 4), (0..16).map(|v| v as f32).collect()).unwrap();
        let y = p.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[5., 7., 13., 15.]);
    }

    #[test]
    fn ceil_mode_handles_partial_windows() {
        // 5x5 input, 2x2 window stride 2 -> 3x3 output (Caffe ceil mode).
        let p = MaxPool2d::new("p", (1, 5, 5), 2, 2).unwrap();
        let x = Tensor::ones(Shape::d4(1, 1, 5, 5));
        let y = p.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 3, 3]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let p = MaxPool2d::new("p", (1, 2, 2), 2, 2).unwrap();
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1., 9., 3., 4.]).unwrap();
        let go = Tensor::from_vec(Shape::d4(1, 1, 1, 1), vec![2.0]).unwrap();
        let g = p.backward(&x, &go, &mut []).unwrap();
        assert_eq!(g.as_slice(), &[0., 2., 0., 0.]);
    }

    #[test]
    fn config_validation() {
        assert!(MaxPool2d::new("p", (1, 2, 2), 3, 2).is_err());
        assert!(MaxPool2d::new("p", (1, 4, 4), 2, 0).is_err());
    }

    #[test]
    fn overlapping_windows_sum_their_gradients() {
        // 3x3 windows at stride 2 share the centre row and column; the
        // shared maximum collects the gradient of every window it wins.
        let p = MaxPool2d::new("p", (1, 5, 5), 3, 2).unwrap();
        let mut v = vec![0.0; 25];
        v[12] = 9.0;
        let x = Tensor::from_vec(Shape::d4(1, 1, 5, 5), v).unwrap();
        let g = p.backward(&x, &Tensor::ones(Shape::d4(1, 1, 2, 2)), &mut []).unwrap();
        assert_eq!(g.as_slice()[12], 4.0);
        assert_eq!(g.as_slice().iter().sum::<f32>(), 4.0);
        assert!(p.backward(&x, &Tensor::ones(Shape::d4(1, 1, 3, 3)), &mut []).is_err());
    }

    #[test]
    fn pool_is_per_channel() {
        let p = MaxPool2d::new("p", (2, 2, 2), 2, 2).unwrap();
        let x = Tensor::from_vec(Shape::d4(1, 2, 2, 2), vec![1., 2., 3., 4., 10., 20., 30., 40.])
            .unwrap();
        let y = p.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[4., 40.]);
    }
}
