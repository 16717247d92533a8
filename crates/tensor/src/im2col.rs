//! `im2col`/`col2im` lowering for convolution.
//!
//! A convolution over an NCHW input with kernel `[kh, kw]`, stride and
//! padding is lowered to a matrix product by unrolling each receptive field
//! into a column. For one image, the column matrix has shape
//! `[in_c * kh * kw, out_h * out_w]`; the kernel tensor flattens to
//! `[out_c, in_c * kh * kw]`, and the product is the `[out_c, out_h * out_w]`
//! output feature map. The quantized path unrolls the transpose instead
//! (`im2row`: one receptive field per row), the B operand of an A·Bᵀ
//! product.

use crate::shape::Shape;
use crate::tensor::{Tensor, TensorError};

/// Geometry of a 2-D convolution (shared by forward and backward passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channel count.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeometry {
    /// Output height under this geometry.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than the padded input or the stride is
    /// zero.
    pub fn out_h(&self) -> usize {
        assert!(self.stride > 0, "stride must be positive");
        let padded = self.in_h + 2 * self.pad;
        assert!(padded >= self.kh, "kernel height {} exceeds padded input {}", self.kh, padded);
        (padded - self.kh) / self.stride + 1
    }

    /// Output width under this geometry.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ConvGeometry::out_h`].
    pub fn out_w(&self) -> usize {
        assert!(self.stride > 0, "stride must be positive");
        let padded = self.in_w + 2 * self.pad;
        assert!(padded >= self.kw, "kernel width {} exceeds padded input {}", self.kw, padded);
        (padded - self.kw) / self.stride + 1
    }

    /// Rows of the column matrix: `in_c * kh * kw`.
    pub fn col_rows(&self) -> usize {
        self.in_c * self.kh * self.kw
    }

    /// Columns of the column matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// The conditions under which [`ConvGeometry::out_h`] and
    /// [`ConvGeometry::out_w`] panic, as a typed error.
    fn validate(&self) -> Result<(), TensorError> {
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("conv stride must be positive".into()));
        }
        let (ph, pw) = (self.in_h + 2 * self.pad, self.in_w + 2 * self.pad);
        if self.kh > ph || self.kw > pw {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {}x{} exceeds padded input {ph}x{pw}",
                self.kh, self.kw
            )));
        }
        Ok(())
    }
}

/// Unrolls one `[in_c, in_h, in_w]` image into its column matrix.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `geom` has a zero stride or
/// a kernel larger than the padded input, [`TensorError::RankMismatch`] if
/// `image` is not rank 3 and [`TensorError::ShapeMismatch`] if its
/// dimensions disagree with `geom`.
pub fn im2col(image: &Tensor, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    geom.validate()?;
    if image.shape().rank() != 3 {
        return Err(TensorError::RankMismatch { expected: 3, actual: image.shape().rank() });
    }
    let dims = image.shape().dims();
    if dims != [geom.in_c, geom.in_h, geom.in_w] {
        return Err(TensorError::ShapeMismatch {
            left: image.shape().clone(),
            right: Shape::d3(geom.in_c, geom.in_h, geom.in_w),
        });
    }
    let mut out = Tensor::zeros(Shape::d2(geom.col_rows(), geom.col_cols()));
    im2col_into(image.as_slice(), geom, out.as_mut_slice());
    Ok(out)
}

/// Unrolls one image (flat `[in_c * in_h * in_w]` slice) into a caller-owned
/// column buffer of `col_rows() * col_cols()` elements, overwriting it.
///
/// This is the allocation-free core of [`im2col`]: layers that run every
/// batch hand in a scratch buffer from a
/// [`Workspace`](crate::workspace::Workspace) instead of allocating a fresh
/// column matrix per call.
///
/// # Panics
///
/// Panics if `src` or `dst` disagree with the geometry's element counts.
pub fn im2col_into(src: &[f32], geom: &ConvGeometry, dst: &mut [f32]) {
    let _probe = lts_obs::span("tensor.im2col");
    assert_eq!(src.len(), geom.in_c * geom.in_h * geom.in_w, "input size mismatch");
    assert_eq!(dst.len(), geom.col_rows() * geom.col_cols(), "column buffer size mismatch");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let cols = oh * ow;
    let (ih, iw) = (geom.in_h as isize, geom.in_w as isize);
    for c in 0..geom.in_c {
        for ky in 0..geom.kh {
            for kx in 0..geom.kw {
                let row = (c * geom.kh + ky) * geom.kw + kx;
                for oy in 0..oh {
                    let sy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    for ox in 0..ow {
                        let sx = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        let val = if sy >= 0 && sy < ih && sx >= 0 && sx < iw {
                            src[(c * geom.in_h + sy as usize) * geom.in_w + sx as usize]
                        } else {
                            0.0
                        };
                        dst[row * cols + oy * ow + ox] = val;
                    }
                }
            }
        }
    }
}

/// Unrolls one quantized image into its *row* matrix, the transpose of
/// the [`im2col_into`] layout: `dst[pos * col_rows() + r]`, one
/// contiguous receptive field per output position, padding written as
/// runs of exact zeros (which symmetric quantization maps to real 0.0).
/// This is the B operand of the quantized convolution's
/// [`matmul_a_bt_i16_into`](crate::qmatmul::matmul_a_bt_i16_into).
///
/// # Panics
///
/// Panics if `src` or `dst` disagree with the geometry's element counts.
pub fn im2row_i16_into(src: &[i16], geom: &ConvGeometry, dst: &mut [i16]) {
    let _probe = lts_obs::span("tensor.im2col_i16");
    assert_eq!(src.len(), geom.in_c * geom.in_h * geom.in_w, "input size mismatch");
    assert_eq!(dst.len(), geom.col_rows() * geom.col_cols(), "row buffer size mismatch");
    // A compile-time kernel width turns each tap-row copy into a few
    // register moves instead of a `memcpy` call: 2–4× the whole unroll.
    match geom.kw {
        3 => im2row::<3>(src, geom, dst),
        5 => im2row::<5>(src, geom, dst),
        _ => im2row::<0>(src, geom, dst),
    }
}

/// [`im2row_i16_into`] for kernel width `KW`, or `geom.kw` when `KW` is 0.
fn im2row<const KW: usize>(src: &[i16], geom: &ConvGeometry, dst: &mut [i16]) {
    let kw = if KW == 0 { geom.kw } else { KW };
    let (kh, ow, plane) = (geom.kh, geom.out_w(), geom.in_h * geom.in_w);
    let (ih, iw) = (geom.in_h as isize, geom.in_w as isize);
    for (pos, field) in dst.chunks_exact_mut(geom.col_rows()).enumerate() {
        // Taps ky in ylo..yhi and kx in lo..hi land inside the image.
        let y0 = ((pos / ow) * geom.stride) as isize - geom.pad as isize;
        let x0 = ((pos % ow) * geom.stride) as isize - geom.pad as isize;
        let ylo = (-y0).clamp(0, kh as isize) as usize;
        let yhi = (ih - y0).clamp(ylo as isize, kh as isize) as usize;
        let lo = (-x0).clamp(0, kw as isize) as usize;
        let hi = (iw - x0).clamp(lo as isize, kw as isize) as usize;
        for (c, taps) in field.chunks_exact_mut(kh * kw).enumerate() {
            taps[..ylo * kw].fill(0);
            taps[yhi * kw..].fill(0);
            for ky in ylo..yhi {
                let seg = &mut taps[ky * kw..(ky + 1) * kw];
                // Non-negative: y0 + ky ≥ 0 and x0 + lo ≥ 0 by the clamps.
                let first =
                    ((c * plane) as isize + (y0 + ky as isize) * iw + x0 + lo as isize) as usize;
                if hi - lo == kw {
                    seg.copy_from_slice(&src[first..first + kw]);
                } else {
                    for (kx, d) in seg.iter_mut().enumerate() {
                        *d = if (lo..hi).contains(&kx) { src[first + kx - lo] } else { 0 };
                    }
                }
            }
        }
    }
}

/// Accumulates a column matrix back into a `[in_c, in_h, in_w]` image
/// (the adjoint of [`im2col`]), used by the convolution backward pass.
///
/// Overlapping receptive fields sum their contributions.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] under the same geometry
/// conditions as [`im2col`] and [`TensorError::ShapeMismatch`] if `cols`
/// has the wrong shape for `geom`.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    geom.validate()?;
    let expect = Shape::d2(geom.col_rows(), geom.col_cols());
    if cols.shape() != &expect {
        return Err(TensorError::ShapeMismatch { left: cols.shape().clone(), right: expect });
    }
    let mut image = Tensor::zeros(Shape::d3(geom.in_c, geom.in_h, geom.in_w));
    col2im_into(cols.as_slice(), geom, image.as_mut_slice());
    Ok(image)
}

/// Accumulates a flat column matrix into a caller-owned flat
/// `[in_c * in_h * in_w]` image buffer (the allocation-free core of
/// [`col2im`]).
///
/// Contributions are *added* to `dst`, so backward passes can accumulate
/// straight into a gradient slice; pass a zeroed buffer for the pure
/// adjoint.
///
/// # Panics
///
/// Panics if `src` or `dst` disagree with the geometry's element counts.
pub fn col2im_into(src: &[f32], geom: &ConvGeometry, dst: &mut [f32]) {
    assert_eq!(src.len(), geom.col_rows() * geom.col_cols(), "column buffer size mismatch");
    assert_eq!(dst.len(), geom.in_c * geom.in_h * geom.in_w, "image size mismatch");
    let _probe = lts_obs::span("tensor.col2im");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let ncols = oh * ow;
    let (ih, iw) = (geom.in_h as isize, geom.in_w as isize);
    for c in 0..geom.in_c {
        for ky in 0..geom.kh {
            for kx in 0..geom.kw {
                let row = (c * geom.kh + ky) * geom.kw + kx;
                for oy in 0..oh {
                    let sy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if sy < 0 || sy >= ih {
                        continue;
                    }
                    for ox in 0..ow {
                        let sx = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if sx < 0 || sx >= iw {
                            continue;
                        }
                        dst[(c * geom.in_h + sy as usize) * geom.in_w + sx as usize] +=
                            src[row * ncols + oy * ow + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_3x3_k2() -> ConvGeometry {
        ConvGeometry { in_c: 1, in_h: 3, in_w: 3, kh: 2, kw: 2, stride: 1, pad: 0 }
    }

    #[test]
    fn output_dims_follow_formula() {
        let g = ConvGeometry { in_c: 3, in_h: 32, in_w: 32, kh: 5, kw: 5, stride: 1, pad: 2 };
        assert_eq!(g.out_h(), 32);
        assert_eq!(g.out_w(), 32);
        let g2 = ConvGeometry { in_c: 3, in_h: 11, in_w: 11, kh: 3, kw: 3, stride: 2, pad: 0 };
        assert_eq!(g2.out_h(), 5);
    }

    #[test]
    fn im2col_unrolls_receptive_fields() {
        // 3x3 image 0..9, 2x2 kernel, stride 1 -> 4 columns of 4 rows.
        let img = Tensor::from_vec(Shape::d3(1, 3, 3), (0..9).map(|x| x as f32).collect()).unwrap();
        let cols = im2col(&img, &geom_3x3_k2()).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // First column = top-left receptive field [0,1,3,4].
        let c = cols.as_slice();
        let col0: Vec<f32> = (0..4).map(|r| c[r * 4]).collect();
        assert_eq!(col0, vec![0.0, 1.0, 3.0, 4.0]);
        // Last column = bottom-right receptive field [4,5,7,8].
        let col3: Vec<f32> = (0..4).map(|r| c[r * 4 + 3]).collect();
        assert_eq!(col3, vec![4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_pads_with_zeros() {
        let img = Tensor::ones(Shape::d3(1, 2, 2));
        let g = ConvGeometry { in_c: 1, in_h: 2, in_w: 2, kh: 3, kw: 3, stride: 1, pad: 1 };
        let cols = im2col(&img, &g).unwrap();
        // Center kernel tap always hits the image; corner taps mostly pad.
        assert_eq!(cols.shape().dims(), &[9, 4]);
        // Row 0 (kernel tap (0,0)) for output (0,0) reads padded (-1,-1) = 0.
        assert_eq!(cols.as_slice()[0], 0.0);
        // Row 4 (kernel tap (1,1)) for output (0,0) reads image (0,0) = 1.
        assert_eq!(cols.as_slice()[4 * 4], 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_disjoint_fields() {
        // Stride = kernel size means fields do not overlap: col2im(im2col(x)) == x.
        let img =
            Tensor::from_vec(Shape::d3(1, 4, 4), (0..16).map(|x| x as f32).collect()).unwrap();
        let g = ConvGeometry { in_c: 1, in_h: 4, in_w: 4, kh: 2, kw: 2, stride: 2, pad: 0 };
        let back = col2im(&im2col(&img, &g).unwrap(), &g).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        let img = Tensor::ones(Shape::d3(1, 3, 3));
        let g = geom_3x3_k2();
        let back = col2im(&im2col(&img, &g).unwrap(), &g).unwrap();
        // Center pixel participates in all four 2x2 fields.
        assert_eq!(back.at(&[0, 1, 1]), 4.0);
        // Corner participates in exactly one.
        assert_eq!(back.at(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn shape_validation() {
        let img = Tensor::zeros(Shape::d3(2, 3, 3));
        assert!(im2col(&img, &geom_3x3_k2()).is_err());
        let bad_cols = Tensor::zeros(Shape::d2(3, 3));
        assert!(col2im(&bad_cols, &geom_3x3_k2()).is_err());
    }

    #[test]
    fn zero_stride_is_a_typed_error() {
        let g = ConvGeometry { stride: 0, ..geom_3x3_k2() };
        let img = Tensor::zeros(Shape::d3(1, 3, 3));
        assert!(matches!(im2col(&img, &g), Err(TensorError::InvalidArgument(_))));
        let cols = Tensor::zeros(Shape::d2(4, 4));
        assert!(matches!(col2im(&cols, &g), Err(TensorError::InvalidArgument(_))));
    }

    #[test]
    fn kernel_larger_than_padded_input_is_a_typed_error() {
        // 3 + 2·0 < 4 rows; the width alone would fit.
        let g = ConvGeometry { kh: 4, kw: 2, ..geom_3x3_k2() };
        let img = Tensor::zeros(Shape::d3(1, 3, 3));
        assert!(matches!(im2col(&img, &g), Err(TensorError::InvalidArgument(_))));
        let cols = Tensor::zeros(Shape::d2(8, 2));
        assert!(matches!(col2im(&cols, &g), Err(TensorError::InvalidArgument(_))));
        // Padding that makes the kernel fit is accepted.
        let padded = ConvGeometry { pad: 1, ..g };
        assert!(im2col(&img, &padded).is_ok());
    }
}
