//! `im2col`/`col2im` lowering for convolution.
//!
//! A convolution over an NCHW input with kernel `[kh, kw]`, stride and
//! padding is lowered to a matrix product by unrolling each receptive field
//! into a column. For one image, the column matrix has shape
//! `[in_c * kh * kw, out_h * out_w]`; the kernel tensor flattens to
//! `[out_c, in_c * kh * kw]`, and the product is the `[out_c, out_h * out_w]`
//! output feature map. The f32 and the quantized i16 convolutions share
//! one generic unroll, [`im2col_into`], which copies each kernel tap's
//! in-image span of an output row as one segment.

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
/// column matrix per call. It is generic over the element type, so the
/// f32 convolution and the quantized i16 one share it.
///
/// Each input row a kernel row reads is first copied into a
/// zero-bordered row (on the stack up to `MAX_ROW` wide), so every
/// `(c, ky, kx)` row of the column matrix is made of one `out_w`-long
/// segment per output row: a plain slice copy at stride 1, a gather
/// otherwise, a zero fill where the kernel row lies in the padding.
/// Output widths of 8, 16 and 32 are compile-time constants, so their
/// segment copies are a few register moves rather than a `memcpy` call.
/// Results equal [`reference::im2col_into_ref`].
///
/// # Panics
///
/// Panics if `src` or `dst` disagree with the geometry's element counts.
pub fn im2col_into<T: Copy + Default>(src: &[T], geom: &ConvGeometry, dst: &mut [T]) {
    let _probe = lts_obs::span("tensor.im2col");
    assert_eq!(src.len(), geom.in_c * geom.in_h * geom.in_w, "input size mismatch");
    assert_eq!(dst.len(), geom.col_rows() * geom.col_cols(), "column buffer size mismatch");
    if dst.is_empty() {
        return;
    }
    match geom.out_w() {
        8 => segments::<T, 8>(src, geom, dst),
        16 => segments::<T, 16>(src, geom, dst),
        32 => segments::<T, 32>(src, geom, dst),
        _ => segments::<T, 0>(src, geom, dst),
    }
}

/// Widest zero-bordered input row ([`ConvGeometry::in_w`] plus twice the
/// padding) that [`im2col_into`] builds on the stack; a wider one is
/// allocated once per call.
const MAX_ROW: usize = 512;

/// [`im2col_into`] for output width `OW`, or `geom.out_w()` when `OW` is 0.
fn segments<T: Copy + Default, const OW: usize>(src: &[T], geom: &ConvGeometry, dst: &mut [T]) {
    let ow = if OW == 0 { geom.out_w() } else { OW };
    let (oh, stride, pad) = (geom.out_h(), geom.stride, geom.pad);
    let (ih, iw, kw) = (geom.in_h, geom.in_w, geom.kw);
    // The zero border is written once; each input row overwrites the inside.
    let (mut stack, mut heap) = ([T::default(); MAX_ROW], Vec::new());
    let line: &mut [T] = if iw + 2 * pad <= MAX_ROW {
        &mut stack
    } else {
        heap.resize(iw + 2 * pad, T::default());
        &mut heap
    };
    let plane = oh * ow;
    for (row, taps) in dst.chunks_exact_mut(kw * plane).enumerate() {
        let (c, ky) = (row / geom.kh, row % geom.kh);
        for oy in 0..oh {
            // Rows above the image wrap around to large values.
            let sy = (oy * stride + ky).wrapping_sub(pad);
            let image_row = (sy < ih).then(|| &src[(c * ih + sy) * iw..][..iw]);
            if let Some(image_row) = image_row {
                line[pad..pad + iw].copy_from_slice(image_row);
            }
            for (kx, tap) in taps.chunks_exact_mut(plane).enumerate() {
                let seg = &mut tap[oy * ow..][..ow];
                if image_row.is_none() {
                    seg.fill(T::default());
                } else if stride == 1 {
                    seg.copy_from_slice(&line[kx..kx + ow]);
                } else {
                    for (ox, d) in seg.iter_mut().enumerate() {
                        *d = line[kx + ox * stride];
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

pub mod reference {
    //! The per-element column unroll, retained as the oracle of
    //! [`im2col_into`](super::im2col_into): the property tests assert
    //! that both give the same matrix for f32 and i16 over strided,
    //! padded and degenerate geometries. Not for production use.

    use super::ConvGeometry;

    /// Per-element `im2col`: one bounds test per column-matrix element.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` disagree with the geometry's element
    /// counts.
    pub fn im2col_into_ref<T: Copy + Default>(src: &[T], geom: &ConvGeometry, dst: &mut [T]) {
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
                                T::default()
                            };
                            dst[row * cols + oy * ow + ox] = val;
                        }
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
    fn rows_on_both_sides_of_the_stack_row_limit_match_the_reference() {
        // A padded row of exactly MAX_ROW elements is built on the stack,
        // one element wider on the heap.
        for in_w in [MAX_ROW - 2, MAX_ROW - 1] {
            let g = ConvGeometry { in_c: 2, in_h: 3, in_w, kh: 3, kw: 3, stride: 1, pad: 1 };
            let src: Vec<f32> = (0..2 * 3 * in_w).map(|x| x as f32).collect();
            let len = g.col_rows() * g.col_cols();
            let (mut got, mut want) = (vec![1.0; len], vec![2.0; len]);
            im2col_into(&src, &g, &mut got);
            reference::im2col_into_ref(&src, &g, &mut want);
            assert_eq!(got, want, "in_w {in_w}");
        }
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
