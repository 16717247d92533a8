//! Per-tensor symmetric scale quantization for the i16 inference path.
//!
//! [`crate::fixed::Fixed16`] pins the Q7.8 format of the simulated
//! accelerator cores; this module generalizes the mapping to a per-tensor
//! *symmetric scale* chosen from calibration min/max, the DianNao-style
//! convention a deployed 16-bit chip would actually use. A real value `x`
//! is stored as `q = round(x / scale)` clamped to the i16 range and
//! recovered as `q * scale`; zero is always exactly representable
//! (`q = 0`), so pruned weights and sparsified activations stay exactly
//! zero through quantization — the zero-skip in the i16 GEMM kernels and
//! the NoC's zero-suppression both survive.
//!
//! The scale is chosen so the calibrated range maps onto `±i16::MAX`:
//! `scale = max(|min|, |max|) / 32767`. [`QuantParams::q78`] recovers the
//! fixed Q7.8 format (`scale = 2⁻⁸`) for bit-compatibility with
//! [`crate::fixed::Fixed16::from_f32`].

use serde::{Deserialize, Serialize};

/// Per-tensor symmetric quantization parameters: a single positive scale.
///
/// # Examples
///
/// ```
/// use lts_tensor::quant::QuantParams;
///
/// let p = QuantParams::from_slice(&[-0.5, 0.25, 2.0]);
/// let q = p.quantize(0.25);
/// assert!((p.dequantize(q) - 0.25).abs() <= p.scale() / 2.0);
/// assert_eq!(p.quantize(0.0), 0); // zero is exact
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    scale: f32,
    max_code: i16,
}

impl QuantParams {
    /// Chooses a symmetric scale covering `[min, max]`: the value of
    /// largest magnitude maps to `±i16::MAX`. Degenerate (all-zero or
    /// non-finite) ranges fall back to the Q7.8 scale so the parameters
    /// stay usable.
    pub fn from_min_max(min: f32, max: f32) -> Self {
        Self::from_min_max_with_headroom(min, max, 1.0)
    }

    /// Like [`QuantParams::from_min_max`], but the largest-magnitude value
    /// maps to `±i16::MAX / headroom` instead of the full range.
    ///
    /// This is how the i16 GEMM path guarantees its i32 accumulators never
    /// wrap: quantizing *both* operands of a length-`k` reduction with
    /// `headroom = √k` bounds every accumulated dot product by
    /// `k · (i16::MAX/√k)² = i16::MAX² < 2³¹`, for any input whatsoever.
    /// The cost is `log2(headroom)` bits of precision (e.g. ~5 bits at
    /// k = 1152, leaving ~10-bit operands — still well inside the ≤1%
    /// accuracy budget of 16-bit CNN inference).
    pub fn from_min_max_with_headroom(min: f32, max: f32, headroom: f32) -> Self {
        let amax = min.abs().max(max.abs());
        if !amax.is_finite() || amax <= 0.0 {
            return Self::q78();
        }
        let headroom = if headroom.is_finite() { headroom.max(1.0) } else { 1.0 };
        QuantParams {
            scale: amax * headroom / i16::MAX as f32,
            max_code: (i16::MAX as f32 / headroom).round() as i16,
        }
    }

    /// Calibrates from the observed values of a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Self::from_slice_with_headroom(values, 1.0)
    }

    /// Calibrates from a slice with accumulator headroom (see
    /// [`QuantParams::from_min_max_with_headroom`]).
    pub fn from_slice_with_headroom(values: &[f32], headroom: f32) -> Self {
        let mut amax = 0.0f32;
        for &v in values {
            if v.is_finite() {
                amax = amax.max(v.abs());
            }
        }
        Self::from_min_max_with_headroom(-amax, amax, headroom)
    }

    /// The fixed Q7.8 scale (2⁻⁸), matching [`crate::fixed::Fixed16`].
    pub fn q78() -> Self {
        QuantParams {
            scale: 1.0 / (1 << crate::fixed::DEFAULT_FRAC_BITS) as f32,
            max_code: i16::MAX,
        }
    }

    /// The quantization step: one i16 unit in real-value terms.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The saturation code: values clamp to `±max_code` (`i16::MAX /
    /// headroom`), so the accumulator-headroom guarantee holds even for
    /// inputs beyond the calibrated range.
    pub fn max_code(&self) -> i16 {
        self.max_code
    }

    /// Quantizes one value: round to nearest (ties away from zero),
    /// saturate at the symmetric `±max_code` range (the most-negative i16
    /// code is never emitted, so negation can't overflow downstream); NaN
    /// maps to 0. Without a libm call, the clamped quotient is truncated
    /// and moved one code away from zero when its (exact) fraction is at
    /// least one half, which equals `round` then clamp for every input.
    pub fn quantize(&self, x: f32) -> i16 {
        let max = self.max_code as f32;
        let scaled = (x / self.scale).clamp(-max, max);
        let t = scaled as i32;
        let frac = scaled - t as f32;
        (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i16
    }

    /// Recovers the real value of one quantized unit, exactly.
    pub fn dequantize(&self, q: i16) -> f32 {
        q as f32 * self.scale
    }

    /// Quantizes a slice into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.len()`.
    pub fn quantize_into(&self, values: &[f32], out: &mut [i16]) {
        assert_eq!(values.len(), out.len(), "quantize_into: length mismatch");
        for (dst, &x) in out.iter_mut().zip(values) {
            *dst = self.quantize(x);
        }
    }

    /// Dequantizes a slice into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.len()`.
    pub fn dequantize_into(&self, values: &[i16], out: &mut [f32]) {
        assert_eq!(values.len(), out.len(), "dequantize_into: length mismatch");
        for (dst, &q) in out.iter_mut().zip(values) {
            *dst = self.dequantize(q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fixed16;

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let p = QuantParams::from_min_max(-3.7, 2.1);
        for i in 0..1000 {
            let x = -3.7 + (i as f32) * (5.8 / 1000.0);
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            assert!(err <= p.scale() / 2.0 + f32::EPSILON, "x={x} err={err}");
        }
    }

    #[test]
    fn extremes_map_to_i16_max() {
        let p = QuantParams::from_min_max(-4.0, 2.0);
        assert_eq!(p.quantize(-4.0), -i16::MAX);
        assert_eq!(p.quantize(4.0), i16::MAX);
        // Out-of-calibration values saturate instead of wrapping.
        assert_eq!(p.quantize(1e9), i16::MAX);
        assert_eq!(p.quantize(-1e9), -i16::MAX);
    }

    #[test]
    fn quantize_equals_the_rounding_formula_everywhere() {
        // The libm-free rounding against `round` then clamp: ties k ± 0.5,
        // the neighbours of every tie and of every code boundary near
        // ±max_code, ±0, subnormals, ±inf, NaN and saturating inputs, at
        // unit scale (so quotients are the inputs) and at a headroom scale.
        let by_formula = |p: &QuantParams, x: f32| {
            let m = p.max_code() as f32;
            (x / p.scale()).round().clamp(-m, m) as i16
        };
        let mut inputs = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
            1e9,
            -1e9,
        ];
        for k in (0..40).chain(1000..1040).chain(32700..32800) {
            for x in [k as f32 + 0.5, k as f32, k as f32 + 0.25, k as f32 + 0.75] {
                for y in [x, x.next_up(), x.next_down()] {
                    inputs.extend([y, -y]);
                }
            }
        }
        for p in [
            QuantParams::from_min_max(-32767.0, 32767.0),
            QuantParams::from_min_max_with_headroom(-1.0, 1.0, 27.7),
            QuantParams::q78(),
        ] {
            let m = p.max_code() as f32 * p.scale();
            for step in -40..=40 {
                let x = m + step as f32 * p.scale() / 4.0;
                inputs.extend([x, -x, x.next_up(), -x.next_up(), x.next_down(), -x.next_down()]);
            }
            for &x in &inputs {
                assert_eq!(p.quantize(x), by_formula(&p, x), "{x} ({:#x}) at {p:?}", x.to_bits());
            }
        }
    }

    #[test]
    fn zero_is_exact() {
        for p in [QuantParams::from_min_max(-1.3, 0.9), QuantParams::q78()] {
            assert_eq!(p.quantize(0.0), 0);
            assert_eq!(p.dequantize(0), 0.0);
        }
    }

    #[test]
    fn q78_matches_fixed16() {
        let p = QuantParams::q78();
        for x in [-1.0f32, 0.0, 0.5, 1.5, -3.25, 127.0, 0.1, -0.31, 1000.0] {
            let via_fixed = Fixed16::from_f32(x);
            // Fixed16 clamps to i16::MIN..=MAX while the symmetric scheme
            // clamps to -MAX..=MAX; they agree everywhere except the single
            // most-negative code, which the calibrated scales never emit.
            let expected = via_fixed.to_bits().max(-i16::MAX);
            assert_eq!(p.quantize(x), expected, "{x}");
        }
    }

    #[test]
    fn degenerate_ranges_fall_back_to_q78() {
        assert_eq!(QuantParams::from_min_max(0.0, 0.0), QuantParams::q78());
        assert_eq!(QuantParams::from_slice(&[]), QuantParams::q78());
        assert_eq!(QuantParams::from_min_max(f32::NAN, f32::INFINITY), QuantParams::q78());
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let src = [0.5f32, -0.25, 0.0, 1.75, -2.0];
        let p = QuantParams::from_slice(&src);
        let mut q = [0i16; 5];
        p.quantize_into(&src, &mut q);
        assert_eq!(q[2], 0);
        let mut back = [0.0f32; 5];
        p.dequantize_into(&q, &mut back);
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() <= p.scale() / 2.0 + f32::EPSILON);
        }
    }
}
