//! 16-bit fixed-point arithmetic matching the simulated accelerator cores.
//!
//! The paper's cores (Table II) use "16-bit fixed-point integer operation",
//! the DianNao convention: a signed 16-bit value with an implied binary
//! point. We default to the Q7.8 format (1 sign bit, 7 integer bits,
//! 8 fraction bits) which covers the activation/weight ranges of the
//! trained networks. The type exists so the evaluation pass can measure the
//! accuracy of the *quantized* network that would actually run on the chip,
//! and so per-value traffic is exactly 2 bytes as in Table I.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of fractional bits in the default Q7.8 format.
pub const DEFAULT_FRAC_BITS: u32 = 8;

/// A 16-bit signed fixed-point value in Q(15-F).F format.
///
/// # Examples
///
/// ```
/// use lts_tensor::Fixed16;
///
/// let x = Fixed16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// let y = x.saturating_mul(Fixed16::from_f32(2.0));
/// assert_eq!(y.to_f32(), 3.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Fixed16(i16);

impl Fixed16 {
    /// The maximum representable value.
    pub const MAX: Fixed16 = Fixed16(i16::MAX);
    /// The minimum representable value.
    pub const MIN: Fixed16 = Fixed16(i16::MIN);
    /// Zero.
    pub const ZERO: Fixed16 = Fixed16(0);

    /// Converts from `f32`, rounding to nearest and saturating at the
    /// representable range.
    pub fn from_f32(x: f32) -> Self {
        let scaled = (x * (1 << DEFAULT_FRAC_BITS) as f32).round();
        let clamped = scaled.clamp(i16::MIN as f32, i16::MAX as f32);
        Fixed16(clamped as i16)
    }

    /// Converts back to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / (1 << DEFAULT_FRAC_BITS) as f32
    }

    /// The raw 16-bit representation.
    pub fn to_bits(self) -> i16 {
        self.0
    }

    /// Builds a value from its raw 16-bit representation.
    pub fn from_bits(bits: i16) -> Self {
        Fixed16(bits)
    }

    /// Saturating fixed-point addition.
    pub fn saturating_add(self, rhs: Fixed16) -> Fixed16 {
        Fixed16(self.0.saturating_add(rhs.0))
    }

    /// Saturating fixed-point multiplication (Q7.8 × Q7.8 → Q7.8).
    ///
    /// The 32-bit product's fractional bits are rounded half away from
    /// zero before the result is clamped to the representable range, so
    /// the result is the nearest representable value to the real product
    /// (an arithmetic shift alone would floor, biasing negative products
    /// toward -inf and positive ones toward zero).
    pub fn saturating_mul(self, rhs: Fixed16) -> Fixed16 {
        let wide = (self.0 as i32) * (rhs.0 as i32);
        // |wide| <= 2^30, so magnitude arithmetic fits comfortably in u32
        // and the rounded magnitude in i32.
        let half = 1u32 << (DEFAULT_FRAC_BITS - 1);
        let mag = ((wide.unsigned_abs() + half) >> DEFAULT_FRAC_BITS) as i32;
        let rounded = if wide < 0 { -mag } else { mag };
        Fixed16(rounded.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }

    /// Whether the value is exactly zero (a zero value need not be sent over
    /// the NoC — the heart of the sparsified parallelization).
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The quantization step of the format (2⁻⁸ for Q7.8).
    pub fn resolution() -> f32 {
        1.0 / (1 << DEFAULT_FRAC_BITS) as f32
    }
}

impl fmt::Display for Fixed16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<Fixed16> for f32 {
    fn from(x: Fixed16) -> f32 {
        x.to_f32()
    }
}

/// Quantizes an `f32` slice through the Q7.8 format, returning the
/// dequantized values (what the accelerator would compute with).
///
/// Allocates a fresh `Vec`; hot paths should prefer
/// [`quantize_dequantize_into`] or [`quantize_dequantize_in_place`] on a
/// reused scratch buffer, per the `Workspace` zero-alloc convention.
pub fn quantize_dequantize(values: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; values.len()];
    quantize_dequantize_into(values, &mut out);
    out
}

/// Quantize→dequantize round trip through Q7.8 into a caller-provided
/// buffer (no allocation).
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub fn quantize_dequantize_into(values: &[f32], out: &mut [f32]) {
    assert_eq!(values.len(), out.len(), "quantize_dequantize_into: length mismatch");
    for (dst, &x) in out.iter_mut().zip(values) {
        *dst = Fixed16::from_f32(x).to_f32();
    }
}

/// Quantize→dequantize round trip through Q7.8, in place.
pub fn quantize_dequantize_in_place(values: &mut [f32]) {
    for v in values {
        *v = Fixed16::from_f32(*v).to_f32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representable_values_roundtrip_exactly() {
        for x in [-1.0f32, 0.0, 0.5, 1.5, -3.25, 127.0] {
            assert_eq!(Fixed16::from_f32(x).to_f32(), x, "{x}");
        }
    }

    #[test]
    fn roundtrip_error_bounded_by_half_resolution() {
        let step = Fixed16::resolution();
        for i in 0..1000 {
            let x = (i as f32) * 0.017 - 8.0;
            let err = (Fixed16::from_f32(x).to_f32() - x).abs();
            assert!(err <= step / 2.0 + f32::EPSILON, "x={x} err={err}");
        }
    }

    #[test]
    fn saturates_at_range_limits() {
        assert_eq!(Fixed16::from_f32(1000.0), Fixed16::MAX);
        assert_eq!(Fixed16::from_f32(-1000.0), Fixed16::MIN);
        assert_eq!(Fixed16::MAX.saturating_add(Fixed16::from_f32(1.0)), Fixed16::MAX);
    }

    #[test]
    fn multiplication_matches_float_for_small_values() {
        let a = Fixed16::from_f32(1.25);
        let b = Fixed16::from_f32(-2.0);
        assert_eq!(a.saturating_mul(b).to_f32(), -2.5);
    }

    #[test]
    fn multiplication_rounds_half_away_from_zero() {
        // 3/256 * 85/256 = 255/65536 = 0.99609/256: nearest Q7.8 value is
        // 1/256, but a truncating shift would floor it to 0.
        let pos = Fixed16::from_bits(3).saturating_mul(Fixed16::from_bits(85));
        assert_eq!(pos.to_bits(), 1);
        // The mirrored negative product must round to -1/256, not floor
        // to -1/256-by-accident or truncate toward zero to 0.
        let neg = Fixed16::from_bits(-3).saturating_mul(Fixed16::from_bits(85));
        assert_eq!(neg.to_bits(), -1);
        // Exact half-ulp products (wide = ±128) round away from zero.
        assert_eq!(Fixed16::from_bits(2).saturating_mul(Fixed16::from_bits(64)).to_bits(), 1);
        assert_eq!(Fixed16::from_bits(-2).saturating_mul(Fixed16::from_bits(64)).to_bits(), -1);
        // Just under half an ulp (wide = ±127) rounds to zero either way.
        assert_eq!(Fixed16::from_bits(1).saturating_mul(Fixed16::from_bits(127)).to_bits(), 0);
        assert_eq!(Fixed16::from_bits(-1).saturating_mul(Fixed16::from_bits(127)).to_bits(), 0);
    }

    #[test]
    fn multiplication_saturates_at_extremes() {
        // MIN * MIN = 2^30 (positive): saturates at MAX, not wraparound.
        assert_eq!(Fixed16::MIN.saturating_mul(Fixed16::MIN), Fixed16::MAX);
        assert_eq!(Fixed16::MAX.saturating_mul(Fixed16::MAX), Fixed16::MAX);
        assert_eq!(Fixed16::MIN.saturating_mul(Fixed16::MAX), Fixed16::MIN);
        assert_eq!(Fixed16::MAX.saturating_mul(Fixed16::MIN), Fixed16::MIN);
    }

    #[test]
    fn zero_detection() {
        assert!(Fixed16::from_f32(0.0).is_zero());
        // Values below half the resolution quantize to exactly zero: this is
        // why "sparsified" activations genuinely skip NoC transmission.
        assert!(Fixed16::from_f32(0.001).is_zero());
        assert!(!Fixed16::from_f32(0.01).is_zero());
    }

    #[test]
    fn quantize_dequantize_slice() {
        let v = quantize_dequantize(&[0.1, 0.2]);
        assert!((v[0] - 0.1).abs() < Fixed16::resolution());
        assert!((v[1] - 0.2).abs() < Fixed16::resolution());
    }

    #[test]
    fn quantize_dequantize_variants_agree() {
        let src = [0.1f32, -0.31, 2.875, 200.0, -0.0019];
        let alloc = quantize_dequantize(&src);
        let mut into = [0.0f32; 5];
        quantize_dequantize_into(&src, &mut into);
        let mut inplace = src;
        quantize_dequantize_in_place(&mut inplace);
        assert_eq!(alloc.as_slice(), into.as_slice());
        assert_eq!(alloc.as_slice(), inplace.as_slice());
    }

    #[test]
    fn bits_roundtrip() {
        let x = Fixed16::from_f32(-1.5);
        assert_eq!(Fixed16::from_bits(x.to_bits()), x);
    }
}
