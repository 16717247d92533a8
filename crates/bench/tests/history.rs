//! Properties of the statistics behind the parent/change verdicts.

use lts_bench::history::stats::{iqr, mad, mann_whitney_u, median};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rank test is symmetric: swapping the samples preserves the
    /// p-value exactly and negates the effect size.
    #[test]
    fn rank_test_is_symmetric(
        pair in proptest::collection::vec((1.0f64..1000.0, 1.0f64..1000.0), 1..12)
    ) {
        let a: Vec<f64> = pair.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pair.iter().map(|p| p.1).collect();
        let ab = mann_whitney_u(&a, &b);
        let ba = mann_whitney_u(&b, &a);
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-12, "{ab:?} vs {ba:?}");
        prop_assert!((ab.effect_r + ba.effect_r).abs() < 1e-12, "{ab:?} vs {ba:?}");
        prop_assert!((ab.z + ba.z).abs() < 1e-9, "{ab:?} vs {ba:?}");
    }

    /// Two identical sample sets are never told apart, at any sample
    /// count.
    #[test]
    fn identical_samples_are_never_flagged(
        samples in proptest::collection::vec(0.001f64..1000.0, 1..16)
    ) {
        let t = mann_whitney_u(&samples, &samples);
        // erfc is a rational approximation, good to ~1.2e-7.
        prop_assert!((t.p_value - 1.0).abs() < 1e-6, "{t:?}");
        prop_assert!(t.effect_r.abs() < 1e-12, "{t:?}");
    }

    /// The median lies within the samples' range and ignores their order.
    #[test]
    fn median_lies_within_the_range_and_ignores_order(
        samples in proptest::collection::vec(-1000.0f64..1000.0, 1..16)
    ) {
        let m = median(&samples);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo <= m && m <= hi, "{m} outside [{lo}, {hi}]");
        let mut reversed = samples.clone();
        reversed.reverse();
        prop_assert_eq!(median(&reversed), m);
    }

    /// Shifting every sample moves the median by the shift and leaves the
    /// spread estimates (MAD and IQR) where they were.
    #[test]
    fn spread_estimates_are_shift_invariant(
        samples in proptest::collection::vec(0.0f64..100.0, 1..16),
        shift in -100.0f64..100.0
    ) {
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        prop_assert!((median(&shifted) - median(&samples) - shift).abs() < 1e-9);
        prop_assert!((mad(&shifted) - mad(&samples)).abs() < 1e-9);
        prop_assert!((iqr(&shifted) - iqr(&samples)).abs() < 1e-9);
    }

    /// The IQR is never negative and never wider than the range.
    #[test]
    fn iqr_lies_within_the_range(
        samples in proptest::collection::vec(-1000.0f64..1000.0, 0..16)
    ) {
        let spread = iqr(&samples);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(spread >= 0.0, "{spread}");
        prop_assert!(samples.len() < 2 || spread <= hi - lo + 1e-9, "{spread} > {hi} - {lo}");
    }
}
