//! Statistics core for the performance-history pipeline.
//!
//! Everything here is dependency-free and pure: robust location/dispersion
//! estimators (median, interquartile range) and a Mann–Whitney U
//! rank test (normal approximation with tie correction and continuity
//! correction) for parent/change comparisons. A rank test is used instead
//! of a t-test because wall-clock samples on a shared 1-CPU host are
//! heavy-tailed: one scheduler preemption produces an outlier that would
//! wreck a mean/variance-based test but barely moves the ranks.

/// Median of a sample set: the mean of the two middle order statistics for
/// even `n`, the middle one for odd `n`. Empty input yields 0.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Distance between the first and third quartiles, interpolating
/// linearly between order statistics. 0 for fewer than two samples.
pub fn iqr(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let h = q * (s.len() - 1) as f64;
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        s[lo] + (h - lo as f64) * (s[hi] - s[lo])
    };
    quantile(0.75) - quantile(0.25)
}

/// Result of a two-sided Mann–Whitney U test between samples `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankTest {
    /// U statistic of sample `a`: the number of pairs `(a_i, b_j)` with
    /// `a_i > b_j`, counting ties as one half.
    pub u_a: f64,
    /// Normal-approximation z score (continuity-corrected, tie-corrected).
    pub z: f64,
    /// Two-sided p-value under the normal approximation. `1.0` when a
    /// sample is empty or every observation is tied.
    pub p_value: f64,
    /// Rank-biserial effect size `2·U_a/(n_a·n_b) − 1` in `[-1, 1]`:
    /// positive when `a` tends to be larger than `b`, 0 for total overlap.
    pub effect_r: f64,
}

/// Two-sided Mann–Whitney U test (a.k.a. Wilcoxon rank-sum) of `a` vs `b`.
///
/// Ranks the pooled samples with average ranks for ties, computes
/// `U_a = R_a − n_a(n_a+1)/2`, and evaluates significance via the normal
/// approximation with the standard tie-corrected variance
/// `n_a·n_b/12 · ((N+1) − Σ(t³−t)/(N(N−1)))` and a 0.5 continuity
/// correction toward the mean. Exactness caveat: the approximation is
/// conservative-ish below ~4 samples per side.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> RankTest {
    let (na, nb) = (a.len(), b.len());
    if na == 0 || nb == 0 {
        return RankTest { u_a: 0.0, z: 0.0, p_value: 1.0, effect_r: 0.0 };
    }
    // Pool and rank: (value, came-from-a).
    let mut pooled: Vec<(f64, bool)> = a.iter().map(|&x| (x, true)).collect();
    pooled.extend(b.iter().map(|&x| (x, false)));
    pooled.sort_by(|x, y| f64::total_cmp(&x.0, &y.0));
    let n = pooled.len();

    let mut rank_sum_a = 0.0_f64;
    let mut tie_term = 0.0_f64; // Σ (t³ − t) over tie groups.
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && pooled[j].0 == pooled[i].0 {
            j += 1;
        }
        let t = (j - i) as f64;
        // Average rank of the tie group [i, j): ranks are 1-based.
        let avg_rank = (i + 1 + j) as f64 / 2.0;
        for p in &pooled[i..j] {
            if p.1 {
                rank_sum_a += avg_rank;
            }
        }
        tie_term += t * t * t - t;
        i = j;
    }

    let (naf, nbf, nf) = (na as f64, nb as f64, n as f64);
    let u_a = rank_sum_a - naf * (naf + 1.0) / 2.0;
    let effect_r = 2.0 * u_a / (naf * nbf) - 1.0;

    let mean_u = naf * nbf / 2.0;
    let variance = naf * nbf / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if variance <= 0.0 {
        // Every pooled observation tied: no evidence of any difference.
        return RankTest { u_a, z: 0.0, p_value: 1.0, effect_r };
    }
    // Continuity correction: shift U half a step toward the mean.
    let diff = u_a - mean_u;
    let corrected = if diff > 0.5 {
        diff - 0.5
    } else if diff < -0.5 {
        diff + 0.5
    } else {
        0.0
    };
    let z = corrected / variance.sqrt();
    let p_value = two_sided_p(z);
    RankTest { u_a, z, p_value, effect_r }
}

/// Two-sided normal-tail probability `P(|Z| ≥ |z|) = erfc(|z|/√2)`.
fn two_sided_p(z: f64) -> f64 {
    erfc(z.abs() / std::f64::consts::SQRT_2).clamp(0.0, 1.0)
}

/// Complementary error function, rational Chebyshev approximation
/// (Numerical Recipes §6.2); absolute error < 1.2e-7 everywhere — far
/// below anything a p-value threshold can notice.
fn erfc(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.5 * x.abs());
    let poly = -x * x - 1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277))))))));
    let ans = t * poly.exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_hand_fixtures() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5, "order must not matter");
    }

    #[test]
    fn mann_whitney_fully_separated_hand_fixture() {
        // a = [1,2,3] all below b = [4,5,6]: rank-sum(a) = 1+2+3 = 6,
        // U_a = 6 - 3·4/2 = 0, mean 4.5, var = 9·7/12 = 5.25,
        // z = (0 - 4.5 + 0.5)/√5.25 = -1.74574,
        // p = erfc(1.74574/√2) ≈ 0.08086.
        let t = mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        assert_eq!(t.u_a, 0.0);
        assert_eq!(t.effect_r, -1.0);
        assert!((t.z - -1.74574).abs() < 1e-4, "z={}", t.z);
        assert!((t.p_value - 0.08086).abs() < 5e-4, "p={}", t.p_value);
    }

    #[test]
    fn mann_whitney_tie_corrected_hand_fixture() {
        // a = [1,1,2], b = [1,2,2]. Pooled sorted: 1,1,1 (avg rank 2) and
        // 2,2,2 (avg rank 5). rank-sum(a) = 2+2+5 = 9, U_a = 9 - 6 = 3.
        // Ties: two groups of 3, Σ(t³−t) = 48.
        // var = (9/12)·(7 − 48/30) = 4.05, z = (3 − 4.5 + 0.5)/√4.05 =
        // -0.49690, p ≈ 0.61928.
        let t = mann_whitney_u(&[1.0, 1.0, 2.0], &[1.0, 2.0, 2.0]);
        assert_eq!(t.u_a, 3.0);
        assert!((t.z - -0.49690).abs() < 1e-4, "z={}", t.z);
        assert!((t.p_value - 0.61928).abs() < 5e-4, "p={}", t.p_value);
        assert!((t.effect_r - (2.0 * 3.0 / 9.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn mann_whitney_degenerate_inputs() {
        assert_eq!(mann_whitney_u(&[], &[1.0]).p_value, 1.0);
        assert_eq!(mann_whitney_u(&[1.0], &[]).p_value, 1.0);
        let all_tied = mann_whitney_u(&[2.0, 2.0], &[2.0, 2.0]);
        assert_eq!(all_tied.p_value, 1.0, "zero variance must not divide by zero");
        assert_eq!(all_tied.effect_r, 0.0);
    }

    #[test]
    fn erfc_reference_points() {
        // erfc(0) = 1, erfc(1) ≈ 0.157299, erfc(-1) ≈ 1.842701.
        assert!((erfc(0.0) - 1.0).abs() < 2e-7);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842701).abs() < 1e-6);
        assert!(erfc(5.0) < 2e-12);
    }

    #[test]
    fn iqr_interpolates_between_order_statistics() {
        assert_eq!(iqr(&[]), 0.0);
        assert_eq!(iqr(&[4.0]), 0.0);
        // Quartiles of 1..=5 are 2 and 4.
        assert_eq!(iqr(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        // Of 1..=4: 1.75 and 3.25.
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0]), 1.5);
    }
}
