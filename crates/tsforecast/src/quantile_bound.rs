//! Distribution-free confidence bounds on quantiles via order statistics.
//!
//! This is the inferential core of QBETS (paper §3.1). For i.i.d.
//! observations and a target quantile `q`, the count of observations above
//! the true `q`-quantile `Q` is `Binomial(n, 1-q)`; inverting that binomial
//! yields the order-statistic index whose value upper-bounds `Q` with
//! confidence `c`:
//!
//! * **Upper bound**: the largest `k >= 1` with
//!   `BinomCdf(k-1; n, 1-q) <= 1-c` makes the `k`-th **largest** observation
//!   an upper `c`-confidence bound on `Q` (larger `k` = tighter bound).
//! * **Lower bound**: symmetrically, the largest `j >= 1` with
//!   `BinomCdf(j-1; n, q) <= 1-c` makes the `j`-th **smallest** observation a
//!   lower `c`-confidence bound on `Q`.
//!
//! When `n` is too small (`q^n > 1-c` for the upper case) no order statistic
//! achieves confidence `c` and the functions return `None`; callers choose a
//! fallback (DrAFTS uses the sample extreme, flagged as unguaranteed).

use crate::binomial;

/// Validates `(q, c)` parameters shared by all bound functions.
fn check_params(q: f64, c: f64) {
    assert!(q > 0.0 && q < 1.0, "quantile q must be in (0,1), got {q}");
    assert!(c > 0.0 && c < 1.0, "confidence c must be in (0,1), got {c}");
}

/// Returns the 1-based index `k` (into the **descending** order statistics)
/// such that the `k`-th largest of `n` observations is an upper
/// `c`-confidence bound on the `q`-quantile, or `None` if `n` is too small.
pub fn upper_bound_index(n: usize, q: f64, c: f64) -> Option<usize> {
    check_params(q, c);
    if n == 0 {
        return None;
    }
    let p = 1.0 - q;
    let n64 = n as u64;
    // k is the smallest j with BinomCdf(j; n, p) > 1-c; equivalently the
    // largest k with BinomCdf(k-1) <= 1-c. If already CDF(0) > 1-c there is
    // no admissible k.
    if binomial::cdf(0, n64, p) > 1.0 - c {
        return None;
    }
    Some(invert_cdf(n64, p, 1.0 - c))
}

/// Smallest `j >= 1` with `BinomCdf(j; n, p) > target`, given
/// `BinomCdf(0) <= target`. Exponential search keeps every CDF evaluation
/// in the cheap left tail (cost O(j) per call, O(j_final) overall) instead
/// of letting a plain binary search evaluate at `k ~ n/2`.
fn invert_cdf(n: u64, p: f64, target: f64) -> usize {
    // Invariant after the loop: cdf(lo) <= target < cdf(hi).
    let mut hi = 1u64;
    while hi < n && binomial::cdf(hi, n, p) <= target {
        hi = (hi * 2).min(n);
    }
    let mut lo = hi / 2;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if binomial::cdf(mid, n, p) > target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi as usize
}

/// Returns the 1-based index `j` (into the **ascending** order statistics)
/// such that the `j`-th smallest of `n` observations is a lower
/// `c`-confidence bound on the `q`-quantile, or `None` if `n` is too small.
pub fn lower_bound_index(n: usize, q: f64, c: f64) -> Option<usize> {
    // Duality: lower bound on the q-quantile of X is the negated upper bound
    // on the (1-q)-quantile of -X; index arithmetic works out to the same
    // inversion with success probability q.
    check_params(q, c);
    upper_bound_index_with_p(n, q, c)
}

/// Shared inversion: largest `k` with `BinomCdf(k-1; n, p) <= 1-c`.
fn upper_bound_index_with_p(n: usize, p: f64, c: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let n64 = n as u64;
    if binomial::cdf(0, n64, p) > 1.0 - c {
        return None;
    }
    Some(invert_cdf(n64, p, 1.0 - c))
}

/// Upper `c`-confidence bound on the `q`-quantile from an **ascending**
/// sorted sample. Returns `None` when the sample is too small.
pub fn upper_bound_sorted(sorted_asc: &[u64], q: f64, c: f64) -> Option<u64> {
    let k = upper_bound_index(sorted_asc.len(), q, c)?;
    // k-th largest = index n-k in ascending order (0-based).
    Some(sorted_asc[sorted_asc.len() - k])
}

/// Lower `c`-confidence bound on the `q`-quantile from an **ascending**
/// sorted sample. Returns `None` when the sample is too small.
pub fn lower_bound_sorted(sorted_asc: &[u64], q: f64, c: f64) -> Option<u64> {
    let j = lower_bound_index(sorted_asc.len(), q, c)?;
    Some(sorted_asc[j - 1])
}

/// Minimum sample size for which an upper bound on the `q`-quantile exists
/// at confidence `c` (i.e. the smallest `n` with `q^n <= 1-c`).
pub fn min_samples_upper(q: f64, c: f64) -> usize {
    check_params(q, c);
    // q^n <= 1-c  <=>  n >= ln(1-c)/ln(q)
    ((1.0 - c).ln() / q.ln()).ceil().max(1.0) as usize
}

/// Scales an order-statistic index computed for an effective sample size
/// `n_eff` back onto the real sample of size `n`, preserving the quantile
/// position and rounding toward the conservative (more extreme) side.
///
/// Used for autocorrelation compensation: positive lag-1 autocorrelation
/// shrinks the information content of `n` observations to
/// `n_eff = n(1-rho)/(1+rho)` (Bartlett), widening the bound.
pub fn scale_index_to_sample(k_eff: usize, n_eff: usize, n: usize) -> usize {
    debug_assert!(k_eff >= 1 && k_eff <= n_eff && n_eff <= n);
    if n_eff == n {
        return k_eff;
    }
    // floor keeps the scaled index at the same-or-more-extreme position.
    let k = (k_eff as u128 * n as u128 / n_eff as u128) as usize;
    k.clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SeedableFrom, Xoshiro256pp};

    #[test]
    fn too_small_samples_yield_none() {
        // q = 0.975, c = 0.99 requires n >= ~182.
        let need = min_samples_upper(0.975, 0.99);
        assert_eq!(need, 182);
        assert!(upper_bound_index(need - 1, 0.975, 0.99).is_none());
        assert!(upper_bound_index(need, 0.975, 0.99).is_some());
    }

    #[test]
    fn known_index_case() {
        // n = 1000, q = 0.975, c = 0.99: Binom(1000, 0.025) has mean 25 and
        // the inversion lands near 14 (left tail ~2.33 sd below the mean).
        let k = upper_bound_index(1000, 0.975, 0.99).unwrap();
        assert!(
            (12..=16).contains(&k),
            "expected k near 14 for the canonical DrAFTS parameters, got {k}"
        );
        // Validate defining property exactly.
        let km1 = (k - 1) as u64;
        assert!(binomial::cdf(km1, 1000, 0.025) <= 0.01 + 1e-12);
        assert!(binomial::cdf(km1 + 1, 1000, 0.025) > 0.01);
    }

    #[test]
    fn index_defining_property_holds_across_parameters() {
        for &(n, q, c) in &[
            (200usize, 0.9, 0.95),
            (500, 0.975, 0.99),
            (2000, 0.99, 0.99),
            (10_000, 0.95, 0.9),
        ] {
            if let Some(k) = upper_bound_index(n, q, c) {
                let p = 1.0 - q;
                assert!(binomial::cdf((k - 1) as u64, n as u64, p) <= 1.0 - c + 1e-12);
                if k < n {
                    assert!(binomial::cdf(k as u64, n as u64, p) > 1.0 - c);
                }
            } else {
                panic!("expected a bound for n={n}");
            }
        }
    }

    #[test]
    fn lower_index_defining_property() {
        let n = 1000usize;
        let (q, c) = (0.025, 0.99); // the DrAFTS duration-step parameters
        let j = lower_bound_index(n, q, c).unwrap();
        assert!(binomial::cdf((j - 1) as u64, n as u64, q) <= 1.0 - c + 1e-12);
        assert!(binomial::cdf(j as u64, n as u64, q) > 1.0 - c);
    }

    #[test]
    fn bounds_bracket_the_empirical_quantile() {
        // On a big uniform sample the upper bound must exceed the empirical
        // q-quantile and the lower bound must undercut it.
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut xs: Vec<u64> = (0..5000).map(|_| rng.next_below(1_000_000)).collect();
        xs.sort_unstable();
        let q = 0.95;
        let emp = xs[(q * 5000.0) as usize];
        let ub = upper_bound_sorted(&xs, q, 0.99).unwrap();
        let lb = lower_bound_sorted(&xs, q, 0.99).unwrap();
        assert!(ub >= emp, "ub {ub} < empirical {emp}");
        assert!(lb <= emp, "lb {lb} > empirical {emp}");
        assert!(lb < ub);
    }

    /// Monte-Carlo coverage: over many resamples, the upper bound covers the
    /// true quantile with frequency >= c (within sampling error).
    #[test]
    fn upper_bound_coverage_meets_confidence() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let (n, q, c) = (400usize, 0.95, 0.9);
        // True q-quantile of Uniform{0..999,999}: q * 1e6.
        let true_q = (q * 1_000_000.0) as u64;
        let trials = 3000;
        let mut covered = 0;
        for _ in 0..trials {
            let mut xs: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
            xs.sort_unstable();
            if upper_bound_sorted(&xs, q, c).unwrap() >= true_q {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            coverage >= c - 0.02,
            "coverage {coverage} below confidence {c}"
        );
    }

    #[test]
    fn lower_bound_coverage_meets_confidence() {
        let mut rng = Xoshiro256pp::seed_from_u64(43);
        let (n, q, c) = (400usize, 0.05, 0.9);
        let true_q = (q * 1_000_000.0) as u64;
        let trials = 3000;
        let mut covered = 0;
        for _ in 0..trials {
            let mut xs: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
            xs.sort_unstable();
            if lower_bound_sorted(&xs, q, c).unwrap() <= true_q {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            coverage >= c - 0.02,
            "coverage {coverage} below confidence {c}"
        );
    }

    #[test]
    fn upper_bound_tightens_with_lower_confidence() {
        let n = 2000usize;
        let k_hi_c = upper_bound_index(n, 0.95, 0.99).unwrap();
        let k_lo_c = upper_bound_index(n, 0.95, 0.5).unwrap();
        // Lower confidence admits a larger k (deeper into the sorted list,
        // i.e. a smaller, tighter bound value).
        assert!(k_lo_c > k_hi_c, "{k_lo_c} vs {k_hi_c}");
    }

    #[test]
    fn upper_bound_rises_with_quantile() {
        let mut rng = Xoshiro256pp::seed_from_u64(44);
        let mut xs: Vec<u64> = (0..3000).map(|_| rng.next_below(10_000)).collect();
        xs.sort_unstable();
        let b90 = upper_bound_sorted(&xs, 0.90, 0.95).unwrap();
        let b99 = upper_bound_sorted(&xs, 0.99, 0.95).unwrap();
        assert!(b99 >= b90);
    }

    #[test]
    fn zero_length_sample_yields_none() {
        assert!(upper_bound_index(0, 0.9, 0.9).is_none());
        assert!(lower_bound_index(0, 0.9, 0.9).is_none());
        assert!(upper_bound_sorted(&[], 0.9, 0.9).is_none());
    }

    #[test]
    #[should_panic(expected = "quantile q")]
    fn rejects_degenerate_quantile() {
        upper_bound_index(100, 1.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "confidence c")]
    fn rejects_degenerate_confidence() {
        upper_bound_index(100, 0.9, 0.0);
    }

    #[test]
    fn scale_index_identity_when_no_correction() {
        assert_eq!(scale_index_to_sample(14, 1000, 1000), 14);
    }

    #[test]
    fn scale_index_is_proportional_and_conservative() {
        // k_eff = 7 of n_eff = 500 scaled to n = 1000 -> 14.
        assert_eq!(scale_index_to_sample(7, 500, 1000), 14);
        // Rounding goes down (more extreme order statistic).
        assert_eq!(scale_index_to_sample(5, 300, 1000), 16); // 16.67 -> 16
                                                             // Never below 1.
        assert_eq!(scale_index_to_sample(1, 1000, 1000), 1);
    }
}
