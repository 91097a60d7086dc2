//! QBETS: Queue Bounds Estimation from Time Series.
//!
//! The non-parametric bound predictor of Nurmi, Brevik & Wolski (JSSPP 2008)
//! as used by DrAFTS (paper §3.1):
//!
//! 1. treat each observation as a Bernoulli trial against the target
//!    quantile and invert the binomial to pick the order statistic that is a
//!    `c`-confidence bound ([`crate::quantile_bound`]);
//! 2. detect change points and restrict inference to the most recent
//!    stationary segment ([`crate::changepoint`]);
//! 3. compensate for lag-1 autocorrelation by shrinking the effective
//!    sample size (Bartlett; our stand-in for the unpublished QBETS
//!    correction table — see DESIGN.md §2).
//!
//! State updates are O(log n) per observation (treap insert + running
//! moments), which is what makes the on-line DrAFTS service viable
//! (paper §3.3: "the predictor state can be updated incrementally (in a few
//! milliseconds)"). A caller that needs one bound of a whole series, with
//! change points off, takes it from [`SliceBound`] instead: the same order
//! statistic by selection, without the treap.

use crate::changepoint::ChangePointConfig;
use crate::estimator::{BoundEstimator, SegmentState};
use crate::orderstat::OrderStat;
use crate::quantile_bound;
use crate::stats::{self, RunningLag1};
use std::collections::HashMap;

/// QBETS tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QbetsConfig {
    /// Confidence level `c` of every bound (paper uses 0.99).
    pub confidence: f64,
    /// Change-point detection; `None` disables truncation.
    pub changepoint: Option<ChangePointConfig>,
    /// Whether to apply the Bartlett effective-sample-size correction for
    /// lag-1 autocorrelation.
    pub autocorr_correction: bool,
    /// Cap on the lag-1 autocorrelation used by the correction. Bartlett's
    /// ESS is derived for the *mean*; extreme order statistics decorrelate
    /// much faster, and the full correction on a rho ~ 0.97 price series
    /// would demand infeasible histories (e.g. >60k points for q = 0.995).
    /// The cap keeps the correction's conservative direction while staying
    /// feasible (default 0.3, an ESS factor of ~0.54); backtest calibration
    /// (Table 1 reproduction) validates it.
    pub autocorr_cap: f64,
}

impl Default for QbetsConfig {
    fn default() -> Self {
        Self {
            confidence: 0.99,
            changepoint: Some(ChangePointConfig::default()),
            autocorr_correction: true,
            autocorr_cap: 0.3,
        }
    }
}

impl QbetsConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics if `confidence` is outside `(0, 1)` or the change-point
    /// configuration is invalid.
    pub fn validate(&self) {
        assert!(
            self.confidence > 0.0 && self.confidence < 1.0,
            "confidence must be in (0,1)"
        );
        assert!(
            (0.0..1.0).contains(&self.autocorr_cap),
            "autocorr_cap must be in [0,1)"
        );
        if let Some(cp) = &self.changepoint {
            cp.validate();
        }
    }

    /// Effective sample size of `n` observations whose lag-1
    /// autocorrelation is `rho()`: `n` itself with the correction off,
    /// otherwise Bartlett's shrinkage with `rho` capped at `autocorr_cap`.
    fn effective_len(&self, n: usize, rho: impl FnOnce() -> f64) -> usize {
        if !self.autocorr_correction {
            return n;
        }
        stats::effective_sample_size(n, rho().min(self.autocorr_cap))
    }

    /// The step every QBETS bound takes from `n` observations to its order
    /// statistic: the effective sample size, the binomial inversion
    /// `invert` there, and that index scaled back onto the `n` real
    /// observations. The index counts from the bound's own tail; `None`
    /// when the effective sample is too short for a bound.
    fn bound_index(
        &self,
        n: usize,
        rho: impl FnOnce() -> f64,
        invert: impl FnOnce(usize) -> Option<usize>,
    ) -> Option<usize> {
        let n_eff = self.effective_len(n, rho);
        let k_eff = invert(n_eff)?;
        Some(quantile_bound::scale_index_to_sample(k_eff, n_eff, n))
    }
}

/// The tail of the sample a bound takes its order statistic from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// Upper bound: the index counts down from the largest observation.
    Upper,
    /// Lower bound: the index counts up from the smallest observation.
    Lower,
}

impl Tail {
    /// The binomial inversion for this tail at sample size `n`.
    fn invert(self, n: usize, q: f64, c: f64) -> Option<usize> {
        match self {
            Tail::Upper => quantile_bound::upper_bound_index(n, q, c),
            Tail::Lower => quantile_bound::lower_bound_index(n, q, c),
        }
    }
}

/// Online QBETS estimator.
#[derive(Debug, Clone)]
pub struct Qbets {
    cfg: QbetsConfig,
    state: SegmentState,
}

impl Qbets {
    /// Creates an estimator.
    pub fn new(cfg: QbetsConfig) -> Self {
        cfg.validate();
        Self {
            state: SegmentState::new(cfg.changepoint),
            cfg,
        }
    }

    /// Creates an estimator and feeds an initial history.
    pub fn from_history(cfg: QbetsConfig, history: &[u64]) -> Self {
        let mut q = Self::new(cfg);
        for &v in history {
            q.observe(v);
        }
        q
    }

    /// The configuration in use.
    pub fn config(&self) -> &QbetsConfig {
        &self.cfg
    }

    /// Number of change points detected so far.
    pub fn changepoint_count(&self) -> usize {
        self.state.changepoints()
    }

    /// Effective sample size of the current segment after autocorrelation
    /// compensation.
    pub fn effective_len(&self) -> usize {
        self.cfg
            .effective_len(self.state.len(), || self.state.lag1().lag1_autocorr())
    }

    /// The order-statistic index of a `tail` bound on the `q`-quantile of
    /// the current segment.
    fn bound_index(&self, tail: Tail, q: f64) -> Option<usize> {
        self.cfg.bound_index(
            self.state.len(),
            || self.state.lag1().lag1_autocorr(),
            |n_eff| tail.invert(n_eff, q, self.cfg.confidence),
        )
    }

    /// Upper bound like [`BoundEstimator::upper_bound`], but falling back to
    /// the segment maximum when the history is too short for a bound at the
    /// configured confidence (the conservative DrAFTS cold-start behaviour).
    pub fn upper_bound_or_max(&self, q: f64) -> Option<u64> {
        self.upper_bound(q)
            .or_else(|| self.state.multiset().kth_largest(1))
    }

    /// Minimum history length needed before `upper_bound(q)` returns `Some`
    /// (ignoring the autocorrelation correction, which can only raise it).
    pub fn min_history(&self, q: f64) -> usize {
        quantile_bound::min_samples_upper(q, self.cfg.confidence)
    }
}

impl BoundEstimator for Qbets {
    fn observe(&mut self, value: u64) {
        self.state.observe(value);
    }

    fn upper_bound(&self, q: f64) -> Option<u64> {
        let k = self.bound_index(Tail::Upper, q)?;
        self.state.multiset().kth_largest(k)
    }

    fn lower_bound(&self, q: f64) -> Option<u64> {
        let j = self.bound_index(Tail::Lower, q)?;
        self.state.multiset().kth_smallest(j)
    }

    fn observed(&self) -> usize {
        self.state.total()
    }

    fn segment_len(&self) -> usize {
        self.state.len()
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

/// QBETS bounds of whole series at one quantile, change-point detection
/// off.
///
/// `SliceBound::lower(cfg, q).of(xs)` is the value
/// `Qbets::from_history(cfg, xs).lower_bound(q)` returns (likewise
/// `upper`), without building the treap: the effective sample size comes
/// from the series' lag-1 moments in arrival order, and the same order
/// statistic is picked by selection. The binomial inversion is memoized
/// per effective sample size, so a caller that bounds many series of
/// similar length (the grid bids of one bid–duration graph) inverts each
/// size once.
#[derive(Debug, Clone)]
pub struct SliceBound {
    cfg: QbetsConfig,
    tail: Tail,
    q: f64,
    /// Binomial-inversion index per effective sample size.
    memo: HashMap<usize, Option<usize>>,
}

impl SliceBound {
    /// Lower `cfg.confidence` bounds on the `q`-quantile.
    ///
    /// # Panics
    /// Panics on an invalid configuration or one with change-point
    /// detection on.
    pub fn lower(cfg: QbetsConfig, q: f64) -> Self {
        Self::new(cfg, Tail::Lower, q)
    }

    /// Upper `cfg.confidence` bounds on the `q`-quantile.
    ///
    /// # Panics
    /// As [`Self::lower`].
    pub fn upper(cfg: QbetsConfig, q: f64) -> Self {
        Self::new(cfg, Tail::Upper, q)
    }

    fn new(cfg: QbetsConfig, tail: Tail, q: f64) -> Self {
        cfg.validate();
        assert!(
            cfg.changepoint.is_none(),
            "slice bounds run with change-point detection off"
        );
        Self {
            cfg,
            tail,
            q,
            memo: HashMap::new(),
        }
    }

    /// The bound over `xs`, given in arrival order; `None` when `xs` is too
    /// short for a bound. Leaves `xs` reordered.
    ///
    /// # Panics
    /// Panics unless `0 < q < 1`.
    pub fn of(&mut self, xs: &mut [u64]) -> Option<u64> {
        let (cfg, tail, q) = (self.cfg, self.tail, self.q);
        let memo = &mut self.memo;
        let n = xs.len();
        let k = cfg.bound_index(
            n,
            || RunningLag1::from_slice(xs).lag1_autocorr(),
            |n_eff| {
                *memo
                    .entry(n_eff)
                    .or_insert_with(|| tail.invert(n_eff, q, cfg.confidence))
            },
        )?;
        let rank = match tail {
            Tail::Upper => n - k,
            Tail::Lower => k - 1,
        };
        Some(*xs.select_nth_unstable(rank).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, SeedableFrom, Xoshiro256pp};

    fn no_cp_cfg() -> QbetsConfig {
        QbetsConfig {
            confidence: 0.99,
            changepoint: None,
            autocorr_correction: false,
            ..QbetsConfig::default()
        }
    }

    #[test]
    fn default_config_is_valid() {
        QbetsConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn rejects_bad_confidence() {
        Qbets::new(QbetsConfig {
            confidence: 1.0,
            ..QbetsConfig::default()
        });
    }

    #[test]
    fn insufficient_history_returns_none_and_fallback_max() {
        let mut q = Qbets::new(no_cp_cfg());
        for v in [5u64, 9, 3] {
            q.observe(v);
        }
        assert_eq!(q.upper_bound(0.975), None);
        assert_eq!(q.upper_bound_or_max(0.975), Some(9));
        assert_eq!(q.observed(), 3);
    }

    #[test]
    fn min_history_matches_bound_availability() {
        let cfg = no_cp_cfg();
        let mut q = Qbets::new(cfg);
        let need = q.min_history(0.975);
        for v in 0..need as u64 {
            q.observe(v);
            if (v as usize) < need - 1 {
                assert!(q.upper_bound(0.975).is_none(), "at n={}", v + 1);
            }
        }
        assert!(q.upper_bound(0.975).is_some());
    }

    #[test]
    fn upper_bound_sits_in_upper_tail_of_iid_sample() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut q = Qbets::new(no_cp_cfg());
        for _ in 0..5000 {
            q.observe(rng.next_below(100_000));
        }
        let b = q.upper_bound(0.975).unwrap();
        // Must be at or above the empirical 97.5% of Uniform{0..100k}.
        assert!(b >= 97_500 * 95 / 100, "bound {b} too low");
        assert!(b <= 100_000, "bound {b} impossible");
        // And the lower bound undercuts it.
        let lo = q.lower_bound(0.975).unwrap();
        assert!(lo <= b);
        assert!(lo >= 90_000, "lower bound {lo} far from 97.5% quantile");
    }

    #[test]
    fn bounds_are_monotone_in_quantile() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut q = Qbets::new(no_cp_cfg());
        for _ in 0..3000 {
            q.observe(rng.next_below(10_000));
        }
        let b90 = q.upper_bound(0.90).unwrap();
        let b975 = q.upper_bound(0.975).unwrap();
        assert!(b975 >= b90);
    }

    #[test]
    fn changepoint_adaptation_beats_frozen_history() {
        // Regime shift down: with change-point detection the bound adapts to
        // the new (lower) regime; without it the stale high regime keeps the
        // bound pinned high.
        let mut adaptive = Qbets::new(QbetsConfig {
            confidence: 0.95,
            changepoint: Some(ChangePointConfig {
                window: 24,
                alpha: 0.005,
                min_segment: 48,
                band: 0.05,
            }),
            autocorr_correction: false,
            ..QbetsConfig::default()
        });
        let mut frozen = Qbets::new(QbetsConfig {
            confidence: 0.95,
            changepoint: None,
            autocorr_correction: false,
            ..QbetsConfig::default()
        });
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..2000 {
            let v = 10_000 + rng.next_below(500);
            adaptive.observe(v);
            frozen.observe(v);
        }
        for _ in 0..400 {
            let v = 1_000 + rng.next_below(50);
            adaptive.observe(v);
            frozen.observe(v);
        }
        assert!(adaptive.changepoint_count() >= 1);
        let ba = adaptive.upper_bound(0.975).unwrap();
        let bf = frozen.upper_bound(0.975).unwrap();
        assert!(
            ba < 2_000,
            "adaptive bound {ba} should reflect the new regime"
        );
        assert!(bf > 9_000, "frozen bound {bf} should lag in the old regime");
    }

    #[test]
    fn autocorrelation_widens_the_bound() {
        // Strongly autocorrelated series: the corrected estimator must be at
        // least as conservative (higher upper bound index-wise) as the naive
        // one on the same data.
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut corrected = Qbets::new(QbetsConfig {
            confidence: 0.99,
            changepoint: None,
            autocorr_correction: true,
            autocorr_cap: 0.99,
        });
        let mut naive = Qbets::new(no_cp_cfg());
        let mut x = 5000.0f64;
        for _ in 0..4000 {
            x = 0.97 * x + 0.03 * 5000.0 + (rng.next_f64() - 0.5) * 200.0;
            let v = x.max(0.0) as u64;
            corrected.observe(v);
            naive.observe(v);
        }
        assert!(corrected.effective_len() < naive.segment_len() / 4);
        let bc = corrected.upper_bound(0.975);
        let bn = naive.upper_bound(0.975).unwrap();
        // Effective n may be too small for any bound — also conservative.
        if let Some(bc) = bc {
            assert!(bc >= bn, "corrected {bc} must be >= naive {bn}");
        }
    }

    #[test]
    fn from_history_equals_incremental() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let hist: Vec<u64> = (0..1000).map(|_| rng.next_below(777)).collect();
        let batch = Qbets::from_history(QbetsConfig::default(), &hist);
        let mut inc = Qbets::new(QbetsConfig::default());
        for &v in &hist {
            inc.observe(v);
        }
        assert_eq!(batch.upper_bound(0.975), inc.upper_bound(0.975));
        assert_eq!(batch.segment_len(), inc.segment_len());
        assert_eq!(batch.changepoint_count(), inc.changepoint_count());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut q = Qbets::new(QbetsConfig::default());
        for v in 0..500u64 {
            q.observe(v);
        }
        q.reset();
        assert_eq!(q.observed(), 0);
        assert_eq!(q.upper_bound(0.975), None);
    }

    #[test]
    fn slice_bound_equals_the_streaming_estimator() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        // AR(1) with rho ~ 0.95: above the default 0.3 cap, below 0.99.
        let mut x = 5000.0f64;
        let ar: Vec<u64> = (0..3000)
            .map(|_| {
                x = 0.95 * x + 0.05 * 5000.0 + (rng.next_f64() - 0.5) * 400.0;
                x.max(0.0) as u64
            })
            .collect();
        // Four distinct values: every order statistic sits in a long tie.
        let dupes: Vec<u64> = (0..2000).map(|_| rng.next_below(4) * 100).collect();
        let uniform: Vec<u64> = (0..1500).map(|_| rng.next_below(1_000_000)).collect();
        let short = [5u64, 9, 3];
        let series: [&[u64]; 7] = [&ar, &dupes, &uniform, &short, &[], &ar[..181], &ar[..182]];
        for (correction, cap) in [(false, 0.3), (true, 0.3), (true, 0.99)] {
            let cfg = QbetsConfig {
                confidence: 0.99,
                changepoint: None,
                autocorr_correction: correction,
                autocorr_cap: cap,
            };
            for q in [0.025, 0.05, 0.5, 0.95, 0.975] {
                let (mut lo, mut hi) = (SliceBound::lower(cfg, q), SliceBound::upper(cfg, q));
                // Twice over: the second pass answers from the memo.
                for _ in 0..2 {
                    for xs in series {
                        let oracle = Qbets::from_history(cfg, xs);
                        let what =
                            format!("n={} q={q} correction={correction} cap={cap}", xs.len());
                        assert_eq!(
                            lo.of(&mut xs.to_vec()),
                            oracle.lower_bound(q),
                            "lower, {what}"
                        );
                        assert_eq!(
                            hi.of(&mut xs.to_vec()),
                            oracle.upper_bound(q),
                            "upper, {what}"
                        );
                    }
                }
            }
            // One evaluator over prefixes of many lengths: memo hits for a
            // repeated effective size must still scale onto each real n.
            let mut lo = SliceBound::lower(cfg, 0.025);
            for n in (150..ar.len()).step_by(37) {
                let oracle = Qbets::from_history(cfg, &ar[..n]).lower_bound(0.025);
                assert_eq!(lo.of(&mut ar[..n].to_vec()), oracle, "prefix n={n}");
            }
        }
        let cfg = QbetsConfig {
            changepoint: None,
            ..QbetsConfig::default()
        };
        assert_eq!(SliceBound::lower(cfg, 0.025).of(&mut short.to_vec()), None);
        assert!(SliceBound::upper(cfg, 0.975)
            .of(&mut dupes.clone())
            .is_some());
    }

    #[test]
    #[should_panic(expected = "change-point detection off")]
    fn slice_bound_rejects_change_points() {
        SliceBound::lower(QbetsConfig::default(), 0.025);
    }

    /// End-to-end calibration check: predict an upper bound on the next
    /// value, then verify the exceedance frequency of the *actual* next
    /// value is at most ~(1-q) on stationary data.
    #[test]
    fn next_value_exceedance_is_calibrated() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut q = Qbets::new(no_cp_cfg());
        let mut exceed = 0usize;
        let mut preds = 0usize;
        for _ in 0..6000 {
            let v = rng.next_below(1_000_000);
            if let Some(b) = q.upper_bound(0.95) {
                preds += 1;
                if v > b {
                    exceed += 1;
                }
            }
            q.observe(v);
        }
        assert!(preds > 5000);
        let rate = exceed as f64 / preds as f64;
        assert!(rate <= 0.05 + 0.01, "exceedance rate {rate} above 1-q");
    }
}
