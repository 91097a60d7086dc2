//! Online spot-availability estimators, in integer fixed point.
//!
//! Both follow the "cant_be_late" exemplars: observe a boolean
//! availability signal once per tick (here: "does the advisory plane
//! offer a guaranteed plan right now?") and expose a current availability
//! estimate. All arithmetic is in basis points (1 bp = 0.01%) on `u64`,
//! so two replays of the same tick stream produce bit-identical
//! estimates on every platform — no floats anywhere.

/// Full scale: 10000 bp = probability 1.
pub const BP: u64 = 10_000;

/// Exponential moving average of the availability signal.
///
/// `value ← (alpha · obs + (BP − alpha) · value) / BP` with `obs ∈ {0, BP}`.
/// A small `alpha` (the exemplars use 0.01 = 100 bp) makes the estimate a
/// slow consensus over the recent window; the division truncates, so a
/// long string of `true` observations converges to `BP − 1` — callers
/// treat anything above `BP − alpha` as saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmaEstimator {
    alpha_bp: u64,
    value_bp: u64,
    observations: u64,
}

impl EmaEstimator {
    /// A new estimator with smoothing `alpha_bp` starting at `initial_bp`
    /// (the exemplars start optimistic).
    ///
    /// # Panics
    /// Panics when either argument exceeds full scale.
    pub fn new(alpha_bp: u64, initial_bp: u64) -> Self {
        assert!(alpha_bp > 0 && alpha_bp <= BP, "alpha out of range");
        assert!(initial_bp <= BP, "initial value out of range");
        Self {
            alpha_bp,
            value_bp: initial_bp,
            observations: 0,
        }
    }

    /// Ingests one availability observation.
    pub fn observe(&mut self, available: bool) {
        let obs = if available { BP } else { 0 };
        self.value_bp = (self.alpha_bp * obs + (BP - self.alpha_bp) * self.value_bp) / BP;
        self.observations += 1;
    }

    /// Current availability estimate in `[0, BP]`.
    pub fn availability_bp(&self) -> u64 {
        self.value_bp
    }

    /// Observations ingested so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

/// Bayesian availability estimate under a Beta prior.
///
/// The exemplars use an optimistic prior of mean 0.75 at strength 5
/// (`a₀ = 3.75, b₀ = 1.25`); kept in integer quarters so the prior is
/// exact: `a = 15 + 4·up, b = 5 + 4·down`, posterior mean
/// `a / (a + b)` reported in basis points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BetaEstimator {
    /// Successes in quarter-counts, prior included.
    a_quarters: u64,
    /// Failures in quarter-counts, prior included.
    b_quarters: u64,
    observations: u64,
}

impl BetaEstimator {
    /// The exemplars' optimistic prior: mean 0.75, strength 5.
    pub fn with_default_prior() -> Self {
        Self::with_prior_quarters(15, 5)
    }

    /// An explicit prior in quarter-counts (`a = 15` means `a₀ = 3.75`).
    ///
    /// # Panics
    /// Panics on an empty prior (posterior mean would divide by zero).
    pub fn with_prior_quarters(a_quarters: u64, b_quarters: u64) -> Self {
        assert!(a_quarters + b_quarters > 0, "empty prior");
        Self {
            a_quarters,
            b_quarters,
            observations: 0,
        }
    }

    /// Ingests one availability observation.
    pub fn observe(&mut self, available: bool) {
        if available {
            self.a_quarters += 4;
        } else {
            self.b_quarters += 4;
        }
        self.observations += 1;
    }

    /// Posterior mean availability in `[0, BP]`.
    pub fn availability_bp(&self) -> u64 {
        self.a_quarters * BP / (self.a_quarters + self.b_quarters)
    }

    /// Total observations ingested (prior excluded).
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_converges_toward_signal() {
        let mut e = EmaEstimator::new(100, 9_000);
        for _ in 0..2_000 {
            e.observe(false);
        }
        assert!(e.availability_bp() < 100, "down signal must dominate");
        for _ in 0..2_000 {
            e.observe(true);
        }
        assert!(e.availability_bp() > BP - 200, "up signal must recover");
        assert_eq!(e.observations(), 4_000);
    }

    #[test]
    fn ema_stays_in_range() {
        let mut e = EmaEstimator::new(2_500, 5_000);
        for i in 0..1_000 {
            e.observe(i % 3 == 0);
            assert!(e.availability_bp() <= BP);
        }
    }

    #[test]
    fn beta_prior_is_optimistic_then_learns() {
        let mut b = BetaEstimator::with_default_prior();
        assert_eq!(b.availability_bp(), 7_500);
        for _ in 0..100 {
            b.observe(false);
        }
        assert!(
            b.availability_bp() < 500,
            "evidence must wash the prior out"
        );
        assert_eq!(b.observations(), 100);
    }

    #[test]
    fn beta_mean_matches_counts() {
        let mut b = BetaEstimator::with_prior_quarters(4, 4);
        b.observe(true);
        b.observe(true);
        b.observe(false);
        // a = 4 + 8 = 12, b = 4 + 4 = 8 → mean = 12/20 = 0.6.
        assert_eq!(b.availability_bp(), 6_000);
        // The prior is not an observation, whatever its strength.
        assert_eq!(b.observations(), 3);
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn ema_rejects_zero_alpha() {
        EmaEstimator::new(0, 5_000);
    }
}
