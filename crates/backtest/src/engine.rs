//! Backtest orchestration across AZ x type combinations.
//!
//! For each combo: generate its price history, generate its request
//! population, then run one chronological sweep evaluating every policy at
//! every request. Combos are independent, so they fan out over the
//! thread pool in `parallel` with per-combo random streams (no
//! cross-combo coupling); results are index-ordered, so output is
//! bit-identical at any thread count.

use crate::request::{self, Request, RequestConfig};
use crate::sweep::{ComboSweep, SweepConfig};
use drafts_core::optimizer::{self, SavingsAccumulator};
use parallel::Pool;
use simrng::StreamFactory;
use spotmarket::archetype::{self, Archetype};
use spotmarket::tracegen::{self, TraceConfig};
use spotmarket::{Catalog, Combo, Price, DAY, HOUR};
use tsforecast::ar::Ar1Estimator;
use tsforecast::ecdf::EcdfEstimator;
use tsforecast::BoundEstimator;

/// The bid policies evaluated by the backtest (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// The DrAFTS sweep.
    Drafts,
    /// On-demand price as the bid.
    OnDemand,
    /// AR(1) marginal quantile at the target probability.
    Ar1,
    /// Empirical quantile at the target probability.
    EmpiricalCdf,
}

impl Policy {
    /// All policies in Table 1 order.
    pub const ALL: [Policy; 4] = [
        Policy::Drafts,
        Policy::OnDemand,
        Policy::Ar1,
        Policy::EmpiricalCdf,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Drafts => "DrAFTS",
            Policy::OnDemand => "On-demand",
            Policy::Ar1 => "AR(1)",
            Policy::EmpiricalCdf => "Emperical-CDF", // paper's own spelling
        }
    }
}

/// Backtest parameters.
#[derive(Debug, Clone, Copy)]
pub struct BacktestConfig {
    /// Experiment seed.
    pub seed: u64,
    /// History length in days (paper: ~3 months before each prediction).
    pub days: u64,
    /// Requests only start after this warm-up (so step 1 has data).
    pub warmup_days: u64,
    /// Requests per combo (paper: 300).
    pub requests_per_combo: usize,
    /// Maximum request duration in seconds (paper: 12 hours).
    pub max_duration: u64,
    /// Durability target probability (Table 1: 0.99; Table 5: 0.95).
    pub probability: f64,
    /// Sweep tuning.
    pub sweep: SweepConfig,
    /// Optional cap on the number of combos (for quick runs/tests);
    /// `None` = all 452.
    pub combo_limit: Option<usize>,
    /// Worker threads for the combo fan-out; `None` defers to the
    /// `DRAFTS_THREADS` environment variable, then to the detected
    /// parallelism. `Some(1)` forces a serial run on the calling thread.
    pub threads: Option<usize>,
}

impl Default for BacktestConfig {
    fn default() -> Self {
        Self {
            seed: 20170101,
            days: 90,
            warmup_days: 30,
            requests_per_combo: 300,
            max_duration: 12 * HOUR,
            probability: 0.99,
            sweep: SweepConfig::default(),
            combo_limit: None,
            threads: None,
        }
    }
}

impl BacktestConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on inconsistent windows.
    pub fn validate(&self) {
        assert!(self.days > self.warmup_days, "no room for requests");
        assert!(
            (self.days - self.warmup_days) * DAY > self.max_duration,
            "window shorter than the longest request"
        );
        assert!(
            self.probability > 0.0 && self.probability < 1.0,
            "probability must be in (0,1)"
        );
        self.sweep.validate();
    }

    pub(crate) fn request_config(&self) -> RequestConfig {
        RequestConfig {
            count: self.requests_per_combo,
            window_start: self.warmup_days * DAY,
            // Leave room for the longest request inside the history.
            window_end: self.days * DAY - self.max_duration,
            max_duration: self.max_duration,
        }
    }
}

/// Per-policy outcome for one combo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyOutcome {
    /// The policy.
    pub policy: Policy,
    /// Requests whose bid prevented a termination for the full duration.
    pub successes: usize,
    /// Requests evaluated.
    pub attempts: usize,
}

impl PolicyOutcome {
    /// The success fraction (`1.0` for an empty attempt set).
    pub fn fraction(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }
}

/// Everything measured for one combo.
#[derive(Debug, Clone)]
pub struct ComboResult {
    /// The market.
    pub combo: Combo,
    /// Its price-dynamics archetype (for ablation reporting).
    pub archetype: Archetype,
    /// Success accounting per policy.
    pub outcomes: Vec<PolicyOutcome>,
    /// §4.4 strategy accounting (DrAFTS-vs-On-demand chooser).
    pub savings: SavingsAccumulator,
    /// Sum of DrAFTS bid / market-price ratios (tightness ablation).
    pub tightness_sum: f64,
    /// Number of ratios in `tightness_sum`.
    pub tightness_count: usize,
}

impl ComboResult {
    /// Outcome for one policy.
    pub fn outcome(&self, policy: Policy) -> &PolicyOutcome {
        self.outcomes
            .iter()
            .find(|o| o.policy == policy)
            .expect("all policies evaluated")
    }

    /// Mean DrAFTS bid / market price ratio.
    pub fn tightness(&self) -> f64 {
        if self.tightness_count == 0 {
            0.0
        } else {
            self.tightness_sum / self.tightness_count as f64
        }
    }
}

/// Full backtest output.
#[derive(Debug, Clone)]
pub struct BacktestResult {
    /// The configuration used.
    pub probability: f64,
    /// One entry per combo backtested.
    pub combos: Vec<ComboResult>,
}

/// Runs the backtest.
pub fn run(cfg: &BacktestConfig) -> BacktestResult {
    cfg.validate();
    let catalog = Catalog::standard();
    let mut combos = catalog.combos();
    if let Some(limit) = cfg.combo_limit {
        combos.truncate(limit);
    }
    let results: Vec<ComboResult> =
        Pool::with_override(cfg.threads).par_map(&combos, |&combo| run_combo(cfg, catalog, combo));
    BacktestResult {
        probability: cfg.probability,
        combos: results,
    }
}

/// Backtests a single combo (exposed for tests and benches).
pub fn run_combo(cfg: &BacktestConfig, catalog: &Catalog, combo: Combo) -> ComboResult {
    let _span = obs::span("bt_combo");
    let history = {
        let _span = obs::span("bt_tracegen");
        tracegen::generate(combo, catalog, &TraceConfig::days(cfg.days, cfg.seed))
    };
    let od = catalog.od_price(combo.ty, combo.az.region());
    let factory = StreamFactory::new(cfg.seed);
    let requests = {
        let _span = obs::span("bt_requests");
        request::generate(&cfg.request_config(), &factory, combo)
    };

    let mut sweep = ComboSweep::new(&history, od, cfg.sweep);
    let mut ar1 = Ar1Estimator::paper_default();
    let mut ecdf = EcdfEstimator::new();
    let mut fed = 0usize;

    let p = cfg.probability;
    let mut outcomes: Vec<PolicyOutcome> = Policy::ALL
        .iter()
        .map(|&policy| PolicyOutcome {
            policy,
            successes: 0,
            attempts: 0,
        })
        .collect();
    let mut savings = SavingsAccumulator::new();
    let mut tightness_sum = 0.0;
    let mut tightness_count = 0usize;

    let _sweep_span = obs::span("bt_sweep");
    for req in &requests {
        sweep.advance_to(req.start);
        // Feed the simple estimators the same information set.
        let upto = sweep.consumed();
        for &v in &history.series().values()[fed..upto] {
            ar1.observe(v);
            ecdf.observe(v);
        }
        fed = upto;

        let quote = sweep.quote(p, req.duration);
        let market = history
            .price_at(req.start)
            .expect("request window starts after history");
        if market > Price::ZERO {
            tightness_sum += quote.bid.ticks() as f64 / market.ticks() as f64;
            tightness_count += 1;
        }

        // Baselines get the same one-tick increment DrAFTS applies: a bid
        // exactly at the estimated quantile ties the market price on
        // plateau-heavy series and would be rejected outright.
        let bids = [
            (Policy::Drafts, Some(quote.bid)),
            (Policy::OnDemand, Some(od)),
            (
                Policy::Ar1,
                ar1.upper_bound(p)
                    .map(|b| Price::from_ticks(b) + Price::TICK),
            ),
            (
                Policy::EmpiricalCdf,
                ecdf.upper_bound(p)
                    .map(|b| Price::from_ticks(b) + Price::TICK),
            ),
        ];
        for ((policy, bid), outcome) in bids.into_iter().zip(&mut outcomes) {
            debug_assert_eq!(policy, outcome.policy);
            outcome.attempts += 1;
            let survived = match bid {
                Some(b) => history
                    .survival(req.start, b)
                    .survives_for(req.start, req.duration),
                // No bid producible: the request cannot be served.
                None => false,
            };
            if survived {
                outcome.successes += 1;
            }
        }

        record_savings(&mut savings, &quote, od, req);
    }

    ComboResult {
        combo,
        archetype: archetype::assign(combo, catalog, cfg.seed),
        outcomes,
        savings,
        tightness_sum,
        tightness_count,
    }
}

/// §4.4 accounting: route to spot only with a guaranteed DrAFTS bid below
/// On-demand; bill worst case for `ceil(duration)` hours.
fn record_savings(
    savings: &mut SavingsAccumulator,
    quote: &drafts_core::predictor::BidQuote,
    od: Price,
    req: &Request,
) {
    let guaranteed_bid = quote.guarantees(req.duration).then_some(quote.bid);
    let choice = optimizer::choose(guaranteed_bid, od);
    let hours = req.duration.div_ceil(HOUR).max(1);
    savings.record(choice, od, hours);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> BacktestConfig {
        BacktestConfig {
            seed: 42,
            days: 40,
            warmup_days: 14,
            requests_per_combo: 40,
            combo_limit: Some(6),
            probability: 0.95,
            ..BacktestConfig::default()
        }
    }

    #[test]
    fn runs_and_accounts_every_request() {
        let res = run(&small_cfg());
        assert_eq!(res.combos.len(), 6);
        for combo in &res.combos {
            for o in &combo.outcomes {
                assert_eq!(o.attempts, 40, "{:?}", o.policy);
                assert!(o.successes <= o.attempts);
            }
            assert_eq!(combo.savings.spot_requests + combo.savings.od_requests, 40);
            assert!(combo.savings.strategy_cost <= combo.savings.od_cost);
            assert!(combo.tightness_count > 0);
            assert!(combo.tightness() >= 1.0, "bids sit above market price");
        }
    }

    #[test]
    fn stages_record_into_an_installed_tracer_across_pool_workers() {
        let registry = obs::Registry::new();
        let tracer = obs::Tracer::new(registry.clone());
        let _guard = tracer.install();
        let res = run(&BacktestConfig {
            threads: Some(4),
            ..small_cfg()
        });
        assert_eq!(res.combos.len(), 6);
        for stage in ["bt_combo", "bt_tracegen", "bt_requests", "bt_sweep"] {
            assert_eq!(
                tracer.stage_stats(stage).total.count(),
                6,
                "one {stage} span per combo"
            );
        }
        // The per-combo stages are children of bt_combo: self < total.
        let combo = tracer.stage_stats("bt_combo");
        assert!(combo.self_time.sum_ns() < combo.total.sum_ns());
        assert_eq!(registry.counter("drafts_pool_tasks_total").get(), 6);
    }

    #[test]
    fn is_deterministic() {
        let a = run(&small_cfg());
        let b = run(&small_cfg());
        for (x, y) in a.combos.iter().zip(&b.combos) {
            assert_eq!(x.combo, y.combo);
            assert_eq!(x.outcomes, y.outcomes);
            assert_eq!(x.savings, y.savings);
        }
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        let at = |threads: usize| {
            run(&BacktestConfig {
                threads: Some(threads),
                ..small_cfg()
            })
        };
        let serial = at(1);
        for threads in [2, 8] {
            let parallel = at(threads);
            assert_eq!(serial.combos.len(), parallel.combos.len());
            for (x, y) in serial.combos.iter().zip(&parallel.combos) {
                assert_eq!(x.combo, y.combo, "combo order must not depend on threads");
                assert_eq!(x.outcomes, y.outcomes);
                assert_eq!(x.savings, y.savings);
                assert_eq!(x.tightness_sum.to_bits(), y.tightness_sum.to_bits());
                assert_eq!(x.tightness_count, y.tightness_count);
                assert_eq!(x.archetype, y.archetype);
            }
        }
    }

    #[test]
    fn drafts_meets_target_where_baselines_may_not() {
        let res = run(&BacktestConfig {
            combo_limit: Some(10),
            requests_per_combo: 60,
            probability: 0.95,
            days: 50,
            warmup_days: 20,
            seed: 7,
            ..BacktestConfig::default()
        });
        let drafts_ok = res
            .combos
            .iter()
            .filter(|c| c.outcome(Policy::Drafts).fraction() >= 0.95 - 0.05)
            .count();
        assert!(
            drafts_ok >= 9,
            "DrAFTS should (roughly) meet its target on nearly all combos, got {drafts_ok}/10"
        );
    }

    #[test]
    #[should_panic(expected = "window shorter")]
    fn rejects_window_shorter_than_max_duration() {
        BacktestConfig {
            days: 31,
            warmup_days: 30,
            max_duration: 2 * DAY,
            ..BacktestConfig::default()
        }
        .validate();
    }

    #[test]
    fn policy_labels_match_paper() {
        assert_eq!(Policy::Drafts.label(), "DrAFTS");
        assert_eq!(Policy::EmpiricalCdf.label(), "Emperical-CDF");
    }
}
