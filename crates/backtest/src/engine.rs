//! Backtest orchestration across AZ x type combinations.
//!
//! For each combo: generate its price history, generate its request
//! population, then run one chronological sweep evaluating every policy at
//! every request. The evaluators read the history through a seeded
//! [`FaultyFeed`]: at each request they see only the prefix the feed has
//! delivered by then, while survival is always judged on the true history
//! — the asymmetry a live service faces. Under the default zero-fault
//! plan the delivered prefix is exactly the history up to the request.
//! Combos are independent, so they fan out over the thread pool in
//! `parallel` with per-combo random streams (no cross-combo coupling);
//! results are index-ordered, so output is bit-identical at any thread
//! count.

use crate::request::{self, RequestConfig};
use crate::sweep::{ComboSweep, SweepConfig};
use drafts_core::optimizer::{self, SavingsAccumulator};
use drafts_core::service::STALENESS_BUDGET;
use parallel::Pool;
use simrng::StreamFactory;
use spotmarket::archetype::{self, Archetype};
use spotmarket::faults::{FaultPlan, FaultyFeed};
use spotmarket::tracegen::{self, TraceConfig};
use spotmarket::{Catalog, Combo, Price, DAY, HOUR};
use std::sync::Arc;
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
    /// The fault plan applied to every combo's feed (per-combo streams
    /// are derived inside the feed, so one plan does not correlate
    /// combos). The default is the clean feed.
    pub faults: FaultPlan,
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
            faults: FaultPlan::none(0),
        }
    }
}

impl BacktestConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on inconsistent windows or an invalid fault plan.
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
        self.faults.validate();
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Requests whose DrAFTS quote was served as guaranteed: it covers
    /// the duration and the newest delivered update is within the
    /// service's staleness budget. The rest are no-guarantee fallbacks,
    /// which the §4.4 chooser routes to On-demand.
    pub guaranteed: usize,
    /// Guaranteed requests whose bid survived on the true history.
    pub guaranteed_successes: usize,
    /// Largest delivered-data age among guaranteed requests.
    pub max_served_staleness: u64,
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

impl BacktestResult {
    /// Total requests evaluated.
    pub fn attempts(&self) -> usize {
        self.combos
            .iter()
            .map(|c| c.outcome(Policy::Drafts).attempts)
            .sum()
    }

    /// Total requests served as guaranteed.
    fn guaranteed(&self) -> usize {
        self.combos.iter().map(|c| c.guaranteed).sum()
    }

    /// `count` over the requests evaluated (`0.0` when there were none).
    fn per_attempt(&self, count: usize) -> f64 {
        match self.attempts() {
            0 => 0.0,
            attempts => count as f64 / attempts as f64,
        }
    }

    /// Fraction of requests served as guaranteed.
    pub fn guaranteed_share(&self) -> f64 {
        self.per_attempt(self.guaranteed())
    }

    /// Attainment among guaranteed requests: the fraction that actually
    /// survived (`1.0` when nothing was served as guaranteed — an empty
    /// promise set is vacuously kept).
    pub fn attainment(&self) -> f64 {
        let guaranteed = self.guaranteed();
        if guaranteed == 0 {
            return 1.0;
        }
        let kept: usize = self.combos.iter().map(|c| c.guaranteed_successes).sum();
        kept as f64 / guaranteed as f64
    }

    /// Fraction of requests demoted to no-guarantee fallbacks.
    pub fn fallback_rate(&self) -> f64 {
        self.per_attempt(self.attempts() - self.guaranteed())
    }

    /// Merged §4.4 accounting across combos.
    pub fn savings(&self) -> SavingsAccumulator {
        let mut acc = SavingsAccumulator::new();
        for c in &self.combos {
            acc.merge(&c.savings);
        }
        acc
    }

    /// Strategy cost over the all-On-demand cost (`<= 1` by
    /// construction: spot is only chosen when it undercuts On-demand).
    pub fn cost_ratio(&self) -> f64 {
        let s = self.savings();
        if s.od_cost.ticks() == 0 {
            1.0
        } else {
            s.strategy_cost.ticks() as f64 / s.od_cost.ticks() as f64
        }
    }

    /// Whether degradation stayed conservative: every guaranteed request
    /// was backed by data within the staleness budget.
    pub fn conservative(&self) -> bool {
        self.combos
            .iter()
            .all(|c| c.guaranteed == 0 || c.max_served_staleness <= STALENESS_BUDGET)
    }
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
    let truth = {
        let _span = obs::span("bt_tracegen");
        Arc::new(tracegen::generate(
            combo,
            catalog,
            &TraceConfig::days(cfg.days, cfg.seed),
        ))
    };
    let feed = FaultyFeed::new(Arc::clone(&truth), cfg.faults);
    let delivered = feed.delivered();
    let od = catalog.od_price(combo.ty, combo.az.region());
    let factory = StreamFactory::new(cfg.seed);
    let requests = {
        let _span = obs::span("bt_requests");
        request::generate(&cfg.request_config(), &factory, combo)
    };

    let mut sweep = ComboSweep::new(delivered, od, cfg.sweep);
    let mut ar1 = Ar1Estimator::paper_default();
    let mut ecdf = EcdfEstimator::new();
    let mut fed = 0usize;

    let p = cfg.probability;
    let mut out = ComboResult {
        combo,
        archetype: archetype::assign(combo, catalog, cfg.seed),
        outcomes: Policy::ALL
            .iter()
            .map(|&policy| PolicyOutcome {
                policy,
                successes: 0,
                attempts: 0,
            })
            .collect(),
        savings: SavingsAccumulator::new(),
        tightness_sum: 0.0,
        tightness_count: 0,
        guaranteed: 0,
        guaranteed_successes: 0,
        max_served_staleness: 0,
    };

    let _sweep_span = obs::span("bt_sweep");
    for req in &requests {
        // Every evaluator's information set: the prefix of the delivered
        // series visible by the request time.
        sweep.advance_count(feed.prefix_visible_at(req.start));
        let upto = sweep.consumed();
        for &v in &delivered.series().values()[fed..upto] {
            ar1.observe(v);
            ecdf.observe(v);
        }
        fed = upto;

        let quoted = sweep.has_data().then(|| {
            let staleness = req.start.saturating_sub(delivered.time(upto - 1));
            (sweep.quote(p, req.duration), staleness)
        });
        let quote = quoted.map(|(q, _)| q);
        let market = truth
            .price_at(req.start)
            .expect("request window starts after history");
        if let Some(quote) = quote.filter(|_| market > Price::ZERO) {
            out.tightness_sum += quote.bid.ticks() as f64 / market.ticks() as f64;
            out.tightness_count += 1;
        }
        // Served as guaranteed only when the quote covers the duration and
        // the newest delivered update is within the service's staleness
        // budget, as the hardened service serves it.
        let served = quoted
            .filter(|(q, staleness)| q.guarantees(req.duration) && *staleness <= STALENESS_BUDGET);

        // One bid per policy, in `Policy::ALL` order. Baselines get the
        // same one-tick increment DrAFTS applies: a bid exactly at the
        // estimated quantile ties the market price on plateau-heavy series
        // and would be rejected outright. A policy with no bid cannot
        // serve the request.
        let bids = [
            quote.map(|q| q.bid),
            Some(od),
            ar1.upper_bound(p)
                .map(|b| Price::from_ticks(b) + Price::TICK),
            ecdf.upper_bound(p)
                .map(|b| Price::from_ticks(b) + Price::TICK),
        ];
        // Ground truth is always the unperturbed history.
        let survived = bids.map(|bid| {
            bid.is_some_and(|b| {
                truth
                    .survival(req.start, b)
                    .survives_for(req.start, req.duration)
            })
        });
        for (outcome, ok) in out.outcomes.iter_mut().zip(survived) {
            outcome.attempts += 1;
            outcome.successes += usize::from(ok);
        }
        if let Some((_, staleness)) = served {
            out.guaranteed += 1;
            out.guaranteed_successes += usize::from(survived[0]);
            out.max_served_staleness = out.max_served_staleness.max(staleness);
        }

        // §4.4: spot only on a guaranteed bid below On-demand, billed
        // worst case for `ceil(duration)` hours.
        let choice = optimizer::choose(served.map(|(q, _)| q.bid), od);
        out.savings
            .record(choice, od, req.duration.div_ceil(HOUR).max(1));
    }
    out
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

    /// `small_cfg` with every feed perturbed at half intensity.
    fn faulty_cfg() -> BacktestConfig {
        BacktestConfig {
            faults: FaultPlan::with_intensity(99, 0.5),
            ..small_cfg()
        }
    }

    fn assert_deterministic(cfg: BacktestConfig) {
        assert_eq!(run(&cfg).combos, run(&cfg).combos);
    }

    #[test]
    fn is_deterministic() {
        assert_deterministic(small_cfg());
    }

    #[test]
    fn is_deterministic_under_faults() {
        assert_deterministic(faulty_cfg());
    }

    fn assert_identical_at_any_thread_count(cfg: BacktestConfig) {
        let at = |threads: usize| {
            run(&BacktestConfig {
                threads: Some(threads),
                ..cfg
            })
            .combos
        };
        let serial = at(1);
        for threads in [2, 8] {
            assert_eq!(serial, at(threads), "{threads} threads");
        }
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        assert_identical_at_any_thread_count(small_cfg());
    }

    #[test]
    fn identical_results_at_any_thread_count_under_faults() {
        assert_identical_at_any_thread_count(faulty_cfg());
    }

    #[test]
    fn faults_degrade_conservatively() {
        // Four combos of 30 requests: on `small_cfg`'s larger population
        // an intensity-1 plan need not demote more requests than the
        // clean feed does.
        let at = |faults| {
            run(&BacktestConfig {
                requests_per_combo: 30,
                combo_limit: Some(4),
                faults,
                ..small_cfg()
            })
        };
        let clean = at(FaultPlan::none(7));
        let hostile = at(FaultPlan::with_intensity(7, 1.0));
        assert_eq!(clean.fallback_rate() + clean.guaranteed_share(), 1.0);
        assert!(hostile.conservative(), "no out-of-budget guarantee served");
        assert!(
            hostile.fallback_rate() > clean.fallback_rate(),
            "an intensity-1 plan must demote some requests: {} <= {}",
            hostile.fallback_rate(),
            clean.fallback_rate()
        );
        // Lost guarantees cost money (spot savings forgone), never
        // correctness: the strategy still never exceeds all-On-demand.
        assert!(hostile.cost_ratio() >= clean.cost_ratio() - 1e-12);
        assert!(hostile.cost_ratio() <= 1.0);
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
