//! Chaos-mode backtest: DrAFTS evaluated through a degraded price feed.
//!
//! The standard engine measures DrAFTS with perfect hindsight over the
//! true price history. This mode interposes a seeded
//! [`FaultyFeed`](spotmarket::FaultyFeed) between the history and the
//! evaluator: the sweep consumes only what the feed has *delivered* by
//! each request time (outages, lag, loss, duplication, corruption all
//! included), while ground-truth survival is always judged against the
//! unperturbed history — exactly the asymmetry a live service faces.
//!
//! Serving discipline mirrors the hardened `DraftsService`: a quote is
//! *served as guaranteed* only if the sweep guarantees the requested
//! duration **and** the newest delivered update is within the staleness
//! budget of the request time. Anything else is a no-guarantee fallback
//! that the §4.4 optimizer routes to On-demand. The property under test:
//! degradation must be *conservative* — faults may raise the fallback
//! rate (lost savings), but requests served as guaranteed must keep their
//! attainment (no silently wrong guarantees).

use crate::engine::BacktestConfig;
use crate::request;
use crate::sweep::ComboSweep;
use drafts_core::optimizer::{self, SavingsAccumulator};
use parallel::Pool;
use simrng::StreamFactory;
use spotmarket::faults::{FaultPlan, FaultyFeed};
use spotmarket::tracegen::{self, TraceConfig};
use spotmarket::{Catalog, Combo, HOUR};
use std::sync::Arc;

/// Chaos-mode parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// The underlying backtest shape (seed, window, requests, sweep).
    pub backtest: BacktestConfig,
    /// The fault plan applied to every combo's feed (per-combo streams
    /// are derived inside the feed, so one plan does not correlate
    /// combos).
    pub plan: FaultPlan,
    /// Maximum delivered-data age at which a quote may still be served
    /// as guaranteed (mirrors `ServiceConfig::staleness_budget`).
    pub staleness_budget: u64,
}

impl ChaosConfig {
    /// A chaos config over `backtest` with `plan` and the service's
    /// default one-hour staleness budget.
    pub fn new(backtest: BacktestConfig, plan: FaultPlan) -> Self {
        Self {
            backtest,
            plan,
            staleness_budget: HOUR,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on a degenerate backtest, plan, or budget.
    pub fn validate(&self) {
        self.backtest.validate();
        self.plan.validate();
        assert!(self.staleness_budget > 0, "zero staleness budget");
    }
}

/// Chaos accounting for one combo.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosComboResult {
    /// The market.
    pub combo: Combo,
    /// Requests evaluated.
    pub attempts: usize,
    /// Requests whose quote (guaranteed or not) survived on the true
    /// history — comparable to the engine's DrAFTS success count.
    pub successes: usize,
    /// Requests served as guaranteed (duration covered, data in budget).
    pub guaranteed: usize,
    /// Guaranteed-served requests that survived on the true history.
    pub guaranteed_successes: usize,
    /// Requests demoted to no-guarantee fallbacks (routed On-demand).
    pub fallbacks: usize,
    /// Largest delivered-data age among guaranteed-served requests.
    pub max_served_staleness: u64,
    /// §4.4 strategy accounting under the serving discipline.
    pub savings: SavingsAccumulator,
}

/// Full chaos-mode output.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Target durability probability.
    pub probability: f64,
    /// The plan that perturbed the feeds.
    pub plan: FaultPlan,
    /// The staleness budget used for serving decisions.
    pub staleness_budget: u64,
    /// One entry per combo.
    pub combos: Vec<ChaosComboResult>,
}

impl ChaosResult {
    /// Total requests evaluated.
    pub fn attempts(&self) -> usize {
        self.combos.iter().map(|c| c.attempts).sum()
    }

    /// Fraction of requests served as guaranteed.
    pub fn guaranteed_share(&self) -> f64 {
        ratio(
            self.combos.iter().map(|c| c.guaranteed).sum(),
            self.attempts(),
        )
    }

    /// Attainment among guaranteed-served requests: the fraction that
    /// actually survived (`1.0` when nothing was served as guaranteed —
    /// an empty promise set is vacuously kept).
    pub fn attainment(&self) -> f64 {
        let g: usize = self.combos.iter().map(|c| c.guaranteed).sum();
        if g == 0 {
            return 1.0;
        }
        self.combos
            .iter()
            .map(|c| c.guaranteed_successes)
            .sum::<usize>() as f64
            / g as f64
    }

    /// Fraction of requests demoted to no-guarantee fallbacks.
    pub fn fallback_rate(&self) -> f64 {
        ratio(
            self.combos.iter().map(|c| c.fallbacks).sum(),
            self.attempts(),
        )
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

    /// Whether degradation stayed conservative: every guaranteed-served
    /// request was backed by in-budget data.
    pub fn conservative(&self) -> bool {
        self.combos
            .iter()
            .all(|c| c.guaranteed == 0 || c.max_served_staleness <= self.staleness_budget)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the chaos-mode backtest.
pub fn run(cfg: &ChaosConfig) -> ChaosResult {
    cfg.validate();
    let catalog = Catalog::standard();
    let mut combos = catalog.combos();
    if let Some(limit) = cfg.backtest.combo_limit {
        combos.truncate(limit);
    }
    let results: Vec<ChaosComboResult> = Pool::with_override(cfg.backtest.threads)
        .par_map(&combos, |&combo| run_combo(cfg, catalog, combo));
    ChaosResult {
        probability: cfg.backtest.probability,
        plan: cfg.plan,
        staleness_budget: cfg.staleness_budget,
        combos: results,
    }
}

/// Chaos-backtests a single combo (exposed for tests).
pub fn run_combo(cfg: &ChaosConfig, catalog: &Catalog, combo: Combo) -> ChaosComboResult {
    let bt = &cfg.backtest;
    let trace_cfg = TraceConfig::days(bt.days, bt.seed);
    let truth = Arc::new(tracegen::generate(combo, catalog, &trace_cfg));
    let feed = FaultyFeed::new(truth.clone(), cfg.plan);
    let delivered = feed.delivered().clone();
    let od = catalog.od_price(combo.ty, combo.az.region());
    let factory = StreamFactory::new(bt.seed);
    let requests = request::generate(&bt.request_config(), &factory, combo);

    let mut sweep = ComboSweep::new(&delivered, od, bt.sweep);
    let p = bt.probability;
    let mut out = ChaosComboResult {
        combo,
        attempts: 0,
        successes: 0,
        guaranteed: 0,
        guaranteed_successes: 0,
        fallbacks: 0,
        max_served_staleness: 0,
        savings: SavingsAccumulator::new(),
    };

    for req in &requests {
        // The evaluator's information set: the prefix of the delivered
        // series visible by the request time, not the true history.
        let visible = feed.prefix_visible_at(req.start);
        sweep.advance_count(visible);
        out.attempts += 1;

        let quoted = sweep.has_data().then(|| {
            let quote = sweep.quote(p, req.duration);
            let newest = delivered.time(sweep.consumed() - 1);
            (quote, req.start.saturating_sub(newest))
        });
        let served_guaranteed = quoted.as_ref().is_some_and(|(q, staleness)| {
            q.guarantees(req.duration) && *staleness <= cfg.staleness_budget
        });

        // Ground truth is always the unperturbed history.
        let survived = quoted.as_ref().is_some_and(|(q, _)| {
            truth
                .survival(req.start, q.bid)
                .survives_for(req.start, req.duration)
        });
        if survived {
            out.successes += 1;
        }
        if served_guaranteed {
            let (_, staleness) = quoted.as_ref().expect("guaranteed implies quoted");
            out.guaranteed += 1;
            out.max_served_staleness = out.max_served_staleness.max(*staleness);
            if survived {
                out.guaranteed_successes += 1;
            }
        } else {
            out.fallbacks += 1;
        }

        // §4.4 serving discipline: spot only on an in-budget guarantee.
        let spot_bid = served_guaranteed.then(|| quoted.as_ref().unwrap().0.bid);
        let choice = optimizer::choose(spot_bid, od);
        out.savings
            .record(choice, od, req.duration.div_ceil(HOUR).max(1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, Policy};
    use crate::sweep::SweepConfig;
    use tsforecast::changepoint::ChangePointConfig;

    fn small_backtest() -> BacktestConfig {
        BacktestConfig {
            seed: 42,
            days: 40,
            warmup_days: 14,
            requests_per_combo: 30,
            combo_limit: Some(4),
            probability: 0.95,
            sweep: SweepConfig {
                changepoint: Some(ChangePointConfig::default()),
                ..SweepConfig::default()
            },
            ..BacktestConfig::default()
        }
    }

    #[test]
    fn zero_fault_chaos_reproduces_the_clean_engine() {
        let bt = small_backtest();
        let chaos = run(&ChaosConfig::new(bt, FaultPlan::none(7)));
        let clean = engine::run(&bt);
        assert_eq!(chaos.combos.len(), clean.combos.len());
        for (c, e) in chaos.combos.iter().zip(&clean.combos) {
            assert_eq!(c.combo, e.combo);
            let drafts = e.outcome(Policy::Drafts);
            assert_eq!(c.attempts, drafts.attempts);
            assert_eq!(
                c.successes, drafts.successes,
                "zero-fault chaos must match the engine bit for bit on {:?}",
                c.combo
            );
            assert_eq!(c.savings, e.savings);
        }
        assert_eq!(chaos.fallback_rate() + chaos.guaranteed_share(), 1.0);
    }

    #[test]
    fn chaos_is_deterministic() {
        let cfg = ChaosConfig::new(small_backtest(), FaultPlan::with_intensity(99, 0.5));
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.combos, b.combos);
    }

    #[test]
    fn faults_degrade_conservatively() {
        let bt = small_backtest();
        let clean = run(&ChaosConfig::new(bt, FaultPlan::none(7)));
        let hostile = run(&ChaosConfig::new(bt, FaultPlan::with_intensity(7, 1.0)));
        assert!(hostile.conservative(), "no out-of-budget guarantee served");
        assert!(
            hostile.fallback_rate() >= clean.fallback_rate(),
            "faults must not increase confidence: {} < {}",
            hostile.fallback_rate(),
            clean.fallback_rate()
        );
        assert!(
            hostile.fallback_rate() > clean.fallback_rate(),
            "an intensity-1 plan must demote some requests"
        );
        // Lost guarantees cost money (spot savings forgone), never
        // correctness: the strategy still never exceeds all-On-demand.
        assert!(hostile.cost_ratio() >= clean.cost_ratio() - 1e-12);
        assert!(hostile.cost_ratio() <= 1.0);
    }

    #[test]
    fn results_do_not_depend_on_thread_count() {
        let mk = |threads| {
            run(&ChaosConfig::new(
                BacktestConfig {
                    threads: Some(threads),
                    ..small_backtest()
                },
                FaultPlan::with_intensity(3, 0.7),
            ))
        };
        assert_eq!(mk(1).combos, mk(4).combos);
    }
}
