//! Single-pass incremental DrAFTS evaluation.
//!
//! Running the batch [`DraftsPredictor`](drafts_core::DraftsPredictor) at
//! each of 300 random times per combo would rebuild QBETS state from
//! scratch every time (the paper reports ~2 minutes per bid on server-class
//! machines, §3.3). The sweep instead advances chronologically once,
//! maintaining:
//!
//! * an incremental QBETS over the price series (step 1),
//! * for each bid level of a fixed geometric grid anchored to the combo's
//!   On-demand price: a [`DurationResolver`] plus an order-statistic
//!   multiset of resolved durations (step 2), under capped-window
//!   censoring (`Censoring::Capped`): durations cap at `duration_cap` and
//!   starts resolve either at a crossing or when they age past the cap,
//!   so every stored value is exact.
//!
//! The grid is anchored to the On-demand price — not to observed prices —
//! so no future information leaks into level placement.

use drafts_core::duration::DurationResolver;
use drafts_core::predictor::BidQuote;
use spotmarket::{Price, PriceHistory};
use tsforecast::changepoint::ChangePointConfig;
use tsforecast::orderstat::{OrderStat, TreapMultiset};
use tsforecast::stats::{effective_sample_size, RunningLag1};
use tsforecast::{quantile_bound, BoundEstimator, Qbets, QbetsConfig};

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// QBETS confidence for both steps (paper: 0.99).
    pub confidence: f64,
    /// Change-point detection for the price step.
    pub changepoint: Option<ChangePointConfig>,
    /// Autocorrelation compensation (both steps).
    pub autocorr: bool,
    /// Cap on the compensation's lag-1 rho.
    pub autocorr_cap: f64,
    /// Number of geometric bid levels.
    pub levels: usize,
    /// Lowest level as a fraction of On-demand.
    pub level_floor_frac: f64,
    /// Highest level as a fraction of On-demand (above the trace
    /// generator's 12x price cap).
    pub level_cap_frac: f64,
    /// Start points are registered every `duration_stride` updates.
    pub duration_stride: usize,
    /// Duration cap in seconds (capped-window censoring; must exceed the
    /// longest request to be guaranteed).
    pub duration_cap: u64,
    /// Fallback ceiling multiplier over the minimum bid when no level
    /// guarantees the requested duration (the service grid's 4x span).
    pub grid_span: f64,
    /// Fractional safety margin added to guaranteed bids — one service
    /// grid step (5%) by default. Compensates the residual exceedance risk
    /// the square-root split's independence assumption leaves between the
    /// chosen level and genuinely new price highs.
    pub safety_margin: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            confidence: 0.99,
            changepoint: Some(ChangePointConfig::default()),
            autocorr: true,
            autocorr_cap: 0.3,
            levels: 64,
            level_floor_frac: 0.02,
            level_cap_frac: 12.5,
            duration_stride: 3,
            duration_cap: 24 * 3600,
            grid_span: 4.0,
            safety_margin: 0.05,
        }
    }
}

impl SweepConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on degenerate fields.
    pub fn validate(&self) {
        assert!(self.levels >= 2, "need at least two levels");
        assert!(
            self.level_floor_frac > 0.0 && self.level_cap_frac > self.level_floor_frac,
            "level range must be positive and increasing"
        );
        assert!(self.duration_stride > 0, "stride must be positive");
        assert!(self.duration_cap > 0, "duration cap must be positive");
        assert!(self.grid_span >= 1.0, "grid span must be >= 1");
        assert!(self.safety_margin >= 0.0, "margin must be non-negative");
        if let Some(cp) = &self.changepoint {
            cp.validate();
        }
    }

    fn price_qbets(&self) -> QbetsConfig {
        QbetsConfig {
            confidence: self.confidence,
            changepoint: self.changepoint,
            autocorr_correction: self.autocorr,
            autocorr_cap: self.autocorr_cap,
        }
    }
}

/// Per-level incremental duration state.
#[derive(Debug)]
struct LevelState {
    bid: Price,
    resolver: DurationResolver,
    resolved: TreapMultiset,
    lag1: RunningLag1,
}

impl LevelState {
    fn new(bid: Price) -> Self {
        Self {
            bid,
            resolver: DurationResolver::new(bid),
            resolved: TreapMultiset::new(),
            lag1: RunningLag1::new(),
        }
    }
}

/// The chronological sweep over one combo's history.
pub struct ComboSweep<'a> {
    history: &'a PriceHistory,
    cfg: SweepConfig,
    price_qbets: Qbets,
    levels: Vec<LevelState>,
    next_idx: usize,
    now: u64,
    max_seen: u64,
    scratch: Vec<u64>,
}

impl<'a> ComboSweep<'a> {
    /// Creates a sweep over `history` with levels anchored to `od`.
    pub fn new(history: &'a PriceHistory, od: Price, cfg: SweepConfig) -> Self {
        cfg.validate();
        assert!(od > Price::ZERO, "On-demand anchor must be positive");
        let lo = (od.dollars() * cfg.level_floor_frac).max(Price::TICK.dollars());
        let hi = od.dollars() * cfg.level_cap_frac;
        let ratio = (hi / lo).powf(1.0 / (cfg.levels - 1) as f64);
        let mut levels: Vec<LevelState> = (0..cfg.levels)
            .map(|i| LevelState::new(Price::from_dollars(lo * ratio.powi(i as i32))))
            .collect();
        levels.dedup_by_key(|l| l.bid);
        Self {
            history,
            price_qbets: Qbets::new(cfg.price_qbets()),
            cfg,
            levels,
            next_idx: 0,
            now: 0,
            max_seen: 0,
            scratch: Vec::new(),
        }
    }

    /// The bid levels of the grid.
    pub fn level_bids(&self) -> Vec<Price> {
        self.levels.iter().map(|l| l.bid).collect()
    }

    /// Number of price updates consumed so far.
    pub fn consumed(&self) -> usize {
        self.next_idx
    }

    /// Advances the sweep to include every update with `time <= t`.
    ///
    /// # Panics
    /// Panics if `t` precedes a previous `advance_to` (the sweep is
    /// forward-only).
    pub fn advance_to(&mut self, t: u64) {
        assert!(t >= self.now, "sweep is forward-only: {t} < {}", self.now);
        self.now = t;
        let times = self.history.series().times();
        let mut end = self.next_idx;
        while end < times.len() && times[end] <= t {
            end += 1;
        }
        self.consume_to(end);
    }

    /// Advances the sweep to include exactly the first `count` updates of
    /// the history, regardless of their timestamps. This is the
    /// degraded-feed entry point: a perturbed feed exposes a *prefix* of
    /// its delivered series at any poll time, and the prefix length — not
    /// a wall-clock cutoff — is the consumer's information set.
    ///
    /// # Panics
    /// Panics if `count` exceeds the history length or precedes updates
    /// already consumed (the sweep is forward-only).
    pub fn advance_count(&mut self, count: usize) {
        let times = self.history.series().times();
        assert!(count <= times.len(), "count {count} beyond history");
        assert!(
            count >= self.next_idx,
            "sweep is forward-only: {count} < {}",
            self.next_idx
        );
        if count > 0 {
            self.now = self.now.max(times[count - 1]);
        }
        self.consume_to(count);
    }

    /// Consumes updates `[next_idx, end)` into the price-step and
    /// per-level duration state.
    fn consume_to(&mut self, end: usize) {
        let times = self.history.series().times();
        let values = self.history.series().values();

        // Consume the price-step state (shared across levels) serially.
        let start = self.next_idx;
        for &ticks in &values[start..end] {
            self.price_qbets.observe(ticks);
            self.max_seen = self.max_seen.max(ticks);
        }
        if end == start {
            return;
        }
        self.next_idx = end;

        // Replay the batch per level. Levels never read each other, so the
        // level-outer order produces the exact same per-level operation
        // sequence as the historical update-outer order.
        let stride = self.cfg.duration_stride;
        let cap = self.cfg.duration_cap;
        let scratch = &mut self.scratch;
        for level in &mut self.levels {
            for idx in start..end {
                let (time, ticks) = (times[idx], values[idx]);
                let price = Price::from_ticks(ticks);
                scratch.clear();
                level.resolver.age_out(time, cap, scratch);
                level.resolver.check(time, price, scratch);
                for &d in scratch.iter() {
                    level.resolved.insert(d);
                    level.lag1.push(d);
                }
                if idx.is_multiple_of(stride) {
                    level.resolver.start(time);
                }
            }
        }
    }

    /// Whether any history has been consumed (quotes need at least one
    /// observed price).
    pub fn has_data(&self) -> bool {
        self.next_idx > 0
    }

    /// The DrAFTS quote for a request of `duration` seconds at target
    /// probability `p`, given everything observed so far. Matches the
    /// batch predictor's semantics: minimum bid from step 1, smallest
    /// grid level at/above it whose step-2 duration bound covers the
    /// request; conservative fallbacks otherwise.
    ///
    /// # Panics
    /// Panics if no data has been consumed yet.
    pub fn quote(&self, p: f64, duration: u64) -> BidQuote {
        assert!(self.has_data(), "quote before any price data");
        let q = p.sqrt();
        let Some(bound) = self.price_qbets.upper_bound(q) else {
            // Cold start / fresh post-change-point segment: bid above
            // everything seen with real headroom (4 safety margins) —
            // continued drift would otherwise cross a bare max-plus-tick
            // within hours. The quote carries no guarantee.
            return BidQuote {
                bid: Price::from_ticks(self.max_seen).scale(1.0 + 4.0 * self.cfg.safety_margin)
                    + Price::TICK,
                durability_secs: None,
            };
        };
        let min_bid = Price::from_ticks(bound) + Price::TICK;
        for (i, level) in self.levels.iter().enumerate() {
            if level.bid < min_bid {
                continue;
            }
            if let Some(d) = self.level_duration_bound(i, q) {
                if d >= duration {
                    return BidQuote {
                        bid: level.bid.scale(1.0 + self.cfg.safety_margin),
                        durability_secs: Some(d),
                    };
                }
            }
        }
        BidQuote {
            bid: min_bid.scale(self.cfg.grid_span),
            durability_secs: None,
        }
    }

    /// Step-2 bound for one level: lower confidence bound on the `(1-q)`
    /// quantile of the capped duration sample (every stored value is
    /// exact under capped-window censoring).
    fn level_duration_bound(&self, level_idx: usize, q: f64) -> Option<u64> {
        let level = &self.levels[level_idx];
        let n = level.resolved.len();
        if n == 0 {
            return None;
        }
        let n_eff = if self.cfg.autocorr {
            let rho = level.lag1.lag1_autocorr().min(self.cfg.autocorr_cap);
            effective_sample_size(n, rho)
        } else {
            n
        };
        let j_eff = quantile_bound::lower_bound_index(n_eff, 1.0 - q, self.cfg.confidence)?;
        let j = quantile_bound::scale_index_to_sample(j_eff, n_eff, n);
        level.resolved.kth_smallest(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drafts_core::duration::Censoring;
    use drafts_core::predictor::{DraftsConfig, DraftsPredictor};
    use spotmarket::archetype::Archetype;
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
    use spotmarket::{Az, Catalog, Combo};

    fn setup(arch: Archetype, days: u64, seed: u64) -> (PriceHistory, Price) {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-west-2a").unwrap(),
            cat.type_id("c3.large").unwrap(),
        );
        let h = generate_with_archetype(combo, cat, &TraceConfig::days(days, seed), arch);
        let od = cat.od_price(combo.ty, combo.az.region());
        (h, od)
    }

    #[test]
    fn levels_form_a_geometric_grid() {
        let (h, od) = setup(Archetype::Calm, 2, 1);
        let sweep = ComboSweep::new(&h, od, SweepConfig::default());
        let bids = sweep.level_bids();
        assert_eq!(bids.len(), 64);
        assert!(bids.windows(2).all(|w| w[0] < w[1]));
        assert!(bids[0] <= od.scale(0.021));
        assert!(*bids.last().unwrap() >= od.scale(12.0));
    }

    #[test]
    fn advance_is_forward_only() {
        let (h, od) = setup(Archetype::Calm, 2, 1);
        let mut sweep = ComboSweep::new(&h, od, SweepConfig::default());
        sweep.advance_to(10_000);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep.advance_to(5_000)));
        assert!(r.is_err());
    }

    #[test]
    fn cold_start_quote_is_max_with_headroom() {
        let (h, od) = setup(Archetype::Calm, 2, 2);
        let cfg = SweepConfig::default();
        let mut sweep = ComboSweep::new(&h, od, cfg);
        sweep.advance_to(3000); // ~10 updates: far below any bound minimum
        let quote = sweep.quote(0.95, 3600);
        assert_eq!(quote.durability_secs, None);
        let max_seen = h
            .series()
            .values()
            .iter()
            .take(sweep.consumed())
            .max()
            .copied()
            .unwrap();
        let expected =
            Price::from_ticks(max_seen).scale(1.0 + 4.0 * cfg.safety_margin) + Price::TICK;
        assert_eq!(quote.bid, expected);
        assert!(quote.bid > Price::from_ticks(max_seen), "headroom applied");
    }

    #[test]
    fn warm_quote_guarantees_requested_duration() {
        let (h, od) = setup(Archetype::Calm, 30, 3);
        let mut sweep = ComboSweep::new(&h, od, SweepConfig::default());
        sweep.advance_to(25 * spotmarket::DAY);
        let quote = sweep.quote(0.95, 3600);
        assert!(
            quote.guarantees(3600),
            "calm 25-day history must guarantee an hour: {quote:?}"
        );
        // And the bid sits in a plausible envelope.
        assert!(quote.bid < od.scale(2.0));
    }

    #[test]
    fn longer_durations_never_get_cheaper_bids() {
        let (h, od) = setup(Archetype::Choppy, 40, 4);
        let mut sweep = ComboSweep::new(&h, od, SweepConfig::default());
        sweep.advance_to(35 * spotmarket::DAY);
        let mut last = Price::ZERO;
        for hours in [1u64, 3, 6, 12] {
            let quote = sweep.quote(0.95, hours * 3600);
            assert!(
                quote.bid >= last,
                "{hours}h: bid {} < previous {last}",
                quote.bid
            );
            last = quote.bid;
        }
    }

    #[test]
    fn quotes_agree_with_batch_predictor_on_calm_market() {
        // Batch uses the same capped-window censoring as the sweep.
        // Same censoring semantics, same confidence machinery: on a calm
        // market the sweep's guaranteed 1-hour bid should be within one
        // grid step of the batch bid.
        let (h, od) = setup(Archetype::Calm, 30, 5);
        let cfg = SweepConfig {
            changepoint: None,
            duration_stride: 3,
            ..SweepConfig::default()
        };
        let mut sweep = ComboSweep::new(&h, od, cfg);
        let t = 28 * spotmarket::DAY;
        sweep.advance_to(t);
        let sweep_quote = sweep.quote(0.95, 3600);

        let batch = DraftsPredictor::new(
            &h,
            DraftsConfig {
                changepoint: None,
                duration_stride: 3,
                censoring: Censoring::Capped(24 * 3600),
                ..DraftsConfig::default()
            },
        );
        let upto = h.series().index_at(t).unwrap();
        let batch_bid = batch.bid_quote(upto, 0.95, 3600);
        assert!(sweep_quote.guarantees(3600));
        assert!(batch_bid.guarantees(3600));
        let ratio = sweep_quote.bid.ticks() as f64 / batch_bid.bid.ticks() as f64;
        assert!(
            (0.85..=1.25).contains(&ratio),
            "sweep {} vs batch {} (ratio {ratio})",
            sweep_quote.bid,
            batch_bid.bid
        );
    }

    #[test]
    fn uncrossed_level_bounds_at_the_cap() {
        // A market whose price never reaches high levels: every start ages
        // out at the cap, so the duration bound equals the cap exactly.
        let (h, od) = setup(Archetype::Calm, 30, 6);
        let cfg = SweepConfig {
            changepoint: None,
            ..SweepConfig::default()
        };
        let mut sweep = ComboSweep::new(&h, od, cfg);
        sweep.advance_to(29 * spotmarket::DAY);
        let top = sweep.levels.len() - 1;
        assert!(sweep.levels[top].resolved.len() > 1000);
        let bound = sweep.level_duration_bound(top, 0.975).unwrap();
        assert_eq!(
            bound, cfg.duration_cap,
            "uncrossed level must bound exactly at the cap"
        );
    }

    #[test]
    fn spike_depresses_level_bounds_below_it() {
        let (h, od) = setup(Archetype::Spiky, 60, 7);
        let cfg = SweepConfig {
            changepoint: None,
            ..SweepConfig::default()
        };
        let mut sweep = ComboSweep::new(&h, od, cfg);
        sweep.advance_to(59 * spotmarket::DAY);
        // Some level near the base price is crossed by spikes; bounds below
        // the spike peak must be finite and smaller than uncrossed ones.
        let bounds: Vec<Option<u64>> = (0..sweep.levels.len())
            .map(|i| sweep.level_duration_bound(i, 0.975))
            .collect();
        let finite: Vec<u64> = bounds.iter().flatten().copied().collect();
        assert!(!finite.is_empty());
        // Duration bounds are (weakly) increasing in level.
        assert!(finite.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn advance_count_matches_advance_to() {
        let (h, od) = setup(Archetype::Choppy, 30, 9);
        let t = 20 * spotmarket::DAY;
        let mut by_time = ComboSweep::new(&h, od, SweepConfig::default());
        by_time.advance_to(t);
        let mut by_count = ComboSweep::new(&h, od, SweepConfig::default());
        // Same prefix in two unequal steps.
        by_count.advance_count(by_time.consumed() / 2);
        by_count.advance_count(by_time.consumed());
        assert_eq!(by_count.consumed(), by_time.consumed());
        for p in [0.95, 0.99] {
            let a = by_time.quote(p, 3600);
            let b = by_count.quote(p, 3600);
            assert_eq!(a.bid, b.bid);
            assert_eq!(a.durability_secs, b.durability_secs);
        }
        // Mixing is fine as long as it stays forward.
        by_count.advance_to(25 * spotmarket::DAY);
        assert!(by_count.consumed() > by_time.consumed());
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn advance_count_is_forward_only() {
        let (h, od) = setup(Archetype::Calm, 2, 1);
        let mut sweep = ComboSweep::new(&h, od, SweepConfig::default());
        sweep.advance_count(100);
        sweep.advance_count(50);
    }

    #[test]
    #[should_panic(expected = "quote before any price data")]
    fn quote_requires_data() {
        let (h, od) = setup(Archetype::Calm, 2, 8);
        let sweep = ComboSweep::new(&h, od, SweepConfig::default());
        sweep.quote(0.95, 10);
    }
}
