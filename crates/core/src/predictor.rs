//! The two-step DrAFTS prediction algorithm (paper §3.2).
//!
//! Step 1 — *price*: QBETS upper bound (confidence `c`) on the
//! `q = sqrt(p)` quantile of the market price series up to the prediction
//! point, plus one tick, "so that it must be larger than the quoted market
//! price returned in all cases". This is the minimum bid that survives the
//! next price update with probability at least `q`.
//!
//! Step 2 — *duration*: for a candidate bid, build the survival-duration
//! series ([`crate::duration`]) and take a QBETS lower bound (confidence
//! `c`) on its `(1-q)`-quantile: a duration the bid sustains with
//! probability at least `q`, conditioned on the price admitting the
//! instance at all. Jointly the (bid, duration) pair holds with probability
//! at least `q * q = p`.
//!
//! The square-root split between the two steps is the paper's choice:
//! "using square roots strikes a good balance between keeping a bid low
//! ... and yielding a usable duration."

use crate::duration::{fill_duration_series, Censoring};
use spotmarket::{Price, PriceHistory};
use tsforecast::changepoint::ChangePointConfig;
use tsforecast::{BoundEstimator, Qbets, QbetsConfig, SliceBound};

/// DrAFTS tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct DraftsConfig {
    /// Confidence level of both QBETS bounds (paper: 0.99).
    pub confidence: f64,
    /// Change-point detection for both series; `None` disables it.
    pub changepoint: Option<ChangePointConfig>,
    /// Whether to apply the autocorrelation (effective sample size)
    /// correction.
    pub autocorr: bool,
    /// Cap on the correction's lag-1 rho (see `QbetsConfig::autocorr_cap`).
    pub autocorr_cap: f64,
    /// Subsampling stride for duration-series start points (1 = every
    /// update, the paper's formulation; larger = faster, coarser).
    pub duration_stride: usize,
    /// Treatment of unresolved durations at the prediction point.
    pub censoring: Censoring,
    /// Bid-grid step of the bid-duration search (paper service: 5%).
    pub grid_step: f64,
    /// Bid-grid ceiling as a multiple of the minimum bid (paper service: 4x).
    pub grid_span: f64,
    /// Fractional safety margin added to guaranteed bids (one 5% service
    /// grid step by default); see `SweepConfig::safety_margin`.
    pub safety_margin: f64,
}

impl Default for DraftsConfig {
    fn default() -> Self {
        Self {
            confidence: 0.99,
            changepoint: Some(ChangePointConfig::default()),
            autocorr: true,
            autocorr_cap: 0.3,
            duration_stride: 1,
            censoring: Censoring::default(),
            grid_step: 0.05,
            grid_span: 4.0,
            safety_margin: 0.05,
        }
    }
}

impl DraftsConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on out-of-range fields.
    pub fn validate(&self) {
        assert!(
            self.confidence > 0.0 && self.confidence < 1.0,
            "confidence must be in (0,1)"
        );
        assert!(self.duration_stride > 0, "stride must be positive");
        assert!(self.grid_step > 0.0, "grid step must be positive");
        assert!(self.grid_span >= 1.0, "grid span must be >= 1");
        assert!(self.safety_margin >= 0.0, "margin must be non-negative");
        if let Some(cp) = &self.changepoint {
            cp.validate();
        }
    }

    fn qbets_config(&self) -> QbetsConfig {
        QbetsConfig {
            confidence: self.confidence,
            changepoint: self.changepoint,
            autocorr_correction: self.autocorr,
            autocorr_cap: self.autocorr_cap,
        }
    }
}

/// A (bid, guaranteed duration) pair at a probability level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BidPrediction {
    /// The maximum bid to submit.
    pub bid: Price,
    /// Duration (seconds) the bid sustains with the target probability —
    /// the paper's "durability".
    pub durability_secs: u64,
}

/// Batch DrAFTS predictor over one combo's price history.
#[derive(Debug, Clone)]
pub struct DraftsPredictor<'a> {
    history: &'a PriceHistory,
    cfg: DraftsConfig,
}

impl<'a> DraftsPredictor<'a> {
    /// Creates a predictor.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(history: &'a PriceHistory, cfg: DraftsConfig) -> Self {
        cfg.validate();
        Self { history, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DraftsConfig {
        &self.cfg
    }

    /// The per-step quantile `q = sqrt(p)`.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1`.
    pub fn step_quantile(p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "probability must be in (0,1), got {p}");
        p.sqrt()
    }

    /// Step 1: the minimum bid at update index `upto` for target
    /// probability `p` — QBETS upper bound on the `sqrt(p)` quantile of
    /// prices, plus one tick. `None` when the history (or its current
    /// stationary segment) is too short for a bound at the configured
    /// confidence.
    pub fn min_bid(&self, upto: usize, p: f64) -> Option<Price> {
        self.price_step(upto, &[p])[0]
    }

    /// Like [`Self::min_bid`], but falling back to one tick above the
    /// largest price observed so far when the current segment is too short
    /// for a bound at the configured confidence — the conservative
    /// cold-start/fresh-segment behaviour (QBETS assumes the bound is
    /// contained in the observed series, §3.2).
    pub fn min_bid_or_max(&self, upto: usize, p: f64) -> Price {
        self.min_bids_or_max(upto, &[p])[0]
    }

    /// [`Self::min_bid_or_max`] at every level of `ps`, in order, from one
    /// price step.
    pub(crate) fn min_bids_or_max(&self, upto: usize, ps: &[f64]) -> Vec<Price> {
        self.price_step(upto, ps)
            .into_iter()
            .map(|bid| {
                bid.unwrap_or_else(|| {
                    let max_seen = self.history.series().values()[..=upto]
                        .iter()
                        .copied()
                        .max()
                        .expect("non-empty prefix");
                    Price::from_ticks(max_seen) + Price::TICK
                })
            })
            .collect()
    }

    /// [`Self::min_bid`] at every level of `ps`, in order. With change
    /// points off each level's bound is the order statistic
    /// [`SliceBound::upper`] selects from the prefix. With them on, the
    /// detector reads the segment's median and band at every observation,
    /// so the price QBETS is built once and asked once per level.
    fn price_step(&self, upto: usize, ps: &[f64]) -> Vec<Option<Price>> {
        let _span = obs::span("qbets_price");
        let qs: Vec<f64> = ps.iter().map(|&p| Self::step_quantile(p)).collect();
        assert!(upto < self.history.len(), "upto out of range");
        let cfg = self.cfg.qbets_config();
        let prices = &self.history.series().values()[..=upto];
        let bounds: Vec<Option<u64>> = if cfg.changepoint.is_some() {
            let qbets = Qbets::from_history(cfg, prices);
            qs.into_iter().map(|q| qbets.upper_bound(q)).collect()
        } else {
            // Selection permutes its buffer and the autocorrelation
            // correction reads lag-1 moments in arrival order, so every
            // level selects from a fresh copy of the prefix.
            let mut buf = Vec::with_capacity(prices.len());
            qs.into_iter()
                .map(|q| {
                    buf.clear();
                    buf.extend_from_slice(prices);
                    SliceBound::upper(cfg, q).of(&mut buf)
                })
                .collect()
        };
        bounds
            .into_iter()
            .map(|bound| Some(Price::from_ticks(bound?) + Price::TICK))
            .collect()
    }

    /// Step 2: the durability (seconds) of `bid` at update index `upto`
    /// for target probability `p`. `None` when the duration series is too
    /// short for a bound.
    ///
    /// Change-point truncation is disabled for this series: under
    /// [`Censoring::IncludeElapsed`] its tail is a deterministic downward
    /// ramp (recent start points have only their elapsed time), which a
    /// median-run detector would misread as a perpetual level shift and
    /// truncate away the whole informative history.
    pub fn durability(&self, upto: usize, bid: Price, p: f64) -> Option<u64> {
        self.duration_step(upto, p).durability(bid)
    }

    /// Step 2 at `upto` and level `p`, ready to answer for any number of
    /// bids.
    pub(crate) fn duration_step(&self, upto: usize, p: f64) -> DurationStep<'a> {
        let q = Self::step_quantile(p);
        let cfg = QbetsConfig {
            changepoint: None,
            ..self.cfg.qbets_config()
        };
        DurationStep {
            history: self.history,
            upto,
            stride: self.cfg.duration_stride,
            censoring: self.cfg.censoring,
            series: Vec::new(),
            bound: SliceBound::lower(cfg, 1.0 - q),
            class: None,
        }
    }

    /// The minimum-bid prediction with its durability.
    pub fn predict(&self, upto: usize, p: f64) -> Option<BidPrediction> {
        let bid = self.min_bid(upto, p)?;
        let durability_secs = self.durability(upto, bid, p)?;
        Some(BidPrediction {
            bid,
            durability_secs,
        })
    }

    /// The bid grid the service publishes: the minimum bid, then +5% steps
    /// up to 4x (both configurable).
    ///
    /// Each factor is computed by index (`1 + i * step`) rather than by
    /// accumulation: repeated `factor += step` drifts by an ulp per step,
    /// so whether the last grid point clears the span boundary — and with
    /// it the grid's length — would depend on float rounding of the walk
    /// rather than on the configuration.
    pub fn bid_grid(&self, min_bid: Price) -> Vec<Price> {
        // Number of whole steps fitting in the span; the epsilon absorbs
        // the one-ulp shortfall of quotients like 3.0 / 0.05.
        let steps = (((self.cfg.grid_span - 1.0) / self.cfg.grid_step) + 1e-9).floor();
        let steps = if steps.is_finite() && steps >= 0.0 {
            steps as u64
        } else {
            0
        };
        let mut grid = Vec::with_capacity(steps as usize + 1);
        for i in 0..=steps {
            let factor = 1.0 + i as f64 * self.cfg.grid_step;
            grid.push(min_bid.scale(factor));
        }
        grid.dedup();
        grid
    }

    /// Finds the smallest grid bid whose durability covers
    /// `required_secs`, walking the +5% grid from the minimum bid (paper
    /// §3.3). `None` if even the grid ceiling cannot guarantee it.
    pub fn bid_for_duration(
        &self,
        upto: usize,
        p: f64,
        required_secs: u64,
    ) -> Option<BidPrediction> {
        let min = self.min_bid(upto, p)?;
        let mut step = self.duration_step(upto, p);
        for bid in self.bid_grid(min) {
            if let Some(d) = step.durability(bid) {
                if d >= required_secs {
                    return Some(BidPrediction {
                        bid: bid.scale(1.0 + self.cfg.safety_margin),
                        durability_secs: d,
                    });
                }
            }
        }
        None
    }

    /// Like [`Self::bid_for_duration`], but always produces a bid: when no
    /// grid bid carries a guarantee (short post-change-point segment, or a
    /// duration beyond the grid's reach), falls back conservatively —
    /// first to the grid ceiling, and with no minimum bid at all to one
    /// tick above the largest price seen so far. A user must bid
    /// *something*; "bid above everything observed" is the natural
    /// conservative cold-start (QBETS assumes the bound is contained in
    /// the observed series, §3.2).
    pub fn bid_quote(&self, upto: usize, p: f64, required_secs: u64) -> BidQuote {
        if let Some(bp) = self.bid_for_duration(upto, p, required_secs) {
            return BidQuote {
                bid: bp.bid,
                durability_secs: Some(bp.durability_secs),
            };
        }
        let bid = match self.min_bid(upto, p) {
            Some(min) => min.scale(self.cfg.grid_span),
            None => {
                // Cold start / fresh segment: everything seen plus real
                // headroom (4 safety margins) against continued drift.
                let max_seen = self.history.series().values()[..=upto]
                    .iter()
                    .copied()
                    .max()
                    .expect("non-empty prefix");
                Price::from_ticks(max_seen).scale(1.0 + 4.0 * self.cfg.safety_margin) + Price::TICK
            }
        };
        BidQuote {
            bid,
            durability_secs: None,
        }
    }
}

/// Step 2 at one prediction point and probability level, for many bids:
/// one duration-series buffer and one memoized QBETS lower-bound
/// evaluator serve every bid asked, so a graph's grid allocates one series
/// and inverts the binomial once per effective sample size.
///
/// A bid's duration series depends only on which updates of the prefix
/// reach it. Bids that no price of `values()[..=upto]` separates, a
/// *crossing class*, are reached at the same updates and so share one
/// series and one bound under every censoring mode, stride and
/// autocorrelation setting. The step keeps the class of the last bid it
/// scanned and answers a bid inside it without a scan, so an ascending
/// grid walk scans once per class.
pub(crate) struct DurationStep<'a> {
    history: &'a PriceHistory,
    upto: usize,
    stride: usize,
    censoring: Censoring,
    series: Vec<u64>,
    bound: SliceBound,
    class: Option<CrossingClass>,
}

/// The bids from `bid` up to `lowest_crossing`, the smallest price at or
/// above `bid` in the prefix (`u64::MAX` when none), all in ticks, and
/// their shared durability.
#[derive(Clone, Copy)]
struct CrossingClass {
    bid: u64,
    lowest_crossing: u64,
    durability: Option<u64>,
}

impl DurationStep<'_> {
    /// The durability of `bid` (see [`DraftsPredictor::durability`]): a
    /// lower bound, with change-point detection off, on the `1 - sqrt(p)`
    /// quantile of its duration series.
    pub(crate) fn durability(&mut self, bid: Price) -> Option<u64> {
        let _span = obs::span("qbets_duration");
        let ticks = bid.ticks();
        if let Some(class) = self
            .class
            .filter(|c| (c.bid..=c.lowest_crossing).contains(&ticks))
        {
            return class.durability;
        }
        let lowest_crossing = fill_duration_series(
            self.history,
            self.upto,
            bid,
            self.stride,
            self.censoring,
            &mut self.series,
        );
        let durability = self.bound.of(&mut self.series);
        self.class = Some(CrossingClass {
            bid: ticks,
            lowest_crossing,
            durability,
        });
        durability
    }
}

/// A bid that is always available, with its guarantee when one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BidQuote {
    /// The maximum bid to submit.
    pub bid: Price,
    /// The guaranteed duration, or `None` when the bid is a conservative
    /// fallback without a durability guarantee.
    pub durability_secs: Option<u64>,
}

impl BidQuote {
    /// Whether the quote carries a durability guarantee covering
    /// `required_secs`.
    pub fn guarantees(&self, required_secs: u64) -> bool {
        self.durability_secs.is_some_and(|d| d >= required_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BidDurationGraph;
    use spotmarket::archetype::Archetype;
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
    use spotmarket::{Az, Catalog, Combo};

    fn make_history(arch: Archetype, days: u64, seed: u64) -> PriceHistory {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-west-2a").unwrap(),
            cat.type_id("c3.large").unwrap(),
        );
        generate_with_archetype(combo, cat, &TraceConfig::days(days, seed), arch)
    }

    fn no_cp() -> DraftsConfig {
        DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: 3,
            ..DraftsConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        DraftsConfig::default().validate();
        let bad = DraftsConfig {
            grid_span: 0.5,
            ..DraftsConfig::default()
        };
        let r = std::panic::catch_unwind(move || bad.validate());
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn rejects_degenerate_probability() {
        DraftsPredictor::step_quantile(1.0);
    }

    #[test]
    fn min_bid_exceeds_current_price_most_of_the_time() {
        let h = make_history(Archetype::Calm, 30, 1);
        let pred = DraftsPredictor::new(&h, no_cp());
        let upto = h.len() - 1;
        let bid = pred.min_bid(upto, 0.95).unwrap();
        // The bound is an upper bound on the 97.5% quantile; the premium
        // tick puts it strictly above the bound.
        let current = h.price(upto);
        assert!(bid > current.scale(0.8), "bid {bid} vs current {current}");
        assert!(bid <= h.max_price().unwrap() + Price::TICK);
    }

    #[test]
    fn tick_premium_is_applied() {
        let h = make_history(Archetype::Calm, 30, 2);
        let pred = DraftsPredictor::new(&h, no_cp());
        let upto = h.len() - 1;
        let q = DraftsPredictor::step_quantile(0.95);
        let mut qbets = Qbets::new(pred.config().qbets_config());
        for &v in &h.series().values()[..=upto] {
            qbets.observe(v);
        }
        let raw = qbets.upper_bound(q).unwrap();
        assert_eq!(
            pred.min_bid(upto, 0.95).unwrap(),
            Price::from_ticks(raw) + Price::TICK
        );
    }

    #[test]
    fn too_short_history_returns_none() {
        let h = make_history(Archetype::Calm, 1, 3); // 288 points
        let pred = DraftsPredictor::new(&h, no_cp());
        // p = 0.99 -> q ~ 0.995 needs ~917 points.
        assert!(pred.min_bid(h.len() - 1, 0.99).is_none());
        // p = 0.5 -> q ~ 0.707 needs few points.
        assert!(pred.min_bid(h.len() - 1, 0.5).is_some());
    }

    #[test]
    fn durability_is_monotone_in_bid() {
        let h = make_history(Archetype::Choppy, 30, 4);
        let pred = DraftsPredictor::new(&h, no_cp());
        let upto = h.len() - 1;
        let min = pred.min_bid(upto, 0.95).unwrap();
        let mut last = 0u64;
        for factor in [1.0, 1.5, 2.0, 3.0] {
            let d = pred.durability(upto, min.scale(factor), 0.95).unwrap();
            assert!(
                d >= last,
                "durability must grow with bid: {d} < {last} at {factor}"
            );
            last = d;
        }
    }

    #[test]
    fn predict_pairs_min_bid_with_its_durability() {
        let h = make_history(Archetype::Calm, 30, 5);
        let pred = DraftsPredictor::new(&h, no_cp());
        let upto = h.len() - 1;
        let p = pred.predict(upto, 0.95).unwrap();
        assert_eq!(p.bid, pred.min_bid(upto, 0.95).unwrap());
        assert_eq!(
            p.durability_secs,
            pred.durability(upto, p.bid, 0.95).unwrap()
        );
    }

    #[test]
    fn bid_grid_spans_4x_in_5pct_steps() {
        let h = make_history(Archetype::Calm, 10, 6);
        let pred = DraftsPredictor::new(&h, DraftsConfig::default());
        let grid = pred.bid_grid(Price::from_ticks(10_000));
        assert_eq!(grid.first(), Some(&Price::from_ticks(10_000)));
        assert_eq!(grid.last(), Some(&Price::from_ticks(40_000)));
        assert_eq!(grid.len(), 61);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bid_grid_length_is_exact_for_any_step() {
        // Regression: the grid used to accumulate `factor += step` under a
        // 1e-12 epsilon, so its length depended on per-step rounding drift
        // (60 additions of 0.05 do not land on 4.0 exactly). Factors are
        // now computed by index: the length must equal the closed-form
        // step count for every configuration, at any minimum bid.
        let h = make_history(Archetype::Calm, 10, 6);
        for (step, span, want) in [
            (0.05, 4.0, 61), // the paper's 5% grid to 4x
            (0.10, 4.0, 31),
            (0.25, 4.0, 13),
            (0.05, 2.0, 21),
            (0.01, 1.1, 11), // fine steps: 10 additions of 0.01 overshoot 1.1
        ] {
            let cfg = DraftsConfig {
                grid_step: step,
                grid_span: span,
                ..DraftsConfig::default()
            };
            let pred = DraftsPredictor::new(&h, cfg);
            for min_ticks in [10_000u64, 9_973, 31] {
                let grid = pred.bid_grid(Price::from_ticks(min_ticks));
                // Tiny minimum bids can collapse adjacent factors onto the
                // same tick (dedup); otherwise the count is exact.
                if min_ticks >= 10_000 {
                    assert_eq!(grid.len(), want, "step {step} span {span} min {min_ticks}");
                }
                assert!(grid.len() <= want);
                assert!(grid.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn bid_for_duration_is_monotone_in_required_duration() {
        let h = make_history(Archetype::Choppy, 40, 7);
        let pred = DraftsPredictor::new(&h, no_cp());
        let upto = h.len() - 1;
        let short = pred.bid_for_duration(upto, 0.95, 3600);
        let long = pred.bid_for_duration(upto, 0.95, 12 * 3600);
        if let (Some(s), Some(l)) = (short, long) {
            assert!(l.bid >= s.bid, "longer duration needs a >= bid");
            assert!(s.durability_secs >= 3600);
            assert!(l.durability_secs >= 12 * 3600);
        } else {
            // At minimum the short one must exist on a 40-day choppy trace.
            assert!(short.is_some(), "short-duration bid must exist");
        }
    }

    #[test]
    fn calm_market_grid_guarantees_long_durations() {
        // The *minimum* bid only guarantees a short duration (start points
        // just before a crossing always exist — that is why the service
        // publishes a bid grid). A modestly higher grid bid in a calm
        // market must guarantee many hours.
        let h = make_history(Archetype::Calm, 30, 8);
        let pred = DraftsPredictor::new(&h, no_cp());
        let upto = h.len() - 1;
        let min = pred.predict(upto, 0.95).unwrap();
        assert!(min.durability_secs > 0);
        let long = pred
            .bid_for_duration(upto, 0.95, 6 * 3600)
            .expect("a calm market must offer a 6-hour guarantee on the grid");
        assert!(long.bid >= min.bid);
        assert!(long.durability_secs >= 6 * 3600);
    }

    /// Prices placed on the crossing-class boundaries of a hand-built
    /// history's bid grid, whose minimum bid is 1001 ticks (a 1000-tick base
    /// plus the premium tick): 1100, 1101 and 1102 sit a tick below, on and
    /// a tick above grid bid 1101, 1230 is reached only at the prediction
    /// point, and every grid bid above 1480 clears the whole history. An
    /// ascending graph walk and a descending walk on one `DurationStep`
    /// must both equal a fresh step per bid.
    #[test]
    fn crossing_classes_share_a_bound_only_between_separating_prices() {
        let n = 240;
        // Every update off the 1000-tick base, as (index, price).
        let spikes = [
            (60, 1_100),
            (100, 1_101),
            (101, 1_101),
            (102, 1_101),
            (140, 1_102),
            (180, 1_480),
            (n - 1, 1_230),
        ];
        let points = (0..n).map(|i| {
            let price = spikes.iter().find(|s| s.0 == i).map_or(1_000, |s| s.1);
            (i as u64 * 300, price)
        });
        let combo = Combo::new(
            Az::parse("us-west-2a").unwrap(),
            Catalog::standard().type_id("c4.large").unwrap(),
        );
        let h = PriceHistory::new(combo, points.collect());
        let upto = n - 1;
        let p = 0.5;
        for censoring in [
            Censoring::IncludeElapsed,
            Censoring::ResolvedOnly,
            Censoring::Capped(4 * 3600),
        ] {
            for duration_stride in [1, 2] {
                for autocorr in [false, true] {
                    let cfg = DraftsConfig {
                        changepoint: None,
                        autocorr,
                        duration_stride,
                        censoring,
                        ..DraftsConfig::default()
                    };
                    let what = format!("{cfg:?}");
                    let pred = DraftsPredictor::new(&h, cfg);
                    let min = pred.min_bid_or_max(upto, p);
                    assert_eq!(min, Price::from_ticks(1_001), "{what}");
                    let grid = pred.bid_grid(min);
                    let fresh: Vec<Option<u64>> = grid
                        .iter()
                        .map(|&bid| pred.durability(upto, bid, p))
                        .collect();
                    // Grid bids 1051 | 1101 straddle 1100, and 1201 | 1251
                    // straddle the last update's 1230. Each pair's bounds
                    // differ, so a class stretched across either shows. An
                    // elapsed duration equals one ending at `upto`, so only
                    // the other modes see that last crossing.
                    assert_eq!(grid[1..3], [1_051, 1_101].map(Price::from_ticks));
                    assert_ne!(fresh[1], fresh[2], "{what}");
                    assert_eq!(grid[4..6], [1_201, 1_251].map(Price::from_ticks));
                    if censoring != Censoring::IncludeElapsed {
                        assert_ne!(fresh[4], fresh[5], "{what}");
                    }
                    let mut best = 0;
                    let want: Vec<BidPrediction> = grid
                        .iter()
                        .zip(&fresh)
                        .filter_map(|(&bid, &d)| {
                            best = best.max(d?);
                            Some(BidPrediction {
                                bid,
                                durability_secs: best,
                            })
                        })
                        .collect();
                    let graph = BidDurationGraph::compute(&pred, upto, p).expect("a graph");
                    assert_eq!(graph.points(), want, "ascending walk, {what}");
                    let mut step = pred.duration_step(upto, p);
                    for (&bid, &d) in grid.iter().zip(&fresh).rev() {
                        assert_eq!(step.durability(bid), d, "descending walk at {bid}, {what}");
                    }
                }
            }
        }
    }

    /// The headline backtest property in miniature: at p = 0.9, DrAFTS
    /// bids computed at random points of a choppy history must survive a
    /// 1-hour hold at least ~90% of the time. Change-point detection and
    /// autocorrelation compensation are on — disabling them is exactly
    /// what loses the guarantee on regime-switching data.
    #[test]
    fn mini_backtest_meets_probability_target() {
        let h = make_history(Archetype::Choppy, 60, 9);
        let full = DraftsConfig {
            duration_stride: 3,
            ..DraftsConfig::default()
        };
        let pred = DraftsPredictor::new(&h, full);
        use simrng::{Rng, SeedableFrom, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let p = 0.90;
        let hold = 3600u64;
        let (mut ok, mut total) = (0, 0);
        for _ in 0..60 {
            // Leave room for both history and the hold.
            let upto = 6000 + rng.next_below(8000) as usize;
            let Some(bp) = pred.bid_for_duration(upto, p, hold) else {
                continue;
            };
            let t = h.time(upto);
            total += 1;
            if h.survival(t, bp.bid).survives_for(t, hold) {
                ok += 1;
            }
        }
        assert!(
            total >= 30,
            "most prediction points should be usable, got {total}"
        );
        let frac = ok as f64 / total as f64;
        assert!(frac >= p - 0.05, "success fraction {frac} below target {p}");
    }
}
