//! Price histories and the queries DrAFTS needs from them.
//!
//! A [`PriceHistory`] wraps a [`TimeSeries`] of tick prices for one combo
//! and adds the two queries everything downstream is built on:
//!
//! * `price_at(t)` — the market price in effect at `t` (step semantics),
//! * `first_at_or_after_geq(i, bid)` — the first update index `>= i` whose
//!   price is `>=` the bid. This powers the DrAFTS duration step ("the
//!   duration from when the prediction is made until the market price
//!   exceeds it", §3.2) and backtest survival checks; it is answered in
//!   O(log n) by a max segment tree over the immutable history.
//!
//! The tree is built on the first query that reads it
//! (`first_at_or_after_geq`, `survival`, `max_price`), once, however many
//! threads ask at once. The serving path never asks, so a history
//! generated, registered and served holds only its series: for 30 days of
//! 5-minute updates that is 135 KiB, and the tree would add 256 KiB.
//!
//! Termination semantics: the paper notes Amazon "may or may not" terminate
//! an instance whose bid exactly equals the market price (§3.2) — DrAFTS
//! therefore adds one tick to clear the bound. We adopt the conservative
//! reading throughout: an instance is terminated as soon as
//! `market price >= bid`, and a launch succeeds only if `bid > price`.

use crate::price::Price;
use crate::types::Combo;
use std::sync::OnceLock;
use tsforecast::TimeSeries;

/// Outcome of holding a bid from a start time onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Survival {
    /// The bid did not exceed the market price at the start time; the
    /// request is rejected (no instance starts).
    Rejected,
    /// The market price reached the bid at `at`; an instance would be
    /// terminated then.
    Terminated {
        /// Time of the terminating price update.
        at: u64,
    },
    /// No terminating update occurs before the history ends at `until`
    /// (right-censored observation).
    Censored {
        /// Last covered timestamp.
        until: u64,
    },
}

impl Survival {
    /// The survival duration from `start`, treating censoring as
    /// survival-to-horizon. `None` for rejected requests.
    pub fn duration_from(self, start: u64) -> Option<u64> {
        match self {
            Survival::Rejected => None,
            Survival::Terminated { at } => Some(at.saturating_sub(start)),
            Survival::Censored { until } => Some(until.saturating_sub(start)),
        }
    }

    /// Whether the outcome is a survival of at least `d` seconds after
    /// `start` (censored outcomes count as surviving the observed span).
    pub fn survives_for(self, start: u64, d: u64) -> bool {
        match self {
            Survival::Rejected => false,
            Survival::Terminated { at } => at.saturating_sub(start) >= d,
            Survival::Censored { .. } => true,
        }
    }
}

/// An immutable price history for one combo with O(log n) survival queries.
///
/// The survival index is built on the first query that reads it (see the
/// module docs); a clone carries it only if it was already built.
#[derive(Debug, Clone)]
pub struct PriceHistory {
    combo: Combo,
    series: TimeSeries,
    /// Max segment tree over the value array (1-indexed; the leaves start
    /// at half its length, the value count rounded up to a power of two).
    tree: OnceLock<Vec<u64>>,
}

impl PriceHistory {
    /// Wraps a finished series; the query index is built on first use.
    pub fn new(combo: Combo, series: TimeSeries) -> Self {
        Self {
            combo,
            series,
            tree: OnceLock::new(),
        }
    }

    /// The max segment tree, built on the first call.
    fn tree(&self) -> &[u64] {
        self.tree.get_or_init(|| {
            let values = self.series.values();
            let cap = values.len().max(1).next_power_of_two();
            let mut tree = vec![0u64; 2 * cap];
            tree[cap..cap + values.len()].copy_from_slice(values);
            for i in (1..cap).rev() {
                tree[i] = tree[2 * i].max(tree[2 * i + 1]);
            }
            tree
        })
    }

    /// The combo this history belongs to.
    pub fn combo(&self) -> Combo {
        self.combo
    }

    /// The underlying update series (values are price ticks).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Number of price updates.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Price of the `i`-th update.
    pub fn price(&self, i: usize) -> Price {
        Price::from_ticks(self.series.values()[i])
    }

    /// Timestamp of the `i`-th update.
    pub fn time(&self, i: usize) -> u64 {
        self.series.times()[i]
    }

    /// Market price in effect at `t`, if the history has started by then.
    pub fn price_at(&self, t: u64) -> Option<Price> {
        self.series.value_at(t).map(Price::from_ticks)
    }

    /// Largest observed price.
    pub fn max_price(&self) -> Option<Price> {
        (!self.is_empty()).then(|| Price::from_ticks(self.tree()[1]))
    }

    /// Smallest observed price.
    pub fn min_price(&self) -> Option<Price> {
        self.series
            .values()
            .iter()
            .min()
            .map(|&v| Price::from_ticks(v))
    }

    /// First update index `>= from` whose price is `>= bid`, in O(log n).
    pub fn first_at_or_after_geq(&self, from: usize, bid: Price) -> Option<usize> {
        let n = self.len();
        if from >= n {
            return None;
        }
        let threshold = bid.ticks();
        let tree = self.tree();
        if tree[1] < threshold {
            return None;
        }
        // Descend from the root looking for the leftmost leaf >= threshold
        // within [from, n).
        descend(tree, 1, 0, tree.len() / 2, from, threshold).filter(|&i| i < n)
    }

    /// Survival outcome for an instance requested at `t` with maximum bid
    /// `bid` (see module docs for the exact semantics).
    pub fn survival(&self, t: u64, bid: Price) -> Survival {
        let Some(current_idx) = self.series.index_at(t) else {
            // History has not started: treat as rejected (no market yet).
            return Survival::Rejected;
        };
        if Price::from_ticks(self.series.values()[current_idx]) >= bid {
            return Survival::Rejected;
        }
        match self.first_at_or_after_geq(current_idx + 1, bid) {
            Some(i) => Survival::Terminated {
                at: self.series.times()[i],
            },
            None => Survival::Censored {
                until: *self.series.times().last().expect("non-empty by index_at"),
            },
        }
    }
}

/// Leftmost leaf index in `[from, hi)` under `node` (covering `[lo, hi)`)
/// whose value is `>= threshold`.
fn descend(
    tree: &[u64],
    node: usize,
    lo: usize,
    hi: usize,
    from: usize,
    threshold: u64,
) -> Option<usize> {
    if hi <= from || tree[node] < threshold {
        return None;
    }
    if hi - lo == 1 {
        return Some(lo);
    }
    let mid = (lo + hi) / 2;
    descend(tree, 2 * node, lo, mid, from, threshold)
        .or_else(|| descend(tree, 2 * node + 1, mid, hi, from, threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Az, Region, TypeId};

    fn combo() -> Combo {
        Combo::new(Az::new(Region::UsWest2, 0), TypeId(3))
    }

    fn history(points: &[(u64, u64)]) -> PriceHistory {
        PriceHistory::new(combo(), points.iter().copied().collect())
    }

    #[test]
    fn empty_history() {
        let h = history(&[]);
        assert!(h.is_empty());
        assert_eq!(h.price_at(100), None);
        assert_eq!(h.max_price(), None);
        assert_eq!(h.first_at_or_after_geq(0, Price::from_ticks(1)), None);
        assert_eq!(h.survival(0, Price::from_ticks(10)), Survival::Rejected);
    }

    #[test]
    fn price_at_and_extremes() {
        let h = history(&[(0, 100), (300, 150), (600, 80)]);
        assert_eq!(h.price_at(0), Some(Price::from_ticks(100)));
        assert_eq!(h.price_at(299), Some(Price::from_ticks(100)));
        assert_eq!(h.price_at(10_000), Some(Price::from_ticks(80)));
        assert_eq!(h.max_price(), Some(Price::from_ticks(150)));
        assert_eq!(h.min_price(), Some(Price::from_ticks(80)));
    }

    #[test]
    fn first_at_or_after_geq_basic() {
        let h = history(&[(0, 100), (300, 150), (600, 80), (900, 200)]);
        assert_eq!(h.first_at_or_after_geq(0, Price::from_ticks(100)), Some(0));
        assert_eq!(h.first_at_or_after_geq(1, Price::from_ticks(100)), Some(1));
        assert_eq!(h.first_at_or_after_geq(2, Price::from_ticks(100)), Some(3));
        assert_eq!(h.first_at_or_after_geq(2, Price::from_ticks(201)), None);
        assert_eq!(h.first_at_or_after_geq(4, Price::from_ticks(1)), None);
    }

    #[test]
    fn first_at_or_after_matches_linear_scan() {
        use simrng::{Rng, SeedableFrom, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let pts: Vec<(u64, u64)> = (0..1000).map(|i| (i * 300, rng.next_below(5000))).collect();
        let queries: Vec<(usize, Price)> = (0..500)
            .map(|_| {
                let from = rng.next_below(1100) as usize;
                (from, Price::from_ticks(rng.next_below(5200)))
            })
            .collect();
        let slow = |from: usize, bid: Price| {
            pts.iter()
                .enumerate()
                .skip(from)
                .find(|(_, &(_, v))| v >= bid.ticks())
                .map(|(i, _)| i)
        };
        let check = |h: &PriceHistory| {
            for &(from, bid) in &queries {
                let fast = h.first_at_or_after_geq(from, bid);
                assert_eq!(fast, slow(from, bid), "from={from} bid={bid}");
            }
        };

        // The index is built on first use: a clone taken before any query
        // builds its own, and the original still answers after it.
        let h = history(&pts);
        let early_clone = h.clone();
        check(&early_clone);
        check(&h);
        check(&h.clone());

        // A fresh history queried from several threads at once.
        let fresh = history(&pts);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| check(&fresh));
            }
        });

        // `max_price` on a history never queried before reads the index.
        let max = pts.iter().map(|&(_, v)| v).max();
        assert_eq!(history(&pts).max_price(), max.map(Price::from_ticks));
    }

    #[test]
    fn survival_rejected_when_bid_not_above_market() {
        let h = history(&[(0, 100), (300, 90)]);
        assert_eq!(h.survival(0, Price::from_ticks(100)), Survival::Rejected);
        assert_eq!(h.survival(0, Price::from_ticks(50)), Survival::Rejected);
        // Before history starts: rejected.
        let h2 = history(&[(500, 100)]);
        assert_eq!(h2.survival(100, Price::from_ticks(999)), Survival::Rejected);
    }

    #[test]
    fn survival_terminated_at_first_geq_update() {
        let h = history(&[(0, 100), (300, 110), (600, 120), (900, 90)]);
        // Bid 115: accepted at t=0 (100 < 115), terminated at t=600 (120 >= 115).
        assert_eq!(
            h.survival(0, Price::from_ticks(115)),
            Survival::Terminated { at: 600 }
        );
        // Started mid-history.
        assert_eq!(
            h.survival(400, Price::from_ticks(115)),
            Survival::Terminated { at: 600 }
        );
    }

    #[test]
    fn survival_exact_equality_terminates() {
        // Conservative semantics: price == bid counts as termination.
        let h = history(&[(0, 100), (300, 115)]);
        assert_eq!(
            h.survival(0, Price::from_ticks(115)),
            Survival::Terminated { at: 300 }
        );
    }

    #[test]
    fn survival_censored_when_bid_never_reached() {
        let h = history(&[(0, 100), (300, 110), (600, 105)]);
        assert_eq!(
            h.survival(0, Price::from_ticks(10_000)),
            Survival::Censored { until: 600 }
        );
    }

    #[test]
    fn survival_duration_helpers() {
        let s = Survival::Terminated { at: 7200 };
        assert_eq!(s.duration_from(3600), Some(3600));
        assert!(s.survives_for(3600, 3600));
        assert!(!s.survives_for(3600, 3601));
        assert_eq!(Survival::Rejected.duration_from(0), None);
        assert!(!Survival::Rejected.survives_for(0, 0));
        let c = Survival::Censored { until: 9000 };
        assert_eq!(c.duration_from(1000), Some(8000));
        assert!(c.survives_for(0, u64::MAX), "censoring counts as survival");
    }

    #[test]
    fn single_point_history() {
        let h = history(&[(100, 50)]);
        assert_eq!(
            h.survival(100, Price::from_ticks(60)),
            Survival::Censored { until: 100 }
        );
        assert_eq!(h.survival(100, Price::from_ticks(50)), Survival::Rejected);
    }
}
