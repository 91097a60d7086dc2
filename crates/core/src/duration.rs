//! Derivation of survival-duration series (the input to DrAFTS step 2).
//!
//! For a candidate bid `b` and a prediction point `T`, the duration series
//! pairs each earlier price update `i` with the time until the market price
//! first reaches `b` after `i` (paper §3.2: "each element of this series is
//! the duration from when the prediction is made until the market price
//! exceeds it"). Durations still unresolved at `T` are *right-censored*:
//! the elapsed span is a lower bound on the true duration. Callers choose
//! whether to include censored values (conservative: they enter at their
//! elapsed length) or restrict to resolved ones (what the incremental
//! backtest sweep does).

use spotmarket::{Price, PriceHistory};

/// How to treat durations not yet resolved at the prediction point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Censoring {
    /// Include censored durations at their elapsed value. Elapsed time
    /// lower-bounds the true duration, so the resulting quantile bound can
    /// only be more conservative — but the recent starts form a downward
    /// ramp that structurally caps guaranteeable durations at roughly the
    /// target quantile times the history length.
    IncludeElapsed,
    /// Drop censored observations entirely (biased low on n, undefined for
    /// never-crossed bids; what a naive post-facto analysis does).
    ResolvedOnly,
    /// Cap every duration at the given horizon (seconds) and include only
    /// start points whose observation window covers the cap. Every
    /// included value is then *exact* (a crossing, or the cap itself):
    /// no censoring bias, and never-crossed bids report the cap. The
    /// recommended mode; the cap bounds the longest duration DrAFTS can
    /// ever guarantee, so pick it above the longest request (default: one
    /// day, twice the paper's 12-hour maximum).
    Capped(u64),
}

impl Default for Censoring {
    fn default() -> Self {
        Censoring::Capped(86_400)
    }
}

/// Computes the survival-duration series under `bid`, observed at update
/// index `upto` (inclusive), sampling measurement start points every
/// `stride` updates.
///
/// Durations are in seconds, returned in chronological order of their
/// start points (the order QBETS needs for change-point detection).
///
/// # Panics
/// Panics if `upto` is out of bounds or `stride` is zero.
pub fn duration_series(
    history: &PriceHistory,
    upto: usize,
    bid: Price,
    stride: usize,
    censoring: Censoring,
) -> Vec<u64> {
    let mut out = Vec::new();
    fill_duration_series(history, upto, bid, stride, censoring, &mut out);
    out
}

/// [`duration_series`] into a caller's buffer (cleared first), so one
/// allocation serves every bid of a graph.
///
/// One pass from `upto` down to 0 carries the time of the first later
/// update whose price reaches the bid: O(upto) per bid, with no per-start
/// search.
///
/// Returns the smallest price in `values()[..=upto]` at or above the bid,
/// or `u64::MAX` when none reaches it. Every bid from `bid` up to that
/// price is reached at exactly the same updates, so it has the same series.
pub(crate) fn fill_duration_series(
    history: &PriceHistory,
    upto: usize,
    bid: Price,
    stride: usize,
    censoring: Censoring,
    out: &mut Vec<u64>,
) -> u64 {
    assert!(upto < history.len(), "upto {upto} out of bounds");
    assert!(stride > 0, "stride must be positive");
    if let Censoring::Capped(cap) = censoring {
        assert!(cap > 0, "cap must be positive");
    }
    let times = &history.series().times()[..=upto];
    let prices = &history.series().values()[..=upto];
    let horizon = times[upto];
    out.clear();
    out.reserve(upto / stride + 1);
    // Walking back from `upto`: the time of the first later update whose
    // price is >= bid, and how many updates remain until the next start
    // point (starts sit at multiples of `stride`).
    let mut next_crossing: Option<u64> = None;
    let mut lowest_crossing = u64::MAX;
    let mut to_start = upto % stride;
    for (&t, &price) in times.iter().zip(prices).rev() {
        if to_start == 0 {
            let crossing = next_crossing.map(|crossed| crossed - t);
            let window = horizon - t;
            match (censoring, crossing) {
                (Censoring::IncludeElapsed, Some(d)) => out.push(d),
                (Censoring::IncludeElapsed, None) => out.push(window),
                (Censoring::ResolvedOnly, Some(d)) => out.push(d),
                (Censoring::ResolvedOnly, None) => {}
                (Censoring::Capped(cap), Some(d)) => out.push(d.min(cap)),
                (Censoring::Capped(cap), None) => {
                    if window >= cap {
                        out.push(cap);
                    }
                }
            }
            to_start = stride;
        }
        to_start -= 1;
        if price >= bid.ticks() {
            next_crossing = Some(t);
            lowest_crossing = lowest_crossing.min(price);
        }
    }
    out.reverse();
    lowest_crossing
}

/// Incremental resolver: streams price updates and resolves pending
/// measurement points the moment the price crosses the bid level.
///
/// This is the O(n) amortized formulation used by the backtest sweep: each
/// start point is enqueued once and resolved (or left pending) once.
#[derive(Debug, Clone)]
pub struct DurationResolver {
    bid: Price,
    /// Start times not yet resolved, oldest first.
    pending: std::collections::VecDeque<u64>,
}

impl DurationResolver {
    /// Creates a resolver for one bid level.
    pub fn new(bid: Price) -> Self {
        Self {
            bid,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// The bid level this resolver tracks.
    pub fn bid(&self) -> Price {
        self.bid
    }

    /// Number of unresolved start points.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Feeds the next price update. If `price >= bid`, every pending start
    /// point resolves now; resolved durations are appended to `resolved`
    /// in chronological order. The update itself then becomes a new start
    /// point (measurement begins at every update).
    pub fn observe(&mut self, time: u64, price: Price, resolved: &mut Vec<u64>) {
        self.check(time, price, resolved);
        self.start(time);
    }

    /// Crossing check only: resolves pending start points if
    /// `price >= bid`, without registering a new start. Used by the
    /// backtest sweep, which registers starts on a stride while checking
    /// crossings at every update.
    pub fn check(&mut self, time: u64, price: Price, resolved: &mut Vec<u64>) {
        if price >= self.bid {
            while let Some(start) = self.pending.pop_front() {
                resolved.push(time - start);
            }
        }
    }

    /// Registers a new measurement start point at `time`.
    pub fn start(&mut self, time: u64) {
        self.pending.push_back(time);
    }

    /// Capped-censoring support: resolves every pending start at least
    /// `cap` seconds old to exactly `cap` (see [`Censoring::Capped`]),
    /// appending the values to `resolved` in chronological order. Call
    /// *before* [`Self::check`] on each update so crossing durations never
    /// exceed the cap.
    pub fn age_out(&mut self, now: u64, cap: u64, resolved: &mut Vec<u64>) {
        while let Some(&start) = self.pending.front() {
            if now.saturating_sub(start) >= cap {
                self.pending.pop_front();
                resolved.push(cap);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::{Az, Catalog, Combo};
    use tsforecast::TimeSeries;

    fn history(points: &[(u64, u64)]) -> PriceHistory {
        let combo = Combo::new(
            Az::parse("us-west-2a").unwrap(),
            Catalog::standard().type_id("c4.large").unwrap(),
        );
        PriceHistory::new(combo, points.iter().copied().collect::<TimeSeries>())
    }

    #[test]
    fn simple_series_with_one_crossing() {
        // Prices: 100, 100, 200, 100 at t = 0, 300, 600, 900. Bid = 150.
        let h = history(&[(0, 100), (300, 100), (600, 200), (900, 100)]);
        let d = duration_series(&h, 3, Price::from_ticks(150), 1, Censoring::IncludeElapsed);
        // Start 0 -> crossing at 600 (600s); start 300 -> 300s;
        // start 600 -> no later crossing, censored at 900 (300s);
        // start 900 -> censored 0s.
        assert_eq!(d, vec![600, 300, 300, 0]);
    }

    #[test]
    fn resolved_only_drops_censored() {
        let h = history(&[(0, 100), (300, 100), (600, 200), (900, 100)]);
        let d = duration_series(&h, 3, Price::from_ticks(150), 1, Censoring::ResolvedOnly);
        assert_eq!(d, vec![600, 300]);
    }

    #[test]
    fn prefix_limits_the_observation_window() {
        let h = history(&[(0, 100), (300, 100), (600, 200), (900, 100)]);
        // Observing only up to index 1: no crossing seen yet.
        let d = duration_series(&h, 1, Price::from_ticks(150), 1, Censoring::IncludeElapsed);
        assert_eq!(d, vec![300, 0]);
        assert!(
            duration_series(&h, 1, Price::from_ticks(150), 1, Censoring::ResolvedOnly).is_empty()
        );
    }

    #[test]
    fn capped_values_are_exact_and_window_filtered() {
        // Prices at t = 0..=1500 step 300; crossing (>=150) at t=1200.
        let h = history(&[
            (0, 100),
            (300, 100),
            (600, 100),
            (900, 100),
            (1200, 200),
            (1500, 100),
        ]);
        let bid = Price::from_ticks(150);
        // Cap = 700 s. Starts: 0 (crossing 1200 -> capped 700), 300 (900 ->
        // 700), 600 (600 <= cap), 900 (300); 1200 and 1500 have no later
        // crossing and windows below the cap -> dropped.
        let d = duration_series(&h, 5, bid, 1, Censoring::Capped(700));
        assert_eq!(d, vec![700, 700, 600, 300]);
    }

    #[test]
    fn capped_uncrossed_bid_reports_cap_for_covered_starts() {
        let h = history(&[(0, 100), (300, 100), (600, 100), (900, 100)]);
        let d = duration_series(&h, 3, Price::from_ticks(9999), 1, Censoring::Capped(600));
        // Starts 0 and 300 have window >= 600; 600 and 900 do not.
        assert_eq!(d, vec![600, 600]);
    }

    #[test]
    fn resolver_age_out_matches_capped_semantics() {
        let pts = [
            (0u64, 100u64),
            (300, 100),
            (600, 100),
            (900, 100),
            (1200, 200),
            (1500, 100),
        ];
        let h = history(&pts);
        let bid = Price::from_ticks(150);
        let cap = 700;
        let batch = duration_series(&h, pts.len() - 1, bid, 1, Censoring::Capped(cap));

        let mut r = DurationResolver::new(bid);
        let mut out = Vec::new();
        for &(t, v) in &pts {
            r.age_out(t, cap, &mut out);
            r.check(t, Price::from_ticks(v), &mut out);
            r.start(t);
        }
        // The incremental resolver has not yet aged out starts younger
        // than the cap; batch drops them only when the horizon cannot
        // cover them. Values that ARE emitted must agree as a multiset
        // prefix of the batch computation.
        let mut batch_sorted = batch.clone();
        let mut out_sorted = out.clone();
        batch_sorted.sort_unstable();
        out_sorted.sort_unstable();
        for v in &out_sorted {
            assert!(
                batch_sorted.contains(v),
                "{v} not in batch {batch_sorted:?}"
            );
        }
        // Advancing time past everyone's cap completes the set.
        r.age_out(1500 + cap, cap, &mut out);
        let mut all = out;
        all.sort_unstable();
        // Starts 600..1500 aged to cap or crossed: final multiset is a
        // superset of batch (batch drops starts the horizon cannot cover;
        // the resolver eventually resolves them at cap).
        for v in batch_sorted {
            assert!(all.contains(&v));
        }
    }

    #[test]
    fn stride_subsamples_start_points() {
        let h = history(&[(0, 100), (300, 100), (600, 100), (900, 200)]);
        let d = duration_series(&h, 3, Price::from_ticks(150), 2, Censoring::IncludeElapsed);
        // Starts at indices 0 and 2 only.
        assert_eq!(d, vec![900, 300]);
    }

    #[test]
    fn higher_bid_never_shortens_durations() {
        let combo = Combo::new(
            Az::parse("us-west-2b").unwrap(),
            Catalog::standard().type_id("c3.2xlarge").unwrap(),
        );
        let h = spotmarket::tracegen::generate(
            combo,
            Catalog::standard(),
            &spotmarket::tracegen::TraceConfig::days(20, 5),
        );
        let upto = h.len() - 1;
        let lo = duration_series(
            &h,
            upto,
            Price::from_dollars(0.10),
            7,
            Censoring::IncludeElapsed,
        );
        let hi = duration_series(
            &h,
            upto,
            Price::from_dollars(0.30),
            7,
            Censoring::IncludeElapsed,
        );
        assert_eq!(lo.len(), hi.len());
        for (a, b) in lo.iter().zip(&hi) {
            assert!(b >= a, "duration under higher bid must not shrink");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_bad_upto() {
        let h = history(&[(0, 100)]);
        duration_series(&h, 1, Price::from_ticks(1), 1, Censoring::IncludeElapsed);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn rejects_zero_stride() {
        let h = history(&[(0, 100)]);
        duration_series(&h, 0, Price::from_ticks(1), 0, Censoring::IncludeElapsed);
    }

    #[test]
    fn resolver_matches_batch_resolved_only() {
        let pts = [
            (0u64, 100u64),
            (300, 120),
            (600, 90),
            (900, 250),
            (1200, 80),
            (1500, 260),
            (1800, 70),
        ];
        let h = history(&pts);
        let bid = Price::from_ticks(200);
        let batch = duration_series(&h, pts.len() - 1, bid, 1, Censoring::ResolvedOnly);

        let mut resolver = DurationResolver::new(bid);
        let mut resolved = Vec::new();
        for &(t, v) in &pts {
            resolver.observe(t, Price::from_ticks(v), &mut resolved);
        }
        // The resolver resolves a start at the *moment* of crossing,
        // including the crossing update itself as a new start afterwards;
        // batch mode measures from every index. Both must agree on the set
        // of resolved durations for starts strictly before each crossing.
        assert_eq!(resolved, batch);
    }

    #[test]
    fn resolver_pending_accounting() {
        let mut r = DurationResolver::new(Price::from_ticks(100));
        let mut out = Vec::new();
        r.observe(0, Price::from_ticks(50), &mut out);
        r.observe(300, Price::from_ticks(60), &mut out);
        assert_eq!(r.pending_len(), 2);
        assert!(out.is_empty());
        r.observe(600, Price::from_ticks(150), &mut out);
        assert_eq!(out, vec![600, 300]);
        assert_eq!(
            r.pending_len(),
            1,
            "the crossing update starts a new measurement"
        );
    }
}
