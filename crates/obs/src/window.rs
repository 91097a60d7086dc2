//! Deterministic, virtual-time-driven sliding-window aggregation.
//!
//! Cumulative-since-boot counters answer "has it ever happened"; SLO
//! monitoring needs "is it happening *now*". [`WindowSet`] turns the
//! registry's cumulative [`Histogram`]/[`Counter`] handles into rolling
//! windows without touching the hot recording path: recording stays the
//! same relaxed-atomic increment it always was, and the window layer
//! takes **snapshots at interval boundaries** driven by virtual time.
//!
//! Mechanics: [`WindowSet::advance`] maps `now` to an interval index
//! `now / interval_secs`. When the index moves forward, the closing
//! interval's delta (cumulative snapshot minus the interval-start base)
//! is pushed into a bounded ring of per-interval deltas, and the base
//! advances. A window over the last `k` intervals is the merge of the
//! retained closed deltas in range plus the live partial interval.
//! Backward `now` values are ignored — virtual time never rewinds.
//!
//! Determinism contract: for a *sequential* record/advance sequence
//! (which is what the two-boot CI diffs drive), every window readout is a
//! pure function of `(seed, request sequence)`. Concurrent recorders
//! racing an `advance` can land a sample on either side of the boundary —
//! exactly the ambiguity a wall-clock system has — so deterministic
//! routes only ever render **count-based** window facts, never durations.
//!
//! The delta histograms' `max_ns` is the cumulative maximum at close time
//! (maxima do not subtract); window quantiles treat it as an upper bound.

use crate::hist::Histogram;
use crate::hist::LogHistogram;
use crate::lock_clean;
use crate::registry::Counter;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct HistTrack {
    name: String,
    handle: Histogram,
    /// Cumulative snapshot at the live interval's start.
    base: LogHistogram,
    /// Closed per-interval deltas, oldest first: `(interval_index, delta)`.
    /// Sparse — intervals with no traffic push nothing.
    ring: VecDeque<(u64, LogHistogram)>,
}

#[derive(Debug)]
struct CounterTrack {
    name: String,
    handle: Counter,
    base: u64,
    ring: VecDeque<(u64, u64)>,
}

#[derive(Debug)]
struct Inner {
    interval_secs: u64,
    retain: usize,
    /// The live (partial) interval's index; `None` until first `advance`.
    current: Option<u64>,
    hists: Vec<HistTrack>,
    counters: Vec<CounterTrack>,
}

/// A set of registered metric handles aggregated over rolling
/// virtual-time windows.
#[derive(Debug, Clone)]
pub struct WindowSet {
    inner: Arc<Mutex<Inner>>,
}

impl WindowSet {
    /// A window set with `interval_secs`-wide intervals retaining the
    /// most recent `retain` closed intervals per metric (minimums 1).
    pub fn new(interval_secs: u64, retain: usize) -> WindowSet {
        WindowSet {
            inner: Arc::new(Mutex::new(Inner {
                interval_secs: interval_secs.max(1),
                retain: retain.max(1),
                current: None,
                hists: Vec::new(),
                counters: Vec::new(),
            })),
        }
    }

    /// Interval width in (virtual) seconds.
    pub fn interval_secs(&self) -> u64 {
        lock_clean(&self.inner).interval_secs
    }

    /// The live interval's index, if `advance` has run.
    pub fn current_interval(&self) -> Option<u64> {
        lock_clean(&self.inner).current
    }

    /// Tracks `handle` under `name`; the base is the handle's state at
    /// registration, so pre-registration history never pollutes windows.
    /// Re-registering a name replaces the tracked handle and clears its
    /// ring.
    pub fn register_histogram(&self, name: &str, handle: &Histogram) {
        let mut inner = lock_clean(&self.inner);
        let track = HistTrack {
            name: name.to_string(),
            base: handle.snapshot(),
            handle: handle.clone(),
            ring: VecDeque::new(),
        };
        match inner.hists.iter_mut().find(|t| t.name == name) {
            Some(slot) => *slot = track,
            None => inner.hists.push(track),
        }
    }

    /// Tracks a counter under `name`; same base/replace semantics as
    /// [`Self::register_histogram`].
    pub fn register_counter(&self, name: &str, handle: &Counter) {
        let mut inner = lock_clean(&self.inner);
        let track = CounterTrack {
            name: name.to_string(),
            base: handle.get(),
            handle: handle.clone(),
            ring: VecDeque::new(),
        };
        match inner.counters.iter_mut().find(|t| t.name == name) {
            Some(slot) => *slot = track,
            None => inner.counters.push(track),
        }
    }

    /// Moves the window clock to virtual time `now`, closing the live
    /// interval (and recording its deltas) whenever the interval index
    /// advances. Backward or same-interval calls are cheap no-ops.
    pub fn advance(&self, now: u64) {
        let mut inner = lock_clean(&self.inner);
        let index = now / inner.interval_secs;
        match inner.current {
            None => inner.current = Some(index),
            Some(current) if index > current => {
                let retain = inner.retain;
                for track in &mut inner.hists {
                    let cumulative = track.handle.snapshot();
                    let delta = cumulative.diff(&track.base);
                    if delta.count() > 0 {
                        track.ring.push_back((current, delta));
                        while track.ring.len() > retain {
                            track.ring.pop_front();
                        }
                    }
                    track.base = cumulative;
                }
                for track in &mut inner.counters {
                    let cumulative = track.handle.get();
                    let delta = cumulative.saturating_sub(track.base);
                    if delta > 0 {
                        track.ring.push_back((current, delta));
                        while track.ring.len() > retain {
                            track.ring.pop_front();
                        }
                    }
                    track.base = cumulative;
                }
                inner.current = Some(index);
            }
            // Same interval, or virtual time going backward: ignore.
            Some(_) => {}
        }
    }

    /// The merged histogram over the last `k` intervals (live partial
    /// included), or `None` if `name` is not tracked.
    pub fn hist_window(&self, name: &str, k: usize) -> Option<LogHistogram> {
        let inner = lock_clean(&self.inner);
        let current = inner.current.unwrap_or(0);
        let track = inner.hists.iter().find(|t| t.name == name)?;
        let mut merged = track.handle.snapshot().diff(&track.base);
        for (index, delta) in &track.ring {
            if index + (k as u64) > current {
                merged.merge(delta);
            }
        }
        Some(merged)
    }

    /// The summed counter delta over the last `k` intervals (live partial
    /// included), or `None` if `name` is not tracked.
    pub fn counter_window(&self, name: &str, k: usize) -> Option<u64> {
        let inner = lock_clean(&self.inner);
        let current = inner.current.unwrap_or(0);
        let track = inner.counters.iter().find(|t| t.name == name)?;
        let live = track.handle.get().saturating_sub(track.base);
        let closed: u64 = track
            .ring
            .iter()
            .filter(|(index, _)| index + (k as u64) > current)
            .map(|(_, delta)| delta)
            .sum();
        Some(live + closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL: u64 = 900;

    #[test]
    fn windows_roll_with_virtual_time() {
        let ws = WindowSet::new(INTERVAL, 16);
        let c = Counter::new();
        ws.register_counter("reqs", &c);
        ws.advance(0);

        c.add(5); // interval 0
        ws.advance(INTERVAL); // close 0, open 1
        c.add(3); // interval 1
        ws.advance(2 * INTERVAL); // close 1, open 2
        c.add(2); // live partial in interval 2

        assert_eq!(ws.counter_window("reqs", 1), Some(2), "live only");
        assert_eq!(ws.counter_window("reqs", 2), Some(5), "live + interval 1");
        assert_eq!(ws.counter_window("reqs", 3), Some(10), "all three");
        assert_eq!(ws.counter_window("missing", 3), None);
    }

    #[test]
    fn histogram_windows_expose_interval_quantiles() {
        let ws = WindowSet::new(INTERVAL, 16);
        let h = Histogram::new();
        // Pre-registration samples must not leak into any window.
        h.record_ns(1_000_000_000);
        ws.register_histogram("lat", &h);
        ws.advance(0);

        for _ in 0..100 {
            h.record_ns(1_000);
        }
        ws.advance(INTERVAL);
        for _ in 0..100 {
            h.record_ns(1 << 20);
        }

        let fast = ws.hist_window("lat", 1).unwrap();
        assert_eq!(fast.count(), 100);
        assert_eq!(fast.count_under_ns(2_000), 0, "fast window is all slow");
        let slow = ws.hist_window("lat", 2).unwrap();
        assert_eq!(slow.count(), 200);
        assert_eq!(slow.count_under_ns(2_000), 100);
    }

    #[test]
    fn backward_and_same_interval_advances_are_ignored() {
        let ws = WindowSet::new(INTERVAL, 16);
        let c = Counter::new();
        ws.register_counter("reqs", &c);
        ws.advance(5 * INTERVAL);
        c.add(7);
        ws.advance(3 * INTERVAL); // backward: no-op
        ws.advance(5 * INTERVAL + 100); // same interval: no-op
        assert_eq!(ws.current_interval(), Some(5));
        assert_eq!(ws.counter_window("reqs", 1), Some(7), "still live");
    }

    #[test]
    fn old_intervals_age_out_of_the_window_and_the_ring() {
        let ws = WindowSet::new(INTERVAL, 2);
        let c = Counter::new();
        ws.register_counter("reqs", &c);
        ws.advance(0);
        for i in 0..5u64 {
            c.add(1);
            ws.advance((i + 1) * INTERVAL);
        }
        // Ring retains 2 closed intervals; window of 3 = live (empty) + 2.
        assert_eq!(ws.counter_window("reqs", 3), Some(2));
        // A window smaller than the ring filters by index.
        assert_eq!(ws.counter_window("reqs", 2), Some(1));
        assert_eq!(ws.counter_window("reqs", 1), Some(0), "live is empty");
    }

    #[test]
    fn gaps_in_traffic_yield_empty_windows() {
        let ws = WindowSet::new(INTERVAL, 8);
        let c = Counter::new();
        ws.register_counter("reqs", &c);
        ws.advance(0);
        c.add(9);
        // Jump far ahead: the busy interval is long outside any window.
        ws.advance(100 * INTERVAL);
        assert_eq!(ws.counter_window("reqs", 4), Some(0));
        assert_eq!(
            ws.counter_window("reqs", 200),
            Some(9),
            "huge window sees it"
        );
    }

    #[test]
    fn two_identical_drives_produce_identical_windows() {
        let drive = || {
            let ws = WindowSet::new(INTERVAL, 8);
            let h = Histogram::new();
            let c = Counter::new();
            ws.register_histogram("lat", &h);
            ws.register_counter("bad", &c);
            for step in 0..50u64 {
                ws.advance(step * 300);
                h.record_ns(1000 + step * 17);
                if step % 7 == 0 {
                    c.inc();
                }
            }
            let w = ws.hist_window("lat", 4).unwrap();
            (
                w.count(),
                w.count_under_ns(1 << 11),
                ws.counter_window("bad", 4),
            )
        };
        assert_eq!(drive(), drive());
    }
}
