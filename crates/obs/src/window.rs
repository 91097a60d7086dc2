//! Deterministic, virtual-time-driven sliding-window counts.
//!
//! Cumulative-since-boot counters answer "has it ever happened"; SLO
//! monitoring needs "is it happening *now*". [`WindowSet`] turns the
//! registry's cumulative [`Counter`] handles into rolling windows without
//! touching the hot recording path: recording stays the same
//! relaxed-atomic increment it always was, and the window layer takes
//! **snapshots at interval boundaries** driven by virtual time.
//!
//! Mechanics: [`WindowSet::advance`] maps `now` to an interval index
//! `now / INTERVAL_SECS`. When the index moves forward, each counter's
//! closing-interval delta (cumulative value minus the interval-start
//! base) is pushed into a ring of per-interval deltas, and the base
//! advances. A window over the last `k` intervals is the sum of the
//! retained closed deltas in range plus the live partial interval. The
//! ring keeps the newest [`SLOW_INTERVALS`] closed intervals, more than
//! the slow SLO window reads. Backward `now` values are ignored —
//! virtual time never rewinds.
//!
//! Determinism contract: for a *sequential* record/advance sequence
//! (which is what the two-boot CI diffs drive), every window readout is a
//! pure function of `(seed, request sequence)`. Concurrent recorders
//! racing an `advance` can land a count on either side of the boundary —
//! exactly the ambiguity a wall-clock system has.

use crate::lock_clean;
use crate::registry::Counter;
use crate::slo::SLOW_INTERVALS;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Interval width in virtual seconds: one service recompute period (the
/// paper's 15-minute bucket), so window boundaries line up with bucket
/// boundaries.
pub const INTERVAL_SECS: u64 = 900;

#[derive(Debug)]
struct CounterTrack {
    name: String,
    handle: Counter,
    /// Cumulative value at the live interval's start.
    base: u64,
    /// Closed per-interval deltas, oldest first: `(interval_index, delta)`.
    /// Sparse — intervals with no traffic push nothing.
    ring: VecDeque<(u64, u64)>,
}

#[derive(Debug, Default)]
struct Inner {
    /// The live (partial) interval's index; `None` until first `advance`.
    current: Option<u64>,
    counters: Vec<CounterTrack>,
}

/// A set of registered counters aggregated over rolling virtual-time
/// windows of [`INTERVAL_SECS`]-wide intervals.
#[derive(Debug, Clone, Default)]
pub struct WindowSet {
    inner: Arc<Mutex<Inner>>,
}

impl WindowSet {
    /// An empty window set; the clock starts at the first `advance`.
    pub fn new() -> WindowSet {
        WindowSet::default()
    }

    /// Tracks `handle` under `name`; the base is the handle's value at
    /// registration, so pre-registration history never pollutes windows.
    /// Re-registering a name replaces the tracked handle and clears its
    /// ring.
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
        let index = now / INTERVAL_SECS;
        match inner.current {
            None => inner.current = Some(index),
            Some(current) if index > current => {
                for track in &mut inner.counters {
                    let cumulative = track.handle.get();
                    let delta = cumulative.saturating_sub(track.base);
                    if delta > 0 {
                        track.ring.push_back((current, delta));
                        if track.ring.len() > SLOW_INTERVALS {
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

    const INTERVAL: u64 = INTERVAL_SECS;

    #[test]
    fn windows_roll_with_virtual_time() {
        let ws = WindowSet::new();
        let c = Counter::new();
        // Pre-registration counts must not leak into any window.
        c.add(100);
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
    fn backward_and_same_interval_advances_are_ignored() {
        let ws = WindowSet::new();
        let c = Counter::new();
        ws.register_counter("reqs", &c);
        ws.advance(5 * INTERVAL);
        c.add(7);
        ws.advance(3 * INTERVAL); // backward: no-op
        ws.advance(5 * INTERVAL + 100); // same interval: no-op
        assert_eq!(ws.counter_window("reqs", 1), Some(7), "still live");
    }

    #[test]
    fn old_intervals_age_out_of_the_window_and_the_ring() {
        let ws = WindowSet::new();
        let c = Counter::new();
        ws.register_counter("reqs", &c);
        ws.advance(0);
        for i in 0..11u64 {
            c.add(1);
            ws.advance((i + 1) * INTERVAL);
        }
        // Eleven closed intervals; the ring retains the newest eight, so
        // a window of twelve = live (empty) + 8.
        assert_eq!(ws.counter_window("reqs", 12), Some(SLOW_INTERVALS as u64));
        // A window smaller than the ring filters by index.
        assert_eq!(ws.counter_window("reqs", 3), Some(2));
        assert_eq!(ws.counter_window("reqs", 1), Some(0), "live is empty");
    }

    #[test]
    fn gaps_in_traffic_yield_empty_windows() {
        let ws = WindowSet::new();
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
            let ws = WindowSet::new();
            let all = Counter::new();
            let bad = Counter::new();
            ws.register_counter("all", &all);
            ws.register_counter("bad", &bad);
            for step in 0..50u64 {
                ws.advance(step * 300);
                all.inc();
                if step % 7 == 0 {
                    bad.inc();
                }
            }
            (ws.counter_window("all", 4), ws.counter_window("bad", 4))
        };
        assert_eq!(drive(), drive());
    }
}
