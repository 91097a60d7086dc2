//! Declarative SLO objectives evaluated with dual-window burn rates.
//!
//! An [`Objective`] names a good-event target fraction (in basis points)
//! and a data [`Source`]; the [`SloMonitor`] evaluates each objective
//! over a **fast** and a **slow** rolling window from [`WindowSet`] and
//! folds the two burn rates into an [`SloState`] machine:
//!
//! * **burn rate** = observed bad fraction ÷ error budget (1 − target),
//!   in units of 1/10000 so `10000` means "consuming budget exactly as
//!   fast as the SLO allows". All arithmetic is integer basis points —
//!   no floats, so evaluations are bit-deterministic.
//! * **Breach** requires the fast *and* slow burn to exceed the breach
//!   threshold — the classic multi-window rule: the fast window confirms
//!   the problem is current, the slow window confirms it is sustained,
//!   and an empty window burns nothing.
//! * **Warn** fires on the fast window alone: early signal, no paging.
//!
//! [`Source::Instant`] objectives skip the windows entirely and judge
//! caller-supplied good/warn/bad counts (e.g. the per-combo `FeedHealth`
//! rollup, already a pure function of virtual `now`).
//!
//! State transitions emit structured events (`slo_transition`) into an
//! [`EventLog`]: Breach at error level, Warn at warn, recovery at info.

use crate::events::{EventLog, Level};
use crate::lock_clean;
use crate::window::WindowSet;
use std::sync::Mutex;

/// Basis points in a whole: the unit of targets and burn rates.
pub const BP: u64 = 10_000;

/// The attainment state of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloState {
    /// Within budget on both windows.
    Ok,
    /// Fast-window burn above the warn threshold.
    Warn,
    /// Fast and slow burn both above the breach threshold (or an instant
    /// budget exceeded).
    Breach,
}

impl SloState {
    /// Lowercase label, as rendered in `/v1/slo` and events.
    pub fn label(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Breach => "breach",
        }
    }
}

/// Where an objective's good/bad counts come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// Good = samples at or under `threshold_ns` in the windowed
    /// histogram registered as `hist` (conservative bucket counting).
    LatencyUnder {
        /// Window-set histogram name.
        hist: &'static str,
        /// Latency threshold in nanoseconds.
        threshold_ns: u64,
    },
    /// Bad and total event counters registered in the window set; good =
    /// total − bad.
    BadTotal {
        /// Window-set counter name for bad events.
        bad: &'static str,
        /// Window-set counter name for all events.
        total: &'static str,
    },
    /// Judged from caller-supplied [`InstantCounts`] at evaluation time —
    /// for facts that are already a pure function of virtual `now` (the
    /// feed-health rollup), where windowing would only delay the signal.
    Instant,
}

/// A declarative SLO objective.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Objective name, e.g. `"serve_latency"`.
    pub name: &'static str,
    /// Target good fraction in basis points (9900 = 99%). Must be < 10000
    /// so the error budget is nonzero.
    pub target_bp: u64,
    /// Fast window width in intervals.
    pub fast_intervals: usize,
    /// Slow window width in intervals.
    pub slow_intervals: usize,
    /// Fast-window burn (1/10000 units) at which the state becomes Warn.
    pub warn_burn_bp: u64,
    /// Burn both windows must reach for Breach.
    pub breach_burn_bp: u64,
    /// Data source.
    pub source: Source,
}

/// Caller-supplied counts for an [`Source::Instant`] objective.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstantCounts {
    /// Fully healthy members.
    pub good: u64,
    /// Degraded-but-serving members (drives Warn).
    pub warn: u64,
    /// Members past their budget (drives Breach).
    pub bad: u64,
}

/// One objective's evaluated status.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// Objective name.
    pub name: &'static str,
    /// Current state after this evaluation.
    pub state: SloState,
    /// Target good fraction in basis points.
    pub target_bp: u64,
    /// Fast-window burn rate (1/10000 units).
    pub fast_burn_bp: u64,
    /// Slow-window burn rate (1/10000 units).
    pub slow_burn_bp: u64,
    /// Good events in the fast window.
    pub fast_good: u64,
    /// Total events in the fast window.
    pub fast_total: u64,
}

#[derive(Debug)]
struct MonitorInner {
    objectives: Vec<Objective>,
    states: Vec<SloState>,
}

/// Evaluates a fixed set of objectives, remembers each one's state, and
/// emits transition events.
#[derive(Debug)]
pub struct SloMonitor {
    inner: Mutex<MonitorInner>,
}

/// `bad/total` expressed as a burn rate against a `budget_bp` error
/// budget, in 1/10000 units. Empty totals burn nothing.
///
/// Counts arrive as `u128`, so their basis-point products cannot wrap;
/// with `bad <= total` the burn is at most `BP * BP`.
fn burn_bp(bad: u128, total: u128, budget_bp: u64) -> u64 {
    if total == 0 || budget_bp == 0 {
        return 0;
    }
    let bp = u128::from(BP);
    let burn = bad * bp / total * bp / u128::from(budget_bp);
    u64::try_from(burn).unwrap_or(u64::MAX)
}

impl SloMonitor {
    /// A monitor over `objectives`, all starting in [`SloState::Ok`].
    ///
    /// Panics if an objective's target leaves no error budget.
    pub fn new(objectives: Vec<Objective>) -> SloMonitor {
        for o in &objectives {
            assert!(
                o.target_bp < BP,
                "objective {:?}: target {} bp leaves no error budget",
                o.name,
                o.target_bp,
            );
        }
        let states = vec![SloState::Ok; objectives.len()];
        SloMonitor {
            inner: Mutex::new(MonitorInner { objectives, states }),
        }
    }

    /// Evaluates every objective against `windows` (and `instants`,
    /// matched by objective name, for [`Source::Instant`] ones), updates
    /// the state machine, and emits `slo_transition` events for changes.
    /// Pure integer arithmetic: deterministic for deterministic inputs.
    pub fn evaluate(
        &self,
        now: u64,
        windows: &WindowSet,
        instants: &[(&'static str, InstantCounts)],
        events: Option<&EventLog>,
    ) -> Vec<SloStatus> {
        self.evaluate_with_exemplar(now, windows, instants, events, 0)
    }

    /// [`SloMonitor::evaluate`] with a trace exemplar: when a
    /// [`Source::LatencyUnder`] objective transitions to Breach, the
    /// emitted event carries `slowest_trace` (the trace id of the
    /// slowest contributing request) as a `trace` field, so a breach
    /// links straight to a `/v1/_debug/trace/{id}` timeline.
    ///
    /// Only latency objectives get the exemplar: the slowest-request
    /// choice is wall-clock, and the other sources breach (and emit)
    /// deterministically — attaching wall-clock data there would break
    /// the event ring's two-boot byte equality.
    pub fn evaluate_with_exemplar(
        &self,
        now: u64,
        windows: &WindowSet,
        instants: &[(&'static str, InstantCounts)],
        events: Option<&EventLog>,
        slowest_trace: u64,
    ) -> Vec<SloStatus> {
        let mut inner = lock_clean(&self.inner);
        let MonitorInner { objectives, states } = &mut *inner;
        objectives
            .iter()
            .zip(states.iter_mut())
            .map(|(o, prev)| {
                let budget_bp = BP - o.target_bp;
                let status = match &o.source {
                    Source::Instant => {
                        let counts = instants
                            .iter()
                            .find(|(n, _)| *n == o.name)
                            .map(|(_, c)| *c)
                            .unwrap_or_default();
                        let total = u128::from(counts.good)
                            + u128::from(counts.warn)
                            + u128::from(counts.bad);
                        let bad = u128::from(counts.bad);
                        let burn = burn_bp(bad, total, budget_bp);
                        let state =
                            if total > 0 && bad * u128::from(BP) > u128::from(budget_bp) * total {
                                SloState::Breach
                            } else if counts.warn > 0 || counts.bad > 0 {
                                SloState::Warn
                            } else {
                                SloState::Ok
                            };
                        SloStatus {
                            name: o.name,
                            state,
                            target_bp: o.target_bp,
                            fast_burn_bp: burn,
                            slow_burn_bp: burn,
                            fast_good: counts.good,
                            fast_total: u64::try_from(total).unwrap_or(u64::MAX),
                        }
                    }
                    source => {
                        let count = |k: usize| -> (u64, u64) {
                            match source {
                                Source::LatencyUnder { hist, threshold_ns } => {
                                    let w = windows.hist_window(hist, k).unwrap_or_default();
                                    let total = w.count();
                                    let good = w.count_under_ns(*threshold_ns);
                                    (total - good.min(total), total)
                                }
                                Source::BadTotal { bad, total } => {
                                    let b = windows.counter_window(bad, k).unwrap_or(0);
                                    let t = windows.counter_window(total, k).unwrap_or(0);
                                    (b.min(t), t)
                                }
                                Source::Instant => unreachable!(),
                            }
                        };
                        let (fast_bad, fast_total) = count(o.fast_intervals);
                        let (slow_bad, slow_total) = count(o.slow_intervals);
                        let fast_burn = burn_bp(fast_bad.into(), fast_total.into(), budget_bp);
                        let slow_burn = burn_bp(slow_bad.into(), slow_total.into(), budget_bp);
                        let state =
                            if fast_burn >= o.breach_burn_bp && slow_burn >= o.breach_burn_bp {
                                SloState::Breach
                            } else if fast_burn >= o.warn_burn_bp {
                                SloState::Warn
                            } else {
                                SloState::Ok
                            };
                        SloStatus {
                            name: o.name,
                            state,
                            target_bp: o.target_bp,
                            fast_burn_bp: fast_burn,
                            slow_burn_bp: slow_burn,
                            fast_good: fast_total - fast_bad,
                            fast_total,
                        }
                    }
                };
                if status.state != *prev {
                    if let Some(log) = events {
                        let level = match status.state {
                            SloState::Breach => Level::Error,
                            SloState::Warn => Level::Warn,
                            SloState::Ok => Level::Info,
                        };
                        let mut fields = vec![
                            ("slo", o.name.to_string()),
                            ("from", prev.label().to_string()),
                            ("to", status.state.label().to_string()),
                            ("fast_burn_bp", status.fast_burn_bp.to_string()),
                            ("slow_burn_bp", status.slow_burn_bp.to_string()),
                        ];
                        if status.state == SloState::Breach
                            && slowest_trace != 0
                            && matches!(o.source, Source::LatencyUnder { .. })
                        {
                            fields.push(("trace", format!("{slowest_trace:016x}")));
                        }
                        log.emit(now, level, "slo_transition", fields);
                    }
                    *prev = status.state;
                }
                status
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Counter;

    const INTERVAL: u64 = 900;

    fn objective(source: Source) -> Objective {
        Objective {
            name: "test",
            target_bp: 9_900, // 99% good, 1% budget
            fast_intervals: 2,
            slow_intervals: 8,
            warn_burn_bp: BP,
            breach_burn_bp: BP,
            source,
        }
    }

    fn windows_with(bad_per_interval: &[u64], total_per_interval: u64) -> WindowSet {
        let ws = WindowSet::new(INTERVAL, 16);
        let bad = Counter::new();
        let total = Counter::new();
        ws.register_counter("bad", &bad);
        ws.register_counter("total", &total);
        ws.advance(0);
        for (i, &b) in bad_per_interval.iter().enumerate() {
            bad.add(b);
            total.add(total_per_interval);
            ws.advance((i as u64 + 1) * INTERVAL);
        }
        ws
    }

    #[test]
    fn burn_is_bad_fraction_over_budget() {
        // 2% bad against a 1% budget: burn 2.0 = 20000 bp.
        assert_eq!(burn_bp(2, 100, 100), 20_000);
        assert_eq!(burn_bp(0, 100, 100), 0);
        assert_eq!(burn_bp(0, 0, 100), 0, "empty window burns nothing");
        // Exactly on budget: burn 1.0.
        assert_eq!(burn_bp(1, 100, 100), BP);
    }

    #[test]
    fn burn_and_breach_hold_at_u64_max_counts() {
        // Past ~1.8e15 events a u64 basis-point product would wrap.
        let max = u128::from(u64::MAX);
        assert_eq!(burn_bp(max, max, 100), 1_000_000);
        assert_eq!(burn_bp(1, max, 100), 0);
        let monitor = SloMonitor::new(vec![objective(Source::Instant)]);
        let ws = WindowSet::new(INTERVAL, 4);
        let eval = |counts| monitor.evaluate(0, &ws, &[("test", counts)], None)[0].clone();
        let third_bad = eval(InstantCounts {
            good: u64::MAX,
            warn: u64::MAX,
            bad: u64::MAX,
        });
        assert_eq!(third_bad.state, SloState::Breach);
        assert_eq!(third_bad.fast_burn_bp, 333_300);
        assert_eq!(
            third_bad.fast_total,
            u64::MAX,
            "the reported total saturates"
        );
        let one_bad = eval(InstantCounts {
            good: u64::MAX - 1,
            warn: 0,
            bad: 1,
        });
        assert_eq!(
            one_bad.state,
            SloState::Warn,
            "1 bad in 2^64 is within budget"
        );
        assert_eq!(one_bad.fast_burn_bp, 0);
        assert_eq!(one_bad.fast_total, u64::MAX);
    }

    #[test]
    fn breach_needs_fast_and_slow_agreement() {
        let monitor = SloMonitor::new(vec![objective(Source::BadTotal {
            bad: "bad",
            total: "total",
        })]);
        // Only the most recent interval is bad: the fast window (2) sees
        // a 10% bad rate, the slow window (8) dilutes it to ~1.4% — both
        // above a 1% budget, so this breaches...
        let ws = windows_with(&[0, 0, 0, 0, 0, 0, 0, 20], 200);
        let s = &monitor.evaluate(8 * INTERVAL, &ws, &[], None)[0];
        assert_eq!(s.state, SloState::Breach, "{s:?}");
        assert!(s.fast_burn_bp >= BP && s.slow_burn_bp >= BP);

        // ...while a past spike the fast window no longer sees burns only
        // on the slow side — state stays Ok.
        let monitor = SloMonitor::new(vec![objective(Source::BadTotal {
            bad: "bad",
            total: "total",
        })]);
        let ws = windows_with(&[0, 40, 0, 0, 0, 0, 0, 0], 200);
        let s = &monitor.evaluate(8 * INTERVAL, &ws, &[], None)[0];
        assert_eq!(s.state, SloState::Ok, "fast window is clean: {s:?}");
        assert_eq!(s.fast_burn_bp, 0);
        assert!(s.slow_burn_bp >= BP);
    }

    #[test]
    fn latency_objective_counts_threshold_misses() {
        use crate::hist::Histogram;
        let ws = WindowSet::new(INTERVAL, 16);
        let h = Histogram::new();
        ws.register_histogram("lat", &h);
        ws.advance(0);
        for _ in 0..95 {
            h.record_ns(10_000); // well under threshold
        }
        for _ in 0..5 {
            h.record_ns(50_000_000); // over threshold
        }
        let monitor = SloMonitor::new(vec![objective(Source::LatencyUnder {
            hist: "lat",
            threshold_ns: 1_000_000,
        })]);
        let s = &monitor.evaluate(0, &ws, &[], None)[0];
        // 5% bad over a 1% budget: burn 5.0 on both windows (same live
        // data) — breach.
        assert_eq!(s.state, SloState::Breach);
        assert_eq!(s.fast_good, 95);
        assert_eq!(s.fast_total, 100);
        assert_eq!(s.fast_burn_bp, 50_000);
    }

    #[test]
    fn instant_objective_judges_rollup_counts() {
        let monitor = SloMonitor::new(vec![objective(Source::Instant)]);
        let ws = WindowSet::new(INTERVAL, 4);
        let eval = |counts| monitor.evaluate(0, &ws, &[("test", counts)], None)[0].clone();
        let ok = eval(InstantCounts {
            good: 6,
            warn: 0,
            bad: 0,
        });
        assert_eq!(ok.state, SloState::Ok);
        let warn = eval(InstantCounts {
            good: 5,
            warn: 1,
            bad: 0,
        });
        assert_eq!(warn.state, SloState::Warn);
        // 1 of 6 unavailable blows a 1% budget instantly.
        let breach = eval(InstantCounts {
            good: 5,
            warn: 0,
            bad: 1,
        });
        assert_eq!(breach.state, SloState::Breach);
        assert_eq!(breach.fast_total, 6);
    }

    #[test]
    fn transitions_emit_events_and_recovery_is_info() {
        let log = EventLog::new(16);
        let monitor = SloMonitor::new(vec![objective(Source::Instant)]);
        let ws = WindowSet::new(INTERVAL, 4);
        let bad = InstantCounts {
            good: 0,
            warn: 0,
            bad: 4,
        };
        let good = InstantCounts {
            good: 4,
            warn: 0,
            bad: 0,
        };
        monitor.evaluate(100, &ws, &[("test", bad)], Some(&log));
        monitor.evaluate(200, &ws, &[("test", bad)], Some(&log));
        monitor.evaluate(300, &ws, &[("test", good)], Some(&log));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2, "no event without a transition: {snap:?}");
        assert_eq!(snap[0].level, Level::Error);
        assert_eq!(snap[0].now, 100);
        assert_eq!(snap[1].level, Level::Info);
        assert_eq!(snap[1].now, 300);
        assert!(snap[1].fields.contains(&("from", "breach".to_string())));
        assert!(snap[1].fields.contains(&("to", "ok".to_string())));
    }

    #[test]
    fn breach_exemplar_tags_latency_objectives_only() {
        use crate::hist::Histogram;
        let ws = WindowSet::new(INTERVAL, 16);
        let h = Histogram::new();
        ws.register_histogram("lat", &h);
        ws.advance(0);
        for _ in 0..10 {
            h.record_ns(50_000_000); // all over threshold: breach
        }
        let log = EventLog::new(16);
        let monitor = SloMonitor::new(vec![
            objective(Source::LatencyUnder {
                hist: "lat",
                threshold_ns: 1_000_000,
            }),
            Objective {
                name: "instant",
                ..objective(Source::Instant)
            },
        ]);
        let bad = InstantCounts {
            good: 0,
            warn: 0,
            bad: 4,
        };
        monitor.evaluate_with_exemplar(100, &ws, &[("instant", bad)], Some(&log), 0xABCD);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2, "both objectives breached: {snap:?}");
        let latency = snap
            .iter()
            .find(|e| e.fields.contains(&("slo", "test".to_string())));
        assert!(latency
            .expect("latency transition")
            .fields
            .contains(&("trace", "000000000000abcd".to_string())));
        let instant = snap
            .iter()
            .find(|e| e.fields.contains(&("slo", "instant".to_string())));
        assert!(
            !instant
                .expect("instant transition")
                .fields
                .iter()
                .any(|(k, _)| *k == "trace"),
            "deterministic objectives must not carry wall-clock exemplars"
        );
    }

    #[test]
    #[should_panic(expected = "leaves no error budget")]
    fn perfect_target_is_rejected() {
        SloMonitor::new(vec![Objective {
            target_bp: BP,
            ..objective(Source::Instant)
        }]);
    }
}
