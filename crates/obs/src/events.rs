//! A bounded, severity-leveled, structured event log.
//!
//! [`EventLog`] is the workspace's one sanctioned channel for "something
//! notable happened" messages — health transitions, load shed, drain,
//! snapshot swaps, fault onset/recovery, SLO state changes. CI forbids
//! ad-hoc `eprintln!` logging in the server/service modules; everything
//! routes here instead, where it is bounded, structured, countable, and
//! dumpable over `/v1/_debug/events`.
//!
//! Determinism: an event's timestamp is the **virtual** `now` its emitter
//! was evaluating (the `?now=` request time or the service's bucket
//! clock), never the wall clock. Two boots driven through the same
//! sequential request sequence therefore produce byte-identical event
//! dumps — the same two-boot CI diff that pins `/v1/metrics` pins
//! `/v1/_debug/events` too.
//!
//! The events live in the crate's one bounded ring: allocated once,
//! overwritten oldest-first, never reallocated.

use crate::bounded::BoundedLog;
use crate::lock_clean;
use crate::registry::{Counter, Registry};
use std::sync::{Arc, Mutex};

/// Event severity, ordered from routine to actionable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Routine lifecycle: swaps, recoveries, drain progress.
    Info,
    /// Degradation within budget: staleness, shed, SLO warn.
    Warn,
    /// Budget exhausted: unavailable feeds, SLO breach.
    Error,
}

impl Level {
    /// Lowercase label, as rendered in dumps and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One structured event: a kind, a virtual timestamp, and key=value
/// fields. Field keys are static (the vocabulary is fixed at the call
/// site); values are rendered strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Global sequence number (1-based, increments per event).
    pub seq: u64,
    /// Virtual time (seconds) the emitter was evaluating — never wall
    /// clock.
    pub now: u64,
    /// Severity.
    pub level: Level,
    /// Event kind, e.g. `"health_transition"`, `"shed"`, `"slo_breach"`.
    pub kind: &'static str,
    /// Structured key=value payload, in emission order.
    pub fields: Vec<(&'static str, String)>,
}

/// A shared, bounded, oldest-first-truncating structured event log.
#[derive(Debug, Clone)]
pub struct EventLog {
    ring: Arc<Mutex<BoundedLog<LogEvent>>>,
    /// Per-level emission counters (count every emit, including ones the
    /// ring has since evicted).
    counts: [Counter; 3],
}

impl EventLog {
    /// An event log holding at most `capacity` events (minimum 1). The
    /// backing storage is allocated here, once.
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            ring: Arc::new(Mutex::new(BoundedLog::new(capacity))),
            counts: [Counter::new(), Counter::new(), Counter::new()],
        }
    }

    /// Registers the per-level emission counters as
    /// `drafts_events_total{level=...}`.
    pub fn register_metrics(&self, registry: &Registry) {
        for level in [Level::Info, Level::Warn, Level::Error] {
            registry.attach_counter(
                &format!("drafts_events_total{{level=\"{}\"}}", level.label()),
                &self.counts[level as usize],
            );
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        lock_clean(&self.ring).capacity()
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        lock_clean(&self.ring).len()
    }

    /// Whether no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events emitted at `level`, evicted ones included.
    pub fn emitted(&self, level: Level) -> u64 {
        self.counts[level as usize].get()
    }

    /// Appends an event, evicting the oldest at capacity.
    pub fn emit(
        &self,
        now: u64,
        level: Level,
        kind: &'static str,
        fields: Vec<(&'static str, String)>,
    ) {
        self.counts[level as usize].inc();
        let mut ring = lock_clean(&self.ring);
        let seq = ring.pushed() + 1;
        ring.push(LogEvent {
            seq,
            now,
            level,
            kind,
            fields,
        });
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<LogEvent> {
        lock_clean(&self.ring).snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_n(log: &EventLog, n: u64) {
        for i in 0..n {
            log.emit(i, Level::Info, "tick", vec![("i", i.to_string())]);
        }
    }

    #[test]
    fn per_level_counters_survive_eviction() {
        let log = EventLog::new(2);
        emit_n(&log, 5);
        log.emit(9, Level::Warn, "shed", vec![]);
        log.emit(9, Level::Error, "breach", vec![("slo", "latency".into())]);
        assert_eq!(log.emitted(Level::Info), 5, "evicted emits still counted");
        assert_eq!(log.emitted(Level::Warn), 1);
        assert_eq!(log.emitted(Level::Error), 1);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn wraparound_boundary_keeps_counters_consistent_with_eviction() {
        // Exactly at capacity: nothing evicted yet, the ring holds every
        // emit and the counters agree with the retained set.
        let registry = Registry::new();
        let log = EventLog::new(4);
        log.register_metrics(&registry);
        emit_n(&log, 4);
        assert_eq!(log.len(), 4);
        assert_eq!(log.emitted(Level::Info), 4);
        assert_eq!(
            log.snapshot().iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert!(registry
            .render_text()
            .contains("drafts_events_total{level=\"info\"} 4"));

        // Capacity + 1: the first wraparound write. Exactly one event
        // (seq 1) is gone, the retained window slides by one, and the
        // per-level counter keeps counting the evicted emit.
        log.emit(99, Level::Warn, "overflow", vec![]);
        assert_eq!(log.len(), 4, "ring stays at capacity");
        let seqs: Vec<u64> = log.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5], "oldest (seq 1) evicted");
        assert_eq!(log.emitted(Level::Info), 4, "evicted emit still counted");
        assert_eq!(log.emitted(Level::Warn), 1);
        let total = log.emitted(Level::Info) + log.emitted(Level::Warn) + log.emitted(Level::Error);
        let evicted = total - log.len() as u64;
        assert_eq!(evicted, 1, "counters = retained + evicted");
        let text = registry.render_text();
        assert!(text.contains("drafts_events_total{level=\"info\"} 4"));
        assert!(text.contains("drafts_events_total{level=\"warn\"} 1"));
    }

    #[test]
    fn metrics_render_per_level_totals() {
        let registry = Registry::new();
        let log = EventLog::new(8);
        log.register_metrics(&registry);
        log.emit(0, Level::Warn, "shed", vec![]);
        log.emit(1, Level::Warn, "shed", vec![]);
        let text = registry.render_text();
        assert!(text.contains("drafts_events_total{level=\"info\"} 0"));
        assert!(text.contains("drafts_events_total{level=\"warn\"} 2"));
        assert!(text.contains("drafts_events_total{level=\"error\"} 0"));
    }

    #[test]
    fn fields_and_virtual_time_round_trip() {
        let log = EventLog::new(8);
        log.emit(
            1_728_000,
            Level::Error,
            "health_transition",
            vec![
                ("combo", "us-east-1b/c4.large".into()),
                ("to", "unavailable".into()),
            ],
        );
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].now, 1_728_000);
        assert_eq!(snap[0].kind, "health_transition");
        assert_eq!(snap[0].fields[1], ("to", "unavailable".to_string()));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let log = EventLog::new(0);
        emit_n(&log, 2);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].seq, 2);
    }
}
