//! Deterministic distributed-trace context: causal request identity
//! that survives the front → shard → failover → retry chain.
//!
//! A [`TraceContext`] is a 64-bit trace id plus a hop-numbered span
//! chain. Everything about it is a pure function of its inputs:
//!
//! * ids come from a seeded [`TraceIdGen`] (or [`TraceIdGen::derive`],
//!   a pure hash of the request target) — **never** from wall clock,
//!   randomness, or addresses, so two boots replaying the same seeded
//!   workload mint byte-identical ids;
//! * child spans ([`TraceContext::child`]) mix the parent span id with
//!   a caller-supplied leg counter (ring-owner order, retry order), so
//!   the span tree is determined by the routing decisions, not by
//!   timing.
//!
//! The context crosses process boundaries as the `x-drafts-trace`
//! request/response header ([`TraceContext::encode`] /
//! [`TraceContext::parse`]); each process appends what it saw to a
//! bounded [`TraceLog`] ring keyed by virtual `now`, and the
//! `/v1/_debug/trace/{id}` route reassembles the per-request timeline
//! across the fleet.
//!
//! Trace id `0` means "no trace" everywhere; generators never mint it
//! and the log never records it.

use crate::bounded::BoundedLog;
use crate::lock_clean;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The request/response header carrying the encoded [`TraceContext`].
pub const TRACE_HEADER: &str = "x-drafts-trace";

/// SplitMix64 finalizer: a cheap, well-mixed bijection on `u64`.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Id 0 is reserved for "no trace"; remap the (single) colliding input.
fn nonzero(x: u64) -> u64 {
    if x == 0 {
        0x5EED
    } else {
        x
    }
}

/// A causal trace position: trace id + span chain + hop depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Request identity, constant across every hop. Never 0.
    pub trace_id: u64,
    /// This hop's span id.
    pub span_id: u64,
    /// The parent hop's span id (0 at the root).
    pub parent_span: u64,
    /// Hop depth: 0 at the originator, +1 per propagation.
    pub hop: u16,
}

impl TraceContext {
    /// The root context of a trace: hop 0, no parent, span id derived
    /// from the trace id alone.
    pub fn root(trace_id: u64) -> TraceContext {
        let trace_id = nonzero(trace_id);
        TraceContext {
            trace_id,
            span_id: nonzero(mix(trace_id)),
            parent_span: 0,
            hop: 0,
        }
    }

    /// A child context for outbound leg `leg` (ring-owner index, retry
    /// attempt, ...): deterministic given the parent and the leg, so
    /// the span tree mirrors the routing decisions exactly.
    pub fn child(self, leg: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: nonzero(mix(self.span_id ^ mix(leg.wrapping_add(1)))),
            parent_span: self.span_id,
            hop: self.hop.saturating_add(1),
        }
    }

    /// Header encoding: `{trace:016x}-{span:016x}-{parent:016x}-{hop}`.
    pub fn encode(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}-{}",
            self.trace_id, self.span_id, self.parent_span, self.hop
        )
    }

    /// Parses [`TraceContext::encode`] output; `None` on anything
    /// malformed (wrong field count, non-hex, zero trace id).
    pub fn parse(s: &str) -> Option<TraceContext> {
        let mut parts = s.trim().split('-');
        let trace_id = u64::from_str_radix(parts.next()?, 16).ok()?;
        let span_id = u64::from_str_radix(parts.next()?, 16).ok()?;
        let parent_span = u64::from_str_radix(parts.next()?, 16).ok()?;
        let hop = parts.next()?.parse::<u16>().ok()?;
        if parts.next().is_some() || trace_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            parent_span,
            hop,
        })
    }
}

/// The only sanctioned trace-id mint: a seeded counter stream.
///
/// Two generators with the same seed produce the same id sequence;
/// [`TraceIdGen::derive`] is the stateless variant for requests that
/// arrive without a header (id = pure hash of seed + request target).
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    counter: AtomicU64,
}

impl TraceIdGen {
    /// A generator over `seed`'s id stream.
    pub fn new(seed: u64) -> TraceIdGen {
        TraceIdGen {
            seed,
            counter: AtomicU64::new(0),
        }
    }

    /// The next id in the stream. Never 0.
    pub fn next_id(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        nonzero(mix(self.seed ^ n))
    }

    /// A stateless id: FNV-1a over `payload`, folded with `seed` and
    /// finalized through the same mixer. Equal inputs ⇒ equal ids, so
    /// headerless requests trace deterministically too. Never 0.
    pub fn derive(seed: u64, payload: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for b in payload.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        nonzero(mix(h))
    }
}

/// One hop's observation of a trace, keyed by virtual `now`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Trace identity.
    pub trace_id: u64,
    /// This hop's span id.
    pub span_id: u64,
    /// Parent span id (0 at the root).
    pub parent_span: u64,
    /// Hop depth.
    pub hop: u16,
    /// Virtual time of the request (the `?now=` the handler resolved).
    pub now: u64,
    /// Which process recorded this (`fleet-front`, `shard-2`, ...).
    pub instance: String,
    /// Pipeline stage or proxy leg label.
    pub stage: &'static str,
    /// HTTP status of this leg's outcome.
    pub status: u16,
    /// Free-form attribution detail (`"owner=shard-1 leg=0"`, ...).
    pub detail: String,
}

/// A bounded, allocate-once log of [`TraceRecord`]s: capacity fixed at
/// construction, oldest records overwritten first.
#[derive(Debug)]
pub struct TraceLog {
    ring: Mutex<BoundedLog<TraceRecord>>,
}

impl TraceLog {
    /// A log holding the last `capacity` records (a capacity of zero
    /// becomes one).
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog {
            ring: Mutex::new(BoundedLog::new(capacity)),
        }
    }

    /// Appends one observation (no-op for trace id 0, "no trace").
    pub fn record(
        &self,
        ctx: TraceContext,
        now: u64,
        instance: &str,
        stage: &'static str,
        status: u16,
        detail: impl Into<String>,
    ) {
        if ctx.trace_id == 0 {
            return;
        }
        let record = TraceRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span: ctx.parent_span,
            hop: ctx.hop,
            now,
            instance: instance.to_string(),
            stage,
            status,
            detail: detail.into(),
        };
        lock_clean(&self.ring).push(record);
    }

    /// Every retained record, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        lock_clean(&self.ring).snapshot()
    }

    /// Retained records for one trace, in insertion order.
    pub fn for_trace(&self, trace_id: u64) -> Vec<TraceRecord> {
        self.snapshot()
            .into_iter()
            .filter(|r| r.trace_id == trace_id)
            .collect()
    }

    /// Records ever written (including evicted ones).
    pub fn total(&self) -> u64 {
        lock_clean(&self.ring).pushed()
    }
}

/// Tracks the slowest observed request and its trace id — the SLO
/// breach exemplar. Lock-free; the (max, id) pair is racy only between
/// concurrent ties, which wall-clock latency makes irrelevant.
#[derive(Debug, Default)]
pub struct SlowestTraceCell {
    max_ns: AtomicU64,
    trace_id: AtomicU64,
}

impl SlowestTraceCell {
    /// A cell with no observation yet.
    pub fn new() -> SlowestTraceCell {
        SlowestTraceCell::default()
    }

    /// Offers one (latency, trace) observation; keeps the maximum.
    pub fn offer(&self, ns: u64, trace_id: u64) {
        let mut cur = self.max_ns.load(Ordering::Relaxed);
        while ns > cur {
            match self
                .max_ns
                .compare_exchange_weak(cur, ns, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.trace_id.store(trace_id, Ordering::Relaxed);
                    return;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// The slowest observation so far: `(max_ns, trace_id)`; `(0, 0)`
    /// before any offer.
    pub fn slowest(&self) -> (u64, u64) {
        (
            self.max_ns.load(Ordering::Relaxed),
            self.trace_id.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let ctx = TraceContext::root(0xDEAD_BEEF).child(2).child(0);
        let enc = ctx.encode();
        assert_eq!(TraceContext::parse(&enc), Some(ctx));
        // The exact wire shape is part of the contract.
        let root = TraceContext::root(0xAB);
        assert!(root.encode().starts_with("00000000000000ab-"));
        assert!(root.encode().ends_with("-0000000000000000-0"));
    }

    #[test]
    fn parse_rejects_malformed_headers() {
        for bad in [
            "",
            "xyz",
            "00ab-00cd-0",                  // missing field
            "00ab-00cd-00ef-0-extra",       // extra field
            "zzzz-00cd-00ef-0",             // non-hex
            "00ab-00cd-00ef-notanumber",    // non-numeric hop
            "0000000000000000-00cd-00ef-0", // zero trace id
        ] {
            assert_eq!(TraceContext::parse(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn children_are_deterministic_and_chain_parents() {
        let root = TraceContext::root(7);
        assert_eq!(root.hop, 0);
        assert_eq!(root.parent_span, 0);
        let a = root.child(0);
        let b = root.child(1);
        assert_eq!(a, root.child(0), "same leg, same child");
        assert_ne!(a.span_id, b.span_id, "legs get distinct spans");
        assert_eq!(a.parent_span, root.span_id);
        assert_eq!(a.hop, 1);
        assert_eq!(a.trace_id, root.trace_id);
        let aa = a.child(0);
        assert_eq!(aa.hop, 2);
        assert_eq!(aa.parent_span, a.span_id);
        for ctx in [root, a, b, aa] {
            assert_ne!(ctx.span_id, 0);
        }
    }

    #[test]
    fn generators_are_seed_deterministic_and_never_zero() {
        let g1 = TraceIdGen::new(42);
        let g2 = TraceIdGen::new(42);
        let ids: Vec<u64> = (0..64).map(|_| g1.next_id()).collect();
        let again: Vec<u64> = (0..64).map(|_| g2.next_id()).collect();
        assert_eq!(ids, again, "same seed, same stream");
        assert!(ids.iter().all(|&id| id != 0));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "no collisions in-stream");
        assert_ne!(ids[0], TraceIdGen::new(43).next_id(), "seed matters");
    }

    #[test]
    fn derive_is_a_pure_function_of_seed_and_payload() {
        let a = TraceIdGen::derive(1, "/v1/bid?duration=3600");
        assert_eq!(a, TraceIdGen::derive(1, "/v1/bid?duration=3600"));
        assert_ne!(a, TraceIdGen::derive(2, "/v1/bid?duration=3600"));
        assert_ne!(a, TraceIdGen::derive(1, "/v1/bid?duration=7200"));
        assert_ne!(a, 0);
        assert_ne!(TraceIdGen::derive(0, ""), 0);
    }

    fn ctx(trace_id: u64) -> TraceContext {
        TraceContext::root(trace_id)
    }

    #[test]
    fn ring_evicts_oldest_first_without_reallocating() {
        let log = TraceLog::new(4);
        for i in 1..=11u64 {
            log.record(ctx(i), 100 + i, "shard-0", "graphs", 200, "");
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<u64> = snap.iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![8, 9, 10, 11], "oldest evicted first");
        assert_eq!(log.total(), 11);
        assert_eq!(log.for_trace(9).len(), 1);
        assert_eq!(log.for_trace(1).len(), 0, "evicted");
        let untraced = TraceContext {
            trace_id: 0,
            ..ctx(12)
        };
        log.record(untraced, 112, "shard-0", "graphs", 200, "");
        assert_eq!(log.total(), 11, "id 0 is never recorded");
    }

    #[test]
    fn slowest_cell_keeps_the_maximum() {
        let cell = SlowestTraceCell::new();
        assert_eq!(cell.slowest(), (0, 0));
        cell.offer(100, 1);
        cell.offer(50, 2);
        cell.offer(300, 3);
        cell.offer(200, 4);
        assert_eq!(cell.slowest(), (300, 3));
    }
}
