//! Observability substrate for the DrAFTS workspace (std-only).
//!
//! Three layers, designed around the repo's determinism contract
//! (responses are pure functions of `(seed, request)` under virtual
//! `?now=` time; wall-clock data appears only in explicitly wall-clock
//! artifacts):
//!
//! * **Registry** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) —
//!   named metrics registered once, shared via `Arc` handles, rendered as
//!   a deterministic insertion-ordered text exposition. Histograms print
//!   only their `_count` there; durations stay out of deterministic
//!   output.
//! * **Spans** ([`Tracer`], [`span`]) — RAII drop-guards recording each
//!   pipeline stage's total and self (children-excluded) wall time into
//!   per-stage histograms. Threads opt in by installing a tracer; without
//!   one a span is a near-free no-op, so instrumentation is permanent.
//!
//! A second layer turns the cumulative substrate into *current* signals:
//!
//! * **Windows** ([`WindowSet`]) — virtual-time-driven rolling deltas
//!   over registered histograms/counters (sliding-window quantiles and
//!   rates without touching the hot recording path).
//! * **SLOs** ([`SloMonitor`]) — declarative objectives judged by
//!   dual-window burn rates into an Ok/Warn/Breach state machine, in
//!   pure basis-point integer arithmetic.
//! * **Events** ([`EventLog`]) — a bounded, severity-leveled, structured
//!   event ring stamped with **virtual** time; the sanctioned channel
//!   for "something notable happened" (CI lints away ad-hoc
//!   `eprintln!` in server/service code).
//! * **Traces** ([`TraceContext`], [`TraceLog`]) — seeded, fully
//!   deterministic distributed-trace identity propagated across
//!   processes as the `x-drafts-trace` header, with a bounded per-hop
//!   observation ring keyed by virtual time. [`TraceIdGen`] is the only
//!   sanctioned id mint (CI lints away wall-clock or address-based
//!   ids).
//!
//! The event and trace logs share one bounded ring type: allocated once,
//! oldest-first eviction, no reallocation.
//!
//! [`LogHistogram`] lives here so every crate shares one histogram
//! implementation, and [`Stopwatch`] is the workspace's sole gateway to
//! the wall clock outside `obs`/`bench` — CI greps for stray
//! `Instant::now` calls.

mod bounded;
pub mod clock;
pub mod events;
pub mod hist;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;
pub mod window;

pub use clock::Stopwatch;
pub use events::{EventLog, Level, LogEvent};
pub use hist::{Histogram, LogHistogram};
pub use registry::{Counter, Gauge, Registry};
pub use slo::{InstantCounts, Objective, SloMonitor, SloState, SloStatus, Source};
pub use span::{ambient, span, InstallGuard, Span, StageStats, Tracer};
pub use trace::{SlowestTraceCell, TraceContext, TraceIdGen, TraceLog, TraceRecord, TRACE_HEADER};
pub use window::WindowSet;

use std::sync::{Mutex, MutexGuard};

/// Locks a [`Mutex`], ignoring poisoning.
///
/// The workspace's one poison-recovery helper, re-exported as
/// `parallel::lock_clean`: correct whenever the protected state is
/// updated whole (an `Arc` swap, a counter bump, a deque push) so a
/// panicking holder cannot leave a torn value behind, and panic
/// propagation is handled by other means (the pool's abort flag, the
/// service's single-flight completion guard). Use this instead of
/// hand-rolled `match m.lock()` blocks at every mutex in the repo.
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
