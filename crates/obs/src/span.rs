//! Lightweight span tracing with parent/child nesting.
//!
//! A [`Tracer`] owns per-stage histograms inside a [`Registry`]. Threads
//! opt in by *installing* a tracer (worker threads do this at startup);
//! [`span`] then returns an RAII guard that, on drop, records the stage's
//! **total** duration and its **self** time (total minus the time spent
//! in child spans) into the stage histograms.
//!
//! Without an installed tracer a span is a no-op costing one
//! thread-local lookup — instrumentation can stay in place permanently.
//!
//! Determinism: span durations are wall clock. They flow only into
//! histogram *durations* (exposed deterministically as `_count` only).
//! Stage histogram *registration order* is racy when stages are first
//! recorded from concurrent threads, so processes that render the
//! registry must [`Tracer::preregister`] their stage names in one
//! canonical order at boot.

use crate::hist::Histogram;
use crate::lock_clean;
use crate::registry::Registry;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The two histograms backing one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Wall time from span open to close, children included.
    pub total: Histogram,
    /// Wall time net of child spans.
    pub self_time: Histogram,
}

#[derive(Debug)]
struct TracerInner {
    registry: Registry,
    stages: Mutex<Vec<(&'static str, StageStats)>>,
}

/// A span sink: per-stage histograms in a registry.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer recording into `registry`.
    pub fn new(registry: Registry) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                registry,
                stages: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The registry this tracer records into.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Registers stage histograms in the given canonical order, pinning
    /// their position in the registry's exposition. Call once at boot
    /// with every stage the process records — first-use registration from
    /// concurrent threads would make the exposition order racy.
    pub fn preregister(&self, stages: &[&'static str]) {
        for stage in stages {
            self.stage_stats(stage);
        }
    }

    /// The histograms for `stage`, creating and registering them on
    /// first use.
    pub fn stage_stats(&self, stage: &'static str) -> StageStats {
        let mut stages = lock_clean(&self.inner.stages);
        if let Some((_, stats)) = stages.iter().find(|(name, _)| *name == stage) {
            return stats.clone();
        }
        let stats = StageStats {
            total: self
                .inner
                .registry
                .histogram(&format!("drafts_stage_total_ns{{stage=\"{stage}\"}}")),
            self_time: self
                .inner
                .registry
                .histogram(&format!("drafts_stage_self_ns{{stage=\"{stage}\"}}")),
        };
        stages.push((stage, stats.clone()));
        stats
    }

    /// Installs this tracer as the current thread's ambient span sink,
    /// until the returned guard drops (the previous ambient tracer, if
    /// any, is restored).
    ///
    /// The tracer's current stage table is copied into a per-thread
    /// cache, so closing a span for any preregistered stage records
    /// lock-free; only stages first seen after install fall back to the
    /// shared table.
    pub fn install(&self) -> InstallGuard {
        let stats_cache = lock_clean(&self.inner.stages).clone();
        let previous = AMBIENT.with(|cell| {
            cell.borrow_mut().replace(Ambient {
                tracer: self.clone(),
                stack: Vec::new(),
                stats_cache,
            })
        });
        InstallGuard {
            previous,
            _not_send: PhantomData,
        }
    }
}

struct Frame {
    stage: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Ambient {
    tracer: Tracer,
    stack: Vec<Frame>,
    /// Stage histograms resolved at install time: span closes for these
    /// stages record without touching the tracer's shared stage table.
    stats_cache: Vec<(&'static str, StageStats)>,
}

thread_local! {
    static AMBIENT: RefCell<Option<Ambient>> = const { RefCell::new(None) };
}

/// The current thread's ambient tracer, if one is installed. Thread
/// pools use this to propagate the caller's tracer into workers.
pub fn ambient() -> Option<Tracer> {
    AMBIENT.with(|cell| cell.borrow().as_ref().map(|a| a.tracer.clone()))
}

/// Restores the previously ambient tracer on drop.
pub struct InstallGuard {
    previous: Option<Ambient>,
    // Spans/guards index a thread-local stack: moving one across threads
    // would close frames it never opened.
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        AMBIENT.with(|cell| *cell.borrow_mut() = previous);
    }
}

/// An open span; closes (records) on drop, including during unwinding.
pub struct Span {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span for `stage` under the thread's ambient tracer. A no-op
/// guard is returned when no tracer is installed.
pub fn span(stage: &'static str) -> Span {
    let active = AMBIENT.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some(ambient) => {
                ambient.stack.push(Frame {
                    stage,
                    start: Instant::now(),
                    child_ns: 0,
                });
                true
            }
            None => false,
        }
    });
    Span {
        active,
        _not_send: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        // Close the frame and record under the thread-local borrow.
        // Histogram recording is lock-free and the stage stats come from
        // the install-time cache, so closing a preregistered span takes
        // no lock at all.
        AMBIENT.with(|cell| {
            let mut slot = cell.borrow_mut();
            let Some(ambient) = slot.as_mut() else {
                return;
            };
            let Some(frame) = ambient.stack.pop() else {
                return;
            };
            let total_ns = frame.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if let Some(parent) = ambient.stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total_ns);
            }
            let self_ns = total_ns.saturating_sub(frame.child_ns);
            let record = |stats: &StageStats| {
                stats.total.record_ns(total_ns);
                stats.self_time.record_ns(self_ns);
            };
            match ambient
                .stats_cache
                .iter()
                .find(|(name, _)| *name == frame.stage)
            {
                Some((_, stats)) => record(stats),
                // A stage first seen after install: resolve it through
                // the tracer's shared stage table.
                None => record(&ambient.tracer.stage_stats(frame.stage)),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sums(tracer: &Tracer, stage: &'static str) -> (u64, u64, u64) {
        let stats = tracer.stage_stats(stage);
        (
            stats.total.count(),
            stats.total.sum_ns(),
            stats.self_time.sum_ns(),
        )
    }

    #[test]
    fn nested_spans_attribute_self_time_exactly() {
        let tracer = Tracer::new(Registry::new());
        let _guard = tracer.install();
        {
            let _outer = span("outer");
            for _ in 0..2 {
                let _child = span("child");
                std::hint::black_box((0..2000).sum::<u64>());
            }
            std::hint::black_box((0..2000).sum::<u64>());
        }
        let (outer_count, outer_total, outer_self) = sums(&tracer, "outer");
        let (child_count, child_total, _) = sums(&tracer, "child");
        assert_eq!(outer_count, 1);
        assert_eq!(child_count, 2);
        // Self time is defined as total minus children — the histograms
        // must reflect that identity to the nanosecond.
        assert_eq!(outer_self, outer_total - child_total);
        assert!(outer_total >= child_total);
    }

    #[test]
    fn panicking_scope_still_closes_its_span() {
        let tracer = Tracer::new(Registry::new());
        let _guard = tracer.install();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = span("doomed");
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(tracer.stage_stats("doomed").total.count(), 1);
        // The stack is clean: a following span nests at the root again.
        {
            let _s = span("after");
        }
        assert_eq!(tracer.stage_stats("after").total.count(), 1);
        assert_eq!(
            tracer.stage_stats("after").total.sum_ns(),
            tracer.stage_stats("after").self_time.sum_ns(),
            "root span has no parent to donate child time to"
        );
    }

    #[test]
    fn spans_without_an_installed_tracer_are_noops() {
        let _s = span("nobody-listens");
    }

    #[test]
    fn install_nests_and_restores_the_previous_tracer() {
        let t1 = Tracer::new(Registry::new());
        let t2 = Tracer::new(Registry::new());
        let _g1 = t1.install();
        {
            let _g2 = t2.install();
            let _s = span("inner");
        }
        {
            let _s = span("outer");
        }
        assert_eq!(t2.stage_stats("inner").total.count(), 1);
        assert_eq!(t1.stage_stats("inner").total.count(), 0);
        assert_eq!(t1.stage_stats("outer").total.count(), 1);
    }

    #[test]
    fn preregistration_pins_exposition_order() {
        let registry = Registry::new();
        let tracer = Tracer::new(registry.clone());
        tracer.preregister(&["b", "a"]);
        let text = registry.render_text();
        assert_eq!(
            text,
            "drafts_stage_total_ns_count{stage=\"b\"} 0\n\
             drafts_stage_self_ns_count{stage=\"b\"} 0\n\
             drafts_stage_total_ns_count{stage=\"a\"} 0\n\
             drafts_stage_self_ns_count{stage=\"a\"} 0\n"
        );
    }
}
