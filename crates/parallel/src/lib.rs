//! Std-only scoped thread pool over one shared task cursor.
//!
//! The backtest engine fans out over 452 independent (AZ, instance type)
//! combos whose per-combo cost is wildly skewed — a busy us-east AZ with
//! many change points costs orders of magnitude more than a placid
//! us-west one. A static partition therefore leaves workers idle; handing
//! out one task index at a time keeps them busy without any external
//! dependency.
//!
//! Design:
//!
//! - [`Pool::par_map`] maps a function over a slice and returns results
//!   in **input order**, regardless of thread count or schedule. Callers
//!   get bit-identical output at 1, 2, or N threads.
//! - Workers claim the next task index from one shared atomic cursor, so
//!   a slow task holds up only the worker running it while the others
//!   drain the rest. No task spawns further tasks, so a cursor past the
//!   last index is a termination proof: a worker that draws one exits.
//! - A panicking task sets a shared abort flag (so other workers stop
//!   picking up new tasks) and the panic payload is re-raised on the
//!   calling thread via [`std::panic::resume_unwind`]. No hang, no
//!   silently dropped panic.
//! - Thread count resolves, in order: an explicit count (`Pool::new`, or
//!   `Some(n)` to `Pool::with_override`), the `DRAFTS_THREADS`
//!   environment variable, then [`std::thread::available_parallelism`].
//! - `threads == 1` (or an empty/singleton input) runs serially on the
//!   calling thread: no spawns, no locks, identical results.
//!
//! The pool is stateless — it holds only the resolved thread count and
//! spins up scoped workers per call, the calling thread working as the
//! first of them. For the workloads in this repo (hundreds of tasks, each
//! microseconds to seconds) per-call thread spawn cost is noise; a
//! persistent pool would buy nothing but shutdown complexity.

pub use obs::lock_clean;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Environment variable consulted by [`Pool::from_env`] for the worker
/// count. Invalid or zero values fall back to the detected parallelism.
pub const THREADS_ENV: &str = "DRAFTS_THREADS";

/// A fixed-width scoped thread pool.
///
/// Cheap to construct (it stores only the thread count); every
/// [`par_map`](Pool::par_map) call spawns `threads - 1` scoped workers,
/// works beside them on the calling thread, and joins them before
/// returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized from `DRAFTS_THREADS`, falling back to
    /// [`std::thread::available_parallelism`] (and then to 1).
    pub fn from_env() -> Self {
        Pool::new(threads_from_env())
    }

    /// A pool sized from an optional override: `Some(n)` behaves like
    /// [`Pool::new`], `None` like [`Pool::from_env`].
    pub fn with_override(threads: Option<usize>) -> Self {
        match threads {
            Some(n) => Pool::new(n),
            None => Pool::from_env(),
        }
    }

    /// The number of worker threads this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Panics (on the calling thread) if any invocation of `f` panics;
    /// remaining queued tasks are abandoned, in-flight ones finish.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        self.run_indexed(items.len(), &|idx| f(&items[idx]))
    }

    /// Parallel execution of `task(0..n)`, results in index order.
    fn run_indexed<R, F>(&self, n: usize, task: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);

        // Propagate the caller's ambient tracer (if any) into the workers
        // so spans opened inside tasks record into the caller's registry,
        // and count pool activity there. The depth gauge records each
        // worker's even share of the input.
        let tracer = obs::ambient();
        let tasks = tracer.as_ref().map(|t| {
            let registry = t.registry();
            registry
                .gauge("drafts_pool_max_queue_depth")
                .raise(n.div_ceil(workers) as u64);
            registry.counter("drafts_pool_tasks_total")
        });

        // The cursor only hands out distinct indices; results travel back
        // through the scoped joins, so it publishes no data and `Relaxed`
        // suffices. The calling thread claims index 0 before spawning.
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let first = cursor.fetch_add(1, Ordering::Relaxed);

        let mut collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    let (cursor, abort) = (&cursor, &abort);
                    let tracer = tracer.clone();
                    let tasks = tasks.as_ref();
                    scope.spawn(move || {
                        let _ambient = tracer.as_ref().map(obs::Tracer::install);
                        let first = cursor.fetch_add(1, Ordering::Relaxed);
                        worker_loop(first, n, cursor, abort, task, tasks)
                    })
                })
                .collect();
            // The calling thread is worker 0 rather than sleeping in
            // `join`: it already holds a core, while a spawned thread may
            // wait for the scheduler to find it one when no core is idle.
            let own = panic::catch_unwind(AssertUnwindSafe(|| {
                worker_loop(first, n, &cursor, &abort, task, tasks.as_ref())
            }));
            let mut outs = Vec::with_capacity(workers);
            let mut panic_payload = None;
            match own {
                Ok(out) => outs.push(out),
                Err(payload) => panic_payload = Some(payload),
            }
            for h in handles {
                match h.join() {
                    Ok(out) => outs.push(out),
                    Err(payload) => panic_payload = Some(payload),
                }
            }
            if let Some(payload) = panic_payload {
                panic::resume_unwind(payload);
            }
            outs
        });

        // Reassemble in input order. Every index appears exactly once
        // across the per-worker vectors (or we panicked above).
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for out in collected.drain(..) {
            for (idx, r) in out {
                debug_assert!(slots[idx].is_none(), "index {idx} produced twice");
                slots[idx] = Some(r);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("index {i} never produced")))
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

fn threads_from_env() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Convenience: `Pool::from_env().par_map(items, f)`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Pool::from_env().par_map(items, f)
}

/// Runs task `idx`, then every index the cursor hands out after it,
/// until the cursor passes `n` or another worker's task panicked.
/// `tasks` counts each task run into the caller's ambient registry
/// (absent when none is installed, in which case the pool records
/// nothing).
fn worker_loop<R, F>(
    mut idx: usize,
    n: usize,
    cursor: &AtomicUsize,
    abort: &AtomicBool,
    task: &F,
    tasks: Option<&obs::Counter>,
) -> Vec<(usize, R)>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out = Vec::new();
    while idx < n && !abort.load(Ordering::Acquire) {
        if let Some(tasks) = tasks {
            tasks.inc();
        }
        match panic::catch_unwind(AssertUnwindSafe(|| task(idx))) {
            Ok(r) => out.push((idx, r)),
            Err(payload) => {
                abort.store(true, Ordering::Release);
                panic::resume_unwind(payload);
            }
        }
        idx = cursor.fetch_add(1, Ordering::Relaxed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let pool = Pool::new(7);
        let out = pool.par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial = Pool::new(1).par_map(&items, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(Pool::new(threads).par_map(&items, f), serial);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = vec![];
        assert_eq!(pool.par_map(&empty, |&x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let counts: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        Pool::new(8).par_map(&items, |&i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn skewed_cost_distributes_across_workers() {
        // One task is 10x the rest. Sleeps (not spins) so a worker holding
        // a task cannot also drain the cursor: the other workers must take
        // the rest, and the wall clock must beat serial.
        let mut items = vec![100u64]; // ms
        items.extend(std::iter::repeat_n(10u64, 7)); // 7 x 10 ms
        let started = obs::Stopwatch::start();
        let tid_of_task = Pool::new(4).par_map(&items, |&ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            format!("{:?}", std::thread::current().id())
        });
        let elapsed = started.elapsed();
        let distinct: std::collections::HashSet<&String> = tid_of_task.iter().collect();
        assert!(
            distinct.len() > 1,
            "all 8 skewed tasks ran on one thread: no sharing happened"
        );
        // Serial is 170 ms; four workers sharing the cursor finish in ~100 ms
        // (the heavy task dominates). Allow generous scheduler slack.
        assert!(
            elapsed < std::time::Duration::from_millis(160),
            "no parallel speedup: {elapsed:?}"
        );
    }

    #[test]
    fn the_calling_thread_works_as_worker_zero() {
        // The caller claims index 0 before it spawns the other worker,
        // which can then only draw index 1.
        let caller = std::thread::current().id();
        let ran_on = Pool::new(2).par_map(&[0u32, 1], |_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::thread::current().id()
        });
        assert_eq!(ran_on[0], caller);
    }

    #[test]
    fn panic_propagates_without_hanging() {
        let items: Vec<u32> = (0..64).collect();
        let pool = Pool::new(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                if x == 13 {
                    panic!("task 13 exploded");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("task 13 exploded"),
            "unexpected payload: {msg}"
        );
    }

    #[test]
    fn serial_path_propagates_panics_too() {
        let pool = Pool::new(1);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&[1u32], |_| -> u32 { panic!("serial boom") })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn builder_and_clamping() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::with_override(Some(2)).threads(), 2);
        assert!(Pool::with_override(None).threads() >= 1);
    }

    #[test]
    fn pool_records_into_the_ambient_tracer_registry() {
        let registry = obs::Registry::new();
        let tracer = obs::Tracer::new(registry.clone());
        let _guard = tracer.install();
        let items: Vec<u64> = (0..100).collect();
        let out = Pool::new(4).par_map(&items, |&x| {
            let _span = obs::span("pool_task");
            x + 1
        });
        assert_eq!(out.len(), 100);
        assert_eq!(registry.counter("drafts_pool_tasks_total").get(), 100);
        assert_eq!(
            tracer.stage_stats("pool_task").total.count(),
            100,
            "worker spans must reach the caller's tracer"
        );
        assert_eq!(registry.gauge("drafts_pool_max_queue_depth").get(), 25);
        // Without an ambient tracer the pool records nothing new.
        drop(_guard);
        Pool::new(4).par_map(&items, |&x| x);
        assert_eq!(registry.counter("drafts_pool_tasks_total").get(), 100);
    }

    #[test]
    fn borrows_environment_not_owned_items() {
        // Regression guard: par_map must accept closures capturing
        // references to caller state (the engine captures cfg/catalog).
        let base = 10u64;
        let items = [1u64, 2, 3];
        let out = Pool::new(2).par_map(&items, |&x| x + base);
        assert_eq!(out, vec![11, 12, 13]);
    }
}
