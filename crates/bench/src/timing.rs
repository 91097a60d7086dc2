//! Minimal std-only timing harness (criterion replacement).
//!
//! Protocol per benchmark: one untimed warm-up call calibrates an
//! iteration count targeting [`SAMPLE_TARGET`] of work per sample, then
//! [`SAMPLES`] timed samples run and the per-iteration median, min and
//! max are printed. Batched benchmarks (fresh input consumed every
//! iteration) time only the routine, not the setup.
//!
//! Environment:
//! * `DRAFTS_BENCH_QUICK=1` — one sample, tiny calibration budget; used
//!   to smoke-test bench binaries quickly.

use std::time::{Duration, Instant};

/// Re-export so bench files need no `std::hint` import.
pub use std::hint::black_box;

/// Timed-work target per sample.
pub const SAMPLE_TARGET: Duration = Duration::from_millis(60);
/// Samples per benchmark.
pub const SAMPLES: usize = 7;

fn quick() -> bool {
    std::env::var("DRAFTS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// One benchmark's aggregated measurements, in ns per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median over samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Iterations per sample.
    pub iters: u64,
}

impl Measurement {
    fn from_samples(mut samples: Vec<f64>, iters: u64) -> Self {
        samples.sort_by(|a, b| a.total_cmp(b));
        Measurement {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
            iters,
        }
    }
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.3} s ", ns / 1_000_000_000.0)
    }
}

/// A named group of benchmarks; prints one line per benchmark as it runs.
pub struct Harness {
    group: String,
}

impl Harness {
    /// Starts a group (prints its header).
    pub fn new(group: &str) -> Self {
        println!("{group}");
        Harness {
            group: group.to_string(),
        }
    }

    /// Benchmarks `f` (called repeatedly on shared state).
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Measurement {
        // Warm up and calibrate from one untimed-for-reporting call.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed();
        let (target, samples) = if quick() {
            (Duration::from_millis(1), 1)
        } else {
            (SAMPLE_TARGET, SAMPLES)
        };
        let iters = (target.as_nanos() / once.as_nanos().max(1)).clamp(1, 10_000_000) as u64;
        let per_iter: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        self.report(name, Measurement::from_samples(per_iter, iters))
    }

    /// Benchmarks `routine` on a fresh `setup()` product per iteration;
    /// only the routine is timed. Criterion's `iter_batched` equivalent.
    pub fn bench_batched<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) -> Measurement {
        let input = setup();
        let t0 = Instant::now();
        black_box(routine(input));
        let once = t0.elapsed();
        let (target, samples) = if quick() {
            (Duration::from_millis(1), 1)
        } else {
            (SAMPLE_TARGET, SAMPLES)
        };
        // Bound iterations harder than the unbatched path: each iteration
        // pays an untimed setup() on top of the timed routine.
        let iters = (target.as_nanos() / once.as_nanos().max(1)).clamp(1, 100_000) as u64;
        let per_iter: Vec<f64> = (0..samples)
            .map(|_| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let input = setup();
                    let t = Instant::now();
                    black_box(routine(input));
                    timed += t.elapsed();
                }
                timed.as_nanos() as f64 / iters as f64
            })
            .collect();
        self.report(name, Measurement::from_samples(per_iter, iters))
    }

    fn report(&self, name: &str, m: Measurement) -> Measurement {
        println!(
            "  {:<32} {}  [{} .. {}]  ({} iters/sample)",
            format!("{}/{}", self.group, name),
            human(m.median_ns),
            human(m.min_ns),
            human(m.max_ns),
            m.iters
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_plausible() {
        std::env::set_var("DRAFTS_BENCH_QUICK", "1");
        let mut h = Harness::new("selftest");
        let m = h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        let mb = h.bench_batched("batched", || vec![1u64; 64], |v| v.iter().sum::<u64>());
        assert!(mb.median_ns > 0.0);
    }
}
