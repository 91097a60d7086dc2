//! The random request population of the backtest (paper §4.1: "300 Spot
//! tier requests beginning at random times ... each request had a duration
//! drawn from a uniform random distribution between 0 and 12 hours").

use simrng::{Rng, StreamFactory};
use spotmarket::Combo;

/// One backtested request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// When the fictitious user asks for the instance.
    pub start: u64,
    /// How long the instance must run (seconds).
    pub duration: u64,
}

/// Request-population parameters.
#[derive(Debug, Clone, Copy)]
pub struct RequestConfig {
    /// Requests per combo (paper: 300).
    pub count: usize,
    /// Earliest permissible start time.
    pub window_start: u64,
    /// Latest permissible start time (exclusive).
    pub window_end: u64,
    /// Maximum duration in seconds (paper: 12 hours); durations are
    /// uniform in `[1, max_duration]`.
    pub max_duration: u64,
}

impl RequestConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on an empty window or zero duration/count.
    pub fn validate(&self) {
        assert!(self.count > 0, "need at least one request");
        assert!(self.window_end > self.window_start, "empty request window");
        assert!(self.max_duration > 0, "zero max duration");
    }
}

/// Generates the (sorted-by-start) request population for one combo.
///
/// Deterministic in `(factory root, combo)`, independent of everything
/// else drawn from the factory.
pub fn generate(cfg: &RequestConfig, factory: &StreamFactory, combo: Combo) -> Vec<Request> {
    cfg.validate();
    let mut rng = factory.stream("backtest-requests", combo.key());
    let mut out: Vec<Request> = (0..cfg.count)
        .map(|_| Request {
            start: rng.next_range_u64(cfg.window_start, cfg.window_end - 1),
            duration: rng.next_range_u64(1, cfg.max_duration),
        })
        .collect();
    out.sort_by_key(|r| r.start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::{Az, Catalog, Combo};

    fn combo() -> Combo {
        Combo::new(
            Az::parse("us-east-1b").unwrap(),
            Catalog::standard().type_id("c4.large").unwrap(),
        )
    }

    fn cfg() -> RequestConfig {
        RequestConfig {
            count: 300,
            window_start: 1000,
            window_end: 500_000,
            max_duration: 12 * 3600,
        }
    }

    #[test]
    fn generates_requested_count_sorted() {
        let f = StreamFactory::new(7);
        let reqs = generate(&cfg(), &f, combo());
        assert_eq!(reqs.len(), 300);
        assert!(reqs.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn respects_window_and_duration_bounds() {
        let f = StreamFactory::new(8);
        for r in generate(&cfg(), &f, combo()) {
            assert!((1000..500_000).contains(&r.start));
            assert!((1..=12 * 3600).contains(&r.duration));
        }
    }

    #[test]
    fn durations_are_roughly_uniform() {
        let f = StreamFactory::new(9);
        let big = RequestConfig {
            count: 20_000,
            ..cfg()
        };
        let reqs = generate(&big, &f, combo());
        let mean = reqs.iter().map(|r| r.duration as f64).sum::<f64>() / reqs.len() as f64;
        let expected = (12.0 * 3600.0) / 2.0;
        assert!((mean - expected).abs() / expected < 0.02, "mean {mean}");
    }

    #[test]
    fn deterministic_per_combo_and_seed() {
        let f = StreamFactory::new(10);
        assert_eq!(generate(&cfg(), &f, combo()), generate(&cfg(), &f, combo()));
        let other = Combo::new(
            Az::parse("us-east-1c").unwrap(),
            Catalog::standard().type_id("c4.large").unwrap(),
        );
        assert_ne!(generate(&cfg(), &f, combo()), generate(&cfg(), &f, other));
    }

    #[test]
    #[should_panic(expected = "empty request window")]
    fn rejects_empty_window() {
        RequestConfig {
            window_start: 5,
            window_end: 5,
            ..cfg()
        }
        .validate();
    }
}
