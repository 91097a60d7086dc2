//! The unified metrics registry: named counters, gauges, and histograms,
//! registered once and shared via cheap cloneable handles.
//!
//! The registry renders a **deterministic, insertion-ordered** text
//! exposition: registration order is the output order, so a process that
//! registers its metrics in one canonical place at boot produces
//! byte-identical expositions across runs. Histograms expose only their
//! sample `_count` in the deterministic exposition — durations are wall
//! clock and belong in explicitly wall-clock artifacts (`profile.csv`
//! wall columns), never in `?now=`-deterministic output.

use crate::hist::Histogram;
use crate::lock_clean;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not yet in any registry); attach it later with
    /// [`Registry::attach_counter`].
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A detached gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (high-water mark).
    pub fn raise(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// An insertion-ordered collection of named metrics.
///
/// Cloning shares the underlying table; handles returned by the
/// accessors stay live after the registry is dropped. Lookups are linear
/// scans — registries hold tens of metrics and hot paths hold handles,
/// not names.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<Vec<(String, Metric)>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, fresh: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = lock_clean(&self.metrics);
        if let Some((_, m)) = metrics.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = fresh();
        metrics.push((name.to_string(), m.clone()));
        m
    }

    /// The counter registered as `name`, creating it on first use.
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge registered as `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The histogram registered as `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Exposes an existing detached counter under `name` (components
    /// create their handles at construction and attach them when a server
    /// or harness hands them a registry).
    pub fn attach_counter(&self, name: &str, counter: &Counter) {
        let m = Metric::Counter(counter.clone());
        let mut metrics = lock_clean(&self.metrics);
        match metrics.iter_mut().find(|(n, _)| n == name) {
            // Re-attaching replaces the handle in place, keeping the
            // exposition position stable.
            Some(slot) => slot.1 = m,
            None => metrics.push((name.to_string(), m)),
        }
    }

    /// The deterministic text exposition, in registration order.
    ///
    /// Counters and gauges print `name value`; histograms print only
    /// `name_count value` (the `_count` suffix goes before any `{label}`
    /// part). Durations never appear here — see the module docs.
    pub fn render_text(&self) -> String {
        let metrics = lock_clean(&self.metrics);
        let mut out = String::with_capacity(metrics.len() * 32);
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => writeln!(out, "{name} {}", c.get()),
                Metric::Gauge(g) => writeln!(out, "{name} {}", g.get()),
                Metric::Histogram(h) => match name.find('{') {
                    Some(i) => writeln!(out, "{}_count{} {}", &name[..i], &name[i..], h.count()),
                    None => writeln!(out, "{name}_count {}", h.count()),
                },
            }
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_and_exposition_is_insertion_ordered() {
        let r = Registry::new();
        let c = r.counter("b_total");
        r.counter("a_total").add(7);
        c.inc();
        c.inc();
        assert_eq!(r.counter("b_total").get(), 2);
        assert_eq!(r.render_text(), "b_total 2\na_total 7\n");
    }

    #[test]
    fn histogram_exposes_count_with_labels_spliced() {
        let r = Registry::new();
        let h = r.histogram("lat_ns{route=\"bid\"}");
        h.record_ns(500);
        h.record_ns(900);
        assert_eq!(r.render_text(), "lat_ns_count{route=\"bid\"} 2\n");
    }

    #[test]
    fn attach_replaces_in_place() {
        let r = Registry::new();
        r.counter("first").inc();
        let detached = Counter::new();
        detached.add(41);
        r.attach_counter("first", &detached);
        r.counter("second").inc();
        detached.inc();
        assert_eq!(r.render_text(), "first 42\nsecond 1\n");
    }

    #[test]
    fn gauge_raise_keeps_high_water_mark() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.raise(3);
        g.raise(2);
        assert_eq!(g.get(), 3);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn clones_share_the_table() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("shared").add(5);
        assert_eq!(r2.counter("shared").get(), 5);
        assert_eq!(r2.render_text(), "shared 5\n");
    }
}
