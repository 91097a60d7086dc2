//! Server metrics on the workspace [`obs`] registry, and the
//! `/v1/metrics` text exposition.
//!
//! [`Metrics`] owns the process [`Registry`] and [`Tracer`]: the legacy
//! counters (requests per route, connections, shed, status classes,
//! panics, degraded quotes) register first in their historical order, so
//! the exposition is a **strict superset** of the pre-obs output — old
//! names, old order, new metrics appended. Everything else registers in
//! one canonical sequence here at construction: per-stage span
//! histograms, pool counters, replay-chaos counters. The service's own
//! cache/health/fault counters attach when a [`crate::Server`] boots
//! (`DraftsService::register_metrics`), again in canonical order — so
//! two boots of the same service render byte-identical expositions under
//! virtual time.
//!
//! The second observability layer also hangs off [`Metrics`]: the
//! request-latency histogram and quote counters feed a [`WindowSet`] of
//! rolling virtual-time windows, an [`SloMonitor`] judges the standing
//! objectives (`/v1/slo`), an optional [`EventLog`] ring collects
//! structured events (`/v1/_debug/events`), and an optional [`TraceLog`]
//! ring keeps per-hop trace observations (`/v1/_debug/trace/{id}`).

use obs::{
    Counter, EventLog, Histogram, Objective, Registry, SloMonitor, SlowestTraceCell, Source,
    TraceLog, Tracer, WindowSet,
};
use std::sync::Arc;

/// The routes the server distinguishes in its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/graphs/...`
    Graphs,
    /// `GET /v1/bid`
    Bid,
    /// `GET /v1/health`
    Health,
    /// `GET /v1/metrics`
    Metrics,
    /// Anything else (404s, debug routes).
    Other,
}

impl Route {
    /// All routes in exposition order.
    pub const ALL: [Route; 5] = [
        Route::Graphs,
        Route::Bid,
        Route::Health,
        Route::Metrics,
        Route::Other,
    ];

    /// Label used in the exposition.
    pub fn label(self) -> &'static str {
        match self {
            Route::Graphs => "graphs",
            Route::Bid => "bid",
            Route::Health => "health",
            Route::Metrics => "metrics",
            Route::Other => "other",
        }
    }

    /// Span stage name for this route's request handling.
    pub fn stage(self) -> &'static str {
        match self {
            Route::Graphs => "http_graphs",
            Route::Bid => "http_bid",
            Route::Health => "http_health",
            Route::Metrics => "http_metrics",
            Route::Other => "http_other",
        }
    }

    fn index(self) -> usize {
        match self {
            Route::Graphs => 0,
            Route::Bid => 1,
            Route::Health => 2,
            Route::Metrics => 3,
            Route::Other => 4,
        }
    }
}

/// Rolling-window interval: one service recompute period of virtual time,
/// so window boundaries line up with bucket boundaries.
const WINDOW_INTERVAL_SECS: u64 = 900;

/// Closed intervals retained per windowed metric (4 virtual hours).
const WINDOW_RETAIN: usize = 16;

/// The server's standing SLO objectives, evaluated at `/v1/slo`.
///
/// * `serve_latency` — 99% of requests answered under the (generous)
///   threshold. The bucketed good-count cuts at the largest power-of-two
///   boundary under the threshold (~268 ms), far above anything a healthy
///   loopback request takes, so sequential CI drives stay byte-identical.
/// * `bid_degraded` — at most 5% of `/v1/bid` quotes served degraded.
/// * `feed_freshness` — instant-judged from the per-combo health rollup:
///   any stale combo warns, an unavailable combo past 10% of the fleet
///   breaches.
fn standing_objectives() -> Vec<Objective> {
    let burn = obs::slo::BP; // act at 1.0× budget-consumption rate
    vec![
        Objective {
            name: "serve_latency",
            target_bp: 9_900,
            fast_intervals: 2,
            slow_intervals: 8,
            warn_burn_bp: burn,
            breach_burn_bp: burn,
            source: Source::LatencyUnder {
                hist: "request_latency",
                threshold_ns: 500_000_000,
            },
        },
        Objective {
            name: "bid_degraded",
            target_bp: 9_500,
            fast_intervals: 2,
            slow_intervals: 8,
            warn_burn_bp: burn,
            breach_burn_bp: burn,
            source: Source::BadTotal {
                bad: "degraded",
                total: "quotes",
            },
        },
        Objective {
            name: "feed_freshness",
            target_bp: 9_000,
            fast_intervals: 2,
            slow_intervals: 8,
            warn_burn_bp: burn,
            breach_burn_bp: burn,
            source: Source::Instant,
        },
    ]
}

/// Shared server metrics: counter handles plus the process registry and
/// span tracer.
#[derive(Debug, Clone)]
pub struct Metrics {
    registry: Registry,
    tracer: Tracer,
    requests: [Counter; 5],
    /// Admitted connections, counted as a worker picks each one up (so
    /// the count is ordered before the connection's own requests).
    pub connections: Counter,
    /// Connections refused with 503 because the accept queue was full.
    pub shed: Counter,
    /// 2xx responses.
    pub status_2xx: Counter,
    /// 4xx responses.
    pub status_4xx: Counter,
    /// 5xx responses.
    pub status_5xx: Counter,
    /// Handler panics converted to 500s (the worker survives).
    pub handler_panics: Counter,
    /// Requests whose quote was served from a degraded (no-guarantee)
    /// feed.
    pub degraded_quotes: Counter,
    /// All `/v1/bid` quotes served (the degraded-fraction denominator).
    pub quotes_total: Counter,
    /// End-to-end request handling latency (recorded by the worker around
    /// the router; only its `_count` renders in the exposition).
    pub request_latency: Histogram,
    /// Rolling virtual-time windows over the latency histogram and quote
    /// counters, advanced per request.
    windows: WindowSet,
    /// The standing SLO objectives evaluated at `/v1/slo`.
    slo: Arc<SloMonitor>,
    /// The structured event ring, when enabled.
    events: Option<EventLog>,
    /// The distributed-trace observation ring, when enabled
    /// (`/v1/_debug/trace/{id}` timelines).
    trace_log: Option<Arc<TraceLog>>,
    /// The slowest request seen and its trace id — the SLO breach
    /// exemplar.
    slowest_trace: Arc<SlowestTraceCell>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh zeroed metrics, event and trace logs disabled.
    pub fn new() -> Self {
        Metrics::with_logs(0, 0)
    }

    /// Fresh metrics with a structured event ring of `event_log` entries
    /// and a distributed-trace ring of `trace_log` records (`0` disables
    /// either).
    pub fn with_logs(event_log: usize, trace_log: usize) -> Self {
        let registry = Registry::new();
        // Historical names first, historical order: the exposition stays
        // a strict superset of the pre-obs `/v1/metrics` output.
        let requests = Route::ALL.map(|route| {
            registry.counter(&format!(
                "drafts_requests_total{{route=\"{}\"}}",
                route.label()
            ))
        });
        let connections = registry.counter("drafts_connections_total");
        let shed = registry.counter("drafts_shed_total");
        let status_2xx = registry.counter("drafts_responses_2xx_total");
        let status_4xx = registry.counter("drafts_responses_4xx_total");
        let status_5xx = registry.counter("drafts_responses_5xx_total");
        let handler_panics = registry.counter("drafts_handler_panics_total");
        let degraded_quotes = registry.counter("drafts_degraded_quotes_total");

        let tracer = Tracer::new(registry.clone());
        // Stage histograms register here, once, in canonical order —
        // first-use registration from concurrent workers would make the
        // exposition order racy across boots.
        tracer.preregister(&Route::ALL.map(Route::stage));
        tracer.preregister(drafts_core::service::SERVICE_STAGES);
        // The thread pool records into whichever registry is ambient
        // when it runs.
        registry.counter("drafts_pool_tasks_total");
        registry.gauge("drafts_pool_max_queue_depth");
        // Second observability layer — registered after every family above
        // so the exposition prefix stays frozen.
        let quotes_total = registry.counter("drafts_quotes_total");
        let request_latency = registry.histogram("drafts_request_latency_ns");
        let events = (event_log > 0).then(|| {
            let log = EventLog::new(event_log);
            log.register_metrics(&registry);
            log
        });
        let windows = WindowSet::new(WINDOW_INTERVAL_SECS, WINDOW_RETAIN);
        windows.register_histogram("request_latency", &request_latency);
        windows.register_counter("degraded", &degraded_quotes);
        windows.register_counter("quotes", &quotes_total);
        let slo = Arc::new(SloMonitor::new(standing_objectives()));
        let trace_log = (trace_log > 0).then(|| Arc::new(TraceLog::new(trace_log)));

        Metrics {
            registry,
            tracer,
            requests,
            connections,
            shed,
            status_2xx,
            status_4xx,
            status_5xx,
            handler_panics,
            degraded_quotes,
            quotes_total,
            request_latency,
            windows,
            slo,
            events,
            trace_log,
            slowest_trace: Arc::new(SlowestTraceCell::new()),
        }
    }

    /// The process metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span tracer workers install.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The rolling virtual-time window set.
    pub fn windows(&self) -> &WindowSet {
        &self.windows
    }

    /// The standing SLO monitor.
    pub fn slo(&self) -> &SloMonitor {
        &self.slo
    }

    /// The structured event ring, if one was enabled at construction.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// The distributed-trace ring, if tracing was enabled at
    /// construction.
    pub fn trace_log(&self) -> Option<&Arc<TraceLog>> {
        self.trace_log.as_ref()
    }

    /// The slowest-request exemplar cell (latency + trace id).
    pub fn slowest_trace(&self) -> &SlowestTraceCell {
        &self.slowest_trace
    }

    /// Counts one request on `route`.
    pub fn count_request(&self, route: Route) {
        self.requests[route.index()].inc();
    }

    /// Requests served on `route`.
    pub fn requests(&self, route: Route) -> u64 {
        self.requests[route.index()].get()
    }

    /// Counts one response with `status`.
    pub fn count_status(&self, status: u16) {
        let slot = match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        };
        slot.inc();
    }

    /// Total requests across every route.
    pub fn total_requests(&self) -> u64 {
        Route::ALL.iter().map(|&r| self.requests(r)).sum()
    }

    /// Renders the text exposition served at `/v1/metrics`: the full
    /// registry, insertion-ordered (legacy names lead).
    pub fn render_text(&self) -> String {
        self.registry.render_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_in_fixed_order() {
        let m = Metrics::new();
        m.count_request(Route::Graphs);
        m.count_request(Route::Graphs);
        m.count_request(Route::Bid);
        m.count_status(200);
        m.count_status(404);
        m.count_status(503);
        assert_eq!(m.requests(Route::Graphs), 2);
        assert_eq!(m.total_requests(), 3);
        let text = m.render_text();
        assert!(text.contains("drafts_requests_total{route=\"graphs\"} 2\n"));
        assert!(text.contains("drafts_requests_total{route=\"bid\"} 1\n"));
        assert!(text.contains("drafts_responses_2xx_total 1\n"));
        assert!(text.contains("drafts_responses_4xx_total 1\n"));
        assert!(text.contains("drafts_responses_5xx_total 1\n"));
        // Deterministic: two renders are byte-identical.
        assert_eq!(text, m.render_text());
        // Fixed order: graphs before bid before health.
        let g = text.find("route=\"graphs\"").unwrap();
        let b = text.find("route=\"bid\"").unwrap();
        let h = text.find("route=\"health\"").unwrap();
        assert!(g < b && b < h);
    }

    #[test]
    fn exposition_is_a_strict_superset_of_the_pre_obs_output() {
        // The pre-obs exposition, in its exact order; every line must
        // survive as a prefix of the migrated output.
        let legacy = "\
drafts_requests_total{route=\"graphs\"} 0
drafts_requests_total{route=\"bid\"} 0
drafts_requests_total{route=\"health\"} 0
drafts_requests_total{route=\"metrics\"} 0
drafts_requests_total{route=\"other\"} 0
drafts_connections_total 0
drafts_shed_total 0
drafts_responses_2xx_total 0
drafts_responses_4xx_total 0
drafts_responses_5xx_total 0
drafts_handler_panics_total 0
drafts_degraded_quotes_total 0
";
        let text = Metrics::new().render_text();
        assert!(
            text.starts_with(legacy),
            "legacy exposition must lead the output:\n{text}"
        );
        assert!(text.len() > legacy.len(), "new metrics must be appended");
        // The new families are present.
        for needle in [
            "drafts_stage_total_ns_count{stage=\"http_bid\"} 0",
            "drafts_stage_self_ns_count{stage=\"http_bid\"} 0",
            "drafts_stage_total_ns_count{stage=\"qbets_price\"} 0",
            "drafts_pool_tasks_total 0",
            "drafts_pool_max_queue_depth 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn second_layer_metrics_append_after_the_legacy_families() {
        let text = Metrics::new().render_text();
        for needle in ["drafts_quotes_total 0", "drafts_request_latency_ns_count 0"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let pool = text.find("drafts_pool_max_queue_depth").unwrap();
        let quotes = text.find("drafts_quotes_total").unwrap();
        assert!(pool < quotes, "new families must append, not interleave");
        // Event counters render only when the ring is enabled.
        assert!(!text.contains("drafts_events_total"));
        let with_events = Metrics::with_logs(8, 0);
        assert!(with_events.events().is_some());
        assert!(with_events
            .render_text()
            .contains("drafts_events_total{level=\"info\"} 0"));
    }

    #[test]
    fn windows_track_the_quote_counters() {
        let m = Metrics::new();
        m.windows().advance(0);
        m.quotes_total.inc();
        m.quotes_total.inc();
        m.degraded_quotes.inc();
        assert_eq!(m.windows().counter_window("quotes", 1), Some(2));
        assert_eq!(m.windows().counter_window("degraded", 1), Some(1));
        m.request_latency.record_ns(1_000);
        assert_eq!(
            m.windows()
                .hist_window("request_latency", 1)
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn spans_record_into_route_stage_histograms() {
        let m = Metrics::new();
        let _guard = m.tracer().install();
        {
            let _span = obs::span(Route::Bid.stage());
        }
        assert!(m
            .render_text()
            .contains("drafts_stage_total_ns_count{stage=\"http_bid\"} 1"));
    }
}
