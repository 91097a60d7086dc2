//! Route dispatch: maps parsed requests onto [`DraftsService`] queries.
//!
//! Routes (all GET):
//!
//! * `/v1/graphs/{region}/{az}/{type}?p=0.95&now=SECS` — the published
//!   bid–duration graphs for one market (all levels unless `p` selects
//!   one, matched at basis-point resolution).
//! * `/v1/bid?duration=SECS&p=0.95&now=SECS` — the cheapest bid across
//!   every registered market guaranteeing `duration`; degraded feeds
//!   surface as explicit `degraded: true` quotes.
//! * `/v1/health?now=SECS` — the per-combo [`FeedHealth`] rollup.
//! * `/v1/metrics` — counter text exposition.
//! * `/v1/slo?now=SECS` — the standing SLO objectives evaluated over
//!   rolling virtual-time windows (dual-window burn rates).
//! * `/v1/_debug/events?n=N` — the newest `n` structured events (debug
//!   routes only; 404 when the event ring is disabled).
//! * `/v1/_debug/trace/{trace_id}` — the distributed-trace timeline for
//!   one request: every hop this process observed for the hex trace id,
//!   sorted by hop (debug routes only; 404 when the trace ring is
//!   disabled).
//!
//! Every response echoes the request's [`obs::TraceContext`] in the
//! `x-drafts-trace` header: propagated verbatim when the client sent
//! one, otherwise derived as a pure hash of the request target
//! ([`TraceIdGen::derive`]) so even headerless requests trace
//! deterministically. The fleet front shares this traced-request path
//! ([`traced`]), so front and shards agree on a headerless request's
//! identity.
//!
//! The service clock is **virtual** (the underlying service is
//! bucket-cached simulation time): `now` defaults to the configured
//! serving time and may be overridden per request, which is what makes
//! responses a pure function of `(seed, request)` — the property the
//! determinism tests byte-diff.

use crate::http::{Request, Response};
use crate::json;
use crate::metrics::{Metrics, Route};
use crate::wire;
use drafts_core::service::FeedHealth;
use drafts_core::DraftsService;
use obs::{InstantCounts, TraceContext, TraceIdGen};
use spotmarket::{Az, Catalog, Combo};
use std::sync::Arc;

/// Seed folded into target-derived trace ids for requests that arrive
/// without an `x-drafts-trace` header.
const TRACE_DERIVE_SEED: u64 = 0xD8AF_7500_7ACE_5EED;

/// The dispatcher shared by every worker.
pub struct Router {
    service: Arc<DraftsService>,
    catalog: &'static Catalog,
    /// Serving time used when a request carries no `now` override.
    default_now: u64,
    /// Default probability for `/v1/bid` when `p` is absent.
    default_p: f64,
    /// Enables the `/v1/_debug/*` routes.
    debug_routes: bool,
    /// Stable identity reported in `/v1/health` (`instance` field) so
    /// fleet rollups and probe logs are attributable. Configured, not
    /// derived from the bind address: ephemeral ports vary per boot and
    /// would break two-boot byte determinism.
    instance: String,
}

impl Router {
    /// Creates a router over `service`.
    pub fn new(service: Arc<DraftsService>, default_now: u64) -> Router {
        Router {
            service,
            catalog: Catalog::standard(),
            default_now,
            default_p: 0.95,
            debug_routes: false,
            instance: "drafts-serve".to_string(),
        }
    }

    /// Enables the debug routes: `/v1/_debug/panic` (stress tests only),
    /// `/v1/_debug/events` and `/v1/_debug/trace/{id}`.
    pub fn with_debug_routes(mut self) -> Router {
        self.debug_routes = true;
        self
    }

    /// Sets the identity reported in `/v1/health` (fleet shards use
    /// `shard-{i}`).
    pub fn with_instance(mut self, instance: impl Into<String>) -> Router {
        self.instance = instance.into();
        self
    }

    /// The configured health-report identity.
    pub fn instance(&self) -> &str {
        &self.instance
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<DraftsService> {
        &self.service
    }

    /// The serving time used when a request carries no `now` override.
    pub fn default_now(&self) -> u64 {
        self.default_now
    }

    /// Classifies a path for metrics purposes.
    pub fn route_of(path: &str) -> Route {
        if path.starts_with("/v1/graphs/") {
            Route::Graphs
        } else {
            match path {
                "/v1/bid" => Route::Bid,
                "/v1/health" => Route::Health,
                "/v1/metrics" => Route::Metrics,
                _ => Route::Other,
            }
        }
    }

    /// Handles one request. Never blocks on anything but the service's
    /// own single-flight computation; may panic only on internal bugs
    /// (the worker catches and converts those to 500s).
    ///
    /// Runs [`Router::dispatch`] through the shared traced-request path
    /// ([`traced`]).
    pub fn handle(&self, req: &Request, metrics: &Metrics) -> Response {
        traced(
            req,
            metrics,
            &self.instance,
            self.default_now,
            |route, _| self.dispatch(route, req, metrics),
        )
    }

    /// The route switch proper (everything [`Router::handle`] does minus
    /// the trace plumbing).
    fn dispatch(&self, route: Route, req: &Request, metrics: &Metrics) -> Response {
        if req.method != "GET" {
            return Response::error(405, "only GET is supported");
        }
        // Every request moves the rolling-window clock: windows close on
        // virtual-time interval boundaries, never wall timers, so window
        // readouts stay a pure function of the request sequence.
        if let Ok(now) = now_of(req, self.default_now) {
            metrics.windows().advance(now);
        }
        match route {
            Route::Graphs => self.graphs(req),
            Route::Bid => self.bid(req, metrics),
            Route::Health => self.health(req),
            Route::Metrics => Response::text(200, metrics.render_text()),
            Route::Other => {
                if req.path == "/v1/slo" {
                    return self.slo(req, metrics);
                }
                if self.debug_routes {
                    if req.path == "/v1/_debug/panic" {
                        panic!("debug panic route hit");
                    }
                    if req.path == "/v1/_debug/events" {
                        return Self::events(req, metrics);
                    }
                    if let Some(hex) = req.path.strip_prefix("/v1/_debug/trace/") {
                        return self.timeline(hex, metrics);
                    }
                }
                Response::error(404, "no such route")
            }
        }
    }

    /// `/v1/_debug/trace/{trace_id}` — every observation this process
    /// retains for one hex trace id, rendered as a hop-sorted timeline.
    /// 404 when the trace ring is disabled or holds nothing for the id;
    /// 400 on a malformed id. Byte-deterministic: records carry virtual
    /// time only.
    fn timeline(&self, hex: &str, metrics: &Metrics) -> Response {
        let Some(log) = metrics.trace_log() else {
            return Response::error(404, "trace log disabled");
        };
        let Ok(trace_id) = u64::from_str_radix(hex, 16) else {
            return Response::error(400, "trace id must be hex");
        };
        let records = log.for_trace(trace_id);
        if records.is_empty() {
            return Response::error(404, "no records for this trace");
        }
        let entries: Vec<wire::TraceEntry> = records.iter().map(wire::TraceEntry::of).collect();
        Response::json(200, wire::trace_timeline_json(trace_id, &entries).render())
    }

    /// `/v1/slo?now=` — evaluates the standing objectives over the
    /// rolling windows (latency, degraded-quote fraction) and the instant
    /// feed-health rollup. Byte-deterministic for a sequential request
    /// sequence under virtual `?now=`: every rendered field is an integer
    /// count or basis-point ratio.
    fn slo(&self, req: &Request, metrics: &Metrics) -> Response {
        let now = match now_of(req, self.default_now) {
            Ok(n) => n,
            Err(resp) => return resp,
        };
        let mut freshness = InstantCounts::default();
        for ch in self.service.health_rollup(now) {
            match ch.health {
                FeedHealth::Fresh => freshness.good += 1,
                FeedHealth::Stale { .. } => freshness.warn += 1,
                FeedHealth::Unavailable => freshness.bad += 1,
            }
        }
        // The slowest-request trace id rides along as the latency
        // breach exemplar (events only — the response body carries no
        // wall-clock-chosen data).
        let statuses = metrics.slo().evaluate_with_exemplar(
            now,
            metrics.windows(),
            &[("feed_freshness", freshness)],
            metrics.events(),
            metrics.slowest_trace().slowest().1,
        );
        Response::json(200, wire::slo_json(now, &statuses).render())
    }

    /// `/v1/_debug/events?n=` — the newest `n` structured events (64 by
    /// default), oldest first. 404 when the event ring is disabled, 400
    /// on a non-integer `n`. Event timestamps are virtual, so for a
    /// sequential drive this output is byte-identical across boots.
    fn events(req: &Request, metrics: &Metrics) -> Response {
        let Some(log) = metrics.events() else {
            return Response::error(404, "event log disabled");
        };
        let n = match req.query_param("n").map(str::parse::<usize>) {
            None => 64,
            Some(Ok(n)) => n,
            Some(Err(_)) => return Response::error(400, "n must be an integer"),
        };
        let events = log.snapshot();
        let skip = events.len().saturating_sub(n);
        Response::json(
            200,
            wire::events_json(log.capacity(), &events[skip..]).render(),
        )
    }

    fn graphs(&self, req: &Request) -> Response {
        let combo = match parse_graphs_path(self.catalog, &req.path) {
            Ok(combo) => combo,
            Err(resp) => return resp,
        };
        let now = match now_of(req, self.default_now) {
            Ok(n) => n,
            Err(resp) => return resp,
        };
        let Some(response) = self.service.fetch(combo, now) else {
            return Response::error(404, "no graphs published for this market");
        };
        let graphs: Vec<_> = match req.query_param("p") {
            None => response.graphs.graphs.iter().collect(),
            Some(v) => {
                // Reject malformed probabilities outright: "NaN" and
                // "-0.95" parse as f64, and the basis-point key saturates
                // them onto real levels, so without this guard a
                // malformed `?p=` could silently match a published graph.
                let Ok(p) = v.parse::<f64>() else {
                    return Response::error(400, "p must be a number");
                };
                if !drafts_core::service::valid_probability(p) {
                    return Response::error(400, "p must be in (0, 1]");
                }
                match response.graphs.at_probability(p) {
                    Some(g) => vec![g],
                    None => return Response::error(404, "probability level not published"),
                }
            }
        };
        let body = wire::graphs_json(self.catalog, combo, &response, &graphs).render();
        Response::json(200, body)
    }

    fn bid(&self, req: &Request, metrics: &Metrics) -> Response {
        let (duration, p) = match bid_query(req) {
            Ok((duration, p)) => (duration, p.unwrap_or(self.default_p)),
            Err(resp) => return resp,
        };
        let now = match now_of(req, self.default_now) {
            Ok(n) => n,
            Err(resp) => return resp,
        };
        match self.service.cheapest_bid(p, duration, now) {
            Some(quote) => {
                metrics.quotes_total.inc();
                if quote.degraded {
                    metrics.degraded_quotes.inc();
                }
                Response::json(200, wire::bid_quote_json(self.catalog, &quote).render())
            }
            None => {
                let mut body =
                    String::from("{\"error\":\"no market guarantees this duration\",\"duration\":");
                json::write_u64(&mut body, duration);
                body.push_str(",\"p\":");
                json::write_f64(&mut body, p);
                body.push('}');
                Response::json(404, body)
            }
        }
    }

    fn health(&self, req: &Request) -> Response {
        let now = match now_of(req, self.default_now) {
            Ok(n) => n,
            Err(resp) => return resp,
        };
        let rollup = self.service.health_rollup(now);
        let body = wire::health_json(self.catalog, &self.instance, &rollup).render();
        Response::json(200, body)
    }
}

impl crate::server::Handler for Router {
    fn handle(&self, req: &Request, metrics: &Metrics) -> Response {
        Router::handle(self, req, metrics)
    }

    fn default_now(&self) -> u64 {
        self.default_now
    }

    fn on_boot(&self, metrics: &Metrics) {
        // Expose the service's cache/health/fault counters in the boot
        // registry (canonical exposition order), and route its structured
        // events (health transitions, feed faults, snapshot swaps) into
        // the server's ring when one is configured.
        self.service.register_metrics(metrics.registry());
        if let Some(log) = metrics.events() {
            self.service.attach_events(log);
        }
    }
}

/// The traced-request path shared by [`Router`] and the fleet front.
///
/// Counts the request on its route, resolves its [`TraceContext`] and
/// opens the route's root span around `dispatch`. The context is the
/// `x-drafts-trace` header when the client (or the front) sent a valid
/// one, otherwise a fresh root whose id is a pure hash of the request
/// target, so it is always a deterministic function of the request
/// bytes. A core serving route is then recorded in the trace ring under
/// `instance`; metrics, SLO and debug reads stay pure observers, or
/// reading a timeline would grow the very ring it renders. Every
/// response echoes the context.
pub(crate) fn traced(
    req: &Request,
    metrics: &Metrics,
    instance: &str,
    default_now: u64,
    dispatch: impl FnOnce(Route, TraceContext) -> Response,
) -> Response {
    let route = Router::route_of(&req.path);
    metrics.count_request(route);
    let ctx = req
        .header(obs::TRACE_HEADER)
        .and_then(TraceContext::parse)
        .unwrap_or_else(|| {
            TraceContext::root(TraceIdGen::derive(TRACE_DERIVE_SEED, &req.target()))
        });
    // Root span of the request's stage tree (a no-op unless the calling
    // thread installed a tracer — workers do).
    let _span = obs::span(route.stage());
    let mut resp = dispatch(route, ctx);
    if let Some(log) = metrics.trace_log() {
        if matches!(route, Route::Graphs | Route::Bid | Route::Health) {
            let now = now_of(req, default_now).unwrap_or(default_now);
            log.record(ctx, now, instance, route.stage(), resp.status, "");
        }
    }
    resp.extra_headers.push((obs::TRACE_HEADER, ctx.encode()));
    resp
}

/// The request's virtual time: its `?now=` override, else `default_now`.
pub(crate) fn now_of(req: &Request, default_now: u64) -> Result<u64, Response> {
    match req.query_param("now") {
        None => Ok(default_now),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| Response::error(400, "now must be an integer")),
    }
}

/// Validates `/v1/bid`'s query: the required integer `duration` and the
/// optional probability `p` in (0, 1]. The fleet front checks a bid with
/// it before scattering, so both answer a malformed one alike.
pub(crate) fn bid_query(req: &Request) -> Result<(u64, Option<f64>), Response> {
    let Some(duration) = req.query_param("duration") else {
        return Err(Response::error(400, "duration query parameter is required"));
    };
    let Ok(duration) = duration.parse::<u64>() else {
        return Err(Response::error(400, "duration must be an integer"));
    };
    let p = match req.query_param("p") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(p) if drafts_core::service::valid_probability(p) => Some(p),
            _ => return Err(Response::error(400, "p must be in (0, 1]")),
        },
    };
    Ok((duration, p))
}

/// Parses `/v1/graphs/{region}/{az}/{type}` into a [`Combo`], with the
/// route's 400/404 distinctions. Shared by [`Router`] and the fleet
/// front (which must resolve the owning shard before proxying).
pub(crate) fn parse_graphs_path(catalog: &'static Catalog, path: &str) -> Result<Combo, Response> {
    let mut segments = path["/v1/graphs/".len()..].split('/');
    let (Some(region), Some(az), Some(ty), None) = (
        segments.next(),
        segments.next(),
        segments.next(),
        segments.next(),
    ) else {
        return Err(Response::error(
            400,
            "expected /v1/graphs/{region}/{az}/{type}",
        ));
    };
    let Some(az) = Az::parse(az) else {
        return Err(Response::error(404, "unknown availability zone"));
    };
    if az.region().name() != region {
        return Err(Response::error(400, "az does not belong to region"));
    }
    let Some(ty) = catalog.type_id(ty) else {
        return Err(Response::error(404, "unknown instance type"));
    };
    Ok(Combo::new(az, ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use drafts_core::predictor::DraftsConfig;
    use drafts_core::service::ServiceConfig;
    use spotmarket::archetype::Archetype;
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
    use spotmarket::DAY;

    fn router() -> Router {
        let catalog = Catalog::standard();
        let mut svc = DraftsService::new(ServiceConfig {
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 6,
                ..DraftsConfig::default()
            },
            ..ServiceConfig::default()
        });
        let combo = Combo::new(
            Az::parse("us-east-1c").unwrap(),
            catalog.type_id("c3.4xlarge").unwrap(),
        );
        svc.register(generate_with_archetype(
            combo,
            catalog,
            &TraceConfig::days(30, 55),
            Archetype::Choppy,
        ));
        Router::new(Arc::new(svc), 20 * DAY)
    }

    fn get(router: &Router, target: &str) -> (u16, Json) {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        let req = crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap();
        let metrics = Metrics::new();
        let resp = router.handle(&req, &metrics);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        let json = if resp.content_type.starts_with("application/json") {
            Json::parse(&body).unwrap()
        } else {
            Json::Str(body)
        };
        (resp.status, json)
    }

    #[test]
    fn graphs_route_serves_published_levels_and_filters_on_p() {
        let r = router();
        let (status, doc) = get(&r, "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge");
        assert_eq!(status, 200);
        assert_eq!(doc.get("state").unwrap().as_str(), Some("fresh"));
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(false));
        // Unfiltered: every level the service published (at this fixture
        // only 0.95 compiles; 0.99 needs a longer duration series).
        let all = doc.get("graphs").unwrap().as_arr().unwrap().len();
        assert!(all >= 1, "no graphs published");
        let (status, doc) = get(&r, "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?p=0.95");
        assert_eq!(status, 200);
        let graphs = doc.get("graphs").unwrap().as_arr().unwrap();
        assert_eq!(graphs.len(), 1, "p filter selects exactly one level");
        assert_eq!(graphs[0].get("p").unwrap().as_f64(), Some(0.95));
        assert!(!graphs[0]
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn graphs_route_rejects_bad_markets() {
        let r = router();
        assert_eq!(get(&r, "/v1/graphs/us-east-1/us-east-1c").0, 400);
        assert_eq!(get(&r, "/v1/graphs/us-west-1/us-east-1c/c3.4xlarge").0, 400);
        assert_eq!(get(&r, "/v1/graphs/us-east-1/us-east-1z/c3.4xlarge").0, 404);
        assert_eq!(get(&r, "/v1/graphs/us-east-1/us-east-1c/z9.mega").0, 404);
        // Known market, but the service has no feed registered for it.
        assert_eq!(get(&r, "/v1/graphs/us-east-1/us-east-1b/c3.4xlarge").0, 404);
        // Unpublished probability level.
        assert_eq!(
            get(&r, "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?p=0.5").0,
            404
        );
    }

    #[test]
    fn malformed_probabilities_get_400_not_a_graph() {
        // "NaN" and "-0.95" parse as f64 and saturate to basis-point key
        // 0 (or u32::MAX); before the valid_probability guard they could
        // alias a published level. Both routes must reject them outright.
        let r = router();
        for bad in ["NaN", "nan", "inf", "-inf", "-0.95", "0", "1.5", "1e300"] {
            let target = format!("/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?p={bad}");
            assert_eq!(get(&r, &target).0, 400, "graphs must 400 on p={bad}");
            let target = format!("/v1/bid?duration=3600&p={bad}");
            assert_eq!(get(&r, &target).0, 400, "bid must 400 on p={bad}");
        }
        // Valid but unpublished stays a 404; valid and published a 200.
        assert_eq!(
            get(&r, "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?p=0.5").0,
            404
        );
        assert_eq!(
            get(&r, "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?p=0.95").0,
            200
        );
    }

    #[test]
    fn bid_route_quotes_and_validates() {
        let r = router();
        let (status, doc) = get(&r, "/v1/bid?duration=3600&p=0.95");
        assert_eq!(status, 200);
        assert_eq!(doc.get("az").unwrap().as_str(), Some("us-east-1c"));
        assert!(doc.get("durability_secs").unwrap().as_u64().unwrap() >= 3600);
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(false));
        assert_eq!(get(&r, "/v1/bid?p=0.95").0, 400, "duration required");
        assert_eq!(get(&r, "/v1/bid?duration=x").0, 400);
        assert_eq!(get(&r, "/v1/bid?duration=3600&p=1.5").0, 400);
        assert_eq!(get(&r, "/v1/bid?duration=3600&now=abc").0, 400);
        let (status, body) = get_with(&r, &Metrics::new(), "/v1/bid?duration=999999999");
        assert_eq!(status, 404, "impossible duration quotes nothing");
        let tree = Json::obj(vec![
            ("error", Json::str("no market guarantees this duration")),
            ("duration", Json::num_u64(999_999_999)),
            ("p", Json::num(0.95)),
        ]);
        assert_eq!(body, tree.render(), "the refusal as the tree encoded it");
    }

    #[test]
    fn health_and_metrics_routes_respond() {
        let r = router();
        let (status, doc) = get(&r, "/v1/health");
        assert_eq!(status, 200);
        assert_eq!(
            doc.get("counts").unwrap().get("fresh").unwrap().as_u64(),
            Some(1)
        );
        let (status, body) = get(&r, "/v1/metrics");
        assert_eq!(status, 200);
        match body {
            Json::Str(text) => assert!(text.contains("drafts_requests_total")),
            other => panic!("metrics is text, got {other:?}"),
        }
        assert_eq!(get(&r, "/v1/nope").0, 404);
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let r = router();
        let raw = "POST /v1/bid?duration=3600 HTTP/1.1\r\n\r\n";
        let req = crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap();
        let resp = r.handle(&req, &Metrics::new());
        assert_eq!(resp.status, 405);
    }

    fn get_with(router: &Router, metrics: &Metrics, target: &str) -> (u16, String) {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        let req = crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap();
        let resp = router.handle(&req, metrics);
        (resp.status, String::from_utf8(resp.body.clone()).unwrap())
    }

    #[test]
    fn slo_route_reports_the_standing_objectives() {
        let r = router();
        let target = format!("/v1/slo?now={}", 20 * DAY);
        let (status, doc) = get(&r, &target);
        assert_eq!(status, 200);
        assert_eq!(doc.get("now").unwrap().as_u64(), Some(20 * DAY));
        let slos = doc.get("slos").unwrap().as_arr().unwrap();
        let names: Vec<_> = slos
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["serve_latency", "bid_degraded", "feed_freshness"]);
        for s in slos {
            assert_eq!(s.get("state").unwrap().as_str(), Some("ok"), "{s:?}");
        }
        // The one registered combo is fresh at day 20.
        let fresh = &slos[2];
        assert_eq!(fresh.get("fast_good").unwrap().as_u64(), Some(1));
        assert_eq!(fresh.get("fast_total").unwrap().as_u64(), Some(1));
        assert_eq!(get(&r, "/v1/slo?now=abc").0, 400);
        // Byte-identical across two fresh evaluations of the same state.
        let m1 = Metrics::new();
        let m2 = Metrics::new();
        assert_eq!(get_with(&r, &m1, &target), get_with(&r, &m2, &target));
    }

    #[test]
    fn slo_route_flags_an_unavailable_feed_as_breach() {
        let r = router();
        // Day 20 trace data plus a far-future `now`: the feed is long past
        // its staleness budget, so feed_freshness must breach (1 of 1
        // combos unavailable blows a 10% budget) and the degraded quote
        // must drive the bid_degraded window.
        let metrics = Metrics::with_logs(16, 0);
        let now = 40 * DAY;
        let (status, _) = get_with(&r, &metrics, &format!("/v1/bid?duration=3600&now={now}"));
        assert_eq!(status, 200);
        assert_eq!(metrics.quotes_total.get(), 1);
        assert_eq!(metrics.degraded_quotes.get(), 1);
        let (status, body) = get_with(&r, &metrics, &format!("/v1/slo?now={now}"));
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        let slos = doc.get("slos").unwrap().as_arr().unwrap();
        assert_eq!(slos[2].get("state").unwrap().as_str(), Some("breach"));
        // Degraded fraction 1/1 against a 5% budget: breach there too.
        assert_eq!(slos[1].get("state").unwrap().as_str(), Some("breach"));
        // The transitions landed in the event ring.
        let log = metrics.events().unwrap();
        let kinds: Vec<_> = log.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["slo_transition", "slo_transition"]);
        assert_eq!(log.emitted(obs::Level::Error), 2);
    }

    #[test]
    fn events_route_gates_on_debug_and_ring_presence() {
        let r = router().with_debug_routes();
        // Debug on, ring off: explicit 404.
        let (status, body) = get_with(&r, &Metrics::new(), "/v1/_debug/events");
        assert_eq!(status, 404);
        assert!(body.contains("event log disabled"), "{body}");
        // Ring on: the dump renders virtual-time events oldest first.
        let metrics = Metrics::with_logs(8, 0);
        let log = metrics.events().unwrap();
        log.emit(
            900,
            obs::Level::Info,
            "snapshot_swap",
            vec![("shard", "3".into())],
        );
        log.emit(1800, obs::Level::Warn, "shed", vec![]);
        let (status, body) = get_with(&r, &metrics, "/v1/_debug/events?n=1");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        let events = doc.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1, "n=1 keeps only the newest");
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("shed"));
        let (_, body) = get_with(&r, &metrics, "/v1/_debug/events?n=0");
        let doc = Json::parse(&body).unwrap();
        assert!(doc.get("events").unwrap().as_arr().unwrap().is_empty());
        let (status, _) = get_with(&r, &metrics, "/v1/_debug/events?n=abc");
        assert_eq!(status, 400);
        // Debug routes off: the path falls through to the plain 404.
        let plain = router();
        let (status, body) = get_with(&plain, &metrics, "/v1/_debug/events");
        assert_eq!(status, 404);
        assert!(body.contains("no such route"), "{body}");
    }

    fn send(router: &Router, metrics: &Metrics, raw: &str) -> crate::http::Response {
        let req = crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap();
        router.handle(&req, metrics)
    }

    fn trace_header(resp: &crate::http::Response) -> String {
        resp.extra_headers
            .iter()
            .find(|(k, _)| *k == obs::TRACE_HEADER)
            .map(|(_, v)| v.clone())
            .expect("every response must echo the trace header")
    }

    #[test]
    fn every_response_echoes_a_deterministic_trace_header() {
        let r = router();
        let m = Metrics::new();
        // Headerless: the context derives from the target, so the same
        // request line always echoes the same header — even on errors.
        let raw = "GET /v1/bid?duration=3600 HTTP/1.1\r\n\r\n";
        let a = trace_header(&send(&r, &m, raw));
        let b = trace_header(&send(&r, &m, raw));
        assert_eq!(a, b, "target-derived context must be pure");
        let ctx = obs::TraceContext::parse(&a).unwrap();
        assert_eq!(ctx.hop, 0, "headerless requests root the trace");
        assert_ne!(ctx.trace_id, 0);
        let other = trace_header(&send(&r, &m, "GET /v1/health HTTP/1.1\r\n\r\n"));
        assert_ne!(a, other, "different targets, different traces");
        let err = trace_header(&send(&r, &m, "GET /nope HTTP/1.1\r\n\r\n"));
        assert_eq!(
            err,
            trace_header(&send(&r, &m, "GET /nope HTTP/1.1\r\n\r\n")),
            "404s trace too"
        );
        let post = send(&r, &m, "POST /v1/bid?duration=3600 HTTP/1.1\r\n\r\n");
        assert_eq!(post.status, 405);
        trace_header(&post);
    }

    #[test]
    fn incoming_trace_headers_propagate_verbatim() {
        let r = router();
        let m = Metrics::new();
        let sent = obs::TraceContext::root(0xBEEF).child(3);
        let raw = format!(
            "GET /v1/health HTTP/1.1\r\nx-drafts-trace: {}\r\n\r\n",
            sent.encode()
        );
        let echoed = trace_header(&send(&r, &m, &raw));
        assert_eq!(obs::TraceContext::parse(&echoed), Some(sent));
        // A malformed header falls back to the derived root instead of
        // dropping the trace.
        let raw = "GET /v1/health HTTP/1.1\r\nx-drafts-trace: garbage\r\n\r\n";
        let ctx = obs::TraceContext::parse(&trace_header(&send(&r, &m, raw))).unwrap();
        assert_eq!(ctx.hop, 0);
        assert_ne!(ctx.trace_id, 0);
    }

    #[test]
    fn timeline_route_reconstructs_recorded_hops() {
        let r = router().with_debug_routes();
        // Ring off: explicit 404.
        let resp = send(
            &r,
            &Metrics::new(),
            "GET /v1/_debug/trace/ab HTTP/1.1\r\n\r\n",
        );
        assert_eq!(resp.status, 404);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("trace log disabled"));
        // Ring on: core-route requests record; the timeline renders them.
        let m = Metrics::with_logs(0, 64);
        let sent = obs::TraceContext::root(0xF00D);
        let raw = format!(
            "GET /v1/health HTTP/1.1\r\nx-drafts-trace: {}\r\n\r\n",
            sent.encode()
        );
        assert_eq!(send(&r, &m, &raw).status, 200);
        let (status, body) = get_with(&r, &m, &format!("/v1/_debug/trace/{:x}", sent.trace_id));
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("trace").unwrap().as_str(), Some("000000000000f00d"));
        let records = doc.get("records").unwrap().as_arr().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].get("stage").unwrap().as_str(),
            Some("http_health")
        );
        assert_eq!(records[0].get("status").unwrap().as_u64(), Some(200));
        assert_eq!(records[0].get("now").unwrap().as_u64(), Some(20 * DAY));
        // Two reads render byte-identically (reads don't grow the ring).
        let again = get_with(&r, &m, &format!("/v1/_debug/trace/{:x}", sent.trace_id));
        assert_eq!((status, body), again);
        // Edge cases: bad hex 400, unknown trace 404.
        assert_eq!(get_with(&r, &m, "/v1/_debug/trace/zz").0, 400);
        assert_eq!(get_with(&r, &m, "/v1/_debug/trace/1234").0, 404);
        // Debug routes off: plain 404.
        let plain = router();
        let (status, body) = get_with(&plain, &m, "/v1/_debug/trace/f00d");
        assert_eq!(status, 404);
        assert!(body.contains("no such route"), "{body}");
    }

    #[test]
    fn debug_reads_never_record_into_the_trace_ring() {
        let r = router().with_debug_routes();
        let m = Metrics::with_logs(8, 64);
        let log = m.trace_log().unwrap().clone();
        for target in ["/v1/metrics", "/v1/slo", "/v1/_debug/events"] {
            let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
            send(&r, &m, &raw);
        }
        assert_eq!(log.total(), 0, "observer routes must not self-record");
        send(&r, &m, "GET /v1/bid?duration=3600 HTTP/1.1\r\n\r\n");
        assert_eq!(log.total(), 1, "core routes record one hop each");
    }

    #[test]
    fn dump_routes_share_n_parsing_edge_cases() {
        // The events dump's `?n=` window: 400 on malformed `n`, an empty
        // window for 0, a default when absent.
        let r = router().with_debug_routes();
        let m = Metrics::with_logs(16, 0);
        let route = "/v1/_debug/events";
        let (status, body) = get_with(&r, &m, &format!("{route}?n=abc"));
        assert_eq!(status, 400, "{route} must 400 on non-integer n");
        assert!(body.contains("n must be an integer"), "{route}: {body}");
        let (status, _) = get_with(&r, &m, &format!("{route}?n=-1"));
        assert_eq!(status, 400, "{route} must 400 on negative n");
        let (status, _) = get_with(&r, &m, &format!("{route}?n=0"));
        assert_eq!(status, 200, "{route} serves an empty window for n=0");
        let (status, _) = get_with(&r, &m, route);
        assert_eq!(status, 200, "{route} defaults n");
        // Only the `/v1/_debug/trace/{id}` timelines live under that
        // prefix: the bare path is no route, with or without `n`.
        let (status, body) = get_with(&r, &m, "/v1/_debug/trace?n=8");
        assert_eq!(status, 404);
        assert!(body.contains("no such route"), "{body}");
        let (status, body) = get_with(&r, &m, "/v1/_debug/trace");
        assert_eq!(status, 404);
        assert!(body.contains("no such route"), "{body}");
    }

    #[test]
    fn now_override_reaches_the_service() {
        let r = router();
        // At now=10 only the trace's first point exists: the service
        // serves, but no graph can compile yet. At the day-20 default the
        // graphs are there — so `?now=` demonstrably reaches the service.
        let (status, doc) = get(&r, "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?now=10");
        assert_eq!(status, 200);
        assert!(doc.get("graphs").unwrap().as_arr().unwrap().is_empty());
        let target = format!(
            "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?now={}",
            20 * DAY
        );
        let (status, doc) = get(&r, &target);
        assert_eq!(status, 200);
        assert!(!doc.get("graphs").unwrap().as_arr().unwrap().is_empty());
    }
}
