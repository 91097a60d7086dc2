//! Seeded open-loop traffic harness for drafts-serve.
//!
//! The harness is two halves with a deliberate determinism boundary:
//!
//! * The **plan** ([`build_plan`]) is a pure function of `(seed, config)`:
//!   an open-loop Poisson arrival schedule whose requests replay the
//!   paper's Table 1 request population (per-combo durations from
//!   [`backtest::request::generate`], the §4.1 "uniform between 0 and 12
//!   hours" draw) as `/v1/bid` lookups, mixed with `/v1/graphs`,
//!   `/v1/health` and `/v1/metrics` probes.
//! * The **run** ([`run`]) replays the plan against a live server with
//!   keep-alive client threads, each speaking through [`Client`] (the
//!   server crate's one HTTP client, re-exported here). Response
//!   *contents* are deterministic (virtual time; the report captures
//!   counts, body bytes and an order-independent checksum), while
//!   *latency* is wall clock and is quarantined into an
//!   [`obs::LogHistogram`] so the deterministic half of the report can
//!   be byte-diffed in CI.
//!
//! Open loop means arrival times are fixed ahead of the run: a slow
//! server does not slow the arrival process down, it just accumulates
//! in-flight work — the standard way to make load shedding observable.

use obs::Stopwatch;
use obs::{LogHistogram, TraceContext, TraceIdGen};
use simrng::dist::{Categorical, Exponential};
use simrng::{Rng, StreamFactory};
use spotmarket::{Catalog, Combo};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

/// What a planned request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/graphs/...` for one combo.
    Graphs,
    /// `/v1/bid?...` across all combos.
    Bid,
    /// `/v1/health`.
    Health,
    /// `/v1/metrics` — the exposition endpoint, probed like a scraper.
    Metrics,
}

impl Kind {
    /// Every kind, in the report's route order.
    pub const ALL: [Kind; 4] = [Kind::Graphs, Kind::Bid, Kind::Health, Kind::Metrics];

    /// Stable label used in the run report.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Graphs => "graphs",
            Kind::Bid => "bid",
            Kind::Health => "health",
            Kind::Metrics => "metrics",
        }
    }

    /// Whether the response body is a pure function of `(seed, request)`
    /// under virtual time. The metrics exposition is a live view of
    /// mutable counters — its bytes depend on how requests interleave
    /// across client threads — so it is excluded from the deterministic
    /// body-bytes/checksum tallies.
    pub fn deterministic_body(self) -> bool {
        !matches!(self, Kind::Metrics)
    }
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Offset from the run start at which this request is *issued*.
    pub at: Duration,
    /// Request kind (for per-route accounting).
    pub kind: Kind,
    /// Request target, e.g. `/v1/bid?duration=3600&p=0.95`.
    pub path: String,
    /// Seeded trace id carried as an `x-drafts-trace` root context when
    /// nonzero — lets the run correlate each planned request with the
    /// server-side trace timeline. Zero disables the header.
    pub trace: u64,
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Total requests to issue.
    pub requests: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Concurrent keep-alive client connections; planned requests are
    /// dealt round-robin across them.
    pub clients: usize,
    /// Combos the workload draws graphs/durations from.
    pub combos: Vec<Combo>,
    /// Probability level baked into bid/graphs queries.
    pub p: f64,
    /// Route mix weights `[graphs, bid, health, metrics]`.
    pub mix: [f64; 4],
    /// When set to `(base, step)`, planned request `i` carries an
    /// explicit `now=base + i*step` virtual-time override — the fleet
    /// experiments use this to march requests across the chaos window
    /// deterministically.
    pub virtual_now: Option<(u64, u64)>,
}

impl WorkloadConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on an empty population, zero clients/requests or a
    /// non-positive rate.
    pub fn validate(&self) {
        assert!(self.requests > 0, "need at least one request");
        assert!(self.clients > 0, "need at least one client");
        assert!(self.rate_per_sec > 0.0, "non-positive arrival rate");
        assert!(!self.combos.is_empty(), "empty combo population");
        assert!(self.p > 0.0 && self.p <= 1.0, "p out of range");
    }
}

/// Builds the deterministic request plan: a pure function of
/// `(factory root, config)`, sorted by arrival offset.
pub fn build_plan(
    cfg: &WorkloadConfig,
    factory: &StreamFactory,
    catalog: &Catalog,
) -> Vec<Planned> {
    cfg.validate();
    // Durations replay the Table 1 population: 0–12 h uniform per combo.
    // The window only feeds start times, which the Poisson arrival
    // process below supersedes; any non-empty window works.
    let duration_cfg = backtest::request::RequestConfig {
        count: cfg.requests.div_ceil(cfg.combos.len()).max(1),
        window_start: 0,
        window_end: 2,
        max_duration: 12 * 3600,
    };
    let durations: Vec<Vec<u64>> = cfg
        .combos
        .iter()
        .map(|&combo| {
            backtest::request::generate(&duration_cfg, factory, combo)
                .into_iter()
                .map(|r| r.duration)
                .collect()
        })
        .collect();

    let mix = Categorical::new(&cfg.mix).expect("route mix weights");
    let gap = Exponential::new(cfg.rate_per_sec).expect("arrival rate");
    let mut arrivals = factory.stream_named("loadgen-arrivals");
    let mut routes = factory.stream_named("loadgen-routes");
    let mut picks = factory.stream_named("loadgen-picks");
    let traces = TraceIdGen::new(factory.stream_named("loadgen-traces").next_u64());

    let mut t = 0.0f64;
    let mut per_combo_cursor = vec![0usize; cfg.combos.len()];
    (0..cfg.requests)
        .map(|i| {
            t += gap.sample(&mut arrivals);
            let combo_ix = picks.next_below(cfg.combos.len() as u64) as usize;
            let combo = cfg.combos[combo_ix];
            let (kind, path) = match mix.sample(&mut routes) {
                0 => {
                    let az = combo.az;
                    (
                        Kind::Graphs,
                        format!(
                            "/v1/graphs/{}/{}/{}?p={}",
                            az.region().name(),
                            az.name(),
                            catalog.spec(combo.ty).name,
                            cfg.p
                        ),
                    )
                }
                1 => {
                    let ds = &durations[combo_ix];
                    let d = ds[per_combo_cursor[combo_ix] % ds.len()];
                    per_combo_cursor[combo_ix] += 1;
                    (Kind::Bid, format!("/v1/bid?duration={d}&p={}", cfg.p))
                }
                2 => (Kind::Health, "/v1/health".to_string()),
                _ => (Kind::Metrics, "/v1/metrics".to_string()),
            };
            let mut path = path;
            if let Some((base, step)) = cfg.virtual_now {
                let sep = if path.contains('?') { '&' } else { '?' };
                path.push_str(&format!("{sep}now={}", base + i as u64 * step));
            }
            Planned {
                at: Duration::from_secs_f64(t),
                kind,
                path,
                trace: traces.next_id(),
            }
        })
        .collect()
}

/// FNV-1a 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One response as the client observed it.
#[derive(Debug, Clone, Copy)]
struct Observation {
    index: usize,
    trace: u64,
    kind: Kind,
    status: u16,
    body_len: u64,
    digest: u64,
    latency: Duration,
}

/// One completed request in plan order — the correlation record the
/// tracing experiments join against server-side timelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSample {
    /// Index of the request in the plan.
    pub index: usize,
    /// Trace id the request carried (zero when the plan disabled it).
    pub trace: u64,
    /// Request kind.
    pub kind: Kind,
    /// Final HTTP status after retries.
    pub status: u16,
    /// Wall-clock latency in nanoseconds (NOT deterministic — callers
    /// writing byte-diffed artifacts must quarantine or bucket this).
    pub latency_ns: u64,
}

/// Per-route deterministic tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteTally {
    /// Requests issued on the route.
    pub requests: u64,
    /// 200 responses.
    pub ok: u64,
    /// Total body bytes across responses.
    pub body_bytes: u64,
    /// Order-independent checksum: wrapping sum of per-response FNV-1a
    /// digests over `status || body`.
    pub checksum: u64,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Deterministic per-route tallies, keyed by [`Kind::label`].
    pub routes: BTreeMap<&'static str, RouteTally>,
    /// Responses that were not 200 (shed 503s land here).
    pub non_ok: u64,
    /// 503 responses that were retried (each retry counts once; the
    /// final answer after retries is what the route tallies record).
    pub retries_503: u64,
    /// Wall-clock run duration.
    pub elapsed: Duration,
    /// Aggregate latency distribution (wall clock — NOT deterministic).
    pub latency: LogHistogram,
    /// Per-route latency distributions, keyed by [`Kind::label`] (wall
    /// clock — NOT deterministic). Merging every entry reproduces
    /// [`RunReport::latency`].
    pub route_latency: BTreeMap<&'static str, LogHistogram>,
    /// Every completed request, sorted by plan index. Requests whose
    /// transport failed outright (after the client's one retry) are absent.
    pub requests: Vec<RequestSample>,
}

impl RunReport {
    /// Requests completed across all routes.
    pub fn total(&self) -> u64 {
        self.routes.values().map(|t| t.requests).sum()
    }

    /// Completed-request throughput in requests/second.
    pub fn throughput(&self) -> f64 {
        self.total() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The keep-alive client each run connection uses, re-exported for the
/// load generator's callers.
pub use server::http::Client;

/// How [`run_with`] reacts to a shed 503: honor the server's
/// `Retry-After` hint with a seeded, deterministic backoff instead of
/// counting the shed and immediately reissuing.
///
/// The backoff for attempt `k` of a request is
/// `min(retry_after, max_backoff) * (0.5 + u)` where `u` is a stateless
/// uniform draw keyed by `(seed, path, k)` — two runs with the same seed
/// sleep identically, and concurrent clients never share RNG state.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per request after a 503 (0 = old behavior: count and
    /// move on).
    pub max_retries: u32,
    /// Seed for the backoff jitter.
    pub seed: u64,
    /// Cap on one backoff sleep (keeps quick runs quick even though the
    /// server hints whole seconds).
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: a 503 is recorded as the final answer.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            seed: 0,
            max_backoff: Duration::ZERO,
        }
    }

    /// The default policy: up to 3 retries, 200 ms backoff cap.
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            seed,
            max_backoff: Duration::from_millis(200),
        }
    }
}

/// [`run_with`] under the default seeded [`RetryPolicy`].
pub fn run(addr: SocketAddr, plan: &[Planned], clients: usize, timeout: Duration) -> RunReport {
    run_with(
        addr,
        plan,
        clients,
        timeout,
        &RetryPolicy::seeded(0x5EED_0503),
    )
}

/// Replays `plan` against `addr` with `clients` open-loop threads and
/// aggregates the report. Shed 503s are retried per `retry`.
pub fn run_with(
    addr: SocketAddr,
    plan: &[Planned],
    clients: usize,
    timeout: Duration,
    retry: &RetryPolicy,
) -> RunReport {
    assert!(clients > 0, "need at least one client");
    let started = Stopwatch::start();
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::with_capacity(plan.len()));
    let retries_503 = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|scope| {
        for c in 0..clients {
            let observations = &observations;
            let retries_503 = &retries_503;
            let slice: Vec<(usize, &Planned)> =
                plan.iter().enumerate().skip(c).step_by(clients).collect();
            scope.spawn(move || {
                let mut client = Client::new(addr, timeout);
                let mut local = Vec::with_capacity(slice.len());
                let mut local_retries = 0u64;
                for (index, planned) in slice {
                    // Open loop: wait out the schedule, not the server.
                    if let Some(wait) = planned.at.checked_sub(started.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let header =
                        (planned.trace != 0).then(|| TraceContext::root(planned.trace).encode());
                    let issued = Stopwatch::start();
                    let mut attempt: u32 = 0;
                    let outcome = loop {
                        match client.get_traced(&planned.path, header.as_deref()) {
                            Err(_) => break None,
                            Ok((503, _)) if attempt < retry.max_retries => {
                                let hint = client.retry_after().unwrap_or(1);
                                let backoff = Duration::from_secs(hint)
                                    .min(retry.max_backoff)
                                    .mul_f64(0.5 + backoff_jitter(retry, planned, attempt));
                                std::thread::sleep(backoff);
                                attempt += 1;
                            }
                            Ok(resp) => break Some(resp),
                        }
                    };
                    local_retries += u64::from(attempt);
                    let Some((status, body)) = outcome else {
                        continue;
                    };
                    let mut seed = Vec::with_capacity(body.len() + 2);
                    seed.extend_from_slice(&status.to_be_bytes());
                    seed.extend_from_slice(&body);
                    local.push(Observation {
                        index,
                        trace: planned.trace,
                        kind: planned.kind,
                        status,
                        body_len: body.len() as u64,
                        digest: fnv1a(&seed),
                        latency: issued.elapsed(),
                    });
                }
                obs::lock_clean(observations).extend(local);
                retries_503.fetch_add(local_retries, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });

    let elapsed = started.elapsed();
    let mut routes: BTreeMap<&'static str, RouteTally> = BTreeMap::new();
    let mut route_latency: BTreeMap<&'static str, LogHistogram> = BTreeMap::new();
    for kind in Kind::ALL {
        routes.insert(kind.label(), RouteTally::default());
        route_latency.insert(kind.label(), LogHistogram::new());
    }
    let mut latency = LogHistogram::new();
    let mut non_ok = 0u64;
    let mut requests = Vec::new();
    for obs in observations.into_inner().unwrap_or_else(|e| e.into_inner()) {
        requests.push(RequestSample {
            index: obs.index,
            trace: obs.trace,
            kind: obs.kind,
            status: obs.status,
            latency_ns: obs.latency.as_nanos() as u64,
        });
        let tally = routes.entry(obs.kind.label()).or_default();
        tally.requests += 1;
        if obs.kind.deterministic_body() {
            tally.body_bytes += obs.body_len;
            tally.checksum = tally.checksum.wrapping_add(obs.digest);
        }
        if obs.status == 200 {
            tally.ok += 1;
        } else {
            non_ok += 1;
        }
        latency.record(obs.latency);
        route_latency
            .entry(obs.kind.label())
            .or_default()
            .record(obs.latency);
    }
    requests.sort_by_key(|s| s.index);
    RunReport {
        routes,
        non_ok,
        retries_503: retries_503.into_inner(),
        elapsed,
        latency,
        route_latency,
        requests,
    }
}

/// Uniform `[0, 1)` backoff jitter keyed by `(policy seed, path,
/// attempt)` — stateless, so concurrent client threads never couple and
/// two same-seed runs sleep identically.
fn backoff_jitter(retry: &RetryPolicy, planned: &Planned, attempt: u32) -> f64 {
    spotmarket::faults::hash_prob(
        retry.seed,
        "loadgen-retry",
        fnv1a(planned.path.as_bytes()).wrapping_add(u64::from(attempt)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::Az;

    fn config() -> WorkloadConfig {
        let catalog = Catalog::standard();
        WorkloadConfig {
            requests: 200,
            rate_per_sec: 1000.0,
            clients: 4,
            combos: vec![
                Combo::new(
                    Az::parse("us-east-1c").unwrap(),
                    catalog.type_id("c3.4xlarge").unwrap(),
                ),
                Combo::new(
                    Az::parse("us-west-2a").unwrap(),
                    catalog.type_id("c4.large").unwrap(),
                ),
            ],
            p: 0.95,
            mix: [0.4, 0.45, 0.1, 0.05],
            virtual_now: None,
        }
    }

    #[test]
    fn plan_is_deterministic_in_seed_and_config() {
        let catalog = Catalog::standard();
        let a = build_plan(&config(), &StreamFactory::new(1234), catalog);
        let b = build_plan(&config(), &StreamFactory::new(1234), catalog);
        assert_eq!(a, b);
        let c = build_plan(&config(), &StreamFactory::new(1235), catalog);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn plan_arrivals_are_sorted_and_open_loop_rate_is_plausible() {
        let catalog = Catalog::standard();
        let plan = build_plan(&config(), &StreamFactory::new(7), catalog);
        assert_eq!(plan.len(), 200);
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
        // 200 requests at 1000/s should land in the ballpark of 0.2 s.
        let span = plan.last().unwrap().at.as_secs_f64();
        assert!(span > 0.05 && span < 1.0, "span {span}");
    }

    #[test]
    fn plan_covers_every_route_kind() {
        let catalog = Catalog::standard();
        let plan = build_plan(&config(), &StreamFactory::new(7), catalog);
        for kind in Kind::ALL {
            assert!(plan.iter().any(|p| p.kind == kind), "{kind:?} missing");
        }
        assert!(plan
            .iter()
            .filter(|p| p.kind == Kind::Bid)
            .all(|p| p.path.starts_with("/v1/bid?duration=")));
    }

    #[test]
    fn plan_trace_ids_are_seeded_nonzero_and_unique() {
        let catalog = Catalog::standard();
        let plan = build_plan(&config(), &StreamFactory::new(7), catalog);
        let ids: std::collections::BTreeSet<u64> = plan.iter().map(|p| p.trace).collect();
        assert!(!ids.contains(&0), "zero would disable the trace header");
        assert_eq!(ids.len(), plan.len(), "trace ids collide");
        let again = build_plan(&config(), &StreamFactory::new(7), catalog);
        assert!(
            plan.iter().zip(&again).all(|(a, b)| a.trace == b.trace),
            "trace ids are not a pure function of the seed"
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned test vectors (FNV-1a 64).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn virtual_now_marches_across_the_plan() {
        let catalog = Catalog::standard();
        let mut cfg = config();
        cfg.virtual_now = Some((1_000_000, 5));
        let plan = build_plan(&cfg, &StreamFactory::new(7), catalog);
        for (i, planned) in plan.iter().enumerate() {
            let want = format!("now={}", 1_000_000 + i as u64 * 5);
            assert!(
                planned.path.ends_with(&want),
                "request {i} path {} missing {want}",
                planned.path
            );
            // Exactly one separator introduces the override.
            let seps = planned.path.matches(['?', '&']).count();
            let qs = planned.path.split_once('?').unwrap().1;
            assert_eq!(seps, 1 + qs.matches('&').count());
        }
    }

    /// A hand-rolled two-response server: sheds the first request with a
    /// `Retry-After` 503, serves the retry. Exercises the seeded backoff
    /// path end to end without booting a real `drafts-serve`.
    #[test]
    fn retry_policy_honors_retry_after_on_503() {
        use std::io::{Read, Write};
        use std::net::TcpListener;

        fn respond(listener: &TcpListener, head: &str, body: &[u8]) {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = conn.read(&mut buf);
            let resp = format!(
                "HTTP/1.1 {head}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            conn.write_all(resp.as_bytes()).unwrap();
            conn.write_all(body).unwrap();
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = std::thread::spawn(move || {
            respond(
                &listener,
                "503 Service Unavailable\r\nRetry-After: 1",
                br#"{"error":"overloaded"}"#,
            );
            respond(&listener, "200 OK", br#"{"ok":true}"#);
        });
        let plan = vec![Planned {
            at: Duration::ZERO,
            kind: Kind::Health,
            path: "/v1/health".to_string(),
            trace: 0,
        }];
        let report = run_with(
            addr,
            &plan,
            1,
            Duration::from_secs(5),
            &RetryPolicy::seeded(7),
        );
        served.join().unwrap();
        assert_eq!(report.retries_503, 1, "the shed response was retried");
        assert_eq!(report.non_ok, 0, "the retry's 200 is the recorded answer");
        assert_eq!(report.routes["health"].ok, 1);
        assert_eq!(report.requests.len(), 1, "one per-request sample");
        assert_eq!(report.requests[0].index, 0);
        assert_eq!(report.requests[0].status, 200);

        // With retries disabled the shed is final — the old behavior.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = std::thread::spawn(move || {
            respond(
                &listener,
                "503 Service Unavailable\r\nRetry-After: 1",
                br#"{"error":"overloaded"}"#,
            );
        });
        let report = run_with(addr, &plan, 1, Duration::from_secs(5), &RetryPolicy::none());
        served.join().unwrap();
        assert_eq!(report.retries_503, 0);
        assert_eq!(report.non_ok, 1);
    }

    /// A hostile or broken server announces a 1 TiB body, sends a header
    /// line longer than the limit with no newline, or sends one header too
    /// many. Each is an error before any buffer is sized from the
    /// announcement; none waits for the read timeout.
    #[test]
    fn oversized_responses_are_errors_not_allocations() {
        use std::io::{BufRead, Read, Write};
        use std::net::TcpListener;

        let long_line = format!(
            "HTTP/1.1 200 OK\r\nX-Pad: {}",
            "a".repeat(server::http::MAX_HEADER_LINE + 1)
        );
        let many_headers = format!(
            "HTTP/1.1 200 OK\r\n{}Content-Length: 0\r\n\r\n",
            "X-Pad: a\r\n".repeat(server::http::MAX_HEADERS)
        );
        for reply in [
            "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n{".to_string(),
            long_line,
            many_headers,
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            // Both of the client's attempts (it reconnects once) get the
            // reply; each connection stays open until the client hangs up.
            let served = std::thread::spawn(move || {
                for conn in listener.incoming().take(2) {
                    let mut conn = std::io::BufReader::new(conn.unwrap());
                    let mut line = String::new();
                    while conn.read_line(&mut line).unwrap() > 2 {
                        line.clear();
                    }
                    conn.get_mut().write_all(reply.as_bytes()).unwrap();
                    let _ = conn.read_to_end(&mut Vec::new());
                }
            });
            let mut client = Client::new(addr, Duration::from_secs(30));
            let started = Stopwatch::start();
            let err = client.get("/v1/health").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(started.elapsed() < Duration::from_secs(10));
            drop(client);
            served.join().unwrap();
        }
    }
}
