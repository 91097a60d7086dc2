//! End-to-end tests of the drafts-serve layer over real loopback sockets:
//! keep-alive concurrency, byte-determinism across independently booted
//! servers, load shedding under a saturated accept queue, graceful drain
//! (an in-flight first request served, an idle keep-alive closed at
//! once), and handler-panic isolation.

use drafts_core::predictor::DraftsConfig;
use drafts_core::service::{DraftsService, ServiceConfig};
use loadgen::Client;
use server::{Router, Server, ServerConfig};
use spotmarket::archetype::Archetype;
use spotmarket::faults::{CleanFeed, FeedError, FeedSource};
use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
use spotmarket::{Az, Catalog, Combo, PriceHistory, DAY, HOUR};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const NOW: u64 = 20 * DAY;

/// A two-market service, deterministic in `seed`.
fn service(seed: u64) -> DraftsService {
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
    for (i, (az, ty)) in [("us-east-1c", "c3.4xlarge"), ("us-west-2a", "c4.large")]
        .into_iter()
        .enumerate()
    {
        let combo = Combo::new(Az::parse(az).unwrap(), catalog.type_id(ty).unwrap());
        svc.register(generate_with_archetype(
            combo,
            catalog,
            &TraceConfig::days(30, seed ^ (i as u64 + 1)),
            Archetype::Choppy,
        ));
    }
    svc
}

fn start(seed: u64, cfg: ServerConfig) -> Server {
    let router = Router::new(Arc::new(service(seed)), NOW);
    Server::start(router, cfg).expect("bind loopback")
}

fn start_debug(seed: u64, cfg: ServerConfig) -> Server {
    let router = Router::new(Arc::new(service(seed)), NOW).with_debug_routes();
    Server::start(router, cfg).expect("bind loopback")
}

/// One raw `Connection: close` round trip; returns the full response
/// bytes, headers included.
fn raw_get(addr: SocketAddr, path: &str) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("send");
    let mut out = Vec::new();
    conn.read_to_end(&mut out).expect("read");
    out
}

const PATHS: [&str; 5] = [
    "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge",
    "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?p=0.95",
    "/v1/bid?duration=3600&p=0.95",
    "/v1/bid?duration=43200",
    "/v1/health",
];

#[test]
fn concurrent_keepalive_clients_see_identical_bytes_across_two_runs() {
    // Two servers booted independently from the same seed...
    let a = start(77, ServerConfig::default());
    let b = start(77, ServerConfig::default());

    // ...serve byte-identical responses (headers included: no Date, fixed
    // header order, deterministic JSON rendering).
    for path in PATHS {
        assert_eq!(
            raw_get(a.addr(), path),
            raw_get(b.addr(), path),
            "response bytes differ for {path}"
        );
    }

    // Concurrent keep-alive clients: every thread reuses one connection
    // for all paths, and every thread sees the same bodies.
    let addr = a.addr();
    let mut per_thread: Vec<Vec<(u16, Vec<u8>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, Duration::from_secs(5));
                    PATHS
                        .iter()
                        .map(|p| client.get(p).expect("keep-alive get"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let first = per_thread.pop().unwrap();
    for other in per_thread {
        assert_eq!(first, other, "threads observed different responses");
    }
    assert!(first.iter().all(|(status, _)| *status == 200));

    let ra = a.shutdown();
    assert_eq!(ra.admitted, ra.served);
    b.shutdown();
}

#[test]
fn saturated_accept_queue_sheds_503_and_never_hangs() {
    let srv = start(
        78,
        ServerConfig {
            workers: 1,
            accept_queue: 1,
            connection_deadline: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let addr = srv.addr();

    // Pin the single worker: a connection that sends no request holds it
    // until the 300 ms read deadline fires.
    let mut stall = TcpStream::connect(addr).expect("stall connect");
    std::thread::sleep(Duration::from_millis(50));

    // Flood past the one-slot queue. Everything must resolve quickly —
    // either a 200 (the queued slot, served after the stall times out)
    // or an immediate 503 with Retry-After; nothing may hang.
    let results: Vec<(u16, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, Duration::from_secs(5));
                    client.get("/v1/health").expect("flood get resolves")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed = results.iter().filter(|(s, _)| *s == 503).count();
    let ok = results.iter().filter(|(s, _)| *s == 200).count();
    assert_eq!(shed + ok, 8, "unexpected statuses: {results:?}");
    assert!(shed >= 1, "flooding a full queue must shed");
    assert!(srv.metrics().shed.get() >= shed as u64);

    // The shed response carries the backoff hint.
    if let Some((_, body)) = results.iter().find(|(s, _)| *s == 503) {
        assert!(
            String::from_utf8_lossy(body).contains("overloaded"),
            "503 body should say overloaded"
        );
    }

    // Late requests succeed once the flood clears.
    let mut client = Client::new(addr, Duration::from_secs(5));
    let waited = obs::Stopwatch::start();
    loop {
        match client.get("/v1/health") {
            Ok((200, _)) => break,
            _ if waited.elapsed() < Duration::from_secs(5) => {
                std::thread::sleep(Duration::from_millis(50))
            }
            other => panic!("server never recovered: {other:?}"),
        }
    }
    stall.write_all(b" ").ok();
    drop(stall);
    let report = srv.shutdown();
    assert_eq!(
        report.admitted, report.served,
        "drain dropped admitted work"
    );
}

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let srv = start(
        79,
        ServerConfig {
            workers: 2,
            connection_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    );
    let addr = srv.addr();

    // Admit a connection whose request arrives only *after* shutdown has
    // begun: the drain must still serve it, not sever it.
    let mut lagging = TcpStream::connect(addr).expect("connect");
    lagging.set_nodelay(true).unwrap();
    lagging
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50)); // ensure it is admitted

    let shutdown = std::thread::spawn(move || srv.shutdown());
    std::thread::sleep(Duration::from_millis(100));
    lagging
        .write_all(b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send during drain");
    let mut response = Vec::new();
    lagging
        .read_to_end(&mut response)
        .expect("read during drain");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 200 OK\r\n"),
        "in-flight request must complete during drain, got: {text}"
    );
    assert!(
        text.contains("Connection: close"),
        "drain must close keep-alive connections after the response"
    );

    let report = shutdown.join().expect("shutdown thread");
    assert_eq!(
        report.admitted, report.served,
        "drain dropped admitted work"
    );
    assert!(report.admitted >= 1);
}

#[test]
fn drain_closes_an_answered_idle_keep_alive_at_once() {
    // A client answered once and still connected leaves its worker in a
    // keep-alive read. The drain must close that read itself, not wait
    // out the 5 s connection deadline for the client to hang up.
    let srv = start(
        84,
        ServerConfig {
            connection_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(srv.addr(), Duration::from_secs(5));
    let (status, _) = client.get("/v1/health").expect("health");
    assert_eq!(status, 200);

    let watch = obs::Stopwatch::start();
    let report = srv.shutdown();
    let took = watch.elapsed();
    assert_eq!(
        report.admitted, report.served,
        "drain dropped admitted work"
    );
    assert!(
        took < Duration::from_secs(1),
        "shutdown waited {took:?} on an idle keep-alive"
    );
    drop(client);
}

#[test]
fn handler_panics_are_isolated_from_other_connections_and_workers() {
    let srv = start_debug(
        80,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let addr = srv.addr();

    // Hammer the panic route from several threads, interleaved with real
    // traffic on the same worker pool. The shared service state behind
    // `parallel::lock_clean` must stay usable: a panicked handler cannot
    // poison it for anyone else.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let mut client = Client::new(addr, Duration::from_secs(5));
                for _ in 0..5 {
                    let (status, _) = client
                        .get("/v1/_debug/panic")
                        .expect("panic route responds");
                    assert_eq!(status, 500, "panic surfaces as 500, not a hang");
                    let (status, _) = client.get("/v1/health").expect("health after panic");
                    assert_eq!(status, 200, "worker must survive the panic");
                }
            });
        }
    });

    let metrics = srv.metrics();
    assert_eq!(metrics.handler_panics.get(), 20, "every panic is counted");

    // The pool still serves real queries afterwards.
    let mut client = Client::new(addr, Duration::from_secs(5));
    let (status, body) = client
        .get("/v1/bid?duration=3600")
        .expect("bid after storm");
    assert_eq!(status, 200);
    let doc = server::Json::parse(&String::from_utf8(body).unwrap()).unwrap();
    assert!(
        server::BidQuoteWire::from_json(&doc).is_some(),
        "quote still decodes"
    );

    let report = srv.shutdown();
    assert_eq!(report.admitted, report.served);
    assert_eq!(report.handler_panics, 20);
}

#[test]
fn metrics_exposition_is_byte_identical_across_two_boots() {
    // Two independently booted servers, driven through the identical
    // sequential request sequence, must render byte-identical
    // `/v1/metrics` expositions: every counter — requests per route,
    // cache hits/misses, computes, health transitions, stage span counts
    // — is a pure function of (seed, request sequence) under virtual
    // time. Only `_count` lines are exposed for the span histograms, so
    // wall-clock durations never leak into the body.
    let a = start(81, ServerConfig::default());
    let b = start(81, ServerConfig::default());
    for path in PATHS {
        assert_eq!(raw_get(a.addr(), path), raw_get(b.addr(), path));
    }
    let ea = raw_get(a.addr(), "/v1/metrics");
    let eb = raw_get(b.addr(), "/v1/metrics");
    assert_eq!(ea, eb, "metrics exposition differs across boots");

    let text = String::from_utf8(ea).unwrap();
    // The migrated exposition is a strict superset of the legacy one:
    // old names still present, new families appended.
    for needle in [
        "drafts_requests_total{route=\"graphs\"} 2",
        "drafts_requests_total{route=\"bid\"} 2",
        "drafts_connections_total",
        "drafts_cache_hits_total",
        "drafts_cache_misses_total",
        "drafts_computes_total",
        "drafts_health_transitions_total{to=\"fresh\"} 2",
        "drafts_stage_total_ns_count{stage=\"http_graphs\"} 2",
        "drafts_stage_self_ns_count{stage=\"qbets_price\"}",
        "drafts_pool_tasks_total 0",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn slo_and_events_routes_are_byte_identical_across_two_boots() {
    // Two independently booted servers driven through the identical
    // sequential request sequence — crossing a window-interval boundary —
    // must render byte-identical `/v1/slo` and `/v1/_debug/events`
    // bodies: window deltas, burn rates, and event timestamps are all
    // pure functions of (seed, request sequence) under virtual `?now=`.
    let cfg = ServerConfig {
        event_log: 128,
        ..ServerConfig::default()
    };
    let a = start_debug(83, cfg.clone());
    let b = start_debug(83, cfg);
    let drive = |addr: SocketAddr| {
        for path in PATHS {
            raw_get(addr, path);
        }
        raw_get(addr, &format!("/v1/bid?duration=3600&now={}", NOW + 900));
        raw_get(addr, &format!("/v1/slo?now={}", NOW + 900));
    };
    drive(a.addr());
    drive(b.addr());
    for path in [
        format!("/v1/slo?now={}", NOW + 1800),
        "/v1/_debug/events?n=64".to_string(),
        "/v1/_debug/events?n=0".to_string(),
        "/v1/_debug/events?n=100000".to_string(),
        "/v1/_debug/events".to_string(),
    ] {
        assert_eq!(
            raw_get(a.addr(), &path),
            raw_get(b.addr(), &path),
            "response bytes differ for {path}"
        );
    }

    // The zero-fault drive keeps every objective Ok.
    let mut client = Client::new(a.addr(), Duration::from_secs(5));
    let (status, body) = client
        .get(&format!("/v1/slo?now={}", NOW + 1800))
        .expect("slo get");
    assert_eq!(status, 200);
    let doc = server::Json::parse(&String::from_utf8(body).unwrap()).unwrap();
    let slos = doc.get("slos").unwrap().as_arr().unwrap();
    assert_eq!(slos.len(), 3);
    for s in slos {
        assert_eq!(s.get("state").unwrap().as_str(), Some("ok"), "{s:?}");
    }

    // The ring holds the boot-time health transitions (none -> fresh for
    // each combo, stamped with the bucket's virtual time) and no warnings
    // or errors at all.
    let (status, body) = client.get("/v1/_debug/events?n=128").expect("events get");
    assert_eq!(status, 200);
    let doc = server::Json::parse(&String::from_utf8(body).unwrap()).unwrap();
    let events = doc.get("events").unwrap().as_arr().unwrap();
    let transitions: Vec<_> = events
        .iter()
        .filter(|e| e.get("kind").unwrap().as_str() == Some("health_transition"))
        .collect();
    assert_eq!(transitions.len(), 2, "one initial transition per combo");
    for t in &transitions {
        let fields = t.get("fields").unwrap();
        assert_eq!(fields.get("from").unwrap().as_str(), Some("none"));
        assert_eq!(fields.get("to").unwrap().as_str(), Some("fresh"));
        assert_eq!(t.get("now").unwrap().as_u64(), Some(NOW));
    }
    assert!(events
        .iter()
        .all(|e| e.get("level").unwrap().as_str() == Some("info")));

    // Edge cases: n=0 is empty, oversized n returns everything retained,
    // malformed n is a 400.
    let (status, body) = client.get("/v1/_debug/events?n=0").expect("n=0");
    assert_eq!(status, 200);
    let doc = server::Json::parse(&String::from_utf8(body).unwrap()).unwrap();
    assert!(doc.get("events").unwrap().as_arr().unwrap().is_empty());
    let (status, body) = client.get("/v1/_debug/events?n=100000").expect("big n");
    assert_eq!(status, 200);
    let doc = server::Json::parse(&String::from_utf8(body).unwrap()).unwrap();
    assert_eq!(doc.get("capacity").unwrap().as_u64(), Some(128));
    assert!(doc.get("events").unwrap().as_arr().unwrap().len() <= 128);
    let (status, _) = client.get("/v1/_debug/events?n=abc").expect("bad n");
    assert_eq!(status, 400);
    drop(client);

    // Ring disabled: 404 even with debug routes on.
    let plain = start_debug(83, ServerConfig::default());
    let mut client = Client::new(plain.addr(), Duration::from_secs(5));
    let (status, _) = client.get("/v1/_debug/events").expect("disabled get");
    assert_eq!(status, 404, "disabled event ring must 404");
    drop(client);
    plain.shutdown();
    a.shutdown();
    b.shutdown();
}

/// A feed with one fixed outage window over otherwise-clean data.
struct OutageFeed {
    inner: CleanFeed,
    from: u64,
    until: u64,
}

impl FeedSource for OutageFeed {
    fn combo(&self) -> Combo {
        self.inner.combo()
    }
    fn poll(&self, now: u64, attempt: u32) -> Result<Arc<PriceHistory>, FeedError> {
        if (self.from..self.until).contains(&now) {
            Err(FeedError::Outage { until: self.until })
        } else {
            self.inner.poll(now, attempt)
        }
    }
}

/// One instance serving a single market whose feed is out from `NOW`
/// to `NOW + 12h`: fresh before, stale within the staleness budget,
/// unavailable (degraded quotes) past it.
fn start_outage(seed: u64) -> Server {
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
    let truth = Arc::new(generate_with_archetype(
        combo,
        catalog,
        &TraceConfig::days(30, seed),
        Archetype::Choppy,
    ));
    svc.register_feed(Arc::new(OutageFeed {
        inner: CleanFeed::new(truth),
        from: NOW,
        until: NOW + 12 * HOUR,
    }));
    let router = Router::new(Arc::new(svc), NOW).with_debug_routes();
    Server::start(
        router,
        ServerConfig {
            event_log: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

#[test]
fn injected_outage_sweep_flips_slos_to_breach_with_events_in_the_ring() {
    let drive = |addr: SocketAddr| -> (Vec<u8>, Vec<u8>) {
        // Sweep virtual time from just before the outage deep into it, in
        // recompute-period steps: fresh -> stale -> unavailable.
        let mut client = Client::new(addr, Duration::from_secs(5));
        for i in 0..=20u64 {
            let now = NOW - 900 + i * 900;
            let (status, _) = client
                .get(&format!("/v1/bid?duration=3600&now={now}"))
                .expect("bid sweep");
            assert_eq!(status, 200, "degraded quotes still serve");
        }
        let slo = client
            .get(&format!("/v1/slo?now={}", NOW + 5 * HOUR))
            .expect("slo get");
        assert_eq!(slo.0, 200);
        let events = client.get("/v1/_debug/events?n=256").expect("events get");
        assert_eq!(events.0, 200);
        (slo.1, events.1)
    };

    let a = start_outage(91);
    let (slo_a, events_a) = drive(a.addr());

    let doc = server::Json::parse(&String::from_utf8(slo_a.clone()).unwrap()).unwrap();
    let slos = doc.get("slos").unwrap().as_arr().unwrap();
    let state_of = |name: &str| {
        slos.iter()
            .find(|s| s.get("name").unwrap().as_str() == Some(name))
            .unwrap()
            .get("state")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    // The single combo is long past its staleness budget: the instant
    // freshness objective breaches, and every quote in the fast window
    // was degraded, so the degraded-fraction objective breaches too.
    assert_eq!(state_of("feed_freshness"), "breach");
    assert_eq!(state_of("bid_degraded"), "breach");
    assert_eq!(state_of("serve_latency"), "ok");

    // The triggering events are all in the ring: the health decay arc,
    // the retry exhaustion, and the SLO transitions themselves.
    let doc = server::Json::parse(&String::from_utf8(events_a.clone()).unwrap()).unwrap();
    let events = doc.get("events").unwrap().as_arr().unwrap();
    let arcs: Vec<(String, String)> = events
        .iter()
        .filter(|e| e.get("kind").unwrap().as_str() == Some("health_transition"))
        .map(|e| {
            let f = e.get("fields").unwrap();
            (
                f.get("from").unwrap().as_str().unwrap().to_string(),
                f.get("to").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect();
    let arc_strs: Vec<(&str, &str)> = arcs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    assert_eq!(
        arc_strs,
        [
            ("none", "fresh"),
            ("fresh", "stale"),
            ("stale", "unavailable")
        ],
        "health must decay through the full arc exactly once"
    );
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.get("kind").unwrap().as_str().unwrap())
        .collect();
    assert!(kinds.contains(&"feed_fault"), "retry exhaustion must log");
    assert!(
        kinds.contains(&"slo_transition"),
        "breach transitions must log"
    );

    // And the whole story replays bit-for-bit on a second boot.
    let b = start_outage(91);
    let (slo_b, events_b) = drive(b.addr());
    assert_eq!(slo_a, slo_b, "slo body differs across boots");
    assert_eq!(events_a, events_b, "event dump differs across boots");
    a.shutdown();
    b.shutdown();
}

#[test]
fn slo_windows_roll_on_interval_boundaries() {
    // One instance, one sequential client, `?now=` stepping through ten
    // 900 s window intervals from just before the outage. Reads at
    // intervals 1 and 9 open their interval themselves, and interval 7
    // has no traffic. A request counted before the window clock moves
    // lands one interval early: the bid opening interval 8 would fall
    // out of the fast window read at 8 and 9, and a count taken at
    // dispatch would also count the interval-1 read in its own answer.
    // Quotes degrade past the staleness budget from interval 5 on.
    let server = start_outage(97);
    let mut client = Client::new(server.addr(), Duration::from_secs(5));
    let mut get = |path: String| {
        let (status, body) = client.get(&path).expect("get");
        assert_eq!(status, 200, "{path}");
        server::Json::parse(&String::from_utf8(body).unwrap()).unwrap()
    };
    let t0 = NOW - 900;
    let mut reads = Vec::new();
    for k in (0..=9u64).filter(|&k| k != 7) {
        let t = t0 + k * 900;
        if k == 1 || k == 9 {
            reads.push(get(format!("/v1/slo?now={t}")));
        }
        get(format!("/v1/bid?duration=3600&now={}", t + 1));
        get(format!(
            "/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?now={}",
            t + 300
        ));
        get(format!("/v1/health?now={}", t + 600));
        if k == 2 || k == 8 {
            reads.push(get(format!("/v1/slo?now={}", t + 899)));
        }
    }
    let field = |j: &server::Json, key: &str| j.get(key).unwrap().as_u64().unwrap();
    let text = |j: &server::Json, key: &str| j.get(key).unwrap().as_str().unwrap().to_string();
    // (name, state, fast_good, fast_total, fast_burn_bp, slow_burn_bp)
    type Row = (String, String, u64, u64, u64, u64);
    let rows: Vec<Vec<Row>> = reads
        .iter()
        .map(|doc| {
            doc.get("slos")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|s| {
                    (
                        text(s, "name"),
                        text(s, "state"),
                        field(s, "fast_good"),
                        field(s, "fast_total"),
                        field(s, "fast_burn_bp"),
                        field(s, "slow_burn_bp"),
                    )
                })
                .collect()
        })
        .collect();
    let row = |name: &str, state: &str, good, total, fast, slow| {
        (name.to_string(), state.to_string(), good, total, fast, slow)
    };
    assert_eq!(
        rows,
        [
            vec![
                row("serve_latency", "ok", 3, 3, 0, 0),
                row("bid_degraded", "ok", 1, 1, 0, 0),
                row("feed_freshness", "ok", 1, 1, 0, 0),
            ],
            vec![
                row("serve_latency", "ok", 7, 7, 0, 0),
                row("bid_degraded", "ok", 2, 2, 0, 0),
                row("feed_freshness", "warn", 0, 1, 0, 0),
            ],
            vec![
                row("serve_latency", "ok", 3, 3, 0, 0),
                row("bid_degraded", "breach", 0, 1, 200_000, 85_700),
                row("feed_freshness", "breach", 0, 1, 100_000, 100_000),
            ],
            vec![
                row("serve_latency", "ok", 4, 4, 0, 0),
                row("bid_degraded", "breach", 0, 1, 200_000, 100_000),
                row("feed_freshness", "breach", 0, 1, 100_000, 100_000),
            ],
        ]
    );

    // The transitions, in order, with the burns that drove them.
    let events = get("/v1/_debug/events?n=256".to_string());
    let transitions: Vec<String> = events
        .get("events")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| text(e, "kind") == "slo_transition")
        .map(|e| {
            let f = e.get("fields").unwrap();
            format!(
                "{} {} {} {}->{} fast={} slow={}",
                field(e, "now"),
                text(e, "level"),
                text(f, "slo"),
                text(f, "from"),
                text(f, "to"),
                text(f, "fast_burn_bp"),
                text(f, "slow_burn_bp"),
            )
        })
        .collect();
    assert_eq!(
        transitions,
        [
            "1729799 warn feed_freshness ok->warn fast=0 slow=0",
            "1735199 error bid_degraded ok->breach fast=200000 slow=85700",
            "1735199 error feed_freshness warn->breach fast=100000 slow=100000",
        ]
    );
    drop(client);
    server.shutdown();
}
