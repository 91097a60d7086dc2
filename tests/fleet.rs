//! End-to-end fleet tests over real loopback sockets: chaos failover
//! after a genuine shard crash, graceful drain mid-failover, explicit
//! refusal when a key's whole owner set is gone, two-boot byte
//! determinism under a seeded logical fault plan, scatter legs over
//! connections the shards closed while they idled, a hostile shard
//! announcing an unbounded answer, a hostile client's far-future
//! `?now=`, and a shutdown that closes idle keep-alives at once.
//!
//! The experiments harness (`repro fleet`) exercises the *logical*
//! fault path, where chaos is evaluated in virtual time and everything
//! is byte-deterministic. These tests exercise the *transport* path:
//! shards really stop, the front really sees connection failures, and
//! the probe state machine really walks Up → Degraded → Down.

use drafts_core::predictor::DraftsConfig;
use drafts_core::service::ServiceConfig;
use drafts_core::DraftsService;
use server::{Fleet, FleetConfig, FrontRouter, Json, Server};
use spotmarket::archetype::Archetype;
use spotmarket::faults::ShardFaults;
use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
use spotmarket::{Az, Catalog, Combo, PriceHistory, DAY};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xF1EE7;
const NOW: u64 = 20 * DAY; // bucket-aligned; tests stay inside one bucket

fn combos() -> Vec<Combo> {
    let catalog = Catalog::standard();
    [
        ("us-east-1c", "c3.4xlarge"),
        ("us-west-2a", "c4.large"),
        ("us-east-1b", "c3.xlarge"),
        ("us-west-1a", "c4.xlarge"),
        ("us-east-1d", "c4.2xlarge"),
        ("us-west-2b", "c3.large"),
    ]
    .iter()
    .map(|&(az, ty)| {
        Combo::new(
            Az::parse(az).expect("known az"),
            catalog.type_id(ty).expect("known type"),
        )
    })
    .collect()
}

/// Builds the per-shard services from the config's ring (primary and
/// replica share one copy of the combo's history, as the experiment's
/// fleet builder does), warms them, boots the fleet.
fn boot(cfg: FleetConfig) -> (Fleet, Vec<Combo>) {
    let catalog = Catalog::standard();
    let combos = combos();
    let ring = cfg.ring();
    let histories: Vec<Arc<PriceHistory>> = combos
        .iter()
        .enumerate()
        .map(|(i, &combo)| {
            let archetype = match i % 3 {
                0 => Archetype::Choppy,
                1 => Archetype::Calm,
                _ => Archetype::Spiky,
            };
            Arc::new(generate_with_archetype(
                combo,
                catalog,
                &TraceConfig::days(30, SEED ^ (i as u64 + 1)),
                archetype,
            ))
        })
        .collect();
    let services: Vec<Arc<DraftsService>> = (0..cfg.shards)
        .map(|shard| {
            let mut svc = DraftsService::new(ServiceConfig {
                drafts: DraftsConfig {
                    changepoint: None,
                    autocorr: false,
                    duration_stride: 6,
                    ..DraftsConfig::default()
                },
                ..ServiceConfig::default()
            });
            for (i, &combo) in combos.iter().enumerate() {
                if ring.owners(combo.key()).contains(&shard) {
                    svc.register(Arc::clone(&histories[i]));
                }
            }
            svc.warm(NOW);
            Arc::new(svc)
        })
        .collect();
    let fleet = Fleet::start(services, NOW, cfg).expect("boot fleet");
    (fleet, combos)
}

fn graphs_path(combo: Combo, now: u64) -> String {
    let catalog = Catalog::standard();
    format!(
        "/v1/graphs/{}/{}/{}?p=0.95&now={now}",
        combo.az.region().name(),
        combo.az.name(),
        catalog.spec(combo.ty).name,
    )
}

fn get(client: &mut loadgen::Client, path: &str) -> (u16, Json) {
    let (status, body) = client.get(path).expect("front reachable");
    let text = std::str::from_utf8(&body).expect("utf8 body");
    (status, Json::parse(text).expect("json body"))
}

fn str_field<'j>(doc: &'j Json, key: &str) -> &'j str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

fn degraded(doc: &Json) -> bool {
    doc.get("degraded").and_then(Json::as_bool).unwrap_or(false)
}

/// The tentpole invariant, checked response by response: an answer that
/// claims to be fresh (`degraded: false`) must come from the combo's
/// primary ring owner — anything else is silently stale.
fn assert_fresh_or_tagged(cfg: &FleetConfig, combo: Combo, status: u16, doc: &Json) {
    if status != 200 {
        assert!(
            degraded(doc),
            "a refusal must be explicitly degraded: {}",
            doc.render()
        );
        return;
    }
    if !degraded(doc) {
        let primary = format!("shard-{}", cfg.ring().primary(combo.key()));
        assert_eq!(
            str_field(doc, "served_by"),
            primary,
            "fresh-looking answer not served by the primary owner"
        );
    }
}

#[test]
fn crashed_shard_fails_over_with_explicit_degraded_tags() {
    let cfg = FleetConfig::new(3);
    let (mut fleet, combos) = boot(cfg.clone());
    let ring = cfg.ring();
    let mut client = loadgen::Client::new(fleet.addr(), Duration::from_secs(5));

    // Healthy fleet: every combo fresh from its primary, and the shard
    // servers answer with their own stable instance identities.
    for &combo in &combos {
        let (status, doc) = get(&mut client, &graphs_path(combo, NOW));
        assert_eq!(status, 200);
        assert!(!degraded(&doc), "healthy fleet must not degrade");
        let primary = format!("shard-{}", ring.primary(combo.key()));
        assert_eq!(str_field(&doc, "served_by"), primary);
        assert_eq!(doc.get("failover").and_then(Json::as_bool), Some(false));
    }
    for shard in 0..cfg.shards {
        let mut direct = loadgen::Client::new(fleet.shard_addr(shard), Duration::from_secs(5));
        let (status, doc) = get(&mut direct, "/v1/health");
        assert_eq!(status, 200);
        assert_eq!(str_field(&doc, "instance"), format!("shard-{shard}"));
    }

    // Crash the primary owner of the first combo — the front is not
    // told; it has to notice via proxy errors and failing probes.
    let victim = ring.primary(combos[0].key());
    fleet.kill_shard(victim);

    // March virtual time across probe slots. Every answer stays either
    // fresh-from-primary or explicitly degraded; victim-owned combos
    // fail over to their replica.
    for now in [NOW + 30, NOW + 60, NOW + 90, NOW + 120] {
        for &combo in &combos {
            let (status, doc) = get(&mut client, &graphs_path(combo, now));
            assert_eq!(status, 200, "replication 2 absorbs one crash");
            assert_fresh_or_tagged(&cfg, combo, status, &doc);
            if ring.primary(combo.key()) == victim {
                assert!(degraded(&doc), "failover answers must be tagged");
                assert_ne!(str_field(&doc, "served_by"), format!("shard-{victim}"));
                assert_eq!(doc.get("failover").and_then(Json::as_bool), Some(true));
            }
        }
    }

    // The probe state machine saw real failures and took the victim to
    // `down`; the front's health rollup says so and still reports every
    // combo as served (by the replicas).
    assert!(fleet.front().counters().probe_failures[victim].get() >= 2);
    let (status, health) = get(&mut client, &format!("/v1/health?now={}", NOW + 120));
    assert_eq!(status, 200);
    assert_eq!(str_field(&health, "instance"), "fleet-front");
    let shards = health.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(str_field(&shards[victim], "state"), "down");
    let unavailable = health
        .get("counts")
        .and_then(|c| c.get("unavailable"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(unavailable, 0, "replicas cover every combo");

    // Bids keep flowing too: the winner is never silently stale.
    let (status, bid) = get(
        &mut client,
        &format!("/v1/bid?duration=3600&now={}", NOW + 120),
    );
    assert_eq!(status, 200);
    let quoted = Combo::new(
        Az::parse(str_field(&bid, "az")).expect("az"),
        Catalog::standard()
            .type_id(str_field(&bid, "type"))
            .expect("type"),
    );
    assert_fresh_or_tagged(&cfg, quoted, status, &bid);

    fleet.shutdown();
}

#[test]
fn graceful_drain_mid_failover_never_drops_admitted_work() {
    let cfg = FleetConfig::new(3);
    let (mut fleet, combos) = boot(cfg.clone());
    let ring = cfg.ring();
    let addr = fleet.addr();

    // Put the fleet mid-failover first: crash one shard for real.
    let crashed = ring.primary(combos[0].key());
    fleet.kill_shard(crashed);
    // Then gracefully drain a *different* shard while client threads
    // hammer the front — the SIGTERM path under chaos.
    let drained = (0..cfg.shards)
        .find(|&s| s != crashed)
        .expect("another shard");

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut workers = Vec::new();
    for worker in 0..4 {
        let stop = stop.clone();
        let combos = combos.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = loadgen::Client::new(addr, Duration::from_secs(5));
            let mut answers = Vec::new();
            let mut i = worker;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let combo = combos[i % combos.len()];
                // Virtual time past the probe grid's first failure slots.
                let path = graphs_path(combo, NOW + 30 + (i % 4) as u64 * 30);
                if let Ok((status, body)) = client.get(&path) {
                    answers.push((combo, status, body));
                }
                i += 1;
            }
            answers
        }));
    }
    // Let the workers get in flight, then drain mid-traffic.
    std::thread::sleep(Duration::from_millis(50));
    let report = fleet.drain_shard(drained);
    assert_eq!(
        report.admitted, report.served,
        "graceful drain dropped admitted work"
    );
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut total = 0usize;
    for worker in workers {
        for (combo, status, body) in worker.join().expect("worker") {
            total += 1;
            let text = std::str::from_utf8(&body).expect("utf8");
            let doc = Json::parse(text).expect("json");
            // Every answer across the crash + drain window is honest:
            // fresh-from-primary, explicitly degraded, or an explicitly
            // degraded refusal. Never a stale answer, never a torn one.
            assert_fresh_or_tagged(&cfg, combo, status, &doc);
        }
    }
    assert!(total > 0, "workers observed no traffic");

    // After the drain the front refuses to route new work there.
    let mut client = loadgen::Client::new(addr, Duration::from_secs(5));
    for &combo in &combos {
        let (status, doc) = get(&mut client, &graphs_path(combo, NOW + 150));
        assert_fresh_or_tagged(&cfg, combo, status, &doc);
        if status == 200 {
            assert_ne!(
                str_field(&doc, "served_by"),
                format!("shard-{drained}"),
                "front routed new work to a drained shard"
            );
        }
    }
    let (_, health) = get(&mut client, &format!("/v1/health?now={}", NOW + 150));
    let shards = health.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(str_field(&shards[drained], "state"), "draining");

    fleet.shutdown();
}

#[test]
fn losing_every_owner_refuses_explicitly_instead_of_guessing() {
    // Two shards, replication 2: every combo is owned by both, so
    // killing both leaves no routable owner for anything.
    let cfg = FleetConfig::new(2);
    let (mut fleet, combos) = boot(cfg.clone());
    let mut client = loadgen::Client::new(fleet.addr(), Duration::from_secs(5));

    fleet.kill_shard(0);
    fleet.kill_shard(1);

    // Walk past `down_after` probe slots so both shards are Down; the
    // front must refuse with 503 + Retry-After + an explicit degraded
    // marker — a refused guarantee, never a silent guess.
    for now in [NOW + 30, NOW + 60, NOW + 120] {
        let (status, doc) = get(&mut client, &graphs_path(combos[0], now));
        assert_eq!(status, 503);
        assert!(degraded(&doc), "refusal must carry degraded: true");
        assert!(!str_field(&doc, "error").is_empty());
        assert_eq!(client.retry_after(), Some(1), "503 must carry Retry-After");
        let (status, doc) = get(&mut client, &format!("/v1/bid?duration=3600&now={now}"));
        assert_eq!(status, 503);
        assert!(degraded(&doc));
    }
    assert!(fleet.front().counters().refused.get() >= 6);

    fleet.shutdown();
}

#[test]
fn fleet_rollups_and_timelines_are_two_boot_identical_with_tracing_on() {
    // The determinism contract extended to the observability plane:
    // with tracing rings enabled and chaos expressed as a seeded
    // logical fault plan, two independently booted fleets answer the
    // fleet rollups and every merged per-request timeline with
    // identical bytes — and the silently-stale audit still holds with
    // tracing on. The only quarantined lines are the wall-clock `*_ns`
    // histogram families in the metrics exposition (span and latency
    // durations are real nanoseconds, the one explicitly wall-clock
    // artifact); every other exposition line must match byte-for-byte.
    let mut cfg = FleetConfig::new(3);
    cfg.faults = ShardFaults::sample(SEED, 3, (NOW, NOW + 240), 1, 0, 1);
    cfg.debug_routes = true;
    cfg.shard_server.trace_log = 1024;
    cfg.front_server.trace_log = 1024;
    let (fleet_a, combos) = boot(cfg.clone());
    let (fleet_b, _) = boot(cfg.clone());
    let mut a = loadgen::Client::new(fleet_a.addr(), Duration::from_secs(5));
    let mut b = loadgen::Client::new(fleet_b.addr(), Duration::from_secs(5));

    // Drive both fleets with the identical traced request sequence,
    // marching across the fault window; every response matches.
    let mut paths = Vec::new();
    for now in (NOW..NOW + 240).step_by(30) {
        for &combo in &combos {
            paths.push(graphs_path(combo, now));
        }
        paths.push(format!("/v1/bid?duration=3600&p=0.95&now={now}"));
        paths.push(format!("/v1/health?now={now}"));
    }
    let trace_of = |path: &str| obs::TraceIdGen::derive(SEED, path);
    for path in &paths {
        let ctx = obs::TraceContext::root(trace_of(path)).encode();
        let ra = a.get_traced(path, Some(&ctx)).expect("fleet A");
        let rb = b.get_traced(path, Some(&ctx)).expect("fleet B");
        assert_eq!(ra, rb, "boots diverged on {path}");
    }

    // Every request's fleet-merged timeline reconstructs to identical
    // bytes on both boots (queried at the pre-onset now so every shard
    // contributes to the merge).
    for path in &paths {
        let tpath = format!("/v1/_debug/trace/{:016x}?now={NOW}", trace_of(path));
        let ra = a.get(&tpath).expect("fleet A timeline");
        let rb = b.get(&tpath).expect("fleet B timeline");
        assert_eq!(ra.0, 200, "timeline lost for {path}");
        assert_eq!(ra, rb, "timelines diverged for {path}");
    }

    // The SLO rollup is fully deterministic: burn rates and window
    // counts are virtual-time functions of the request sequence.
    let spath = format!("/v1/fleet/slo?now={}", NOW + 240);
    let ra = a.get(&spath).expect("fleet A slo");
    let rb = b.get(&spath).expect("fleet B slo");
    assert_eq!(ra.0, 200);
    assert_eq!(ra, rb, "SLO rollups diverged");
    let slo = Json::parse(std::str::from_utf8(&ra.1).unwrap()).expect("slo json");
    let instances = slo
        .get("instances")
        .and_then(Json::as_arr)
        .expect("instances");
    assert_eq!(instances.len(), 1 + cfg.shards, "front + every shard");

    // The metrics rollup matches byte-for-byte outside the wall-clock
    // `*_ns` histogram families, and labels every sample by instance.
    let mpath = format!("/v1/fleet/metrics?now={}", NOW + 240);
    let (sa, ba) = a.get(&mpath).expect("fleet A metrics");
    let (sb, bb) = b.get(&mpath).expect("fleet B metrics");
    assert_eq!((sa, sb), (200, 200));
    let deterministic = |body: &[u8]| -> String {
        std::str::from_utf8(body)
            .expect("utf8 exposition")
            .lines()
            .filter(|line| !line.contains("_ns"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (da, db) = (deterministic(&ba), deterministic(&bb));
    assert_eq!(
        da, db,
        "metrics rollups diverged outside wall-clock families"
    );
    for instance in ["front", "shard-0", "shard-1", "shard-2"] {
        assert!(
            da.contains(&format!("instance=\"{instance}\"")),
            "rollup missing {instance}"
        );
        assert!(
            da.contains(&format!(
                "drafts_fleet_instance_up{{instance=\"{instance}\"}}"
            )),
            "rollup missing up marker for {instance}"
        );
    }

    // The silently-stale audit passes with tracing on: past every fault
    // onset, answers are still fresh-from-primary or explicitly tagged.
    for &combo in &combos {
        let (status, doc) = get(&mut a, &graphs_path(combo, NOW + 240));
        assert_fresh_or_tagged(&cfg, combo, status, &doc);
    }

    fleet_a.shutdown();
    fleet_b.shutdown();
}

#[test]
fn rollups_count_a_dead_shard_as_one_proxy_error_and_timelines_do_not() {
    // A shard crashes after its probe slot read Up, so the front still
    // routes to it and every read of it fails on the wire. Each rollup
    // counts that failure as one proxy error; the merged timeline does
    // not, since a shard that holds nothing for a trace answers 404.
    let mut cfg = FleetConfig::new(3);
    cfg.front_server.trace_log = 64;
    let (mut fleet, combos) = boot(cfg.clone());
    let mut client = loadgen::Client::new(fleet.addr(), Duration::from_secs(5));
    // The front's health read probes every shard's slot at NOW: all Up.
    let ctx = obs::TraceContext::root(0xF1EE7);
    let (status, _) = client
        .get_traced(&format!("/v1/health?now={NOW}"), Some(&ctx.encode()))
        .expect("front reachable");
    assert_eq!(status, 200);
    let victim = cfg.ring().primary(combos[0].key());
    fleet.kill_shard(victim);
    let errors = fleet.front().counters().proxy_errors.get();

    let (status, body) = client
        .get(&format!("/v1/fleet/metrics?now={NOW}"))
        .expect("front reachable");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf8 exposition");
    assert!(
        text.contains(&format!(
            "drafts_fleet_instance_up{{instance=\"shard-{victim}\"}} 0\n"
        )),
        "dead shard must read down:\n{text}"
    );
    assert_eq!(fleet.front().counters().proxy_errors.get(), errors + 1);

    let (status, body) = client
        .get(&format!("/v1/fleet/slo?now={NOW}"))
        .expect("front reachable");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf8 slo");
    assert!(
        text.contains(&format!("{{\"instance\":\"shard-{victim}\",\"slo\":null}}")),
        "dead shard must report no slo: {text}"
    );
    assert_eq!(fleet.front().counters().proxy_errors.get(), errors + 2);

    let (status, _) = client
        .get(&format!("/v1/_debug/trace/{:016x}?now={NOW}", ctx.trace_id))
        .expect("front reachable");
    assert_eq!(status, 200, "the front's own records still answer");
    assert_eq!(fleet.front().counters().proxy_errors.get(), errors + 2);

    fleet.shutdown();
}

#[test]
fn shutdown_with_the_front_client_still_connected_returns_at_once() {
    // The client stays connected after its answers, and the front's
    // legs leave keep-alive connections parked at every shard. Each
    // server's drain must close those idle reads itself, not wait out
    // the 5 s connection deadline.
    let cfg = FleetConfig::new(3);
    assert_eq!(cfg.front_server.connection_deadline, Duration::from_secs(5));
    assert_eq!(cfg.shard_server.connection_deadline, Duration::from_secs(5));
    let (fleet, combos) = boot(cfg);
    let mut client = loadgen::Client::new(fleet.addr(), Duration::from_secs(5));
    for path in [
        graphs_path(combos[0], NOW),
        format!("/v1/bid?duration=3600&now={NOW}"),
        format!("/v1/health?now={NOW}"),
    ] {
        let (status, _) = get(&mut client, &path);
        assert_eq!(status, 200, "{path}");
    }

    let watch = obs::Stopwatch::start();
    let report = fleet.shutdown();
    let took = watch.elapsed();
    for drained in std::iter::once(&report.front).chain(report.shards.iter().flatten()) {
        assert_eq!(
            drained.admitted, drained.served,
            "drain dropped admitted work"
        );
    }
    assert!(
        took < Duration::from_secs(1),
        "fleet shutdown waited {took:?} on idle keep-alives"
    );
    drop(client);
}

#[test]
fn two_boots_answer_identical_bytes_under_seeded_chaos() {
    // The determinism contract extended to the fleet: with chaos
    // expressed as a seeded logical fault plan evaluated in virtual
    // time, two independently booted fleets (different ephemeral ports,
    // different thread interleavings) answer every request with
    // identical bytes.
    let mut cfg = FleetConfig::new(3);
    cfg.faults = ShardFaults::sample(SEED, 3, (NOW, NOW + 240), 1, 0, 1);
    let (fleet_a, combos) = boot(cfg.clone());
    let (fleet_b, _) = boot(cfg.clone());
    let mut a = loadgen::Client::new(fleet_a.addr(), Duration::from_secs(5));
    let mut b = loadgen::Client::new(fleet_b.addr(), Duration::from_secs(5));

    let mut paths = Vec::new();
    for now in (NOW..NOW + 240).step_by(30) {
        for &combo in &combos {
            paths.push(graphs_path(combo, now));
        }
        paths.push(format!("/v1/bid?duration=3600&p=0.95&now={now}"));
        paths.push(format!("/v1/bid?duration=7200&now={now}"));
        paths.push(format!("/v1/health?now={now}"));
    }
    for path in &paths {
        let ra = a.get(path).expect("fleet A");
        let rb = b.get(path).expect("fleet B");
        assert_eq!(ra, rb, "boots diverged on {path}");
    }

    fleet_a.shutdown();
    fleet_b.shutdown();
}

#[test]
fn scatter_legs_over_torn_pooled_connections_retry_cleanly() {
    // Shards close an idle keep-alive after 100 ms; pausing longer than
    // that between requests means every connection the front parked is
    // closed by its shard before its next leg. Each leg of the /v1/bid
    // and /v1/health scatters must notice, retry once on a fresh
    // connection and answer exactly what the untorn first pass answered,
    // with no proxy error.
    let mut cfg = FleetConfig::new(3);
    cfg.shard_server.connection_deadline = Duration::from_millis(100);
    let (fleet, _) = boot(cfg);
    let mut client = loadgen::Client::new(fleet.addr(), Duration::from_secs(5));
    let paths = [
        format!("/v1/bid?duration=3600&p=0.95&now={NOW}"),
        format!("/v1/bid?duration=7200&now={NOW}"),
        format!("/v1/health?now={NOW}"),
    ];
    let untorn: Vec<(u16, Vec<u8>)> = paths
        .iter()
        .map(|path| client.get(path).expect("front reachable"))
        .collect();
    for (path, want) in paths.iter().zip(&untorn) {
        assert_eq!(want.0, 200, "{path}");
        std::thread::sleep(Duration::from_millis(300));
        let got = client.get(path).expect("front reachable");
        assert_eq!(&got, want, "torn connections changed the answer to {path}");
    }
    assert_eq!(fleet.front().counters().proxy_errors.get(), 0);
    fleet.shutdown();
}

/// A fake shard: answers every request on every connection with the
/// fixed bytes `reply`, until `stop` is set and the listener woken.
fn fake_shard(reply: Vec<u8>, stop: Arc<AtomicBool>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("fake shard addr");
    let thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop.load(Ordering::Acquire) {
                return;
            }
            let Ok(stream) = stream else { continue };
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut reader = BufReader::new(stream);
            // One reply per request head, until the front hangs up.
            'requests: loop {
                loop {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break 'requests,
                        Ok(_) if line == "\r\n" => break,
                        Ok(_) => {}
                    }
                }
                if reader.get_mut().write_all(&reply).is_err() {
                    break;
                }
            }
        }
    });
    (addr, thread)
}

#[test]
fn a_shard_announcing_a_huge_answer_is_a_proxy_error_not_an_abort() {
    // Before any body byte, a hostile or broken shard announces a 1 TiB
    // body, an endless header line, or endless headers. The front must
    // refuse to size a buffer from the announcement, count a proxy error,
    // answer its client and keep serving.
    let endless_line = format!("HTTP/1.1 200 OK\r\nX-Pad: {}", "a".repeat(64 * 1024));
    let endless_headers = format!("HTTP/1.1 200 OK\r\n{}", "X-Pad: a\r\n".repeat(1000));
    for reply in [
        "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n{".to_string(),
        endless_line,
        endless_headers,
    ] {
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, shard) = fake_shard(reply.into_bytes(), stop.clone());
        let cfg = FleetConfig::new(1);
        let front = Arc::new(FrontRouter::new(cfg.clone(), vec![addr], combos(), NOW));
        let server = Server::start_shared(front.clone(), cfg.front_server).expect("boot front");
        let mut client = loadgen::Client::new(server.addr(), Duration::from_secs(5));

        // The shard's only owner leg fails, so graphs and bid are refused
        // explicitly; health reports the shard's combos as unavailable.
        let (status, doc) = get(&mut client, &graphs_path(combos()[0], NOW));
        assert_eq!(status, 503);
        assert!(degraded(&doc));
        let (status, _) = get(&mut client, &format!("/v1/bid?duration=3600&now={NOW}"));
        assert_eq!(status, 503);
        assert_eq!(front.counters().proxy_errors.get(), 2);
        let (status, health) = get(&mut client, &format!("/v1/health?now={NOW}"));
        assert_eq!(status, 200);
        let unavailable = health
            .get("counts")
            .and_then(|c| c.get("unavailable"))
            .and_then(Json::as_u64);
        assert_eq!(unavailable, Some(combos().len() as u64));
        assert_eq!(front.counters().proxy_errors.get(), 3);
        // Still serving.
        let (status, _) = client.get("/v1/metrics").expect("front still serving");
        assert_eq!(status, 200);

        server.shutdown();
        stop.store(true, Ordering::Release);
        drop(TcpStream::connect(addr));
        shard.join().expect("fake shard thread");
    }
}

#[test]
fn a_now_past_the_horizon_is_refused_before_any_probe() {
    // The front folds its probe grid up to a request's `now`, one probe
    // per shard per 30-s slot, so `now` is untrusted input that sizes the
    // front's work. Past the fleet's horizon it must get an explicit 400
    // that probes nothing: the first value is 20,000 slots (about a week)
    // ahead, the second would need about 6e17 slots.
    let (fleet, combos) = boot(FleetConfig::new(2));
    let shard_health_requests = |shard: usize| -> u64 {
        let mut direct = loadgen::Client::new(fleet.shard_addr(shard), Duration::from_secs(5));
        let (status, body) = direct.get("/v1/metrics").expect("shard reachable");
        assert_eq!(status, 200);
        String::from_utf8(body)
            .expect("utf8 exposition")
            .lines()
            .find_map(|l| l.strip_prefix("drafts_requests_total{route=\"health\"} "))
            .and_then(|v| v.parse().ok())
            .expect("health request counter")
    };
    let before: Vec<u64> = (0..2).map(shard_health_requests).collect();
    let mut client = loadgen::Client::new(fleet.addr(), Duration::from_secs(30));
    for now in [NOW + 20_000 * 30, u64::MAX] {
        for path in [
            graphs_path(combos[0], now),
            format!("/v1/bid?duration=3600&now={now}"),
            format!("/v1/health?now={now}"),
        ] {
            let (status, _) = client.get(&path).expect("front reachable");
            assert_eq!(status, 400, "{path}");
        }
        let after: Vec<u64> = (0..2).map(shard_health_requests).collect();
        assert_eq!(after, before, "a refused now={now} probed a shard");
    }
    let (status, _) = get(&mut client, &format!("/v1/health?now={NOW}"));
    assert_eq!(status, 200);
    drop(client);
    fleet.shutdown();
}
