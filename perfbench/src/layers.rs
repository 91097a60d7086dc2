//! The per-layer ledger of the traced run: each layer's public call timed
//! on the workload's own warmed state and planned requests, with a span
//! around every call.
//!
//! Per request the spans follow the request through the layers, in
//! process: parse (`http::read_request`) → `Router::handle` → the service
//! call and the graphs render it wraps → frame (`http::write_response`),
//! then the same request over the loopback (`loadgen::Client::get`)
//! against the entry server and, for graphs, directly against the owning
//! server — the fleet's proxy hop is the difference. The cold path
//! (QBETS, predictor steps, graph build, bucket build) is timed on the
//! population's own price histories, and a roll over the loopback on the
//! live stack.

use crate::plan::{self, Plan, P};
use crate::spans::{SpanLog, NO_REQUEST, ROOT};
use crate::stack::{Population, Stack};
use crate::stats::median_ns;
use crate::Metric;
use drafts_core::{BidDurationGraph, DraftsPredictor};
use loadgen::{Client, Kind, Planned};
use obs::Stopwatch;
use server::{Metrics, Router};
use spotmarket::{Catalog, Combo};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Duration;
use tsforecast::{Qbets, QbetsConfig};

/// Planned requests replayed through the layers.
const REPLAY: usize = 1500;
/// Requests of each route the replay adds when the plan has none of it,
/// so every route's layers are timed on every workload's state.
const PROBES: usize = 60;
/// Fresh buckets the bucket build is timed on.
const BUCKET_BUILDS: u64 = 3;
/// Fresh buckets a `/v1/bid` is sent at for `roll_ms`.
const ROLL_PROBES: u64 = 3;

fn handle_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Graphs => "router.handle_graphs",
        Kind::Bid => "router.handle_bid",
        Kind::Health => "router.handle_health",
        Kind::Metrics => "router.handle_metrics",
    }
}

fn rtt_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Graphs => "transport.rtt_graphs",
        Kind::Bid => "transport.rtt_bid",
        Kind::Health => "transport.rtt_health",
        Kind::Metrics => "transport.rtt_metrics",
    }
}

/// The requests the replay walks: the plan's first [`REPLAY`], plus
/// probes for routes the plan never asks, all at the newest bucket the
/// plan reached (so nothing is computed on the way).
fn replay_requests(plan: &Plan, combos: &[Combo]) -> Vec<(Kind, String)> {
    let mut out: Vec<(Kind, String)> = plan
        .requests
        .iter()
        .take(REPLAY)
        .map(|p: &Planned| (p.kind, p.path.clone()))
        .collect();
    for kind in Kind::ALL {
        if out.iter().any(|(k, _)| *k == kind) {
            continue;
        }
        for i in 0..PROBES {
            let path = match kind {
                Kind::Graphs => format!("{}?p={P}", plan::graphs_prefix(combos[i % combos.len()])),
                Kind::Bid => format!("/v1/bid?duration={}&p={P}", 600 * (i as u64 + 1)),
                Kind::Health => "/v1/health".to_string(),
                Kind::Metrics => "/v1/metrics".to_string(),
            };
            out.push((kind, path));
        }
    }
    if plan.roll_every.is_some() {
        for (kind, path) in &mut out {
            if *kind != Kind::Metrics {
                *path = plan::with_now(path, plan.last_now());
            }
        }
    }
    out
}

/// Replays requests through every layer, recording spans into `spans`,
/// and returns the request-path half of the ledger.
pub fn request_path(
    stack: &Stack,
    plan: &Plan,
    pop: &Population,
    spans: &mut SpanLog,
) -> Vec<Metric> {
    let epoch = Stopwatch::start();
    let t = || epoch.elapsed().as_nanos() as u64;
    let catalog = Catalog::standard();
    let now = plan.last_now();
    let routers: Vec<Router> = stack
        .services
        .iter()
        .map(|svc| Router::new(svc.clone(), now))
        .collect();
    let metrics = Metrics::new();
    let by_prefix: HashMap<String, Combo> = pop
        .combos
        .iter()
        .map(|&c| (plan::graphs_prefix(c), c))
        .collect();
    let timeout = Duration::from_secs(10);
    let mut entry = Client::new(stack.entry(), timeout);
    let mut direct: HashMap<SocketAddr, Client> = HashMap::new();
    let mut unexplained = Vec::new();
    let mut graphs_bytes = Vec::new();

    for (i, (kind, path)) in replay_requests(plan, &pop.combos).into_iter().enumerate() {
        let id = i as u32;
        let root = spans.record("replay.request", id, ROOT, t(), 0);
        let combo = path
            .split_once('?')
            .and_then(|(prefix, _)| by_prefix.get(prefix))
            .copied();
        let owner = combo.map_or(0, |c| stack.owner(c));

        let raw = crate::check::request_bytes(&path);
        let s = t();
        let req = crate::check::parse(&raw);
        let e = t();
        spans.record("http.parse", id, root, s, e);
        let mut in_process = e - s;

        let s = t();
        let resp = routers[owner].handle(&req, &metrics);
        let e = t();
        spans.record(handle_span(kind), id, root, s, e);
        in_process += e - s;
        assert_eq!(
            resp.status, 200,
            "in-process {path} answered {}",
            resp.status
        );

        let service = &stack.services[owner];
        match kind {
            Kind::Graphs => {
                let combo = combo.expect("graphs target names a registered combo");
                let s = t();
                let response = black_box(service.fetch(combo, now)).expect("published graphs");
                spans.record("service.fetch", id, root, s, t());
                let graph = response.graphs.at_probability(P).expect("published level");
                let s = t();
                let body = server::wire::graphs_json(catalog, combo, &response, &[graph]).render();
                spans.record("wire.graphs_render", id, root, s, t());
                graphs_bytes.push(body.len() as u64);
            }
            Kind::Bid => {
                let duration = plan::bid_duration(&path).expect("bid target has a duration");
                let s = t();
                black_box(service.cheapest_bid(P, duration, now));
                spans.record("service.cheapest_bid", id, root, s, t());
            }
            Kind::Health => {
                let s = t();
                black_box(service.health_rollup(now));
                spans.record("service.health_rollup", id, root, s, t());
            }
            Kind::Metrics => {}
        }

        let s = t();
        let mut frame = Vec::with_capacity(resp.body.len() + 256);
        server::http::write_response(&mut frame, &resp, true).expect("frame into memory");
        let e = t();
        spans.record("http.frame", id, root, s, e);
        black_box(frame);
        in_process += e - s;

        let s = t();
        let (status, _) = entry.get(&path).expect("loopback request");
        let e = t();
        spans.record(rtt_span(kind), id, root, s, e);
        assert_eq!(status, 200, "{path} answered {status} over the loopback");
        if kind == Kind::Bid {
            // What the loopback adds beyond parse + handle + frame.
            unexplained.push((e - s) as f64 - in_process as f64);
        }

        if let Some(combo) = combo {
            let addr = stack.owner_addr(combo);
            let client = direct
                .entry(addr)
                .or_insert_with(|| Client::new(addr, timeout));
            let s = t();
            client.get(&path).expect("direct loopback request");
            spans.record("transport.direct_graphs", id, root, s, t());
        }
        spans.close(root, t());
    }

    let med = |name: &str| median_ns(&spans.durations(name));
    let proxy = med("transport.rtt_graphs") / 1e3;
    let direct_us = med("transport.direct_graphs") / 1e3;
    vec![
        Metric::new("http.parse_ns", med("http.parse"), "ns"),
        Metric::new("router.handle_graphs_ns", med("router.handle_graphs"), "ns"),
        Metric::new("router.handle_bid_ns", med("router.handle_bid"), "ns"),
        Metric::new("router.handle_health_ns", med("router.handle_health"), "ns"),
        Metric::new(
            "router.handle_metrics_ns",
            med("router.handle_metrics"),
            "ns",
        ),
        Metric::new("service.fetch_hit_ns", med("service.fetch"), "ns"),
        Metric::new("service.cheapest_bid_ns", med("service.cheapest_bid"), "ns"),
        Metric::new("wire.graphs_render_ns", med("wire.graphs_render"), "ns"),
        Metric::new("wire.graphs_bytes", median_ns(&graphs_bytes), "bytes"),
        Metric::new("http.frame_ns", med("http.frame"), "ns"),
        Metric::new("transport.rtt_bid_us", med("transport.rtt_bid") / 1e3, "us"),
        Metric::new(
            "transport.unexplained_us",
            crate::stats::median(&unexplained) / 1e3,
            "us",
        ),
        Metric::new("fleet.proxy_graphs_us", proxy, "us"),
        Metric::new("fleet.direct_graphs_us", direct_us, "us"),
        Metric::new("fleet.hop_us", proxy - direct_us, "us"),
    ]
}

/// Times the cold path on the population's histories and the live
/// service, recording spans into `spans`.
pub fn cold_path(stack: &Stack, plan: &Plan, pop: &Population, spans: &mut SpanLog) -> Vec<Metric> {
    let epoch = Stopwatch::start();
    let t = || epoch.elapsed().as_nanos() as u64;
    let cfg = Population::drafts_config();
    let qcfg = QbetsConfig {
        confidence: cfg.confidence,
        changepoint: cfg.changepoint,
        autocorr_correction: cfg.autocorr,
        autocorr_cap: cfg.autocorr_cap,
    };
    for history in pop.histories() {
        let upto = history
            .series()
            .index_at(pop.now)
            .expect("history covers the serving time");
        let s = t();
        black_box(Qbets::from_history(
            qcfg,
            &history.series().values()[..=upto],
        ));
        spans.record("qbets.build", NO_REQUEST, ROOT, s, t());

        let predictor = DraftsPredictor::new(&history, cfg);
        let s = t();
        black_box(predictor.min_bid(upto, P));
        spans.record("predictor.min_bid", NO_REQUEST, ROOT, s, t());

        for bid in predictor.bid_grid(predictor.min_bid_or_max(upto, P)) {
            let s = t();
            black_box(predictor.durability(upto, bid, P));
            spans.record("predictor.durability", NO_REQUEST, ROOT, s, t());
        }
        for p in [0.95, 0.99] {
            let s = t();
            black_box(BidDurationGraph::compute(&predictor, upto, p));
            spans.record("graph.compute", NO_REQUEST, ROOT, s, t());
        }
    }
    let service = &stack.services[0];
    for j in 1..=BUCKET_BUILDS {
        let s = t();
        service.warm(plan.last_now() + j * plan::BUCKET_SECS);
        spans.record("service.bucket_build", NO_REQUEST, ROOT, s, t());
    }
    // The first request of a fresh bucket, sent over the loopback from an
    // idle connection: the time until a fresh guarantee is servable.
    let mut client = Client::new(stack.entry(), Duration::from_secs(30));
    for j in 1..=ROLL_PROBES {
        let bucket = plan.last_now() + (BUCKET_BUILDS + j) * plan::BUCKET_SECS;
        let path = format!("/v1/bid?duration=3600&p={P}&now={bucket}");
        let s = t();
        let (status, _) = client.get(&path).expect("roll probe");
        spans.record("transport.roll", NO_REQUEST, ROOT, s, t());
        assert_eq!(status, 200, "roll probe answered {status}");
    }
    let med = |name: &str| median_ns(&spans.durations(name));
    vec![
        Metric::new("roll_ms", med("transport.roll") / 1e6, "ms"),
        Metric::new("qbets.build_ms", med("qbets.build") / 1e6, "ms"),
        Metric::new("predictor.min_bid_us", med("predictor.min_bid") / 1e3, "us"),
        Metric::new(
            "predictor.durability_us",
            med("predictor.durability") / 1e3,
            "us",
        ),
        Metric::new("graph.compute_ms", med("graph.compute") / 1e6, "ms"),
        Metric::new(
            "service.bucket_build_ms",
            med("service.bucket_build") / 1e6,
            "ms",
        ),
    ]
}
