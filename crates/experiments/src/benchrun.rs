//! Perf-trajectory bench: `repro bench [--quick]`.
//!
//! Runs the serving-layer, snapshot, QBETS-kernel, fleet-proxy and
//! strategy-kernel benches on the in-repo timing harness and writes
//! four machine-readable trajectory files, `BENCH_serve.json`,
//! `BENCH_qbets.json`, `BENCH_fleet.json` and `BENCH_strategy.json`,
//! into the current directory (the repo root in CI; override with
//! `DRAFTS_BENCH_DIR`).
//! The committed copies of these files are the perf trajectory across
//! PRs: each PR refreshes them, and git history is the time series.
//!
//! Every file carries two objects with the repo's usual determinism
//! boundary:
//!
//! * `deterministic` — a pure function of the seed and scale. CI runs
//!   the bench twice, byte-compares this object between the runs, and
//!   then against the committed copy: a mismatch means the workload
//!   behind the numbers changed, so the trajectory would not be
//!   comparing like with like.
//! * `wall_clock` — median ns per operation from the calibrated
//!   harness, machine-dependent, never byte-compared. CI gates only the
//!   machine-portable *ratios* `window_overhead_pct` and
//!   `trace_overhead_pct`, and a wide sanity band against the committed
//!   medians that passes machine variance but fails runaway regressions.
//!   `svc_fetch_self_pct` is gated once, on the `profile.csv` that
//!   `repro serve` writes from the same [`profile::StageTable`].
//!
//! The serving numbers come from the same `serve::boot` helper that
//! `repro serve` uses — same plan, same warm sequence — so a bench point
//! is directly comparable with the serve artifacts from the same commit.

use crate::common::Scale;
use crate::{fleet, profile, serve, strategies};
use bench::timing::{black_box, Harness, Measurement};
use drafts_core::snapshot::Swap;
use drafts_core::{BidDurationGraph, DraftsConfig, DraftsPredictor};
use loadgen::Kind;
use obs::{TraceContext, TraceLog};
use server::{http, Metrics, Router};
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::Arc;
use tsforecast::{BoundEstimator, Qbets, QbetsConfig};

/// The experiment's output: both rendered trajectory files.
pub struct BenchOutput {
    /// `BENCH_serve.json` contents.
    pub serve_json: String,
    /// `BENCH_qbets.json` contents.
    pub qbets_json: String,
    /// `BENCH_fleet.json` contents.
    pub fleet_json: String,
    /// `BENCH_strategy.json` contents.
    pub strategy_json: String,
    /// Window-bookkeeping cost as a share of `handle_bid` (percent).
    pub window_overhead_pct: f64,
    /// `svc_fetch` self time as a share of total self time (percent).
    pub svc_fetch_self_pct: f64,
    /// Per-hop trace-record cost (`trace_record`) as a share of
    /// `handle_bid` (percent).
    pub trace_overhead_pct: f64,
}

/// Where the trajectory files land: `DRAFTS_BENCH_DIR` or the current
/// directory (the repo root, when run from it — the committed location).
pub fn bench_dir() -> PathBuf {
    let dir = std::env::var("DRAFTS_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn request(target: &str) -> http::Request {
    let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
    http::read_request(&mut BufReader::new(raw.as_bytes())).unwrap()
}

/// One `"key": value` line of a JSON object body.
fn field(out: &mut String, key: &str, value: impl std::fmt::Display, last: bool) {
    out.push_str(&format!(
        "    \"{key}\": {value}{}\n",
        if last { "" } else { "," }
    ));
}

/// Renders one trajectory file: fixed key order, two-space indent, so
/// the `deterministic` object can be byte-compared with `sed`/`cmp`.
fn render(bench: &str, deterministic: &[(&str, String)], wall_clock: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"drafts-bench/1\",\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    out.push_str("  \"deterministic\": {\n");
    for (i, (k, v)) in deterministic.iter().enumerate() {
        field(&mut out, k, v, i + 1 == deterministic.len());
    }
    out.push_str("  },\n");
    out.push_str("  \"wall_clock\": {\n");
    for (i, (k, v)) in wall_clock.iter().enumerate() {
        field(&mut out, k, v, i + 1 == wall_clock.len());
    }
    out.push_str("  }\n}\n");
    out
}

fn ns(m: Measurement) -> String {
    format!("{}", m.median_ns.round() as u64)
}

/// Trace-ring capacity for the traced-bid anchor (matches the fleet
/// experiments' order of magnitude; the ring evicts under the bench loop
/// either way, which is the steady-state shape).
const TRACE_RING: usize = 1024;

/// Runs every bench and renders both trajectory files.
pub fn run(scale: Scale) -> BenchOutput {
    let (serve_json, window_overhead_pct, svc_fetch_self_pct, trace_overhead_pct) =
        serve_bench(scale);
    let qbets_json = qbets_bench();
    let fleet_json = fleet_bench(scale);
    let strategy_json = strategy_bench(scale);
    BenchOutput {
        serve_json,
        qbets_json,
        fleet_json,
        strategy_json,
        window_overhead_pct,
        svc_fetch_self_pct,
        trace_overhead_pct,
    }
}

/// The serving-layer trajectory: in-process route handling, the window
/// bookkeeping each request pays, the snapshot read path, and one seeded
/// loadgen replay against the live server.
fn serve_bench(scale: Scale) -> (String, f64, f64, f64) {
    let b = serve::boot(serve::plan(scale), scale);

    // Planned per-route request counts: pure functions of the seed, the
    // deterministic anchor of the trajectory point.
    let planned = b.request_plan();
    let count = |kind: Kind| planned.iter().filter(|p| p.kind == kind).count();
    let route_counts: Vec<(Kind, usize)> = Kind::ALL.iter().map(|&k| (k, count(k))).collect();

    // One replay through the live server: the client-observed quantiles,
    // and the per-stage tracer histograms for the svc_fetch share.
    let report = b.replay();
    let svc_fetch_self_pct =
        profile::StageTable::read(b.server.metrics().tracer()).self_share_pct("svc_fetch");

    // In-process route handling on the same warmed service, through a
    // fresh router/metrics pair so the bench loop's own counters do not
    // pollute the live server's.
    let mut h = Harness::new("bench:serve");
    let router = Router::new(b.service.clone(), b.plan.now);
    let metrics = Metrics::new();
    let _tracing = metrics.tracer().install();
    let graphs = {
        let combo = b.plan.combos[0];
        let catalog = spotmarket::Catalog::standard();
        request(&format!(
            "/v1/graphs/{}/{}/{}?p={}",
            combo.az.region().name(),
            combo.az.name(),
            catalog.spec(combo.ty).name,
            b.plan.workload.p,
        ))
    };
    let handle_graphs = h.bench("handle_graphs", || {
        black_box(router.handle(black_box(&graphs), &metrics))
    });
    let bid = request("/v1/bid?duration=3600&p=0.95");
    let handle_bid = h.bench("handle_bid", || {
        black_box(router.handle(black_box(&bid), &metrics))
    });
    let health = request("/v1/health");
    let handle_health = h.bench("handle_health", || {
        black_box(router.handle(black_box(&health), &metrics))
    });
    let metrics_req = request("/v1/metrics");
    let handle_metrics = h.bench("handle_metrics", || {
        black_box(router.handle(black_box(&metrics_req), &metrics))
    });

    // The same bid request with the distributed-trace ring recording —
    // the end-to-end anchor for the traced path. Context derivation and
    // the header echo run either way; the added work is the per-hop ring
    // record, measured directly below (two independently-benched µs
    // medians are too noisy to gate a ~100 ns difference).
    let handle_bid_traced = {
        let traced_metrics = Metrics::with_logs(0, TRACE_RING);
        h.bench("handle_bid_traced", || {
            black_box(router.handle(black_box(&bid), &traced_metrics))
        })
    };
    // The per-hop record proper, on the steady-state overwrite path:
    // the ring is pre-filled, so every iteration pays the id-0 check,
    // predicate, the record's allocation, the lock, and the evicted
    // record's drop — exactly what a core-route request adds.
    let trace_log = TraceLog::new(TRACE_RING);
    let trace_ctx = TraceContext::root(0x5eed);
    for _ in 0..TRACE_RING {
        trace_log.record(trace_ctx, b.plan.now, "drafts-serve", "http_bid", 200, "");
    }
    let trace_record = h.bench("trace_record", || {
        trace_log.record(
            black_box(trace_ctx),
            black_box(b.plan.now),
            black_box("drafts-serve"),
            "http_bid",
            200,
            "",
        );
        black_box(trace_log.total())
    });
    let trace_overhead_pct = 100.0 * trace_record.median_ns / handle_bid.median_ns.max(1.0);

    // The window bookkeeping a steady-state request adds: one same-bucket
    // advance (the no-op fast path) and the latency record with its timed
    // and slow counts — exactly what the router/server layer does per
    // request on top of the pre-window serving path.
    let window = h.bench("window_per_request", || {
        metrics.windows().advance(black_box(b.plan.now));
        metrics.record_latency(black_box(1_234));
    });
    let window_overhead_pct = 100.0 * window.median_ns / handle_bid.median_ns.max(1.0);

    // The snapshot read path under the serving layer.
    let combo = b.plan.combos[0];
    let fetch = h.bench("service_fetch_hit", || {
        black_box(b.service.fetch(combo, b.plan.now))
    });
    let swap = Swap::new(Arc::new(42u64));
    let swap_load = h.bench("swap_load_clone", || black_box(swap.load()));

    b.server.shutdown();

    let q = |p: f64| report.latency.quantile_ns(p).unwrap_or(0) / 1_000;
    let mut det: Vec<(&str, String)> = vec![
        ("scale", format!("\"{}\"", scale.pick("quick", "paper"))),
        ("serve_seed", serve::SERVE_SEED.to_string()),
        ("combos", b.plan.combos.len().to_string()),
        ("planned_requests", planned.len().to_string()),
        ("pipeline_stages", profile::stages().len().to_string()),
        ("trace_ring", TRACE_RING.to_string()),
    ];
    for (kind, n) in &route_counts {
        det.push((
            match kind {
                Kind::Graphs => "route_graphs",
                Kind::Bid => "route_bid",
                Kind::Health => "route_health",
                Kind::Metrics => "route_metrics",
            },
            n.to_string(),
        ));
    }
    let wall: Vec<(&str, String)> = vec![
        ("handle_graphs_ns", ns(handle_graphs)),
        ("handle_bid_ns", ns(handle_bid)),
        ("handle_bid_traced_ns", ns(handle_bid_traced)),
        ("trace_record_ns", ns(trace_record)),
        ("handle_health_ns", ns(handle_health)),
        ("handle_metrics_ns", ns(handle_metrics)),
        ("window_per_request_ns", ns(window)),
        ("service_fetch_hit_ns", ns(fetch)),
        ("swap_load_clone_ns", ns(swap_load)),
        ("loadgen_p50_us", q(0.50).to_string()),
        ("loadgen_p99_us", q(0.99).to_string()),
        (
            "loadgen_throughput_rps",
            format!("{:.1}", report.throughput()),
        ),
        ("window_overhead_pct", format!("{window_overhead_pct:.2}")),
        ("svc_fetch_self_pct", format!("{svc_fetch_self_pct:.2}")),
        ("trace_overhead_pct", format!("{trace_overhead_pct:.2}")),
    ];
    (
        render("serve", &det, &wall),
        window_overhead_pct,
        svc_fetch_self_pct,
        trace_overhead_pct,
    )
}

/// The fleet-proxy trajectory: wall-clock medians for one proxied
/// round trip per route through the routing front (client → front →
/// owning shard and back over real loopback sockets), anchored by the
/// ring's deterministic ownership checksum — the proof that two builds
/// route the bench traffic identically, so the medians compare like
/// with like across commits.
fn fleet_bench(scale: Scale) -> String {
    let plan = fleet::plan(scale);
    let cfg = server::FleetConfig::new(plan.shards);
    let ring = cfg.ring();
    let keys: Vec<u64> = plan.combos.iter().map(|c| c.key()).collect();
    let ring_checksum = ring.ownership_checksum(&keys);
    let live = fleet::boot(&plan, cfg.clone(), scale);
    let mut client = loadgen::Client::new(live.addr(), std::time::Duration::from_secs(5));

    let combo = plan.combos[0];
    let catalog = spotmarket::Catalog::standard();
    let graphs_path = format!(
        "/v1/graphs/{}/{}/{}?p={}",
        combo.az.region().name(),
        combo.az.name(),
        catalog.spec(combo.ty).name,
        plan.workload.p,
    );
    let mut h = Harness::new("bench:fleet");
    let proxy_graphs = h.bench("proxy_graphs", || {
        black_box(client.get(black_box(&graphs_path)).expect("proxied graphs"))
    });
    let proxy_bid = h.bench("proxy_bid", || {
        black_box(
            client
                .get("/v1/bid?duration=3600&p=0.95")
                .expect("proxied bid"),
        )
    });
    let proxy_health = h.bench("proxy_health", || {
        black_box(client.get("/v1/health").expect("fleet health"))
    });
    live.shutdown();

    let det: Vec<(&str, String)> = vec![
        ("scale", format!("\"{}\"", scale.pick("quick", "paper"))),
        ("fleet_seed", fleet::FLEET_SEED.to_string()),
        ("shards", cfg.shards.to_string()),
        ("replication", ring.replication().to_string()),
        ("vnodes", server::fleet::VNODES.to_string()),
        ("combos", plan.combos.len().to_string()),
        ("ring_checksum", format!("\"{ring_checksum:016x}\"")),
        ("probe_interval", server::fleet::PROBE_INTERVAL.to_string()),
    ];
    let wall: Vec<(&str, String)> = vec![
        ("proxy_graphs_ns", ns(proxy_graphs)),
        ("proxy_bid_ns", ns(proxy_bid)),
        ("proxy_health_ns", ns(proxy_health)),
    ];
    render("fleet", &det, &wall)
}

/// The strategy-kernel trajectory: per-decision cost of the adaptive
/// strategies' hot path (one `observe` + one `decide` on a fixed tick),
/// anchored by a small seeded `DraftsBid` arena replay whose outcome is
/// a pure function of `strategies::STRATEGY_SEED` — the proof that two
/// builds decide the bench traffic identically.
fn strategy_bench(scale: Scale) -> String {
    use strategy::{
        BetaBayes, DraftsBid, EmaAvailability, JobState, MarketTick, Portfolio, PriceQuantiles,
        SpotPlan, Strategy,
    };

    let anchor = strategies::anchor();

    let catalog = spotmarket::Catalog::standard();
    let combo = spotmarket::Combo::new(
        spotmarket::Az::parse("us-east-1b").expect("known AZ"),
        catalog.type_id("c4.large").expect("known type"),
    );
    let price = spotmarket::Price::from_ticks;
    let plan = SpotPlan {
        combo,
        bid: price(900),
    };
    let tick = MarketTick {
        now: 2_000_000,
        scan_interval: 60,
        drafts: Some(plan),
        fallback: Some(plan),
        od_price: price(1_050),
        spot_price: Some(price(310)),
        quantiles: PriceQuantiles {
            q50: Some(price(300)),
            q75: Some(price(340)),
            q90: Some(price(420)),
            q95: Some(price(700)),
        },
    };
    let job = JobState {
        id: 7,
        deadline: tick.now + 4_500,
        est_total: 900,
        est_remaining: 900,
        running_on: None,
        attempts: 0,
        restarts: 0,
    };

    let mut h = Harness::new("bench:strategy");
    let mut drafts = DraftsBid;
    let decide_drafts = h.bench("decide_drafts", || {
        drafts.observe(black_box(&tick));
        black_box(drafts.decide(black_box(&tick), black_box(&job)))
    });
    let mut ema = EmaAvailability::new();
    let decide_ema = h.bench("decide_ema", || {
        ema.observe(black_box(&tick));
        black_box(ema.decide(black_box(&tick), black_box(&job)))
    });
    let mut beta = BetaBayes::new();
    let decide_beta = h.bench("decide_beta", || {
        beta.observe(black_box(&tick));
        black_box(beta.decide(black_box(&tick), black_box(&job)))
    });
    let mut portfolio = Portfolio::new();
    let decide_portfolio = h.bench("decide_portfolio", || {
        portfolio.observe(black_box(&tick));
        black_box(portfolio.decide(black_box(&tick), black_box(&job)))
    });

    let det: Vec<(&str, String)> = vec![
        ("scale", format!("\"{}\"", scale.pick("quick", "paper"))),
        ("strategy_seed", strategies::STRATEGY_SEED.to_string()),
        ("strategies", strategy::lineup().len().to_string()),
        ("intensities", strategies::INTENSITIES_BP.len().to_string()),
        ("anchor_cost_ticks", anchor.metrics.cost.ticks().to_string()),
        (
            "anchor_attainment_bp",
            strategies::attainment_bp(&anchor).to_string(),
        ),
        ("anchor_decisions", anchor.decisions.to_string()),
        (
            "anchor_switches",
            anchor.metrics.strategy_switches.to_string(),
        ),
    ];
    let wall: Vec<(&str, String)> = vec![
        ("decide_drafts_ns", ns(decide_drafts)),
        ("decide_ema_ns", ns(decide_ema)),
        ("decide_beta_ns", ns(decide_beta)),
        ("decide_portfolio_ns", ns(decide_portfolio)),
    ];
    render("strategy", &det, &wall)
}

/// The QBETS-kernel trajectory: the paper's §3.3 claim that batch
/// rebuilds are slow while warm state updates incrementally, plus the
/// cold-path kernel every service refresh runs per combo and level, one
/// bid–duration graph.
fn qbets_bench() -> String {
    let history = bench::bench_history();
    let values: Vec<u64> = history.series().values().to_vec();
    let checksum = values
        .iter()
        .fold(0u64, |acc, &v| acc.rotate_left(1).wrapping_add(v));

    let mut h = Harness::new("bench:qbets");
    let batch = h.bench("batch_rebuild", || {
        let q = Qbets::from_history(QbetsConfig::default(), black_box(&values));
        black_box(q.upper_bound(0.975))
    });
    // Incremental updates on shared warm state, not a rebuild per
    // iteration. The accumulating segment is the realistic shape:
    // production feeds observe into live state.
    let mut warm_q = Qbets::from_history(QbetsConfig::default(), &values);
    let incremental = h.bench("incremental_observe", || {
        warm_q.observe(black_box(12_345));
        black_box(warm_q.segment_len())
    });
    let q = Qbets::from_history(QbetsConfig::default(), &values);
    let warm = h.bench("warm_upper_bound_query", || {
        black_box(q.upper_bound(black_box(0.975)))
    });
    let predictor = DraftsPredictor::new(&history, DraftsConfig::default());
    let upto = history.len() - 1;
    let graph = h.bench("graph_compute", || {
        black_box(BidDurationGraph::compute(&predictor, black_box(upto), 0.95))
    });
    let points = BidDurationGraph::compute(&predictor, upto, 0.95)
        .map_or_else(Vec::new, |g| g.points().to_vec());
    let graph_checksum = points.iter().fold(0u64, |acc, p| {
        acc.rotate_left(1)
            .wrapping_add(p.bid.ticks())
            .rotate_left(1)
            .wrapping_add(p.durability_secs)
    });

    let bound = |b: Option<u64>| b.map_or("null".to_string(), |v| v.to_string());
    let det: Vec<(&str, String)> = vec![
        ("history_len", values.len().to_string()),
        ("history_checksum", format!("\"{checksum:016x}\"")),
        ("segment_len", q.segment_len().to_string()),
        // `None` (the autocorrelation-corrected segment is too short for
        // a bound at QBETS's confidence) renders as JSON null — still a
        // deterministic function of the seeded history.
        ("upper_bound_p975", bound(q.upper_bound(0.975))),
        // Bounds the 271-point segment supports: the price step's tail
        // and the duration step's.
        ("upper_bound_q95", bound(q.upper_bound(0.95))),
        ("lower_bound_q05", bound(q.lower_bound(0.05))),
        ("graph_p95_points", points.len().to_string()),
        ("graph_p95_checksum", format!("\"{graph_checksum:016x}\"")),
    ];
    let wall: Vec<(&str, String)> = vec![
        ("batch_rebuild_ns", ns(batch)),
        ("incremental_observe_ns", ns(incremental)),
        ("warm_upper_bound_query_ns", ns(warm)),
        ("graph_compute_ns", ns(graph)),
    ];
    render("qbets", &det, &wall)
}

/// One-paragraph human summary for stdout.
pub fn summarize(out: &BenchOutput) -> String {
    format!(
        "bench: window bookkeeping {:.2}% of handle_bid, \
         svc_fetch {:.1}% of self time, trace recording {:.2}% of \
         handle_bid; trajectory written\n",
        out.window_overhead_pct, out.svc_fetch_self_pct, out.trace_overhead_pct,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_files_have_stable_schema_and_deterministic_halves() {
        std::env::set_var("DRAFTS_BENCH_QUICK", "1");
        let out = run(Scale::Quick);
        for json in [
            &out.serve_json,
            &out.qbets_json,
            &out.fleet_json,
            &out.strategy_json,
        ] {
            assert!(json.starts_with("{\n  \"schema\": \"drafts-bench/1\""));
            assert!(json.contains("\"deterministic\": {"));
            assert!(json.contains("\"wall_clock\": {"));
            assert!(json.ends_with("}\n"));
        }
        for key in [
            "route_graphs",
            "route_bid",
            "route_health",
            "route_metrics",
            "handle_bid_ns",
            "handle_bid_traced_ns",
            "trace_record_ns",
            "window_per_request_ns",
            "window_overhead_pct",
            "svc_fetch_self_pct",
            "trace_overhead_pct",
            "trace_ring",
        ] {
            assert!(out.serve_json.contains(key), "missing {key}");
        }
        for key in [
            "history_checksum",
            "batch_rebuild_ns",
            "upper_bound_p975",
            "upper_bound_q95",
            "lower_bound_q05",
            "graph_p95_points",
            "graph_p95_checksum",
            "graph_compute_ns",
        ] {
            assert!(out.qbets_json.contains(key), "missing {key}");
        }
        for key in [
            "ring_checksum",
            "proxy_graphs_ns",
            "proxy_bid_ns",
            "proxy_health_ns",
        ] {
            assert!(out.fleet_json.contains(key), "missing {key}");
        }
        for key in [
            "strategy_seed",
            "anchor_cost_ticks",
            "anchor_attainment_bp",
            "decide_drafts_ns",
            "decide_ema_ns",
            "decide_beta_ns",
            "decide_portfolio_ns",
        ] {
            assert!(out.strategy_json.contains(key), "missing {key}");
        }
        // The deterministic half is reproducible run to run.
        let det = |s: &str| {
            s.lines()
                .skip_while(|l| !l.contains("\"deterministic\""))
                .take_while(|l| !l.contains("\"wall_clock\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let again = run(Scale::Quick);
        assert_eq!(det(&out.serve_json), det(&again.serve_json));
        assert_eq!(det(&out.qbets_json), det(&again.qbets_json));
        assert_eq!(det(&out.fleet_json), det(&again.fleet_json));
        assert_eq!(det(&out.strategy_json), det(&again.strategy_json));
        assert!(summarize(&out).contains("window bookkeeping"));
        std::env::remove_var("DRAFTS_BENCH_QUICK");
    }
}
