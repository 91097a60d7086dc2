//! Serving-layer experiment: `repro serve`.
//!
//! Boots a drafts-serve instance on an ephemeral loopback port over a
//! multi-combo [`DraftsService`], replays the seeded open-loop loadgen
//! plan against it, and writes three artifacts with a deliberate
//! determinism boundary:
//!
//! * `serve.csv` — per-route request counts, 200 counts, body bytes and
//!   order-independent response checksums, plus the run configuration.
//!   A pure function of the seed: CI runs the experiment twice and
//!   byte-compares this file.
//! * `serve_latency.csv` — throughput and log-bucketed latency quantiles
//!   (p50/p95/p99/max), one aggregate row plus one row per route from
//!   the harness's per-route histograms. The timing columns are wall
//!   clock and machine-dependent; only the `route,requests` columns are
//!   deterministic (CI cuts and compares those, as with `profile.csv`).
//! * `profile.csv` — the per-stage span table the server's tracer
//!   recorded during the same replay ([`crate::profile`]); only its
//!   `stage,count` columns are deterministic.
//!
//! The split exists because response *content* under virtual time is
//! reproducible while response *timing* never is; mixing them in one
//! artifact would force CI to diff nothing.

use crate::common::{Scale, REPRO_SEED};
use crate::profile::StageTable;
use drafts_core::predictor::DraftsConfig;
use drafts_core::service::ServiceConfig;
use drafts_core::DraftsService;
use loadgen::{RunReport, WorkloadConfig};
use parallel::Pool;
use server::{DrainReport, Router, Server, ServerConfig};
use simrng::StreamFactory;
use spotmarket::archetype::Archetype;
use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
use spotmarket::{Az, Catalog, Combo, PriceHistory, DAY};
use std::sync::Arc;
use std::time::Duration;

/// Seed domain separating the serving experiment (and the bench built on
/// its plan) from the others.
pub const SERVE_SEED: u64 = REPRO_SEED ^ 0x5E17E;

/// The serving workload shape at `scale`.
pub struct ServePlan {
    /// Markets registered with the service.
    pub combos: Vec<Combo>,
    /// Loadgen workload.
    pub workload: WorkloadConfig,
    /// Server tuning.
    pub server: ServerConfig,
    /// Virtual serving time.
    pub now: u64,
}

/// The experiment's output.
pub struct ServeOutput {
    /// The plan that ran.
    pub plan: ServePlan,
    /// Aggregated loadgen report.
    pub report: RunReport,
    /// Drain accounting from server shutdown.
    pub drain: DrainReport,
    /// Slow-path lock acquisitions during the workload (after warm-up).
    /// The lock-free read path's acceptance gate: must be 0 — every
    /// request of a warm steady-state run is a pure snapshot read.
    pub reader_locks_steady: u64,
    /// Snapshot publications during the workload (after warm-up). 0 in
    /// steady state: nothing republishes inside one refresh bucket.
    pub swaps_steady: u64,
    /// The server tracer's per-stage table for the replay.
    pub profile: StageTable,
}

/// The market population: AZ/type pairs in the spirit of the Table 1
/// sweep, kept small enough that trace generation is not the experiment.
fn population(scale: Scale, catalog: &Catalog) -> Vec<Combo> {
    let pairs: &[(&str, &str)] = &[
        ("us-east-1c", "c3.4xlarge"),
        ("us-west-2a", "c4.large"),
        ("us-east-1b", "c3.xlarge"),
        ("us-west-1a", "c4.xlarge"),
        ("us-east-1d", "c4.2xlarge"),
        ("us-west-2b", "c3.large"),
    ];
    let n = scale.pick(3, pairs.len());
    pairs[..n]
        .iter()
        .map(|&(az, ty)| {
            Combo::new(
                Az::parse(az).expect("known az"),
                catalog.type_id(ty).expect("known type"),
            )
        })
        .collect()
}

/// Builds the plan for `scale`.
pub fn plan(scale: Scale) -> ServePlan {
    let catalog = Catalog::standard();
    let combos = population(scale, catalog);
    let workload = WorkloadConfig {
        requests: scale.pick(300, 2000),
        rate_per_sec: scale.pick(2000.0, 4000.0),
        clients: 4,
        combos: combos.clone(),
        p: 0.95,
        mix: [0.35, 0.5, 0.1, 0.05],
        virtual_now: None,
    };
    // The accept queue comfortably exceeds the client count so the smoke
    // run never sheds: shed 503s are timing-dependent and would poison
    // the deterministic artifact. Saturation behaviour is exercised by
    // the end-to-end tests instead.
    let server = ServerConfig {
        workers: 4,
        accept_queue: 64,
        connection_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    ServePlan {
        combos,
        workload,
        server,
        now: 20 * DAY,
    }
}

/// The seeded 30-day price history of every combo in `combos`, in order:
/// the serving experiments' stand-in for downloading each market's price
/// history at boot. Archetypes cycle choppy, calm, spiky by population
/// index. Each stream is seeded on its own (`seed ^ (index + 1)`), so the
/// histories, generated in parallel on [`Pool::from_env`], do not depend
/// on the thread count. Each is generated once and shared by every service
/// that registers it.
pub fn stand_in_histories(combos: &[Combo], seed: u64) -> Vec<Arc<PriceHistory>> {
    let catalog = Catalog::standard();
    let indexed: Vec<(u64, Combo)> = (0..).zip(combos.iter().copied()).collect();
    Pool::from_env().par_map(&indexed, |&(i, combo)| {
        let archetype = match i % 3 {
            0 => Archetype::Choppy,
            1 => Archetype::Calm,
            _ => Archetype::Spiky,
        };
        let cfg = TraceConfig::days(30, seed ^ (i + 1));
        Arc::new(generate_with_archetype(combo, catalog, &cfg, archetype))
    })
}

/// Builds the multi-combo service the server fronts.
pub fn build_service(combos: &[Combo], scale: Scale) -> DraftsService {
    let mut svc = DraftsService::new(ServiceConfig {
        drafts: DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: scale.pick(6, 2),
            ..DraftsConfig::default()
        },
        ..ServiceConfig::default()
    });
    for history in stand_in_histories(combos, SERVE_SEED) {
        svc.register(history);
    }
    svc
}

/// A booted serving stack: the seeded multi-combo service built, warmed,
/// and fronted by a live loopback server. This is the boot sequence
/// `repro serve` and `repro bench` share — one copy of the warm/bind
/// logic instead of one per experiment.
pub struct Booted {
    /// The plan the boot realised (tuning knobs included).
    pub plan: ServePlan,
    /// The warmed service behind the server.
    pub service: Arc<DraftsService>,
    /// The live server on an ephemeral loopback port.
    pub server: Server,
    /// Slow-path lock count right after warming (steady-state baseline).
    pub locks_warm: u64,
    /// Snapshot-swap count right after warming (steady-state baseline).
    pub swaps_warm: u64,
}

/// Boots `plan`: build the service, pre-warm the serving bucket's
/// snapshots, bind a loopback server. Warming runs before the server
/// exists so the measured workload is pure steady state — every request
/// resolves against the published snapshot without locking or computing.
/// This is the production shape: the paper's service recomputes on its
/// 15-minute schedule, not on a client's first request.
pub fn boot(plan: ServePlan, scale: Scale) -> Booted {
    let service = Arc::new(build_service(&plan.combos, scale));
    service.warm(plan.now);
    let locks_warm = service.read_lock_count();
    let swaps_warm = service.snapshot_swap_count();
    let router = Router::new(service.clone(), plan.now);
    let server = Server::start(router, plan.server.clone()).expect("bind loopback");
    Booted {
        plan,
        service,
        server,
        locks_warm,
        swaps_warm,
    }
}

impl Booted {
    /// The seeded loadgen request plan for this boot's workload — a pure
    /// function of `(SERVE_SEED, plan.workload)`.
    pub fn request_plan(&self) -> Vec<loadgen::Planned> {
        loadgen::build_plan(
            &self.plan.workload,
            &StreamFactory::new(SERVE_SEED),
            Catalog::standard(),
        )
    }

    /// Replays the seeded request plan against the live server.
    pub fn replay(&self) -> RunReport {
        let requests = self.request_plan();
        loadgen::run(
            self.server.addr(),
            &requests,
            self.plan.workload.clients,
            Duration::from_secs(5),
        )
    }

    /// Slow-path lock acquisitions since warm-up finished.
    pub fn locks_steady(&self) -> u64 {
        self.service.read_lock_count() - self.locks_warm
    }

    /// Snapshot publications since warm-up finished.
    pub fn swaps_steady(&self) -> u64 {
        self.service.snapshot_swap_count() - self.swaps_warm
    }
}

/// Runs the experiment: boot, warm, replay, read the stage table, drain.
///
/// Warming runs before the server and its tracer start, so the cold
/// QBETS builds (and the single-flight waits they impose on concurrent
/// workers) do not masquerade as per-request serving time in the table.
pub fn run(scale: Scale) -> ServeOutput {
    let b = boot(plan(scale), scale);
    let report = b.replay();
    let reader_locks_steady = b.locks_steady();
    let swaps_steady = b.swaps_steady();
    let profile = StageTable::read(b.server.metrics().tracer());
    let drain = b.server.shutdown();
    ServeOutput {
        plan: b.plan,
        report,
        drain,
        reader_locks_steady,
        swaps_steady,
        profile,
    }
}

/// Renders the deterministic artifact (`serve.csv`).
pub fn deterministic_csv(out: &ServeOutput) -> String {
    let mut csv = String::from("route,requests,ok,body_bytes,checksum\n");
    for (route, tally) in &out.report.routes {
        csv.push_str(&format!(
            "{route},{},{},{},{:016x}\n",
            tally.requests, tally.ok, tally.body_bytes, tally.checksum
        ));
    }
    csv.push_str(&format!(
        "_total,{},{},{},{:016x}\n",
        out.report.total(),
        out.report.routes.values().map(|t| t.ok).sum::<u64>(),
        out.report
            .routes
            .values()
            .map(|t| t.body_bytes)
            .sum::<u64>(),
        out.report
            .routes
            .values()
            .fold(0u64, |acc, t| acc.wrapping_add(t.checksum))
    ));
    csv.push_str(&format!(
        "_steady,reader_locks={};snapshot_swaps={},,,\n",
        out.reader_locks_steady, out.swaps_steady
    ));
    csv.push_str(&format!(
        "_config,combos={};requests={};clients={};p={};now={};shed={};panics={},,,\n",
        out.plan.combos.len(),
        out.plan.workload.requests,
        out.plan.workload.clients,
        out.plan.workload.p,
        out.plan.now,
        out.drain.shed,
        out.drain.handler_panics,
    ));
    csv
}

/// Renders the wall-clock artifact (`serve_latency.csv`): one `_all`
/// aggregate row plus one row per route, from the loadgen harness's
/// per-route histograms. Columns 1–2 (`route,requests`) are deterministic
/// (CI cuts them out and byte-compares, like `profile.csv`); the timing
/// columns are wall clock and are cut before the diff.
pub fn latency_csv(out: &ServeOutput) -> String {
    let elapsed = out.report.elapsed.as_secs_f64();
    let row = |route: &str, requests: u64, h: &obs::LogHistogram| {
        let q = |p: f64| h.quantile_ns(p).unwrap_or(0) as f64 / 1_000.0;
        format!(
            "{route},{requests},{elapsed:.3},{:.1},{:.1},{:.1},{:.1},{:.1}\n",
            requests as f64 / elapsed.max(1e-9),
            q(0.50),
            q(0.95),
            q(0.99),
            h.max_ns() as f64 / 1_000.0,
        )
    };
    let mut csv =
        String::from("route,requests,elapsed_secs,throughput_rps,p50_us,p95_us,p99_us,max_us\n");
    csv.push_str(&row("_all", out.report.total(), &out.report.latency));
    for (route, h) in &out.report.route_latency {
        let requests = out.report.routes.get(route).map_or(0, |t| t.requests);
        csv.push_str(&row(route, requests, h));
    }
    csv
}

/// One-paragraph human summary for stdout.
pub fn summarize(out: &ServeOutput) -> String {
    let h = &out.report.latency;
    let q = |p: f64| h.quantile_ns(p).unwrap_or(0) as f64 / 1_000.0;
    format!(
        "serve: {} requests over {} combos in {:.2}s ({:.0} req/s), \
         p50 {:.0}us p95 {:.0}us p99 {:.0}us max {:.0}us; \
         {} non-200, {} shed, {} admitted = {} served\n",
        out.report.total(),
        out.plan.combos.len(),
        out.report.elapsed.as_secs_f64(),
        out.report.throughput(),
        q(0.50),
        q(0.95),
        q(0.99),
        h.max_ns() as f64 / 1_000.0,
        out.report.non_ok,
        out.drain.shed,
        out.drain.admitted,
        out.drain.served,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_serve_run_is_deterministic_and_clean() {
        let a = run(Scale::Quick);
        // Every planned request completed with a 200: the smoke plan is
        // sized to never shed, and every route resolves on this service.
        assert_eq!(a.report.total(), a.plan.workload.requests as u64);
        assert_eq!(a.report.non_ok, 0, "unexpected non-200s");
        assert_eq!(a.drain.shed, 0, "smoke plan must not shed");
        assert_eq!(a.drain.handler_panics, 0);
        assert_eq!(a.drain.admitted, a.drain.served, "drain dropped work");
        // The lock-free read-path acceptance gate: a warm steady-state
        // run never enters the slow path and never republishes.
        assert_eq!(a.reader_locks_steady, 0, "steady-state reads took a lock");
        assert_eq!(a.swaps_steady, 0, "steady-state run republished");

        let b = run(Scale::Quick);
        assert_eq!(
            deterministic_csv(&a),
            deterministic_csv(&b),
            "serve.csv must be byte-deterministic run to run"
        );
        // The latency artifact parses but its timing half is not
        // compared — wall clock. One aggregate row plus one per route.
        let lat = latency_csv(&a);
        assert!(lat.starts_with("route,requests,elapsed_secs"));
        assert_eq!(lat.lines().count(), 6, "header + _all + 4 routes");
        for route in ["_all", "graphs", "bid", "health", "metrics"] {
            assert!(
                lat.lines().any(|l| l.starts_with(&format!("{route},"))),
                "missing {route} row in {lat}"
            );
        }
        // The per-route histograms decompose the aggregate exactly.
        let per_route: u64 = a.report.route_latency.values().map(|h| h.count()).sum();
        assert_eq!(per_route, a.report.latency.count());
        assert!(summarize(&a).contains("admitted"));
    }
}
