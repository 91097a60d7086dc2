//! Distributed-tracing attribution experiment: `repro trace [--quick]`.
//!
//! Boots the sharded fleet with the trace rings enabled, kills one shard
//! mid-run (plus one `Slow` fault, the `kills1` chaos shape), replays a
//! seeded loadgen workload whose every request carries a seeded
//! `x-drafts-trace` root context, and then reconstructs each request's
//! fleet-merged timeline through the front's `/v1/_debug/trace/{id}`
//! route. The artifact (`traces.csv`) attributes every request that took
//! the slow path — a failover leg (`failover=true`) or a skipped
//! unroutable leg — to the *named shard and leg* that served or refused
//! it, straight from the per-hop trace records.
//!
//! Everything in the artifact is a pure function of `(TRACE_SEED,
//! scale)`: trace ids are minted by the seeded plan generator, faults
//! are evaluated logically in virtual time, per-hop records carry
//! virtual `now`s, and the merged timeline is hop-major sorted so it is
//! independent of shard query order. CI runs the experiment twice and
//! byte-compares `traces.csv`. Wall-clock latency stays out of the
//! artifact entirely (the stdout summary quotes it, quarantined).
//!
//! The timeline queries run *after* the replay at the pre-onset virtual
//! `now`, so every shard — including the logically killed one, whose
//! process is still up — is routable and contributes its retained hops
//! to the merge.

use crate::common::{Scale, REPRO_SEED};
use crate::fleet::{self, FleetPlan};
use loadgen::{Kind, RunReport};
use server::{FleetConfig, Json};
use spotmarket::faults::{ShardFault, ShardFaultKind, ShardFaults};
use std::time::Duration;

/// Seed domain separating the tracing experiment from the others.
pub const TRACE_SEED: u64 = REPRO_SEED ^ 0x7ACE;

/// Trace-ring capacity on the front and every shard — sized so a full
/// run (root + per-leg records per request) never evicts.
const RING: usize = 4096;

/// One request's reconstructed timeline, reduced to the deterministic
/// attribution columns of `traces.csv`.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Plan index of the request.
    pub index: usize,
    /// Trace id the request carried.
    pub trace: u64,
    /// Route label ([`Kind::label`]).
    pub route: &'static str,
    /// Final HTTP status the client saw.
    pub status: u16,
    /// Front-root records for the trace — 1 plus any 503 retries.
    pub attempts: u64,
    /// Total per-hop records in the merged timeline.
    pub records: u64,
    /// Unroutable legs the front skipped (`proxy_skip` records).
    pub skipped: u64,
    /// Shard that produced the final 200 on a guarantee route, `-` when
    /// the timeline has no successful proxy leg.
    pub served_by: String,
    /// Failover leg number of that answer (0 = primary owner).
    pub leg: u64,
    /// Whether the answer came from a non-primary owner.
    pub failover: bool,
    /// The merged timeline, hop-major: `hop:instance:stage:status`
    /// segments joined with `;`.
    pub timeline: String,
}

impl TraceRow {
    /// Whether the request demonstrably took the slow path: served by a
    /// failover leg or routed around an unroutable shard.
    pub fn slow_path(&self) -> bool {
        self.failover || self.skipped > 0
    }
}

/// The experiment's output.
pub struct TraceOutput {
    /// The fleet/workload shape that ran (the fleet experiment's plan,
    /// replayed under the tracing seed).
    pub plan: FleetPlan,
    /// The seeded fault plan's label.
    pub fault_label: String,
    /// Aggregated loadgen report (wall-clock half stays out of the CSV).
    pub report: RunReport,
    /// One row per traced request, in plan order.
    pub rows: Vec<TraceRow>,
}

impl TraceOutput {
    /// Rows attributed to the slow path.
    pub fn attributed(&self) -> usize {
        self.rows.iter().filter(|r| r.slow_path()).count()
    }
}

/// The fleet config for the tracing run: `kills1`-shaped chaos, trace
/// rings on everywhere, shard debug routes on so the front can merge
/// timelines.
///
/// The kill victim is chosen *by the ring*, not by a random shuffle:
/// the shard that primary-owns the most combos dies mid-window, which
/// guarantees the blackout forces real graphs failover (a randomly
/// sampled victim can land on a shard that owns nothing as primary and
/// never exercise the attribution path). Still a pure function of the
/// plan — the ring is seeded config, not chance.
fn config(plan: &FleetPlan) -> FleetConfig {
    let mut cfg = FleetConfig::new(plan.shards);
    let ring = cfg.ring();
    let mut primaries = vec![0usize; plan.shards];
    for combo in &plan.combos {
        primaries[ring.primary(combo.key())] += 1;
    }
    let victim = (0..plan.shards)
        .max_by_key(|&s| (primaries[s], std::cmp::Reverse(s)))
        .expect("non-empty fleet");
    let span = plan.end_now() - plan.now;
    let kill_at = plan.now + span / 2;
    let slow_from = plan.now + span * 5 / 8;
    cfg.faults = ShardFaults::with(
        plan.shards,
        vec![
            ShardFault {
                shard: victim,
                kind: ShardFaultKind::Kill,
                from: kill_at,
                until: u64::MAX,
            },
            ShardFault {
                shard: (victim + 1) % plan.shards,
                kind: ShardFaultKind::Slow,
                from: slow_from,
                until: slow_from + (span / 8).max(1),
            },
        ],
    );
    cfg.debug_routes = true;
    cfg.shard_server.trace_log = RING;
    cfg.front_server.trace_log = RING;
    cfg
}

/// Parses a `proxy_graphs`/`proxy_bid` record detail
/// (`shard-N leg=K failover=bool`) into its attribution triple.
fn parse_detail(detail: &str) -> Option<(String, u64, bool)> {
    let mut parts = detail.split_whitespace();
    let shard = parts.next()?.to_string();
    let leg = parts.next()?.strip_prefix("leg=")?.parse().ok()?;
    let failover = parts.next()?.strip_prefix("failover=")? == "true";
    Some((shard, leg, failover))
}

/// Reduces one merged-timeline response body to a [`TraceRow`].
fn row_of(index: usize, trace: u64, route: &'static str, status: u16, body: &[u8]) -> TraceRow {
    let mut row = TraceRow {
        index,
        trace,
        route,
        status,
        attempts: 0,
        records: 0,
        skipped: 0,
        served_by: "-".to_string(),
        leg: 0,
        failover: false,
        timeline: String::new(),
    };
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|s| Json::parse(s).ok())
    else {
        return row;
    };
    let Some(records) = doc.get("records").and_then(Json::as_arr) else {
        return row;
    };
    let mut segments = Vec::with_capacity(records.len());
    for rec in records {
        let get_str = |key| rec.get(key).and_then(Json::as_str).unwrap_or("");
        let get_num = |key| rec.get(key).and_then(Json::as_u64).unwrap_or(0);
        let (instance, stage) = (
            get_str("instance").to_string(),
            get_str("stage").to_string(),
        );
        let (hop, rec_status) = (get_num("hop"), get_num("status"));
        row.records += 1;
        if instance == "fleet-front" && hop == 0 {
            row.attempts += 1;
        }
        if stage == "proxy_skip" {
            row.skipped += 1;
        }
        if (stage == "proxy_graphs" || stage == "proxy_bid") && rec_status == 200 {
            if let Some((shard, leg, failover)) = parse_detail(get_str("detail")) {
                row.served_by = shard;
                row.leg = leg;
                row.failover = failover;
            }
        }
        segments.push(format!("{hop}:{instance}:{stage}:{rec_status}"));
    }
    row.timeline = segments.join(";");
    row
}

/// Runs the experiment: boot with tracing on, replay under chaos,
/// reconstruct every request's merged timeline, drain.
pub fn run(scale: Scale) -> TraceOutput {
    let plan = fleet::plan(scale);
    let cfg = config(&plan);
    let fault_label = cfg.faults.label();
    let fleet = fleet::boot(&plan, cfg, scale);
    let report = fleet::replay(&plan, &fleet, TRACE_SEED);

    // Timeline pass: one merged-timeline query per traced request, at
    // the pre-onset `now` so every shard contributes to the merge. The
    // metrics route is untraced by design (observer routes must not
    // grow the ring they render), so scraper probes are skipped.
    let mut client = loadgen::Client::new(fleet.addr(), Duration::from_secs(5));
    let mut rows = Vec::new();
    for sample in &report.requests {
        if sample.kind == Kind::Metrics {
            continue;
        }
        let path = format!("/v1/_debug/trace/{:016x}?now={}", sample.trace, plan.now);
        let body = match client.get(&path) {
            Ok((200, body)) => body,
            _ => Vec::new(),
        };
        rows.push(row_of(
            sample.index,
            sample.trace,
            sample.kind.label(),
            sample.status,
            &body,
        ));
    }
    fleet.shutdown();

    TraceOutput {
        plan,
        fault_label,
        report,
        rows,
    }
}

/// Renders the deterministic artifact (`traces.csv`): one row per traced
/// request plus attribution/fault/config footers. A pure function of
/// `(TRACE_SEED, scale)`; CI runs the experiment twice and byte-compares
/// this file.
pub fn deterministic_csv(out: &TraceOutput) -> String {
    let mut csv = String::from(
        "index,trace,route,status,attempts,records,skipped,served_by,leg,failover,timeline\n",
    );
    for row in &out.rows {
        csv.push_str(&format!(
            "{},{:016x},{},{},{},{},{},{},{},{},{}\n",
            row.index,
            row.trace,
            row.route,
            row.status,
            row.attempts,
            row.records,
            row.skipped,
            row.served_by,
            row.leg,
            row.failover,
            row.timeline,
        ));
    }
    let failover_rows = out.rows.iter().filter(|r| r.failover).count();
    let skipped_legs: u64 = out.rows.iter().map(|r| r.skipped).sum();
    csv.push_str(&format!(
        "_attributed,slow_path={};failover_rows={failover_rows};skipped_legs={skipped_legs},,,,,,,,,\n",
        out.attributed(),
    ));
    csv.push_str(&format!("_faults,{},,,,,,,,,,\n", out.fault_label));
    csv.push_str(&format!(
        "_config,shards={};requests={};clients={};p={};now={};step={};seed={},,,,\n",
        out.plan.shards,
        out.plan.workload.requests,
        out.plan.workload.clients,
        out.plan.workload.p,
        out.plan.now,
        out.plan.step,
        TRACE_SEED,
    ));
    csv
}

/// One-paragraph human summary for stdout (wall-clock latency lives
/// here, never in the CSV).
pub fn summarize(out: &TraceOutput) -> String {
    let q = |p: f64| out.report.latency.quantile_ns(p).unwrap_or(0) as f64 / 1_000.0;
    format!(
        "trace: {} requests traced over {} shards ({}), {} slow-path rows \
         attributed ({} failover, {} skipped legs), {} retried; \
         wall p50 {:.0}us p99 {:.0}us\n",
        out.rows.len(),
        out.plan.shards,
        out.fault_label,
        out.attributed(),
        out.rows.iter().filter(|r| r.failover).count(),
        out.rows.iter().map(|r| r.skipped).sum::<u64>(),
        out.report.retries_503,
        q(0.50),
        q(0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trace_run_attributes_slow_requests_to_named_shards() {
        let out = run(Scale::Quick);
        assert!(!out.rows.is_empty(), "no traced requests");
        // Every traced request reconstructs: the front root record is
        // unconditional on core routes, so the merge is never empty.
        for row in &out.rows {
            assert!(row.records > 0, "request {} lost its timeline", row.index);
            assert!(
                row.attempts >= 1,
                "request {} has no root record",
                row.index
            );
        }
        // The kill forces the slow path, and the timeline names the
        // shard and leg that absorbed it.
        assert!(out.attributed() > 0, "no slow-path attribution");
        let attributed = out
            .rows
            .iter()
            .find(|r| r.failover)
            .expect("a failover-served request");
        assert!(attributed.served_by.starts_with("shard-"));
        assert_eq!(attributed.status, 200, "failover still answered");

        let csv = deterministic_csv(&out);
        assert!(csv.starts_with("index,trace,route,status,"));
        assert!(csv.contains("_faults,kill@"));
        assert!(csv.contains(&format!("seed={TRACE_SEED}")));
        assert!(summarize(&out).contains("slow-path rows attributed"));
    }
}
