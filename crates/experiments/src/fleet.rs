//! Fleet chaos experiment: `repro fleet [--quick]`.
//!
//! Boots the sharded fleet (N in-process drafts-serve shards behind the
//! consistent-hash routing front, [`server::Fleet`]) once per chaos
//! scenario, replays a seeded loadgen workload whose requests march
//! across the fault window in virtual time, and audits the fleet's core
//! invariant: **every answer is guaranteed-and-fresh or explicitly
//! `degraded: true`** — a silently stale answer (fresh-looking but not
//! served by the combo's primary owner) is a correctness bug, counted in
//! the `_stale` row and gated to zero in CI.
//!
//! Scenarios kill 0, 1 and 2 shards mid-run (plus one `Slow` fault in
//! the single-kill scenario, so degraded-tagging without failover is
//! exercised too). Faults are evaluated *logically* at the routing layer
//! in virtual time ([`spotmarket::faults::ShardFaults`]), so the whole
//! artifact — per-route checksums, per-shard failover counters,
//! attainment — is a pure function of `(FLEET_SEED, scale)` and CI
//! byte-compares `fleet.csv` across two runs. Real transport crashes
//! (actually stopping a shard's server) take the same failover path and
//! are exercised by the `tests/fleet.rs` integration tests instead,
//! where wall-clock nondeterminism is acceptable.
//!
//! Attainment is measured over the guarantee-bearing routes (`graphs` +
//! `bid`): the share answered 200, in basis points. With replication 2,
//! killing one shard must not cost any guarantee (every key's replica
//! covers it) — `kills1` attainment stays 10000 and CI gates on it.
//! Killing two of three shards deterministically orphans the keys whose
//! whole owner set died; those requests are *refused* (503 +
//! `Retry-After`, `degraded: true`), never served stale, and attainment
//! records the honest cost.

use crate::common::{Scale, REPRO_SEED};
use crate::serve;
use drafts_core::predictor::DraftsConfig;
use drafts_core::service::ServiceConfig;
use drafts_core::DraftsService;
use loadgen::{RetryPolicy, RunReport, WorkloadConfig};
use server::{Fleet, FleetConfig, Json, Ring};
use simrng::StreamFactory;
use spotmarket::faults::ShardFaults;
use spotmarket::{Az, Catalog, Combo, DAY};
use std::sync::Arc;
use std::time::Duration;

/// Seed domain separating the fleet experiment from the others.
pub const FLEET_SEED: u64 = REPRO_SEED ^ 0xF1EE7;

/// One chaos scenario: how many shards die (and how many merely slow
/// down) inside the run's fault window.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Row label in `fleet.csv`.
    pub name: &'static str,
    /// Shards killed mid-run (unroutable until the end).
    pub kills: usize,
    /// Shards degraded by a `Slow` fault (routable, answers tagged).
    pub slows: usize,
}

/// The fleet workload shape at `scale`.
pub struct FleetPlan {
    /// Fleet size.
    pub shards: usize,
    /// The combo universe registered across the fleet (each combo lands
    /// on its ring owners, primary + replica).
    pub combos: Vec<Combo>,
    /// Loadgen workload (virtual-time marching enabled).
    pub workload: WorkloadConfig,
    /// Virtual time at boot; requests run `now .. now + requests*step`.
    pub now: u64,
    /// Virtual seconds between consecutive planned requests.
    pub step: u64,
    /// The chaos scenarios, run in order.
    pub scenarios: Vec<Scenario>,
}

impl FleetPlan {
    /// End of the run in virtual time.
    pub fn end_now(&self) -> u64 {
        self.now + self.workload.requests as u64 * self.step
    }
}

/// Per-shard failover accounting, read off the front's counters.
#[derive(Debug, Clone, Copy)]
pub struct ShardCounters {
    /// Responses this shard produced.
    pub served: u64,
    /// Responses this shard produced for keys it does not primary-own.
    pub failed_over: u64,
    /// Responses tagged `degraded: true`.
    pub degraded: u64,
    /// Failed probes charged to this shard.
    pub probe_failures: u64,
}

/// One scenario's measured outcome.
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The seeded fault plan's label (e.g. `kill@2:1728150+slow@0:1728210`).
    pub fault_label: String,
    /// Aggregated loadgen report.
    pub report: RunReport,
    /// Front-side accounting per shard, captured before the audit pass.
    pub shards: Vec<ShardCounters>,
    /// Requests refused (503 + `Retry-After`) because no owner was
    /// routable — the explicit alternative to a stale answer.
    pub refused: u64,
    /// Transport-level proxy failures (0 here: faults are logical).
    pub proxy_errors: u64,
    /// Guarantee attainment over `graphs` + `bid`, in basis points.
    pub attainment_bp: u64,
    /// Audit violations: fresh-looking answers not served by the
    /// primary owner. The invariant says this is always 0.
    pub silently_stale: u64,
}

/// The experiment's output.
pub struct FleetOutput {
    /// The plan that ran.
    pub plan: FleetPlan,
    /// One outcome per scenario, in plan order.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// The market population spread across the fleet: the serve
/// experiment's six AZ/type pairs, all registered at both scales (the
/// fleet experiment scales by shard count and request count instead).
fn population(catalog: &Catalog) -> Vec<Combo> {
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

/// Builds the plan for `scale`.
pub fn plan(scale: Scale) -> FleetPlan {
    let catalog = Catalog::standard();
    let combos = population(catalog);
    let now = 20 * DAY; // bucket-aligned; the whole run stays in-bucket
    let step = 1;
    let workload = WorkloadConfig {
        requests: scale.pick(300, 600),
        rate_per_sec: 2000.0,
        clients: 4,
        combos: combos.clone(),
        p: 0.95,
        mix: [0.45, 0.35, 0.15, 0.05],
        virtual_now: Some((now, step)),
    };
    FleetPlan {
        shards: scale.pick(3, 4),
        combos,
        workload,
        now,
        step,
        scenarios: vec![
            Scenario {
                name: "kills0",
                kills: 0,
                slows: 0,
            },
            Scenario {
                name: "kills1",
                kills: 1,
                slows: 1,
            },
            Scenario {
                name: "kills2",
                kills: 2,
                slows: 0,
            },
        ],
    }
}

/// Builds one [`DraftsService`] per shard from the ring's ownership map:
/// each combo's seeded history ([`serve::stand_in_histories`]) is
/// generated once and shared by every shard that owns it (primary +
/// replica) — the replication that makes failover serve real data instead
/// of a guess, without a copy per owner.
pub fn build_shard_services(
    plan: &FleetPlan,
    ring: &Ring,
    scale: Scale,
) -> Vec<Arc<DraftsService>> {
    let histories = serve::stand_in_histories(&plan.combos, FLEET_SEED);
    (0..plan.shards)
        .map(|shard| {
            let mut svc = DraftsService::new(ServiceConfig {
                drafts: DraftsConfig {
                    changepoint: None,
                    autocorr: false,
                    duration_stride: scale.pick(6, 2),
                    ..DraftsConfig::default()
                },
                ..ServiceConfig::default()
            });
            for (i, &combo) in plan.combos.iter().enumerate() {
                if ring.owners(combo.key()).contains(&shard) {
                    svc.register(Arc::clone(&histories[i]));
                }
            }
            Arc::new(svc)
        })
        .collect()
}

/// Boots the fleet `cfg` describes: [`build_shard_services`] on its ring,
/// each warmed at `plan.now` first so the replay is pure steady state per
/// shard.
pub fn boot(plan: &FleetPlan, cfg: FleetConfig, scale: Scale) -> Fleet {
    let services = build_shard_services(plan, &cfg.ring(), scale);
    for service in &services {
        service.warm(plan.now);
    }
    Fleet::start(services, plan.now, cfg).expect("boot fleet")
}

/// Replays `plan`'s workload, drawn from `seed`, against `fleet`. One
/// retry with a tight backoff cap keeps wall time bounded when a scenario
/// deterministically refuses (kills2): the retry re-asks the identical
/// virtual-time question and gets the identical refusal.
pub fn replay(plan: &FleetPlan, fleet: &Fleet, seed: u64) -> RunReport {
    let requests = loadgen::build_plan(
        &plan.workload,
        &StreamFactory::new(seed),
        Catalog::standard(),
    );
    let retry = RetryPolicy {
        max_retries: 1,
        seed,
        max_backoff: Duration::from_millis(50),
    };
    loadgen::run_with(
        fleet.addr(),
        &requests,
        plan.workload.clients,
        Duration::from_secs(5),
        &retry,
    )
}

/// The fleet config for one scenario: faults sampled inside the run's
/// virtual window, everything else the shared defaults.
fn scenario_config(plan: &FleetPlan, scenario: Scenario) -> FleetConfig {
    let mut cfg = FleetConfig::new(plan.shards);
    if scenario.kills + scenario.slows > 0 {
        cfg.faults = ShardFaults::sample(
            FLEET_SEED,
            plan.shards,
            (plan.now, plan.end_now()),
            scenario.kills,
            0,
            scenario.slows,
        );
    }
    cfg
}

/// Runs one scenario: boot, warm, replay, audit, drain.
pub fn run_scenario(plan: &FleetPlan, scenario: Scenario, scale: Scale) -> ScenarioOutcome {
    let cfg = scenario_config(plan, scenario);
    let fault_label = cfg.faults.label();
    let ring = cfg.ring();
    let fleet = boot(plan, cfg, scale);
    let report = replay(plan, &fleet, FLEET_SEED);

    // Snapshot the front's accounting before the audit adds traffic.
    let counters = fleet.front().counters();
    let shards = (0..plan.shards)
        .map(|i| ShardCounters {
            served: counters.served[i].get(),
            failed_over: counters.failed_over[i].get(),
            degraded: counters.degraded[i].get(),
            probe_failures: counters.probe_failures[i].get(),
        })
        .collect();
    let refused = counters.refused.get();
    let proxy_errors = counters.proxy_errors.get();

    let guarantee = |route: &str| {
        report
            .routes
            .get(route)
            .map_or((0, 0), |t| (t.requests, t.ok))
    };
    let (greq, gok) = guarantee("graphs");
    let (breq, bok) = guarantee("bid");
    let attainment_bp = (gok + bok) * 10_000 / (greq + breq).max(1);

    let silently_stale = audit(&fleet, &ring, plan, plan.end_now());
    fleet.shutdown();

    ScenarioOutcome {
        scenario,
        fault_label,
        report,
        shards,
        refused,
        proxy_errors,
        attainment_bp,
        silently_stale,
    }
}

/// The audit pass: re-asks every combo's graph (and one bid) at the end
/// of the virtual window — *after* every fault onset — and checks the
/// invariant from the other side of the wire: an answer claiming
/// `degraded: false` must come from the combo's primary ring owner, and
/// a refusal must still carry the explicit `degraded: true` marker.
/// Anything else is a silently stale answer.
fn audit(fleet: &Fleet, ring: &Ring, plan: &FleetPlan, now: u64) -> u64 {
    let catalog = Catalog::standard();
    let mut client = loadgen::Client::new(fleet.addr(), Duration::from_secs(5));
    let mut violations = 0u64;
    let fresh_violation = |status: u16, body: &[u8], primary: Option<&str>| {
        let Ok(text) = std::str::from_utf8(body) else {
            return true;
        };
        let Ok(doc) = Json::parse(text) else {
            return true;
        };
        let degraded = doc.get("degraded").and_then(Json::as_bool).unwrap_or(false);
        if status != 200 {
            // A refusal is honest only when explicitly degraded.
            return !degraded;
        }
        if degraded {
            return false; // explicitly tagged: always acceptable
        }
        let served_by = doc.get("served_by").and_then(Json::as_str).unwrap_or("");
        match primary {
            Some(p) => served_by != p,
            None => false,
        }
    };
    for &combo in &plan.combos {
        let path = format!(
            "/v1/graphs/{}/{}/{}?p={}&now={now}",
            combo.az.region().name(),
            combo.az.name(),
            catalog.spec(combo.ty).name,
            plan.workload.p,
        );
        let primary = format!("shard-{}", ring.primary(combo.key()));
        match client.get(&path) {
            Ok((status, body)) => {
                if fresh_violation(status, &body, Some(&primary)) {
                    violations += 1;
                }
            }
            Err(_) => violations += 1,
        }
    }
    // One bid: a fresh-looking quote must be primary-served too. The
    // quoted combo is the winner's, read back from the response.
    let path = format!("/v1/bid?duration=3600&p={}&now={now}", plan.workload.p);
    match client.get(&path) {
        Ok((status, body)) => {
            let primary = std::str::from_utf8(&body)
                .ok()
                .and_then(|text| Json::parse(text).ok())
                .and_then(|doc| {
                    let az = Az::parse(doc.get("az")?.as_str()?)?;
                    let ty = catalog.type_id(doc.get("type")?.as_str()?)?;
                    Some(format!("shard-{}", ring.primary(Combo::new(az, ty).key())))
                });
            if fresh_violation(status, &body, primary.as_deref()) {
                violations += 1;
            }
        }
        Err(_) => violations += 1,
    }
    violations
}

/// Runs every scenario in plan order.
pub fn run(scale: Scale) -> FleetOutput {
    let plan = plan(scale);
    let scenarios = plan
        .scenarios
        .iter()
        .map(|&scenario| run_scenario(&plan, scenario, scale))
        .collect();
    FleetOutput { plan, scenarios }
}

/// Renders the deterministic artifact (`fleet.csv`): per-route tallies
/// per scenario, per-shard failover accounting, attainment, the stale
/// audit, and the run configuration. A pure function of
/// `(FLEET_SEED, scale)`; CI runs the experiment twice and
/// byte-compares this file.
pub fn deterministic_csv(out: &FleetOutput) -> String {
    let mut csv = String::from("scenario,route,requests,ok,body_bytes,checksum\n");
    for outcome in &out.scenarios {
        let name = outcome.scenario.name;
        for (route, tally) in &outcome.report.routes {
            csv.push_str(&format!(
                "{name},{route},{},{},{},{:016x}\n",
                tally.requests, tally.ok, tally.body_bytes, tally.checksum
            ));
        }
        for (i, shard) in outcome.shards.iter().enumerate() {
            csv.push_str(&format!(
                "{name},_shard:shard-{i},served={};failed_over={};degraded={};probe_failures={},,,\n",
                shard.served, shard.failed_over, shard.degraded, shard.probe_failures
            ));
        }
        let total = |f: fn(&ShardCounters) -> u64| outcome.shards.iter().map(f).sum::<u64>();
        csv.push_str(&format!(
            "{name},_fleet,refused={};proxy_errors={};retries_503={};failed_over_total={};degraded_total={},,,\n",
            outcome.refused,
            outcome.proxy_errors,
            outcome.report.retries_503,
            total(|s| s.failed_over),
            total(|s| s.degraded),
        ));
        csv.push_str(&format!(
            "{name},_bid,attainment_bp={},,,\n",
            outcome.attainment_bp
        ));
        csv.push_str(&format!(
            "{name},_stale,silently_stale={},,,\n",
            outcome.silently_stale
        ));
        csv.push_str(&format!("{name},_faults,{},,,\n", outcome.fault_label));
    }
    csv.push_str(&format!(
        "_config,shards={};replication=2;requests={};clients={};p={};now={};step={};seed={},,,\n",
        out.plan.shards,
        out.plan.workload.requests,
        out.plan.workload.clients,
        out.plan.workload.p,
        out.plan.now,
        out.plan.step,
        FLEET_SEED,
    ));
    csv
}

/// One-paragraph human summary per scenario for stdout.
pub fn summarize(out: &FleetOutput) -> String {
    let mut text = String::new();
    for outcome in &out.scenarios {
        let total = |f: fn(&ShardCounters) -> u64| outcome.shards.iter().map(f).sum::<u64>();
        text.push_str(&format!(
            "fleet {}: {} requests over {} shards ({}), \
             attainment {}bp, {} failed over, {} degraded, {} refused, \
             {} retried, silently stale {}\n",
            outcome.scenario.name,
            outcome.report.total(),
            out.plan.shards,
            outcome.fault_label,
            outcome.attainment_bp,
            total(|s| s.failed_over),
            total(|s| s.degraded),
            outcome.refused,
            outcome.report.retries_503,
            outcome.silently_stale,
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fleet_run_holds_the_freshness_invariant() {
        let out = run(Scale::Quick);
        assert_eq!(out.scenarios.len(), 3);
        for outcome in &out.scenarios {
            // The tentpole invariant: zero silently stale answers, in
            // every scenario, chaos included.
            assert_eq!(
                outcome.silently_stale, 0,
                "{}: stale answers leaked",
                outcome.scenario.name
            );
            assert_eq!(
                outcome.proxy_errors, 0,
                "logical faults never hit transport"
            );
        }
        let by_name = |name: &str| {
            out.scenarios
                .iter()
                .find(|o| o.scenario.name == name)
                .expect("scenario ran")
        };
        // Replication 2 absorbs one kill without losing a guarantee.
        assert_eq!(by_name("kills0").attainment_bp, 10_000);
        assert_eq!(by_name("kills1").attainment_bp, 10_000);
        let kills1 = by_name("kills1");
        let total =
            |o: &ScenarioOutcome, f: fn(&ShardCounters) -> u64| o.shards.iter().map(f).sum::<u64>();
        assert!(
            total(kills1, |s| s.failed_over) > 0,
            "a kill must force failover"
        );
        assert!(
            total(kills1, |s| s.degraded) > 0,
            "failover answers must be tagged"
        );
        assert_eq!(total(by_name("kills0"), |s| s.failed_over), 0);
        assert_eq!(by_name("kills0").refused, 0);

        let csv = deterministic_csv(&out);
        assert!(csv.starts_with("scenario,route,requests,ok,body_bytes,checksum\n"));
        for needle in [
            "kills1,_bid,attainment_bp=10000",
            "kills0,_stale,silently_stale=0",
            "kills1,_stale,silently_stale=0",
            "kills2,_stale,silently_stale=0",
            "_config,shards=3",
        ] {
            assert!(csv.contains(needle), "missing {needle} in\n{csv}");
        }
        assert!(summarize(&out).contains("silently stale 0"));
    }
}
