//! End-to-end degraded-feed behaviour: seeded feed faults flow through the
//! service's health machinery into the provisioning policy, and the whole
//! stack keeps the conservative-degradation invariant — a response marked
//! guaranteed is never backed by data older than the staleness budget.

use drafts::core::predictor::DraftsConfig;
use drafts::core::service::{DraftsService, FeedHealth, ServiceConfig};
use drafts::market::archetype::Archetype;
use drafts::market::catalog::Family;
use drafts::market::faults::{CleanFeed, FaultPlan, FaultyFeed, FeedError, FeedSource};
use drafts::market::tracegen::{generate_with_archetype, TraceConfig};
use drafts::market::Region;
use drafts::market::{Az, Catalog, Combo, PriceHistory, DAY, HOUR};
use drafts::platform::job::JobProfile;
use drafts::platform::policy::{self, ProvisionerPolicy};
use std::sync::Arc;

fn combo() -> Combo {
    let cat = Catalog::standard();
    Combo::new(
        Az::parse("us-west-2a").unwrap(),
        cat.type_id("c4.large").unwrap(),
    )
}

fn history(seed: u64) -> PriceHistory {
    generate_with_archetype(
        combo(),
        Catalog::standard(),
        &TraceConfig::days(30, seed),
        Archetype::Choppy,
    )
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        probabilities: vec![0.95],
        drafts: DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: 6,
            ..DraftsConfig::default()
        },
        ..ServiceConfig::default()
    }
}

#[test]
fn hostile_feed_degrades_but_never_over_promises() {
    let truth = Arc::new(history(17));
    let plan = FaultPlan::with_intensity(20170101, 1.0);
    let run = || {
        let mut svc = DraftsService::new(service_cfg());
        svc.register_feed(Arc::new(FaultyFeed::new(truth.clone(), plan)));
        let budget = ServiceConfig::default().staleness_budget;
        let period = ServiceConfig::default().recompute_period;
        let mut trace = Vec::new();
        for i in 0..300u64 {
            let now = 10 * DAY + i * period;
            let bucket_time = (now / period) * period;
            match svc.fetch(combo(), now) {
                Some(r) => {
                    if r.is_guaranteed() {
                        assert!(
                            bucket_time.saturating_sub(r.covered_until) <= budget,
                            "guaranteed response served from out-of-budget data at {now}"
                        );
                    }
                    trace.push((r.health, r.covered_until));
                }
                None => trace.push((FeedHealth::Unavailable, 0)),
            }
        }
        trace
    };
    let a = run();
    // An intensity-1 plan must actually degrade something.
    assert!(
        a.iter()
            .any(|(h, _)| !h.is_guaranteed() || matches!(h, FeedHealth::Stale { .. })),
        "hostile plan produced a perfectly fresh feed"
    );
    // And the whole health trace replays identically from the same seed.
    assert_eq!(a, run());
}

#[test]
fn concurrent_fanout_is_single_flighted() {
    let mut svc = DraftsService::new(service_cfg());
    svc.register(history(18));
    let period = ServiceConfig::default().recompute_period;
    let t0 = 20 * DAY;
    let buckets = 5u64;
    let queries: Vec<u64> = (0..40).map(|i| t0 + (i % buckets) * period + i).collect();
    let results = drafts::parallel::Pool::new(8).par_map(&queries, |&t| {
        (
            t / period,
            svc.graphs(combo(), t).expect("graphs published"),
        )
    });
    assert_eq!(
        svc.compute_count(),
        buckets,
        "concurrent fan-out must compute each bucket exactly once"
    );
    for (ba, ga) in &results {
        for (bb, gb) in &results {
            if ba == bb {
                assert!(Arc::ptr_eq(ga, gb), "one shared graph set per bucket");
            }
        }
    }
}

#[test]
fn fault_counters_match_the_injected_plan_totals() {
    let truth = Arc::new(history(21));
    let plan = FaultPlan::with_intensity(20170202, 1.0);
    let feed = Arc::new(FaultyFeed::new(truth.clone(), plan));
    let counters = feed.fault_counters();

    // The schedule kinds are fixed at construction and independently
    // recoverable from the delivered series: every dropped update is a
    // missing timestamp, every corruption a changed value at a kept one
    // (corruption always perturbs — a no-op tick never counts).
    let delivered = feed.delivered().clone();
    let drops = (truth.len() - delivered.len()) as u64;
    assert!(drops > 0, "hostile plan must drop updates");
    assert_eq!(counters.drops.get(), drops);
    let mut corrupted = 0u64;
    let mut ti = 0usize;
    for k in 0..delivered.len() {
        let t = delivered.time(k);
        while truth.time(ti) < t {
            ti += 1;
        }
        assert_eq!(truth.time(ti), t, "delivered times must be a subset");
        if truth.series().values()[ti] != delivered.series().values()[k] {
            corrupted += 1;
        }
    }
    assert_eq!(counters.corruptions.get(), corrupted);
    assert!(counters.duplicates.get() > 0);
    assert!(counters.reorders.get() > 0);

    // The poll-time kinds count live: exactly one increment per rejected
    // poll, matching the errors the client actually saw.
    let (mut outages, mut throttles) = (0u64, 0u64);
    for now in (0..30 * DAY).step_by(900) {
        match feed.poll(now, 0) {
            Err(FeedError::Outage { .. }) => outages += 1,
            Err(FeedError::Throttled) => throttles += 1,
            Ok(_) => {}
        }
    }
    assert!(
        outages > 0 && throttles > 0,
        "hostile plan must reject polls"
    );
    assert_eq!(counters.outage_polls.get(), outages);
    assert_eq!(counters.throttled_polls.get(), throttles);

    // A twin feed from the same plan injects the identical totals.
    let twin = FaultyFeed::new(truth.clone(), plan);
    let tc = twin.fault_counters();
    assert_eq!(counters.drops.get(), tc.drops.get());
    assert_eq!(counters.duplicates.get(), tc.duplicates.get());
    assert_eq!(counters.corruptions.get(), tc.corruptions.get());
    assert_eq!(counters.reorders.get(), tc.reorders.get());

    // Booting a service over the feed exposes the same totals in the
    // registry, labelled by combo.
    let registry = drafts::obs::Registry::new();
    let mut svc = DraftsService::new(service_cfg());
    svc.register_feed(feed.clone());
    svc.register_metrics(&registry);
    let text = registry.render_text();
    let label = format!("{}/{}", combo().az, combo().ty.0);
    assert!(
        text.contains(&format!(
            "drafts_feed_faults_total{{combo=\"{label}\",kind=\"drop\"}} {drops}\n"
        )),
        "missing drop line in:\n{text}"
    );
    assert!(text.contains(&format!(
        "drafts_feed_faults_total{{combo=\"{label}\",kind=\"outage_poll\"}} {outages}\n"
    )));
}

#[test]
fn transition_and_fault_events_match_an_independent_replay_of_the_plan() {
    let truth = Arc::new(history(23));
    let plan = FaultPlan::with_intensity(20170404, 1.0);
    let period = ServiceConfig::default().recompute_period;
    let steps: Vec<u64> = (0..300u64).map(|i| 10 * DAY + i * period).collect();

    let run = || {
        let mut svc = DraftsService::new(service_cfg());
        svc.register_feed(Arc::new(FaultyFeed::new(truth.clone(), plan)));
        let log = drafts::obs::EventLog::new(4096);
        svc.attach_events(&log);
        let mut labels: Vec<Option<&'static str>> = Vec::new();
        for &now in &steps {
            labels.push(svc.fetch(combo(), now).map(|r| match r.health {
                FeedHealth::Fresh => "fresh",
                FeedHealth::Stale { .. } => "stale",
                FeedHealth::Unavailable => "unavailable",
            }));
        }
        (labels, log.snapshot())
    };
    let (labels, events) = run();

    // The health_transition event stream must replay exactly the
    // deduplicated health trace observable through the public fetch API —
    // no missing, extra, or reordered transitions.
    let mut expected: Vec<(String, String)> = Vec::new();
    let mut prev: Option<&str> = None;
    for &label in labels.iter().flatten() {
        if prev != Some(label) {
            expected.push((prev.unwrap_or("none").to_string(), label.to_string()));
            prev = Some(label);
        }
    }
    let got: Vec<(String, String)> = events
        .iter()
        .filter(|e| e.kind == "health_transition")
        .map(|e| {
            let field = |k: &str| e.fields.iter().find(|(n, _)| *n == k).unwrap().1.clone();
            assert_eq!(
                field("combo"),
                format!("{}/{}", combo().az, combo().ty.0),
                "events must carry the canonical combo label"
            );
            (field("from"), field("to"))
        })
        .collect();
    assert_eq!(got, expected, "event stream diverges from the health trace");
    // The hostile plan must exercise the full decay arc and a recovery.
    let has = |f: &str, t: &str| expected.iter().any(|(a, b)| a == f && b == t);
    assert!(
        has("fresh", "stale"),
        "no fresh->stale transition: {expected:?}"
    );
    assert!(
        has("stale", "unavailable"),
        "no stale->unavailable transition: {expected:?}"
    );
    assert!(
        expected.iter().any(|(f, t)| t == "fresh" && f != "none"),
        "no recovery back to fresh: {expected:?}"
    );

    // Fault onset / recovery events must match an independent replay of
    // the service's retry loop against a twin feed built from the same
    // plan (the same cross-check style the fault counters get above).
    let twin = FaultyFeed::new(truth.clone(), plan);
    let cfg = ServiceConfig::default();
    let (mut faults, mut recoveries) = (0u64, 0u64);
    for &bucket_time in &steps {
        let mut poll_at = bucket_time;
        let mut attempt: u32 = 0;
        loop {
            match twin.poll(poll_at, attempt) {
                Ok(_) => {
                    if attempt > 0 {
                        recoveries += 1;
                    }
                    break;
                }
                Err(_) => {
                    if attempt >= cfg.max_retries {
                        faults += 1;
                        break;
                    }
                    poll_at += cfg.retry_backoff << attempt;
                    attempt += 1;
                }
            }
        }
    }
    assert!(
        faults > 0,
        "an intensity-1 plan must exhaust some retry budgets"
    );
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(count("feed_fault"), faults);
    assert_eq!(count("feed_recovered"), recoveries);

    // And the whole event stream replays bit-for-bit from the same seed.
    assert_eq!(run().1, events);
}

/// A feed with one fixed outage window.
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

#[test]
fn policy_refuses_spot_on_an_out_of_budget_market() {
    let day20 = 20 * DAY;
    let mut svc = DraftsService::new(service_cfg());
    svc.register_feed(Arc::new(OutageFeed {
        inner: CleanFeed::new(Arc::new(history(19))),
        from: day20,
        until: day20 + 6 * HOUR,
    }));
    let profile = JobProfile {
        family: Family::Compute,
        min_vcpus: 2,
        min_mem_gb: 3.0,
        est_runtime: 900,
    };
    let cat = Catalog::standard();
    let healthy = policy::plan(
        ProvisionerPolicy::Drafts1Hr,
        cat,
        &svc,
        Region::UsWest2,
        &profile,
        day20 - HOUR,
        0.95,
    );
    assert!(healthy.is_some(), "pre-outage the market quotes normally");

    // Deep in the outage, past the staleness budget: the service still
    // serves last-good graphs, but flags them no-guarantee — and the
    // DrAFTS policy must refuse to launch spot on them.
    let degraded = policy::plan(
        ProvisionerPolicy::Drafts1Hr,
        cat,
        &svc,
        Region::UsWest2,
        &profile,
        day20 + 3 * HOUR,
        0.95,
    );
    assert!(
        degraded.is_none(),
        "no-guarantee fallbacks must not produce spot launch plans"
    );
}
