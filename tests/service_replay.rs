//! Service <-> provisioner integration: the in-process DrAFTS service
//! answers the provisioner's queries with the same graphs a REST client
//! would poll, and the replay produces the paper's qualitative Table 2.

use drafts::core::predictor::DraftsConfig;
use drafts::core::service::{DraftsService, ServiceConfig};
use drafts::market::archetype::Archetype;
use drafts::market::tracegen::{generate_with_archetype, TraceConfig};
use drafts::market::{Az, Catalog, Combo, DAY, MINUTE};
use drafts::platform::sim::{Replay, ReplayConfig};
use drafts::platform::workload::WorkloadConfig;
use drafts::platform::ProvisionerPolicy;

#[test]
fn service_graphs_drive_bids_that_survive_replay() {
    let cfg = |policy| ReplayConfig {
        policy,
        target_p: 0.95,
        workload: WorkloadConfig {
            jobs: 80,
            span: 3000,
            ..WorkloadConfig::default()
        },
        ..ReplayConfig::default()
    };
    let original = Replay::new(cfg(ProvisionerPolicy::Original)).run();
    let drafts = Replay::new(cfg(ProvisionerPolicy::Drafts1Hr)).run();

    assert_eq!(original.jobs_completed, 80);
    assert_eq!(drafts.jobs_completed, 80);
    // Table 2's shape: DrAFTS reduces worst-case (bid-valued) cost.
    assert!(drafts.max_bid_cost < original.max_bid_cost);
    // And stays within the durability spirit: very few terminations.
    assert!(
        drafts.terminations <= 2,
        "{} terminations",
        drafts.terminations
    );
}

#[test]
fn service_respects_refresh_buckets_under_load() {
    let cat = Catalog::standard();
    let combo = Combo::new(
        Az::parse("us-west-1a").unwrap(),
        cat.type_id("c3.2xlarge").unwrap(),
    );
    let h = generate_with_archetype(combo, cat, &TraceConfig::days(20, 5), Archetype::Choppy);
    let mut svc = DraftsService::new(ServiceConfig {
        recompute_period: 15 * MINUTE,
        probabilities: vec![0.95],
        drafts: DraftsConfig {
            duration_stride: 6,
            ..DraftsConfig::default()
        },
        ..ServiceConfig::default()
    });
    svc.register(h);
    // Many queries inside one bucket -> exactly one computation.
    let t0 = 18 * DAY;
    for i in 0..50 {
        let _ = svc.graphs(combo, t0 + i * 10).unwrap();
    }
    assert_eq!(svc.compute_count(), 1);
    // Crossing the bucket boundary triggers exactly one more.
    let _ = svc.graphs(combo, t0 + 15 * MINUTE).unwrap();
    assert_eq!(svc.compute_count(), 2);
}
