//! Pins both replays to literal outcomes: the paper replay under every
//! provisioning policy, and the strategy replay under three strategies at
//! full fault intensity (feed corruption, launch faults and every advisory
//! shard killed halfway through the submissions). Any change to the scan
//! loop that moves a single count or tick of cost fails here, so a
//! refactor of the loop is checked against the values it had before.

use provisioner::workload::WorkloadConfig;
use provisioner::{
    ProvisionerPolicy, Replay, ReplayConfig, ReplayMetrics, StrategyOutcome, StrategyReplay,
    StrategyReplayConfig,
};
use spotmarket::faults::{ShardFault, ShardFaultKind, ShardFaults};
use spotmarket::{FaultPlan, LaunchFaults, Price, DAY};
use strategy::{DraftsBid, EmaAvailability, Portfolio, Strategy};

/// The paper replay's small configuration (60 jobs over 50 minutes).
fn paper_cfg(policy: ProvisionerPolicy) -> ReplayConfig {
    ReplayConfig {
        policy,
        workload: WorkloadConfig {
            jobs: 60,
            span: 3000,
            ..WorkloadConfig::default()
        },
        history_days: 26,
        replay_start: 24 * DAY,
        target_p: 0.95,
        ..ReplayConfig::default()
    }
}

/// The strategy arena's full-intensity cell at `--quick` scale: every
/// launch-fault and feed-fault rate at its full value, and all three
/// advisory shards killed halfway through the submission span.
fn arena_cfg() -> StrategyReplayConfig {
    const SEED: u64 = 20160207;
    let base = ReplayConfig {
        seed: SEED,
        policy: ProvisionerPolicy::DraftsProfiles,
        workload: WorkloadConfig {
            jobs: 50,
            span: 3000,
            ..WorkloadConfig::default()
        },
        target_p: 0.95,
        launch_faults: LaunchFaults::with_intensity(SEED ^ 1, 1.0),
        ..ReplayConfig::default()
    };
    let onset = base.replay_start + 1500;
    StrategyReplayConfig {
        base,
        feed_faults: Some(FaultPlan::with_intensity(SEED ^ 2, 1.0)),
        shard_faults: ShardFaults::with(
            3,
            (0..3)
                .map(|shard| ShardFault {
                    shard,
                    kind: ShardFaultKind::Kill,
                    from: onset,
                    until: u64::MAX,
                })
                .collect(),
        ),
    }
}

/// Replay metrics from literal counts and tick costs; every field not
/// named is zero.
fn metrics(
    instances: u64,
    (cost, max_bid_cost): (u64, u64),
    terminations: u64,
    jobs_completed: u64,
    makespan: u64,
    requeues: u64,
    throttle_failures: u64,
) -> ReplayMetrics {
    ReplayMetrics {
        instances,
        cost: Price::from_ticks(cost),
        max_bid_cost: Price::from_ticks(max_bid_cost),
        terminations,
        jobs_completed,
        makespan,
        requeues,
        throttle_failures,
        ..ReplayMetrics::default()
    }
}

#[test]
fn paper_replays_match_their_pinned_metrics() {
    use ProvisionerPolicy::{Drafts1Hr, DraftsProfiles, Original};
    let faulty = ReplayConfig {
        launch_faults: LaunchFaults::with_intensity(11, 1.0),
        ..paper_cfg(Original)
    };
    let cases = [
        (
            paper_cfg(Original),
            metrics(28, (11480, 49913), 2, 60, 7200, 3, 0),
        ),
        (
            paper_cfg(Drafts1Hr),
            metrics(27, (9671, 21248), 0, 60, 6420, 0, 0),
        ),
        (
            paper_cfg(DraftsProfiles),
            metrics(27, (10001, 13303), 0, 60, 6420, 0, 0),
        ),
        (faulty, metrics(28, (11530, 49988), 2, 60, 7620, 12, 9)),
    ];
    for (cfg, want) in cases {
        let label = format!("{:?}, faults {:?}", cfg.policy, cfg.launch_faults);
        let got = Replay::new(cfg).run();
        // The paper's replay reports no deadline attainment (Tables 2-3
        // have no such column), so that one field is not pinned.
        let got = ReplayMetrics {
            deadline_misses: 0,
            ..got
        };
        assert_eq!(got, want, "{label}");
    }
}

#[test]
fn strategy_replays_match_their_pinned_outcomes() {
    let cases: [(Box<dyn Strategy>, StrategyOutcome); 3] = [
        (
            Box::new(DraftsBid),
            StrategyOutcome {
                metrics: metrics(41, (41382, 44305), 0, 50, 7860, 3, 3),
                decisions: 422,
                panic_activations: 0,
                od_instances: 23,
                od_cost: Price::from_ticks(37030),
                spot_cost: Price::from_ticks(4352),
            },
        ),
        (
            Box::new(EmaAvailability::new()),
            StrategyOutcome {
                metrics: ReplayMetrics {
                    strategy_switches: 1,
                    ..metrics(26, (11389, 24887), 0, 50, 7920, 5, 5)
                },
                decisions: 1010,
                panic_activations: 1,
                od_instances: 1,
                od_cost: Price::from_ticks(1330),
                spot_cost: Price::from_ticks(10059),
            },
        ),
        (
            Box::new(Portfolio::new()),
            StrategyOutcome {
                metrics: metrics(28, (27101, 37220), 0, 50, 7860, 5, 5),
                decisions: 742,
                panic_activations: 0,
                od_instances: 10,
                od_cost: Price::from_ticks(16470),
                spot_cost: Price::from_ticks(10631),
            },
        ),
    ];
    for (mut strategy, want) in cases {
        let got = StrategyReplay::new(arena_cfg()).run(strategy.as_mut());
        assert_eq!(got, want, "{}", strategy.name());
    }
}
