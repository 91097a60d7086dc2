//! The paper's replay (Tables 2 and 3): a workload under one
//! provisioning policy.
//!
//! It drives the scan loop the strategy replay also drives; its own
//! scheduling step reuses an idle instance within its billed hour, or
//! launches on the policy's plan and escalates the bid after repeated
//! market rejections.

use crate::metrics::ReplayMetrics;
use crate::policy::ProvisionerPolicy;
use crate::pool::EntryKind;
use crate::scan::{Scan, Scheduler};
use crate::workload::WorkloadConfig;
use drafts_core::predictor::DraftsConfig;
use spotmarket::{LaunchFaults, Price, Region, DAY, MINUTE};

/// Replay parameters.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Experiment seed (markets and workload).
    pub seed: u64,
    /// Which workload draw to replay (Table 3 varies this per run).
    pub workload_index: u64,
    /// The region the platform runs in.
    pub region: Region,
    /// The provisioning policy under test.
    pub policy: ProvisionerPolicy,
    /// Durability probability for the DrAFTS policies (paper: 0.99).
    pub target_p: f64,
    /// Offset into the price histories where the replay begins (leaves
    /// warm-up data for the predictor).
    pub replay_start: u64,
    /// Price-history length in days.
    pub history_days: u64,
    /// Provisioner scan interval in seconds.
    pub scan_interval: u64,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// DrAFTS prediction configuration used by the service.
    pub drafts: DraftsConfig,
    /// Seeded launch-API faults injected into the market simulator
    /// ([`LaunchFaults::none`] by default: the clean path).
    pub launch_faults: LaunchFaults,
    /// Cap on the per-job exponential backoff after transient launch
    /// failures (throttling, insufficient capacity).
    pub max_launch_backoff: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            seed: 20160428,
            workload_index: 0,
            region: Region::UsEast1,
            policy: ProvisionerPolicy::Drafts1Hr,
            target_p: 0.99,
            replay_start: 24 * DAY,
            history_days: 26,
            scan_interval: 60,
            workload: WorkloadConfig::default(),
            drafts: DraftsConfig {
                duration_stride: 3,
                ..DraftsConfig::default()
            },
            launch_faults: LaunchFaults::none(),
            max_launch_backoff: 15 * MINUTE,
        }
    }
}

impl ReplayConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on inconsistent windows or a zero scan interval.
    pub fn validate(&self) {
        assert!(self.scan_interval > 0, "zero scan interval");
        assert!(self.max_launch_backoff > 0, "zero launch backoff cap");
        self.launch_faults.validate();
        assert!(
            self.replay_start < self.history_days * DAY,
            "replay starts outside the histories"
        );
        assert!(
            self.target_p > 0.0 && self.target_p < 1.0,
            "probability must be in (0,1)"
        );
    }
}

/// A configured replay, ready to run.
pub struct Replay {
    cfg: ReplayConfig,
}

impl Replay {
    /// Creates a replay.
    pub fn new(cfg: ReplayConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// Runs the replay to completion and returns its metrics.
    pub fn run(&self) -> ReplayMetrics {
        let mut scan = Scan::new(&self.cfg, None);
        scan.run(&mut PaperRule);
        scan.metrics
    }
}

/// The paper's scheduling step: reuse an idle instance within its billed
/// hour, otherwise launch on the policy's plan.
struct PaperRule;

impl Scheduler for PaperRule {
    fn place(&mut self, scan: &mut Scan<'_>, job_id: u32, t: u64) -> bool {
        if scan.reuse_idle(job_id, EntryKind::Spot, t) {
            return true;
        }
        let profile = scan.jobs[job_id as usize].profile;
        // DrAFTS with no guaranteed market yet: fall back to the
        // platform's original rule.
        let all = |_| true;
        let mut plan = scan
            .plan(scan.cfg.policy, &profile, t, &all)
            .or_else(|| scan.plan(ProvisionerPolicy::Original, &profile, t, &all));
        if let Some(plan) = plan
            .as_mut()
            .filter(|_| scan.attempts[job_id as usize] >= 3)
        {
            // The market has rejected this job repeatedly: escalate to
            // 1.5x the current price (capped by worst-case On-demand x2).
            if let Some(price) = scan.sim.price_at(plan.combo, t) {
                let od = scan.catalog.od_price(plan.combo.ty, plan.combo.az.region());
                plan.bid = price.scale(1.5).min(od.scale(2.0)).max(plan.bid) + Price::TICK;
            }
        }
        scan.request_spot(job_id, plan, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(policy: ProvisionerPolicy) -> ReplayConfig {
        ReplayConfig {
            policy,
            workload: WorkloadConfig {
                jobs: 60,
                span: 3000,
                ..WorkloadConfig::default()
            },
            history_days: 26,
            replay_start: 24 * DAY,
            drafts: DraftsConfig {
                duration_stride: 3,
                ..DraftsConfig::default()
            },
            target_p: 0.95,
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn original_policy_completes_all_jobs() {
        let m = Replay::new(small_cfg(ProvisionerPolicy::Original)).run();
        assert_eq!(m.jobs_completed, 60);
        assert!(m.instances > 0);
        assert!(m.instances <= 60);
        assert!(m.cost > Price::ZERO);
        assert!(m.max_bid_cost >= m.cost);
        assert!(m.makespan > 0);
    }

    #[test]
    fn drafts_policy_completes_all_jobs() {
        let m = Replay::new(small_cfg(ProvisionerPolicy::Drafts1Hr)).run();
        assert_eq!(m.jobs_completed, 60);
        assert!(m.instances > 0);
        assert!(m.cost > Price::ZERO);
    }

    #[test]
    fn drafts_reduces_worst_case_risk() {
        let orig = Replay::new(small_cfg(ProvisionerPolicy::Original)).run();
        let drafts = Replay::new(small_cfg(ProvisionerPolicy::Drafts1Hr)).run();
        // The headline Table 2/3 shape: DrAFTS cuts the risked cost.
        assert!(
            drafts.max_bid_cost < orig.max_bid_cost,
            "drafts risk {} should undercut original {}",
            drafts.max_bid_cost,
            orig.max_bid_cost
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let a = Replay::new(small_cfg(ProvisionerPolicy::DraftsProfiles)).run();
        let b = Replay::new(small_cfg(ProvisionerPolicy::DraftsProfiles)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn pool_reuse_keeps_instances_below_jobs() {
        // Bursts of short jobs must share instances within the hour.
        let cfg = ReplayConfig {
            workload: WorkloadConfig {
                jobs: 80,
                span: 2000,
                runtime_median: 300,
                ..WorkloadConfig::default()
            },
            ..small_cfg(ProvisionerPolicy::Original)
        };
        let m = Replay::new(cfg).run();
        assert_eq!(m.jobs_completed, 80);
        assert!(
            m.instances < 60,
            "hourly reuse should pack 80 short jobs onto fewer instances, used {}",
            m.instances
        );
    }

    #[test]
    fn faulty_launches_still_complete_the_workload() {
        let cfg = ReplayConfig {
            launch_faults: LaunchFaults::with_intensity(11, 1.0),
            ..small_cfg(ProvisionerPolicy::Original)
        };
        let m = Replay::new(cfg.clone()).run();
        assert_eq!(
            m.jobs_completed, 60,
            "transient launch faults must not strand jobs"
        );
        assert!(
            m.capacity_failures + m.throttle_failures > 0,
            "intensity 1 must inject some launch failures"
        );
        assert!(m.requeues >= m.capacity_failures + m.throttle_failures);
        // And the faulty replay is still deterministic.
        assert_eq!(m, Replay::new(cfg).run());
    }

    #[test]
    fn zero_launch_faults_match_the_clean_replay() {
        let clean = Replay::new(small_cfg(ProvisionerPolicy::Original)).run();
        let gated = Replay::new(ReplayConfig {
            launch_faults: LaunchFaults::none(),
            max_launch_backoff: 7 * MINUTE,
            ..small_cfg(ProvisionerPolicy::Original)
        })
        .run();
        assert_eq!(clean, gated, "the zero-fault plan is the clean path");
        assert_eq!(clean.capacity_failures, 0);
        assert_eq!(clean.throttle_failures, 0);
    }

    #[test]
    #[should_panic(expected = "replay starts outside")]
    fn rejects_bad_replay_start() {
        ReplayConfig {
            replay_start: 50 * DAY,
            history_days: 10,
            ..ReplayConfig::default()
        }
        .validate();
    }
}
