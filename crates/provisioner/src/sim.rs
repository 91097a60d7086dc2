//! The replay simulator (the SCRIMP-style plugin of paper §4.3).
//!
//! Replays a workload against the spot-market substrate under a
//! provisioning policy: jobs queue on submission, the provisioner scans the
//! queue on a fixed interval, reuses idle pool instances within their
//! billed hour, launches new ones per the policy, requeues jobs whose
//! instance the market revokes, and releases idle instances at the 3300 s
//! point of their hour. Everything is deterministic in the configuration.

use crate::job::Job;
use crate::metrics::ReplayMetrics;
use crate::policy::{self, LaunchPlan, ProvisionerPolicy};
use crate::pool::{Pool, PoolEntry};
use crate::workload::{self, WorkloadConfig};
use drafts_core::predictor::DraftsConfig;
use drafts_core::service::{DraftsService, ServiceConfig};
use simrng::StreamFactory;
use spotmarket::catalog::Catalog;
use spotmarket::lifecycle::{InstanceState, TerminationReason};
use spotmarket::simulator::{LaunchError, SpotSimulator};
use spotmarket::tracegen::TraceConfig;
use spotmarket::{LaunchFaults, Price, Region, DAY, MINUTE};
use std::collections::VecDeque;
use std::sync::Arc;

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
    catalog: &'static Catalog,
}

impl Replay {
    /// Creates a replay.
    pub fn new(cfg: ReplayConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            catalog: Catalog::standard(),
        }
    }

    /// Runs the replay to completion and returns its metrics.
    pub fn run(&self) -> ReplayMetrics {
        let cfg = &self.cfg;
        let trace_cfg = TraceConfig::days(cfg.history_days, cfg.seed);
        let mut sim = SpotSimulator::new(self.catalog, trace_cfg);
        sim.set_launch_faults(cfg.launch_faults);

        // The DrAFTS service sees the same histories the market replays.
        let mut service = DraftsService::new(ServiceConfig {
            probabilities: vec![cfg.target_p],
            drafts: cfg.drafts,
            // Half-hourly refresh keeps single-core replays tractable
            // while staying within the spirit of the 15-minute service.
            recompute_period: 30 * spotmarket::MINUTE,
            ..ServiceConfig::default()
        });
        if matches!(
            cfg.policy,
            ProvisionerPolicy::Drafts1Hr | ProvisionerPolicy::DraftsProfiles
        ) {
            for az in cfg.region.azs() {
                for combo in self.catalog.combos_in_az(az) {
                    service.register(Arc::clone(sim.history(combo)));
                }
            }
        }

        let factory = StreamFactory::new(cfg.seed);
        let jobs = workload::generate(&cfg.workload, &factory, cfg.workload_index);

        let mut metrics = ReplayMetrics::default();
        let mut pool = Pool::new();
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut attempts = vec![0u32; jobs.len()];
        // Transient-launch-fault bookkeeping, separate from the bid
        // escalation above: fault retries back off, bid retries escalate.
        let mut fault_attempts = vec![0u32; jobs.len()];
        let mut not_before = vec![0u64; jobs.len()];
        let mut next_job = 0usize;
        let mut last_completion = cfg.replay_start;

        let deadline = cfg.replay_start + 7 * DAY;
        let mut t = cfg.replay_start;
        loop {
            let t_rel = t - cfg.replay_start;

            // 1. Admissions.
            while next_job < jobs.len() && jobs[next_job].submit_offset <= t_rel {
                queue.push_back(jobs[next_job].id);
                next_job += 1;
            }

            // 2. Market revocations: requeue victims' jobs.
            let ids: Vec<_> = pool.iter().map(|e| e.id).collect();
            for id in ids {
                if let InstanceState::Terminated { reason, .. } = sim.poll(id, t) {
                    let entry = pool.remove(id).expect("tracked member");
                    if reason == TerminationReason::Price {
                        metrics.terminations += 1;
                        if let Some(job_id) = entry.running_job {
                            queue.push_front(job_id);
                        }
                    }
                    metrics.cost += sim.cost(id, t);
                    metrics.max_bid_cost += sim.worst_case_cost(id, t);
                }
            }

            // 3. Completions.
            let done: Vec<_> = pool
                .iter()
                .filter(|e| !e.is_idle() && e.busy_until <= t)
                .map(|e| e.id)
                .collect();
            for id in done {
                let entry = pool.get_mut(id).expect("tracked member");
                Pool::finish(entry);
                metrics.jobs_completed += 1;
                last_completion = t;
            }

            // 4. Scheduling.
            let mut still_queued = VecDeque::new();
            while let Some(job_id) = queue.pop_front() {
                let job = &jobs[job_id as usize];
                let ji = job_id as usize;
                if not_before[ji] > t {
                    // Backing off after a transient launch fault.
                    still_queued.push_back(job_id);
                    continue;
                }
                if let Some(entry) = pool.find_idle(self.catalog, &job.profile, t) {
                    Pool::assign(entry, job, t);
                    continue;
                }
                match self.launch(&mut sim, &service, job, t, attempts[ji]) {
                    Ok((id, plan)) => {
                        let mut entry = PoolEntry {
                            id,
                            combo: plan.combo,
                            launched_at: t,
                            running_job: None,
                            busy_until: 0,
                            kind: crate::pool::EntryKind::Spot,
                            hourly: Price::ZERO,
                        };
                        Pool::assign(&mut entry, job, t);
                        pool.add(entry);
                        metrics.instances += 1;
                    }
                    Err(failure) => {
                        match failure {
                            LaunchFailure::Transient(e) => {
                                // Bounded exponential backoff, then retry
                                // the same plan: capacity windows pass and
                                // throttling is per-request.
                                match e {
                                    LaunchError::InsufficientCapacity => {
                                        metrics.capacity_failures += 1;
                                    }
                                    LaunchError::Throttled => {
                                        metrics.throttle_failures += 1;
                                    }
                                    _ => {}
                                }
                                let shift = fault_attempts[ji].min(16);
                                let delay =
                                    (cfg.scan_interval << shift).min(cfg.max_launch_backoff);
                                not_before[ji] = t + delay;
                                fault_attempts[ji] += 1;
                            }
                            LaunchFailure::Rejected => {
                                // Bid too low (or no plan): next scan may
                                // escalate the bid.
                                attempts[ji] += 1;
                            }
                        }
                        metrics.requeues += 1;
                        still_queued.push_back(job_id);
                    }
                }
            }
            queue = still_queued;

            // 5. Idle releases (and full drain once the workload is done).
            let drained =
                next_job == jobs.len() && queue.is_empty() && pool.iter().all(|e| e.is_idle());
            let releases = if drained {
                pool.iter().map(|e| e.id).collect()
            } else {
                pool.due_for_release(t)
            };
            for id in releases {
                sim.terminate(id, t);
                pool.remove(id);
                metrics.cost += sim.cost(id, t);
                metrics.max_bid_cost += sim.worst_case_cost(id, t);
            }

            if next_job == jobs.len() && queue.is_empty() && pool.is_empty() {
                break;
            }
            t += cfg.scan_interval;
            assert!(t < deadline, "replay failed to converge within 7 days");
        }

        metrics.makespan = last_completion - cfg.replay_start;
        metrics
    }

    /// Launches an instance for `job`, escalating after repeated failures.
    fn launch(
        &self,
        sim: &mut SpotSimulator,
        service: &DraftsService,
        job: &Job,
        t: u64,
        prior_attempts: u32,
    ) -> Result<(spotmarket::lifecycle::InstanceId, LaunchPlan), LaunchFailure> {
        let cfg = &self.cfg;
        let mut plan = policy::plan(
            cfg.policy,
            self.catalog,
            service,
            cfg.region,
            &job.profile,
            t,
            cfg.target_p,
        )
        .or_else(|| {
            // DrAFTS with no guaranteed market yet: fall back to the
            // platform's original rule.
            policy::plan(
                ProvisionerPolicy::Original,
                self.catalog,
                service,
                cfg.region,
                &job.profile,
                t,
                cfg.target_p,
            )
        })
        .ok_or(LaunchFailure::Rejected)?;
        if prior_attempts >= 3 {
            // The market has rejected this job repeatedly: escalate to
            // 1.5x the current price (capped by worst-case On-demand x2).
            if let Some(price) = sim.price_at(plan.combo, t) {
                let od = self.catalog.od_price(plan.combo.ty, plan.combo.az.region());
                plan.bid = price.scale(1.5).min(od.scale(2.0)).max(plan.bid) + Price::TICK;
            }
        }
        match sim.request(plan.combo, plan.bid, t) {
            Ok(id) => Ok((id, plan)),
            Err(e) if e.is_transient() => Err(LaunchFailure::Transient(e)),
            Err(_) => Err(LaunchFailure::Rejected),
        }
    }
}

/// Why a launch attempt produced no instance.
enum LaunchFailure {
    /// No plan, or the market rejected the bid — retried every scan, with
    /// bid escalation after repeated rejections.
    Rejected,
    /// A transient launch-API fault — retried after a bounded backoff.
    Transient(LaunchError),
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
