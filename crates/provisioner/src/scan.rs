//! The scan loop both replays drive (the SCRIMP-style plugin of paper
//! §4.3).
//!
//! Jobs queue on submission and the provisioner scans the queue on a
//! fixed interval. Each scan admits submitted jobs, requeues the jobs of
//! instances the market revoked, retires finished jobs, lets the replay's
//! [`Scheduler`] place the queue, and releases idle instances at the 3300 s
//! point of their billed hour. Only the scheduling step differs between
//! the paper's rule ([`crate::sim`]) and a pluggable strategy
//! ([`crate::strategy_sim`]). Everything is deterministic in the
//! configuration.

use crate::job::{Job, JobProfile};
use crate::metrics::ReplayMetrics;
use crate::policy::{self, ProvisionerPolicy};
use crate::pool::{EntryKind, Pool, PoolEntry};
use crate::sim::ReplayConfig;
use crate::workload;
use drafts_core::service::{DraftsService, ServiceConfig};
use simrng::StreamFactory;
use spotmarket::catalog::Catalog;
use spotmarket::lifecycle::{InstanceId, InstanceState, TerminationReason};
use spotmarket::simulator::{LaunchError, SpotSimulator};
use spotmarket::tracegen::TraceConfig;
use spotmarket::{Combo, FaultPlan, FaultyFeed, Price, DAY, HOUR, MINUTE};
use std::collections::VecDeque;
use std::sync::Arc;
use strategy::SpotPlan;

/// The step a replay decides for itself: where each queued job goes.
pub(crate) trait Scheduler {
    /// Runs once per scan, before the queue is placed.
    fn prepare(&mut self, _scan: &mut Scan<'_>, _t: u64) {}

    /// Places queued job `job_id`, which is not backing off, at `t`;
    /// returns whether it left the queue.
    fn place(&mut self, scan: &mut Scan<'_>, job_id: u32, t: u64) -> bool;
}

/// A replay in progress: the market, the advisory plane, the workload and
/// the provisioner's pool, queue and accounting.
pub(crate) struct Scan<'a> {
    pub cfg: &'a ReplayConfig,
    pub catalog: &'static Catalog,
    pub sim: SpotSimulator,
    pub service: DraftsService,
    pub jobs: Vec<Job>,
    pub pool: Pool,
    queue: VecDeque<u32>,
    /// Per job: spot requests refused for any reason but a transient fault
    /// (a missing plan counts as one). Never reset.
    pub attempts: Vec<u32>,
    /// Per job: market revocations it restarted after.
    pub restarts: Vec<u32>,
    /// Per job: transient launch faults, which size the next backoff.
    fault_attempts: Vec<u32>,
    /// Per job: the time before which a backing-off job is not placed.
    not_before: Vec<u64>,
    pub metrics: ReplayMetrics,
    pub spot_cost: Price,
    pub od_cost: Price,
}

impl<'a> Scan<'a> {
    /// Sets up a replay: the spot market with `cfg`'s launch faults, a
    /// DrAFTS service over every combo of the region (behind faulty feeds
    /// when `feed_faults` is set) that sees the histories the market
    /// replays, and the seeded workload. The service stays empty when
    /// `cfg.policy` never consults it.
    pub fn new(cfg: &'a ReplayConfig, feed_faults: Option<&FaultPlan>) -> Self {
        let catalog = Catalog::standard();
        let mut sim = SpotSimulator::new(catalog, TraceConfig::days(cfg.history_days, cfg.seed));
        sim.set_launch_faults(cfg.launch_faults);
        let mut service = DraftsService::new(ServiceConfig {
            probabilities: vec![cfg.target_p],
            drafts: cfg.drafts,
            // Half-hourly refresh keeps single-core replays tractable
            // while staying within the spirit of the 15-minute service.
            recompute_period: 30 * MINUTE,
        });
        // Only a DrAFTS policy's plan asks the service, and registering a
        // combo generates its whole history: an `Original` replay skips it.
        if cfg.policy != ProvisionerPolicy::Original {
            for az in cfg.region.azs() {
                for combo in catalog.combos_in_az(az) {
                    let history = Arc::clone(sim.history(combo));
                    match feed_faults {
                        Some(plan) => {
                            service.register_feed(Arc::new(FaultyFeed::new(history, *plan)))
                        }
                        None => service.register(history),
                    }
                }
            }
        }
        let jobs = workload::generate(
            &cfg.workload,
            &StreamFactory::new(cfg.seed),
            cfg.workload_index,
        );
        let n = jobs.len();
        Self {
            cfg,
            catalog,
            sim,
            service,
            jobs,
            pool: Pool::new(),
            queue: VecDeque::new(),
            attempts: vec![0; n],
            restarts: vec![0; n],
            fault_attempts: vec![0; n],
            not_before: vec![0; n],
            metrics: ReplayMetrics::default(),
            spot_cost: Price::ZERO,
            od_cost: Price::ZERO,
        }
    }

    /// Scans until every job has run and the pool is empty.
    ///
    /// # Panics
    /// Panics when the workload has not drained within 7 days.
    pub fn run(&mut self, scheduler: &mut dyn Scheduler) {
        let start = self.cfg.replay_start;
        let mut next_job = 0;
        let mut last_completion = start;
        let mut t = start;
        loop {
            // 1. Admissions.
            while next_job < self.jobs.len() && self.jobs[next_job].submit_offset <= t - start {
                self.queue.push_back(self.jobs[next_job].id);
                next_job += 1;
            }

            // 2. Market revocations: requeue victims' jobs first (all
            // progress lost — spot restarts are from scratch).
            let spot: Vec<_> = self
                .pool
                .iter()
                .filter(|e| e.kind == EntryKind::Spot)
                .map(|e| e.id)
                .collect();
            for id in spot {
                if let InstanceState::Terminated { reason, .. } = self.sim.poll(id, t) {
                    let entry = self.pool.remove(id).expect("tracked member");
                    if reason == TerminationReason::Price {
                        self.metrics.terminations += 1;
                        if let Some(job_id) = entry.running_job {
                            self.restarts[job_id as usize] += 1;
                            self.queue.push_front(job_id);
                        }
                    }
                    self.bill_spot(id, t);
                }
            }

            // 3. Completions (a completion at `busy_until` past the job's
            // deadline is a miss).
            let done: Vec<_> = self
                .pool
                .iter()
                .filter(|e| !e.is_idle() && e.busy_until <= t)
                .map(|e| e.id)
                .collect();
            for id in done {
                let entry = self.pool.get_mut(id).expect("tracked member");
                let finished_at = entry.busy_until;
                let job_id = Pool::finish(entry).expect("busy entry has a job");
                self.metrics.jobs_completed += 1;
                if finished_at > start + self.jobs[job_id as usize].deadline {
                    self.metrics.deadline_misses += 1;
                }
                last_completion = t;
            }

            // 4. Scheduling; a job backing off after a transient launch
            // fault stays queued.
            scheduler.prepare(self, t);
            let mut still_queued = VecDeque::new();
            while let Some(job_id) = self.queue.pop_front() {
                if self.not_before[job_id as usize] > t || !scheduler.place(self, job_id, t) {
                    still_queued.push_back(job_id);
                }
            }
            self.queue = still_queued;

            // 5. Idle releases (and full drain once the workload is done).
            let submitted = next_job == self.jobs.len() && self.queue.is_empty();
            let releases = if submitted && self.pool.iter().all(|e| e.is_idle()) {
                self.pool.iter().map(|e| e.id).collect()
            } else {
                self.pool.due_for_release(t)
            };
            for id in releases {
                let entry = self.pool.remove(id).expect("tracked member");
                match entry.kind {
                    EntryKind::Spot => {
                        self.sim.terminate(id, t);
                        self.bill_spot(id, t);
                    }
                    EntryKind::OnDemand => {
                        let cost = entry
                            .hourly
                            .times((t - entry.launched_at).div_ceil(HOUR).max(1));
                        self.metrics.cost += cost;
                        self.od_cost += cost;
                        // On-demand carries no bid risk: the worst case is
                        // the bill itself.
                        self.metrics.max_bid_cost += cost;
                    }
                }
            }

            if submitted && self.pool.is_empty() {
                break;
            }
            t += self.cfg.scan_interval;
            assert!(
                t < start + 7 * DAY,
                "replay failed to converge within 7 days"
            );
        }
        self.metrics.makespan = last_completion - start;
    }

    /// Starts queued job `job_id` on an idle `kind` instance that can run
    /// it, if there is one; returns whether there was.
    pub fn reuse_idle(&mut self, job_id: u32, kind: EntryKind, t: u64) -> bool {
        let job = &self.jobs[job_id as usize];
        match self
            .pool
            .find_idle_kind(self.catalog, &job.profile, t, kind)
        {
            Some(entry) => {
                Pool::assign(entry, job, t);
                true
            }
            None => false,
        }
    }

    /// Requests a spot instance for queued job `job_id` on `plan` at `t`
    /// and starts the job on it; returns whether it launched. A transient
    /// launch fault (capacity, throttling) backs the job off exponentially,
    /// up to `max_launch_backoff`. Any other refusal, or no plan at all,
    /// counts one more attempt, which a scheduler may answer by escalating
    /// its bid. Every failure requeues the job.
    pub fn request_spot(&mut self, job_id: u32, plan: Option<SpotPlan>, t: u64) -> bool {
        let ji = job_id as usize;
        let launched = match plan {
            Some(plan) => self
                .sim
                .request(plan.combo, plan.bid, t)
                .map(|id| (id, plan)),
            // No plan is refused as a plan on a market with no data is.
            None => Err(LaunchError::NoMarketData),
        };
        match launched {
            Ok((id, plan)) => {
                let mut entry = PoolEntry {
                    id,
                    combo: plan.combo,
                    launched_at: t,
                    running_job: None,
                    busy_until: 0,
                    kind: EntryKind::Spot,
                    hourly: Price::ZERO,
                };
                Pool::assign(&mut entry, &self.jobs[ji], t);
                self.pool.add(entry);
                self.metrics.instances += 1;
                return true;
            }
            Err(e) if e.is_transient() => {
                match e {
                    LaunchError::InsufficientCapacity => self.metrics.capacity_failures += 1,
                    LaunchError::Throttled => self.metrics.throttle_failures += 1,
                    _ => {}
                }
                let shift = self.fault_attempts[ji].min(16);
                let delay = (self.cfg.scan_interval << shift).min(self.cfg.max_launch_backoff);
                self.not_before[ji] = t + delay;
                self.fault_attempts[ji] += 1;
            }
            Err(_) => self.attempts[ji] += 1,
        }
        self.metrics.requeues += 1;
        false
    }

    /// The plan `policy` gives `profile` at `t`, over the combos `gate`
    /// admits.
    pub fn plan(
        &self,
        policy: ProvisionerPolicy,
        profile: &JobProfile,
        t: u64,
        gate: &dyn Fn(Combo) -> bool,
    ) -> Option<SpotPlan> {
        let cfg = self.cfg;
        policy::plan(
            policy,
            self.catalog,
            &self.service,
            cfg.region,
            profile,
            t,
            cfg.target_p,
            gate,
        )
    }

    /// Bills spot instance `id`, which ended at `t`.
    pub fn bill_spot(&mut self, id: InstanceId, t: u64) {
        let cost = self.sim.cost(id, t);
        self.metrics.cost += cost;
        self.spot_cost += cost;
        self.metrics.max_bid_cost += self.sim.worst_case_cost(id, t);
    }
}
