//! Strategy-driven replay: a boxed [`Strategy`] owns every launch, keep
//! and abandon decision over the virtual-time substrate.
//!
//! Where [`crate::sim::Replay`] hard-codes the paper's provisioning rule
//! (DrAFTS plan, Original fallback), this replay asks a [`Strategy`] per
//! scan tick — for every queued job and every job riding a spot instance —
//! and executes whatever it answers: spot requests at the strategy's bid,
//! on-demand launches (instances the market can never revoke), or
//! checkpoint migrations from spot to on-demand. The advisory plane can be
//! degraded two ways: a [`FaultPlan`] corrupts the price feeds behind the
//! DrAFTS service (the PR 3 chaos harness), and a [`ShardFaults`] plan
//! darkens advisory shards — combos mapped to a killed or hung shard stop
//! answering, exactly as the sharded front would experience it.
//!
//! On-demand instances live only in the pool: the spot simulator never
//! sees them. They are billed at the catalog's fixed hourly price with
//! round-up, are immune to launch faults and revocations, and release at
//! the same 3300 s point of their billed hour as spot capacity.

use crate::job::{suitable_types, Job};
use crate::metrics::ReplayMetrics;
use crate::policy::{self, ProvisionerPolicy};
use crate::pool::{EntryKind, Pool, PoolEntry};
use crate::sim::ReplayConfig;
use crate::workload;
use drafts_core::service::{DraftsService, ServiceConfig};
use simrng::StreamFactory;
use spotmarket::catalog::Catalog;
use spotmarket::faults::ShardFaults;
use spotmarket::lifecycle::{InstanceId, InstanceState, TerminationReason};
use spotmarket::simulator::{LaunchError, SpotSimulator};
use spotmarket::tracegen::TraceConfig;
use spotmarket::{Combo, FaultPlan, FaultyFeed, Price, DAY, HOUR, MINUTE, UPDATE_PERIOD};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use strategy::{Action, JobState, MarketTick, PriceQuantiles, ResourceKind, SpotPlan, Strategy};

/// On-demand instance ids start here — far outside the spot simulator's
/// dense id range, so an on-demand id reaching the simulator is a bug that
/// trips its bounds checks instead of silently aliasing an instance.
const OD_ID_BASE: u64 = 1 << 62;

/// Strategy-replay parameters: the base replay substrate plus the two
/// advisory-plane degradation levers.
#[derive(Debug, Clone)]
pub struct StrategyReplayConfig {
    /// The substrate: seed, region, workload, scan interval, launch
    /// faults. `base.policy` selects the DrAFTS arm strategies see as the
    /// guaranteed plan ([`ProvisionerPolicy::DraftsProfiles`] by default).
    pub base: ReplayConfig,
    /// Feed corruption behind the DrAFTS service. `None` wires the clean
    /// feeds; `Some(FaultPlan::none(..))` wires zero-fault [`FaultyFeed`]s,
    /// which must behave identically (the PR 3 invariant).
    pub feed_faults: Option<FaultPlan>,
    /// Advisory-shard fault schedule: combos mapped (by `key % shards`) to
    /// a killed or hung shard serve no DrAFTS plan while the fault is
    /// active. Slow shards still answer.
    pub shard_faults: ShardFaults,
}

impl Default for StrategyReplayConfig {
    fn default() -> Self {
        Self {
            base: ReplayConfig {
                policy: ProvisionerPolicy::DraftsProfiles,
                ..ReplayConfig::default()
            },
            feed_faults: None,
            shard_faults: ShardFaults::none(1),
        }
    }
}

impl StrategyReplayConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on an invalid base config or fault plan.
    pub fn validate(&self) {
        self.base.validate();
        if let Some(plan) = &self.feed_faults {
            plan.validate();
        }
    }
}

/// What one strategy replay measured, beyond the base [`ReplayMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StrategyOutcome {
    /// The replay accounting (cost, completions, misses, switches, ...).
    pub metrics: ReplayMetrics,
    /// Strategy decisions taken (queued + running consultations).
    pub decisions: u64,
    /// Times the strategy's deadline backstop fired.
    pub panic_activations: u64,
    /// On-demand instances launched (also counted in
    /// `metrics.instances`).
    pub od_instances: u64,
    /// Billed cost of the on-demand instances.
    pub od_cost: Price,
    /// Billed cost of the spot instances.
    pub spot_cost: Price,
}

impl StrategyOutcome {
    /// Exports the per-strategy counters into `registry` under
    /// `drafts_strategy_*_total{strategy="<name>"}`, mirroring
    /// [`ReplayMetrics::export_to`].
    pub fn export_to(&self, registry: &obs::Registry, strategy: &str) {
        for (stem, value) in [
            ("decisions", self.decisions),
            ("switches", self.metrics.strategy_switches),
            ("panics", self.panic_activations),
            ("deadline_misses", self.metrics.deadline_misses),
        ] {
            let counter = obs::Counter::new();
            counter.add(value);
            registry.attach_counter(
                &format!("drafts_strategy_{stem}_total{{strategy=\"{strategy}\"}}"),
                &counter,
            );
        }
    }
}

/// Memoizes trailing-window price quantiles per `(combo, update bucket)` —
/// prices step every [`UPDATE_PERIOD`], so finer recomputation would sort
/// the same window repeatedly for identical results.
#[derive(Default)]
struct QuantileCache {
    map: HashMap<(u64, u64), PriceQuantiles>,
}

impl QuantileCache {
    fn get(&mut self, sim: &mut SpotSimulator, combo: Combo, t: u64) -> PriceQuantiles {
        let bucket = t / UPDATE_PERIOD;
        *self
            .map
            .entry((combo.key(), bucket))
            .or_insert_with(|| Self::compute(sim, combo, bucket * UPDATE_PERIOD))
    }

    /// Quantiles of the combo's market prices over the trailing seven
    /// days — the provisioner's own clean observation of prices it has
    /// seen, independent of the (possibly corrupted) advisory feeds.
    fn compute(sim: &mut SpotSimulator, combo: Combo, t: u64) -> PriceQuantiles {
        let series = sim.history(combo).series();
        let times = series.times();
        let from = t.saturating_sub(7 * DAY);
        let lo = times.partition_point(|&x| x < from);
        let hi = times.partition_point(|&x| x <= t);
        if lo >= hi {
            return PriceQuantiles::default();
        }
        let mut vals: Vec<u64> = series.values()[lo..hi].to_vec();
        vals.sort_unstable();
        let q = |p: u64| {
            Some(Price::from_ticks(
                vals[((vals.len() - 1) as u64 * p / 100) as usize],
            ))
        };
        PriceQuantiles {
            q50: q(50),
            q75: q(75),
            q90: q(90),
            q95: q(95),
        }
    }
}

/// A configured strategy replay, ready to run.
pub struct StrategyReplay {
    cfg: StrategyReplayConfig,
    catalog: &'static Catalog,
}

impl StrategyReplay {
    /// Creates a strategy replay.
    pub fn new(cfg: StrategyReplayConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            catalog: Catalog::standard(),
        }
    }

    /// Runs the replay to completion under `strategy`.
    pub fn run(&self, strategy: &mut dyn Strategy) -> StrategyOutcome {
        let cfg = &self.cfg;
        let base = &cfg.base;
        let trace_cfg = TraceConfig::days(base.history_days, base.seed);
        let mut sim = SpotSimulator::new(self.catalog, trace_cfg);
        sim.set_launch_faults(base.launch_faults);

        // Every strategy sees the same advisory plane: all region combos
        // registered, behind faulty feeds when a plan is configured.
        let mut service = DraftsService::new(ServiceConfig {
            probabilities: vec![base.target_p],
            drafts: base.drafts,
            recompute_period: 30 * MINUTE,
            ..ServiceConfig::default()
        });
        for az in base.region.azs() {
            for combo in self.catalog.combos_in_az(az) {
                let history = Arc::clone(sim.history(combo));
                match &cfg.feed_faults {
                    Some(plan) => service.register_feed(Arc::new(FaultyFeed::new(history, *plan))),
                    None => service.register(history),
                }
            }
        }

        let factory = StreamFactory::new(base.seed);
        let jobs = workload::generate(&base.workload, &factory, base.workload_index);

        let mut out = StrategyOutcome::default();
        let mut pool = Pool::new();
        let mut qcache = QuantileCache::default();
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut attempts = vec![0u32; jobs.len()];
        let mut restarts = vec![0u32; jobs.len()];
        let mut fault_attempts = vec![0u32; jobs.len()];
        let mut not_before = vec![0u64; jobs.len()];
        let mut od_seq = 0u64;
        let mut next_job = 0usize;
        let mut last_completion = base.replay_start;

        // The availability signal the online estimators learn from is the
        // advisory plane's answer for a reference profile — the workload's
        // most common class.
        let ref_profile = jobs
            .first()
            .map(|j| {
                let mut p = j.profile;
                p.est_runtime = base.workload.runtime_median;
                p
            })
            .expect("non-empty workload");

        let convergence = base.replay_start + 7 * DAY;
        let mut t = base.replay_start;
        loop {
            let _tick_span = obs::span("strategy_tick");
            let t_rel = t - base.replay_start;

            // 1. Admissions.
            while next_job < jobs.len() && jobs[next_job].submit_offset <= t_rel {
                queue.push_back(jobs[next_job].id);
                next_job += 1;
            }

            // 2. Market revocations: requeue victims' jobs (all progress
            // lost — spot restarts are from scratch).
            let spot_ids: Vec<_> = pool
                .iter()
                .filter(|e| e.kind == EntryKind::Spot)
                .map(|e| e.id)
                .collect();
            for id in spot_ids {
                if let InstanceState::Terminated { reason, .. } = sim.poll(id, t) {
                    let entry = pool.remove(id).expect("tracked member");
                    if reason == TerminationReason::Price {
                        out.metrics.terminations += 1;
                        if let Some(job_id) = entry.running_job {
                            restarts[job_id as usize] += 1;
                            queue.push_front(job_id);
                        }
                    }
                    let c = sim.cost(id, t);
                    out.metrics.cost += c;
                    out.spot_cost += c;
                    out.metrics.max_bid_cost += sim.worst_case_cost(id, t);
                }
            }

            // 3. Completions (a completion at `busy_until` past the job's
            // deadline is a miss — attainment accounting).
            let done: Vec<_> = pool
                .iter()
                .filter(|e| !e.is_idle() && e.busy_until <= t)
                .map(|e| e.id)
                .collect();
            for id in done {
                let entry = pool.get_mut(id).expect("tracked member");
                let finished_at = entry.busy_until;
                let job_id = Pool::finish(entry).expect("busy entry has a job");
                out.metrics.jobs_completed += 1;
                let deadline_abs = base.replay_start + jobs[job_id as usize].deadline;
                if finished_at > deadline_abs {
                    out.metrics.deadline_misses += 1;
                }
                last_completion = t;
            }

            // 4. The global observation tick: estimators ingest one
            // availability sample per scan, from the reference profile.
            let ref_tick = self.market_tick(&mut sim, &service, &ref_profile, t, &mut qcache);
            strategy.observe(&ref_tick);

            // 5. Running-job consultations: the strategy may checkpoint a
            // spot job off to on-demand (keeping its progress, paying one
            // scan interval of migration overhead).
            let riding: Vec<(InstanceId, u32, u64)> = pool
                .iter()
                .filter(|e| e.kind == EntryKind::Spot && !e.is_idle() && e.busy_until > t)
                .map(|e| (e.id, e.running_job.expect("busy"), e.busy_until))
                .collect();
            for (id, job_id, busy_until) in riding {
                let _span = obs::span("strategy_decide");
                let ji = job_id as usize;
                let job = &jobs[ji];
                let elapsed = t - (busy_until - job.runtime);
                let js = JobState {
                    id: job_id,
                    deadline: base.replay_start + job.deadline,
                    est_total: job.profile.est_runtime,
                    est_remaining: job.profile.est_runtime.saturating_sub(elapsed),
                    running_on: Some(ResourceKind::Spot),
                    attempts: attempts[ji],
                    restarts: restarts[ji],
                };
                let tick = self.market_tick(&mut sim, &service, &job.profile, t, &mut qcache);
                out.decisions += 1;
                if matches!(
                    strategy.decide(&tick, &js),
                    Action::Switch | Action::OnDemand
                ) {
                    sim.terminate(id, t);
                    pool.remove(id);
                    let c = sim.cost(id, t);
                    out.metrics.cost += c;
                    out.spot_cost += c;
                    out.metrics.max_bid_cost += sim.worst_case_cost(id, t);
                    let remaining = busy_until - t;
                    let mut entry = self.od_entry(job, t, &mut od_seq);
                    entry.running_job = Some(job_id);
                    entry.busy_until = t + remaining + base.scan_interval;
                    pool.add(entry);
                    out.metrics.instances += 1;
                    out.od_instances += 1;
                    out.metrics.strategy_switches += 1;
                }
            }

            // 6. Queued-job scheduling.
            let mut still_queued = VecDeque::new();
            while let Some(job_id) = queue.pop_front() {
                let _span = obs::span("strategy_decide");
                let ji = job_id as usize;
                let job = &jobs[ji];
                if not_before[ji] > t {
                    still_queued.push_back(job_id);
                    continue;
                }
                let js = JobState {
                    id: job_id,
                    deadline: base.replay_start + job.deadline,
                    est_total: job.profile.est_runtime,
                    est_remaining: job.profile.est_runtime,
                    running_on: None,
                    attempts: attempts[ji],
                    restarts: restarts[ji],
                };
                let tick = self.market_tick(&mut sim, &service, &job.profile, t, &mut qcache);
                out.decisions += 1;
                match strategy.decide(&tick, &js) {
                    Action::Wait => still_queued.push_back(job_id),
                    Action::OnDemand | Action::Switch => {
                        if let Some(entry) =
                            pool.find_idle_kind(self.catalog, &job.profile, t, EntryKind::OnDemand)
                        {
                            Pool::assign(entry, job, t);
                        } else {
                            let mut entry = self.od_entry(job, t, &mut od_seq);
                            Pool::assign(&mut entry, job, t);
                            pool.add(entry);
                            out.metrics.instances += 1;
                            out.od_instances += 1;
                        }
                    }
                    Action::Spot { plan } => {
                        if let Some(entry) =
                            pool.find_idle_kind(self.catalog, &job.profile, t, EntryKind::Spot)
                        {
                            Pool::assign(entry, job, t);
                            continue;
                        }
                        match sim.request(plan.combo, plan.bid, t) {
                            Ok(id) => {
                                let mut entry = PoolEntry {
                                    id,
                                    combo: plan.combo,
                                    launched_at: t,
                                    running_job: None,
                                    busy_until: 0,
                                    kind: EntryKind::Spot,
                                    hourly: Price::ZERO,
                                };
                                Pool::assign(&mut entry, job, t);
                                pool.add(entry);
                                out.metrics.instances += 1;
                            }
                            Err(e) if e.is_transient() => {
                                match e {
                                    LaunchError::InsufficientCapacity => {
                                        out.metrics.capacity_failures += 1;
                                    }
                                    LaunchError::Throttled => {
                                        out.metrics.throttle_failures += 1;
                                    }
                                    _ => {}
                                }
                                let shift = fault_attempts[ji].min(16);
                                let delay =
                                    (base.scan_interval << shift).min(base.max_launch_backoff);
                                not_before[ji] = t + delay;
                                fault_attempts[ji] += 1;
                                out.metrics.requeues += 1;
                                still_queued.push_back(job_id);
                            }
                            Err(_) => {
                                attempts[ji] += 1;
                                out.metrics.requeues += 1;
                                still_queued.push_back(job_id);
                            }
                        }
                    }
                }
            }
            queue = still_queued;

            // 7. Idle releases (full drain once the workload is done).
            let drained =
                next_job == jobs.len() && queue.is_empty() && pool.iter().all(|e| e.is_idle());
            let releases = if drained {
                pool.iter().map(|e| e.id).collect()
            } else {
                pool.due_for_release(t)
            };
            for id in releases {
                let entry = pool.remove(id).expect("tracked member");
                match entry.kind {
                    EntryKind::Spot => {
                        sim.terminate(id, t);
                        let c = sim.cost(id, t);
                        out.metrics.cost += c;
                        out.spot_cost += c;
                        out.metrics.max_bid_cost += sim.worst_case_cost(id, t);
                    }
                    EntryKind::OnDemand => {
                        let hours = (t - entry.launched_at).div_ceil(HOUR).max(1);
                        let c = entry.hourly.times(hours);
                        out.metrics.cost += c;
                        out.od_cost += c;
                        // On-demand carries no bid risk: worst case is the
                        // bill itself.
                        out.metrics.max_bid_cost += c;
                    }
                }
            }

            if next_job == jobs.len() && queue.is_empty() && pool.is_empty() {
                break;
            }
            t += base.scan_interval;
            assert!(
                t < convergence,
                "strategy replay failed to converge within 7 days"
            );
        }

        out.metrics.makespan = last_completion - base.replay_start;
        out.panic_activations = strategy.panic_activations();
        out
    }

    /// Builds the [`MarketTick`] a strategy sees for one profile at `t`.
    fn market_tick(
        &self,
        sim: &mut SpotSimulator,
        service: &DraftsService,
        profile: &crate::job::JobProfile,
        t: u64,
        qcache: &mut QuantileCache,
    ) -> MarketTick {
        let cfg = &self.cfg;
        let base = &cfg.base;
        let shards = cfg.shard_faults.shards();
        // A killed or hung advisory shard answers nothing; a slow one
        // still answers correctly (the front marks it degraded but keeps
        // routing to it).
        let gate = |combo: Combo| {
            !matches!(
                cfg.shard_faults
                    .active((combo.key() % shards as u64) as usize, t),
                Some(
                    spotmarket::faults::ShardFaultKind::Kill
                        | spotmarket::faults::ShardFaultKind::Hang
                )
            )
        };
        let drafts = policy::plan_gated(
            base.policy,
            self.catalog,
            service,
            base.region,
            profile,
            t,
            base.target_p,
            &gate,
        )
        .map(|p| SpotPlan {
            combo: p.combo,
            bid: p.bid,
        });
        let fallback = policy::plan(
            ProvisionerPolicy::Original,
            self.catalog,
            service,
            base.region,
            profile,
            t,
            base.target_p,
        )
        .map(|p| SpotPlan {
            combo: p.combo,
            bid: p.bid,
        });
        let types = suitable_types(self.catalog, profile);
        let od_price = types
            .first()
            .map(|&ty| self.catalog.od_price(ty, base.region))
            .unwrap_or(Price::MAX);
        let (spot_price, quantiles) = match fallback {
            Some(f) => (sim.price_at(f.combo, t), qcache.get(sim, f.combo, t)),
            None => (None, PriceQuantiles::default()),
        };
        MarketTick {
            now: t,
            scan_interval: base.scan_interval,
            spot_available: drafts.is_some(),
            drafts,
            fallback,
            od_price,
            spot_price,
            quantiles,
        }
    }

    /// Allocates a fresh on-demand pool entry for `job`'s profile.
    fn od_entry(&self, job: &Job, t: u64, od_seq: &mut u64) -> PoolEntry {
        let region = self.cfg.base.region;
        let types = suitable_types(self.catalog, &job.profile);
        let ty = *types.first().expect("workload profiles are satisfiable");
        let az = region.azs().next().expect("regions have AZs");
        let id = InstanceId(OD_ID_BASE + *od_seq);
        *od_seq += 1;
        PoolEntry {
            id,
            combo: Combo::new(az, ty),
            launched_at: t,
            running_job: None,
            busy_until: 0,
            kind: EntryKind::OnDemand,
            hourly: self.catalog.od_price(ty, region),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;
    use spotmarket::LaunchFaults;
    use strategy::{lineup, DraftsBid, OnDemandOnly, SpotGreedy};

    fn small_cfg() -> StrategyReplayConfig {
        StrategyReplayConfig {
            base: ReplayConfig {
                policy: ProvisionerPolicy::DraftsProfiles,
                workload: WorkloadConfig {
                    jobs: 40,
                    span: 2400,
                    ..WorkloadConfig::default()
                },
                target_p: 0.95,
                ..ReplayConfig::default()
            },
            ..StrategyReplayConfig::default()
        }
    }

    #[test]
    fn every_strategy_completes_the_workload() {
        for mut s in lineup() {
            let out = StrategyReplay::new(small_cfg()).run(s.as_mut());
            assert_eq!(out.metrics.jobs_completed, 40, "{}", s.name());
            assert!(out.decisions > 0, "{}", s.name());
            assert!(out.metrics.cost > Price::ZERO, "{}", s.name());
        }
    }

    #[test]
    fn ondemand_only_never_misses_and_never_terminates() {
        let out = StrategyReplay::new(small_cfg()).run(&mut OnDemandOnly);
        assert_eq!(out.metrics.deadline_misses, 0);
        assert_eq!(out.metrics.terminations, 0);
        assert_eq!(out.spot_cost, Price::ZERO);
        assert_eq!(out.od_instances, out.metrics.instances);
        assert_eq!(out.od_cost, out.metrics.cost);
    }

    #[test]
    fn spot_greedy_is_cheaper_than_ondemand_on_clean_feeds() {
        let od = StrategyReplay::new(small_cfg()).run(&mut OnDemandOnly);
        let greedy = StrategyReplay::new(small_cfg()).run(&mut SpotGreedy);
        assert!(
            greedy.metrics.cost < od.metrics.cost,
            "greedy {} must undercut on-demand {}",
            greedy.metrics.cost,
            od.metrics.cost
        );
        assert_eq!(greedy.od_cost, Price::ZERO);
    }

    #[test]
    fn strategy_replay_is_deterministic() {
        let a = StrategyReplay::new(small_cfg()).run(&mut DraftsBid);
        let b = StrategyReplay::new(small_cfg()).run(&mut DraftsBid);
        assert_eq!(a, b);
    }

    #[test]
    fn launch_faults_do_not_strand_jobs() {
        let cfg = StrategyReplayConfig {
            base: ReplayConfig {
                launch_faults: LaunchFaults::with_intensity(11, 1.0),
                ..small_cfg().base
            },
            ..small_cfg()
        };
        let out = StrategyReplay::new(cfg).run(&mut SpotGreedy);
        assert_eq!(out.metrics.jobs_completed, 40);
        assert!(out.metrics.capacity_failures + out.metrics.throttle_failures > 0);
    }

    #[test]
    fn outcome_exports_labelled_counters() {
        let registry = obs::Registry::new();
        let out = StrategyOutcome {
            decisions: 5,
            panic_activations: 2,
            ..StrategyOutcome::default()
        };
        out.export_to(&registry, "demo");
        let text = registry.render_text();
        assert!(text.contains("drafts_strategy_decisions_total{strategy=\"demo\"} 5"));
        assert!(text.contains("drafts_strategy_panics_total{strategy=\"demo\"} 2"));
    }
}
