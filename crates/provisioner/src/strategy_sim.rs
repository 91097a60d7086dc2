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
//! Both replays run on the same scan loop; this module supplies only the
//! strategy's scheduling step and the market ticks it decides on.
//!
//! On-demand instances live only in the pool: the spot simulator never
//! sees them. They are billed at the catalog's fixed hourly price with
//! round-up, are immune to launch faults and revocations, and release at
//! the same 3300 s point of their billed hour as spot capacity.

use crate::job::{suitable_types, Job, JobProfile};
use crate::metrics::ReplayMetrics;
use crate::policy::ProvisionerPolicy;
use crate::pool::{EntryKind, PoolEntry};
use crate::scan::{Scan, Scheduler};
use crate::sim::ReplayConfig;
use spotmarket::faults::{ShardFaultKind, ShardFaults};
use spotmarket::lifecycle::InstanceId;
use spotmarket::simulator::SpotSimulator;
use spotmarket::{Combo, FaultPlan, Price, DAY, UPDATE_PERIOD};
use std::collections::HashMap;
use strategy::{Action, JobState, MarketTick, PriceQuantiles, ResourceKind, Strategy};

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
    /// feeds; `Some(FaultPlan::none(..))` wires zero-fault
    /// [`FaultyFeed`](spotmarket::FaultyFeed)s, which must behave
    /// identically.
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
}

impl StrategyReplay {
    /// Creates a strategy replay.
    pub fn new(cfg: StrategyReplayConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// Runs the replay to completion under `strategy`.
    pub fn run(&self, strategy: &mut dyn Strategy) -> StrategyOutcome {
        let base = &self.cfg.base;
        let mut scan = Scan::new(base, self.cfg.feed_faults.as_ref());
        // The availability signal the online estimators learn from is the
        // advisory plane's answer for a reference profile — the workload's
        // most common class.
        let mut ref_profile = scan.jobs.first().expect("non-empty workload").profile;
        ref_profile.est_runtime = base.workload.runtime_median;
        let mut step = StrategyStep {
            shard_faults: &self.cfg.shard_faults,
            strategy,
            ref_profile,
            qcache: QuantileCache::default(),
            decisions: 0,
            od_instances: 0,
        };
        scan.run(&mut step);
        StrategyOutcome {
            metrics: scan.metrics,
            decisions: step.decisions,
            panic_activations: step.strategy.panic_activations(),
            od_instances: step.od_instances,
            od_cost: scan.od_cost,
            spot_cost: scan.spot_cost,
        }
    }
}

/// A strategy's scheduling step: it observes the reference tick, may move
/// jobs riding spot to on-demand, and decides each queued job.
struct StrategyStep<'a> {
    shard_faults: &'a ShardFaults,
    strategy: &'a mut dyn Strategy,
    ref_profile: JobProfile,
    qcache: QuantileCache,
    decisions: u64,
    od_instances: u64,
}

impl Scheduler for StrategyStep<'_> {
    fn prepare(&mut self, scan: &mut Scan<'_>, t: u64) {
        // The global observation tick: estimators ingest one availability
        // sample per scan, from the reference profile.
        let ref_profile = self.ref_profile;
        let ref_tick = self.market_tick(scan, &ref_profile, t);
        self.strategy.observe(&ref_tick);

        // Running-job consultations: the strategy may checkpoint a spot
        // job off to on-demand, keeping its progress and paying one scan
        // interval of migration overhead.
        let riding: Vec<(InstanceId, u32, u64)> = scan
            .pool
            .iter()
            .filter(|e| e.kind == EntryKind::Spot && !e.is_idle() && e.busy_until > t)
            .map(|e| (e.id, e.running_job.expect("busy"), e.busy_until))
            .collect();
        for (id, job_id, busy_until) in riding {
            let job = scan.jobs[job_id as usize];
            let elapsed = t - (busy_until - job.runtime);
            let remaining = job.profile.est_runtime.saturating_sub(elapsed);
            if matches!(
                self.decide(scan, &job, Some(ResourceKind::Spot), remaining, t),
                Action::Switch | Action::OnDemand
            ) {
                scan.sim.terminate(id, t);
                scan.pool.remove(id);
                scan.bill_spot(id, t);
                self.run_on_demand(scan, &job, t, busy_until + scan.cfg.scan_interval);
                scan.metrics.strategy_switches += 1;
            }
        }
    }

    fn place(&mut self, scan: &mut Scan<'_>, job_id: u32, t: u64) -> bool {
        let job = scan.jobs[job_id as usize];
        match self.decide(scan, &job, None, job.profile.est_runtime, t) {
            Action::Wait => false,
            Action::OnDemand | Action::Switch => {
                if !scan.reuse_idle(job_id, EntryKind::OnDemand, t) {
                    self.run_on_demand(scan, &job, t, t + job.runtime);
                }
                true
            }
            Action::Spot { plan } => {
                scan.reuse_idle(job_id, EntryKind::Spot, t)
                    || scan.request_spot(job_id, Some(plan), t)
            }
        }
    }
}

impl StrategyStep<'_> {
    /// Consults the strategy on `job` at `t`.
    fn decide(
        &mut self,
        scan: &mut Scan<'_>,
        job: &Job,
        running_on: Option<ResourceKind>,
        est_remaining: u64,
        t: u64,
    ) -> Action {
        let _span = obs::span("strategy_decide");
        let ji = job.id as usize;
        let state = JobState {
            id: job.id,
            deadline: scan.cfg.replay_start + job.deadline,
            est_total: job.profile.est_runtime,
            est_remaining,
            running_on,
            attempts: scan.attempts[ji],
            restarts: scan.restarts[ji],
        };
        let tick = self.market_tick(scan, &job.profile, t);
        self.decisions += 1;
        self.strategy.decide(&tick, &state)
    }

    /// Builds the [`MarketTick`] a strategy sees for one profile at `t`.
    fn market_tick(&mut self, scan: &mut Scan<'_>, profile: &JobProfile, t: u64) -> MarketTick {
        let cfg = scan.cfg;
        let shards = self.shard_faults.shards();
        // A killed or hung advisory shard answers nothing; a slow one
        // still answers correctly (the front marks it degraded but keeps
        // routing to it).
        let gate = |combo: Combo| {
            !matches!(
                self.shard_faults
                    .active((combo.key() % shards as u64) as usize, t),
                Some(ShardFaultKind::Kill | ShardFaultKind::Hang)
            )
        };
        let drafts = scan.plan(cfg.policy, profile, t, &gate);
        let fallback = scan.plan(ProvisionerPolicy::Original, profile, t, &|_| true);
        let od_price = suitable_types(scan.catalog, profile)
            .first()
            .map(|&ty| scan.catalog.od_price(ty, cfg.region))
            .unwrap_or(Price::MAX);
        let (spot_price, quantiles) = match fallback {
            Some(f) => (
                scan.sim.price_at(f.combo, t),
                self.qcache.get(&mut scan.sim, f.combo, t),
            ),
            None => (None, PriceQuantiles::default()),
        };
        MarketTick {
            now: t,
            scan_interval: cfg.scan_interval,
            drafts,
            fallback,
            od_price,
            spot_price,
            quantiles,
        }
    }

    /// Launches an on-demand instance for `job`'s profile and runs the job
    /// on it until `busy_until`.
    fn run_on_demand(&mut self, scan: &mut Scan<'_>, job: &Job, t: u64, busy_until: u64) {
        let region = scan.cfg.region;
        let types = suitable_types(scan.catalog, &job.profile);
        let ty = *types.first().expect("workload profiles are satisfiable");
        let az = region.azs().next().expect("regions have AZs");
        scan.pool.add(PoolEntry {
            id: InstanceId(OD_ID_BASE + self.od_instances),
            combo: Combo::new(az, ty),
            launched_at: t,
            running_job: Some(job.id),
            busy_until,
            kind: EntryKind::OnDemand,
            hourly: scan.catalog.od_price(ty, region),
        });
        scan.metrics.instances += 1;
        self.od_instances += 1;
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
}
