//! Pluggable provisioning strategies over the replay substrate.
//!
//! The paper evaluates exactly one policy family — the DrAFTS bid plus the
//! platform's original fixed rule. The related work names richer ones:
//! deadline-driven spot/on-demand switching with online availability
//! estimation ("cant_be_late"-style EMA and Beta-Bayesian estimators with a
//! panic-threshold backstop), optimized portfolio contracts splitting a
//! workload across spot and on-demand (arXiv 1811.12901), and plain
//! always-spot / always-on-demand baselines. This crate expresses all of
//! them behind one deterministic trait, [`Strategy`], driven per price-tick
//! in virtual time by `provisioner`'s strategy replay.
//!
//! # Action semantics
//!
//! Each scan tick the replay asks the strategy to [`Strategy::decide`] for
//! every queued job and every job running on a spot instance:
//!
//! * [`Action::Spot`] — (queued) request a spot instance with the given
//!   `(combo, bid)` plan; (running on spot) keep riding.
//! * [`Action::OnDemand`] — (queued) launch on-demand, paying the full
//!   hourly price but gaining immunity to revocation and launch faults.
//! * [`Action::Wait`] — (queued) stay in the queue this tick; (running)
//!   keep the current instance.
//! * [`Action::Switch`] — (running on spot) checkpoint and migrate to
//!   on-demand: the job keeps its progress and pays one scan interval of
//!   restart overhead. For a queued job, `Switch` degrades to `OnDemand`.
//!
//! Jobs running on-demand are never asked: on-demand instances are never
//! revoked and no strategy migrates off one.
//!
//! Everything a strategy may consult arrives in the [`MarketTick`] — the
//! advisory-plane DrAFTS plan (absent when the feed is degraded past its
//! staleness budget or the advisory shard is dark), the platform's
//! original fallback plan, the current spot price and trailing price
//! quantiles of the fallback market, and the on-demand price — so
//! strategies are pure deterministic functions of the tick stream and
//! their own integer state. No floats, no wall clock, no RNG.

pub mod estimators;
pub mod strategies;

pub use strategies::{
    lineup, BetaBayes, DraftsBid, EmaAvailability, OnDemandOnly, Portfolio, SpotGreedy,
};

use spotmarket::{Combo, Price};

/// A concrete spot request: which market, at what maximum bid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpotPlan {
    /// The `(AZ, type)` market to request from.
    pub combo: Combo,
    /// The maximum bid.
    pub bid: Price,
}

/// Trailing-window quantiles of the fallback market's price ECDF, the
/// portfolio strategy's bid optimizer input (arXiv 1811.12901 picks the
/// spot-leg bid from the price distribution). `None` when the window holds
/// no observations yet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriceQuantiles {
    /// Median.
    pub q50: Option<Price>,
    /// 75th percentile.
    pub q75: Option<Price>,
    /// 90th percentile.
    pub q90: Option<Price>,
    /// 95th percentile.
    pub q95: Option<Price>,
}

/// Everything a strategy may observe at one scan tick, for one job's
/// profile. All fields are pure functions of the virtual time and the
/// seeded market, so replays are byte-deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketTick {
    /// Virtual time of the scan.
    pub now: u64,
    /// Seconds between scans (the decision latency a plan must absorb).
    pub scan_interval: u64,
    /// The guaranteed DrAFTS plan (smallest guaranteed bid across the
    /// region), when the advisory plane offers one. Whether it does is the
    /// availability signal the online estimators learn from.
    pub drafts: Option<SpotPlan>,
    /// The platform's original rule (cheapest suitable type, first AZ,
    /// bid = 80% of on-demand) — available regardless of the advisory
    /// plane's health.
    pub fallback: Option<SpotPlan>,
    /// Cheapest suitable on-demand hourly price.
    pub od_price: Price,
    /// Current spot price in the fallback market.
    pub spot_price: Option<Price>,
    /// Trailing price quantiles of the fallback market.
    pub quantiles: PriceQuantiles,
}

/// Where a job currently runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// A revocable spot instance.
    Spot,
    /// An on-demand instance (never revoked).
    OnDemand,
}

/// One job's scheduling state, as the strategy sees it. Estimates come
/// from the job's profile; the true runtime stays hidden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobState {
    /// Stable job id within the workload.
    pub id: u32,
    /// Absolute virtual-time deadline.
    pub deadline: u64,
    /// Profiled total runtime estimate (error-bounded, §4.3).
    pub est_total: u64,
    /// Estimated work remaining: `est_total` while queued, declining
    /// while running.
    pub est_remaining: u64,
    /// Where the job runs now (`None` = queued).
    pub running_on: Option<ResourceKind>,
    /// Spot launch attempts the market has refused so far, transient
    /// launch faults aside. The count is never reset: a job requeued
    /// after a revocation keeps it.
    pub attempts: u32,
    /// Market revocations suffered so far (each loses all progress).
    pub restarts: u32,
}

impl JobState {
    /// Seconds until the deadline (0 when past it).
    pub fn time_left(&self, now: u64) -> u64 {
        self.deadline.saturating_sub(now)
    }
}

/// What the strategy wants done with one job this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Request (or keep) a spot instance under `plan`.
    Spot {
        /// The market and maximum bid to request.
        plan: SpotPlan,
    },
    /// Launch on-demand (queued jobs; a running spot job treats this as
    /// [`Action::Switch`]).
    OnDemand,
    /// Do nothing this tick: stay queued, or keep the current instance.
    Wait,
    /// Checkpoint off the spot instance and continue on-demand.
    Switch,
}

/// A deterministic per-tick provisioning policy.
///
/// Implementations must be pure functions of the tick stream and their own
/// state: same replay, same decisions, byte for byte.
pub trait Strategy {
    /// Stable machine-readable name (CSV row key, obs label).
    fn name(&self) -> &'static str;

    /// Called once per scan tick with the reference-profile tick, before
    /// any [`Strategy::decide`] calls — where online estimators ingest the
    /// availability signal. Default: no state.
    fn observe(&mut self, _tick: &MarketTick) {}

    /// The decision for one job this tick.
    fn decide(&mut self, tick: &MarketTick, job: &JobState) -> Action;

    /// How many times the deadline backstop fired (adaptive strategies
    /// only; baselines report 0).
    fn panic_activations(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::{Az, Catalog};

    #[test]
    fn job_state_time_left_saturates() {
        let cat = Catalog::standard();
        let _combo = Combo::new(
            Az::parse("us-east-1b").unwrap(),
            cat.type_id("c4.large").unwrap(),
        );
        let job = JobState {
            id: 1,
            deadline: 100,
            est_total: 60,
            est_remaining: 60,
            running_on: None,
            attempts: 0,
            restarts: 0,
        };
        assert_eq!(job.time_left(40), 60);
        assert_eq!(job.time_left(100), 0);
        assert_eq!(job.time_left(400), 0);
    }
}
