//! Deterministic fault injection for the price feed and the launch API.
//!
//! The production DrAFTS pipeline (paper §3.3) polled the EC2 price-history
//! API every 15 minutes; the provisioner called the launch API per job. Both
//! are real web services with real failure modes — outages, publication lag,
//! lost or repeated updates, throttling, capacity errors — which the rest of
//! this workspace must degrade against, never silently mis-guarantee under.
//!
//! This module provides the substrate:
//!
//! * [`FeedSource`] — what a polling client sees of a combo's price feed.
//!   The clean path is [`CleanFeed`] (the full history, no perturbation);
//!   [`FaultyFeed`] applies a seeded [`FaultPlan`] so that every downstream
//!   consumer can be driven through outage windows, lagged/dropped/
//!   duplicated/out-of-order updates, and corrupted ticks.
//! * [`LaunchFaults`] — seeded insufficient-capacity windows and API
//!   throttling for the launch simulator.
//!
//! Everything is derived from a single seed through [`StreamFactory`], so a
//! plan replays bit-identically: same seed, same combo, same faults. The
//! zero-fault plan ([`FaultPlan::none`]) delivers every update at its
//! publication time with its true value — byte-identical to the clean path.

use crate::history::PriceHistory;
use crate::types::Combo;
use crate::{DAY, HOUR, MINUTE};
use obs::{Counter, Registry};
use simrng::{Rng, StreamFactory};
use std::sync::Arc;
use tsforecast::TimeSeries;

/// The canonical `az/type-id` label identifying a combo in metric labels
/// and structured-event fields (e.g. `us-east-1b/3`). One definition so
/// fault counters, health events, and test assertions never drift.
pub fn combo_label(combo: Combo) -> String {
    format!("{}/{}", combo.az, combo.ty.0)
}

/// A seeded description of how a combo's price feed misbehaves.
///
/// All rates are per-update probabilities in `[0, 1)` except the outage
/// fields (a Poisson-style process over wall time). The plan is pure data:
/// two [`FaultyFeed`]s built from equal plans over equal histories behave
/// identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root seed for every stream the plan derives.
    pub seed: u64,
    /// Expected feed outages per day (exponential gaps); `0` disables.
    pub outages_per_day: f64,
    /// Mean outage duration in seconds (exponential).
    pub outage_mean_secs: f64,
    /// Mean publication lag added to every update, in seconds
    /// (exponential); `0` publishes instantly.
    pub lag_mean_secs: f64,
    /// Probability an update is dropped and never delivered.
    pub drop_prob: f64,
    /// Probability an update is delivered a second time later.
    pub duplicate_prob: f64,
    /// Probability an update receives an extra reordering delay.
    pub reorder_prob: f64,
    /// Maximum extra reordering delay in seconds (uniform).
    pub reorder_max_secs: u64,
    /// Probability an update's price ticks are corrupted in transit.
    pub corrupt_prob: f64,
    /// Maximum relative magnitude of a corruption (e.g. `0.2` = ±20%,
    /// with a one-tick minimum perturbation).
    pub corrupt_rel: f64,
    /// Per-poll-attempt probability of an API throttle rejection.
    pub throttle_prob: f64,
}

impl FaultPlan {
    /// The zero-fault plan: every update delivered at publication time,
    /// unmodified, with no outages or throttling.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            outages_per_day: 0.0,
            outage_mean_secs: 0.0,
            lag_mean_secs: 0.0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_max_secs: 0,
            corrupt_prob: 0.0,
            corrupt_rel: 0.0,
            throttle_prob: 0.0,
        }
    }

    /// A reference plan scaled by `intensity` in `[0, 1]`: `0` is
    /// [`FaultPlan::none`], `1` is a hostile feed (a couple of multi-hour
    /// outages a day, minutes of lag, percent-level loss/duplication/
    /// corruption, frequent throttles). Intensities between interpolate
    /// linearly; probabilities are clamped below 1.
    pub fn with_intensity(seed: u64, intensity: f64) -> Self {
        assert!(intensity >= 0.0, "intensity must be non-negative");
        let x = intensity;
        let prob = |p: f64| (p * x).clamp(0.0, 0.95);
        Self {
            seed,
            outages_per_day: 2.0 * x,
            outage_mean_secs: 2.0 * HOUR as f64 * x,
            lag_mean_secs: 2.0 * MINUTE as f64 * x,
            drop_prob: prob(0.05),
            duplicate_prob: prob(0.03),
            reorder_prob: prob(0.05),
            reorder_max_secs: (30.0 * MINUTE as f64 * x) as u64,
            corrupt_prob: prob(0.02),
            corrupt_rel: 0.2 * x,
            throttle_prob: prob(0.25),
        }
    }

    /// Whether the plan perturbs nothing (the clean path).
    pub fn is_zero(&self) -> bool {
        self.outages_per_day == 0.0
            && self.lag_mean_secs == 0.0
            && self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.reorder_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.throttle_prob == 0.0
    }

    /// Validates the plan's rates.
    ///
    /// # Panics
    /// Panics on negative fields or probabilities outside `[0, 1)`.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("reorder_prob", self.reorder_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("throttle_prob", self.throttle_prob),
        ] {
            assert!((0.0..1.0).contains(&p), "{name} must be in [0, 1)");
        }
        assert!(self.outages_per_day >= 0.0, "negative outage rate");
        assert!(self.outage_mean_secs >= 0.0, "negative outage duration");
        assert!(self.lag_mean_secs >= 0.0, "negative lag");
        assert!(self.corrupt_rel >= 0.0, "negative corruption magnitude");
    }
}

/// Why a feed poll returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// The feed endpoint is down; expected back at `until`.
    Outage {
        /// End of the outage window.
        until: u64,
    },
    /// The request was throttled; retrying later may succeed.
    Throttled,
}

/// What a polling client sees of one combo's price feed.
///
/// `poll(now, attempt)` returns the history the feed has published by
/// `now` — possibly perturbed, possibly an error. `attempt` is the retry
/// ordinal within one logical fetch, so throttling decisions can vary
/// across retries while staying deterministic. Implementations may return
/// more than the `now`-prefix (the clean feed returns the whole backing
/// history); consumers must truncate to their own visibility horizon.
pub trait FeedSource: Send + Sync {
    /// The combo this feed publishes.
    fn combo(&self) -> Combo;

    /// Polls the feed at `now`.
    fn poll(&self, now: u64, attempt: u32) -> Result<Arc<PriceHistory>, FeedError>;

    /// Attaches this feed's own counters (if any) to `registry`, called
    /// once at boot by whoever owns the exposition. The default — and the
    /// clean feed — exposes nothing.
    fn register_metrics(&self, _registry: &Registry) {}
}

/// The perfect feed: every update visible the instant it happens.
///
/// Polls cheaply return the full backing history; the service truncates to
/// its bucket time, which makes this exactly the pre-fault-injection
/// behaviour.
#[derive(Debug, Clone)]
pub struct CleanFeed {
    history: Arc<PriceHistory>,
}

impl CleanFeed {
    /// Wraps a history as an always-available feed.
    pub fn new(history: Arc<PriceHistory>) -> Self {
        Self { history }
    }
}

impl FeedSource for CleanFeed {
    fn combo(&self) -> Combo {
        self.history.combo()
    }

    fn poll(&self, _now: u64, _attempt: u32) -> Result<Arc<PriceHistory>, FeedError> {
        Ok(self.history.clone())
    }
}

/// Injected-fault and rejected-poll counters for one [`FaultyFeed`].
///
/// The schedule-derived kinds (drops, duplicates, corruptions, reorders)
/// are fixed totals set when the feed samples its delivery schedule at
/// construction; the poll-time kinds (outage, throttle rejections) count
/// live as clients poll. [`FeedSource::register_metrics`] exposes all of
/// them per combo under `drafts_feed_faults_total{combo=...,kind=...}`.
#[derive(Debug, Clone, Default)]
pub struct FaultCounters {
    /// Updates dropped from the schedule (never delivered).
    pub drops: Counter,
    /// Extra deliveries of an already-delivered update.
    pub duplicates: Counter,
    /// Updates whose price ticks were corrupted in transit.
    pub corruptions: Counter,
    /// Updates given an extra reordering delay.
    pub reorders: Counter,
    /// Polls rejected inside an outage window.
    pub outage_polls: Counter,
    /// Polls rejected by API throttling.
    pub throttled_polls: Counter,
}

/// One delivery of one (possibly corrupted) update.
#[derive(Debug, Clone, Copy)]
struct DeliveryEvent {
    /// When the client can first observe the update.
    delivered_at: u64,
    /// The update's publication timestamp.
    time: u64,
    /// The (possibly corrupted) price ticks.
    ticks: u64,
}

/// A feed that perturbs a true history per a [`FaultPlan`].
///
/// All randomness is drawn up front at construction (one stream per
/// `(plan.seed, combo)`), producing a fixed schedule of delivery events and
/// outage windows; `poll` is then a pure function of `now`. Timestamps are
/// never altered — lag and reordering delay *delivery*, so late updates
/// appear with their original (older) publication times, exactly like a
/// delayed price-history API.
pub struct FaultyFeed {
    truth: Arc<PriceHistory>,
    plan: FaultPlan,
    /// All deliveries, sorted by `(delivered_at, time)`.
    events: Vec<DeliveryEvent>,
    /// Non-overlapping `[start, end)` outage windows, ascending.
    outages: Vec<(u64, u64)>,
    /// The perturbed series a patient client eventually holds.
    delivered: Arc<PriceHistory>,
    /// For the k-th update of `delivered`: the latest first-arrival time
    /// among updates `0..=k` (prefix max), i.e. when the contiguous prefix
    /// of length `k + 1` becomes fully visible.
    prefix_delivery: Vec<u64>,
    /// Injected-fault totals and live poll-rejection counters.
    faults: FaultCounters,
}

impl FaultyFeed {
    /// Builds the feed by sampling the plan's full delivery schedule.
    ///
    /// # Panics
    /// Panics on an invalid plan.
    pub fn new(truth: Arc<PriceHistory>, plan: FaultPlan) -> Self {
        plan.validate();
        let combo = truth.combo();
        let factory = StreamFactory::new(plan.seed);
        let faults = FaultCounters::default();
        let outages = Self::sample_outages(&truth, &plan, &factory, combo);
        let events = Self::sample_deliveries(&truth, &plan, &factory, combo, &outages, &faults);

        // The eventually-delivered series: every delivered timestamp once,
        // in time order (duplicates carry identical ticks, so keep-first).
        let mut by_time: Vec<(u64, u64, u64)> = Vec::with_capacity(events.len());
        for e in &events {
            by_time.push((e.time, e.ticks, e.delivered_at));
        }
        by_time.sort_unstable_by_key(|&(t, _, d)| (t, d));
        by_time.dedup_by_key(|&mut (t, _, _)| t);
        let series: TimeSeries = by_time.iter().map(|&(t, v, _)| (t, v)).collect();
        let delivered = Arc::new(PriceHistory::new(combo, series));
        let mut prefix_delivery = Vec::with_capacity(by_time.len());
        let mut latest = 0u64;
        for &(_, _, d) in &by_time {
            latest = latest.max(d);
            prefix_delivery.push(latest);
        }

        Self {
            truth,
            plan,
            events,
            outages,
            delivered,
            prefix_delivery,
            faults,
        }
    }

    fn sample_outages(
        truth: &PriceHistory,
        plan: &FaultPlan,
        factory: &StreamFactory,
        combo: Combo,
    ) -> Vec<(u64, u64)> {
        if plan.outages_per_day <= 0.0 || plan.outage_mean_secs <= 0.0 || truth.is_empty() {
            return Vec::new();
        }
        let mut rng = factory.stream("feed-outages", combo.key());
        let start = truth.time(0);
        // Cover the whole history plus enough slack that deferred
        // deliveries near the end still resolve against real windows.
        let horizon = truth.time(truth.len() - 1) + DAY;
        let mean_gap = DAY as f64 / plan.outages_per_day;
        let mut windows = Vec::new();
        let mut t = start as f64;
        loop {
            t += exp_sample(&mut rng, mean_gap);
            if t >= horizon as f64 {
                break;
            }
            let dur = exp_sample(&mut rng, plan.outage_mean_secs).max(1.0);
            let s = t as u64;
            let e = (t + dur) as u64;
            windows.push((s, e.max(s + 1)));
            t += dur;
        }
        windows
    }

    fn sample_deliveries(
        truth: &PriceHistory,
        plan: &FaultPlan,
        factory: &StreamFactory,
        combo: Combo,
        outages: &[(u64, u64)],
        faults: &FaultCounters,
    ) -> Vec<DeliveryEvent> {
        let mut rng = factory.stream("feed-faults", combo.key());
        let defer = |t: u64| defer_past_outages(t, outages);
        let times = truth.series().times();
        let values = truth.series().values();
        let mut events = Vec::with_capacity(times.len());
        for (&time, &ticks) in times.iter().zip(values) {
            // Draw every variate unconditionally so the stream position is
            // independent of which faults fire: tweaking one probability
            // never re-randomises the others.
            let u_drop = rng.next_f64();
            let lag = exp_sample(&mut rng, plan.lag_mean_secs);
            let u_reorder = rng.next_f64();
            let u_reorder_extra = rng.next_f64();
            let u_dup = rng.next_f64();
            let u_dup_delay = rng.next_f64();
            let u_corrupt = rng.next_f64();
            let u_corrupt_mag = rng.next_f64();

            if u_drop < plan.drop_prob {
                faults.drops.inc();
                continue;
            }
            let delivered_ticks = if u_corrupt < plan.corrupt_prob {
                faults.corruptions.inc();
                corrupt_ticks(ticks, u_corrupt_mag, plan.corrupt_rel)
            } else {
                ticks
            };
            let reorder = if u_reorder < plan.reorder_prob {
                faults.reorders.inc();
                (u_reorder_extra * plan.reorder_max_secs as f64) as u64
            } else {
                0
            };
            let delivered_at = defer(time + lag as u64 + reorder);
            events.push(DeliveryEvent {
                delivered_at,
                time,
                ticks: delivered_ticks,
            });
            if u_dup < plan.duplicate_prob {
                faults.duplicates.inc();
                let dup_gap = 1 + (u_dup_delay * plan.reorder_max_secs.max(MINUTE) as f64) as u64;
                events.push(DeliveryEvent {
                    delivered_at: defer(delivered_at + dup_gap),
                    time,
                    ticks: delivered_ticks,
                });
            }
        }
        events.sort_by_key(|e| (e.delivered_at, e.time));
        events
    }

    /// The unperturbed history (ground truth for survival accounting).
    pub fn truth(&self) -> &Arc<PriceHistory> {
        &self.truth
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The full perturbed series a patient client eventually holds.
    pub fn delivered(&self) -> &Arc<PriceHistory> {
        &self.delivered
    }

    /// The feed's fault counters: injected totals fixed at construction
    /// plus live poll-rejection counts.
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.faults
    }

    /// The outage windows, ascending and non-overlapping.
    pub fn outages(&self) -> &[(u64, u64)] {
        &self.outages
    }

    /// The outage window covering `now`, if any (returns its end).
    pub fn outage_at(&self, now: u64) -> Option<u64> {
        let i = self.outages.partition_point(|&(s, _)| s <= now);
        (i > 0 && now < self.outages[i - 1].1).then(|| self.outages[i - 1].1)
    }

    /// Length of the contiguous prefix of [`Self::delivered`] fully
    /// visible at `now` — what a strictly in-order streaming consumer has
    /// applied. Under the zero-fault plan this equals
    /// `index_at(now) + 1` on the true history.
    pub fn prefix_visible_at(&self, now: u64) -> usize {
        self.prefix_delivery.partition_point(|&d| d <= now)
    }
}

impl FeedSource for FaultyFeed {
    fn combo(&self) -> Combo {
        self.truth.combo()
    }

    /// A poll at `now` fails inside an outage window, may be throttled
    /// (per-attempt, deterministic in `(seed, combo, now, attempt)`), and
    /// otherwise returns a snapshot of every update delivered by `now`,
    /// re-sorted into time order — what a client that rebuilds its view
    /// from the full API response holds.
    fn poll(&self, now: u64, attempt: u32) -> Result<Arc<PriceHistory>, FeedError> {
        if let Some(until) = self.outage_at(now) {
            self.faults.outage_polls.inc();
            return Err(FeedError::Outage { until });
        }
        if self.plan.throttle_prob > 0.0 {
            let index = self
                .truth
                .combo()
                .key()
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(now)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(attempt as u64);
            let u = hash_prob(self.plan.seed, "feed-throttle", index);
            if u < self.plan.throttle_prob {
                self.faults.throttled_polls.inc();
                return Err(FeedError::Throttled);
            }
        }
        let visible = self.events.partition_point(|e| e.delivered_at <= now);
        let mut pairs: Vec<(u64, u64)> = self.events[..visible]
            .iter()
            .map(|e| (e.time, e.ticks))
            .collect();
        pairs.sort_unstable_by_key(|&(t, _)| t);
        pairs.dedup_by_key(|&mut (t, _)| t);
        let series: TimeSeries = pairs.into_iter().collect();
        Ok(Arc::new(PriceHistory::new(self.truth.combo(), series)))
    }

    /// Exposes the per-kind fault counters, labelled by combo so several
    /// faulty feeds coexist in one registry.
    fn register_metrics(&self, registry: &Registry) {
        let label = combo_label(self.truth.combo());
        for (kind, counter) in [
            ("drop", &self.faults.drops),
            ("duplicate", &self.faults.duplicates),
            ("corrupt", &self.faults.corruptions),
            ("reorder", &self.faults.reorders),
            ("outage_poll", &self.faults.outage_polls),
            ("throttled_poll", &self.faults.throttled_polls),
        ] {
            registry.attach_counter(
                &format!("drafts_feed_faults_total{{combo=\"{label}\",kind=\"{kind}\"}}"),
                counter,
            );
        }
    }
}

/// Seeded launch-API faults for the spot simulator: insufficient-capacity
/// windows (a pool runs dry for a while) and per-request throttling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchFaults {
    /// Root seed for the fault decisions.
    pub seed: u64,
    /// Probability a given `(combo, window)` has no capacity.
    pub capacity_prob: f64,
    /// Width of a capacity window in seconds (shortages persist for the
    /// whole window).
    pub capacity_window: u64,
    /// Per-request probability of an API throttle rejection.
    pub throttle_prob: f64,
}

impl LaunchFaults {
    /// No launch faults (the clean path).
    pub fn none() -> Self {
        Self {
            seed: 0,
            capacity_prob: 0.0,
            capacity_window: HOUR,
            throttle_prob: 0.0,
        }
    }

    /// A reference fault load scaled by `intensity` in `[0, 1]`.
    pub fn with_intensity(seed: u64, intensity: f64) -> Self {
        assert!(intensity >= 0.0, "intensity must be non-negative");
        Self {
            seed,
            capacity_prob: (0.10 * intensity).clamp(0.0, 0.95),
            capacity_window: HOUR,
            throttle_prob: (0.20 * intensity).clamp(0.0, 0.95),
        }
    }

    /// Whether the configuration injects nothing.
    pub fn is_zero(&self) -> bool {
        self.capacity_prob == 0.0 && self.throttle_prob == 0.0
    }

    /// Validates the rates.
    ///
    /// # Panics
    /// Panics on probabilities outside `[0, 1)` or a zero window.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.capacity_prob),
            "capacity_prob must be in [0, 1)"
        );
        assert!(
            (0.0..1.0).contains(&self.throttle_prob),
            "throttle_prob must be in [0, 1)"
        );
        assert!(self.capacity_window > 0, "zero capacity window");
    }

    /// Whether `combo` is out of capacity at `t`.
    pub fn capacity_exhausted(&self, combo: Combo, t: u64) -> bool {
        if self.capacity_prob == 0.0 {
            return false;
        }
        let window = t / self.capacity_window;
        let index = combo
            .key()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(window);
        hash_prob(self.seed, "launch-capacity", index) < self.capacity_prob
    }

    /// Whether the `nth` launch request (a per-simulator ordinal) for
    /// `combo` at `t` is throttled.
    pub fn throttled(&self, combo: Combo, t: u64, nth: u64) -> bool {
        if self.throttle_prob == 0.0 {
            return false;
        }
        let index = combo
            .key()
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(t)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(nth);
        hash_prob(self.seed, "launch-throttle", index) < self.throttle_prob
    }
}

/// How a serving shard misbehaves during a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardFaultKind {
    /// Responds but slowly; answers are still correct (front should mark
    /// the shard Degraded, not route around it).
    Slow,
    /// Accepts connections but never answers (front must time out and
    /// fail over).
    Hang,
    /// The process is gone: connections are refused for the rest of the
    /// run (`until` is ignored — kills never heal).
    Kill,
}

impl ShardFaultKind {
    /// Stable lowercase label for CSV/config rows.
    pub fn label(self) -> &'static str {
        match self {
            ShardFaultKind::Slow => "slow",
            ShardFaultKind::Hang => "hang",
            ShardFaultKind::Kill => "kill",
        }
    }
}

/// One scheduled shard fault: `shard` misbehaves as `kind` over the
/// virtual-time window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// Index of the afflicted shard.
    pub shard: usize,
    /// Failure mode.
    pub kind: ShardFaultKind,
    /// Virtual second the fault begins (inclusive).
    pub from: u64,
    /// Virtual second the fault ends (exclusive; `u64::MAX` for kills).
    pub until: u64,
}

/// A fleet-scope fault plan: which shards fail, how, and when — a pure
/// function of the seed, so two runs with the same plan inject the same
/// faults at the same virtual times, byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFaults {
    shards: usize,
    faults: Vec<ShardFault>,
}

impl ShardFaults {
    /// No shard faults (the clean path) for a fleet of `shards`.
    pub fn none(shards: usize) -> Self {
        assert!(shards > 0, "empty fleet");
        Self {
            shards,
            faults: Vec::new(),
        }
    }

    /// An explicit plan.
    ///
    /// # Panics
    /// Panics on an out-of-range shard index or an empty window.
    pub fn with(shards: usize, faults: Vec<ShardFault>) -> Self {
        assert!(shards > 0, "empty fleet");
        for f in &faults {
            assert!(f.shard < shards, "fault on shard {} of {shards}", f.shard);
            assert!(f.from < f.until, "empty fault window");
        }
        Self { shards, faults }
    }

    /// Samples a plan: `kills + hangs + slows` distinct victim shards
    /// (chosen by a seeded shuffle), each faulting once with an onset in
    /// the middle half of `window` so the run observes both the healthy
    /// and the degraded regime. Kills last forever; hangs and slows heal
    /// after an eighth of the window.
    ///
    /// # Panics
    /// Panics if more victims are requested than there are shards, or on
    /// an empty window.
    pub fn sample(
        seed: u64,
        shards: usize,
        window: (u64, u64),
        kills: usize,
        hangs: usize,
        slows: usize,
    ) -> Self {
        assert!(shards > 0, "empty fleet");
        let victims_wanted = kills + hangs + slows;
        assert!(
            victims_wanted <= shards,
            "{victims_wanted} victims but only {shards} shards"
        );
        let (start, end) = window;
        assert!(start < end, "empty fault window");
        let span = end - start;
        // Seeded Fisher-Yates over the shard indices picks distinct victims.
        let factory = StreamFactory::new(seed);
        let mut order: Vec<usize> = (0..shards).collect();
        let mut rng = factory.stream_named("shard-victims");
        for i in (1..shards).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let kinds = core::iter::empty()
            .chain(core::iter::repeat_n(ShardFaultKind::Kill, kills))
            .chain(core::iter::repeat_n(ShardFaultKind::Hang, hangs))
            .chain(core::iter::repeat_n(ShardFaultKind::Slow, slows));
        let faults = order
            .into_iter()
            .zip(kinds)
            .enumerate()
            .map(|(i, (shard, kind))| {
                // Onset lands in the middle half of the window.
                let jitter = hash_prob(seed, "shard-onset", i as u64);
                let from = start + span / 4 + ((span / 2) as f64 * jitter) as u64;
                let until = match kind {
                    ShardFaultKind::Kill => u64::MAX,
                    _ => (from + (span / 8).max(1)).min(end),
                };
                ShardFault {
                    shard,
                    kind,
                    from,
                    until,
                }
            })
            .collect();
        Self { shards, faults }
    }

    /// Fleet size the plan was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Whether the plan injects nothing.
    pub fn is_zero(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[ShardFault] {
        &self.faults
    }

    /// The most severe fault afflicting `shard` at virtual time `now`
    /// (`Kill` over `Hang` over `Slow`), if any.
    pub fn active(&self, shard: usize, now: u64) -> Option<ShardFaultKind> {
        self.faults
            .iter()
            .filter(|f| f.shard == shard && f.from <= now && now < f.until)
            .map(|f| f.kind)
            .max()
    }

    /// Stable one-token summary for CSV config rows, e.g.
    /// `kill@2:1728150` — kind, victim shard, onset — joined by `+`;
    /// `none` for the empty plan.
    pub fn label(&self) -> String {
        if self.faults.is_empty() {
            return "none".to_string();
        }
        let parts: Vec<String> = self
            .faults
            .iter()
            .map(|f| format!("{}@{}:{}", f.kind.label(), f.shard, f.from))
            .collect();
        parts.join("+")
    }
}

/// A uniform `[0, 1)` draw keyed by `(seed, domain, index)` — stateless
/// hashing (no stream consumed), so fault decisions at unrelated call
/// sites never couple.
pub fn hash_prob(seed: u64, domain: &str, index: u64) -> f64 {
    let bits = StreamFactory::new(seed).derive_seed(domain, index);
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Inverse-CDF exponential sample with the given mean (`0` mean → `0`).
/// Always consumes exactly one draw, keeping stream alignment independent
/// of the plan's parameters.
fn exp_sample<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u = rng.next_f64_open();
    if mean <= 0.0 {
        return 0.0;
    }
    -u.ln() * mean
}

/// Perturbs `ticks` by up to ±`rel`, never to zero, always by ≥ 1 tick.
fn corrupt_ticks(ticks: u64, u: f64, rel: f64) -> u64 {
    let factor = 1.0 + (2.0 * u - 1.0) * rel;
    let perturbed = ((ticks as f64 * factor).round() as u64).max(1);
    if perturbed == ticks {
        ticks + 1
    } else {
        perturbed
    }
}

fn defer_past_outages(t: u64, outages: &[(u64, u64)]) -> u64 {
    let i = outages.partition_point(|&(s, _)| s <= t);
    if i > 0 && t < outages[i - 1].1 {
        outages[i - 1].1
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::tracegen::{self, TraceConfig};
    use crate::types::Az;

    fn truth() -> Arc<PriceHistory> {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-east-1b").unwrap(),
            cat.type_id("c4.large").unwrap(),
        );
        Arc::new(tracegen::generate(combo, cat, &TraceConfig::days(10, 7)))
    }

    fn hostile() -> FaultPlan {
        FaultPlan::with_intensity(99, 1.0)
    }

    #[test]
    fn zero_fault_plan_is_the_clean_path() {
        let truth = truth();
        let feed = FaultyFeed::new(truth.clone(), FaultPlan::none(5));
        assert!(feed.plan().is_zero());
        assert!(feed.outages().is_empty());
        // Eventually-delivered series is the truth, bit for bit.
        assert_eq!(feed.delivered().series().times(), truth.series().times());
        assert_eq!(feed.delivered().series().values(), truth.series().values());
        // The visible prefix tracks wall time exactly.
        for t in [0, 3_000, 86_400, 5 * 86_400] {
            let expect = truth.series().index_at(t).map_or(0, |i| i + 1);
            assert_eq!(feed.prefix_visible_at(t), expect, "t={t}");
        }
        // A poll mid-history returns exactly the visible updates.
        let now = 4 * DAY + 17;
        let snap = feed.poll(now, 0).unwrap();
        let upto = truth.series().index_at(now).unwrap();
        assert_eq!(snap.series().times(), &truth.series().times()[..=upto]);
        assert_eq!(snap.series().values(), &truth.series().values()[..=upto]);
    }

    #[test]
    fn with_intensity_zero_equals_none() {
        assert_eq!(FaultPlan::with_intensity(3, 0.0), FaultPlan::none(3));
        assert!(LaunchFaults::with_intensity(3, 0.0).is_zero());
    }

    #[test]
    fn faulty_feed_is_deterministic() {
        let truth = truth();
        let a = FaultyFeed::new(truth.clone(), hostile());
        let b = FaultyFeed::new(truth.clone(), hostile());
        assert_eq!(a.outages(), b.outages());
        assert_eq!(
            a.delivered().series().times(),
            b.delivered().series().times()
        );
        assert_eq!(
            a.delivered().series().values(),
            b.delivered().series().values()
        );
        for t in (0..10 * DAY).step_by(7 * 3600) {
            assert_eq!(a.prefix_visible_at(t), b.prefix_visible_at(t));
            match (a.poll(t, 0), b.poll(t, 0)) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.series().times(), y.series().times());
                    assert_eq!(x.series().values(), y.series().values());
                }
                (ex, ey) => assert_eq!(ex.err(), ey.err()),
            }
        }
        // A different seed produces a different schedule.
        let c = FaultyFeed::new(truth, FaultPlan::with_intensity(100, 1.0));
        assert_ne!(a.outages(), c.outages());
    }

    #[test]
    fn drops_shrink_and_lag_delays_delivery() {
        let truth = truth();
        let feed = FaultyFeed::new(truth.clone(), hostile());
        let delivered = feed.delivered();
        assert!(delivered.len() < truth.len(), "drops must lose updates");
        assert!(delivered.len() > truth.len() / 2, "but not most of them");
        // Delivered timestamps are a subset of true ones.
        let true_times: std::collections::HashSet<u64> =
            truth.series().times().iter().copied().collect();
        assert!(delivered
            .series()
            .times()
            .iter()
            .all(|t| true_times.contains(t)));
        // Lag: at some instant the visible prefix trails the published one.
        let t = 5 * DAY;
        let published = delivered.series().index_at(t).map_or(0, |i| i + 1);
        assert!(feed.prefix_visible_at(t) < published, "lag must show");
        // The prefix is monotone in time.
        let mut last = 0;
        for t in (0..11 * DAY).step_by(3600) {
            let k = feed.prefix_visible_at(t);
            assert!(k >= last);
            last = k;
        }
    }

    #[test]
    fn corruption_changes_values_but_not_times() {
        let truth = truth();
        let plan = FaultPlan {
            corrupt_prob: 0.5,
            corrupt_rel: 0.3,
            ..FaultPlan::none(11)
        };
        let feed = FaultyFeed::new(truth.clone(), plan);
        let delivered = feed.delivered();
        assert_eq!(delivered.series().times(), truth.series().times());
        let changed = delivered
            .series()
            .values()
            .iter()
            .zip(truth.series().values())
            .filter(|(a, b)| a != b)
            .count();
        let frac = changed as f64 / truth.len() as f64;
        assert!((0.4..0.6).contains(&frac), "corruption rate {frac}");
        assert!(delivered.series().values().iter().all(|&v| v > 0));
    }

    #[test]
    fn outages_block_polls_and_defer_deliveries() {
        let truth = truth();
        let plan = FaultPlan {
            outages_per_day: 4.0,
            outage_mean_secs: 3.0 * HOUR as f64,
            ..FaultPlan::none(13)
        };
        let feed = FaultyFeed::new(truth.clone(), plan);
        assert!(!feed.outages().is_empty());
        let &(s, e) = &feed.outages()[0];
        assert!(s < e);
        let mid = s + (e - s) / 2;
        assert_eq!(
            feed.poll(mid, 0).err(),
            Some(FeedError::Outage { until: e })
        );
        assert_eq!(feed.outage_at(mid), Some(e));
        assert_eq!(feed.outage_at(e), None, "window end is exclusive");
        // Nothing published inside the window becomes visible before it
        // ends: the visible prefix is frozen across the window.
        assert_eq!(feed.prefix_visible_at(mid), feed.prefix_visible_at(s));
        // Windows never overlap.
        for w in feed.outages().windows(2) {
            assert!(w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn duplicates_do_not_distort_the_series() {
        let truth = truth();
        let plan = FaultPlan {
            duplicate_prob: 0.5,
            ..FaultPlan::none(17)
        };
        let feed = FaultyFeed::new(truth.clone(), plan);
        // Duplicates re-deliver existing updates; the assembled series is
        // still exactly the truth.
        assert_eq!(feed.delivered().series().times(), truth.series().times());
        assert_eq!(feed.delivered().series().values(), truth.series().values());
        let snap = feed.poll(9 * DAY, 0).unwrap();
        let upto = truth.series().index_at(9 * DAY).unwrap();
        assert_eq!(snap.series().times(), &truth.series().times()[..=upto]);
    }

    #[test]
    fn throttling_is_per_attempt_and_deterministic() {
        let truth = truth();
        let plan = FaultPlan {
            throttle_prob: 0.5,
            ..FaultPlan::none(23)
        };
        let feed = FaultyFeed::new(truth, plan);
        let mut throttled = 0;
        let mut ok = 0;
        for now in (0..5 * DAY).step_by(900) {
            for attempt in 0..4 {
                match feed.poll(now, attempt) {
                    Err(FeedError::Throttled) => throttled += 1,
                    Ok(_) => ok += 1,
                    Err(e) => panic!("unexpected {e:?}"),
                }
                assert_eq!(
                    feed.poll(now, attempt).is_ok(),
                    feed.poll(now, attempt).is_ok()
                );
            }
        }
        assert!(throttled > 0 && ok > 0);
        let total = (throttled + ok) as f64;
        let rate = throttled as f64 / total;
        assert!((0.4..0.6).contains(&rate), "throttle rate {rate}");
    }

    #[test]
    fn snapshots_are_valid_histories_under_hostile_plans() {
        let truth = truth();
        let feed = FaultyFeed::new(truth, hostile());
        for t in (0..10 * DAY).step_by(5 * 3600) {
            if let Ok(snap) = feed.poll(t, 0) {
                // Strictly increasing times are asserted by TimeSeries;
                // also check nothing from the future leaked in.
                if !snap.is_empty() {
                    assert!(snap.time(snap.len() - 1) <= t);
                }
                assert!(snap.series().values().iter().all(|&v| v > 0));
            }
        }
    }

    #[test]
    fn launch_faults_gate_on_windows_and_requests() {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-east-1b").unwrap(),
            cat.type_id("c4.large").unwrap(),
        );
        let none = LaunchFaults::none();
        assert!(!none.capacity_exhausted(combo, 0));
        assert!(!none.throttled(combo, 0, 0));

        let f = LaunchFaults::with_intensity(7, 1.0);
        f.validate();
        // Capacity is constant within a window.
        let mut exhausted = 0;
        for w in 0..200u64 {
            let t = w * f.capacity_window;
            let a = f.capacity_exhausted(combo, t);
            let b = f.capacity_exhausted(combo, t + f.capacity_window - 1);
            assert_eq!(a, b, "window {w} must be uniform");
            exhausted += a as u64;
        }
        let rate = exhausted as f64 / 200.0;
        assert!((0.05..0.20).contains(&rate), "capacity rate {rate}");
        // Throttling varies with the request ordinal at fixed (combo, t).
        let distinct: std::collections::HashSet<bool> =
            (0..32).map(|n| f.throttled(combo, 1234, n)).collect();
        assert_eq!(distinct.len(), 2, "both outcomes must occur");
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn invalid_plan_is_rejected() {
        FaultPlan {
            drop_prob: 1.5,
            ..FaultPlan::none(0)
        }
        .validate();
    }

    #[test]
    fn shard_faults_are_deterministic_and_distinct() {
        let window = (1_000_000, 1_000_600);
        let a = ShardFaults::sample(42, 4, window, 1, 1, 1);
        let b = ShardFaults::sample(42, 4, window, 1, 1, 1);
        assert_eq!(a, b, "same seed must produce the same plan");
        let c = ShardFaults::sample(43, 4, window, 1, 1, 1);
        assert_ne!(a, c, "different seed must produce a different plan");
        let victims: std::collections::HashSet<usize> =
            a.faults().iter().map(|f| f.shard).collect();
        assert_eq!(victims.len(), 3, "victims must be distinct shards");
        for f in a.faults() {
            assert!(f.from >= window.0 + 150 && f.from < window.1);
            if f.kind == ShardFaultKind::Kill {
                assert_eq!(f.until, u64::MAX, "kills never heal");
            } else {
                assert!(f.until <= window.1);
            }
        }
    }

    #[test]
    fn shard_fault_active_prefers_most_severe() {
        let plan = ShardFaults::with(
            2,
            vec![
                ShardFault {
                    shard: 0,
                    kind: ShardFaultKind::Slow,
                    from: 100,
                    until: 300,
                },
                ShardFault {
                    shard: 0,
                    kind: ShardFaultKind::Kill,
                    from: 200,
                    until: u64::MAX,
                },
            ],
        );
        assert_eq!(plan.active(0, 50), None);
        assert_eq!(plan.active(0, 150), Some(ShardFaultKind::Slow));
        assert_eq!(plan.active(0, 250), Some(ShardFaultKind::Kill));
        assert_eq!(plan.active(1, 250), None, "other shards are unaffected");
        assert!(!plan.is_zero());
        assert!(ShardFaults::none(2).is_zero());
        assert_eq!(ShardFaults::none(2).label(), "none");
        assert_eq!(plan.label(), "slow@0:100+kill@0:200");
    }

    #[test]
    #[should_panic(expected = "victims but only")]
    fn shard_faults_reject_too_many_victims() {
        ShardFaults::sample(1, 2, (0, 100), 2, 1, 0);
    }
}
