//! The arena lineup: the paper policy, two adaptive estimators, a
//! portfolio contract, and the two degenerate baselines.

use crate::estimators::{BetaEstimator, EmaEstimator, BP};
use crate::{Action, JobState, MarketTick, ResourceKind, SpotPlan, Strategy};
use spotmarket::Price;

/// Rejected launch attempts before a strategy stops re-submitting the
/// same bid (the replay escalates Original-style bids in the same spot,
/// see `provisioner::sim`).
const ESCALATE_AFTER: u32 = 3;

/// Profile-error margin applied to runtime estimates when sizing the
/// on-demand escape path: estimates carry up to ±25% error (§4.3), so
/// 1.5× covers the worst-case underestimate with headroom.
const EST_MARGIN_BP: u64 = 15_000;

/// Fixed slack the backstop keeps on top of the margined escape path,
/// absorbing scan quantization and the checkpoint/restart overhead.
const BASE_BUFFER: u64 = 600;

/// The deadline backstop shared by the adaptive strategies, per the
/// cant_be_late exemplars, in integer arithmetic:
///
/// ```text
/// escape  = est_total · margin / BP + 3 · scan          (restart on OD)
/// buffer  = base + est_total · (BP − avail) / BP        (estimated flakiness)
/// panic  ⇔ time_left ≤ escape + buffer
/// ```
///
/// `est_total` (not `est_remaining`) sizes the escape path because a
/// market revocation loses all progress: the rule guarantees that even a
/// job revoked in the next scan interval can still restart from scratch
/// on-demand and finish by its deadline. Low estimated availability
/// widens the buffer, bailing out earlier on markets the estimator has
/// learned to distrust.
fn panic_now(tick: &MarketTick, job: &JobState, avail_bp: u64) -> bool {
    let escape = job.est_total * EST_MARGIN_BP / BP + 3 * tick.scan_interval;
    let buffer = BASE_BUFFER + job.est_total * (BP - avail_bp.min(BP)) / BP;
    job.time_left(tick.now) <= escape + buffer
}

/// Original-style bid escalation after repeated market rejections: 1.5×
/// the current price, capped at 2× on-demand (mirrors the policy replay).
fn escalate(plan: SpotPlan, tick: &MarketTick, attempts: u32) -> SpotPlan {
    if attempts < ESCALATE_AFTER {
        return plan;
    }
    let Some(price) = tick.spot_price else {
        return plan;
    };
    SpotPlan {
        combo: plan.combo,
        bid: price.scale(1.5).min(tick.od_price.scale(2.0)).max(plan.bid) + Price::TICK,
    }
}

/// The paper policy as a strategy: launch on the guaranteed DrAFTS plan;
/// with no guarantee on offer (degraded feed, dark advisory shard, cold
/// service) route the job to on-demand — §4.4's optimizer semantics, and
/// exactly what makes this policy expensive when the advisory plane is
/// down. Repeated market rejections of the guaranteed bid also fall
/// through to on-demand: the guarantee was computed from stale data.
#[derive(Debug, Default)]
pub struct DraftsBid;

impl Strategy for DraftsBid {
    fn name(&self) -> &'static str {
        "drafts_bid"
    }

    fn decide(&mut self, tick: &MarketTick, job: &JobState) -> Action {
        if job.running_on.is_some() {
            return Action::Wait;
        }
        match tick.drafts {
            Some(plan) if job.attempts < ESCALATE_AFTER => Action::Spot { plan },
            _ => Action::OnDemand,
        }
    }
}

/// EMA availability estimation with the deadline backstop: ride cheap
/// spot while the estimated escape slack allows, switch to on-demand the
/// moment it no longer does.
#[derive(Debug)]
pub struct EmaAvailability {
    est: EmaEstimator,
    panics: u64,
}

impl EmaAvailability {
    /// The exemplars' smoothing (alpha = 0.01) from an optimistic start.
    pub fn new() -> Self {
        Self {
            est: EmaEstimator::new(100, 9_000),
            panics: 0,
        }
    }

    /// Current availability estimate in basis points.
    pub fn availability_bp(&self) -> u64 {
        self.est.availability_bp()
    }
}

impl Default for EmaAvailability {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared adaptive skeleton: panic to on-demand when the backstop
/// fires, otherwise gamble on spot (guaranteed plan first, fallback plan
/// second).
fn adaptive_decide(tick: &MarketTick, job: &JobState, avail_bp: u64, panics: &mut u64) -> Action {
    if job.running_on == Some(ResourceKind::OnDemand) {
        return Action::Wait;
    }
    if panic_now(tick, job, avail_bp) {
        *panics += 1;
        return match job.running_on {
            Some(ResourceKind::Spot) => Action::Switch,
            _ => Action::OnDemand,
        };
    }
    if job.running_on.is_some() {
        return Action::Wait;
    }
    match tick.drafts.or(tick.fallback) {
        Some(plan) => Action::Spot {
            plan: escalate(plan, tick, job.attempts),
        },
        None => Action::Wait,
    }
}

impl Strategy for EmaAvailability {
    fn name(&self) -> &'static str {
        "ema_availability"
    }

    fn observe(&mut self, tick: &MarketTick) {
        self.est.observe(tick.drafts.is_some());
    }

    fn decide(&mut self, tick: &MarketTick, job: &JobState) -> Action {
        adaptive_decide(tick, job, self.est.availability_bp(), &mut self.panics)
    }

    fn panic_activations(&self) -> u64 {
        self.panics
    }
}

/// Beta-Bayesian availability estimation with the same backstop; differs
/// from [`EmaAvailability`] in how fast evidence moves the estimate (the
/// posterior hardens as observations accumulate, the EMA never does).
#[derive(Debug)]
pub struct BetaBayes {
    est: BetaEstimator,
    panics: u64,
}

impl BetaBayes {
    /// The exemplars' optimistic prior (mean 0.75, strength 5).
    pub fn new() -> Self {
        Self {
            est: BetaEstimator::with_default_prior(),
            panics: 0,
        }
    }

    /// Current posterior mean availability in basis points.
    pub fn availability_bp(&self) -> u64 {
        self.est.availability_bp()
    }
}

impl Default for BetaBayes {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for BetaBayes {
    fn name(&self) -> &'static str {
        "beta_bayes"
    }

    fn observe(&mut self, tick: &MarketTick) {
        self.est.observe(tick.drafts.is_some());
    }

    fn decide(&mut self, tick: &MarketTick, job: &JobState) -> Action {
        adaptive_decide(tick, job, self.est.availability_bp(), &mut self.panics)
    }

    fn panic_activations(&self) -> u64 {
        self.panics
    }
}

/// A fixed spot/on-demand portfolio (arXiv 1811.12901): a deterministic
/// share of jobs runs on-demand outright; the rest run the spot leg with
/// the bid read off the trailing price ECDF (a high quantile keeps the
/// revocation probability low without consulting the advisory plane).
#[derive(Debug)]
pub struct Portfolio {
    od_share_bp: u64,
}

impl Portfolio {
    /// The default 30% on-demand leg.
    pub fn new() -> Self {
        Self::with_od_share_bp(3_000)
    }

    /// An explicit on-demand share.
    ///
    /// # Panics
    /// Panics when the share exceeds full scale.
    pub fn with_od_share_bp(od_share_bp: u64) -> Self {
        assert!(od_share_bp <= BP, "share out of range");
        Self { od_share_bp }
    }

    /// Which leg a job belongs to: a splitmix-style hash of the id makes
    /// the split deterministic and independent of submission order.
    fn on_demand_leg(&self, id: u32) -> bool {
        let h = (id as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (h >> 32) % BP < self.od_share_bp
    }
}

impl Default for Portfolio {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Portfolio {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn decide(&mut self, tick: &MarketTick, job: &JobState) -> Action {
        if job.running_on.is_some() {
            return Action::Wait;
        }
        if self.on_demand_leg(job.id) {
            return Action::OnDemand;
        }
        let Some(fallback) = tick.fallback else {
            return Action::OnDemand;
        };
        // Spot leg: bid at the ECDF's 95th percentile, clamped to the
        // on-demand ceiling; before the window fills, the fallback bid.
        let bid = tick
            .quantiles
            .q95
            .map_or(fallback.bid, |q| q.max(Price::TICK).min(tick.od_price));
        let plan = SpotPlan {
            combo: fallback.combo,
            bid,
        };
        Action::Spot {
            plan: escalate(plan, tick, job.attempts),
        }
    }
}

/// Everything on-demand: the attainment anchor (always 10000 bp) and the
/// cost ceiling.
#[derive(Debug, Default)]
pub struct OnDemandOnly;

impl Strategy for OnDemandOnly {
    fn name(&self) -> &'static str {
        "ondemand_only"
    }

    fn decide(&mut self, _tick: &MarketTick, job: &JobState) -> Action {
        if job.running_on.is_some() {
            Action::Wait
        } else {
            Action::OnDemand
        }
    }
}

/// Always spot on the cheap fallback plan, never consults the advisory
/// plane, never switches: the cost floor, carrying the whole tail risk —
/// a market that stays expensive near a deadline simply misses it.
#[derive(Debug, Default)]
pub struct SpotGreedy;

impl Strategy for SpotGreedy {
    fn name(&self) -> &'static str {
        "spot_greedy"
    }

    fn decide(&mut self, tick: &MarketTick, job: &JobState) -> Action {
        if job.running_on.is_some() {
            return Action::Wait;
        }
        match tick.fallback {
            Some(plan) => Action::Spot {
                plan: escalate(plan, tick, job.attempts),
            },
            None => Action::Wait,
        }
    }
}

/// The full arena lineup, in stable CSV row order.
pub fn lineup() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(DraftsBid),
        Box::new(EmaAvailability::new()),
        Box::new(BetaBayes::new()),
        Box::new(Portfolio::new()),
        Box::new(OnDemandOnly),
        Box::new(SpotGreedy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::{Az, Catalog, Combo};

    fn plan(bid_ticks: u64) -> SpotPlan {
        let cat = Catalog::standard();
        SpotPlan {
            combo: Combo::new(
                Az::parse("us-east-1b").unwrap(),
                cat.type_id("c4.large").unwrap(),
            ),
            bid: Price::from_ticks(bid_ticks),
        }
    }

    fn tick(drafts: Option<SpotPlan>, fallback: Option<SpotPlan>, now: u64) -> MarketTick {
        MarketTick {
            now,
            scan_interval: 60,
            drafts,
            fallback,
            od_price: Price::from_ticks(1_050),
            spot_price: Some(Price::from_ticks(300)),
            quantiles: crate::PriceQuantiles {
                q50: Some(Price::from_ticks(280)),
                q75: Some(Price::from_ticks(320)),
                q90: Some(Price::from_ticks(400)),
                q95: Some(Price::from_ticks(450)),
            },
        }
    }

    fn queued(deadline: u64, est: u64) -> JobState {
        JobState {
            id: 7,
            deadline,
            est_total: est,
            est_remaining: est,
            running_on: None,
            attempts: 0,
            restarts: 0,
        }
    }

    #[test]
    fn drafts_bid_routes_to_od_without_a_guarantee() {
        let mut s = DraftsBid;
        let guaranteed = tick(Some(plan(700)), Some(plan(840)), 0);
        assert_eq!(
            s.decide(&guaranteed, &queued(100_000, 900)),
            Action::Spot { plan: plan(700) }
        );
        let dark = tick(None, Some(plan(840)), 0);
        assert_eq!(s.decide(&dark, &queued(100_000, 900)), Action::OnDemand);
        // Repeated market rejections of the guaranteed bid: the guarantee
        // was stale, route to on-demand rather than spin.
        let mut rejected = queued(100_000, 900);
        rejected.attempts = ESCALATE_AFTER;
        assert_eq!(s.decide(&guaranteed, &rejected), Action::OnDemand);
    }

    #[test]
    fn adaptive_panics_when_slack_shrinks() {
        let mut s = EmaAvailability::new();
        let t = tick(None, Some(plan(840)), 0);
        // Plenty of slack: gamble on the fallback spot plan.
        assert!(matches!(
            s.decide(&t, &queued(100_000, 900)),
            Action::Spot { .. }
        ));
        assert_eq!(s.panic_activations(), 0);
        // Slack below the escape path: panic to on-demand.
        assert_eq!(s.decide(&t, &queued(2_000, 900)), Action::OnDemand);
        assert_eq!(s.panic_activations(), 1);
        // Same, but running on spot: checkpoint-switch instead.
        let mut running = queued(2_000, 900);
        running.running_on = Some(ResourceKind::Spot);
        assert_eq!(s.decide(&t, &running), Action::Switch);
        // On-demand jobs are left alone even in a panic.
        running.running_on = Some(ResourceKind::OnDemand);
        assert_eq!(s.decide(&t, &running), Action::Wait);
    }

    #[test]
    fn low_availability_widens_the_panic_buffer() {
        let mut pessimist = BetaBayes::new();
        let dark = tick(None, Some(plan(840)), 0);
        for _ in 0..500 {
            pessimist.observe(&dark);
        }
        assert!(pessimist.availability_bp() < 500);
        // A horizon that is safe under high availability panics under low:
        // escape = 1350 + 180, buffer(low) ≈ 600 + 900 ⇒ threshold ≈ 3030.
        let job = queued(2_900, 900);
        assert_eq!(pessimist.decide(&dark, &job), Action::OnDemand);
        let mut optimist = BetaBayes::new();
        let lit = tick(Some(plan(700)), Some(plan(840)), 0);
        for _ in 0..500 {
            optimist.observe(&lit);
        }
        assert!(matches!(optimist.decide(&lit, &job), Action::Spot { .. }));
    }

    #[test]
    fn portfolio_splits_and_bids_the_quantile() {
        let mut s = Portfolio::new();
        let t = tick(None, Some(plan(840)), 0);
        let (mut od, mut spot) = (0, 0);
        for id in 0..1_000u32 {
            let mut job = queued(100_000, 900);
            job.id = id;
            match s.decide(&t, &job) {
                Action::OnDemand => od += 1,
                Action::Spot { plan } => {
                    spot += 1;
                    assert_eq!(plan.bid, Price::from_ticks(450), "q95 bid");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((200..400).contains(&od), "~30% on-demand leg, got {od}");
        assert_eq!(od + spot, 1_000);
    }

    #[test]
    fn baselines_are_degenerate() {
        let t = tick(Some(plan(700)), Some(plan(840)), 0);
        let job = queued(3_000, 900); // tight deadline: baselines ignore it
        assert_eq!(OnDemandOnly.decide(&t, &job), Action::OnDemand);
        assert_eq!(
            SpotGreedy.decide(&t, &job),
            Action::Spot { plan: plan(840) },
            "greedy ignores the advisory plan and rides the cheap fallback"
        );
        let dark = tick(None, None, 0);
        assert_eq!(SpotGreedy.decide(&dark, &job), Action::Wait);
    }

    #[test]
    fn escalation_raises_the_bid_after_rejections() {
        let t = tick(None, Some(plan(840)), 0);
        let mut job = queued(100_000, 900);
        job.attempts = ESCALATE_AFTER;
        let Action::Spot { plan: p } = SpotGreedy.decide(&t, &job) else {
            panic!("greedy must keep bidding");
        };
        // 1.5 × spot price 300 = 450 (+1 tick), above the 840-tick plan?
        // No: max(450, 840) + 1 = 841.
        assert_eq!(p.bid, Price::from_ticks(841));
    }

    #[test]
    fn lineup_has_stable_names() {
        let names: Vec<&str> = lineup().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "drafts_bid",
                "ema_availability",
                "beta_bayes",
                "portfolio",
                "ondemand_only",
                "spot_greedy"
            ]
        );
    }
}
