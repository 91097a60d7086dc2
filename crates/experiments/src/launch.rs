//! Figures 2 and 3: the instance-launch experiments (paper §4.2).
//!
//! "In each experiment, a script computed the DrAFTS maximum bid that
//! would ensure a 3300 second duration with probability p = 0.95 ...
//! allowed the experiment to choose the AZ in a specified Region that
//! currently had the lowest predicted price upper bound ... varied the
//! time between experiments by selecting an inter-experiment interval from
//! a normal distribution with a mean of 2748 seconds and a standard
//! deviation of 687 seconds." Figure 2 (c4.large, us-east-1) saw 100/100
//! successes; Figure 3 (c3.2xlarge, us-west-1) saw 4 failures, one of
//! which was a launch rejection rather than a price termination.

use crate::common::REPRO_SEED;
use drafts_core::azselect;
use drafts_core::predictor::{DraftsConfig, DraftsPredictor};
use simrng::dist::Normal;
use simrng::StreamFactory;
use spotmarket::history::Survival;
use spotmarket::tracegen::{self, TraceConfig};
use spotmarket::{Az, Catalog, Combo, Price, PriceHistory, Region, DAY};

/// Launch-experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Instance type under test.
    pub type_name: &'static str,
    /// Region whose AZs compete on fitness.
    pub region: Region,
    /// Durability probability (paper: 0.95).
    pub probability: f64,
    /// Hold duration in seconds (paper: 3300).
    pub duration: u64,
    /// Number of launches (paper: ~100 over a week).
    pub launches: usize,
    /// Mean inter-launch interval (paper: 2748 s).
    pub interval_mean: f64,
    /// Interval standard deviation (paper: 687 s).
    pub interval_sd: f64,
    /// History warm-up before the first launch.
    pub warmup: u64,
    /// Total history length in days.
    pub history_days: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl LaunchConfig {
    /// Figure 2: c4.large in us-east-1.
    pub fn figure2() -> Self {
        Self {
            type_name: "c4.large",
            region: Region::UsEast1,
            probability: 0.95,
            duration: 3300,
            launches: 100,
            interval_mean: 2748.0,
            interval_sd: 687.0,
            warmup: 30 * DAY,
            history_days: 38,
            seed: REPRO_SEED,
        }
    }

    /// Figure 3: c3.2xlarge in us-west-1.
    pub fn figure3() -> Self {
        Self {
            type_name: "c3.2xlarge",
            region: Region::UsWest1,
            ..Self::figure2()
        }
    }
}

/// How one launch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchResult {
    /// Ran the full hold.
    Success,
    /// Terminated by a price crossing before the hold elapsed.
    PriceTerminated,
    /// The bid did not exceed the market price at launch time (the paper's
    /// "failure of the instance to launch").
    LaunchRejected,
}

/// One record of the experiment series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchRecord {
    /// 1-based invocation number (the figures' x axis).
    pub invocation: usize,
    /// Launch timestamp.
    pub at: u64,
    /// Chosen AZ.
    pub az: Az,
    /// The DrAFTS maximum bid (the figures' y axis).
    pub bid: Price,
    /// Outcome.
    pub outcome: LaunchResult,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct LaunchOutcome {
    /// Per-launch records in invocation order.
    pub records: Vec<LaunchRecord>,
}

impl LaunchOutcome {
    /// Number of non-success launches.
    pub fn failures(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome != LaunchResult::Success)
            .count()
    }

    /// CSV of the bid series (the figures' data).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("invocation,bid_usd,az,outcome\n");
        for r in &self.records {
            out.push_str(&format!(
                "{},{:.4},{},{:?}\n",
                r.invocation,
                r.bid.dollars(),
                r.az.name(),
                r.outcome
            ));
        }
        out
    }
}

/// Runs a launch experiment.
pub fn run(cfg: &LaunchConfig) -> LaunchOutcome {
    let catalog = Catalog::standard();
    let ty = catalog
        .type_id(cfg.type_name)
        .expect("type exists in the catalog");
    let trace_cfg = TraceConfig::days(cfg.history_days, cfg.seed);
    // Per-AZ trace generation is seeded per combo and embarrassingly
    // parallel; the launch loop below is sequential by design (each launch
    // time depends on the previous outcome's interval draw).
    let azs = catalog.azs_offering(ty, cfg.region);
    let histories: Vec<(Az, PriceHistory)> = parallel::par_map(&azs, |&az| {
        (
            az,
            tracegen::generate(Combo::new(az, ty), catalog, &trace_cfg),
        )
    });
    assert!(!histories.is_empty(), "type offered nowhere in the region");

    let drafts_cfg = DraftsConfig {
        duration_stride: 4,
        ..DraftsConfig::default()
    };
    let factory = StreamFactory::new(cfg.seed);
    let mut rng = factory.stream("launch-intervals", ty.0 as u64);
    let interval = Normal::new(cfg.interval_mean, cfg.interval_sd).expect("interval params");

    let mut records = Vec::with_capacity(cfg.launches);
    let mut t = cfg.warmup;
    for invocation in 1..=cfg.launches {
        let refs: Vec<(Az, &PriceHistory)> = histories.iter().map(|(a, h)| (*a, h)).collect();
        // Fitness: the AZ with the lowest predicted price upper bound.
        let choice = azselect::select_az(&refs, t, drafts_cfg, cfg.probability)
            .expect("warm histories always quote");
        let history = &histories
            .iter()
            .find(|(a, _)| *a == choice.az)
            .expect("chosen AZ is a candidate")
            .1;
        let upto = history.series().index_at(t).expect("t inside history");
        let predictor = DraftsPredictor::new(history, drafts_cfg);
        let quote = predictor.bid_quote(upto, cfg.probability, cfg.duration);

        let outcome = match history.survival(t, quote.bid) {
            Survival::Rejected => LaunchResult::LaunchRejected,
            s if s.survives_for(t, cfg.duration) => LaunchResult::Success,
            _ => LaunchResult::PriceTerminated,
        };
        records.push(LaunchRecord {
            invocation,
            at: t,
            az: choice.az,
            bid: quote.bid,
            outcome,
        });

        let gap = interval.sample(&mut rng).max(60.0) as u64;
        t += cfg.duration + gap;
    }
    LaunchOutcome { records }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(cfg: LaunchConfig) -> LaunchConfig {
        LaunchConfig {
            launches: 25,
            warmup: 20 * DAY,
            history_days: 24,
            ..cfg
        }
    }

    #[test]
    fn figure2_style_run_mostly_succeeds() {
        let out = run(&small(LaunchConfig::figure2()));
        assert_eq!(out.records.len(), 25);
        // c4.large us-east-1 is pinned Calm: expect (near-)zero failures.
        assert!(
            out.failures() <= 1,
            "calm market should almost never fail, got {}",
            out.failures()
        );
        // Bids form a sensible series.
        for r in &out.records {
            assert!(r.bid > Price::ZERO);
            assert_eq!(r.az.region(), Region::UsEast1);
        }
        assert!(out.to_csv().lines().count() == 26);
    }

    #[test]
    fn figure3_style_run_has_bounded_failures() {
        let out = run(&small(LaunchConfig::figure3()));
        // Choppier market: failures allowed but must respect p = 0.95-ish
        // (25 launches -> a few failures at most).
        assert!(
            out.failures() <= 4,
            "failure count {} breaks the probabilistic target",
            out.failures()
        );
    }

    #[test]
    fn launches_are_spaced_by_the_interval_distribution() {
        let out = run(&small(LaunchConfig::figure2()));
        let gaps: Vec<u64> = out.records.windows(2).map(|w| w[1].at - w[0].at).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        // duration (3300) + N(2748, 687): mean ~ 6048.
        assert!(
            (4500.0..7500.0).contains(&mean),
            "mean inter-launch gap {mean}"
        );
    }

    #[test]
    fn deterministic() {
        let a = run(&small(LaunchConfig::figure2()));
        let b = run(&small(LaunchConfig::figure2()));
        assert_eq!(a.records, b.records);
    }
}
