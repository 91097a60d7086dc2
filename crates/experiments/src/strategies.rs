//! Strategy arena: `repro strategies [--quick]`.
//!
//! Head-to-head backtest of every [`strategy::lineup`] bidding strategy
//! over the strategy-driven provisioner replay, at three degradation
//! intensities of the advisory plane:
//!
//! * **0 bp** — clean feeds, no launch faults, no shard faults: the
//!   paper's operating point, where the DrAFTS guaranteed bid should be
//!   near-optimal.
//! * **5000 bp** — half-intensity feed corruption and launch faults,
//!   plus one of the three advisory shards killed mid-run. DrAFTS
//!   graphs still exist for two thirds of the combo universe.
//! * **10000 bp** — full-intensity feed and launch faults plus an
//!   advisory blackout: all three shards killed from the midpoint of
//!   the submission span. `DraftsBid` loses its plan entirely and
//!   routes every new job to On-demand, while the adaptive strategies
//!   keep riding the (unguaranteed) fallback spot market with their
//!   deadline backstop armed — the regime the arena exists to measure.
//!
//! Every cell replays the *same* seeded workload and market histories
//! (`STRATEGY_SEED`); intensities only change the fault plans, so a
//! column difference is attributable to the strategy alone. The
//! artifact `strategies.csv` is all-integer and byte-deterministic; CI
//! runs it twice, `cmp`s the bytes, and gates `ondemand_only` at
//! 10000 bp attainment plus the headline claim: under the blackout, at
//! least one adaptive strategy undercuts `DraftsBid` on cost without
//! giving up deadline attainment.

use crate::common::{Scale, REPRO_SEED};
use provisioner::sim::ReplayConfig;
use provisioner::workload::WorkloadConfig;
use provisioner::{ProvisionerPolicy, StrategyOutcome, StrategyReplay, StrategyReplayConfig};
use spotmarket::faults::{ShardFault, ShardFaultKind, ShardFaults};
use spotmarket::{FaultPlan, LaunchFaults, DAY};
use strategy::{lineup, DraftsBid};

/// Seed domain separating the strategy arena from the other experiments.
pub const STRATEGY_SEED: u64 = REPRO_SEED ^ 0x57A7;

/// Advisory-plane degradation intensities, in basis points of the
/// reference fault load.
pub const INTENSITIES_BP: [u64; 3] = [0, 5_000, 10_000];

/// Advisory shards the arena models (combos map by `key % 3`).
pub const ARENA_SHARDS: usize = 3;

/// One `(strategy, intensity)` cell of the arena.
pub struct ArenaCell {
    /// Strategy name (stable CSV row key).
    pub strategy: &'static str,
    /// Degradation intensity in basis points.
    pub intensity_bp: u64,
    /// The replay's measured outcome.
    pub outcome: StrategyOutcome,
}

impl ArenaCell {
    /// Deadline attainment over completed jobs, in basis points.
    pub fn attainment_bp(&self) -> u64 {
        attainment_bp(&self.outcome)
    }
}

/// The arena's output: 6 strategies x 3 intensities.
pub struct StrategiesOutput {
    /// Every cell, intensity-major in [`INTENSITIES_BP`] then
    /// [`lineup`] order.
    pub cells: Vec<ArenaCell>,
    /// Per-intensity fault-plan labels for the `_faults` CSV rows.
    pub fault_labels: Vec<(u64, String)>,
    /// Jobs per replay at this scale.
    pub jobs: u64,
    /// Submission span per replay at this scale.
    pub span: u64,
}

/// Deadline attainment of one outcome, in basis points.
pub fn attainment_bp(out: &StrategyOutcome) -> u64 {
    let done = out.metrics.jobs_completed;
    if done == 0 {
        return 0;
    }
    (done - out.metrics.deadline_misses.min(done)) * 10_000 / done
}

fn workload(scale: Scale) -> (u64, u64) {
    (scale.pick(50, 200), scale.pick(3_000, 9_000))
}

/// The replay configuration for one intensity: same seed and workload
/// everywhere, fault plans scaled by `intensity_bp`.
pub fn replay_config(scale: Scale, intensity_bp: u64) -> StrategyReplayConfig {
    let (jobs, span) = workload(scale);
    config_for(jobs, span, intensity_bp)
}

fn config_for(jobs: u64, span: u64, intensity_bp: u64) -> StrategyReplayConfig {
    let frac = intensity_bp as f64 / 10_000.0;
    let base = ReplayConfig {
        seed: STRATEGY_SEED,
        policy: ProvisionerPolicy::DraftsProfiles,
        target_p: 0.95,
        workload: WorkloadConfig {
            jobs: jobs as usize,
            span,
            ..WorkloadConfig::default()
        },
        launch_faults: if intensity_bp == 0 {
            LaunchFaults::none()
        } else {
            LaunchFaults::with_intensity(STRATEGY_SEED ^ 1, frac)
        },
        ..ReplayConfig::default()
    };
    // The blackout onset: halfway through the submission span, so every
    // strategy banks a clean first act before the advisory plane dies.
    let onset = base.replay_start + span / 2;
    let shard_faults = match intensity_bp {
        0 => ShardFaults::none(ARENA_SHARDS),
        bp if bp < 10_000 => ShardFaults::with(
            ARENA_SHARDS,
            vec![ShardFault {
                shard: 0,
                kind: ShardFaultKind::Kill,
                from: onset,
                until: u64::MAX,
            }],
        ),
        _ => ShardFaults::with(
            ARENA_SHARDS,
            (0..ARENA_SHARDS)
                .map(|shard| ShardFault {
                    shard,
                    kind: ShardFaultKind::Kill,
                    from: onset,
                    until: u64::MAX,
                })
                .collect(),
        ),
    };
    StrategyReplayConfig {
        base,
        feed_faults: (intensity_bp > 0).then(|| FaultPlan::with_intensity(STRATEGY_SEED ^ 2, frac)),
        shard_faults,
    }
}

/// Runs the full arena at `scale`.
pub fn run(scale: Scale) -> StrategiesOutput {
    let (jobs, span) = workload(scale);
    let mut cells = Vec::new();
    let mut fault_labels = Vec::new();
    for &bp in &INTENSITIES_BP {
        let cfg = replay_config(scale, bp);
        fault_labels.push((
            bp,
            format!(
                "shards={};feed={}bp;launch={}bp",
                cfg.shard_faults.label(),
                bp,
                bp
            ),
        ));
        for mut s in lineup() {
            let name = s.name();
            let outcome = StrategyReplay::new(cfg.clone()).run(s.as_mut());
            cells.push(ArenaCell {
                strategy: name,
                intensity_bp: bp,
                outcome,
            });
        }
    }
    StrategiesOutput {
        cells,
        fault_labels,
        jobs,
        span,
    }
}

/// The deterministic anchor for `BENCH_strategy.json`: one small
/// `DraftsBid` replay at half intensity — a pure function of
/// [`STRATEGY_SEED`], cheap enough to run inside the bench.
pub fn anchor() -> StrategyOutcome {
    StrategyReplay::new(config_for(30, 2_000, 5_000)).run(&mut DraftsBid)
}

/// Renders `strategies.csv`: all-integer cells, `_faults` rows naming
/// each intensity's fault plans, and a trailing `_config` row carrying
/// the seed — byte-compared across two runs in CI.
pub fn deterministic_csv(out: &StrategiesOutput) -> String {
    let mut csv = String::from(
        "strategy,intensity_bp,cost_ticks,od_cost_ticks,max_bid_cost_ticks,\
         attainment_bp,completed,deadline_misses,terminations,switches,\
         panics,decisions,instances,od_instances,requeues,makespan\n",
    );
    for c in &out.cells {
        let m = &c.outcome.metrics;
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            c.strategy,
            c.intensity_bp,
            m.cost.ticks(),
            c.outcome.od_cost.ticks(),
            m.max_bid_cost.ticks(),
            c.attainment_bp(),
            m.jobs_completed,
            m.deadline_misses,
            m.terminations,
            m.strategy_switches,
            c.outcome.panic_activations,
            c.outcome.decisions,
            m.instances,
            c.outcome.od_instances,
            m.requeues,
            m.makespan,
        ));
    }
    for (bp, label) in &out.fault_labels {
        csv.push_str(&format!("_faults,{bp},{label}\n"));
    }
    csv.push_str(&format!(
        "_config,jobs={};span={};shards={};onset={};seed={}\n",
        out.jobs,
        out.span,
        ARENA_SHARDS,
        24 * DAY + out.span / 2,
        STRATEGY_SEED,
    ));
    csv
}

/// Human summary: the headline blackout comparison.
pub fn summarize(out: &StrategiesOutput) -> String {
    let blackout = INTENSITIES_BP[INTENSITIES_BP.len() - 1];
    let cell = |name: &str| {
        out.cells
            .iter()
            .find(|c| c.strategy == name && c.intensity_bp == blackout)
    };
    let drafts = cell("drafts_bid");
    let best = out
        .cells
        .iter()
        .filter(|c| {
            c.intensity_bp == blackout
                && matches!(c.strategy, "ema_availability" | "beta_bayes" | "portfolio")
        })
        .min_by_key(|c| c.outcome.metrics.cost.ticks());
    match (drafts, best) {
        (Some(d), Some(b)) => format!(
            "strategies: under the {blackout} bp blackout, {} costs {} \
             (attainment {} bp) vs drafts_bid {} (attainment {} bp)\n",
            b.strategy,
            b.outcome.metrics.cost,
            b.attainment_bp(),
            d.outcome.metrics.cost,
            d.attainment_bp(),
        ),
        _ => "strategies: arena incomplete\n".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_arena_covers_the_grid_and_the_headline_claim_holds() {
        let out = run(Scale::Quick);
        assert_eq!(out.cells.len(), 6 * INTENSITIES_BP.len());

        // Every strategy completes the whole workload at every intensity.
        for c in &out.cells {
            assert_eq!(
                c.outcome.metrics.jobs_completed, out.jobs,
                "{} at {} bp",
                c.strategy, c.intensity_bp
            );
        }

        // On-demand is the deadline gold standard: perfect attainment,
        // zero revocations, at every intensity.
        for c in out.cells.iter().filter(|c| c.strategy == "ondemand_only") {
            assert_eq!(c.attainment_bp(), 10_000, "at {} bp", c.intensity_bp);
            assert_eq!(c.outcome.metrics.terminations, 0);
        }

        // The headline: under the blackout, an adaptive strategy beats
        // DraftsBid on cost at no worse deadline attainment.
        let blackout = *INTENSITIES_BP.last().unwrap();
        let drafts = out
            .cells
            .iter()
            .find(|c| c.strategy == "drafts_bid" && c.intensity_bp == blackout)
            .unwrap();
        let winner = out.cells.iter().find(|c| {
            c.intensity_bp == blackout
                && matches!(c.strategy, "ema_availability" | "beta_bayes" | "portfolio")
                && c.outcome.metrics.cost < drafts.outcome.metrics.cost
                && c.attainment_bp() >= drafts.attainment_bp()
        });
        assert!(
            winner.is_some(),
            "no adaptive strategy beat drafts_bid (cost {}, attainment {} bp) \
             under the blackout",
            drafts.outcome.metrics.cost,
            drafts.attainment_bp(),
        );

        let csv = deterministic_csv(&out);
        assert!(csv.starts_with("strategy,intensity_bp,cost_ticks"));
        for needle in [
            "\ndrafts_bid,0,",
            "\nondemand_only,10000,",
            "\n_faults,0,shards=none;feed=0bp;launch=0bp\n",
            "\n_faults,10000,",
            "\n_config,jobs=50;span=3000;shards=3;",
        ] {
            assert!(csv.contains(needle), "missing {needle:?}");
        }
        assert!(summarize(&out).contains("blackout"));
    }

    #[test]
    fn anchor_is_deterministic_and_small() {
        let a = anchor();
        let b = anchor();
        assert_eq!(a, b);
        assert_eq!(a.metrics.jobs_completed, 30);
    }
}
