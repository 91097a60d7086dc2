//! Pins the backtest's per-request loop to literal outcomes: every field
//! of the clean engine's per-combo results, and DrAFTS's serving
//! accounting under two fault plans of increasing intensity. Any change
//! to the loop that moves a single count, tick of cost or bit of
//! tightness fails here, so a refactor of the loop is checked against the
//! values it had before.

use backtest::engine::{self, BacktestConfig, Policy, PolicyOutcome};
use backtest::sweep::SweepConfig;
use drafts_core::optimizer::SavingsAccumulator;
use spotmarket::archetype::Archetype;
use spotmarket::faults::combo_label;
use spotmarket::{FaultPlan, Price};
use tsforecast::changepoint::ChangePointConfig;

/// Four combos of 30 requests each on 40-day histories (14 warm-up
/// days), at p = 0.95 with change points on.
fn cfg() -> BacktestConfig {
    BacktestConfig {
        seed: 42,
        days: 40,
        warmup_days: 14,
        requests_per_combo: 30,
        combo_limit: Some(4),
        probability: 0.95,
        sweep: SweepConfig {
            changepoint: Some(ChangePointConfig::default()),
            ..SweepConfig::default()
        },
        ..BacktestConfig::default()
    }
}

/// §4.4 accounting from literal tick costs and request counts.
fn savings(
    od_cost: u64,
    strategy_cost: u64,
    spot_requests: u64,
    od_requests: u64,
) -> SavingsAccumulator {
    SavingsAccumulator {
        od_cost: Price::from_ticks(od_cost),
        strategy_cost: Price::from_ticks(strategy_cost),
        spot_requests,
        od_requests,
    }
}

/// Per-policy `(successes, attempts)` in [`Policy::ALL`] order.
fn outcomes(counts: [(usize, usize); 4]) -> Vec<PolicyOutcome> {
    Policy::ALL
        .into_iter()
        .zip(counts)
        .map(|(policy, (successes, attempts))| PolicyOutcome {
            policy,
            successes,
            attempts,
        })
        .collect()
}

/// DrAFTS's serving accounting for one combo: attempts, successes,
/// requests served as guaranteed, guaranteed successes, fallbacks, and
/// the largest delivered-data age among guaranteed requests.
type Served = (usize, usize, usize, usize, usize, u64);

/// Each combo's label, serving accounting and §4.4 accounting with every
/// feed perturbed by the plan of seed 7 at `intensity`.
fn faulty(intensity: f64) -> Vec<(String, Served, SavingsAccumulator)> {
    let faults = FaultPlan::with_intensity(7, intensity);
    engine::run(&BacktestConfig { faults, ..cfg() })
        .combos
        .into_iter()
        .map(|c| {
            let drafts = c.outcome(Policy::Drafts);
            let served = (
                drafts.attempts,
                drafts.successes,
                c.guaranteed,
                c.guaranteed_successes,
                drafts.attempts - c.guaranteed,
                c.max_served_staleness,
            );
            (combo_label(c.combo), served, c.savings)
        })
        .collect()
}

#[test]
fn clean_backtest_matches_its_pinned_results() {
    let want = [
        (
            "us-east-1b/0",
            Archetype::Volatile,
            [(29, 30), (29, 30), (24, 30), (29, 30)],
            savings(39400, 39400, 0, 30),
            0x4086_0a8b_fe7e_8eda,
        ),
        (
            "us-east-1b/1",
            Archetype::Calm,
            [(30, 30), (30, 30), (27, 30), (27, 30)],
            savings(80960, 39855, 23, 7),
            0x4053_c190_3e5e_7ecb,
        ),
        (
            "us-east-1b/2",
            Archetype::Diurnal,
            [(30, 30), (30, 30), (23, 30), (24, 30)],
            savings(140778, 126206, 8, 22),
            0x4059_e04b_7bc2_7c80,
        ),
        (
            "us-east-1b/3",
            Archetype::Diurnal,
            [(30, 30), (30, 30), (23, 30), (29, 30)],
            savings(332500, 300078, 7, 23),
            0x4059_ed65_b52c_0037,
        ),
    ];
    let got = engine::run(&cfg()).combos;
    assert_eq!(got.len(), want.len());
    for (c, (label, archetype, counts, savings, tightness_bits)) in got.iter().zip(want) {
        assert_eq!(combo_label(c.combo), label);
        assert_eq!(c.archetype, archetype, "{label}");
        assert_eq!(c.outcomes, outcomes(counts), "{label}");
        assert_eq!(c.savings, savings, "{label}");
        assert_eq!(c.tightness_sum.to_bits(), tightness_bits, "{label}");
        assert_eq!(c.tightness_count, 30, "{label}");
    }
}

#[test]
fn faulty_backtests_match_their_pinned_serving_accounting() {
    let half = [
        (
            "us-east-1b/0",
            (30, 30, 24, 24, 6, 399),
            savings(39400, 39400, 0, 30),
        ),
        (
            "us-east-1b/1",
            (30, 30, 23, 23, 7, 497),
            savings(80960, 41317, 23, 7),
        ),
        (
            "us-east-1b/2",
            (30, 30, 11, 11, 19, 355),
            savings(140778, 121675, 11, 19),
        ),
        (
            "us-east-1b/3",
            (30, 30, 6, 6, 24, 363),
            savings(332500, 306271, 6, 24),
        ),
    ];
    let full = [
        (
            "us-east-1b/0",
            (30, 30, 19, 19, 11, 2138),
            savings(39400, 39400, 0, 30),
        ),
        (
            "us-east-1b/1",
            (30, 30, 24, 24, 6, 2835),
            savings(80960, 40789, 24, 6),
        ),
        (
            "us-east-1b/2",
            (30, 30, 10, 10, 20, 1688),
            savings(140778, 121502, 10, 20),
        ),
        (
            "us-east-1b/3",
            (30, 30, 5, 5, 25, 592),
            savings(332500, 312464, 5, 25),
        ),
    ];
    for (intensity, want) in [(0.5, half), (1.0, full)] {
        let got = faulty(intensity);
        assert_eq!(got.len(), want.len());
        for ((label, served, savings), (want_label, want_served, want_savings)) in
            got.into_iter().zip(want)
        {
            assert_eq!(label, want_label);
            assert_eq!(served, want_served, "{label} at intensity {intensity}");
            assert_eq!(savings, want_savings, "{label} at intensity {intensity}");
        }
    }
}
