//! Fault-intensity sweep: how DrAFTS degrades when its price feed does.
//!
//! Not a paper artifact — the SC'17 evaluation assumes a perfect feed —
//! but the robustness experiment the hardened service needs: the Table 1
//! request population is re-evaluated by Table 1's own backtest loop
//! through seeded [`FaultPlan`]s of increasing intensity, and for each
//! intensity we report how many requests could still be served as
//! guaranteed, whether those guarantees held on the true history
//! (attainment), how many demoted to On-demand fallbacks, and what the
//! degradation cost. The acceptance property: DrAFTS stays *conservative*
//! — guarantees weaken to "no guarantee" as faults intensify; they are
//! never silently wrong.

use crate::common::{Scale, REPRO_SEED};
use crate::table1;
use backtest::engine::{self, BacktestConfig, BacktestResult};
use backtest::report::{pct, Table};
use spotmarket::FaultPlan;

/// Seed domain separating the fault sweep from the other experiments.
const FAULT_SEED: u64 = REPRO_SEED ^ 0xFA017;

/// The swept fault intensities (0 = the clean path).
pub const INTENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// One sweep row.
pub struct FaultRow {
    /// Fault intensity (scales every rate of the reference plan).
    pub intensity: f64,
    /// The backtest at this intensity.
    pub result: BacktestResult,
}

/// Full sweep output.
pub struct FaultsOutput {
    /// One row per intensity, in [`INTENSITIES`] order.
    pub rows: Vec<FaultRow>,
}

impl FaultsOutput {
    /// Whether every row degraded conservatively: in-budget guarantees
    /// only, and attainment of served guarantees no worse than 5 points
    /// below the target at any intensity.
    pub fn conservative(&self) -> bool {
        self.rows.iter().all(|r| {
            r.result.conservative() && r.result.attainment() >= r.result.probability - 0.05
        })
    }
}

/// The backtest shape under the fault sweep (a trimmed Table 1 config:
/// the sweep runs once per intensity, so each run is kept smaller).
pub fn backtest_config(scale: Scale) -> BacktestConfig {
    BacktestConfig {
        days: scale.pick(40, 90),
        warmup_days: scale.pick(18, 30),
        requests_per_combo: scale.pick(40, 150),
        combo_limit: scale.pick(Some(12), Some(96)),
        ..table1::backtest_config(scale, 0.95)
    }
}

/// Runs the sweep.
pub fn run(scale: Scale) -> FaultsOutput {
    let bt = backtest_config(scale);
    let rows = INTENSITIES
        .iter()
        .map(|&intensity| FaultRow {
            intensity,
            result: engine::run(&BacktestConfig {
                faults: FaultPlan::with_intensity(FAULT_SEED, intensity),
                ..bt
            }),
        })
        .collect();
    FaultsOutput { rows }
}

/// Renders the degradation table.
pub fn render(out: &FaultsOutput) -> Table {
    let mut table = Table::new(
        "Fault sweep: guarantee degradation under a faulty feed (p = 0.95)",
        &[
            "Intensity",
            "Requests",
            "Guaranteed",
            "Attainment",
            "Fallbacks",
            "Savings",
            "Cost ratio",
        ],
    );
    for row in &out.rows {
        let r = &row.result;
        table.row(vec![
            format!("{:.2}", row.intensity),
            r.attempts().to_string(),
            pct(r.guaranteed_share()),
            pct(r.attainment()),
            pct(r.fallback_rate()),
            pct(r.savings().savings_pct() / 100.0),
            format!("{:.4}", r.cost_ratio()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_degrades_conservatively() {
        let out = run(Scale::Quick);
        assert_eq!(out.rows.len(), INTENSITIES.len());
        assert!(
            out.conservative(),
            "guarantees must never be silently wrong"
        );
        let clean = &out.rows[0].result;
        let hostile = &out.rows.last().unwrap().result;
        assert!(
            hostile.fallback_rate() > clean.fallback_rate(),
            "full intensity must demote requests: {} vs {}",
            hostile.fallback_rate(),
            clean.fallback_rate()
        );
        assert!(
            hostile.savings().savings_pct() <= clean.savings().savings_pct(),
            "degradation shows up as lost savings"
        );
        let t = render(&out);
        assert_eq!(t.len(), INTENSITIES.len());
        assert!(t.render().contains("Attainment"));
    }
}
