//! Cost-optimization aggregation (Tables 4 and 5) and the tightness
//! ablation (the companion tech report's 4.8–7.5x bid/price ratios).

use crate::engine::BacktestResult;
use drafts_core::optimizer::SavingsAccumulator;
use spotmarket::Az;

/// One row of Table 4/5: per-AZ On-demand vs strategy cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzRow {
    /// The Availability Zone.
    pub az: Az,
    /// Accumulated costs over every backtested request in the AZ.
    pub savings: SavingsAccumulator,
}

impl AzRow {
    /// Percentage saved versus all-On-demand.
    pub fn savings_pct(&self) -> f64 {
        self.savings.savings_pct()
    }
}

/// Reduces per-combo savings into the nine per-AZ rows, in AZ order.
pub fn az_rows(result: &BacktestResult) -> Vec<AzRow> {
    Az::all()
        .map(|az| {
            let mut savings = SavingsAccumulator::new();
            for combo in result.combos.iter().filter(|c| c.combo.az == az) {
                savings.merge(&combo.savings);
            }
            AzRow { az, savings }
        })
        .filter(|row| !row.savings.od_cost.is_zero())
        .collect()
}

/// Tightness statistics across combos: min / mean / max of the per-combo
/// mean DrAFTS-bid-to-market-price ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tightness {
    /// Smallest per-combo mean ratio.
    pub min: f64,
    /// Mean of per-combo mean ratios.
    pub mean: f64,
    /// Largest per-combo mean ratio.
    pub max: f64,
}

/// Computes tightness stats; `None` when no ratios were recorded.
pub fn tightness(result: &BacktestResult) -> Option<Tightness> {
    let ratios: Vec<f64> = result
        .combos
        .iter()
        .filter(|c| c.tightness_count > 0)
        .map(|c| c.tightness())
        .collect();
    if ratios.is_empty() {
        return None;
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    Some(Tightness {
        min: ratios.iter().cloned().fold(f64::INFINITY, f64::min),
        mean,
        max: ratios.iter().cloned().fold(0.0, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, BacktestConfig};

    fn small_result() -> BacktestResult {
        run(&BacktestConfig {
            seed: 3,
            days: 40,
            warmup_days: 14,
            requests_per_combo: 30,
            combo_limit: Some(8),
            probability: 0.95,
            ..BacktestConfig::default()
        })
    }

    #[test]
    fn az_rows_cover_only_observed_azs() {
        let result = small_result();
        let rows = az_rows(&result);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(!row.savings.od_cost.is_zero());
            // The chooser guarantees the strategy never costs more.
            assert!(row.savings.strategy_cost <= row.savings.od_cost);
            assert!(row.savings_pct() >= 0.0);
        }
        // Every request in the result is accounted to exactly one AZ.
        let total: u64 = rows
            .iter()
            .map(|r| r.savings.spot_requests + r.savings.od_requests)
            .sum();
        assert_eq!(total, 8 * 30);
    }

    #[test]
    fn tightness_is_at_least_one() {
        let result = small_result();
        let t = tightness(&result).unwrap();
        assert!(t.min >= 1.0, "bids sit above the market price: {t:?}");
        assert!(t.min <= t.mean && t.mean <= t.max);
    }

    #[test]
    fn tightness_none_on_empty() {
        let empty = BacktestResult {
            probability: 0.99,
            combos: vec![],
        };
        assert!(tightness(&empty).is_none());
        assert!(az_rows(&empty).is_empty());
    }
}
