//! Success-fraction bucketing (Table 1) and fraction CDFs (Figure 1).

use crate::engine::{BacktestResult, Policy};

/// The paper's Table 1 buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Success fraction below 0.99.
    BelowTarget,
    /// Success fraction in [0.99, 1).
    AtTarget,
    /// Every request succeeded.
    Perfect,
}

/// Buckets a success fraction, Table 1 style.
pub fn bucket(fraction: f64) -> Bucket {
    if fraction >= 1.0 {
        Bucket::Perfect
    } else if fraction >= 0.99 {
        Bucket::AtTarget
    } else {
        Bucket::BelowTarget
    }
}

/// One Table 1 row: the share of combos per bucket for one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectnessRow {
    /// The policy.
    pub policy: Policy,
    /// Share of combos with fraction < 0.99.
    pub below: f64,
    /// Share with fraction in [0.99, 1).
    pub at: f64,
    /// Share with fraction = 1.
    pub perfect: f64,
}

/// Computes Table 1 rows from a backtest result.
pub fn table_rows(result: &BacktestResult) -> Vec<CorrectnessRow> {
    let n = result.combos.len().max(1) as f64;
    Policy::ALL
        .iter()
        .map(|&policy| {
            let mut counts = [0usize; 3];
            for combo in &result.combos {
                let idx = match bucket(combo.outcome(policy).fraction()) {
                    Bucket::BelowTarget => 0,
                    Bucket::AtTarget => 1,
                    Bucket::Perfect => 2,
                };
                counts[idx] += 1;
            }
            CorrectnessRow {
                policy,
                below: counts[0] as f64 / n,
                at: counts[1] as f64 / n,
                perfect: counts[2] as f64 / n,
            }
        })
        .collect()
}

/// The empirical CDF of per-combo success fractions *below* `threshold`
/// for one policy — Figure 1 plots this for On-demand bids with
/// `threshold = 0.99`. Returns `(fraction, cumulative probability)` pairs.
pub fn fraction_cdf(result: &BacktestResult, policy: Policy, threshold: f64) -> Vec<(f64, f64)> {
    let mut fracs: Vec<f64> = result
        .combos
        .iter()
        .map(|c| c.outcome(policy).fraction())
        .filter(|&f| f < threshold)
        .collect();
    fracs.sort_by(|a, b| a.partial_cmp(b).expect("fractions are finite"));
    let n = fracs.len();
    fracs
        .into_iter()
        .enumerate()
        .map(|(i, f)| (f, (i + 1) as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ComboResult, PolicyOutcome};
    use drafts_core::optimizer::SavingsAccumulator;
    use spotmarket::archetype::Archetype;
    use spotmarket::{Az, Catalog, Combo};

    fn combo_result(fractions: [f64; 4]) -> ComboResult {
        let combo = Combo::new(
            Az::parse("us-east-1b").unwrap(),
            Catalog::standard().type_id("c4.large").unwrap(),
        );
        let outcomes = Policy::ALL
            .iter()
            .zip(fractions)
            .map(|(&policy, f)| PolicyOutcome {
                policy,
                successes: (f * 100.0).round() as usize,
                attempts: 100,
            })
            .collect();
        ComboResult {
            combo,
            archetype: Archetype::Calm,
            outcomes,
            savings: SavingsAccumulator::new(),
            tightness_sum: 0.0,
            tightness_count: 0,
            guaranteed: 0,
            guaranteed_successes: 0,
            max_served_staleness: 0,
        }
    }

    fn result(rows: Vec<[f64; 4]>) -> BacktestResult {
        BacktestResult {
            probability: 0.99,
            combos: rows.into_iter().map(combo_result).collect(),
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(1.0), Bucket::Perfect);
        assert_eq!(bucket(0.999), Bucket::AtTarget);
        assert_eq!(bucket(0.99), Bucket::AtTarget);
        assert_eq!(bucket(0.9899), Bucket::BelowTarget);
        assert_eq!(bucket(0.0), Bucket::BelowTarget);
    }

    #[test]
    fn table_rows_partition_combos() {
        let r = result(vec![
            [1.0, 0.5, 0.99, 1.0],
            [1.0, 1.0, 0.2, 0.99],
            [0.99, 0.0, 1.0, 0.98],
            [1.0, 1.0, 1.0, 1.0],
        ]);
        let rows = table_rows(&r);
        for row in &rows {
            let total = row.below + row.at + row.perfect;
            assert!((total - 1.0).abs() < 1e-12, "{:?}", row.policy);
        }
        // DrAFTS row: 3 perfect, 1 at, 0 below.
        let drafts = &rows[0];
        assert_eq!(drafts.policy, Policy::Drafts);
        assert!((drafts.perfect - 0.75).abs() < 1e-12);
        assert!((drafts.at - 0.25).abs() < 1e-12);
        assert_eq!(drafts.below, 0.0);
        // On-demand row: 2 below (0.5, 0.0), 0 at, 2 perfect.
        let od = &rows[1];
        assert!((od.below - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_cdf_is_sorted_and_normalized() {
        let r = result(vec![
            [1.0, 0.5, 1.0, 1.0],
            [1.0, 0.2, 1.0, 1.0],
            [1.0, 0.8, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
        ]);
        let cdf = fraction_cdf(&r, Policy::OnDemand, 0.99);
        assert_eq!(cdf.len(), 3, "the perfect combo is excluded");
        assert_eq!(cdf[0].0, 0.2);
        assert_eq!(cdf[2].0, 0.8);
        assert!((cdf[2].1 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn fraction_cdf_empty_when_all_meet_threshold() {
        let r = result(vec![[1.0, 1.0, 1.0, 1.0]]);
        assert!(fraction_cdf(&r, Policy::OnDemand, 0.99).is_empty());
    }
}
