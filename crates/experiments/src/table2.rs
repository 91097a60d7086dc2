//! Table 2: one workload replay — the platform's original bidding versus
//! DrAFTS selection and pricing (paper: April 28–29, 2016; 1000 jobs, 366
//! instances, zero terminations for both, DrAFTS cheaper on both cost and
//! risk).

use crate::common::{Scale, REPRO_SEED};
use backtest::report::Table;
use provisioner::sim::{Replay, ReplayConfig};
use provisioner::workload::WorkloadConfig;
use provisioner::{ProvisionerPolicy, ReplayMetrics};

/// The replay configuration for a scale and policy.
pub fn replay_config(scale: Scale, policy: ProvisionerPolicy, workload_index: u64) -> ReplayConfig {
    ReplayConfig {
        seed: REPRO_SEED,
        workload_index,
        policy,
        target_p: 0.99,
        workload: WorkloadConfig {
            jobs: scale.pick(200, 1000),
            span: scale.pick(2400, 12_000),
            ..WorkloadConfig::default()
        },
        ..ReplayConfig::default()
    }
}

/// Table 2 output: metrics per policy.
pub struct Table2Output {
    /// `(policy, metrics)` rows in paper order.
    pub rows: Vec<(ProvisionerPolicy, ReplayMetrics)>,
}

/// Runs the Original and DrAFTS replays.
pub fn run(scale: Scale) -> Table2Output {
    let rows = [ProvisionerPolicy::Original, ProvisionerPolicy::Drafts1Hr]
        .into_iter()
        .map(|policy| (policy, Replay::new(replay_config(scale, policy, 0)).run()))
        .collect();
    Table2Output { rows }
}

/// Renders the paper-style table.
pub fn render(out: &Table2Output) -> Table {
    let mut t = Table::new(
        "Table 2: Original Spot tier usage vs DrAFTS selection (one replay)",
        &[
            "Method",
            "Instances",
            "Cost",
            "Maximum Bid Cost",
            "Terminations",
        ],
    );
    for (policy, m) in &out.rows {
        let label = match policy {
            ProvisionerPolicy::Original => "Original (80% On-demand)".to_string(),
            _ => "DrAFTS Bid".to_string(),
        };
        t.row(vec![
            label,
            m.instances.to_string(),
            format!("${:.2}", m.cost.dollars()),
            format!("${:.2}", m.max_bid_cost.dollars()),
            m.terminations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table2_matches_the_paper_shape() {
        let out = run(Scale::Quick);
        assert_eq!(out.rows.len(), 2);
        let (_, orig) = out.rows[0];
        let (_, drafts) = out.rows[1];
        // Everything completes.
        assert_eq!(orig.jobs_completed, 200);
        assert_eq!(drafts.jobs_completed, 200);
        // The headline: DrAFTS reduces both cost and (especially) risk.
        assert!(
            drafts.max_bid_cost < orig.max_bid_cost,
            "risk: drafts {} vs original {}",
            drafts.max_bid_cost,
            orig.max_bid_cost
        );
        assert!(
            drafts.cost.dollars() <= orig.cost.dollars() * 1.05,
            "cost: drafts {} vs original {}",
            drafts.cost,
            orig.cost
        );
        let rendered = render(&out).render();
        assert!(rendered.contains("Original (80% On-demand)"));
        assert!(rendered.contains("DrAFTS Bid"));
    }
}
