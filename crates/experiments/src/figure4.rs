//! Figure 4: the bid–duration relationship the DrAFTS service publishes
//! (paper example: c3.4xlarge in us-east-1 at 10:16 AM on April 18, 2016).

use crate::common::REPRO_SEED;
use drafts_core::graph::BidDurationGraph;
use drafts_core::predictor::{DraftsConfig, DraftsPredictor};
use spotmarket::tracegen::{self, TraceConfig};
use spotmarket::{Az, Catalog, Combo, DAY};

/// Figure 4 output: one graph per probability level.
pub struct Figure4Output {
    /// The combo plotted.
    pub combo: Combo,
    /// Graphs at 0.95 and 0.99.
    pub graphs: Vec<BidDurationGraph>,
}

/// Computes the figure for the paper's combo.
pub fn run() -> Figure4Output {
    let catalog = Catalog::standard();
    let combo = Combo::new(
        // The paper's service displayed its own AZ mapping ("us-east-1a");
        // under this account's letters the first us-east-1 zone is 'b'.
        Az::parse("us-east-1b").expect("first us-east-1 zone"),
        catalog.type_id("c3.4xlarge").expect("catalog type"),
    );
    let history = tracegen::generate(combo, catalog, &TraceConfig::days(60, REPRO_SEED));
    let cfg = DraftsConfig {
        duration_stride: 2,
        ..DraftsConfig::default()
    };
    let predictor = DraftsPredictor::new(&history, cfg);
    // Predict mid-history, where the market still crosses the lower grid
    // levels regularly — the knee of the paper's April 2016 graph comes
    // from exactly such crossings.
    let upto = history.series().index_at(25 * DAY).expect("inside history");
    // The two probability levels are independent full-grid computations;
    // map them in parallel (input order is preserved, so the output is
    // identical to the old serial filter_map).
    let graphs = parallel::par_map(&[0.95, 0.99], |&p| {
        BidDurationGraph::compute(&predictor, upto, p)
    })
    .into_iter()
    .flatten()
    .collect();
    Figure4Output { combo, graphs }
}

/// CSV with one row per (probability, bid, duration) point.
pub fn to_csv(out: &Figure4Output) -> String {
    let mut s = String::from("probability,bid_usd,durability_secs\n");
    for g in &out.graphs {
        for p in g.points() {
            s.push_str(&format!(
                "{},{:.4},{}\n",
                g.probability,
                p.bid.dollars(),
                p.durability_secs
            ));
        }
    }
    s
}

/// Terminal rendering: duration (hours) against bid for each level.
pub fn summarize(out: &Figure4Output) -> String {
    let mut s = format!(
        "Figure 4: bid-duration relationship for {} in {}\n",
        Catalog::standard().spec(out.combo.ty).name,
        out.combo.az.name()
    );
    for g in &out.graphs {
        s.push_str(&format!(
            "  p = {}: {} points, min bid {}, {} -> {} guaranteed hours\n",
            g.probability,
            g.points().len(),
            g.min_bid(),
            g.points()
                .first()
                .map(|p| p.durability_secs / 3600)
                .unwrap_or(0),
            g.points()
                .last()
                .map(|p| p.durability_secs / 3600)
                .unwrap_or(0),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_and_embedded_paths_agree() {
        // Regression guard for a stale `results_run.log`: an earlier build
        // printed the p = 0.95 graph with the min-bid fallback ($1.1751,
        // 24 -> 24 h — exactly the p = 0.99 value) when figure4 ran after
        // the other experiments in `repro all`, but the real QBETS bound
        // ($0.3536, 0 -> 24 h) when invoked standalone. figure4::run is a
        // pure function of REPRO_SEED, so both orders must agree exactly.
        let cold = to_csv(&run());
        let _ = crate::reflexivity::run();
        let _ = crate::launch::run(&crate::launch::LaunchConfig {
            launches: 10,
            warmup: 20 * DAY,
            history_days: 22,
            ..crate::launch::LaunchConfig::figure2()
        });
        let warm = to_csv(&run());
        assert_eq!(
            cold, warm,
            "figure4 output depends on which experiments ran before it"
        );
    }

    #[test]
    fn figure4_graphs_have_the_paper_shape() {
        let out = run();
        assert_eq!(out.graphs.len(), 2, "both probability levels publish");
        for g in &out.graphs {
            // Monotone increasing bid-duration relationship with a knee.
            assert!(g.points().len() > 30);
            assert!(g
                .points()
                .windows(2)
                .all(|w| w[0].durability_secs <= w[1].durability_secs));
            let first = g.points().first().unwrap().durability_secs;
            let last = g.points().last().unwrap().durability_secs;
            assert!(last >= first, "graph must be monotone: {first} -> {last}");
            // The top of the grid reaches multi-hour durability (the paper
            // shows ~14 h at p = 0.95 on three-month histories).
            assert!(last >= 2 * 3600, "top-of-grid durability {last}s");
        }
        // Higher probability shifts the curve right (higher min bid).
        assert!(out.graphs[1].min_bid() >= out.graphs[0].min_bid());
        let csv = to_csv(&out);
        assert!(csv.lines().count() > 60);
        assert!(summarize(&out).contains("c3.4xlarge"));
    }
}
