//! Bid–duration graphs (paper Figure 4 and the DrAFTS service payload).
//!
//! A graph is the list of (bid, guaranteed duration) pairs the service
//! publishes for one combo at one probability level: the minimum bid, then
//! +5% steps up to 4x the minimum, each paired with its QBETS duration
//! lower bound. "Using this graph ... a client of this service can
//! determine what maximum bid to use to ensure a specific instance
//! duration" (§4.3).

use crate::predictor::{BidPrediction, DraftsPredictor};
use spotmarket::Price;

/// A bid–duration graph for one combo at one probability level.
#[derive(Debug, Clone, PartialEq)]
pub struct BidDurationGraph {
    /// Target probability of the durability guarantee.
    pub probability: f64,
    /// Prediction timestamp (seconds).
    pub computed_at: u64,
    /// The graph's points: each bid and the duration it guarantees at
    /// the graph's probability level.
    points: Vec<BidPrediction>,
}

impl BidDurationGraph {
    /// Computes the graph at update index `upto`.
    ///
    /// The grid anchors on the step-1 minimum bid, falling back to one tick
    /// above the observed maximum when the current segment cannot support a
    /// bound (fresh post-change-point segments). Returns `None` only when
    /// no grid point's duration series supports a bound either. Points
    /// whose duration series cannot support a bound are skipped.
    pub fn compute(predictor: &DraftsPredictor<'_>, upto: usize, probability: f64) -> Option<Self> {
        Self::compute_levels(predictor, upto, &[probability])
            .pop()
            .flatten()
    }

    /// The graph of every level in `probabilities` at `upto`, in order,
    /// each as [`Self::compute`] returns it. The levels share one price
    /// step (step 1).
    pub(crate) fn compute_levels(
        predictor: &DraftsPredictor<'_>,
        upto: usize,
        probabilities: &[f64],
    ) -> Vec<Option<Self>> {
        let min_bids = predictor.min_bids_or_max(upto, probabilities);
        probabilities
            .iter()
            .zip(min_bids)
            .map(|(&probability, min)| {
                let mut step = predictor.duration_step(upto, probability);
                let mut points = Vec::new();
                for bid in predictor.bid_grid(min) {
                    if let Some(durability_secs) = step.durability(bid) {
                        points.push(BidPrediction {
                            bid,
                            durability_secs,
                        });
                    }
                }
                // Enforce monotone durations (rounding on the shared grid
                // can produce equal neighbours; durations are theoretically
                // monotone in bid, so take the running maximum defensively).
                let mut best = 0u64;
                for p in &mut points {
                    best = best.max(p.durability_secs);
                    p.durability_secs = best;
                }
                (!points.is_empty()).then_some(Self {
                    probability,
                    computed_at: 0,
                    points,
                })
            })
            .collect()
    }

    /// The graph points, ascending in bid.
    pub fn points(&self) -> &[BidPrediction] {
        &self.points
    }

    /// The minimum published bid.
    pub fn min_bid(&self) -> Price {
        self.points[0].bid
    }

    /// The cheapest published bid guaranteeing at least `required_secs`.
    ///
    /// This is the client-facing query of the DrAFTS service ("what
    /// maximum bid ensures a specific instance duration", §4.3), shared
    /// by the provisioner's launch planner and the `/v1/bid` route.
    /// Durations are monotone in bid (enforced at construction), so the
    /// knee is found by binary search.
    pub fn cheapest_bid(&self, required_secs: u64) -> Option<BidPrediction> {
        let i = self
            .points
            .partition_point(|p| p.durability_secs < required_secs);
        self.points.get(i).copied()
    }

    /// Guaranteed duration of the largest published bid `<= bid`
    /// (conservative lookup for off-grid bids).
    pub fn duration_for_bid(&self, bid: Price) -> Option<u64> {
        self.points
            .iter()
            .rev()
            .find(|p| p.bid <= bid)
            .map(|p| p.durability_secs)
    }

    /// Stamps the computation time (used by the service cache).
    pub fn with_timestamp(mut self, at: u64) -> Self {
        self.computed_at = at;
        self
    }

    /// Renders the machine-readable form the service returns: one
    /// `bid_dollars,duration_secs` row per point.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bid_usd,durability_secs\n");
        for p in &self.points {
            out.push_str(&format!("{:.4},{}\n", p.bid.dollars(), p.durability_secs));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::DraftsConfig;
    use spotmarket::archetype::Archetype;
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
    use spotmarket::{Az, Catalog, Combo, PriceHistory};

    fn history() -> PriceHistory {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-east-1b").unwrap(),
            cat.type_id("c3.4xlarge").unwrap(),
        );
        generate_with_archetype(combo, cat, &TraceConfig::days(30, 21), Archetype::Choppy)
    }

    fn cfg() -> DraftsConfig {
        DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: 5,
            ..DraftsConfig::default()
        }
    }

    #[test]
    fn graph_is_monotone_and_spans_the_grid() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g = BidDurationGraph::compute(&pred, h.len() - 1, 0.95).unwrap();
        assert!(g.points().len() > 30);
        assert!(g
            .points()
            .windows(2)
            .all(|w| w[0].bid < w[1].bid && w[0].durability_secs <= w[1].durability_secs));
        let span = g.points().last().unwrap().bid.ticks() as f64 / g.min_bid().ticks() as f64;
        assert!((3.9..=4.1).contains(&span), "span {span}");
    }

    #[test]
    fn bid_for_duration_finds_the_knee() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g = BidDurationGraph::compute(&pred, h.len() - 1, 0.95).unwrap();
        let one_hour = g.cheapest_bid(3600);
        if let Some(bp) = one_hour {
            assert!(bp.durability_secs >= 3600);
            // Twelve hours needs at least as high a bid.
            if let Some(bp12) = g.cheapest_bid(12 * 3600) {
                assert!(bp12.bid >= bp.bid);
            }
        }
        // An absurd duration is not guaranteed by any grid point.
        assert!(g.cheapest_bid(u64::MAX).is_none());
    }

    #[test]
    fn cheapest_bid_matches_linear_scan_everywhere() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g = BidDurationGraph::compute(&pred, h.len() - 1, 0.95).unwrap();
        // Probe every knee: each published duration, one second either
        // side of it, zero, and beyond the maximum.
        let mut probes = vec![0u64, 1, u64::MAX];
        for p in g.points() {
            probes.push(p.durability_secs);
            probes.push(p.durability_secs.saturating_sub(1));
            probes.push(p.durability_secs + 1);
        }
        for required in probes {
            let linear = g
                .points()
                .iter()
                .find(|p| p.durability_secs >= required)
                .map(|p| (p.bid, p.durability_secs));
            let binary = g
                .cheapest_bid(required)
                .map(|bp| (bp.bid, bp.durability_secs));
            assert_eq!(binary, linear, "required = {required}");
        }
    }

    #[test]
    fn cheapest_bid_is_minimal_over_published_points() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g = BidDurationGraph::compute(&pred, h.len() - 1, 0.95).unwrap();
        let required = 2 * 3600;
        if let Some(bp) = g.cheapest_bid(required) {
            assert!(bp.durability_secs >= required);
            for p in g.points() {
                if p.durability_secs >= required {
                    assert!(bp.bid <= p.bid, "a cheaper qualifying point exists");
                }
            }
        }
    }

    #[test]
    fn cheapest_bid_zero_duration_is_the_minimum_bid() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g = BidDurationGraph::compute(&pred, h.len() - 1, 0.95).unwrap();
        let bp = g.cheapest_bid(0).unwrap();
        assert_eq!(bp.bid, g.min_bid());
    }

    #[test]
    fn duration_for_bid_is_conservative() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g = BidDurationGraph::compute(&pred, h.len() - 1, 0.95).unwrap();
        // A bid below the published minimum has no guarantee.
        assert_eq!(
            g.duration_for_bid(g.min_bid() - spotmarket::Price::TICK),
            None
        );
        // An off-grid bid maps to the largest grid point below it.
        let p5 = g.points()[5];
        let d = g
            .duration_for_bid(p5.bid + spotmarket::Price::TICK)
            .unwrap();
        assert_eq!(d, p5.durability_secs);
    }

    #[test]
    fn higher_probability_needs_higher_min_bid() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g95 = BidDurationGraph::compute(&pred, h.len() - 1, 0.95).unwrap();
        let g99 = BidDurationGraph::compute(&pred, h.len() - 1, 0.99).unwrap();
        assert!(g99.min_bid() >= g95.min_bid());
    }

    #[test]
    fn csv_rendering() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g = BidDurationGraph::compute(&pred, h.len() - 1, 0.95).unwrap();
        let csv = g.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "bid_usd,durability_secs");
        assert_eq!(lines.len(), g.points().len() + 1);
        assert!(lines[1].contains(','));
    }

    #[test]
    fn timestamp_stamping() {
        let h = history();
        let pred = DraftsPredictor::new(&h, cfg());
        let g = BidDurationGraph::compute(&pred, h.len() - 1, 0.95)
            .unwrap()
            .with_timestamp(777);
        assert_eq!(g.computed_at, 777);
    }

    #[test]
    fn too_short_history_yields_none() {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-east-1b").unwrap(),
            cat.type_id("c3.4xlarge").unwrap(),
        );
        let h = generate_with_archetype(combo, cat, &TraceConfig::days(1, 3), Archetype::Calm);
        let pred = DraftsPredictor::new(&h, cfg());
        assert!(BidDurationGraph::compute(&pred, h.len() - 1, 0.99).is_none());
    }
}
