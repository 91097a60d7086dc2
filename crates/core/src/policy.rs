//! Bid-determination policies — DrAFTS and the baselines of Table 1.
//!
//! The paper evaluates four ways of choosing a maximum bid for a request
//! of a given duration at a target probability (§4.1), plus the Globus
//! Galaxies provisioner's original rule (§4.3):
//!
//! * **DrAFTS** — the full two-step prediction; the only policy that takes
//!   the requested duration into account.
//! * **On-demand** — bid the On-demand price ("the hourly price a user must
//!   pay ... to obtain the Amazon reliability SLA").
//! * **AR(1)** — the fitted Gaussian marginal quantile at the target
//!   probability, with the same change-point detection DrAFTS uses.
//! * **Empirical CDF** — the raw sample quantile at the target probability.
//! * **FixedFraction(0.8)** — the provisioner's pre-DrAFTS default of 80%
//!   of On-demand (Table 2 "Original").

use crate::predictor::{DraftsConfig, DraftsPredictor};
use spotmarket::{Price, PriceHistory};
use tsforecast::ar::Ar1Estimator;
use tsforecast::ecdf::EcdfEstimator;
use tsforecast::BoundEstimator;

/// A bid-determination method.
#[derive(Debug, Clone, Copy)]
pub enum BidPolicy {
    /// The paper's contribution: duration-aware probabilistic bids.
    Drafts(DraftsConfig),
    /// Bid the On-demand price.
    OnDemand,
    /// Bid a fixed fraction of the On-demand price.
    FixedFraction(f64),
    /// Bid the AR(1) Gaussian marginal quantile at the target probability.
    Ar1,
    /// Bid the empirical quantile at the target probability.
    EmpiricalCdf,
}

impl BidPolicy {
    /// Short table label.
    pub fn label(&self) -> &'static str {
        match self {
            BidPolicy::Drafts(_) => "DrAFTS",
            BidPolicy::OnDemand => "On-demand",
            BidPolicy::FixedFraction(_) => "FixedFraction",
            BidPolicy::Ar1 => "AR(1)",
            BidPolicy::EmpiricalCdf => "Empirical-CDF",
        }
    }

    /// Computes the bid for a request of `duration_secs` at target
    /// probability `p`, using price history up to update index `upto`
    /// (inclusive) and the combo's On-demand price `od`.
    ///
    /// Returns `None` when the policy cannot produce a bid (insufficient
    /// history). Only DrAFTS uses `duration_secs`.
    pub fn bid(
        &self,
        history: &PriceHistory,
        upto: usize,
        od: Price,
        p: f64,
        duration_secs: u64,
    ) -> Option<Price> {
        match *self {
            BidPolicy::Drafts(cfg) => {
                let predictor = DraftsPredictor::new(history, cfg);
                predictor
                    .bid_for_duration(upto, p, duration_secs)
                    .map(|bp| bp.bid)
            }
            BidPolicy::OnDemand => Some(od),
            BidPolicy::FixedFraction(f) => Some(od.scale(f)),
            BidPolicy::Ar1 => {
                let mut est = Ar1Estimator::paper_default();
                for &v in &history.series().values()[..=upto] {
                    est.observe(v);
                }
                est.upper_bound(p).map(Price::from_ticks)
            }
            BidPolicy::EmpiricalCdf => {
                let mut est = EcdfEstimator::new();
                for &v in &history.series().values()[..=upto] {
                    est.observe(v);
                }
                est.upper_bound(p).map(Price::from_ticks)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::archetype::Archetype;
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
    use spotmarket::{Az, Catalog, Combo};

    fn setup() -> (PriceHistory, Price) {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-west-2b").unwrap(),
            cat.type_id("c3.xlarge").unwrap(),
        );
        let h = generate_with_archetype(combo, cat, &TraceConfig::days(30, 31), Archetype::Choppy);
        let od = cat.od_price(combo.ty, combo.az.region());
        (h, od)
    }

    #[test]
    fn labels() {
        assert_eq!(BidPolicy::OnDemand.label(), "On-demand");
        assert_eq!(BidPolicy::Ar1.label(), "AR(1)");
        assert_eq!(BidPolicy::EmpiricalCdf.label(), "Empirical-CDF");
        assert_eq!(BidPolicy::Drafts(DraftsConfig::default()).label(), "DrAFTS");
        assert_eq!(BidPolicy::FixedFraction(0.8).label(), "FixedFraction");
    }

    #[test]
    fn on_demand_and_fraction_ignore_history() {
        let (h, od) = setup();
        let upto = h.len() - 1;
        assert_eq!(BidPolicy::OnDemand.bid(&h, upto, od, 0.99, 3600), Some(od));
        assert_eq!(
            BidPolicy::FixedFraction(0.8).bid(&h, upto, od, 0.99, 3600),
            Some(od.scale(0.8))
        );
    }

    #[test]
    fn statistical_policies_produce_in_envelope_bids() {
        let (h, od) = setup();
        let upto = h.len() - 1;
        let max = h.max_price().unwrap();
        for policy in [BidPolicy::Ar1, BidPolicy::EmpiricalCdf] {
            let bid = policy.bid(&h, upto, od, 0.99, 3600).unwrap();
            assert!(bid > Price::ZERO);
            assert!(
                bid <= max.scale(2.0),
                "{}: bid {bid} far outside envelope {max}",
                policy.label()
            );
        }
    }

    #[test]
    fn drafts_bid_respects_duration_request() {
        let (h, od) = setup();
        let upto = h.len() - 1;
        let cfg = DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: 5,
            ..DraftsConfig::default()
        };
        let policy = BidPolicy::Drafts(cfg);
        let short = policy.bid(&h, upto, od, 0.95, 600);
        let long = policy.bid(&h, upto, od, 0.95, 12 * 3600);
        if let (Some(s), Some(l)) = (short, long) {
            assert!(l >= s, "longer duration cannot need a lower bid");
        }
    }

    #[test]
    fn ecdf_bid_is_the_sample_quantile() {
        let (h, od) = setup();
        let upto = h.len() - 1;
        let bid = BidPolicy::EmpiricalCdf.bid(&h, upto, od, 0.99, 0).unwrap();
        let mut sorted = h.series().values()[..=upto].to_vec();
        sorted.sort_unstable();
        let k = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        assert_eq!(bid.ticks(), sorted[k - 1]);
    }

    #[test]
    fn insufficient_history_yields_none_for_drafts() {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-west-2b").unwrap(),
            cat.type_id("c3.xlarge").unwrap(),
        );
        let h = generate_with_archetype(combo, cat, &TraceConfig::days(1, 32), Archetype::Calm);
        let od = cat.od_price(combo.ty, combo.az.region());
        let policy = BidPolicy::Drafts(DraftsConfig::default());
        assert_eq!(policy.bid(&h, h.len() - 1, od, 0.99, 3600), None);
    }
}
