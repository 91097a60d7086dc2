//! Reflexivity: what happens to a spot market when its participants bid
//! with DrAFTS?
//!
//! The paper's stated future work (§6): "analyze the degree to which the
//! availability of DrAFTS predictions may affect the market they are
//! serving. It is clear that widespread use of DrAFTS (if it were to
//! occur) would change the pricing dynamics of the Amazon Spot tier."
//!
//! This module implements that experiment on the mechanistic market: a
//! configurable fraction of arriving participants replace their private
//! lognormal bid draw with a QBETS upper bound on the clearing prices
//! observed so far (plus the DrAFTS tick premium). The experiment then
//! measures how adoption changes (a) the mean clearing price, (b) its
//! volatility, and (c) the revocation rate experienced by the DrAFTS
//! bidders themselves — the feedback loop the authors worried about.
//!
//! The measured answer (see the tests and `repro reflexivity`): at full
//! adoption, prices and volatility collapse — every bid clusters one
//! tick above the historical bound, the heavy upper tail of private bids
//! that used to set the clearing price disappears, and bound and price
//! descend together into a tight band near the reserve. At intermediate
//! adoption the feedback is *non-monotone and unstable*: the bound
//! alternately chases and suppresses its own effect, so mean prices at
//! 25/50/75% adoption scatter above and below the baseline depending on
//! the realized shocks. Either way the authors' suspicion is confirmed:
//! widespread DrAFTS use "would change the pricing dynamics" — and a
//! predictor cannot remain calibrated about a market it dominates.

use crate::agents::AgentConfig;
use crate::market::{Market, RequestId};
use crate::price::Price;
use simrng::dist::{Exponential, LogNormal, Poisson};
use simrng::{Rng, Xoshiro256pp};
use tsforecast::{BoundEstimator, Qbets, QbetsConfig};

/// Reflexivity experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReflexivityConfig {
    /// Fraction of arrivals bidding with DrAFTS instead of privately.
    pub adoption: f64,
    /// Quantile the DrAFTS bidders target (sqrt of their durability p).
    pub quantile: f64,
    /// Base demand/supply process.
    pub agents: AgentConfig,
    /// Warm-up ticks before measurement starts (QBETS needs history and
    /// the book needs to fill).
    pub warmup: u64,
    /// Measured ticks.
    pub ticks: u64,
}

impl Default for ReflexivityConfig {
    fn default() -> Self {
        Self {
            adoption: 0.5,
            quantile: 0.975,
            agents: AgentConfig::default(),
            warmup: 600,
            ticks: 2000,
        }
    }
}

impl ReflexivityConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on out-of-range fields.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.adoption),
            "adoption must be in [0,1]"
        );
        assert!(
            self.quantile > 0.0 && self.quantile < 1.0,
            "quantile must be in (0,1)"
        );
        assert!(self.ticks > 0, "need measured ticks");
    }
}

/// What one adoption level measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReflexivityOutcome {
    /// DrAFTS adoption fraction.
    pub adoption: f64,
    /// Mean clearing price over the measured window.
    pub mean_price: f64,
    /// Coefficient of variation of the clearing price (volatility).
    pub price_cv: f64,
    /// Fraction of DrAFTS-bid requests evicted by later clearings.
    pub drafts_revocation_rate: f64,
    /// Fraction of privately-bid requests evicted by later clearings.
    pub private_revocation_rate: f64,
}

/// Runs one adoption level.
pub fn run(cfg: &ReflexivityConfig, od: Price, mut rng: Xoshiro256pp) -> ReflexivityOutcome {
    cfg.validate();
    let a = cfg.agents;
    let reserve = od.scale(a.reserve_frac).max(Price::TICK);
    let mut market = Market::new(reserve, a.supply);
    let arrivals = Poisson::new(a.arrival_rate).expect("rate");
    let bid_dist = LogNormal::new(a.bid_ln_mu, a.bid_ln_sd).expect("bid");
    let qty_dist = Poisson::new(a.qty_mean.max(1.0) - 1.0).expect("qty");
    let lifetime = Exponential::new(1.0 / a.mean_lifetime.max(1e-9)).expect("life");

    let mut qbets = Qbets::new(QbetsConfig::default());
    let mut live: Vec<(RequestId, u64, bool)> = Vec::new(); // (id, expiry, is_drafts)
    let mut prices = Vec::with_capacity(cfg.ticks as usize);
    let mut submitted = [0u64; 2]; // [private, drafts]
    let mut revoked = [0u64; 2];

    for tick in 1..=(cfg.warmup + cfg.ticks) {
        // Departures.
        let mut gone = Vec::new();
        live.retain(|&(id, expiry, _)| {
            if expiry <= tick {
                gone.push(id);
                false
            } else {
                true
            }
        });
        for id in gone {
            market.cancel(id);
        }

        // Arrivals: DrAFTS adopters bid the QBETS bound when available.
        let n = arrivals.sample(&mut rng);
        for _ in 0..n {
            let is_drafts = rng.next_bool(cfg.adoption);
            let bid = if is_drafts {
                match qbets.upper_bound(cfg.quantile) {
                    Some(b) => Price::from_ticks(b) + Price::TICK,
                    // Cold start: everything seen plus a tick.
                    None => {
                        Price::from_ticks(prices.last().copied().unwrap_or(reserve.ticks()))
                            + Price::TICK
                    }
                }
            } else {
                od.scale(bid_dist.sample(&mut rng).min(12.0))
                    .max(Price::TICK)
            };
            let qty = 1 + qty_dist.sample(&mut rng);
            let life = lifetime.sample(&mut rng).ceil().max(1.0) as u64;
            let id = market.submit(bid, qty);
            live.push((id, tick + life, is_drafts));
            if tick > cfg.warmup {
                submitted[is_drafts as usize] += 1;
            }
        }

        // Supply walk.
        if rng.next_bool(a.supply_step_rate) {
            let s = market.supply() as f64;
            let delta = (rng.next_f64() * 2.0 - 1.0) * a.supply_step_frac * s;
            market.set_supply((s + delta).round().max(1.0) as u64);
        }

        let clearing = market.clear();
        qbets.observe(clearing.price.ticks());
        if tick > cfg.warmup {
            prices.push(clearing.price.ticks());
            for id in &clearing.outbid {
                if let Some(&(_, _, is_drafts)) = live.iter().find(|(lid, _, _)| lid == id) {
                    revoked[is_drafts as usize] += 1;
                }
            }
        }
        let outbid: std::collections::HashSet<RequestId> =
            clearing.outbid.iter().copied().collect();
        live.retain(|(id, _, _)| !outbid.contains(id));
    }

    let n = prices.len() as f64;
    let mean = prices.iter().map(|&p| p as f64).sum::<f64>() / n;
    let var = prices
        .iter()
        .map(|&p| (p as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let rate = |i: usize| {
        if submitted[i] == 0 {
            0.0
        } else {
            revoked[i] as f64 / submitted[i] as f64
        }
    };
    ReflexivityOutcome {
        adoption: cfg.adoption,
        mean_price: mean / crate::price::TICKS_PER_DOLLAR as f64,
        price_cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        drafts_revocation_rate: rate(1),
        private_revocation_rate: rate(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::SeedableFrom;

    fn outcome(adoption: f64, seed: u64) -> ReflexivityOutcome {
        let cfg = ReflexivityConfig {
            adoption,
            ..ReflexivityConfig::default()
        };
        run(
            &cfg,
            Price::from_dollars(0.105),
            Xoshiro256pp::seed_from_u64(seed),
        )
    }

    /// Individual runs are chaotic (one supply shock reshapes a whole
    /// window); regime claims are made about seed-averaged behaviour.
    fn averaged(adoption: f64) -> ReflexivityOutcome {
        let runs: Vec<ReflexivityOutcome> = (0..8).map(|s| outcome(adoption, 100 + s)).collect();
        let n = runs.len() as f64;
        ReflexivityOutcome {
            adoption,
            mean_price: runs.iter().map(|o| o.mean_price).sum::<f64>() / n,
            price_cv: runs.iter().map(|o| o.price_cv).sum::<f64>() / n,
            drafts_revocation_rate: runs.iter().map(|o| o.drafts_revocation_rate).sum::<f64>() / n,
            private_revocation_rate: runs.iter().map(|o| o.private_revocation_rate).sum::<f64>()
                / n,
        }
    }

    #[test]
    fn zero_adoption_has_no_drafts_traffic() {
        let o = outcome(0.0, 1);
        assert_eq!(o.drafts_revocation_rate, 0.0);
        assert!(o.mean_price > 0.0);
        assert!(o.price_cv > 0.0, "a live market moves");
    }

    #[test]
    fn intermediate_adoption_destabilizes_rather_than_tracks() {
        // The interesting non-result: mixed markets are NOT a smooth
        // interpolation between the endpoints — the feedback makes the
        // averaged mid-adoption prices deviate from the baseline in
        // either direction rather than matching it.
        let base = averaged(0.0);
        let half = averaged(0.5);
        let deviation = (half.mean_price - base.mean_price).abs() / base.mean_price;
        assert!(
            deviation > 0.05,
            "mid-adoption price should deviate measurably, got {deviation}"
        );
    }

    #[test]
    fn full_adoption_collapses_price_volatility_and_revocations() {
        // At full adoption everyone sits at bound-plus-tick and the
        // market coordinates into a tight band near the reserve
        // (seed-averaged; a single run can be dominated by one shock).
        let base = averaged(0.0);
        let full = averaged(1.0);
        assert!(
            full.mean_price < base.mean_price,
            "full-adoption mean {} vs baseline {}",
            full.mean_price,
            base.mean_price
        );
        assert!(
            full.price_cv < base.price_cv,
            "volatility must shrink: {} vs {}",
            full.price_cv,
            base.price_cv
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(outcome(0.5, 9), outcome(0.5, 9));
    }

    #[test]
    #[should_panic(expected = "adoption")]
    fn rejects_bad_adoption() {
        ReflexivityConfig {
            adoption: 1.5,
            ..ReflexivityConfig::default()
        }
        .validate();
    }
}
