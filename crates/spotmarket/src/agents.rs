//! Stochastic market participants driving the clearing engine.
//!
//! The paper observes that spot prices are not a pure demand signal — the
//! provider injects hidden supply-side externalities (§5, citing Ben-Yehuda
//! et al.). [`AgentMarket`] reproduces that structure endogenously: a
//! Poisson stream of bidders with lognormal bids and exponential lifetimes
//! competes for a supply that follows its own random walk; each 5-minute
//! tick the market clears and announces a price. The resulting series shows
//! the plateaus, jumps and spikes the direct trace generator
//! ([`crate::tracegen`]) models statistically — the integration tests
//! verify that DrAFTS behaves equivalently on both sources.

use crate::market::{Market, RequestId};
use crate::price::Price;
use crate::UPDATE_PERIOD;
use simrng::dist::{Exponential, LogNormal, Poisson};
use simrng::{Rng, Xoshiro256pp};
use tsforecast::TimeSeries;

/// Demand/supply process parameters.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// Mean new requests per tick.
    pub arrival_rate: f64,
    /// Log-mean of bids as a fraction of the On-demand price.
    pub bid_ln_mu: f64,
    /// Log-sd of bids.
    pub bid_ln_sd: f64,
    /// Mean units per request (1 + Poisson).
    pub qty_mean: f64,
    /// Mean request lifetime in ticks (exponential).
    pub mean_lifetime: f64,
    /// Initial supply in units.
    pub supply: u64,
    /// Per-tick probability of a supply step.
    pub supply_step_rate: f64,
    /// Maximum relative size of one supply step.
    pub supply_step_frac: f64,
    /// Reserve price as a fraction of On-demand.
    pub reserve_frac: f64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            arrival_rate: 3.0,
            bid_ln_mu: -1.2, // median bid ~0.30 x On-demand
            bid_ln_sd: 0.8,
            qty_mean: 1.5,
            mean_lifetime: 24.0, // ~2 hours
            supply: 120,
            supply_step_rate: 0.01,
            supply_step_frac: 0.35,
            reserve_frac: 0.08,
        }
    }
}

/// A market animated by stochastic participants.
#[derive(Debug)]
pub struct AgentMarket {
    market: Market,
    cfg: AgentConfig,
    od: Price,
    rng: Xoshiro256pp,
    /// Live requests with their expiry tick.
    live: Vec<(RequestId, u64)>,
    tick: u64,
    arrivals: Poisson,
    bid_dist: LogNormal,
    qty_dist: Poisson,
    lifetime: Exponential,
}

impl AgentMarket {
    /// Creates an agent-driven market around an On-demand anchor price.
    ///
    /// # Panics
    /// Panics on non-positive rates or a zero On-demand price.
    pub fn new(od: Price, cfg: AgentConfig, rng: Xoshiro256pp) -> Self {
        assert!(od > Price::ZERO, "on-demand anchor must be positive");
        let reserve = od.scale(cfg.reserve_frac).max(Price::TICK);
        Self {
            market: Market::new(reserve, cfg.supply),
            od,
            rng,
            live: Vec::new(),
            tick: 0,
            arrivals: Poisson::new(cfg.arrival_rate).expect("arrival_rate validated"),
            bid_dist: LogNormal::new(cfg.bid_ln_mu, cfg.bid_ln_sd).expect("bid params"),
            qty_dist: Poisson::new(cfg.qty_mean.max(1.0) - 1.0).expect("qty params"),
            lifetime: Exponential::new(1.0 / cfg.mean_lifetime.max(1e-9)).expect("lifetime"),
            cfg,
        }
    }

    /// Access to the underlying clearing engine.
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// Advances one tick: expiries, arrivals, supply walk, clearing.
    /// Returns the announced price.
    pub fn step(&mut self) -> Price {
        self.tick += 1;
        let t = self.tick;

        // User departures.
        let mut expired = Vec::new();
        self.live.retain(|&(id, expiry)| {
            if expiry <= t {
                expired.push(id);
                false
            } else {
                true
            }
        });
        for id in expired {
            self.market.cancel(id);
        }

        // Arrivals.
        let n = self.arrivals.sample(&mut self.rng);
        for _ in 0..n {
            let frac = self.bid_dist.sample(&mut self.rng).min(12.0);
            let bid = self.od.scale(frac).max(Price::TICK);
            let qty = 1 + self.qty_dist.sample(&mut self.rng);
            let life = self.lifetime.sample(&mut self.rng).ceil().max(1.0) as u64;
            let id = self.market.submit(bid, qty);
            self.live.push((id, t + life));
        }

        // Supply random walk (the provider's hidden externality).
        if self.rng.next_bool(self.cfg.supply_step_rate) {
            let s = self.market.supply() as f64;
            let delta = (self.rng.next_f64() * 2.0 - 1.0) * self.cfg.supply_step_frac * s;
            let new_supply = (s + delta).round().max(1.0) as u64;
            self.market.set_supply(new_supply);
        }

        let clearing = self.market.clear();
        // Outbid requests are gone from the market; drop them locally too.
        let outbid: std::collections::HashSet<RequestId> =
            clearing.outbid.iter().copied().collect();
        self.live.retain(|(id, _)| !outbid.contains(id));
        clearing.price
    }

    /// Runs `ticks` steps and returns the price series on the 5-minute
    /// grid starting at `start`.
    pub fn run(&mut self, start: u64, ticks: u64) -> TimeSeries {
        let mut series = TimeSeries::with_capacity(ticks as usize);
        let mut t = start;
        for _ in 0..ticks {
            let p = self.step();
            series.push(t, p.ticks());
            t += UPDATE_PERIOD;
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::SeedableFrom;

    fn od() -> Price {
        Price::from_dollars(0.105) // c4.large anchor
    }

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    #[test]
    fn produces_a_nontrivial_price_series() {
        let mut m = AgentMarket::new(od(), AgentConfig::default(), rng(1));
        let series = m.run(0, 2000);
        assert_eq!(series.len(), 2000);
        let distinct: std::collections::HashSet<u64> = series.values().iter().copied().collect();
        assert!(distinct.len() > 10, "price must actually move");
        // Prices bounded below by the reserve.
        let reserve = od().scale(AgentConfig::default().reserve_frac).ticks();
        assert!(series.values().iter().all(|&v| v >= reserve));
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = AgentMarket::new(od(), AgentConfig::default(), rng(7)).run(0, 500);
        let b = AgentMarket::new(od(), AgentConfig::default(), rng(7)).run(0, 500);
        assert_eq!(a, b);
        let c = AgentMarket::new(od(), AgentConfig::default(), rng(8)).run(0, 500);
        assert_ne!(a, c);
    }

    #[test]
    fn supply_cut_raises_prices() {
        let cfg = AgentConfig {
            supply_step_rate: 0.0, // we control supply manually
            ..AgentConfig::default()
        };
        let mut m = AgentMarket::new(od(), cfg, rng(3));
        // Warm up to a steady book.
        for _ in 0..500 {
            m.step();
        }
        let before: f64 = (0..200).map(|_| m.step().ticks() as f64).sum::<f64>() / 200.0;
        // Cut supply to a fifth and let the book adjust.
        let s = m.market().supply();
        m.market.set_supply((s / 5).max(1));
        for _ in 0..100 {
            m.step();
        }
        let after: f64 = (0..200).map(|_| m.step().ticks() as f64).sum::<f64>() / 200.0;
        assert!(
            after > before * 1.2,
            "mean price should rise on a supply cut: {before} -> {after}"
        );
    }

    #[test]
    fn book_does_not_grow_without_bound() {
        let mut m = AgentMarket::new(od(), AgentConfig::default(), rng(5));
        for _ in 0..3000 {
            m.step();
        }
        // Expected book size ~ arrival_rate * mean_lifetime (survivors of
        // clearing); assert a generous multiple.
        assert!(
            m.market().live_requests() < 2000,
            "book size {} suggests an expiry leak",
            m.market().live_requests()
        );
    }

    #[test]
    fn qbets_consumes_agent_prices_end_to_end() {
        use tsforecast::{BoundEstimator, Qbets, QbetsConfig};
        let mut m = AgentMarket::new(od(), AgentConfig::default(), rng(11));
        let series = m.run(0, 3000);
        let mut q = Qbets::new(QbetsConfig::default());
        for &v in series.values() {
            q.observe(v);
        }
        let bound = q.upper_bound_or_max(0.975).unwrap();
        // The bound must sit within the observed envelope.
        let max = *series.values().iter().max().unwrap();
        assert!(bound <= max);
        assert!(bound as f64 >= od().scale(0.05).ticks() as f64);
    }
}
