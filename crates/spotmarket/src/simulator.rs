//! Post-facto launch simulator.
//!
//! Replays instance requests against pre-generated price histories, exactly
//! the way the paper's backtests and replay experiments evaluate bids: a
//! request at time `t` with maximum bid `b` is accepted iff `b` exceeds the
//! market price at `t`, and the instance's fate — the first later update
//! with price `>= b` — is fully determined by the history. The simulator
//! tracks lifecycles and computes actual and worst-case costs.

use crate::billing::{self, EndReason};
use crate::catalog::Catalog;
use crate::faults::LaunchFaults;
use crate::history::{PriceHistory, Survival};
use crate::lifecycle::{Instance, InstanceId, InstanceState, TerminationReason};
use crate::price::Price;
use crate::tracegen::{self, TraceConfig};
use crate::types::Combo;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a request was not started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchError {
    /// The bid did not exceed the current market price.
    BidTooLow {
        /// The market price at request time.
        market_price: Price,
    },
    /// No price history covers the combo at the request time.
    NoMarketData,
    /// The AZ has no spare capacity for the type right now (EC2's
    /// `InsufficientInstanceCapacity`); transient — capacity windows pass.
    InsufficientCapacity,
    /// The launch API throttled the request (`RequestLimitExceeded`);
    /// transient — retry after a backoff.
    Throttled,
}

impl LaunchError {
    /// Whether retrying the same request later can succeed even if the
    /// market state does not change. Bid-too-low is *not* transient in
    /// this sense: it needs a price move or a higher bid, not a retry.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            LaunchError::InsufficientCapacity | LaunchError::Throttled
        )
    }
}

/// Launch simulator over a set of per-combo histories.
#[derive(Debug)]
pub struct SpotSimulator {
    catalog: &'static Catalog,
    trace_cfg: TraceConfig,
    /// Shared, so a service advising on the same markets can register
    /// them without a copy.
    histories: HashMap<u64, Arc<PriceHistory>>,
    instances: Vec<Instance>,
    /// Price-termination time per instance, if its bid is ever reached.
    fates: Vec<Option<u64>>,
    launch_faults: LaunchFaults,
    /// Ordinal of the next launch request (throttling is per-request).
    request_seq: u64,
}

impl SpotSimulator {
    /// Creates a simulator that lazily generates combo histories with
    /// `trace_cfg`.
    pub fn new(catalog: &'static Catalog, trace_cfg: TraceConfig) -> Self {
        Self {
            catalog,
            trace_cfg,
            histories: HashMap::new(),
            instances: Vec::new(),
            fates: Vec::new(),
            launch_faults: LaunchFaults::none(),
            request_seq: 0,
        }
    }

    /// Injects seeded launch-API faults (insufficient capacity windows and
    /// request throttling) into subsequent [`Self::request`] calls. The
    /// default is [`LaunchFaults::none`], which gates nothing.
    pub fn set_launch_faults(&mut self, faults: LaunchFaults) {
        faults.validate();
        self.launch_faults = faults;
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &'static Catalog {
        self.catalog
    }

    /// Inserts a pre-built history (overriding lazy generation).
    pub fn insert_history(&mut self, history: PriceHistory) {
        self.histories
            .insert(history.combo().key(), Arc::new(history));
    }

    /// The history for `combo`, generating it on first use.
    pub fn history(&mut self, combo: Combo) -> &Arc<PriceHistory> {
        self.histories
            .entry(combo.key())
            .or_insert_with(|| Arc::new(tracegen::generate(combo, self.catalog, &self.trace_cfg)))
    }

    /// Market price of `combo` at `t`.
    pub fn price_at(&mut self, combo: Combo, t: u64) -> Option<Price> {
        self.history(combo).price_at(t)
    }

    /// Requests an instance. On success the instance starts running at `t`
    /// and its price-termination fate is sealed by the history.
    ///
    /// With launch faults configured, the request may instead fail with a
    /// transient [`LaunchError::Throttled`] or
    /// [`LaunchError::InsufficientCapacity`] — decided by stateless hashes
    /// of `(combo, t, ordinal)`, so the zero-fault path is byte-identical
    /// to a simulator without fault gating.
    pub fn request(&mut self, combo: Combo, bid: Price, t: u64) -> Result<InstanceId, LaunchError> {
        if !self.catalog.is_available(combo) {
            return Err(LaunchError::NoMarketData);
        }
        let nth = self.request_seq;
        self.request_seq += 1;
        if self.launch_faults.throttled(combo, t, nth) {
            return Err(LaunchError::Throttled);
        }
        if self.launch_faults.capacity_exhausted(combo, t) {
            return Err(LaunchError::InsufficientCapacity);
        }
        let history = self.history(combo);
        let fate = match history.survival(t, bid) {
            Survival::Rejected => {
                return match history.price_at(t) {
                    Some(market_price) => Err(LaunchError::BidTooLow { market_price }),
                    None => Err(LaunchError::NoMarketData),
                };
            }
            Survival::Terminated { at } => Some(at),
            Survival::Censored { .. } => None,
        };
        let id = InstanceId(self.instances.len() as u64);
        self.instances.push(Instance::launch(id, combo, bid, t));
        self.fates.push(fate);
        Ok(id)
    }

    /// Observes the instance at time `t`, applying any price termination
    /// that has occurred by then. Returns the (updated) state.
    pub fn poll(&mut self, id: InstanceId, t: u64) -> InstanceState {
        let idx = id.0 as usize;
        if self.instances[idx].is_running() {
            if let Some(fate) = self.fates[idx] {
                if fate <= t {
                    self.instances[idx].terminate(fate, TerminationReason::Price);
                }
            }
        }
        self.instances[idx].state()
    }

    /// User-terminates a running instance at `t`.
    ///
    /// If the market had already priced it out earlier, the price
    /// termination wins (it happened first); the returned state reflects
    /// whichever applies.
    pub fn terminate(&mut self, id: InstanceId, t: u64) -> InstanceState {
        let state = self.poll(id, t);
        let idx = id.0 as usize;
        if state == InstanceState::Running {
            self.instances[idx].terminate(t, TerminationReason::User);
        }
        self.instances[idx].state()
    }

    /// The instance record.
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    /// Actual billed cost of an instance up to `now` (terminated instances
    /// bill to their termination; running ones accrue rounded-up hours).
    pub fn cost(&mut self, id: InstanceId, now: u64) -> Price {
        self.poll(id, now);
        let inst = &self.instances[id.0 as usize];
        let (duration, reason) = match inst.state() {
            InstanceState::Running => (inst.runtime(now), EndReason::Running),
            InstanceState::Terminated { at, reason } => (at - inst.launched_at, reason.billing()),
        };
        let combo = inst.combo;
        let start = inst.launched_at;
        let history = self.history(combo);
        billing::instance_cost(history, start, duration, reason)
    }

    /// Worst-case (bid-valued) cost of an instance up to `now`.
    pub fn worst_case_cost(&mut self, id: InstanceId, now: u64) -> Price {
        self.poll(id, now);
        let inst = &self.instances[id.0 as usize];
        let (duration, reason) = match inst.state() {
            InstanceState::Running => (inst.runtime(now), EndReason::Running),
            InstanceState::Terminated { at, reason } => (at - inst.launched_at, reason.billing()),
        };
        billing::worst_case_cost(inst.bid, duration, reason)
    }

    /// All launched instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Az;
    use tsforecast::TimeSeries;

    fn sim() -> SpotSimulator {
        SpotSimulator::new(Catalog::standard(), TraceConfig::days(30, 99))
    }

    fn fixed_history(combo: Combo, points: &[(u64, u64)]) -> PriceHistory {
        PriceHistory::new(combo, points.iter().copied().collect::<TimeSeries>())
    }

    fn combo() -> Combo {
        let cat = Catalog::standard();
        Combo::new(
            Az::parse("us-west-2a").unwrap(),
            cat.type_id("c4.large").unwrap(),
        )
    }

    #[test]
    fn lazy_history_generation_is_stable() {
        let mut s = sim();
        let c = combo();
        let p1 = s.price_at(c, 3600).unwrap();
        let p2 = s.price_at(c, 3600).unwrap();
        assert_eq!(p1, p2);
        assert!(s.history(c).len() > 1000);
    }

    #[test]
    fn request_rejected_when_bid_not_above_price() {
        let mut s = sim();
        let c = combo();
        s.insert_history(fixed_history(c, &[(0, 1000), (300, 1100)]));
        match s.request(c, Price::from_ticks(1000), 0) {
            Err(LaunchError::BidTooLow { market_price }) => {
                assert_eq!(market_price, Price::from_ticks(1000));
            }
            other => panic!("expected BidTooLow, got {other:?}"),
        }
    }

    #[test]
    fn unavailable_combo_is_no_market_data() {
        let cat = Catalog::standard();
        let missing = Az::all()
            .flat_map(|az| cat.type_ids().map(move |t| Combo::new(az, t)))
            .find(|&c| !cat.is_available(c))
            .expect("25 combos are excluded");
        let mut s = sim();
        assert_eq!(
            s.request(missing, Price::MAX, 0),
            Err(LaunchError::NoMarketData)
        );
    }

    #[test]
    fn instance_runs_until_price_crossing() {
        let mut s = sim();
        let c = combo();
        s.insert_history(fixed_history(
            c,
            &[(0, 100), (300, 120), (600, 200), (900, 100)],
        ));
        let id = s.request(c, Price::from_ticks(150), 0).unwrap();
        assert_eq!(s.poll(id, 300), InstanceState::Running);
        assert_eq!(
            s.poll(id, 600),
            InstanceState::Terminated {
                at: 600,
                reason: TerminationReason::Price
            }
        );
        // Polling later keeps the original termination time.
        assert_eq!(
            s.poll(id, 10_000),
            InstanceState::Terminated {
                at: 600,
                reason: TerminationReason::Price
            }
        );
    }

    #[test]
    fn user_termination_before_fate() {
        let mut s = sim();
        let c = combo();
        s.insert_history(fixed_history(c, &[(0, 100), (7200, 500)]));
        let id = s.request(c, Price::from_ticks(200), 0).unwrap();
        let st = s.terminate(id, 3600);
        assert_eq!(
            st,
            InstanceState::Terminated {
                at: 3600,
                reason: TerminationReason::User
            }
        );
    }

    #[test]
    fn user_termination_after_fate_is_price_termination() {
        let mut s = sim();
        let c = combo();
        s.insert_history(fixed_history(c, &[(0, 100), (600, 500)]));
        let id = s.request(c, Price::from_ticks(200), 0).unwrap();
        // User tries to stop at t=3600, but the market killed it at 600.
        let st = s.terminate(id, 3600);
        assert_eq!(
            st,
            InstanceState::Terminated {
                at: 600,
                reason: TerminationReason::Price
            }
        );
    }

    #[test]
    fn costs_match_billing_rules() {
        let mut s = sim();
        let c = combo();
        s.insert_history(fixed_history(c, &[(0, 100), (36_000, 100)]));
        let id = s.request(c, Price::from_ticks(300), 0).unwrap();
        s.terminate(id, 3300); // the paper's 3300 s experiments
        assert_eq!(s.cost(id, 36_000), Price::from_ticks(100), "1 billed hour");
        assert_eq!(
            s.worst_case_cost(id, 36_000),
            Price::from_ticks(300),
            "worst case bills the bid"
        );
    }

    #[test]
    fn launch_faults_gate_requests_transiently() {
        let c = combo();
        let mk = || {
            let mut s = sim();
            s.set_launch_faults(LaunchFaults::with_intensity(7, 1.0));
            s.insert_history(fixed_history(c, &[(0, 100)]));
            s
        };
        // Sweep requests across capacity windows: with intensity 1 some
        // fail transiently, some succeed, and the pattern is a pure
        // function of (combo, time, ordinal) — two simulators agree.
        let (mut a, mut b) = (mk(), mk());
        let mut failures = 0;
        let mut successes = 0;
        for i in 0..200u64 {
            let t = i * 1800;
            let ra = a.request(c, Price::from_ticks(200), t);
            let rb = b.request(c, Price::from_ticks(200), t);
            assert_eq!(ra, rb, "fault gating must be deterministic");
            match ra {
                Err(e) => {
                    assert!(e.is_transient(), "only transient faults expected");
                    failures += 1;
                }
                Ok(_) => successes += 1,
            }
        }
        assert!(failures > 0, "intensity 1 must inject some failures");
        assert!(successes > 0, "faults must not block every request");
        assert!(!LaunchError::BidTooLow {
            market_price: Price::from_ticks(1)
        }
        .is_transient());
        assert!(!LaunchError::NoMarketData.is_transient());
    }

    #[test]
    fn zero_faults_change_nothing() {
        let c = combo();
        let mut s = sim();
        s.set_launch_faults(LaunchFaults::none());
        s.insert_history(fixed_history(c, &[(0, 100)]));
        for i in 0..50u64 {
            assert!(s.request(c, Price::from_ticks(200), i * 60).is_ok());
        }
    }

    #[test]
    fn censored_instance_keeps_running() {
        let mut s = sim();
        let c = combo();
        s.insert_history(fixed_history(c, &[(0, 100)]));
        let id = s.request(c, Price::from_ticks(200), 0).unwrap();
        assert_eq!(s.poll(id, 1_000_000), InstanceState::Running);
        // Cost accrues rounded-up hours at the flat price.
        assert_eq!(s.cost(id, 5400), Price::from_ticks(200));
    }
}
