//! The spot market-clearing engine.
//!
//! Implements the mechanism the paper describes in §2.1: Amazon "sorts the
//! currently active maximum bids by value and allocates resources to
//! maximum bids (taking into account request size) in descending order of
//! bid value. The lowest maximum bid that corresponds to a 'taken' resource
//! determines the market price." Supply is hidden from participants; when
//! demand does not exhaust supply the price falls to a reserve floor.
//!
//! The engine is deterministic: ties in bid value are broken by submission
//! order (earlier requests win), so identical request sequences always
//! produce identical clearings.

use crate::price::Price;
use std::collections::BTreeMap;

/// Identifier of a live spot request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One active request in the book.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BidEntry {
    bid: Price,
    qty: u64,
}

/// Result of one market clearing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clearing {
    /// The announced market price.
    pub price: Price,
    /// Units allocated per request (only requests receiving > 0 units).
    pub allocations: Vec<(RequestId, u64)>,
    /// Requests receiving zero units — terminated/rejected by the market.
    pub outbid: Vec<RequestId>,
}

impl Clearing {
    /// Total units allocated.
    pub fn allocated(&self) -> u64 {
        self.allocations.iter().map(|&(_, q)| q).sum()
    }
}

/// The clearing engine for one combo's market.
#[derive(Debug, Clone)]
pub struct Market {
    reserve: Price,
    supply: u64,
    next_id: u64,
    book: BTreeMap<RequestId, BidEntry>,
    last_price: Price,
}

impl Market {
    /// Creates a market with a reserve (floor) price and initial supply.
    ///
    /// # Panics
    /// Panics on a zero reserve — the Spot tier has a minimum increment.
    pub fn new(reserve: Price, supply: u64) -> Self {
        assert!(reserve > Price::ZERO, "reserve price must be positive");
        Self {
            reserve,
            supply,
            next_id: 0,
            book: BTreeMap::new(),
            last_price: reserve,
        }
    }

    /// Submits a request for `qty` units at maximum bid `bid`.
    ///
    /// # Panics
    /// Panics on zero quantity.
    pub fn submit(&mut self, bid: Price, qty: u64) -> RequestId {
        assert!(qty > 0, "requests must ask for at least one unit");
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.book.insert(id, BidEntry { bid, qty });
        id
    }

    /// Cancels (user-terminates) a request; returns whether it was live.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        self.book.remove(&id).is_some()
    }

    /// Adjusts the hidden supply.
    pub fn set_supply(&mut self, supply: u64) {
        self.supply = supply;
    }

    /// Current hidden supply.
    pub fn supply(&self) -> u64 {
        self.supply
    }

    /// Total requested units across the book.
    pub fn demand(&self) -> u64 {
        self.book.values().map(|e| e.qty).sum()
    }

    /// Number of live requests.
    pub fn live_requests(&self) -> usize {
        self.book.len()
    }

    /// The most recently announced market price.
    pub fn price(&self) -> Price {
        self.last_price
    }

    /// Recomputes the market price, allocates supply, and evicts outbid
    /// requests from the book.
    pub fn clear(&mut self) -> Clearing {
        // Descending bid, ascending id within a bid level (FIFO priority).
        let mut order: Vec<(RequestId, BidEntry)> =
            self.book.iter().map(|(&id, &e)| (id, e)).collect();
        order.sort_by(|a, b| b.1.bid.cmp(&a.1.bid).then(a.0.cmp(&b.0)));

        let mut remaining = self.supply;
        let mut allocations = Vec::new();
        let mut outbid = Vec::new();
        let mut lowest_taken: Option<Price> = None;
        for (id, entry) in order {
            if remaining == 0 {
                outbid.push(id);
                continue;
            }
            let take = entry.qty.min(remaining);
            remaining -= take;
            allocations.push((id, take));
            lowest_taken = Some(entry.bid);
        }

        // Price: lowest accepted bid when supply is exhausted, else the
        // reserve floor (supply not scarce). Floors also apply to a bid
        // below the reserve.
        let price = if remaining == 0 {
            lowest_taken.unwrap_or(self.reserve).max(self.reserve)
        } else {
            self.reserve
        };

        // Requests whose bid is now strictly below the price are terminated
        // (they could only have been allocated if supply was plentiful, in
        // which case price == reserve <= their bid anyway).
        allocations.retain(|&(id, _)| {
            let keep = self.book[&id].bid >= price;
            if !keep {
                outbid.push(id);
            }
            keep
        });
        for &id in &outbid {
            self.book.remove(&id);
        }
        self.last_price = price;
        Clearing {
            price,
            allocations,
            outbid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ticks: u64) -> Price {
        Price::from_ticks(ticks)
    }

    #[test]
    #[should_panic(expected = "reserve price")]
    fn zero_reserve_rejected() {
        Market::new(Price::ZERO, 10);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_qty_rejected() {
        Market::new(p(1), 10).submit(p(5), 0);
    }

    #[test]
    fn empty_market_clears_at_reserve() {
        let mut m = Market::new(p(100), 50);
        let c = m.clear();
        assert_eq!(c.price, p(100));
        assert!(c.allocations.is_empty());
        assert!(c.outbid.is_empty());
        assert_eq!(m.price(), p(100));
    }

    #[test]
    fn plentiful_supply_prices_at_reserve() {
        let mut m = Market::new(p(100), 100);
        m.submit(p(500), 3);
        m.submit(p(900), 5);
        let c = m.clear();
        assert_eq!(c.price, p(100), "demand 8 < supply 100");
        assert_eq!(c.allocated(), 8);
        assert!(c.outbid.is_empty());
    }

    #[test]
    fn scarce_supply_prices_at_lowest_accepted_bid() {
        let mut m = Market::new(p(1), 10);
        let hi = m.submit(p(900), 6);
        let mid = m.submit(p(500), 6);
        let lo = m.submit(p(200), 6);
        let c = m.clear();
        // hi takes 6, mid takes 4, lo takes none.
        assert_eq!(c.price, p(500));
        assert_eq!(
            c.allocations,
            vec![(hi, 6), (mid, 4)],
            "descending-bid allocation with partial fill"
        );
        assert_eq!(c.outbid, vec![lo]);
        assert_eq!(m.live_requests(), 2, "outbid request evicted");
    }

    #[test]
    fn exact_supply_boundary() {
        let mut m = Market::new(p(1), 10);
        let a = m.submit(p(900), 4);
        let b = m.submit(p(300), 6);
        let c = m.clear();
        assert_eq!(c.price, p(300), "last unit taken at 300");
        assert_eq!(c.allocated(), 10);
        assert!(c.outbid.is_empty());
        let _ = (a, b);
    }

    #[test]
    fn ties_break_by_submission_order() {
        let mut m = Market::new(p(1), 5);
        let first = m.submit(p(400), 5);
        let second = m.submit(p(400), 5);
        let c = m.clear();
        assert_eq!(c.allocations, vec![(first, 5)]);
        assert_eq!(c.outbid, vec![second]);
        assert_eq!(c.price, p(400));
    }

    #[test]
    fn price_rises_when_supply_shrinks() {
        let mut m = Market::new(p(1), 100);
        for i in 0..20 {
            m.submit(p(100 + i * 50), 5);
        }
        let before = m.clear().price;
        m.set_supply(25);
        let after = m.clear().price;
        assert!(after > before, "{after:?} !> {before:?}");
    }

    #[test]
    fn rising_price_terminates_running_low_bids() {
        let mut m = Market::new(p(1), 10);
        let low = m.submit(p(200), 5);
        let c1 = m.clear();
        assert!(c1.allocations.contains(&(low, 5)));
        // A richer participant arrives and takes the whole supply.
        let rich = m.submit(p(1000), 10);
        let c2 = m.clear();
        assert_eq!(c2.price, p(1000));
        assert_eq!(c2.allocations, vec![(rich, 10)]);
        assert!(c2.outbid.contains(&low), "low bid terminated by price");
    }

    #[test]
    fn cancel_removes_from_book() {
        let mut m = Market::new(p(1), 10);
        let id = m.submit(p(500), 2);
        assert!(m.cancel(id));
        assert!(!m.cancel(id));
        assert_eq!(m.demand(), 0);
    }

    #[test]
    fn reserve_floors_the_price() {
        let mut m = Market::new(p(100), 2);
        m.submit(p(50), 5); // below reserve but demand exceeds supply
        let c = m.clear();
        assert_eq!(c.price, p(100));
        // Bid 50 < price 100: the request must be evicted.
        assert!(c.allocations.is_empty());
        assert_eq!(c.outbid.len(), 1);
    }

    // Randomized property tests on simrng's generators.
    mod props {
        use super::*;
        use simrng::{Rng, SeedableFrom, Xoshiro256pp};

        /// Core clearing invariants over arbitrary books.
        #[test]
        fn clearing_invariants() {
            for case in 0..256u64 {
                let mut rng = Xoshiro256pp::seed_from_u64(0xC1EA5 ^ case);
                let supply = rng.next_below(50);
                let bids: Vec<(u64, u64)> = (0..rng.next_below(25))
                    .map(|_| (rng.next_below(999) + 1, rng.next_below(7) + 1))
                    .collect();
                let mut m = Market::new(p(10), supply);
                for &(b, q) in &bids {
                    m.submit(p(b), q);
                }
                let c = m.clear();
                // Never over-allocate.
                assert!(c.allocated() <= supply, "case {case}");
                // Price is at least the reserve.
                assert!(c.price >= p(10), "case {case}");
                // Scarcity => full allocation (bids at/above reserve take
                // every unit they can).
                let eligible_demand: u64 = bids
                    .iter()
                    .filter(|&&(b, _)| b >= 10)
                    .map(|&(_, q)| q)
                    .sum();
                if eligible_demand >= supply {
                    // All supply is taken unless every bid fell below the
                    // final price (possible only via the reserve floor).
                    if c.price == p(10) {
                        assert_eq!(c.allocated(), supply.min(eligible_demand), "case {case}");
                    }
                } else {
                    assert_eq!(
                        c.price,
                        p(10),
                        "plentiful supply clears at reserve (case {case})"
                    );
                }
                // Only allocated requests survive in the book, and each
                // clearing partitions the book into allocated + outbid.
                assert_eq!(m.live_requests(), c.allocations.len(), "case {case}");
                assert_eq!(
                    c.allocations.len() + c.outbid.len(),
                    bids.len(),
                    "every request is either allocated or outbid (case {case})"
                );
            }
        }
    }
}
