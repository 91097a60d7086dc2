//! Shared fixtures and the in-repo timing harness for the benches.
//!
//! Eight bench targets cover the kernels behind every experiment and the
//! ablations DESIGN.md calls out:
//!
//! * `orderstat` — treap multiset vs the sorted-`Vec` oracle,
//! * `binomial` — log-space CDF kernels and the bound inversion,
//! * `market` — clearing-engine throughput,
//! * `tracegen` — price-trace generation,
//! * `predictor` — end-to-end DrAFTS prediction (batch) and quote (sweep),
//! * `duration` — duration-series derivation: segment tree vs linear scan,
//! * `backtest_cell` — one Table-1 combo cell end to end,
//! * `snapshot` — the snapshot swap against a lock baseline, and the
//!   service's fetch hit alone and under 15 contending readers.
//!
//! The QBETS batch-vs-incremental claim (§3.3), the bid–duration graph
//! and the serving routes are timed by `repro bench`, which commits them
//! to the `BENCH_*.json` trajectory files; no target here re-times them.
//!
//! The harness ([`timing`]) is std-only: auto-calibrated iteration counts,
//! several timed samples, median/min/max in ns per iteration. It trades
//! criterion's statistics for a hermetic build; the numbers are for
//! relative comparisons (ablation A vs B, before vs after), not absolute
//! claims.

use spotmarket::tracegen::{self, TraceConfig};
use spotmarket::{Az, Catalog, Combo, Price, PriceHistory};

pub mod timing;

/// A standard 30-day choppy history for kernel benches.
pub fn bench_history() -> PriceHistory {
    let cat = Catalog::standard();
    let combo = Combo::new(
        Az::parse("us-west-2a").unwrap(),
        cat.type_id("c3.xlarge").unwrap(),
    );
    tracegen::generate(combo, cat, &TraceConfig::days(30, 4242))
}

/// The On-demand anchor for [`bench_history`]'s combo.
pub fn bench_od() -> Price {
    let cat = Catalog::standard();
    let ty = cat.type_id("c3.xlarge").unwrap();
    cat.od_price(ty, spotmarket::Region::UsWest2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_usable() {
        let h = bench_history();
        assert!(h.len() > 5000);
        assert!(bench_od() > Price::ZERO);
    }
}
