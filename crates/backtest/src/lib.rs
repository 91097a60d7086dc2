//! Backtesting engine for DrAFTS and its baselines (paper §4.1, §4.4).
//!
//! The paper's correctness methodology: "repeatedly choose a time at random
//! in the market price history for each combination of AZ and instance type
//! and run the DrAFTS algorithm ... using the data before that time. We
//! then choose a random instance duration and compute the DrAFTS-predicted
//! maximum bid. Finally, we test whether this bid would have prevented a
//! termination." Success fractions per combo feed Table 1; the same request
//! population priced through the §4.4 chooser feeds Tables 4 and 5 and the
//! tightness ablation, and read through a seeded faulty feed, the fault
//! sweep.
//!
//! Modules:
//! * [`request`] — the random request population,
//! * [`sweep`] — a single-pass incremental DrAFTS evaluator (O(n log n)
//!   per combo instead of re-running batch QBETS at every query point),
//! * [`engine`] — parallel orchestration across the 452 combos, each
//!   evaluated through a seeded (by default fault-free) feed with the
//!   hardened service's serving discipline,
//! * [`correctness`] — success-fraction accounting and bucketing,
//! * [`cost`] — the cost-optimization and tightness accounting,
//! * [`report`] — paper-style table rendering and CSV export.

pub mod correctness;
pub mod cost;
pub mod engine;
pub mod report;
pub mod request;
pub mod sweep;

pub use engine::{BacktestConfig, BacktestResult, ComboResult};
