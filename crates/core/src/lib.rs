//! DrAFTS — Durability Agreements From Time Series.
//!
//! The primary contribution of Wolski, Brevik, Chard & Chard,
//! *Probabilistic Guarantees of Execution Duration for Amazon Spot
//! Instances* (SC'17): given a spot market's price history, predict the
//! **minimum maximum-bid** that keeps an instance running for a requested
//! **duration** with at least a target **probability**.
//!
//! The method is a two-step application of QBETS (see [`tsforecast`]):
//!
//! 1. **Price step** ([`predictor`]) — an upper `c = 0.99` confidence bound
//!    on the `q = sqrt(p)` quantile of the next market price, plus one tick
//!    ($0.0001): the smallest bid that survives the next price update with
//!    probability at least `q`.
//! 2. **Duration step** ([`duration`], [`predictor`]) — for a candidate
//!    bid, derive the historical series of survival durations under that
//!    bid and take a lower confidence bound on its `(1-q)`-quantile. The
//!    pair guarantees the duration with probability `q * q = p`.
//!
//! Around the core prediction sit the pieces the paper's evaluation uses:
//! bid–duration [`graph`]s (+5% bid steps up to 4x the minimum), AZ
//! selection by predicted-price fitness ([`azselect`]), the
//! cost-optimization chooser of §4.4 ([`optimizer`]), and an in-process
//! stand-in for the DrAFTS web service ([`service`]).
//!
//! # Example
//!
//! ```
//! use drafts_core::predictor::{DraftsConfig, DraftsPredictor};
//! use spotmarket::{tracegen, Az, Catalog, Combo};
//!
//! let catalog = Catalog::standard();
//! let combo = Combo::new(
//!     Az::parse("us-west-2a").unwrap(),
//!     catalog.type_id("c4.large").unwrap(),
//! );
//! let history =
//!     tracegen::generate(combo, catalog, &tracegen::TraceConfig::days(30, 42));
//!
//! let predictor = DraftsPredictor::new(&history, DraftsConfig::default());
//! let at = history.len() - 1;
//! // bid_quote always answers: a guaranteed grid bid when the bounds are
//! // available, a conservative fallback otherwise.
//! let quote = predictor.bid_quote(at, 0.95, 3600);
//! println!(
//!     "bid {} for a 1-hour hold at p = 0.95 (guaranteed: {})",
//!     quote.bid,
//!     quote.guarantees(3600),
//! );
//! ```

pub mod azselect;
pub mod duration;
pub mod graph;
pub mod optimizer;
pub mod predictor;
pub mod service;
pub mod snapshot;

pub use graph::BidDurationGraph;
pub use predictor::{BidPrediction, DraftsConfig, DraftsPredictor};
pub use service::DraftsService;
