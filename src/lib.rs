//! # DrAFTS — Durability Agreements From Time Series
//!
//! A from-scratch Rust reproduction of Wolski, Brevik, Chard & Chard,
//! *Probabilistic Guarantees of Execution Duration for Amazon Spot
//! Instances* (SC'17): predict the minimum maximum-bid that keeps a spot
//! instance running for a requested duration with a target probability,
//! plus every substrate the paper's evaluation needs (a spot-market
//! simulator, the QBETS forecasting stack, a backtesting engine, and a
//! workflow-platform provisioner).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`forecast`] (`tsforecast`) — QBETS, binomial quantile bounds,
//!   change-point detection, AR models, order-statistic multisets.
//! * [`market`] (`spotmarket`) — prices, catalog, market clearing, trace
//!   generation, billing, launch simulation.
//! * [`core`] (`drafts-core`) — the two-step DrAFTS predictor, bid-duration
//!   graphs, policies, AZ selection, the cost optimizer, and the service.
//! * [`backtesting`] (`backtest`) — the §4.1/§4.4 evaluation engine.
//! * [`platform`] (`provisioner`) — the §4.3 workload-replay substrate.
//! * [`strategy`] — pluggable bidding strategies (DrAFTS, adaptive
//!   spot/on-demand switching with online availability estimation,
//!   portfolio splits, baselines) for the strategy-driven replay.
//! * [`rng`] (`simrng`) — deterministic random streams.
//! * [`parallel`] — the std-only thread pool the engine and the
//!   experiment harnesses fan out on (`DRAFTS_THREADS` sizes it).
//!
//! # Quickstart
//!
//! ```
//! use drafts::core::predictor::{DraftsConfig, DraftsPredictor};
//! use drafts::market::{tracegen, Az, Catalog, Combo};
//!
//! let catalog = Catalog::standard();
//! let combo = Combo::new(
//!     Az::parse("us-west-2a").unwrap(),
//!     catalog.type_id("c4.large").unwrap(),
//! );
//! let history =
//!     tracegen::generate(combo, catalog, &tracegen::TraceConfig::days(30, 7));
//! let predictor = DraftsPredictor::new(&history, DraftsConfig::default());
//! let quote = predictor.bid_quote(history.len() - 1, 0.95, 3600);
//! println!("bid {} for a 1-hour hold at p = 0.95", quote.bid);
//! ```

pub use backtest as backtesting;
pub use drafts_core as core;
pub use obs;
pub use parallel;
pub use provisioner as platform;
pub use simrng as rng;
pub use spotmarket as market;
pub use strategy;
pub use tsforecast as forecast;
