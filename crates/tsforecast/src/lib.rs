//! Non-parametric time-series quantile-bound forecasting.
//!
//! This crate implements **QBETS** (Queue Bounds Estimation from Time Series,
//! Nurmi, Brevik & Wolski 2008) — the statistical engine behind DrAFTS — plus
//! the baseline estimators the SC'17 paper compares against (AR(1) quantiles
//! and raw empirical-CDF quantiles), and the supporting numerical substrate
//! (log-space binomial CDF, normal CDF/inverse-CDF, order-statistic
//! multisets, change-point detection, autocorrelation compensation).
//!
//! # Values are `u64`
//!
//! Every measurement this workspace forecasts is a non-negative integer:
//! spot prices in ticks of $0.0001 and durations in whole seconds. Using
//! `u64` end-to-end makes order statistics exact (no NaN ordering, no float
//! drift) — only the AR(1) baseline converts to `f64` internally.
//!
//! # The core bound
//!
//! For i.i.d. observations `X_1..X_n` and target quantile `q`, the number of
//! observations exceeding the true `q`-quantile `Q` is `Binomial(n, 1-q)`.
//! Writing `X_(1) >= X_(2) >= ...` for the descending order statistics,
//!
//! ```text
//! P( X_(k) >= Q ) = P( #exceedances >= k ) = 1 - BinomCdf(k-1; n, 1-q)
//! ```
//!
//! so the *largest* `k` with `BinomCdf(k-1; n, 1-q) <= 1-c` makes `X_(k)` the
//! tightest upper `c`-confidence bound on `Q` (paper §3.1, Eq. 2; we use the
//! mathematically explicit form of the inversion). Lower bounds follow by
//! symmetry on ascending order statistics. See [`quantile_bound`].
//!
//! # Example
//!
//! ```
//! use tsforecast::qbets::{Qbets, QbetsConfig};
//! use tsforecast::BoundEstimator;
//!
//! let mut q = Qbets::new(QbetsConfig::default());
//! for v in 0..500u64 {
//!     q.observe(100 + (v * 7919) % 13); // noisy plateau around 100..112
//! }
//! let bound = q.upper_bound(0.975).expect("enough history");
//! assert!(bound >= 110, "upper bound should sit in the upper tail");
//! ```

pub mod ar;
pub mod binomial;
pub mod changepoint;
pub mod ecdf;
pub mod estimator;
pub mod normal;
pub mod orderstat;
pub mod qbets;
pub mod quantile_bound;
pub mod series;
pub mod stats;

pub use estimator::BoundEstimator;
pub use qbets::{Qbets, QbetsConfig, SliceBound};
pub use series::TimeSeries;
