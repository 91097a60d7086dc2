//! The cold path against the batch predictor it replaced.
//!
//! The oracle here is the graph code as it stood before the one-pass
//! duration step: one segment-tree descent
//! (`PriceHistory::first_at_or_after_geq`) per start point, a fresh QBETS
//! treap per grid bid fed that series one value at a time with change
//! points off, and one price QBETS per probability level. Every graph the
//! predictor computes and the service publishes must equal it point for
//! point, over every market archetype, change points on and off, the
//! autocorrelation correction on and off (capped below and above the
//! series' rho), every censoring mode, strides 1–5, the edges of the
//! prediction point and a faulty feed's last-good fallback.

use drafts_core::duration::{duration_series, Censoring};
use drafts_core::graph::BidDurationGraph;
use drafts_core::predictor::{BidPrediction, DraftsConfig, DraftsPredictor};
use drafts_core::service::{DraftsService, ServiceConfig};
use spotmarket::archetype::Archetype;
use spotmarket::faults::{FaultPlan, FaultyFeed, FeedSource};
use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
use spotmarket::{Az, Catalog, Combo, Price, PriceHistory, HOUR};
use std::sync::Arc;
use tsforecast::stats::RunningLag1;
use tsforecast::{BoundEstimator, Qbets, QbetsConfig};

const LEVELS: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

fn history(arch: Archetype, seed: u64, days: u64) -> PriceHistory {
    let cat = Catalog::standard();
    let combo = Combo::new(
        Az::parse("us-east-1b").unwrap(),
        cat.type_id("c3.2xlarge").unwrap(),
    );
    generate_with_archetype(combo, cat, &TraceConfig::days(days, seed), arch)
}

fn qbets_config(cfg: &DraftsConfig) -> QbetsConfig {
    QbetsConfig {
        confidence: cfg.confidence,
        changepoint: cfg.changepoint,
        autocorr_correction: cfg.autocorr,
        autocorr_cap: cfg.autocorr_cap,
    }
}

/// The duration series by one descent per start point.
fn descent_series(h: &PriceHistory, upto: usize, bid: Price, cfg: &DraftsConfig) -> Vec<u64> {
    let times = h.series().times();
    let horizon = times[upto];
    let mut out = Vec::new();
    for i in (0..=upto).step_by(cfg.duration_stride) {
        let crossing = match h.first_at_or_after_geq(i + 1, bid) {
            Some(j) if j <= upto => Some(times[j] - times[i]),
            _ => None,
        };
        let window = horizon - times[i];
        match (cfg.censoring, crossing) {
            (Censoring::IncludeElapsed, Some(d)) => out.push(d),
            (Censoring::IncludeElapsed, None) => out.push(window),
            (Censoring::ResolvedOnly, Some(d)) => out.push(d),
            (Censoring::ResolvedOnly, None) => {}
            (Censoring::Capped(cap), Some(d)) => out.push(d.min(cap)),
            (Censoring::Capped(cap), None) => {
                if window >= cap {
                    out.push(cap);
                }
            }
        }
    }
    out
}

/// Step 2 by a fresh treap fed the descent series.
fn oracle_durability(
    h: &PriceHistory,
    cfg: &DraftsConfig,
    upto: usize,
    bid: Price,
    p: f64,
) -> Option<u64> {
    let q = DraftsPredictor::step_quantile(p);
    let series = descent_series(h, upto, bid, cfg);
    let duration_cfg = QbetsConfig {
        changepoint: None,
        ..qbets_config(cfg)
    };
    Qbets::from_history(duration_cfg, &series).lower_bound(1.0 - q)
}

/// Step 1 by one price QBETS per level, falling back to the prefix
/// maximum.
fn oracle_min_bid(h: &PriceHistory, cfg: &DraftsConfig, upto: usize, p: f64) -> Price {
    let q = DraftsPredictor::step_quantile(p);
    let prices = &h.series().values()[..=upto];
    let bound = Qbets::from_history(qbets_config(cfg), prices).upper_bound(q);
    Price::from_ticks(bound.unwrap_or_else(|| *prices.iter().max().unwrap())) + Price::TICK
}

fn oracle_points(
    h: &PriceHistory,
    cfg: &DraftsConfig,
    upto: usize,
    p: f64,
) -> Option<Vec<BidPrediction>> {
    let grid = DraftsPredictor::new(h, *cfg).bid_grid(oracle_min_bid(h, cfg, upto, p));
    let mut points: Vec<BidPrediction> = grid
        .into_iter()
        .filter_map(|bid| {
            let durability_secs = oracle_durability(h, cfg, upto, bid, p)?;
            Some(BidPrediction {
                bid,
                durability_secs,
            })
        })
        .collect();
    let mut best = 0u64;
    for point in &mut points {
        best = best.max(point.durability_secs);
        point.durability_secs = best;
    }
    (!points.is_empty()).then_some(points)
}

fn oracle_graphs(
    h: &PriceHistory,
    cfg: &DraftsConfig,
    upto: usize,
    levels: &[f64],
) -> Vec<(f64, Vec<BidPrediction>)> {
    levels
        .iter()
        .filter_map(|&p| Some((p, oracle_points(h, cfg, upto, p)?)))
        .collect()
}

/// Every archetype and seed under `cfg`: graphs at four prediction points
/// and four levels, and single-bid durabilities and duration series at
/// off-grid bids. Returns how many duration series had a lag-1
/// autocorrelation above the configured cap.
fn check_config(cfg: DraftsConfig) -> usize {
    let mut above_cap = 0;
    for arch in Archetype::ALL {
        for seed in [11, 12] {
            let h = history(arch, seed, 6);
            let pred = DraftsPredictor::new(&h, cfg);
            let last = h.len() - 1;
            for upto in [0, 1, last / 2, last] {
                for p in LEVELS {
                    let what = format!("{arch:?} seed {seed} upto {upto} p {p} {cfg:?}");
                    let graph = BidDurationGraph::compute(&pred, upto, p);
                    assert!(graph
                        .as_ref()
                        .is_none_or(|g| g.probability == p && g.computed_at == 0));
                    let points = graph.map(|g| g.points().to_vec());
                    assert_eq!(points, oracle_points(&h, &cfg, upto, p), "graph, {what}");
                }
                let min = oracle_min_bid(&h, &cfg, upto, 0.95);
                let max = h.max_price().unwrap();
                for bid in [
                    Price::TICK,
                    min.scale(0.9),
                    min.scale(1.37),
                    max,
                    max + Price::TICK,
                ] {
                    let series = descent_series(&h, upto, bid, &cfg);
                    assert_eq!(
                        duration_series(&h, upto, bid, cfg.duration_stride, cfg.censoring),
                        series
                    );
                    if series.len() >= 3
                        && RunningLag1::from_slice(&series).lag1_autocorr() > cfg.autocorr_cap
                    {
                        above_cap += 1;
                    }
                    for p in [0.5, 0.95] {
                        assert_eq!(
                            pred.durability(upto, bid, p),
                            oracle_durability(&h, &cfg, upto, bid, p),
                            "durability of {bid} at p {p}, {arch:?} seed {seed} upto {upto} {cfg:?}"
                        );
                    }
                }
            }
        }
    }
    above_cap
}

#[test]
fn default_config_graphs_equal_the_batch_oracle() {
    // Change points on, autocorrelation correction capped at 0.3,
    // one-day cap, every start point.
    assert!(check_config(DraftsConfig::default()) > 0);
}

#[test]
fn uncorrected_elapsed_graphs_equal_the_batch_oracle() {
    check_config(DraftsConfig {
        changepoint: None,
        autocorr: false,
        censoring: Censoring::IncludeElapsed,
        duration_stride: 2,
        ..DraftsConfig::default()
    });
}

#[test]
fn resolved_only_graphs_equal_the_batch_oracle() {
    let cfg = DraftsConfig {
        autocorr_cap: 0.9,
        censoring: Censoring::ResolvedOnly,
        duration_stride: 3,
        ..DraftsConfig::default()
    };
    assert!(check_config(cfg) > 0, "no series reached the 0.9 cap");
}

#[test]
fn short_cap_graphs_equal_the_batch_oracle() {
    check_config(DraftsConfig {
        changepoint: None,
        censoring: Censoring::Capped(6 * HOUR),
        duration_stride: 5,
        ..DraftsConfig::default()
    });
}

#[test]
fn change_point_elapsed_graphs_equal_the_batch_oracle() {
    check_config(DraftsConfig {
        autocorr: false,
        censoring: Censoring::IncludeElapsed,
        duration_stride: 4,
        ..DraftsConfig::default()
    });
}

/// The history the service holds at `bucket_time`: its poll with the
/// service's retry schedule, `None` when every attempt fails.
fn polled(feed: &FaultyFeed, cfg: &ServiceConfig, bucket_time: u64) -> Option<Arc<PriceHistory>> {
    let mut poll_at = bucket_time;
    for attempt in 0..=cfg.max_retries {
        if let Ok(h) = feed.poll(poll_at, attempt) {
            return Some(h);
        }
        poll_at += cfg.retry_backoff << attempt;
    }
    None
}

/// Drives a service with `drafts` over a `FaultyFeed` outage of an `arch`
/// market, through hourly buckets of the last two days: every published
/// graph, fresh or last-good, must equal the oracle on the polled history.
fn check_service_through_outage(arch: Archetype, drafts: DraftsConfig) {
    let truth = Arc::new(history(arch, 5, 6));
    let combo = truth.combo();
    let plan = FaultPlan {
        outages_per_day: 3.0,
        outage_mean_secs: 2.0 * HOUR as f64,
        ..FaultPlan::none(17)
    };
    let feed = Arc::new(FaultyFeed::new(truth.clone(), plan));
    let cfg = ServiceConfig {
        probabilities: LEVELS.to_vec(),
        drafts,
        ..ServiceConfig::default()
    };
    let mut service = DraftsService::new(cfg.clone());
    service.register_feed(feed.clone());

    let period = cfg.recompute_period;
    let mut last_good: Option<Vec<(f64, Vec<BidPrediction>)>> = None;
    let (mut fresh, mut fallback) = (0, 0);
    // Hourly buckets over the last two days.
    let end = truth.time(truth.len() - 1) / period;
    for bucket in (end - 48 * HOUR / period..=end).step_by((HOUR / period) as usize) {
        let bucket_time = bucket * period;
        let computed = polled(&feed, &cfg, bucket_time).and_then(|h| {
            let upto = h.series().index_at(bucket_time)?;
            Some(oracle_graphs(&h, &cfg.drafts, upto, &cfg.probabilities))
        });
        let response = service.fetch(combo, bucket_time);
        let expected = match computed {
            Some(graphs) => {
                fresh += 1;
                if response.as_ref().is_some_and(|r| r.is_guaranteed()) {
                    last_good = Some(graphs.clone());
                }
                Some(graphs)
            }
            None => {
                fallback += 1;
                last_good.clone()
            }
        };
        let served = response.map(|r| {
            r.graphs
                .graphs
                .iter()
                .map(|g| (g.probability, g.points().to_vec()))
                .collect::<Vec<_>>()
        });
        assert_eq!(served, expected, "bucket {bucket}, {arch:?} {drafts:?}");
    }
    assert!(
        fresh > 0 && fallback > 0,
        "fresh {fresh}, fallback {fallback}"
    );
}

#[test]
fn service_graphs_through_a_feed_outage_equal_the_batch_oracle() {
    // Change points on: one price QBETS serves every level.
    check_service_through_outage(
        Archetype::Choppy,
        DraftsConfig {
            duration_stride: 3,
            ..DraftsConfig::default()
        },
    );
    // Change points off, correction on: each level selects its price
    // bound from its own copy of the prefix. The prefix's lag-1 rho (about
    // 0.78 on this spiky market) sits under the 0.9 cap, and one level's
    // selection reorders the prefix into runs that read another rho: a
    // later level that took rho from the reordered buffer would publish
    // other minimum bids at some of these buckets.
    check_service_through_outage(
        Archetype::Spiky,
        DraftsConfig {
            changepoint: None,
            autocorr_cap: 0.9,
            duration_stride: 3,
            ..DraftsConfig::default()
        },
    );
}
