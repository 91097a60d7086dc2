//! End-to-end DrAFTS prediction cost: the batch predictor (per-query
//! rebuild, the paper's ~2-minute server path in miniature) against the
//! sweep's warm quote (the "few milliseconds" incremental path).

use backtest::sweep::{ComboSweep, SweepConfig};
use bench::timing::{black_box, Harness};
use drafts_core::predictor::{DraftsConfig, DraftsPredictor};

fn main() {
    let history = bench::bench_history();
    let od = bench::bench_od();
    let upto = history.len() - 1;

    let mut h = Harness::new("predictor");
    let cfg = DraftsConfig {
        duration_stride: 6,
        ..DraftsConfig::default()
    };
    let pred = DraftsPredictor::new(&history, cfg);
    h.bench("batch_bid_for_duration", || {
        black_box(pred.bid_for_duration(black_box(upto), 0.95, 3600))
    });
    let mut sweep = ComboSweep::new(&history, od, SweepConfig::default());
    sweep.advance_count(history.series().index_at(29 * spotmarket::DAY).unwrap() + 1);
    h.bench("sweep_warm_quote", || {
        black_box(sweep.quote(black_box(0.95), 3600))
    });
}
