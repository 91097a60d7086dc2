//! Duration-series derivation ablation: the one-pass scan
//! (`duration_series`) versus a naive quadratic scan that searches forward
//! from every start point.

use bench::timing::{black_box, Harness};
use drafts_core::duration::{duration_series, Censoring};
use spotmarket::Price;

fn main() {
    let history = bench::bench_history();
    let upto = history.len() - 1;
    let bid = bench::bench_od().scale(0.5);

    let mut h = Harness::new("duration");
    h.bench("one_pass_series", || {
        black_box(duration_series(
            &history,
            black_box(upto),
            bid,
            3,
            Censoring::Capped(86_400),
        ))
        .len()
    });
    // Naive O(n^2) baseline for the same computation.
    let times = history.series().times();
    let values = history.series().values();
    h.bench("linear_scan_series", || {
        let mut out = Vec::new();
        let cap = 86_400u64;
        let horizon = times[upto];
        let mut i = 0usize;
        while i <= upto {
            let mut crossing = None;
            for j in (i + 1)..=upto {
                if Price::from_ticks(values[j]) >= bid {
                    crossing = Some(times[j] - times[i]);
                    break;
                }
            }
            match crossing {
                Some(d) => out.push(d.min(cap)),
                None if horizon - times[i] >= cap => out.push(cap),
                None => {}
            }
            i += 3;
        }
        black_box(out.len())
    });
}
