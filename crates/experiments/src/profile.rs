//! Pipeline profile: the per-stage table `repro serve` writes as
//! `profile.csv`.
//!
//! Every server worker installs the span tracer, so the serve replay
//! already records each request's stage tree; [`StageTable::read`] reads
//! the per-stage span histograms back out of that tracer afterwards. The
//! artifact carries one row per pipeline stage with its span count,
//! cumulative (total) time, self time (net of child spans), and self-time
//! share. `repro bench` reads its `svc_fetch_self_pct` from the same
//! table.
//!
//! Determinism boundary, as everywhere in this repo: the `stage` and
//! `count` columns are pure functions of the seed (CI runs the
//! experiment twice and compares them); the `*_ns` and share columns are
//! wall clock and are cut before the comparison.
//!
//! The self-time accounting is exact by construction: every span's self
//! time is its total minus its children's totals, so summed over all
//! stages the self times reproduce the summed duration of the root
//! (`http_*`) spans to the nanosecond — the per-stage rows are a true
//! decomposition of end-to-end serving time, not estimates.

use drafts_core::service::SERVICE_STAGES;
use obs::Tracer;
use server::Route;

/// One stage of the serving pipeline, measured.
#[derive(Debug, Clone, Copy)]
pub struct StageRow {
    /// Stage name (span label).
    pub stage: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Cumulative wall time, children included (ns).
    pub total_ns: u64,
    /// Self wall time, net of child spans (ns).
    pub self_ns: u64,
}

/// Every stage of the serving pipeline, read from one tracer.
pub struct StageTable {
    /// Per-stage rows, in canonical stage order.
    pub rows: Vec<StageRow>,
    /// Summed duration of the root `http_*` spans (ns): the server-side
    /// end-to-end serving time.
    pub root_total_ns: u64,
    /// Summed self time across every stage (ns); equals `root_total_ns`
    /// exactly (see the module docs).
    pub self_sum_ns: u64,
}

impl StageTable {
    /// Reads every stage of [`stages`], in that order, from `tracer`.
    pub fn read(tracer: &Tracer) -> StageTable {
        let rows: Vec<StageRow> = stages()
            .into_iter()
            .map(|stage| {
                let stats = tracer.stage_stats(stage);
                StageRow {
                    stage,
                    count: stats.total.count(),
                    total_ns: stats.total.sum_ns(),
                    self_ns: stats.self_time.sum_ns(),
                }
            })
            .collect();
        let root_total_ns = rows
            .iter()
            .filter(|r| r.stage.starts_with("http_"))
            .map(|r| r.total_ns)
            .sum();
        let self_sum_ns = rows.iter().map(|r| r.self_ns).sum();
        StageTable {
            rows,
            root_total_ns,
            self_sum_ns,
        }
    }

    /// The stage with the largest self time — where the pipeline
    /// actually spends its serving time.
    pub fn hot_stage(&self) -> &StageRow {
        self.rows
            .iter()
            .max_by_key(|r| r.self_ns)
            .expect("at least one stage")
    }

    /// `stage`'s self time as a percentage of the summed self time (0
    /// for a stage the table does not carry).
    pub fn self_share_pct(&self, stage: &str) -> f64 {
        let self_ns = self
            .rows
            .iter()
            .find(|r| r.stage == stage)
            .map_or(0, |r| r.self_ns);
        100.0 * self_ns as f64 / self.self_sum_ns.max(1) as f64
    }
}

/// Every stage the profiled server records, in canonical order: the
/// per-route roots first, then the service/predictor stages beneath them.
pub(crate) fn stages() -> Vec<&'static str> {
    Route::ALL
        .iter()
        .map(|r| r.stage())
        .chain(SERVICE_STAGES.iter().copied())
        .collect()
}

/// Renders `profile.csv`. Columns 1–2 (`stage,count`) are deterministic;
/// the remaining columns are wall clock (CI cuts them before diffing).
pub fn to_csv(table: &StageTable) -> String {
    let mut csv = String::from("stage,count,total_ns,self_ns,self_share_pct\n");
    for r in &table.rows {
        csv.push_str(&format!(
            "{},{},{},{},{:.2}\n",
            r.stage,
            r.count,
            r.total_ns,
            r.self_ns,
            table.self_share_pct(r.stage),
        ));
    }
    csv.push_str(&format!(
        "_total,{},{},{},100.00\n",
        table.rows.iter().map(|r| r.count).sum::<u64>(),
        table.root_total_ns,
        table.self_sum_ns,
    ));
    csv
}

/// One-paragraph human summary for stdout.
pub fn summarize(table: &StageTable) -> String {
    let hot = table.hot_stage();
    format!(
        "profile: {} spans over {} stages; \
         e2e (http root) {:.2}ms, self-time sum {:.2}ms; \
         hot stage {} ({:.1}% of self time)\n",
        table.rows.iter().map(|r| r.count).sum::<u64>(),
        table.rows.len(),
        table.root_total_ns as f64 / 1e6,
        table.self_sum_ns as f64 / 1e6,
        hot.stage,
        table.self_share_pct(hot.stage),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;
    use crate::serve;

    #[test]
    fn self_times_decompose_the_end_to_end_serving_time() {
        let out = serve::run(Scale::Quick);
        assert_eq!(out.report.non_ok, 0, "unexpected non-200s");
        let table = &out.profile;
        // The decomposition identity: summed self time reproduces the
        // summed root-span time. Exact by construction; the 5% bound is
        // the acceptance criterion's slack.
        assert!(table.root_total_ns > 0);
        let ratio = table.self_sum_ns as f64 / table.root_total_ns as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "self-time sum {} vs e2e {} (ratio {ratio})",
            table.self_sum_ns,
            table.root_total_ns,
        );
        // Deterministic columns are identical across runs.
        let cols = |t: &StageTable| {
            to_csv(t)
                .lines()
                .map(|l| l.splitn(3, ',').take(2).collect::<Vec<_>>().join(","))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let again = serve::run(Scale::Quick);
        assert_eq!(
            cols(table),
            cols(&again.profile),
            "stage,count must be stable"
        );
        assert!(summarize(table).contains("hot stage"));
    }
}
