//! Pipeline profile experiment: `repro profile [--quick]`.
//!
//! Reuses the `serve` plan — an in-process drafts-serve boot plus the
//! seeded open-loop loadgen replay — and reads the per-stage span
//! histograms back out of the server's registry afterwards. The artifact (`profile.csv`) carries one row per
//! pipeline stage with its span count, cumulative (total) time, self
//! time (net of child spans), and self-time share.
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

use crate::common::Scale;
use crate::serve;
use drafts_core::service::SERVICE_STAGES;
use loadgen::RunReport;
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

/// The experiment's output.
pub struct ProfileOutput {
    /// Per-stage rows, in canonical stage order.
    pub rows: Vec<StageRow>,
    /// Summed duration of the root `http_*` spans (ns): the server-side
    /// end-to-end serving time.
    pub root_total_ns: u64,
    /// Summed self time across every stage (ns); equals `root_total_ns`
    /// exactly (see the module docs).
    pub self_sum_ns: u64,
    /// Aggregated loadgen report (client-side view).
    pub report: RunReport,
}

impl ProfileOutput {
    /// The stage with the largest self time — where the pipeline
    /// actually spends its serving time.
    pub fn hot_stage(&self) -> &StageRow {
        self.rows
            .iter()
            .max_by_key(|r| r.self_ns)
            .expect("at least one stage")
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

/// Runs the experiment: boot, replay, read stages.
pub fn run(scale: Scale) -> ProfileOutput {
    // The shared `serve::boot` warms exactly as `repro serve` does: the
    // profile measures steady-state serving — the paper's service
    // recomputes graphs on its 15-minute schedule, not inside a client's
    // request. Warming runs before the server and its tracer start, so
    // the cold QBETS builds (and the single-flight waits they impose on
    // concurrent workers) do not masquerade as per-request serving time.
    let b = serve::boot(serve::plan(scale), scale);
    let metrics = b.server.metrics();

    let report = b.replay();

    let tracer = metrics.tracer().clone();
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
    b.server.shutdown();

    ProfileOutput {
        rows,
        root_total_ns,
        self_sum_ns,
        report,
    }
}

/// Renders `profile.csv`. Columns 1–2 (`stage,count`) are deterministic;
/// the remaining columns are wall clock (CI cuts them before diffing).
pub fn to_csv(out: &ProfileOutput) -> String {
    let mut csv = String::from("stage,count,total_ns,self_ns,self_share_pct\n");
    let denom = out.self_sum_ns.max(1) as f64;
    for r in &out.rows {
        csv.push_str(&format!(
            "{},{},{},{},{:.2}\n",
            r.stage,
            r.count,
            r.total_ns,
            r.self_ns,
            100.0 * r.self_ns as f64 / denom,
        ));
    }
    csv.push_str(&format!(
        "_total,{},{},{},100.00\n",
        out.rows.iter().map(|r| r.count).sum::<u64>(),
        out.root_total_ns,
        out.self_sum_ns,
    ));
    csv
}

/// One-paragraph human summary for stdout.
pub fn summarize(out: &ProfileOutput) -> String {
    let hot = out.hot_stage();
    format!(
        "profile: {} requests, {} spans over {} stages; \
         e2e (http root) {:.2}ms, self-time sum {:.2}ms; \
         hot stage {} ({:.1}% of self time)\n",
        out.report.total(),
        out.rows.iter().map(|r| r.count).sum::<u64>(),
        out.rows.len(),
        out.root_total_ns as f64 / 1e6,
        out.self_sum_ns as f64 / 1e6,
        hot.stage,
        100.0 * hot.self_ns as f64 / out.self_sum_ns.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_decompose_the_end_to_end_serving_time() {
        let out = run(Scale::Quick);
        assert_eq!(out.report.non_ok, 0, "unexpected non-200s");
        // The decomposition identity: summed self time reproduces the
        // summed root-span time. Exact by construction; the 5% bound is
        // the acceptance criterion's slack.
        assert!(out.root_total_ns > 0);
        let ratio = out.self_sum_ns as f64 / out.root_total_ns as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "self-time sum {} vs e2e {} (ratio {ratio})",
            out.self_sum_ns,
            out.root_total_ns,
        );
        // Deterministic columns are identical across runs.
        let cols = |o: &ProfileOutput| {
            to_csv(o)
                .lines()
                .map(|l| l.splitn(3, ',').take(2).collect::<Vec<_>>().join(","))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let again = run(Scale::Quick);
        assert_eq!(cols(&out), cols(&again), "stage,count must be stable");
        assert!(summarize(&out).contains("hot stage"));
    }
}
