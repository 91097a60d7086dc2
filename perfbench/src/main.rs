//! The repository benchmark: boots the real DrAFTS serving stack
//! in-process, drives one seeded open-loop workload over the loopback
//! from [`drive::CONNECTIONS`] connections, checks every response, and
//! prints its metrics — the end-to-end set (`--trace 0`) or the
//! per-layer ledger of a traced run (`--trace 1`). The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! ```text
//! perfbench --workload quote_mixed|bucket_roll|fleet_mixed
//!           [--seed N] [--seconds S] [--trace 0|1] [--spans DIR]
//! ```
//!
//! Exit code 0 when every response checked out, 1 when any failed the
//! check, 2 on bad arguments. `--boot-only` (used by the benchmark itself)
//! boots the workload's stack, prints the set-up time in seconds, and
//! exits.

mod check;
mod drive;
mod layers;
mod plan;
mod spans;
mod spin;
mod stack;
mod stats;

use check::{Reference, Verdict};
use drive::Phase;
use obs::Stopwatch;
use plan::Plan;
use stack::{Counts, Population, Stack};
use std::path::PathBuf;

/// Seed used when `--seed` is absent (the repository's experiment seed).
const DEFAULT_SEED: u64 = 20171112;
/// The measured phase runs as this many consecutive slices of one plan.
/// Between two slices an untraced run times one cold boot of the stack in
/// a child process (for `setup_s`), so the boot samples spread evenly over
/// the run: the machine's speed drifts over seconds, and boots bunched
/// together all see the same moment of it.
const SLICES: usize = 10;
/// Child-process boots between two slices: with the measured stack's own
/// boot, `setup_s` is the median of 1 + 1 × (SLICES − 1) = 10 cold boots.
const GAP_BOOTS: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One instance, mixed reads inside one warmed bucket.
    QuoteMixed,
    /// One instance, bid + health traffic rolling the bucket regularly.
    BucketRoll,
    /// The 3-shard fleet behind its routing front, one bucket.
    FleetMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::QuoteMixed,
        Workload::BucketRoll,
        Workload::FleetMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::QuoteMixed => "quote_mixed",
            Workload::BucketRoll => "bucket_roll",
            Workload::FleetMixed => "fleet_mixed",
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
    boot_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut spans = None;
    let mut boot_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--boot-only" => boot_only = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
        boot_only,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload quote_mixed|bucket_roll|fleet_mixed \
                 [--seed N] [--seconds S] [--trace 0|1] [--spans DIR]"
            );
            std::process::exit(2);
        }
    };
    if args.boot_only {
        let sw = Stopwatch::start();
        let stack = Stack::boot(args.workload);
        println!("{:?}", sw.elapsed().as_secs_f64());
        stack.shutdown();
        return;
    }
    let spinners = spin::Spinners::start();
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    spinners.stop();
    println!("{}", result.json());
    std::process::exit(if result.correct { 0 } else { 1 });
}

/// What one run reports.
struct Outcome {
    correct: bool,
    verdict: Verdict,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.verdict.attempted,
            self.verdict.failed,
            metrics.join(", ")
        )
    }
}

/// A booted stack with its measured plan replayed once, open loop.
struct Measured {
    stack: Stack,
    plan: Plan,
    phase: Phase,
    counts: Counts,
    /// Entry-server span self time per [`stages`] entry over the phase.
    stage_self_ns: Vec<u64>,
}

/// Warms the stack's connections with a short pinned-bucket plan, then
/// replays the measured plan in [`SLICES`] slices, calling `between`
/// between two slices.
fn measure(
    args: &Args,
    pop: &Population,
    stack: Stack,
    traced: bool,
    mut between: impl FnMut(),
) -> Measured {
    let w = args.workload;
    let warmup = Plan::warmup(w, &pop.combos, args.seed);
    drive::run(stack.entry(), &warmup, 0..warmup.len(), false);
    let plan = Plan::measured(w, &pop.combos, pop.now, args.seed, args.seconds);
    let tracer = stack.entry_metrics().tracer().clone();
    let self_ns = || -> Vec<u64> {
        stages()
            .into_iter()
            .map(|stage| tracer.stage_stats(stage).self_time.sum_ns())
            .collect()
    };
    let stages_before = self_ns();
    let before = stack.counts();
    let mut slices = Vec::with_capacity(SLICES);
    for (k, range) in plan.chunks(SLICES).into_iter().enumerate() {
        if k > 0 {
            between();
        }
        let slice = drive::run(stack.entry(), &plan.requests, range, traced);
        println!(
            "slice {k}: p50_us={:.3} p90_us={:.3} cpu_us_per_req={:.3}",
            slice.latency_us(0.5),
            slice.latency_us(0.9),
            slice.cpu_us_per_req()
        );
        slices.push(slice);
    }
    let phase = Phase::join(slices);
    let counts = stack.counts() - before;
    let stage_self_ns = self_ns()
        .into_iter()
        .zip(stages_before)
        .map(|(after, before)| after - before)
        .collect();
    Measured {
        stack,
        plan,
        phase,
        counts,
        stage_self_ns,
    }
}

/// Checks the phase's responses and the phase's counters.
fn verify(args: &Args, pop: &Population, m: &Measured) -> (Verdict, bool) {
    let reference = Reference::new(args.workload, pop, &m.stack);
    let verdict = check::check(&m.plan, &m.phase, &reference);
    let counts_ok = match m.plan.roll_every {
        // Every fresh bucket rebuilds every combo exactly once.
        Some(_) => m.counts.computes == (m.plan.rolls().len() * pop.combos.len()) as u64,
        // Inside one warmed bucket nothing computes and no read locks.
        None => m.counts.computes == 0 && m.counts.read_locks == 0,
    };
    let counts = m.counts;
    let [graphs, bid, health, metrics] = m.plan.route_counts();
    println!(
        "plan: workload={} seed={} requests={} graphs={graphs} bid={bid} health={health} \
         metrics={metrics} rolls={} checksum={:016x}",
        args.workload.name(),
        args.seed,
        m.plan.requests.len(),
        m.plan.rolls().len(),
        m.plan.checksum()
    );
    println!(
        "check: attempted={} failed={} fail_frac={} transport_errors={} non_ok={} \
         mismatches={} bid_violations={}",
        verdict.attempted,
        verdict.failed,
        verdict.fail_frac(),
        verdict.transport_errors,
        verdict.non_ok,
        verdict.mismatches,
        verdict.bid_violations
    );
    println!(
        "counts: computes={} read_locks={} snapshot_swaps={} stampede_waits={} \
         failed_over={} proxy_errors={} refused={} ({})",
        counts.computes,
        counts.read_locks,
        counts.snapshot_swaps,
        counts.stampede_waits,
        counts.failed_over,
        counts.proxy_errors,
        counts.refused,
        if counts_ok {
            "as expected"
        } else {
            "UNEXPECTED"
        }
    );
    (verdict, counts_ok)
}

/// Cold-boots `workload`'s stack in a child process running this program
/// with `--boot-only`, waits for it, and returns its set-up time in
/// seconds. A fresh process boots as cold as the measured one did, and the
/// throwaway stack's memory stays out of the measured process's peak RSS.
fn child_boot(workload: Workload) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--boot-only"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a child boot");
    assert!(out.status.success(), "child boot exited {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .unwrap_or_else(|_| panic!("child boot printed {text:?}, not its set-up seconds"))
}

fn untraced(args: &Args) -> Outcome {
    let pop = Population::of(args.workload);
    let sw = Stopwatch::start();
    let stack = Stack::boot(args.workload);
    let mut boots = vec![sw.elapsed().as_secs_f64()];
    let m = measure(args, &pop, stack, false, || {
        boots.extend((0..GAP_BOOTS).map(|_| child_boot(args.workload)));
    });
    let peak_rss_mb = stats::peak_rss_mb();
    let (verdict, counts_ok) = verify(args, &pop, &m);
    // The first request of each bucket the plan opens is a roll: shown
    // here, reported in the traced run's ledger as `roll_ms`.
    let rolls: Vec<f64> = m
        .plan
        .rolls()
        .into_iter()
        .map(|i| m.phase.samples[i].latency_ns() as f64 / 1e6)
        .collect();
    let drained = m.stack.shutdown();
    let drain_ok = drained.admitted_minus_served == 0;
    println!(
        "boots_s={boots:?} rolls_ms={rolls:?} shed={} admitted_minus_served={}",
        drained.shed, drained.admitted_minus_served
    );
    let metrics = vec![
        Metric::new("setup_s", stats::median(&boots), "s"),
        Metric::new("p50_us", m.phase.latency_us(0.50), "us"),
        Metric::new("p90_us", m.phase.latency_us(0.90), "us"),
        Metric::new("cpu_us_per_req", m.phase.cpu_us_per_req(), "us"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    print_table(&metrics);
    Outcome {
        correct: verdict.failed == 0 && counts_ok && drain_ok,
        verdict,
        metrics,
    }
}

/// Server span stages whose self time the ledger reports.
fn stages() -> Vec<&'static str> {
    server::Route::ALL
        .iter()
        .filter(|r| **r != server::Route::Other)
        .map(|r| r.stage())
        .chain(drafts_core::service::SERVICE_STAGES.iter().copied())
        .collect()
}

fn traced(args: &Args) -> Outcome {
    let pop = Population::of(args.workload);

    // The untraced baseline the tracing overhead is measured against,
    // on its own cold boot (bucket_roll needs fresh buckets to roll).
    let base = measure(args, &pop, Stack::boot(args.workload), false, || {});
    let (base_verdict, base_counts_ok) = verify(args, &pop, &base);
    let base_p50 = base.phase.latency_us(0.5);
    let base_cpu = base.phase.cpu_us_per_req();
    base.stack.shutdown();

    let mut m = measure(args, &pop, Stack::boot(args.workload), true, || {});
    let (verdict, counts_ok) = verify(args, &pop, &m);

    let mut replay = spans::SpanLog::default();
    let mut metrics = layers::request_path(&m.stack, &m.plan, &pop, &mut replay);
    metrics.extend(layers::cold_path(&m.stack, &m.plan, &pop, &mut replay));
    let generator = std::mem::take(&mut m.phase.spans);
    let drained = m.stack.shutdown();

    let c = m.counts;
    let served = m.phase.ok().max(1) as f64;
    metrics.extend([
        Metric::new("service.computes", c.computes as f64, "count"),
        Metric::new("service.stampede_waits", c.stampede_waits as f64, "count"),
        Metric::new("service.read_locks", c.read_locks as f64, "count"),
        Metric::new("service.snapshot_swaps", c.snapshot_swaps as f64, "count"),
        Metric::new("fleet.failed_over", c.failed_over as f64, "count"),
        Metric::new("fleet.proxy_errors", c.proxy_errors as f64, "count"),
        Metric::new("fleet.refused", c.refused as f64, "count"),
        Metric::new("server.shed", drained.shed as f64, "count"),
        Metric::new(
            "server.admitted_minus_served",
            drained.admitted_minus_served as f64,
            "count",
        ),
        Metric::new("loadgen.wake_late_p50_us", m.phase.wake_late_p50_us(), "us"),
        Metric::new("loadgen.late_p99_us", m.phase.late_p99_us(), "us"),
    ]);
    for (stage, ns) in stages().into_iter().zip(&m.stage_self_ns) {
        let us = *ns as f64 / 1e3 / served;
        metrics.push(Metric::new(format!("obs.self_us.{stage}"), us, "us"));
    }
    let pct = |traced: f64, base: f64| 100.0 * (traced - base) / base;
    metrics.extend([
        Metric::new(
            "trace.overhead_pct",
            pct(m.phase.latency_us(0.5), base_p50),
            "%",
        ),
        Metric::new(
            "trace.overhead_cpu_pct",
            pct(m.phase.cpu_us_per_req(), base_cpu),
            "%",
        ),
    ]);
    print_table(&metrics);
    print_self_times("generator", &generator);
    print_self_times("layers", &replay);

    if let Some(dir) = &args.spans {
        for (name, log) in [("generator", &generator), ("layers", &replay)] {
            let path = dir.join(format!("{}-{name}.tsv", args.workload.name()));
            if let Err(e) = log.write_tsv(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }

    let verdict = Verdict {
        attempted: base_verdict.attempted + verdict.attempted,
        failed: base_verdict.failed + verdict.failed,
        ..verdict
    };
    Outcome {
        correct: verdict.failed == 0
            && base_counts_ok
            && counts_ok
            && drained.admitted_minus_served == 0,
        verdict,
        metrics,
    }
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>16.3} {}", m.name, m.value, m.unit);
    }
}

fn print_self_times(label: &str, log: &spans::SpanLog) {
    let by = log.self_ns_by_name();
    let total: u64 = by.values().sum();
    println!(
        "self time of the {label} spans ({} spans):",
        log.spans.len()
    );
    for (name, ns) in by {
        println!(
            "  {name:<32} {:>12.3} ms {:>6.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}
