//! `repro` — regenerates every table and figure of the SC'17 DrAFTS paper.
//!
//! ```text
//! repro <experiment> [--quick]
//! experiment: table1 | figure1 | figure2 | figure3 | figure4
//!           | table2 | table3 | table4 | table5 | tightness
//!           | reflexivity | faults | serve | bench
//!           | fleet | strategies | trace | all
//!
//! `serve` boots the drafts-serve HTTP layer on an ephemeral loopback
//! port, replays the seeded loadgen workload against it, and writes the
//! server tracer's per-stage profile (`profile.csv`: where each request
//! spends its time per pipeline stage) beside `serve.csv` and
//! `serve_latency.csv`. `bench` runs the timing-harness
//! benches over that boot plus the QBETS kernels and writes the
//! `BENCH_serve.json` / `BENCH_qbets.json` / `BENCH_fleet.json`
//! trajectory files into the current directory (override with
//! `DRAFTS_BENCH_DIR`). `fleet` boots the sharded fleet behind the
//! consistent-hash front once per chaos scenario (0/1/2 shards killed
//! mid-run) and writes the deterministic failover/attainment artifact
//! `fleet.csv`. `strategies` runs the bidding-strategy arena (six
//! strategies x three advisory-plane degradation intensities) and
//! writes the byte-deterministic `strategies.csv`. `trace` replays the
//! fleet workload with the distributed-trace rings on under a one-kill
//! chaos plan, reconstructs every request's fleet-merged timeline via
//! the front's `/v1/_debug/trace/{id}` route, and writes the
//! byte-deterministic attribution artifact `traces.csv`. None of
//! serve/bench is part of `all`: their wall-clock halves
//! depend on the machine.
//! ```
//!
//! Artifacts (rendered tables + CSV series) land in `results/` (override
//! with `DRAFTS_RESULTS_DIR`).

use experiments::common::{self, Scale};
use experiments::{
    benchrun, faults, figure1, figure4, fleet, launch, profile, reflexivity, serve, strategies,
    table1, table2, table3, table45, traces,
};
use obs::Stopwatch;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(args.iter().cloned());
    let which = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();

    let t0 = Stopwatch::start();
    match which.as_str() {
        "table1" => run_table1(scale),
        "figure1" => run_figure1(scale),
        "figure2" => run_launch("figure2", launch::LaunchConfig::figure2()),
        "figure3" => run_launch("figure3", launch::LaunchConfig::figure3()),
        "figure4" => run_figure4(),
        "table2" => run_table2(scale),
        "table3" => run_table3(scale),
        "table4" => run_table45(scale, 4),
        "table5" => run_table45(scale, 5),
        "tightness" => run_tightness(scale),
        "reflexivity" => run_reflexivity(),
        "faults" => run_faults(scale),
        "serve" => run_serve(scale),
        "bench" => run_bench(scale),
        "fleet" => run_fleet(scale),
        "strategies" => run_strategies(scale),
        "trace" => run_trace(scale),
        "all" => {
            run_table1_figure1_table4(scale);
            run_table45(scale, 5);
            run_launch("figure2", launch::LaunchConfig::figure2());
            run_launch("figure3", launch::LaunchConfig::figure3());
            run_figure4();
            run_table2(scale);
            run_table3(scale);
            run_reflexivity();
            run_faults(scale);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected table1|figure1|figure2|figure3|\
                 figure4|table2|table3|table4|table5|tightness|reflexivity|faults|serve|\
                 bench|fleet|strategies|trace|all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("[done in {:.1?}]", t0.elapsed());
}

fn run_table1(scale: Scale) {
    let out = table1::run(scale);
    let table = table1::render(&out);
    println!("{}", table.render());
    let path = common::results_dir().join("table1.csv");
    table.write_csv(&path).expect("write table1 csv");
    eprintln!("wrote {}", common::display(&path));
}

fn run_figure1(scale: Scale) {
    let out = table1::run(scale);
    emit_figure1(&out);
}

fn emit_figure1(out: &table1::Table1Output) {
    let points = figure1::cdf(&out.result);
    print!("{}", figure1::summarize(&points));
    let path = common::write_artifact("figure1.csv", &figure1::to_csv(&points));
    eprintln!("wrote {}", common::display(&path));
}

/// Shares one p = 0.99 backtest across Table 1, Figure 1 and Table 4.
fn run_table1_figure1_table4(scale: Scale) {
    let out = table1::run(scale);
    let table = table1::render(&out);
    println!("{}", table.render());
    table
        .write_csv(&common::results_dir().join("table1.csv"))
        .expect("write table1 csv");
    emit_figure1(&out);
    let cost = table45::from_result(&out.result);
    emit_cost(&cost, 4);
}

fn run_table45(scale: Scale, table_no: u8) {
    let probability = if table_no == 4 { 0.99 } else { 0.95 };
    let cost = table45::run(scale, probability);
    emit_cost(&cost, table_no);
}

fn emit_cost(cost: &table45::CostOutput, table_no: u8) {
    let table = table45::render(cost, table_no);
    println!("{}", table.render());
    print!("{}", table45::tightness_summary(cost));
    let path = common::results_dir().join(format!("table{table_no}.csv"));
    table.write_csv(&path).expect("write cost csv");
    eprintln!("wrote {}", common::display(&path));
}

fn run_tightness(scale: Scale) {
    let cost = table45::run(scale, 0.99);
    print!("{}", table45::tightness_summary(&cost));
}

fn run_launch(name: &str, cfg: launch::LaunchConfig) {
    let out = launch::run(&cfg);
    println!(
        "{name}: {} launches of {} in {}, p = {}: {} failures",
        out.records.len(),
        cfg.type_name,
        cfg.region.name(),
        cfg.probability,
        out.failures()
    );
    let path = common::write_artifact(&format!("{name}.csv"), &out.to_csv());
    eprintln!("wrote {}", common::display(&path));
}

fn run_figure4() {
    let out = figure4::run();
    print!("{}", figure4::summarize(&out));
    let path = common::write_artifact("figure4.csv", &figure4::to_csv(&out));
    eprintln!("wrote {}", common::display(&path));
}

fn run_table2(scale: Scale) {
    let out = table2::run(scale);
    let table = table2::render(&out);
    println!("{}", table.render());
    table
        .write_csv(&common::results_dir().join("table2.csv"))
        .expect("write table2 csv");
}

fn run_reflexivity() {
    let outcomes = reflexivity::run();
    let table = reflexivity::render(&outcomes);
    println!("{}", table.render());
    table
        .write_csv(&common::results_dir().join("reflexivity.csv"))
        .expect("write reflexivity csv");
}

fn run_faults(scale: Scale) {
    let out = faults::run(scale);
    let table = faults::render(&out);
    println!("{}", table.render());
    assert!(
        out.conservative(),
        "fault degradation must stay conservative"
    );
    table
        .write_csv(&common::results_dir().join("faults.csv"))
        .expect("write faults csv");
    eprintln!(
        "wrote {}",
        common::display(&common::results_dir().join("faults.csv"))
    );
}

fn run_serve(scale: Scale) {
    let out = serve::run(scale);
    print!("{}", serve::summarize(&out));
    print!("{}", profile::summarize(&out.profile));
    for (name, csv) in [
        ("serve.csv", serve::deterministic_csv(&out)),
        ("serve_latency.csv", serve::latency_csv(&out)),
        ("profile.csv", profile::to_csv(&out.profile)),
    ] {
        let path = common::write_artifact(name, &csv);
        eprintln!("wrote {}", common::display(&path));
    }
}

fn run_bench(scale: Scale) {
    let out = benchrun::run(scale);
    print!("{}", benchrun::summarize(&out));
    let dir = benchrun::bench_dir();
    for (name, json) in [
        ("BENCH_serve.json", &out.serve_json),
        ("BENCH_qbets.json", &out.qbets_json),
        ("BENCH_fleet.json", &out.fleet_json),
        ("BENCH_strategy.json", &out.strategy_json),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, json).expect("write bench trajectory");
        eprintln!("wrote {}", common::display(&path));
    }
}

fn run_fleet(scale: Scale) {
    let out = fleet::run(scale);
    print!("{}", fleet::summarize(&out));
    let path = common::write_artifact("fleet.csv", &fleet::deterministic_csv(&out));
    eprintln!("wrote {}", common::display(&path));
}

fn run_trace(scale: Scale) {
    let out = traces::run(scale);
    print!("{}", traces::summarize(&out));
    let path = common::write_artifact("traces.csv", &traces::deterministic_csv(&out));
    eprintln!("wrote {}", common::display(&path));
}

fn run_strategies(scale: Scale) {
    let out = strategies::run(scale);
    print!("{}", strategies::summarize(&out));
    let path = common::write_artifact("strategies.csv", &strategies::deterministic_csv(&out));
    eprintln!("wrote {}", common::display(&path));
}

fn run_table3(scale: Scale) {
    let out = table3::run(scale);
    let table = table3::render(&out);
    println!("{}", table.render());
    table
        .write_csv(&common::results_dir().join("table3.csv"))
        .expect("write table3 csv");
}
