//! Reproduction harnesses: one module per table/figure of the SC'17 paper.
//!
//! Every experiment has two scales: [`Scale::Paper`] mirrors the paper's
//! dimensions (452 combos x 300 requests, 100-launch weeks, 35-replay
//! averages) and [`Scale::Quick`] shrinks them for smoke runs. The `repro`
//! binary dispatches by experiment id and writes both human-readable
//! tables and machine-readable CSVs under `results/`.
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | `table1`  | correctness fractions (4 methods)        | [`table1`] |
//! | `figure1` | CDF of sub-0.99 fractions (On-demand)    | [`figure1`] |
//! | `figure2` | 100 launches, c4.large us-east-1         | [`launch`] |
//! | `figure3` | 100 launches, c3.2xlarge us-west-1       | [`launch`] |
//! | `figure4` | bid-duration graph, c3.4xlarge           | [`figure4`] |
//! | `table2`  | workload replay, Original vs DrAFTS      | [`table2`] |
//! | `table3`  | 35-replay averages, 3 policies           | [`table3`] |
//! | `table4`  | per-AZ savings at p = 0.99               | [`table45`] |
//! | `table5`  | per-AZ savings at p = 0.95               | [`table45`] |
//! | `tightness` | bid/price ratio ablation (tech report) | [`table45`] |
//! | `reflexivity` | SS6 future work: adoption feedback      | [`reflexivity`] |
//! | `faults`  | feed-fault degradation sweep (robustness) | [`faults`] |
//! | `serve`   | serving-layer smoke + per-stage profile   | [`serve`], [`profile`] |
//! | `bench`   | `BENCH_*.json` perf-trajectory points     | [`benchrun`] |
//! | `fleet`   | sharded-fleet chaos/failover sweep        | [`fleet`] |
//! | `strategies` | bidding-strategy arena, 3 intensities  | [`strategies`] |
//! | `trace`   | distributed-tracing chaos attribution     | [`traces`] |

pub mod benchrun;
pub mod common;
pub mod faults;
pub mod figure1;
pub mod figure4;
pub mod fleet;
pub mod launch;
pub mod profile;
pub mod reflexivity;
pub mod serve;
pub mod strategies;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table45;
pub mod traces;

pub use common::Scale;
