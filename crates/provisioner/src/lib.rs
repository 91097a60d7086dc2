//! Workflow-platform provisioning substrate (paper §4.3).
//!
//! The application-driven experiments integrate DrAFTS with the Globus
//! Galaxies platform: workflows decompose into jobs, a provisioner watches
//! the job queue and launches Spot instances to run them, jobs tolerate
//! delays (a revoked instance just requeues its job), and instances are
//! reused within their billed hour. The production trace is not available;
//! [`workload`] generates populations with the documented shape (1000 jobs
//! over 3 h 20 m of submissions, ~366 instances, few jobs over an hour) and
//! [`sim`] replays them under three provisioning policies:
//!
//! * **Original** — the platform's pre-DrAFTS rule: a fixed suitable
//!   instance type, bid = 80% of On-demand (Table 2 "Original").
//! * **DrAFTS 1-hr** — DrAFTS bid for a one-hour durability at p = 0.99,
//!   picking the `(type, AZ)` with the smallest guaranteed bid.
//! * **DrAFTS profiles** — like 1-hr but using each job's profiled
//!   runtime estimate as the required durability, yielding tighter bids.
//!
//! [`strategy_sim`] runs the related work's bidding strategies instead: a
//! pluggable [`strategy`] implementation owns every launch/keep/abandon
//! decision per scan tick, with on-demand instances, checkpoint migration,
//! deadlines, and the advisory plane degradable by feed faults and shard
//! faults.
//!
//! Both replays drive one scan loop (`scan`, private): admissions,
//! revocations, completions, the spot request with its backoff, and idle
//! releases. Each supplies only its scheduling step.

pub mod job;
pub mod metrics;
pub mod policy;
pub mod pool;
mod scan;
pub mod sim;
pub mod strategy_sim;
pub mod workload;

pub use metrics::ReplayMetrics;
pub use policy::ProvisionerPolicy;
pub use sim::{Replay, ReplayConfig};
pub use strategy_sim::{StrategyOutcome, StrategyReplay, StrategyReplayConfig};
