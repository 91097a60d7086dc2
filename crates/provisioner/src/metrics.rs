//! Replay accounting (the columns of Tables 2 and 3).

use spotmarket::Price;

/// What one replay measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayMetrics {
    /// Instances launched over the replay.
    pub instances: u64,
    /// Total billed cost (market prices at hour starts).
    pub cost: Price,
    /// Total worst-case (bid-valued) cost — the "Maximum Bid Cost" column.
    pub max_bid_cost: Price,
    /// Instances terminated by the market (price crossings).
    pub terminations: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Replay makespan in seconds (first submission to last completion).
    pub makespan: u64,
    /// Jobs requeued after a failed launch attempt (any cause).
    pub requeues: u64,
    /// Launch attempts refused for insufficient capacity.
    pub capacity_failures: u64,
    /// Launch attempts throttled by the API.
    pub throttle_failures: u64,
    /// Jobs that completed after their deadline. Both replays count them;
    /// Tables 2 and 3 do not report them.
    pub deadline_misses: u64,
    /// Checkpoint migrations from spot to on-demand (strategy replays).
    pub strategy_switches: u64,
}

impl ReplayMetrics {
    /// Element-wise accumulation (for averaging across experiments).
    pub fn add(&mut self, other: &ReplayMetrics) {
        self.instances += other.instances;
        self.cost += other.cost;
        self.max_bid_cost += other.max_bid_cost;
        self.terminations += other.terminations;
        self.jobs_completed += other.jobs_completed;
        self.makespan += other.makespan;
        self.requeues += other.requeues;
        self.capacity_failures += other.capacity_failures;
        self.throttle_failures += other.throttle_failures;
        self.deadline_misses += other.deadline_misses;
        self.strategy_switches += other.strategy_switches;
    }

    /// Averages accumulated metrics over `n` experiments (Table 3 reports
    /// averages over 35 runs). Fields are returned as floats.
    pub fn averaged(&self, n: u64) -> AveragedMetrics {
        assert!(n > 0, "cannot average over zero runs");
        let nf = n as f64;
        AveragedMetrics {
            instances: self.instances as f64 / nf,
            cost: self.cost.dollars() / nf,
            max_bid_cost: self.max_bid_cost.dollars() / nf,
            terminations: self.terminations as f64 / nf,
            jobs_completed: self.jobs_completed as f64 / nf,
            makespan: self.makespan as f64 / nf,
            requeues: self.requeues as f64 / nf,
            capacity_failures: self.capacity_failures as f64 / nf,
            throttle_failures: self.throttle_failures as f64 / nf,
            deadline_misses: self.deadline_misses as f64 / nf,
            strategy_switches: self.strategy_switches as f64 / nf,
        }
    }
}

/// Per-run averages (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AveragedMetrics {
    /// Average instances provisioned.
    pub instances: f64,
    /// Average billed cost in dollars.
    pub cost: f64,
    /// Average worst-case cost in dollars.
    pub max_bid_cost: f64,
    /// Average price terminations.
    pub terminations: f64,
    /// Average jobs completed.
    pub jobs_completed: f64,
    /// Average makespan in seconds.
    pub makespan: f64,
    /// Average launch-failure requeues.
    pub requeues: f64,
    /// Average insufficient-capacity launch failures.
    pub capacity_failures: f64,
    /// Average throttled launch attempts.
    pub throttle_failures: f64,
    /// Average deadline misses.
    pub deadline_misses: f64,
    /// Average spot→on-demand switches.
    pub strategy_switches: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_average() {
        let mut acc = ReplayMetrics::default();
        for i in 1..=4u64 {
            acc.add(&ReplayMetrics {
                instances: i,
                cost: Price::from_dollars(i as f64),
                max_bid_cost: Price::from_dollars(2.0 * i as f64),
                terminations: i % 2,
                jobs_completed: 10 * i,
                makespan: 100 * i,
                requeues: 2 * i,
                capacity_failures: i,
                throttle_failures: i,
                deadline_misses: i % 2,
                strategy_switches: 3 * i,
            });
        }
        let avg = acc.averaged(4);
        assert!((avg.instances - 2.5).abs() < 1e-12);
        assert!((avg.cost - 2.5).abs() < 1e-12);
        assert!((avg.max_bid_cost - 5.0).abs() < 1e-12);
        assert!((avg.terminations - 0.5).abs() < 1e-12);
        assert!((avg.jobs_completed - 25.0).abs() < 1e-12);
        assert!((avg.makespan - 250.0).abs() < 1e-12);
        assert!((avg.requeues - 5.0).abs() < 1e-12);
        assert!((avg.capacity_failures - 2.5).abs() < 1e-12);
        assert!((avg.throttle_failures - 2.5).abs() < 1e-12);
        assert!((avg.deadline_misses - 0.5).abs() < 1e-12);
        assert!((avg.strategy_switches - 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn average_over_zero_panics() {
        ReplayMetrics::default().averaged(0);
    }
}
