//! Hourly spot billing (paper §2.1).
//!
//! "When an instance is executing, its user is charged the current market
//! price that occurs at the beginning of each hour of execution for that
//! hour's duration. When the instance is terminated by its user, the user
//! is charged for the complete hour of execution in which the termination
//! occurs" — i.e. user terminations round *up*. Under the 2016-era policy,
//! when *Amazon* terminates an instance because of price, the partial final
//! hour is not charged (completed hours are). The worst-case financial risk
//! of a request is the maximum bid for every (rounded-up) hour (§2.1).

use crate::history::PriceHistory;
use crate::price::Price;
use crate::HOUR;

/// Why (or whether) an instance stopped running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// The user terminated it (partial hour rounds up).
    User,
    /// Amazon terminated it on a price crossing (partial hour free).
    Price,
    /// Still running at the accounting horizon (accrued hours round up).
    Running,
}

/// Number of billed hours for a run of `duration` seconds ending for
/// `reason`.
pub fn billed_hours(duration: u64, reason: EndReason) -> u64 {
    match reason {
        EndReason::User | EndReason::Running => duration.div_ceil(HOUR).max(1),
        EndReason::Price => duration / HOUR,
    }
}

/// Actual cost of an instance: the market price at each billed hour start.
///
/// `start` is the launch time; `duration` the run length in seconds. Hours
/// beyond the recorded history reuse the last known price (step semantics).
pub fn instance_cost(
    history: &PriceHistory,
    start: u64,
    duration: u64,
    reason: EndReason,
) -> Price {
    let hours = billed_hours(duration, reason);
    let mut total = Price::ZERO;
    for k in 0..hours {
        let at = start + k * HOUR;
        total += history
            .price_at(at)
            .expect("billing requires the history to cover the launch time");
    }
    total
}

/// Worst-case (risked) cost: the maximum bid charged for every billed hour
/// — what Table 2/3's "Maximum Bid Cost" column reports.
pub fn worst_case_cost(bid: Price, duration: u64, reason: EndReason) -> Price {
    bid.times(billed_hours(duration, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Az, Combo, Region, TypeId};
    use tsforecast::TimeSeries;

    fn flat_history(tick_price: u64) -> PriceHistory {
        let series: TimeSeries = (0..200u64).map(|i| (i * 300, tick_price)).collect();
        PriceHistory::new(Combo::new(Az::new(Region::UsWest2, 0), TypeId(0)), series)
    }

    #[test]
    fn user_termination_rounds_up() {
        assert_eq!(billed_hours(1, EndReason::User), 1);
        assert_eq!(billed_hours(3600, EndReason::User), 1);
        assert_eq!(billed_hours(3601, EndReason::User), 2);
        assert_eq!(billed_hours(0, EndReason::User), 1, "minimum one hour");
        // The 3300-second experimental duration (paper §4.2) bills 1 hour.
        assert_eq!(billed_hours(3300, EndReason::User), 1);
    }

    #[test]
    fn price_termination_forgives_partial_hour() {
        assert_eq!(billed_hours(1800, EndReason::Price), 0);
        assert_eq!(billed_hours(3600, EndReason::Price), 1);
        assert_eq!(billed_hours(2 * 3600 + 100, EndReason::Price), 2);
    }

    #[test]
    fn running_instances_accrue_rounded_up() {
        assert_eq!(billed_hours(5400, EndReason::Running), 2);
    }

    #[test]
    fn cost_sums_hour_start_prices() {
        let h = flat_history(1000);
        // 2.5 hours, user terminated -> 3 hours at 1000 ticks.
        let c = instance_cost(&h, 0, 9000, EndReason::User);
        assert_eq!(c, Price::from_ticks(3000));
        // Price terminated at 2.5h -> 2 hours.
        let c = instance_cost(&h, 0, 9000, EndReason::Price);
        assert_eq!(c, Price::from_ticks(2000));
    }

    #[test]
    fn cost_tracks_price_changes_at_hour_starts() {
        // Price doubles at t = 3600.
        let series: TimeSeries = vec![(0u64, 100u64), (3600, 200)].into_iter().collect();
        let h = PriceHistory::new(Combo::new(Az::new(Region::UsWest2, 0), TypeId(0)), series);
        let c = instance_cost(&h, 0, 2 * 3600, EndReason::User);
        assert_eq!(c, Price::from_ticks(300), "100 for hour 1, 200 for hour 2");
    }

    #[test]
    fn mid_hour_launch_uses_price_in_effect() {
        let series: TimeSeries = vec![(0u64, 100u64), (4000, 500)].into_iter().collect();
        let h = PriceHistory::new(Combo::new(Az::new(Region::UsWest2, 0), TypeId(0)), series);
        // Launch at t=1800: hour starts at 1800 (price 100) and 5400 (500).
        let c = instance_cost(&h, 1800, 2 * 3600, EndReason::User);
        assert_eq!(c, Price::from_ticks(600));
    }

    #[test]
    #[should_panic(expected = "cover the launch time")]
    fn cost_requires_history_coverage() {
        let h = flat_history(100);
        // History starts at t=0; hour start at t=-... launch before start.
        let series_start_late: TimeSeries = vec![(5000u64, 100u64)].into_iter().collect();
        let h2 = PriceHistory::new(h.combo(), series_start_late);
        instance_cost(&h2, 0, 3600, EndReason::User);
    }

    #[test]
    fn worst_case_uses_the_bid() {
        let bid = Price::from_dollars(0.5);
        assert_eq!(
            worst_case_cost(bid, 9000, EndReason::User),
            Price::from_dollars(1.5)
        );
        assert_eq!(worst_case_cost(bid, 1800, EndReason::Price), Price::ZERO);
    }
}
