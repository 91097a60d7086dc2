//! Irregularly-sampled step-function time series.
//!
//! Spot price histories are sequences of `(timestamp, value)` updates; the
//! value holds until the next update (a right-continuous step function).
//! [`TimeSeries`] stores the updates in time order and answers the queries
//! the forecasting and backtesting layers need: value-at-time, range slices,
//! and iteration.

/// One observation: the series takes value `value` from `time` (inclusive)
/// until the next observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Seconds since the epoch of the simulation.
    pub time: u64,
    /// Observed value (price ticks, duration seconds, ...).
    pub value: u64,
}

/// An append-only, time-ordered series of `u64` observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSeries {
    times: Vec<u64>,
    values: Vec<u64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty series with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            times: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Builds a series from parallel slices.
    ///
    /// # Panics
    /// Panics if lengths differ or times are not strictly increasing.
    pub fn from_parts(times: Vec<u64>, values: Vec<u64>) -> Self {
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "times must be strictly increasing"
        );
        Self { times, values }
    }

    /// Appends an observation.
    ///
    /// # Panics
    /// Panics if `time` does not strictly exceed the last timestamp.
    pub fn push(&mut self, time: u64, value: u64) {
        if let Some(&last) = self.times.last() {
            assert!(time > last, "non-monotonic push: {time} after {last}");
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Observation timestamps, ascending.
    pub fn times(&self) -> &[u64] {
        &self.times
    }

    /// Observation values, in time order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The `i`-th observation.
    pub fn point(&self, i: usize) -> Point {
        Point {
            time: self.times[i],
            value: self.values[i],
        }
    }

    /// First timestamp, if any.
    pub fn start_time(&self) -> Option<u64> {
        self.times.first().copied()
    }

    /// Last timestamp, if any.
    pub fn end_time(&self) -> Option<u64> {
        self.times.last().copied()
    }

    /// Index of the observation in effect at `time`: the last index with
    /// `times[i] <= time`. `None` if `time` precedes the first observation.
    pub fn index_at(&self, time: u64) -> Option<usize> {
        let n = self.times.partition_point(|&t| t <= time);
        n.checked_sub(1)
    }

    /// Value in effect at `time` (step-function semantics).
    pub fn value_at(&self, time: u64) -> Option<u64> {
        self.index_at(time).map(|i| self.values[i])
    }

    /// Index of the first observation with `times[i] >= time`.
    pub fn first_index_at_or_after(&self, time: u64) -> Option<usize> {
        let i = self.times.partition_point(|&t| t < time);
        (i < self.times.len()).then_some(i)
    }

    /// Iterates observations in `[from, to)` as [`Point`]s.
    pub fn range(&self, from: u64, to: u64) -> impl Iterator<Item = Point> + '_ {
        let lo = self.times.partition_point(|&t| t < from);
        let hi = self.times.partition_point(|&t| t < to);
        (lo..hi).map(move |i| self.point(i))
    }

    /// Returns the sub-series of observations strictly before `time`
    /// (the information set available when predicting at `time`).
    pub fn prefix_before(&self, time: u64) -> TimeSeries {
        let hi = self.times.partition_point(|&t| t < time);
        TimeSeries {
            times: self.times[..hi].to_vec(),
            values: self.values[..hi].to_vec(),
        }
    }

    /// Iterates all observations.
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.len()).map(move |i| self.point(i))
    }
}

impl FromIterator<(u64, u64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        TimeSeries::from_iter([(10, 100), (20, 105), (30, 95), (40, 110)])
    }

    #[test]
    fn push_and_len() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.start_time(), Some(10));
        assert_eq!(s.end_time(), Some(40));
        assert_eq!(
            s.point(2),
            Point {
                time: 30,
                value: 95
            }
        );
    }

    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn push_rejects_equal_timestamps() {
        let mut s = sample();
        s.push(40, 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_unsorted() {
        TimeSeries::from_parts(vec![1, 3, 2], vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_parts_rejects_length_mismatch() {
        TimeSeries::from_parts(vec![1, 2], vec![0]);
    }

    #[test]
    fn value_at_step_semantics() {
        let s = sample();
        assert_eq!(s.value_at(9), None);
        assert_eq!(s.value_at(10), Some(100));
        assert_eq!(s.value_at(15), Some(100));
        assert_eq!(s.value_at(20), Some(105));
        assert_eq!(s.value_at(39), Some(95));
        assert_eq!(s.value_at(40), Some(110));
        assert_eq!(s.value_at(1_000_000), Some(110));
    }

    #[test]
    fn index_at_boundaries() {
        let s = sample();
        assert_eq!(s.index_at(9), None);
        assert_eq!(s.index_at(10), Some(0));
        assert_eq!(s.index_at(29), Some(1));
        assert_eq!(s.index_at(30), Some(2));
    }

    #[test]
    fn first_index_at_or_after() {
        let s = sample();
        assert_eq!(s.first_index_at_or_after(0), Some(0));
        assert_eq!(s.first_index_at_or_after(10), Some(0));
        assert_eq!(s.first_index_at_or_after(11), Some(1));
        assert_eq!(s.first_index_at_or_after(40), Some(3));
        assert_eq!(s.first_index_at_or_after(41), None);
    }

    #[test]
    fn range_half_open() {
        let s = sample();
        let pts: Vec<_> = s.range(20, 40).map(|p| p.time).collect();
        assert_eq!(pts, vec![20, 30]);
        let all: Vec<_> = s.range(0, u64::MAX).map(|p| p.time).collect();
        assert_eq!(all, vec![10, 20, 30, 40]);
        assert_eq!(s.range(21, 21).count(), 0);
    }

    #[test]
    fn prefix_before_is_information_set() {
        let s = sample();
        let p = s.prefix_before(30);
        assert_eq!(p.len(), 2);
        assert_eq!(p.end_time(), Some(20));
        assert!(s.prefix_before(10).is_empty());
        assert_eq!(s.prefix_before(u64::MAX).len(), 4);
    }

    #[test]
    fn empty_series_queries() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.value_at(5), None);
        assert_eq!(s.start_time(), None);
        assert_eq!(s.first_index_at_or_after(0), None);
        assert_eq!(s.range(0, 100).count(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut s = TimeSeries::with_capacity(16);
        s.push(1, 2);
        assert_eq!(s.value_at(1), Some(2));
    }
}
