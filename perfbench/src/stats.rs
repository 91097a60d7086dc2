//! Exact order statistics over kept samples, and the process counters
//! (CPU time, peak RSS) the end-to-end metrics divide by.

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond samples.
pub fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPUTIME: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process (every thread, exited
/// ones included) except the idle spinners, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(PROCESS_CPUTIME) - crate::spin::cpu_ns()
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(THREAD_CPUTIME)
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), 5);
        assert_eq!(quantile(&v, 0.9), 9);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 1.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn process_counters_read() {
        assert!(process_cpu_ns() > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
