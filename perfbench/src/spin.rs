//! Idle-priority spinners: one busy thread per core, scheduled
//! `SCHED_IDLE`, for the whole run.
//!
//! On a virtual machine a core with nothing to run halts, and a request
//! that wakes a thread there waits for the hypervisor to put the virtual
//! core back on a real one. That wait is tens of microseconds, depends on
//! what else the host runs, and was the largest source of run-to-run
//! spread in the latency metrics. A `SCHED_IDLE` thread runs only when
//! nothing else wants the core and is preempted at once when anything
//! wakes, so the cores never halt and the program never waits for them.
//! The spinners' own CPU time is tracked and left out of
//! [`crate::stats::process_cpu_ns`].

use crate::stats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// CPU time the spinners have used, in nanoseconds. A statistic: it
/// publishes no other data, so relaxed ordering suffices.
static CPU_NS: AtomicU64 = AtomicU64::new(0);

/// `SCHED_IDLE` on Linux.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// CPU time the spinners have used so far.
pub fn cpu_ns() -> u64 {
    CPU_NS.load(Ordering::Relaxed)
}

/// The running spinners.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Starts one spinner per available core.
    pub fn start() -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || spin(&stop))
            })
            .collect();
        Spinners { stop, threads }
    }

    /// Stops the spinners and joins them.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("spinner panicked");
        }
    }
}

fn spin(stop: &AtomicBool) {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` for the call's
    // duration; pid 0 names the calling thread, which only lowers its own
    // scheduling class.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
        // At normal priority a spinner would compete with the program
        // instead of filling idle time: do not spin.
        eprintln!("perfbench: SCHED_IDLE refused; running without spinners");
        return;
    }
    let mut last = stats::thread_cpu_ns();
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..4096 {
            std::hint::spin_loop();
        }
        let now = stats::thread_cpu_ns();
        CPU_NS.fetch_add(now - last, Ordering::Relaxed);
        last = now;
    }
}
