//! The benchmark's own open loop over `loadgen::Client` connections.
//!
//! `loadgen::run` starts each request's clock at issue time and records
//! into power-of-two histogram buckets; this generator keeps every sample
//! and starts the clock where the server's latency starts:
//!
//! * if the request's connection was still busy with the previous
//!   response when the request fell due, at the **due time** — the wait a
//!   stall imposes on later requests is latency;
//! * if the connection was idle, at the **actual write** — a sender that
//!   sleeps wakes tens of microseconds late, and that timer slack belongs
//!   to the generator, not the server. The lateness is reported on its
//!   own (`loadgen.wake_late_p50_us`, `loadgen.late_p99_us`).

use crate::check::Fnv;
use crate::spans::{SpanLog, ROOT};
use crate::stats;
use loadgen::{Client, Kind, Planned};
use obs::Stopwatch;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::Duration;

/// Client connections the generator drives.
pub const CONNECTIONS: usize = 2;
/// Per-request client deadline.
const TIMEOUT: Duration = Duration::from_secs(10);

/// One request as the generator saw it. Times are nanoseconds since the
/// phase's range started.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// HTTP status; 0 when the transport failed.
    pub status: u16,
    /// Digest of the response body (0 for `/v1/metrics`, whose body is a
    /// live counter view and is not compared).
    pub digest: u64,
    pub due_ns: u64,
    pub write_ns: u64,
    pub done_ns: u64,
    /// The connection was still busy with the previous request at
    /// `due_ns`.
    pub busy: bool,
}

impl Sample {
    /// Server-attributable latency (see the module docs).
    pub fn latency_ns(&self) -> u64 {
        let start = if self.busy {
            self.due_ns
        } else {
            self.write_ns
        };
        self.done_ns - start
    }

    /// How far behind its schedule the request was written.
    pub fn late_ns(&self) -> u64 {
        self.write_ns.saturating_sub(self.due_ns)
    }
}

/// A finished open-loop phase.
pub struct Phase {
    /// One sample per planned request, in plan order.
    pub samples: Vec<Sample>,
    /// Process CPU time spent over the phase (idle spinners excluded).
    pub cpu_ns: u64,
    /// The generator's spans, when the phase was traced.
    pub spans: SpanLog,
}

impl Phase {
    /// Joins the phases of consecutive ranges of one plan.
    pub fn join(phases: Vec<Phase>) -> Phase {
        let mut out = Phase {
            samples: Vec::new(),
            cpu_ns: 0,
            spans: SpanLog::default(),
        };
        for p in phases {
            out.samples.extend(p.samples);
            out.cpu_ns += p.cpu_ns;
            out.spans.extend(p.spans);
        }
        out
    }

    /// Requests answered 200.
    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.status == 200).count()
    }

    /// Sorted latencies of every request that got a response.
    pub fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.status != 0)
            .map(Sample::latency_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Exact latency quantile in microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        stats::quantile(&self.latencies(), q) as f64 / 1e3
    }

    /// Process CPU per completed request, in microseconds.
    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ok().max(1) as f64
    }

    /// Median wake-up lateness of requests whose connection was idle
    /// (pure timer slack), in microseconds.
    pub fn wake_late_p50_us(&self) -> f64 {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| !s.busy)
            .map(Sample::late_ns)
            .collect();
        v.sort_unstable();
        if v.is_empty() {
            return 0.0;
        }
        stats::quantile(&v, 0.5) as f64 / 1e3
    }

    /// p99 of write lateness over every request, busy connections
    /// included, in microseconds.
    pub fn late_p99_us(&self) -> f64 {
        let mut v: Vec<u64> = self.samples.iter().map(Sample::late_ns).collect();
        v.sort_unstable();
        stats::quantile(&v, 0.99) as f64 / 1e3
    }
}

/// Replays `plan[range]` open loop against `addr` over [`CONNECTIONS`]
/// keep-alive connections (requests dealt round-robin), its schedule
/// starting now, recording the generator's spans when `traced`.
pub fn run(addr: SocketAddr, plan: &[Planned], range: Range<usize>, traced: bool) -> Phase {
    let cpu_start = stats::process_cpu_ns();
    let epoch = Stopwatch::start();
    let per_conn: Vec<(Vec<(usize, Sample)>, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let range = range.clone();
                scope.spawn(move || connection(addr, plan, range, c, epoch, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let cpu_ns = stats::process_cpu_ns() - cpu_start;

    let mut samples = vec![None; range.len()];
    let mut spans = SpanLog::default();
    for (local, log) in per_conn {
        for (i, s) in local {
            samples[i - range.start] = Some(s);
        }
        spans.extend(log);
    }
    Phase {
        samples: samples
            .into_iter()
            .map(|s| s.expect("every planned request sampled"))
            .collect(),
        cpu_ns,
        spans,
    }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `PR_SET_TIMERSLACK`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Shrinks the calling thread's timer slack from the default 50 µs to
/// 1 ns, so a sender sleeping until a request's due time wakes close to
/// it. Best effort: on failure the default slack stays, and the lateness
/// shows in `loadgen.wake_late_p50_us`.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK reads only its integer argument and
    // changes only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

fn connection(
    addr: SocketAddr,
    plan: &[Planned],
    range: Range<usize>,
    conn: usize,
    epoch: Stopwatch,
    traced: bool,
) -> (Vec<(usize, Sample)>, SpanLog) {
    tighten_timer_slack();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut client = Client::new(addr, TIMEOUT);
    let start = plan[range.start].at;
    let mut out = Vec::with_capacity(range.len() / CONNECTIONS + 1);
    let mut spans = SpanLog::default();
    let mut prev_done = 0u64;
    for i in range.skip(conn).step_by(CONNECTIONS) {
        let p = &plan[i];
        let due_ns = (p.at - start).as_nanos() as u64;
        let busy = prev_done > due_ns;
        if !busy {
            let t = now();
            if t < due_ns {
                std::thread::sleep(Duration::from_nanos(due_ns - t));
            }
        }
        let write_ns = now();
        let result = client.get(&p.path);
        let done_ns = now();
        prev_done = done_ns;
        let (status, digest) = match &result {
            Ok((status, _)) if p.kind == Kind::Metrics => (*status, 0),
            Ok((status, body)) => (*status, Fnv::digest(*status, body)),
            Err(_) => (0, 0),
        };
        let sample = Sample {
            status,
            digest,
            due_ns,
            write_ns,
            done_ns,
            busy,
        };
        if traced {
            let start = done_ns - sample.latency_ns();
            let root = spans.record("loadgen.request", i as u32, ROOT, start, done_ns);
            if busy {
                spans.record("loadgen.queued", i as u32, root, due_ns, write_ns);
            }
            spans.record("client.get", i as u32, root, write_ns, done_ns);
        }
        out.push((i, sample));
    }
    (out, spans)
}
