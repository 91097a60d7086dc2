//! Seeded request plans: `loadgen::build_plan` schedules (Poisson
//! arrivals, Table-1 durations), shaped per workload.

use crate::Workload;
use loadgen::{Kind, Planned, WorkloadConfig};
use simrng::StreamFactory;
use spotmarket::{Catalog, Combo};

/// The service's refresh period: one bucket of virtual time.
pub const BUCKET_SECS: u64 = 900;
/// Probability level every planned query asks for.
pub const P: f64 = 0.95;

/// Seed domains: the measured plan and the warm-up plan are independent
/// streams of the same seed.
const MEASURED: u64 = 0x6D65_6173;
const WARMUP: u64 = 0x7761_726D;

/// Open-loop rate and route mix of a workload.
struct Shape {
    rate: f64,
    /// Weights of `[graphs, bid, health, metrics]`.
    mix: [f64; 4],
    /// `bucket_roll` only: requests per bucket before the next roll.
    roll_every: Option<usize>,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::QuoteMixed => Shape {
            rate: 3000.0,
            mix: [0.35, 0.50, 0.10, 0.05],
            roll_every: None,
        },
        Workload::BucketRoll => Shape {
            rate: 1000.0,
            mix: [0.0, 0.85, 0.15, 0.0],
            // A roll stalls the instance for ~0.25 s, so about 2.5% of the
            // requests queue behind one: p90 stays on the read path beside
            // the rolls, and the rolls themselves show in cpu_us_per_req.
            // Every 5000 requests, the stalled 5% pushed p90 up to the
            // read path's p95, whose spread over ten seeds broke its bound.
            roll_every: Some(10000),
        },
        // A fleet request wakes four threads and costs ~230 µs of CPU, so
        // at 1500/s each connection was busy a third of the time and p90
        // was mostly requests queued behind their predecessor: a slower
        // host both lengthened every request and queued more of them.
        // Over ten seeds p90 spread 0.18–0.42 and CPU per request 0.12–0.27
        // (IQR/median); at 700/s, interleaved with 1500/s runs on the same
        // six seeds, p90 spread 0.09 against 0.21 and CPU per request 0.10
        // against 0.16.
        Workload::FleetMixed => Shape {
            rate: 700.0,
            mix: [0.45, 0.35, 0.15, 0.05],
            roll_every: None,
        },
    }
}

/// A built plan plus what it was built for.
pub struct Plan {
    pub requests: Vec<Planned>,
    /// Virtual time of the boot bucket.
    pub now: u64,
    /// Requests per bucket when the plan marches virtual time.
    pub roll_every: Option<usize>,
}

impl Plan {
    /// The measured plan: `seconds` of open-loop traffic at the workload's
    /// rate. `bucket_roll` requests carry `now=` marching one bucket
    /// forward every `roll_every` requests, starting with the bucket after
    /// the warmed one.
    pub fn measured(
        workload: Workload,
        combos: &[Combo],
        now: u64,
        seed: u64,
        seconds: u64,
    ) -> Plan {
        let s = shape(workload);
        let mut requests = build(&s, combos, seed ^ MEASURED, s.rate * seconds as f64);
        if let Some(every) = s.roll_every {
            for (i, p) in requests.iter_mut().enumerate() {
                let bucket_now = now + (1 + (i / every) as u64) * BUCKET_SECS;
                p.path = with_now(&p.path, bucket_now);
            }
        }
        Plan {
            requests,
            now,
            roll_every: s.roll_every,
        }
    }

    /// The warm-up plan: one second of the workload's mix, pinned to the
    /// warmed bucket, so it never computes.
    pub fn warmup(workload: Workload, combos: &[Combo], seed: u64) -> Vec<Planned> {
        let s = shape(workload);
        build(&s, combos, seed ^ WARMUP, s.rate)
    }

    /// `n` consecutive index ranges splitting the plan, of near-equal
    /// length.
    pub fn chunks(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        let len = self.requests.len();
        (0..n).map(|k| k * len / n..(k + 1) * len / n).collect()
    }

    /// Indices of the requests that open a fresh bucket.
    pub fn rolls(&self) -> Vec<usize> {
        match self.roll_every {
            Some(every) => (0..self.requests.len()).step_by(every).collect(),
            None => Vec::new(),
        }
    }

    /// Virtual time of the newest bucket the plan reaches.
    pub fn last_now(&self) -> u64 {
        match self.roll_every {
            Some(every) => {
                let buckets = self.requests.len().div_ceil(every) as u64;
                self.now + buckets * BUCKET_SECS
            }
            None => self.now,
        }
    }

    /// Requests per route, in [`Kind::ALL`] order.
    pub fn route_counts(&self) -> [usize; 4] {
        let mut counts = [0; 4];
        for p in &self.requests {
            counts[Kind::ALL
                .iter()
                .position(|&k| k == p.kind)
                .expect("known kind")] += 1;
        }
        counts
    }

    /// FNV-1a over every request's due time, route and target: equal
    /// checksums mean two runs replayed the same workload.
    pub fn checksum(&self) -> u64 {
        let mut h = crate::check::Fnv::new();
        for p in &self.requests {
            h.write(&(p.at.as_nanos() as u64).to_le_bytes());
            h.write(p.kind.label().as_bytes());
            h.write(p.path.as_bytes());
        }
        h.finish()
    }
}

fn build(s: &Shape, combos: &[Combo], seed: u64, requests: f64) -> Vec<Planned> {
    let cfg = WorkloadConfig {
        requests: requests.round().max(1.0) as usize,
        rate_per_sec: s.rate,
        clients: crate::drive::CONNECTIONS,
        combos: combos.to_vec(),
        p: P,
        mix: s.mix,
        virtual_now: None,
    };
    loadgen::build_plan(&cfg, &StreamFactory::new(seed), Catalog::standard())
}

/// `path` with its `now=` query parameter set to `now`.
pub fn with_now(path: &str, now: u64) -> String {
    let (base, query) = path.split_once('?').unwrap_or((path, ""));
    let mut params: Vec<&str> = query
        .split('&')
        .filter(|kv| !kv.is_empty() && !kv.starts_with("now="))
        .collect();
    let now = format!("now={now}");
    params.push(&now);
    format!("{base}?{}", params.join("&"))
}

/// The `duration` a `/v1/bid` target asks for.
pub fn bid_duration(path: &str) -> Option<u64> {
    let (_, query) = path.split_once('?')?;
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("duration="))
        .and_then(|v| v.parse().ok())
}

/// The `/v1/graphs` target prefix of `combo`, as loadgen writes it.
pub fn graphs_prefix(combo: Combo) -> String {
    let catalog = Catalog::standard();
    format!(
        "/v1/graphs/{}/{}/{}",
        combo.az.region().name(),
        combo.az.name(),
        catalog.spec(combo.ty).name
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_now_replaces_or_appends() {
        assert_eq!(with_now("/v1/health", 5), "/v1/health?now=5");
        assert_eq!(
            with_now("/v1/bid?duration=60&p=0.95&now=1", 7),
            "/v1/bid?duration=60&p=0.95&now=7"
        );
        assert_eq!(bid_duration("/v1/bid?duration=60&p=0.95"), Some(60));
    }

    #[test]
    fn bucket_roll_plan_marches_one_bucket_per_roll() {
        let pop = crate::stack::Population::of(Workload::BucketRoll);
        let plan = Plan::measured(Workload::BucketRoll, &pop.combos, pop.now, 7, 21);
        assert_eq!(plan.requests.len(), 21000);
        assert_eq!(plan.rolls(), vec![0, 10000, 20000]);
        assert!(plan.requests[9999]
            .path
            .ends_with(&format!("now={}", pop.now + 900)));
        assert!(plan.requests[10000]
            .path
            .ends_with(&format!("now={}", pop.now + 1800)));
        assert_eq!(plan.last_now(), pop.now + 3 * 900);
        assert_eq!(plan.chunks(3), vec![0..7000, 7000..14000, 14000..21000]);
        assert_eq!(plan.route_counts()[0] + plan.route_counts()[3], 0);
        let again = Plan::measured(Workload::BucketRoll, &pop.combos, pop.now, 7, 21);
        assert_eq!(plan.checksum(), again.checksum());
    }
}
