//! Multi-threaded stress tests of the lock-free snapshot read path: many
//! reader threads hammering the serving routes must observe byte-identical,
//! health-consistent responses — including while a concurrent writer rolls
//! the service forward through bucket boundaries — and steady-state reads
//! must never enter the slow path (the reader-lock counter stays 0 between
//! snapshot swaps).

use drafts::core::predictor::DraftsConfig;
use drafts::core::service::{DraftsService, ServiceConfig};
use drafts::market::archetype::Archetype;
use drafts::market::tracegen::{generate_with_archetype, TraceConfig};
use drafts::market::{Az, Catalog, Combo, DAY};
use server::http::read_request;
use server::{Metrics, Router};
use std::sync::Arc;
use std::thread;

const READERS: usize = 16;
const T0: u64 = 20 * DAY;

fn combos() -> Vec<Combo> {
    let cat = Catalog::standard();
    [
        ("us-west-2a", "c4.large"),
        ("us-east-1c", "c3.4xlarge"),
        ("us-east-1b", "c3.xlarge"),
    ]
    .iter()
    .map(|&(az, ty)| Combo::new(Az::parse(az).unwrap(), cat.type_id(ty).unwrap()))
    .collect()
}

fn service() -> Arc<DraftsService> {
    let cat = Catalog::standard();
    let mut svc = DraftsService::new(ServiceConfig {
        probabilities: vec![0.95],
        drafts: DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: 6,
            ..DraftsConfig::default()
        },
        ..ServiceConfig::default()
    });
    for (i, &combo) in combos().iter().enumerate() {
        let archetype = match i % 3 {
            0 => Archetype::Calm,
            1 => Archetype::Choppy,
            _ => Archetype::Spiky,
        };
        svc.register(generate_with_archetype(
            combo,
            cat,
            &TraceConfig::days(30, 0x57AE55 ^ (i as u64 + 1)),
            archetype,
        ));
    }
    Arc::new(svc)
}

/// The request sequence every reader replays, as raw HTTP targets. Mixes
/// the graphs route (per combo, with and without a `p` filter) and the
/// cheapest-bid route, all pinned to the bucket at `now`.
fn targets(now: u64) -> Vec<String> {
    let cat = Catalog::standard();
    let mut t = Vec::new();
    for combo in combos() {
        let (region, az, ty) = (combo.az.region().name(), combo.az, cat.spec(combo.ty).name);
        t.push(format!("/v1/graphs/{region}/{az}/{ty}?now={now}"));
        t.push(format!("/v1/graphs/{region}/{az}/{ty}?p=0.95&now={now}"));
    }
    t.push(format!("/v1/bid?duration=3600&p=0.95&now={now}"));
    t
}

/// Runs one pass of the target sequence through the router in-process and
/// returns the exact response bytes, status first.
fn replay(router: &Router, metrics: &Metrics, now: u64, rounds: usize) -> Vec<(u16, Vec<u8>)> {
    let targets = targets(now);
    let mut out = Vec::with_capacity(targets.len() * rounds);
    for _ in 0..rounds {
        for target in &targets {
            let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
            let req = read_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap();
            let resp = router.handle(&req, metrics);
            out.push((resp.status, resp.body));
        }
    }
    out
}

#[test]
fn sixteen_steady_readers_get_identical_bytes_without_locking() {
    let svc = service();
    svc.warm(T0);
    let router = Router::new(svc.clone(), T0);
    let locks = svc.read_lock_count();
    let swaps = svc.snapshot_swap_count();

    // The single-threaded reference transcript: warm, so it takes no
    // locks either — it must match what every concurrent reader sees.
    let reference = replay(&router, &Metrics::new(), T0, 1);
    assert!(
        reference.iter().all(|(s, _)| *s == 200),
        "non-200 in reference"
    );

    let transcripts: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| scope.spawn(|| replay(&router, &Metrics::new(), T0, 40)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for transcript in &transcripts {
        for (i, got) in transcript.iter().enumerate() {
            assert_eq!(
                got,
                &reference[i % reference.len()],
                "reader response diverged from the reference at step {i}"
            );
        }
    }
    // Health consistency: every served body carries the fresh, guaranteed
    // state (byte-identity above makes this a single check).
    let body = String::from_utf8(reference[0].1.clone()).unwrap();
    assert!(
        body.contains("\"state\":\"fresh\""),
        "unexpected health in {body}"
    );

    // The acceptance gate: a steady-state read storm never enters the
    // slow path and never republishes.
    assert_eq!(svc.read_lock_count(), locks, "steady readers took a lock");
    assert_eq!(
        svc.snapshot_swap_count(),
        swaps,
        "steady readers republished"
    );
}

#[test]
fn readers_survive_concurrent_bucket_rollover_byte_for_byte() {
    let svc = service();
    let period = ServiceConfig::default().recompute_period;
    svc.warm(T0);
    let router = Router::new(svc.clone(), T0);
    let reference = replay(&router, &Metrics::new(), T0, 1);
    let locks_before = svc.read_lock_count();
    let rollovers = 4u64;
    let roll_combo = combos()[0];

    let transcripts: Vec<_> = thread::scope(|scope| {
        // The writer: rolls one combo forward through four bucket
        // boundaries while the readers hammer the original bucket. Each
        // new bucket is one slow-path build + snapshot swap; the old
        // bucket stays resident (within the retention window) and its
        // published bytes must not move.
        let roller = scope.spawn(|| {
            for step in 1..=rollovers {
                let now = T0 + step * period;
                svc.fetch(roll_combo, now).expect("rolled bucket serves");
            }
        });
        let handles: Vec<_> = (0..READERS)
            .map(|_| scope.spawn(|| replay(&router, &Metrics::new(), T0, 40)))
            .collect();
        let transcripts = handles.into_iter().map(|h| h.join().unwrap()).collect();
        roller.join().unwrap();
        transcripts
    });

    for transcript in &transcripts {
        for (i, got) in transcript.iter().enumerate() {
            assert_eq!(
                got,
                &reference[i % reference.len()],
                "rollover perturbed a resident bucket's bytes at step {i}"
            );
        }
    }

    // Exactly the roller's four first-touch misses took the lock: the
    // sixteen readers contributed zero slow-path entries even while the
    // snapshots were being republished under them.
    assert_eq!(
        svc.read_lock_count() - locks_before,
        rollovers,
        "readers entered the slow path during rollover"
    );

    // And once the new bucket is warm, reads settle back to lock-free:
    // the counter stays 0 between swaps.
    let t4 = T0 + rollovers * period;
    svc.warm(t4);
    let locks_warm = svc.read_lock_count();
    let swaps_warm = svc.snapshot_swap_count();
    let new_reference = replay(&router, &Metrics::new(), t4, 1);
    assert!(new_reference.iter().all(|(s, _)| *s == 200));
    thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| scope.spawn(|| replay(&router, &Metrics::new(), t4, 20)))
            .collect();
        for h in handles {
            for (i, got) in h.join().unwrap().iter().enumerate() {
                assert_eq!(got, &new_reference[i % new_reference.len()]);
            }
        }
    });
    assert_eq!(
        svc.read_lock_count(),
        locks_warm,
        "post-rollover reads locked"
    );
    assert_eq!(svc.snapshot_swap_count(), swaps_warm);
}
