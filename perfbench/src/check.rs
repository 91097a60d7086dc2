//! Output check: every wire response is compared against the in-process
//! answer to the same request, and every `/v1/bid` answer must carry a
//! fresh guarantee covering the requested duration.

use crate::drive::Phase;
use crate::plan::{self, Plan};
use crate::stack::{Population, Stack};
use crate::Workload;
use drafts_core::service::ServiceConfig;
use drafts_core::DraftsService;
use loadgen::Kind;
use server::{Json, Metrics, Request, Router};
use std::collections::HashMap;
use std::sync::Arc;

/// FNV-1a, 64-bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Digest of one response: status, then body.
    pub fn digest(status: u16, body: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(&status.to_be_bytes());
        h.write(body);
        h.finish()
    }
}

/// The request bytes `loadgen::Client` sends for `GET path`.
pub fn request_bytes(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: drafts\r\n\r\n")
}

/// Parses request bytes exactly as a server worker would.
pub fn parse(raw: &str) -> Request {
    server::http::read_request(&mut raw.as_bytes()).expect("planned request parses")
}

/// Where expected answers come from.
pub struct Reference<'a> {
    /// An instance of its own, built from the population's seeded price
    /// histories (not from the stack under test) and answering in-process
    /// through [`Router::handle`]. It computes each bucket on first use,
    /// so requests must be asked in plan (virtual-time) order.
    router: Router,
    /// For the fleet: the stack under test, and the ring primary of each
    /// market by its `/v1/graphs` target prefix.
    fleet: Option<(&'a Stack, HashMap<String, usize>)>,
}

impl<'a> Reference<'a> {
    pub fn new(workload: Workload, pop: &Population, stack: &'a Stack) -> Reference<'a> {
        let mut service = DraftsService::new(ServiceConfig {
            drafts: Population::drafts_config(),
            ..ServiceConfig::default()
        });
        for history in pop.histories() {
            service.register(history);
        }
        let fleet = (workload == Workload::FleetMixed).then(|| {
            let owners = pop
                .combos
                .iter()
                .map(|&c| (plan::graphs_prefix(c), stack.owner(c)))
                .collect();
            (stack, owners)
        });
        Reference {
            router: Router::new(Arc::new(service), pop.now),
            fleet,
        }
    }

    fn answer(&self, kind: Kind, path: &str, metrics: &Metrics) -> (u16, Vec<u8>) {
        let req = parse(&request_bytes(path));
        let resp = match &self.fleet {
            None => self.router.handle(&req, metrics),
            // The front relays the owning shard's graphs document with its
            // provenance appended; the reference instance must agree with
            // it field for field.
            Some((_, owners)) if kind == Kind::Graphs => {
                let resp = self.router.handle(&req, metrics);
                let prefix = path.split_once('?').map_or(path, |(prefix, _)| prefix);
                let owner = owners[prefix];
                let mut doc = std::str::from_utf8(&resp.body)
                    .ok()
                    .and_then(|t| Json::parse(t).ok())
                    .expect("reference graphs answer is JSON");
                if let Json::Obj(fields) = &mut doc {
                    fields.push(("served_by".into(), Json::str(format!("shard-{owner}"))));
                    fields.push(("failover".into(), Json::Bool(false)));
                }
                return (resp.status, doc.render().into_bytes());
            }
            // Bid and health answers are assembled by the front from every
            // shard's reply: its in-process handler is the reference, and
            // the bid guarantee check below judges the quote itself.
            Some((stack, _)) => stack
                .front_handle(&req, metrics)
                .expect("fleet stack has a front"),
        };
        (resp.status, resp.body)
    }
}

/// What the check found. A request counts once in `failed` however many
/// ways it failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    pub transport_errors: usize,
    pub non_ok: usize,
    pub mismatches: usize,
    pub bid_violations: usize,
}

impl Verdict {
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Checks every sample of `phase` against `reference`.
pub fn check(plan: &Plan, phase: &Phase, reference: &Reference) -> Verdict {
    let metrics = Metrics::new();
    let mut memo: HashMap<&str, (u16, u64, bool)> = HashMap::new();
    let mut v = Verdict {
        attempted: plan.requests.len(),
        ..Verdict::default()
    };
    for (p, s) in plan.requests.iter().zip(&phase.samples) {
        if s.status == 0 {
            v.transport_errors += 1;
            v.failed += 1;
            continue;
        }
        let mut bad = false;
        if s.status != 200 {
            v.non_ok += 1;
            bad = true;
        }
        if p.kind != Kind::Metrics {
            let &mut (status, digest, bid_ok) = memo.entry(p.path.as_str()).or_insert_with(|| {
                let (status, body) = reference.answer(p.kind, &p.path, &metrics);
                let bid_ok = p.kind != Kind::Bid || guarantees(&p.path, status, &body);
                (status, Fnv::digest(status, &body), bid_ok)
            });
            if status != s.status || digest != s.digest {
                v.mismatches += 1;
                bad = true;
            }
            if !bid_ok {
                v.bid_violations += 1;
                bad = true;
            }
        }
        if bad {
            v.failed += 1;
        }
    }
    v
}

/// A `/v1/bid` answer guarantees the asked duration, undegraded.
fn guarantees(path: &str, status: u16, body: &[u8]) -> bool {
    let Some(asked) = plan::bid_duration(path) else {
        return false;
    };
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return false;
    };
    status == 200
        && doc
            .get("durability_secs")
            .and_then(Json::as_u64)
            .is_some_and(|d| d >= asked)
        && doc.get("degraded").and_then(Json::as_bool) == Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn bid_guarantee_rule() {
        let body = br#"{"durability_secs":7200,"degraded":false}"#;
        assert!(guarantees("/v1/bid?duration=3600&p=0.95", 200, body));
        assert!(!guarantees("/v1/bid?duration=9000&p=0.95", 200, body));
        let degraded = br#"{"durability_secs":7200,"degraded":true}"#;
        assert!(!guarantees("/v1/bid?duration=3600&p=0.95", 200, degraded));
    }
}
