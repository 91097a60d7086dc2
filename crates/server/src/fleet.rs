//! Multi-shard fleet: N in-process drafts-serve instances behind one
//! consistent-hash routing front, with health-driven failover.
//!
//! # Topology
//!
//! [`Fleet::start`] boots one [`crate::Router`]-backed [`Server`] per
//! shard (each owning the combos its [`Ring`] slots assign to it, plus
//! the replicas it covers) and one front [`Server`] running a
//! [`FrontRouter`]: every `/v1/graphs`, `/v1/bid` and `/v1/health`
//! request is proxied to the owning shard over the ordinary HTTP/1.1
//! wire — the same wire external clients speak, so the fleet exercises
//! the real transport, not an in-process shortcut.
//!
//! # Failover state machine
//!
//! The front tracks each shard through `Up → Degraded → Down` (plus the
//! administrative `Draining`). Transitions are driven by *probes* of the
//! shard's `/v1/health` rollup on a fixed virtual-time grid
//! ([`PROBE_INTERVAL`]): a reachable shard with no unavailable feeds is
//! `Up`; one reporting unavailable feeds (or under a `Slow` fault) is
//! `Degraded`; `DOWN_AFTER` (2) consecutive probe failures mark it
//! `Down`, after which probing backs off exponentially
//! (deterministically — the backoff is a pure function of the failure
//! count, capped at `2^BACKOFF_CAP` = 8 grid slots). Because the grid is
//! virtual time and [`spotmarket::faults::ShardFaults`] decisions are
//! seeded, the whole probe history — and therefore every routing
//! decision — is byte-reproducible. A request's `?now=` may reach at
//! most [`NOW_HORIZON`] past the fleet's boot time, which bounds the
//! probes one request can demand.
//!
//! # Invariants (lifted from PR 3's single-process contract)
//!
//! * **Degraded answers are explicit, never silently stale**: any answer
//!   served off-owner (failover) or from a `Degraded` shard is forced to
//!   `degraded: true` and stamped with `served_by`/`failover` fields.
//! * **A refused guarantee beats a silent one**: when no owner of a key
//!   is routable the front answers `503` + `Retry-After` with
//!   `degraded: true`, it never serves a guess.
//! * **Drain never drops admitted work**: [`Fleet::drain_shard`] stops
//!   routing *new* requests to a shard before its server drains, and
//!   the shard's own `admitted == served` assertion still holds. The
//!   front's parked connections need no drain hook: a shard's drain
//!   closes them as it closes any idle keep-alive.

use crate::http::{self, Request, Response};
use crate::json::{self, Json};
use crate::metrics::{Metrics, Route};
use crate::ring::Ring;
use crate::router::{bid_query, now_of, parse_graphs_path, traced, Router};
use crate::server::{DrainReport, Handler, Server, ServerConfig, RETRY_AFTER_SECS};
use crate::wire::{self, trace_timeline_json, BidQuoteWire, HealthCountsWire, TraceEntry};
use drafts_core::DraftsService;
use obs::{Counter, Registry, TraceContext};
use parallel::lock_clean;
use spotmarket::faults::{ShardFaultKind, ShardFaults};
use spotmarket::{Az, Catalog, Combo};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Owners per key on the hash ring (primary + one replica), clamped to
/// the fleet size.
const REPLICATION: usize = 2;

/// Virtual ring points per shard.
pub const VNODES: usize = 64;

/// Probe-grid spacing in virtual seconds.
pub const PROBE_INTERVAL: u64 = 30;

/// Consecutive probe failures before a shard is `Down`.
const DOWN_AFTER: u32 = 2;

/// Probe backoff cap: a failing shard is reprobed after
/// `2^min(failures, BACKOFF_CAP)` grid slots.
const BACKOFF_CAP: u32 = 3;

/// Wall-clock deadline on proxied shard requests.
const PROXY_TIMEOUT: Duration = Duration::from_secs(5);

/// How far past the fleet's boot time (`default_now`) a request's `?now=`
/// may reach, in virtual seconds: one day, 2,880 probe slots. The front
/// folds the probe grid up to a request's slot, probing each shard once
/// per slot, so an unbounded `now` would demand unbounded probes and
/// probe history; the front answers 400 instead, before any probe. The
/// horizon is measured from `default_now`, not from the newest request,
/// so whether a request is refused never depends on the order requests
/// arrive in.
pub const NOW_HORIZON: u64 = 86_400;

/// Fleet tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of serving shards.
    pub shards: usize,
    /// Transport config for each shard server.
    pub shard_server: ServerConfig,
    /// Transport config for the front server.
    pub front_server: ServerConfig,
    /// Enables the shard routers' debug routes (the front's merged
    /// `/v1/_debug/trace/{id}` timeline needs each shard's own timeline
    /// route answering).
    pub debug_routes: bool,
    /// Seeded chaos plan evaluated at the routing layer in virtual time.
    pub faults: ShardFaults,
}

impl FleetConfig {
    /// Defaults for a fleet of `shards` with no faults.
    pub fn new(shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            shard_server: ServerConfig::default(),
            front_server: ServerConfig::default(),
            debug_routes: false,
            faults: ShardFaults::none(shards),
        }
    }

    /// The ring this config induces: [`VNODES`] points per shard, and
    /// replication 2 clamped to the fleet size.
    pub fn ring(&self) -> Ring {
        Ring::new(self.shards, REPLICATION.min(self.shards), VNODES)
    }
}

/// Where a shard stands in the failover state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Healthy: probes succeed, no unavailable feeds.
    Up,
    /// Serving but suspect: unavailable feeds, a `Slow` fault, or fewer
    /// than `DOWN_AFTER` probe failures. Answers from it are forced
    /// `degraded: true`.
    Degraded,
    /// Unroutable: `DOWN_AFTER` consecutive probe failures.
    Down,
    /// Administratively draining: no new requests are routed to it while
    /// in-flight ones finish.
    Draining,
}

impl ShardState {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            ShardState::Up => "up",
            ShardState::Degraded => "degraded",
            ShardState::Down => "down",
            ShardState::Draining => "draining",
        }
    }

    /// Whether the front routes requests to a shard in this state.
    fn routable(self) -> bool {
        matches!(self, ShardState::Up | ShardState::Degraded)
    }
}

/// Per-fleet routing counters, exposed as `drafts_fleet_*` metrics on
/// the front's `/v1/metrics`.
pub struct FleetCounters {
    /// Answers served, per serving shard.
    pub served: Vec<Counter>,
    /// Answers served off-owner (failover), per serving shard.
    pub failed_over: Vec<Counter>,
    /// 200 answers forced or already `degraded: true`, per serving shard.
    pub degraded: Vec<Counter>,
    /// Probe failures observed, per probed shard.
    pub probe_failures: Vec<Counter>,
    /// Requests refused (503) because no owner was routable.
    pub refused: Counter,
    /// Proxy transport errors (dead connections, torn responses).
    pub proxy_errors: Counter,
}

impl FleetCounters {
    fn new(shards: usize) -> FleetCounters {
        let col = |_: usize| Counter::new();
        FleetCounters {
            served: (0..shards).map(col).collect(),
            failed_over: (0..shards).map(col).collect(),
            degraded: (0..shards).map(col).collect(),
            probe_failures: (0..shards).map(col).collect(),
            refused: Counter::new(),
            proxy_errors: Counter::new(),
        }
    }

    fn register(&self, registry: &Registry, instances: &[String]) {
        for (family, column) in [
            ("served", &self.served),
            ("failed_over", &self.failed_over),
            ("degraded", &self.degraded),
            ("probe_failures", &self.probe_failures),
        ] {
            for (instance, counter) in instances.iter().zip(column) {
                registry.attach_counter(
                    &format!("drafts_fleet_{family}_total{{shard=\"{instance}\"}}"),
                    counter,
                );
            }
        }
        registry.attach_counter("drafts_fleet_refused_total", &self.refused);
        registry.attach_counter("drafts_fleet_proxy_errors_total", &self.proxy_errors);
    }
}

/// One probe-grid slot of a shard's failover fold.
#[derive(Debug, Clone, Copy)]
struct Slot {
    state: ShardState,
    failures: u32,
    /// First grid slot at which the shard is probed again (backoff).
    next_probe: u64,
}

const SLOT_ZERO: Slot = Slot {
    state: ShardState::Up,
    failures: 0,
    next_probe: 0,
};

enum ProbeOutcome {
    Up,
    Degraded,
    Fail,
}

/// Folds one probe outcome into the previous slot — the pure core of
/// the failover state machine, shared by the live fold and its tests.
fn fold_slot(prev: Slot, outcome: ProbeOutcome, slot: u64) -> Slot {
    match outcome {
        ProbeOutcome::Up => Slot {
            state: ShardState::Up,
            failures: 0,
            next_probe: slot + 1,
        },
        ProbeOutcome::Degraded => Slot {
            state: ShardState::Degraded,
            failures: 0,
            next_probe: slot + 1,
        },
        ProbeOutcome::Fail => {
            let failures = prev.failures + 1;
            Slot {
                state: if failures >= DOWN_AFTER {
                    ShardState::Down
                } else {
                    ShardState::Degraded
                },
                failures,
                next_probe: slot + (1u64 << failures.min(BACKOFF_CAP)),
            }
        }
    }
}

/// The front's view of one shard.
struct ShardHandle {
    instance: String,
    addr: SocketAddr,
    /// Set by [`Fleet::drain_shard`]: stop routing new requests here.
    draining: AtomicBool,
    /// Idle keep-alive clients, parked after a clean answer.
    pool: Mutex<Vec<http::Client>>,
    /// Memoized probe fold, indexed by grid slot (lazily extended).
    probes: Mutex<Vec<Slot>>,
}

/// The fleet routing front: implements [`Handler`] by proxying to the
/// owning shard, with health-driven failover. Each shard leg goes out on
/// a pooled keep-alive [`http::Client`], parked again after a clean
/// answer; one the shard has closed fails its next attempt and is
/// retried once on a fresh connection under the client's rule.
pub struct FrontRouter {
    catalog: &'static Catalog,
    ring: Ring,
    cfg: FleetConfig,
    default_now: u64,
    /// Union of every shard's registered combos, sorted by key — the
    /// full market universe `/v1/health` must account for (a combo whose
    /// owners are all down still shows up, as `unavailable`).
    combos: Vec<Combo>,
    shards: Vec<ShardHandle>,
    counters: FleetCounters,
}

impl FrontRouter {
    /// Builds the front over shards already listening on `addrs`.
    pub fn new(
        cfg: FleetConfig,
        addrs: Vec<SocketAddr>,
        mut combos: Vec<Combo>,
        default_now: u64,
    ) -> FrontRouter {
        assert_eq!(addrs.len(), cfg.shards, "one address per shard");
        assert_eq!(cfg.faults.shards(), cfg.shards, "fault plan fleet size");
        combos.sort_by_key(|c| c.key());
        combos.dedup();
        let shards = addrs
            .into_iter()
            .enumerate()
            .map(|(i, addr)| ShardHandle {
                instance: format!("shard-{i}"),
                addr,
                draining: AtomicBool::new(false),
                pool: Mutex::new(Vec::new()),
                probes: Mutex::new(Vec::new()),
            })
            .collect();
        FrontRouter {
            catalog: Catalog::standard(),
            ring: cfg.ring(),
            counters: FleetCounters::new(cfg.shards),
            cfg,
            default_now,
            combos,
            shards,
        }
    }

    /// The routing counters.
    pub fn counters(&self) -> &FleetCounters {
        &self.counters
    }

    /// The ring the front routes on.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Shard identity labels, in shard order.
    pub fn instances(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.instance.as_str()).collect()
    }

    /// Marks a shard as draining: no new requests are routed to it;
    /// in-flight ones finish.
    pub fn begin_drain(&self, shard: usize) {
        self.shards[shard].draining.store(true, Ordering::Release);
    }

    fn slot_of(&self, now: u64) -> u64 {
        now.saturating_sub(self.default_now) / PROBE_INTERVAL
    }

    /// The shard's failover state at virtual time `now`, folding the
    /// probe grid up to `now`'s slot (memoized; each slot is probed at
    /// most once, ever, so concurrent requests agree on the history).
    fn shard_state(&self, shard: usize, now: u64) -> ShardState {
        if self.shards[shard].draining.load(Ordering::Acquire) {
            return ShardState::Draining;
        }
        let want = self.slot_of(now) as usize;
        let mut slots = lock_clean(&self.shards[shard].probes);
        while slots.len() <= want {
            let slot = slots.len() as u64;
            let prev = slots.last().copied().unwrap_or(SLOT_ZERO);
            let next = if slot < prev.next_probe {
                // Backed off: carry the state without touching the shard.
                prev
            } else {
                let t = self.default_now + slot * PROBE_INTERVAL;
                let outcome = self.probe(shard, t);
                if matches!(outcome, ProbeOutcome::Fail) {
                    self.counters.probe_failures[shard].inc();
                }
                fold_slot(prev, outcome, slot)
            };
            slots.push(next);
        }
        slots[want].state
    }

    /// One probe at virtual time `t`. Fault-plan decisions short-circuit
    /// the network so chaos runs stay byte-deterministic; otherwise the
    /// shard's real `/v1/health` answers.
    fn probe(&self, shard: usize, t: u64) -> ProbeOutcome {
        match self.cfg.faults.active(shard, t) {
            Some(ShardFaultKind::Kill) | Some(ShardFaultKind::Hang) => return ProbeOutcome::Fail,
            Some(ShardFaultKind::Slow) => return ProbeOutcome::Degraded,
            None => {}
        }
        match self.proxy(shard, &format!("/v1/health?now={t}"), None) {
            Ok((200, body)) => {
                let parsed = std::str::from_utf8(&body)
                    .ok()
                    .and_then(|s| Json::parse(s).ok())
                    .and_then(|doc| HealthCountsWire::from_json(&doc));
                match parsed {
                    Some(counts) if counts.unavailable == 0 => ProbeOutcome::Up,
                    Some(_) => ProbeOutcome::Degraded,
                    None => ProbeOutcome::Fail,
                }
            }
            Ok(_) | Err(_) => ProbeOutcome::Fail,
        }
    }

    /// The shard's state as a request with virtual time `now` sees it:
    /// draining first, then the fault plan, then the probe fold.
    /// Fault-plan kills/hangs are evaluated per request (not just at
    /// probe boundaries) so a request landing inside a fault window
    /// deterministically routes around the victim.
    fn serving_state(&self, shard: usize, now: u64) -> ShardState {
        if self.shards[shard].draining.load(Ordering::Acquire) {
            return ShardState::Draining;
        }
        if matches!(
            self.cfg.faults.active(shard, now),
            Some(ShardFaultKind::Kill) | Some(ShardFaultKind::Hang)
        ) {
            return ShardState::Down;
        }
        self.shard_state(shard, now)
    }

    /// Proxies a GET of `target` to each leg's shard, overlapped: every
    /// request is written before any answer is read, so the shards work
    /// at once and the call waits for about its slowest leg, not the sum
    /// of all of them. Answers come back in leg order. Each leg draws a
    /// parked client (or makes one) and parks it again after a clean
    /// answer; a leg fails or is retried by the [`http::Client`] rule. A
    /// leg's trace context is propagated as its request header — the hop
    /// that stitches the front's span tree into the shard's; probes and
    /// rollup reads are infrastructure, not request hops, and pass none.
    fn scatter(&self, target: &str, legs: &[(usize, Option<TraceContext>)]) -> Vec<Answer> {
        let sent: Vec<(http::Client, io::Result<()>)> = legs
            .iter()
            .map(|&(shard, ctx)| {
                let handle = &self.shards[shard];
                let mut client = lock_clean(&handle.pool)
                    .pop()
                    .unwrap_or_else(|| http::Client::new(handle.addr, PROXY_TIMEOUT));
                let sent = client.send(target, ctx.map(|c| c.encode()).as_deref());
                (client, sent)
            })
            .collect();
        legs.iter()
            .zip(sent)
            .map(|(&(shard, _), (mut client, sent))| {
                let answer = client.finish(sent);
                if answer.is_ok() {
                    lock_clean(&self.shards[shard].pool).push(client);
                }
                answer
            })
            .collect()
    }

    /// One proxied GET: a one-leg [`FrontRouter::scatter`].
    fn proxy(&self, shard: usize, target: &str, ctx: Option<TraceContext>) -> Answer {
        self.scatter(target, &[(shard, ctx)])
            .pop()
            .expect("one leg, one answer")
    }

    /// Reads `target` from every shard routable at `now`, overlapped:
    /// each shard's serving state (and with it its probe fold) is settled
    /// in shard order first, so each shard sees its probe before its leg;
    /// then one [`FrontRouter::scatter`] sends each routable shard its
    /// leg, carrying `ctx(shard)`. Returns every shard's state and answer
    /// in shard order, the answer `None` for a shard not routable.
    fn scatter_routable(
        &self,
        target: &str,
        now: u64,
        ctx: impl Fn(usize) -> Option<TraceContext>,
    ) -> Vec<(ShardState, Option<Answer>)> {
        let states: Vec<ShardState> = (0..self.cfg.shards)
            .map(|shard| self.serving_state(shard, now))
            .collect();
        let legs: Vec<(usize, Option<TraceContext>)> = (0..self.cfg.shards)
            .filter(|&shard| states[shard].routable())
            .map(|shard| (shard, ctx(shard)))
            .collect();
        let mut answers = self.scatter(target, &legs).into_iter();
        states
            .into_iter()
            .map(|state| {
                let answer = state
                    .routable()
                    .then(|| answers.next().expect("one answer per routable shard"));
                (state, answer)
            })
            .collect()
    }

    /// Reads `target` from every shard routable at `now`. Returns each
    /// shard's 200 body in shard order; an unroutable shard is `None`, as
    /// is a failed or non-200 read, which `count_errors` counts as a
    /// proxy error.
    fn gather(&self, target: &str, now: u64, count_errors: bool) -> Vec<Option<Vec<u8>>> {
        self.scatter_routable(target, now, |_| None)
            .into_iter()
            .map(|(_, answer)| match answer? {
                Ok((200, body)) => Some(body),
                _ => {
                    if count_errors {
                        self.counters.proxy_errors.inc();
                    }
                    None
                }
            })
            .collect()
    }

    /// Settles leg `leg` of a proxied request, sent to `shard`: `answer`
    /// is `None` when the leg was skipped because the shard was not
    /// routable. A transport failure counts a proxy error. The front's
    /// trace ring records the leg under `stage` with the shard's status,
    /// as 502 with `error=proxy` on a transport failure, or as a
    /// `proxy_skip` 503. The record's detail names the shard and the leg,
    /// plus the answer's `failover` attribution when one is given; it is
    /// formatted only when the ring is on. Returns the shard's answer.
    fn settle_leg(
        &self,
        hop: Hop,
        stage: &'static str,
        (shard, leg): (usize, usize),
        failover: Option<bool>,
        answer: Option<Answer>,
    ) -> Option<(u16, Vec<u8>)> {
        let status = match &answer {
            None => 503,
            Some(Ok((status, _))) => *status,
            Some(Err(_)) => {
                self.counters.proxy_errors.inc();
                502
            }
        };
        if let Some(log) = hop.metrics.trace_log() {
            let (stage, suffix) = match (&answer, failover) {
                (None, _) => ("proxy_skip", ""),
                (Some(Err(_)), _) => (stage, " error=proxy"),
                (Some(Ok(_)), Some(true)) => (stage, " failover=true"),
                (Some(Ok(_)), Some(false)) => (stage, " failover=false"),
                (Some(Ok(_)), None) => (stage, ""),
            };
            let detail = format!("shard-{shard} leg={leg}{suffix}");
            log.record(
                hop.ctx.child(leg as u64),
                hop.now,
                FRONT,
                stage,
                status,
                detail,
            );
        }
        answer.and_then(Result::ok)
    }

    /// Decorates a proxied answer with routing provenance and enforces
    /// the never-silently-stale invariant: `force_degraded` (off-owner
    /// service or a Degraded serving shard) flips an existing top-level
    /// `degraded` field to `true`; `served_by` and `failover` are appended
    /// to every JSON object body.
    ///
    /// The shard's bytes are relayed, not re-rendered: the body is checked
    /// against the full JSON grammar without building a tree, each
    /// forced `degraded` value is overwritten in place, and the provenance
    /// fields are spliced in before the closing brace. Shards render
    /// canonically ([`Json::render`]), so this equals parsing the body,
    /// editing the tree and rendering it again. A body that is not JSON
    /// is a 502 and a proxy error.
    fn decorate(
        &self,
        shard: usize,
        off_owner: bool,
        force_degraded: bool,
        status: u16,
        body: Vec<u8>,
    ) -> Response {
        let checked = String::from_utf8(body)
            .ok()
            .and_then(|text| Json::outline(&text).ok().map(|outline| (text, outline)));
        let Some((text, outline)) = checked else {
            self.counters.proxy_errors.inc();
            return Response::error(502, "unparseable shard response");
        };
        // The first top-level `degraded` value, as relayed.
        let mut degraded = None;
        let relayed = match outline.close {
            None => text,
            Some(close) => {
                let mut out = String::with_capacity(text.len() + 48);
                let mut copied = 0;
                for (name, value) in &outline.fields {
                    if name != "degraded" {
                        continue;
                    }
                    if force_degraded {
                        out.push_str(&text[copied..value.start]);
                        out.push_str("true");
                        copied = value.end;
                    }
                    degraded.get_or_insert(force_degraded || &text[value.clone()] == "true");
                }
                out.push_str(&text[copied..close]);
                if !outline.fields.is_empty() {
                    out.push(',');
                }
                out.push_str("\"served_by\":");
                json::write_str(&mut out, &self.shards[shard].instance);
                out.push_str(if off_owner {
                    ",\"failover\":true"
                } else {
                    ",\"failover\":false"
                });
                out.push_str(&text[close..]);
                out
            }
        };
        self.counters.served[shard].inc();
        if off_owner {
            self.counters.failed_over[shard].inc();
        }
        if status == 200 && degraded == Some(true) {
            self.counters.degraded[shard].inc();
        }
        Response::json(status, relayed)
    }

    /// The explicit refusal: 503 + `Retry-After`, `degraded: true` — a
    /// refused guarantee, never a silently stale answer.
    fn refuse(&self, msg: &str) -> Response {
        self.counters.refused.inc();
        let mut body = String::from("{\"error\":");
        json::write_str(&mut body, msg);
        body.push_str(",\"degraded\":true}");
        let mut resp = Response::json(503, body);
        resp.extra_headers
            .push(("Retry-After", RETRY_AFTER_SECS.to_string()));
        resp
    }

    fn graphs(&self, req: &Request, hop: Hop) -> Response {
        let combo = match parse_graphs_path(self.catalog, &req.path) {
            Ok(combo) => combo,
            Err(resp) => return resp,
        };
        let owners = self.ring.owners(combo.key());
        let primary = owners[0];
        let target = req.target();
        // Leg numbering walks the ring-owner order, skips included, so a
        // timeline names exactly which failover leg served (leg 0 is
        // always the primary).
        for (leg, shard) in owners.into_iter().enumerate() {
            let off_owner = shard != primary;
            let answer = self
                .serving_state(shard, hop.now)
                .routable()
                .then(|| self.proxy(shard, &target, Some(hop.ctx.child(leg as u64))));
            let Some((status, body)) =
                self.settle_leg(hop, "proxy_graphs", (shard, leg), Some(off_owner), answer)
            else {
                continue;
            };
            let degraded_shard = self.shard_state(shard, hop.now) == ShardState::Degraded;
            return self.decorate(shard, off_owner, off_owner || degraded_shard, status, body);
        }
        self.refuse("no owner routable for this market")
    }

    fn bid(&self, req: &Request, hop: Hop) -> Response {
        if let Err(resp) = bid_query(req) {
            return resp;
        }
        let Hop { metrics, ctx, now } = hop;
        let target = req.target();
        // Scatter to every routable shard; each answers the cheapest
        // guaranteed bid over the combos it registered (owned + replica
        // copies), so replicas would duplicate owners' quotes. Dedup
        // rule: keep a shard's quote only when it IS the quoted combo's
        // primary, or the primary is unroutable (true failover). Scatter
        // legs are numbered by shard index, so a timeline names which
        // shard's answer each leg is.
        let answers = self.scatter_routable(&target, now, |shard| Some(ctx.child(shard as u64)));
        let routable: Vec<bool> = answers.iter().map(|(_, a)| a.is_some()).collect();
        let mut best: Option<BidCandidate> = None;
        let mut fallback: Option<(u16, Vec<u8>, usize)> = None;
        // The answers are folded in shard order, so trace records,
        // counters, dedup and the winner come out as for legs run one
        // after another; an unroutable shard's leg is a `proxy_skip`.
        for (shard, (state, answer)) in answers.into_iter().enumerate() {
            let Some((status, body)) =
                self.settle_leg(hop, "proxy_bid", (shard, shard), None, answer)
            else {
                continue;
            };
            if status != 200 {
                if fallback.is_none() {
                    fallback = Some((status, body, shard));
                }
                continue;
            }
            let Some(wire) = std::str::from_utf8(&body)
                .ok()
                .and_then(|s| Json::parse(s).ok())
                .and_then(|doc| BidQuoteWire::from_json(&doc))
            else {
                self.counters.proxy_errors.inc();
                continue;
            };
            let Some(az) = Az::parse(&wire.az) else {
                continue;
            };
            let Some(ty) = self.catalog.type_id(&wire.type_name) else {
                continue;
            };
            let key = Combo::new(az, ty).key();
            let primary = self.ring.primary(key);
            if shard != primary && routable[primary] {
                continue; // the primary's own answer covers this combo
            }
            let off_owner = shard != primary;
            let degraded = wire.degraded || off_owner || state == ShardState::Degraded;
            let candidate = BidCandidate {
                shard,
                off_owner,
                degraded,
                bid_usd: wire.bid_usd,
                key,
                body,
            };
            best = Some(match best.take() {
                None => candidate,
                Some(held) => {
                    if better_bid(&candidate, &held) {
                        candidate
                    } else {
                        held
                    }
                }
            });
        }
        match best {
            Some(winner) => {
                metrics.quotes_total.inc();
                if winner.degraded {
                    metrics.degraded_quotes.inc();
                }
                self.decorate(
                    winner.shard,
                    winner.off_owner,
                    winner.degraded,
                    200,
                    winner.body,
                )
            }
            None if !routable.contains(&true) => self.refuse("no shard routable"),
            None => match fallback {
                // Uniform non-200 (e.g. 404 "no market guarantees"):
                // relay the first shard's verdict verbatim.
                Some((status, body, shard)) => self.decorate(shard, false, false, status, body),
                None => self.refuse("every routable shard failed"),
            },
        }
    }

    fn health(&self, hop: Hop) -> Response {
        let Hop { ctx, now, .. } = hop;
        // Each routable shard's own rollup; an unroutable shard records no
        // `proxy_skip`: its row reports its state.
        let answers = self.scatter_routable(&format!("/v1/health?now={now}"), now, |shard| {
            Some(ctx.child(shard as u64))
        });
        let mut shard_rows = Vec::with_capacity(self.cfg.shards);
        let mut docs: Vec<Option<Json>> = Vec::with_capacity(self.cfg.shards);
        for (shard, (state, answer)) in answers.into_iter().enumerate() {
            let doc = answer.and_then(|answer| {
                match self.settle_leg(hop, "proxy_health", (shard, shard), None, Some(answer)) {
                    Some((200, body)) => std::str::from_utf8(&body)
                        .ok()
                        .and_then(|s| Json::parse(s).ok()),
                    Some(_) => {
                        self.counters.proxy_errors.inc();
                        None
                    }
                    None => None,
                }
            });
            shard_rows.push(ShardHealthRow {
                instance: &self.shards[shard].instance,
                state,
                counts: doc
                    .as_ref()
                    .and_then(HealthCountsWire::from_json)
                    .unwrap_or_default(),
            });
            docs.push(doc);
        }
        // Authoritative per-combo state: the first routable owner's row.
        let combo_rows: Vec<ComboHealthRow> = self
            .combos
            .iter()
            .map(|&combo| {
                let owners = self.ring.owners(combo.key());
                let served = owners.iter().find_map(|&shard| {
                    let state = combo_state(docs[shard].as_ref()?, self.catalog, combo)?;
                    Some((self.shards[shard].instance.as_str(), state))
                });
                ComboHealthRow {
                    combo,
                    owner: &self.shards[owners[0]].instance,
                    served,
                }
            })
            .collect();
        let mut body = String::with_capacity(256 + 128 * combo_rows.len());
        write_front_health(&mut body, self.catalog, now, &shard_rows, &combo_rows);
        Response::json(200, body)
    }
}

/// The identity the front records its own trace observations under.
const FRONT: &str = "fleet-front";

/// A proxied GET's outcome: the shard's status and body, or the
/// transport error.
type Answer = io::Result<(u16, Vec<u8>)>;

/// One front request as its proxied legs see it: the front's metrics,
/// the request's trace context and its virtual time.
#[derive(Clone, Copy)]
struct Hop<'a> {
    metrics: &'a Metrics,
    ctx: TraceContext,
    now: u64,
}

/// One shard's row of the front's `/v1/health` answer.
struct ShardHealthRow<'a> {
    instance: &'a str,
    state: ShardState,
    /// The shard's own rollup counts (zeros when it did not answer).
    counts: HealthCountsWire,
}

/// One combo's row of the front's `/v1/health` answer.
struct ComboHealthRow<'a> {
    combo: Combo,
    /// The combo's primary owner.
    owner: &'a str,
    /// The first routable owner whose rollup reports the combo, and the
    /// state it reports; `None` when no owner does.
    served: Option<(&'a str, &'a str)>,
}

impl ComboHealthRow<'_> {
    /// The state the serving owner reports; `unavailable` when none does.
    fn state(&self) -> &str {
        self.served.map_or("unavailable", |(_, state)| state)
    }
}

/// Writes the front's `/v1/health` answer in one pass:
/// `{"now","instance":"fleet-front","counts":{"fresh","stale",
/// "unavailable"},"shards":[{"instance","state","fresh","stale",
/// "unavailable"}],"combos":[{"region","az","type","state","owner",
/// "served_by"}]}`. A combo no owner reports is `unavailable`, served by
/// `null`.
fn write_front_health(
    out: &mut String,
    catalog: &Catalog,
    now: u64,
    shards: &[ShardHealthRow],
    combos: &[ComboHealthRow],
) {
    let mut counts = HealthCountsWire::default();
    for row in combos {
        match row.state() {
            "fresh" => counts.fresh += 1,
            "stale" => counts.stale += 1,
            _ => counts.unavailable += 1,
        }
    }
    out.push_str("{\"now\":");
    json::write_u64(out, now);
    out.push_str(",\"instance\":\"fleet-front\",\"counts\":{");
    wire::write_counts(out, counts);
    out.push_str("},\"shards\":[");
    for (i, row) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"instance\":");
        json::write_str(out, row.instance);
        out.push_str(",\"state\":");
        json::write_str(out, row.state.label());
        out.push(',');
        wire::write_counts(out, row.counts);
        out.push('}');
    }
    out.push_str("],\"combos\":[");
    for (i, row) in combos.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        wire::write_combo(out, catalog, row.combo);
        out.push_str(",\"state\":");
        json::write_str(out, row.state());
        out.push_str(",\"owner\":");
        json::write_str(out, row.owner);
        out.push_str(",\"served_by\":");
        match row.served {
            Some((instance, _)) => json::write_str(out, instance),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// A deduplicated `/v1/bid` candidate during scatter-gather.
struct BidCandidate {
    shard: usize,
    off_owner: bool,
    degraded: bool,
    bid_usd: f64,
    key: u64,
    /// The shard's answer bytes, relayed as-is if this candidate wins.
    body: Vec<u8>,
}

/// Winner order: guaranteed beats degraded, then cheapest bid, then the
/// lowest combo key and shard index as deterministic tie-breaks.
fn better_bid(a: &BidCandidate, b: &BidCandidate) -> bool {
    (a.degraded, a.bid_usd, a.key, a.shard).partial_cmp(&(b.degraded, b.bid_usd, b.key, b.shard))
        == Some(std::cmp::Ordering::Less)
}

/// A shard's reported state for `combo` inside its `/v1/health` doc.
fn combo_state<'d>(doc: &'d Json, catalog: &Catalog, combo: Combo) -> Option<&'d str> {
    let combos = doc.get("combos")?.as_arr()?;
    let az = combo.az.name();
    let ty = catalog.spec(combo.ty).name;
    combos
        .iter()
        .find(|row| {
            row.get("az").and_then(Json::as_str) == Some(az.as_str())
                && row.get("type").and_then(Json::as_str) == Some(ty)
        })
        .and_then(|row| row.get("state"))
        .and_then(Json::as_str)
}

/// Rewrites a `/v1/metrics` exposition so every sample carries a leading
/// `instance` label: `name{labels} v` → `name{instance="i",labels} v`,
/// `name v` → `name{instance="i"} v`. Lines that don't look like samples
/// pass through untouched.
pub(crate) fn label_instance(exposition: &str, instance: &str) -> String {
    let mut out = String::with_capacity(exposition.len() + exposition.len() / 2);
    for line in exposition.lines() {
        let sample = (!line.is_empty() && !line.starts_with('#'))
            .then(|| line.rsplit_once(' '))
            .flatten();
        match sample {
            Some((metric, value)) => {
                match metric.split_once('{') {
                    Some((name, rest)) => {
                        out.push_str(name);
                        out.push_str("{instance=\"");
                        out.push_str(instance);
                        out.push_str("\",");
                        out.push_str(rest);
                    }
                    None => {
                        out.push_str(metric);
                        out.push_str("{instance=\"");
                        out.push_str(instance);
                        out.push_str("\"}");
                    }
                }
                out.push(' ');
                out.push_str(value);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

impl FrontRouter {
    /// `/v1/fleet/metrics` — the whole fleet's expositions in one page:
    /// a liveness gauge plus the instance's own `/v1/metrics` text, every
    /// line rewritten with a leading `instance` label; the front first,
    /// then shards in index order. Unreachable shards contribute only
    /// `drafts_fleet_instance_up ... 0`. Deterministic for a sequential
    /// drive: reachability is the (seeded) fault plan plus memoized probe
    /// grid, and each exposition is deterministic on its own.
    fn fleet_metrics(&self, now: u64, metrics: &Metrics) -> Response {
        let mut out = String::new();
        out.push_str("drafts_fleet_instance_up{instance=\"front\"} 1\n");
        out.push_str(&label_instance(&metrics.render_text(), "front"));
        let bodies = self.gather("/v1/metrics", now, true);
        for (handle, body) in self.shards.iter().zip(bodies) {
            let instance = &handle.instance;
            match body.and_then(|body| String::from_utf8(body).ok()) {
                Some(text) => {
                    out.push_str(&format!(
                        "drafts_fleet_instance_up{{instance=\"{instance}\"}} 1\n"
                    ));
                    out.push_str(&label_instance(&text, instance));
                }
                None => out.push_str(&format!(
                    "drafts_fleet_instance_up{{instance=\"{instance}\"}} 0\n"
                )),
            }
        }
        Response::text(200, out)
    }

    /// `/v1/fleet/slo` — every instance's SLO report in one document:
    /// `{"now",
    /// "instances":[{"instance","slo":<per-instance /v1/slo doc>},...]}`,
    /// front first, `null` for unreachable shards. The front's own
    /// objectives evaluate over its windowed metrics only (it owns no
    /// feeds, so the instant freshness objective reads an empty rollup).
    fn fleet_slo(&self, now: u64, metrics: &Metrics) -> Response {
        let statuses = metrics
            .slo()
            .evaluate(now, metrics.windows(), &[], metrics.events(), 0);
        let mut instances = vec![Json::obj(vec![
            ("instance", Json::str("front")),
            ("slo", crate::wire::slo_json(now, &statuses)),
        ])];
        let bodies = self.gather(&format!("/v1/slo?now={now}"), now, true);
        for (handle, body) in self.shards.iter().zip(bodies) {
            let doc = body.and_then(|body| {
                std::str::from_utf8(&body)
                    .ok()
                    .and_then(|s| Json::parse(s).ok())
            });
            instances.push(Json::obj(vec![
                ("instance", Json::Str(handle.instance.clone())),
                ("slo", doc.unwrap_or(Json::Null)),
            ]));
        }
        Response::json(
            200,
            Json::obj(vec![
                ("now", Json::num_u64(now)),
                ("instances", Json::Arr(instances)),
            ])
            .render(),
        )
    }

    /// Front `/v1/_debug/trace/{id}` — the fleet-merged timeline: the
    /// front's own observations of the trace
    /// plus every reachable shard's, rendered through the same hop-major
    /// sort the shards use (so the merge is independent of shard query
    /// order). 404 when tracing is off or nothing was retained.
    fn timeline(&self, hex: &str, now: u64, metrics: &Metrics) -> Response {
        let Some(log) = metrics.trace_log() else {
            return Response::error(404, "trace log disabled");
        };
        let Ok(trace_id) = u64::from_str_radix(hex, 16) else {
            return Response::error(400, "trace id must be hex");
        };
        let mut entries: Vec<TraceEntry> =
            log.for_trace(trace_id).iter().map(TraceEntry::of).collect();
        // A shard 404s when it retains nothing for the id — that's an
        // empty contribution here, not a proxy error.
        for body in self
            .gather(&format!("/v1/_debug/trace/{hex}"), now, false)
            .into_iter()
            .flatten()
        {
            let Some(doc) = std::str::from_utf8(&body)
                .ok()
                .and_then(|s| Json::parse(s).ok())
            else {
                continue;
            };
            if let Some(records) = doc.get("records").and_then(|r| r.as_arr()) {
                entries.extend(records.iter().filter_map(TraceEntry::from_json));
            }
        }
        if entries.is_empty() {
            return Response::error(404, "no records for this trace");
        }
        Response::json(200, trace_timeline_json(trace_id, &entries).render())
    }

    /// The route switch proper, run through the shared traced-request
    /// path.
    fn dispatch(
        &self,
        route: Route,
        req: &Request,
        metrics: &Metrics,
        ctx: TraceContext,
    ) -> Response {
        if req.method != "GET" {
            return Response::error(405, "only GET is supported");
        }
        let now = match now_of(req, self.default_now) {
            Ok(now) if now > self.default_now.saturating_add(NOW_HORIZON) => {
                return Response::error(400, "now is past the fleet's horizon");
            }
            Ok(now) => now,
            Err(resp) => return resp,
        };
        metrics.windows().advance(now);
        let hop = Hop { metrics, ctx, now };
        match route {
            Route::Graphs => self.graphs(req, hop),
            Route::Bid => self.bid(req, hop),
            Route::Health => self.health(hop),
            Route::Metrics => Response::text(200, metrics.render_text()),
            Route::Other => {
                if req.path == "/v1/fleet/metrics" {
                    return self.fleet_metrics(now, metrics);
                }
                if req.path == "/v1/fleet/slo" {
                    return self.fleet_slo(now, metrics);
                }
                if let Some(hex) = req.path.strip_prefix("/v1/_debug/trace/") {
                    return self.timeline(hex, now, metrics);
                }
                Response::error(404, "no such route")
            }
        }
    }
}

impl Handler for FrontRouter {
    fn handle(&self, req: &Request, metrics: &Metrics) -> Response {
        traced(req, metrics, FRONT, self.default_now, |route, ctx| {
            self.dispatch(route, req, metrics, ctx)
        })
    }

    fn default_now(&self) -> u64 {
        self.default_now
    }

    fn on_boot(&self, metrics: &Metrics) {
        let instances: Vec<String> = self.shards.iter().map(|s| s.instance.clone()).collect();
        self.counters.register(metrics.registry(), &instances);
    }
}

/// Aggregated drain outcome for the whole fleet.
#[derive(Debug)]
pub struct FleetDrainReport {
    /// The front server's drain.
    pub front: DrainReport,
    /// Per-shard drains (`None` for shards already stopped earlier via
    /// [`Fleet::drain_shard`] / [`Fleet::kill_shard`]).
    pub shards: Vec<Option<DrainReport>>,
}

/// A running fleet: N shard servers plus the routing front. Stopping any
/// of them ([`Fleet::drain_shard`], [`Fleet::kill_shard`],
/// [`Fleet::shutdown`]) is an ordinary [`Server::shutdown`], which closes
/// idle keep-alives (the front's parked legs, a client still connected)
/// at once instead of waiting out their deadlines.
pub struct Fleet {
    front: Option<Server>,
    shard_servers: Vec<Option<Server>>,
    router: Arc<FrontRouter>,
}

impl Fleet {
    /// Boots one shard server per service (shard `i` serving
    /// `services[i]`, identity `shard-{i}`) and the routing front.
    ///
    /// Each service should hold the combos the config's [`Ring`] assigns
    /// shard `i` as primary **or** replica — the replication that makes
    /// failover serve real data. [`Fleet::start`] does not enforce the
    /// assignment; the experiments harness builds services from the same
    /// ring it hands the front.
    pub fn start(
        services: Vec<Arc<DraftsService>>,
        default_now: u64,
        cfg: FleetConfig,
    ) -> io::Result<Fleet> {
        assert_eq!(services.len(), cfg.shards, "one service per shard");
        let mut combos: Vec<Combo> = Vec::new();
        let mut shard_servers = Vec::with_capacity(cfg.shards);
        let mut addrs = Vec::with_capacity(cfg.shards);
        for (i, service) in services.into_iter().enumerate() {
            combos.extend(service.combos());
            let mut router = Router::new(service, default_now).with_instance(format!("shard-{i}"));
            if cfg.debug_routes {
                router = router.with_debug_routes();
            }
            let server = Server::start(router, cfg.shard_server.clone())?;
            addrs.push(server.addr());
            shard_servers.push(Some(server));
        }
        let router = Arc::new(FrontRouter::new(cfg.clone(), addrs, combos, default_now));
        let front = Server::start_shared(router.clone(), cfg.front_server)?;
        Ok(Fleet {
            front: Some(front),
            shard_servers,
            router,
        })
    }

    /// The front's bound address — the one clients talk to.
    pub fn addr(&self) -> SocketAddr {
        self.front.as_ref().expect("front running").addr()
    }

    /// A shard server's bound address.
    pub fn shard_addr(&self, shard: usize) -> SocketAddr {
        self.shard_servers[shard]
            .as_ref()
            .expect("shard running")
            .addr()
    }

    /// The routing front (counters, ring, drain flags).
    pub fn front(&self) -> &FrontRouter {
        &self.router
    }

    /// The front server's metrics.
    pub fn front_metrics(&self) -> Arc<Metrics> {
        self.front.as_ref().expect("front running").metrics()
    }

    /// Gracefully drains one shard mid-run (the SIGTERM path): the front
    /// stops routing new requests to it first, in-flight requests
    /// finish, and the shard's `admitted == served` invariant holds.
    ///
    /// # Panics
    /// Panics if the shard was already stopped.
    pub fn drain_shard(&mut self, shard: usize) -> DrainReport {
        self.router.begin_drain(shard);
        let server = self.shard_servers[shard]
            .take()
            .expect("shard already stopped");
        server.shutdown()
    }

    /// Stops a shard *without* telling the front (the crash path): the
    /// shard's drain closes the front's parked connections as it closes
    /// any idle keep-alive, and the front keeps routing to it until proxy
    /// errors and failed probes push it through Degraded to Down.
    ///
    /// # Panics
    /// Panics if the shard was already stopped.
    pub fn kill_shard(&mut self, shard: usize) -> DrainReport {
        let server = self.shard_servers[shard]
            .take()
            .expect("shard already stopped");
        server.shutdown()
    }

    /// Drains the whole fleet, front first (so no request is in flight
    /// when the shards drain), and returns every report.
    pub fn shutdown(mut self) -> FleetDrainReport {
        let front = self.front.take().expect("front running").shutdown();
        let shards = self
            .shard_servers
            .iter_mut()
            .map(|server| server.take().map(Server::shutdown))
            .collect();
        FleetDrainReport { front, shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_of_round_trips_path_and_query() {
        // The front relays `Request::target` to the shards verbatim: the
        // query keeps its order, a bare path stays bare, and a valueless
        // key keeps no `=`.
        let parse = |raw: &str| {
            crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
        };
        let req = parse("GET /v1/bid?duration=3600&p=0.95&now=7 HTTP/1.1\r\n\r\n");
        assert_eq!(req.target(), "/v1/bid?duration=3600&p=0.95&now=7");
        let req = parse("GET /v1/health HTTP/1.1\r\n\r\n");
        assert_eq!(req.target(), "/v1/health");
        let req = parse("GET /v1/bid?duration=3600&flag&now=7 HTTP/1.1\r\n\r\n");
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.target(), "/v1/bid?duration=3600&flag&now=7");
    }

    #[test]
    fn label_instance_prefixes_every_sample() {
        let text = "drafts_requests_total{route=\"bid\"} 3\ndrafts_shed_total 0\n";
        assert_eq!(
            label_instance(text, "shard-1"),
            "drafts_requests_total{instance=\"shard-1\",route=\"bid\"} 3\n\
             drafts_shed_total{instance=\"shard-1\"} 0\n"
        );
        // Non-sample lines pass through.
        assert_eq!(label_instance("# comment\n", "x"), "# comment\n");
        assert_eq!(label_instance("", "x"), "");
    }

    #[test]
    fn bid_winner_prefers_guaranteed_then_cheapest() {
        let candidate = |shard, degraded, bid_usd| BidCandidate {
            shard,
            off_owner: false,
            degraded,
            bid_usd,
            key: shard as u64,
            body: Vec::new(),
        };
        let cheap_degraded = candidate(0, true, 0.10);
        let pricey_guaranteed = candidate(1, false, 0.90);
        assert!(
            better_bid(&pricey_guaranteed, &cheap_degraded),
            "guaranteed beats degraded at any price"
        );
        let cheaper = candidate(2, false, 0.50);
        assert!(better_bid(&cheaper, &pricey_guaranteed));
        assert!(!better_bid(&pricey_guaranteed, &cheaper));
    }

    #[test]
    fn probe_fold_backs_off_and_recovers_deterministically() {
        // First failure: Degraded, reprobe after 2 slots.
        let s1 = fold_slot(SLOT_ZERO, ProbeOutcome::Fail, 0);
        assert_eq!(s1.state, ShardState::Degraded);
        assert_eq!(s1.failures, 1);
        assert_eq!(s1.next_probe, 2);
        // Second failure: Down, backoff doubles.
        let s2 = fold_slot(s1, ProbeOutcome::Fail, 2);
        assert_eq!(s2.state, ShardState::Down);
        assert_eq!(s2.next_probe, 2 + 4);
        // Backoff caps at 2^cap slots.
        let s3 = fold_slot(s2, ProbeOutcome::Fail, 6);
        assert_eq!(s3.next_probe, 6 + 8);
        let s4 = fold_slot(s3, ProbeOutcome::Fail, 14);
        assert_eq!(s4.next_probe, 14 + 8, "backoff is capped");
        // A successful probe resets everything.
        let s5 = fold_slot(s4, ProbeOutcome::Up, 22);
        assert_eq!(s5.state, ShardState::Up);
        assert_eq!(s5.failures, 0);
        assert_eq!(s5.next_probe, 23);
    }

    /// The decorate contract as first implemented — parse, edit the tree,
    /// render — kept as the oracle for the byte relay. Returns the bytes
    /// and whether the answer counts as degraded.
    fn rerendered(instance: &str, off_owner: bool, force: bool, body: &str) -> (Vec<u8>, bool) {
        let mut doc = Json::parse(body).expect("oracle input is JSON");
        if let Json::Obj(fields) = &mut doc {
            if force {
                for (name, value) in fields.iter_mut() {
                    if name == "degraded" {
                        *value = Json::Bool(true);
                    }
                }
            }
            fields.push(("served_by".to_string(), Json::str(instance)));
            fields.push(("failover".to_string(), Json::Bool(off_owner)));
        }
        let degraded = doc.get("degraded").and_then(Json::as_bool) == Some(true);
        (doc.render().into_bytes(), degraded)
    }

    /// Shard-shaped answer bodies, each rendered the way shards render.
    fn shard_bodies() -> Vec<(u16, String)> {
        use crate::wire::{bid_quote_json, health_json};
        use drafts_core::service::{BidQuote, ComboHealth, FeedHealth};
        let catalog = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-east-1c").expect("known az"),
            catalog.type_id("c3.4xlarge").expect("known type"),
        );
        let graphs = |state: &str, degraded: bool| {
            Json::obj(vec![
                ("region", Json::str("us-east-1")),
                ("az", Json::str("us-east-1c")),
                ("type", Json::str("c3.4xlarge")),
                ("state", Json::str(state)),
                ("degraded", Json::Bool(degraded)),
                ("covered_until", Json::num_u64(1_728_000)),
                (
                    "graphs",
                    Json::Arr(vec![Json::obj(vec![
                        ("p", Json::num(0.95)),
                        ("computed_at", Json::num_u64(1_728_000)),
                        (
                            "points",
                            Json::Arr(vec![
                                Json::obj(vec![
                                    ("bid_usd", Json::num(0.1234)),
                                    ("durability_secs", Json::num_u64(3600)),
                                ]),
                                Json::obj(vec![
                                    ("bid_usd", Json::num(0.25)),
                                    ("durability_secs", Json::num_u64(86_400)),
                                ]),
                            ]),
                        ),
                    ])]),
                ),
            ])
            .render()
        };
        let quote = |degraded| BidQuote {
            combo,
            bid: spotmarket::Price::from_dollars(0.8123),
            durability_secs: 7200,
            probability: 0.95,
            degraded,
        };
        let rollup = [
            ComboHealth {
                combo,
                health: FeedHealth::Fresh,
                covered_until: 100,
            },
            ComboHealth {
                combo,
                health: FeedHealth::Stale { age: 1800 },
                covered_until: 50,
            },
        ];
        let health = health_json(catalog, "shard-1", &rollup).render();
        vec![
            (200, graphs("fresh", false)),
            (200, graphs("unavailable", true)),
            (200, bid_quote_json(catalog, &quote(false)).render()),
            (200, bid_quote_json(catalog, &quote(true)).render()),
            (
                404,
                Json::obj(vec![("error", Json::str("no market guarantees"))]).render(),
            ),
            (200, health),
            // Edge shapes: duplicate keys, a nested `degraded` the relay
            // must not touch, a non-boolean one, no fields, no object.
            (
                200,
                r#"{"degraded":false,"x":{"degraded":false},"degraded":false}"#.to_string(),
            ),
            (
                200,
                r#"{"degraded":null,"rows":[{"degraded":true}]}"#.to_string(),
            ),
            (200, "{}".to_string()),
            (200, "[1,{\"degraded\":true}]".to_string()),
        ]
    }

    /// The front's `/v1/health` answer as the tree first encoded it, kept
    /// as the oracle for `write_front_health`.
    fn tree_front_health(
        catalog: &Catalog,
        now: u64,
        shards: &[ShardHealthRow],
        combos: &[ComboHealthRow],
    ) -> Json {
        let shard_rows = shards
            .iter()
            .map(|row| {
                Json::obj(vec![
                    ("instance", Json::Str(row.instance.to_string())),
                    ("state", Json::str(row.state.label())),
                    ("fresh", Json::num_u64(row.counts.fresh)),
                    ("stale", Json::num_u64(row.counts.stale)),
                    ("unavailable", Json::num_u64(row.counts.unavailable)),
                ])
            })
            .collect();
        let mut fresh = 0u64;
        let mut stale = 0u64;
        let mut unavailable = 0u64;
        let mut combo_rows = Vec::new();
        for row in combos {
            let (served_by, state) = match row.served {
                Some((instance, state)) => (Json::Str(instance.to_string()), state.to_string()),
                None => (Json::Null, "unavailable".to_string()),
            };
            match state.as_str() {
                "fresh" => fresh += 1,
                "stale" => stale += 1,
                _ => unavailable += 1,
            }
            combo_rows.push(Json::obj(vec![
                ("region", Json::str(row.combo.az.region().name())),
                ("az", Json::str(row.combo.az.name())),
                ("type", Json::str(catalog.spec(row.combo.ty).name)),
                ("state", Json::Str(state)),
                ("owner", Json::Str(row.owner.to_string())),
                ("served_by", served_by),
            ]));
        }
        Json::obj(vec![
            ("now", Json::num_u64(now)),
            ("instance", Json::str("fleet-front")),
            (
                "counts",
                Json::obj(vec![
                    ("fresh", Json::num_u64(fresh)),
                    ("stale", Json::num_u64(stale)),
                    ("unavailable", Json::num_u64(unavailable)),
                ]),
            ),
            ("shards", Json::Arr(shard_rows)),
            ("combos", Json::Arr(combo_rows)),
        ])
    }

    #[test]
    fn front_answers_equal_the_tree_encoding() {
        let catalog = Catalog::standard();
        let combos: Vec<Combo> = [
            ("us-east-1c", "c3.4xlarge"),
            ("us-west-2a", "c4.large"),
            ("us-west-1b", "m3.medium"),
            ("us-east-1e", "c4.large"),
            ("us-west-2c", "c3.4xlarge"),
        ]
        .into_iter()
        .map(|(az, ty)| {
            Combo::new(
                Az::parse(az).expect("known az"),
                catalog.type_id(ty).expect("known type"),
            )
        })
        .collect();
        let instances = ["shard-0", "shard-1", "shard-2"];
        let shard_states = [
            ShardState::Up,
            ShardState::Degraded,
            ShardState::Down,
            ShardState::Draining,
        ];
        // A shard document may report any string as a combo's state.
        let combo_states = ["fresh", "stale", "unavailable", "odd \"state\"\n"];
        // Every shard state, served and unserved combos, every combo state.
        for case in 0..12 {
            let shards: Vec<ShardHealthRow> = instances
                .iter()
                .enumerate()
                .map(|(i, &instance)| ShardHealthRow {
                    instance,
                    state: shard_states[(i + case) % 4],
                    counts: HealthCountsWire {
                        fresh: (i + case) as u64,
                        stale: (case % 2) as u64,
                        unavailable: i as u64,
                    },
                })
                .collect();
            let rows: Vec<ComboHealthRow> = combos
                .iter()
                .enumerate()
                .map(|(j, &combo)| ComboHealthRow {
                    combo,
                    owner: instances[(j + case) % 3],
                    served: ((j + case) % 5 != 0)
                        .then(|| (instances[(j + case + 1) % 3], combo_states[(j + case) % 4])),
                })
                .collect();
            for (shards, rows) in [
                (&shards[..], &rows[..]),
                (&shards[..1], &[][..]),
                (&[][..], &rows[..2]),
            ] {
                let now = 1_728_000 + 900 * case as u64;
                let mut body = String::new();
                write_front_health(&mut body, catalog, now, shards, rows);
                let want = tree_front_health(catalog, now, shards, rows).render();
                assert_eq!(body, want, "case {case}");
            }
        }

        // The refusal, as the tree encoded it.
        let front = FrontRouter::new(
            FleetConfig::new(1),
            vec!["127.0.0.1:1".parse().unwrap()],
            Vec::new(),
            0,
        );
        let resp = front.refuse("no owner routable for this market");
        let want = Json::obj(vec![
            ("error", Json::str("no owner routable for this market")),
            ("degraded", Json::Bool(true)),
        ]);
        assert_eq!(resp.body, want.render().into_bytes());
        assert_eq!(resp.status, 503);
    }

    #[test]
    fn bid_validation_answers_as_the_instance_does() {
        // The front validates a bid before scattering it: each malformed
        // query gets the instance router's status and body bytes. A 400
        // proxies nothing, so the front's shards need not exist.
        let front = FrontRouter::new(
            FleetConfig::new(2),
            vec![
                "127.0.0.1:1".parse().unwrap(),
                "127.0.0.1:2".parse().unwrap(),
            ],
            Vec::new(),
            0,
        );
        let service = DraftsService::new(drafts_core::service::ServiceConfig::default());
        let router = Router::new(Arc::new(service), 0);
        for query in [
            "p=0.95",
            "duration=x",
            "duration=-1",
            "duration=3600&p=NaN",
            "duration=3600&p=0",
            "duration=3600&p=1.5",
            "duration=3600&now=abc",
        ] {
            let raw = format!("GET /v1/bid?{query} HTTP/1.1\r\n\r\n");
            let req = http::read_request(&mut raw.as_bytes()).unwrap();
            let want = router.handle(&req, &Metrics::new());
            let got = front.handle(&req, &Metrics::new());
            assert_eq!(want.status, 400, "{query}");
            assert_eq!(
                (got.status, String::from_utf8_lossy(&got.body)),
                (want.status, String::from_utf8_lossy(&want.body)),
                "{query}"
            );
        }
        assert_eq!(front.counters.proxy_errors.get(), 0);
    }

    #[test]
    fn decorate_forces_degraded_and_appends_provenance() {
        let cfg = FleetConfig::new(2);
        let addrs = vec![
            "127.0.0.1:1".parse().unwrap(),
            "127.0.0.1:2".parse().unwrap(),
        ];
        let front = FrontRouter::new(cfg, addrs, Vec::new(), 0);
        let body = b"{\"bid_usd\":0.5,\"degraded\":false}".to_vec();
        let resp = front.decorate(1, true, true, 200, body);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("served_by").unwrap().as_str(), Some("shard-1"));
        assert_eq!(doc.get("failover").unwrap().as_bool(), Some(true));
        assert_eq!(front.counters.served[1].get(), 1);
        assert_eq!(front.counters.failed_over[1].get(), 1);
        assert_eq!(front.counters.degraded[1].get(), 1);
        // On-owner fresh answers pass through untouched except provenance.
        let body = b"{\"bid_usd\":0.5,\"degraded\":false}".to_vec();
        let resp = front.decorate(0, false, false, 200, body);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("failover").unwrap().as_bool(), Some(false));
        assert_eq!(front.counters.failed_over[0].get(), 0);

        // The relayed bytes and counter moves equal parse → edit → render
        // for every shard-shaped body, forced and not.
        for (status, body) in shard_bodies() {
            for (shard, off_owner, force) in [(0, false, false), (1, false, true), (1, true, true)]
            {
                let counters = &front.counters;
                let before = (
                    counters.served[shard].get(),
                    counters.failed_over[shard].get(),
                    counters.degraded[shard].get(),
                );
                let resp =
                    front.decorate(shard, off_owner, force, status, body.clone().into_bytes());
                let instance = format!("shard-{shard}");
                let (want, degraded) = rerendered(&instance, off_owner, force, &body);
                assert_eq!(
                    String::from_utf8_lossy(&resp.body),
                    String::from_utf8_lossy(&want),
                    "relay differs from re-render (force={force}) for {body}"
                );
                assert_eq!(resp.status, status);
                let after = (
                    counters.served[shard].get(),
                    counters.failed_over[shard].get(),
                    counters.degraded[shard].get(),
                );
                let moved = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
                let want_degraded = u64::from(status == 200 && degraded);
                assert_eq!(moved, (1, u64::from(off_owner), want_degraded), "{body}");
            }
        }
        assert_eq!(front.counters.proxy_errors.get(), 0);

        // A body that is not JSON is a 502 and a proxy error, and counts
        // as served by no one.
        for bad in [
            &b"{\"degraded\":false"[..],
            b"<html>",
            b"{\"a\":1}x",
            b"\xff\xfe",
        ] {
            let served = front.counters.served[0].get();
            let errors = front.counters.proxy_errors.get();
            let resp = front.decorate(0, false, true, 200, bad.to_vec());
            assert_eq!(resp.status, 502);
            assert_eq!(front.counters.proxy_errors.get(), errors + 1);
            assert_eq!(front.counters.served[0].get(), served);
        }
    }
}
