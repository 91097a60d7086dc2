//! In-process stand-in for the DrAFTS web service (paper §3.3), hardened
//! against a degraded price feed.
//!
//! The production prototype at `predictspotprice.cs.ucsb.edu` periodically
//! queried the price-history API and published, per instance type and AZ,
//! bid–duration graphs at the 0.95 and 0.99 probability levels — bids from
//! the smallest guaranteeing any duration, in 5% increments up to 4x,
//! recomputed every 15 minutes. Clients fetched the graphs over REST.
//!
//! Here the service has the same contract: graphs are recomputed at most
//! once per 15-minute bucket, are shared across callers (`Arc`), and
//! clients never see data fresher than the bucket — exactly the staleness
//! a polling REST client would experience. The machine-readable payload
//! is [`BidDurationGraph::to_csv`].
//!
//! # Read path: published snapshots
//!
//! The combo map is sharded (FNV of the combo key → [`ServiceConfig::
//! shards`] shards) and each shard publishes an immutable snapshot of its
//! recently computed buckets through [`Swap`] — an epoch-guarded atomic
//! pointer swap (see [`crate::snapshot`]), each bucket as the one `Arc`
//! map its build returned. A steady-state fetch is one snapshot load, a
//! scan of the retained buckets from the newest, and a hash lookup: **no
//! lock is acquired and nothing is computed**. Only a fetch that misses
//! the snapshot (first query of a bucket, typically once per 15 minutes
//! per shard) takes the slow path: it single-flights onto one leader,
//! which recomputes every combo in the shard (fanning out on
//! [`parallel::Pool`] when the shard holds several) and publishes the
//! bucket with one swap. Publication in one shard never stalls reads —
//! or publications — in another.
//!
//! Snapshots retain the [`ServiceConfig::retain_buckets`] newest buckets
//! per shard, so resident memory is O(combos × retained buckets), never
//! O(buckets served): old buckets are evicted as new ones publish. The
//! slow path counts its lock acquisitions in `drafts_read_locks_total`,
//! which therefore reads 0 across any warm steady-state interval.
//!
//! # Degradation semantics
//!
//! The service reads each combo through a [`FeedSource`] — [`CleanFeed`]
//! in the perfect-feed case, a seeded
//! [`FaultyFeed`](spotmarket::FaultyFeed) under fault injection — and
//! attaches a [`FeedHealth`] to every response:
//!
//! * **Fresh** — the backing data is at most [`ServiceConfig::fresh_for`]
//!   old at the bucket time: the normal serving state.
//! * **Stale** — the feed failed (after
//!   [`ServiceConfig::max_retries`] retries with deterministic exponential
//!   backoff) or delivered old data, but the newest usable data is within
//!   [`ServiceConfig::staleness_budget`]: the last good graphs are served
//!   with their age attached, and the durability guarantee still stands.
//! * **Unavailable** — the data exceeds the staleness budget (or never
//!   existed): the graphs (if any) are served as *no-guarantee* fallbacks.
//!   [`GraphsResponse::is_guaranteed`] is false, and the §4.4 optimizer
//!   (`optimizer::choose(None, od)`) routes such requests to On-demand.
//!
//! The hard invariant: **no response marked guaranteed is ever computed
//! from data older than the staleness budget** — guarantees weaken to
//! "no guarantee"; they are never silently wrong.
//!
//! Concurrent fetches of the same `(shard, bucket)` are single-flighted:
//! one caller computes, the rest wait on the flight's `OnceLock` and share
//! the `Arc` it is set to, so `compute_count` equals the number of
//! distinct `(combo, bucket)` pairs computed.

use crate::graph::BidDurationGraph;
use crate::predictor::{DraftsConfig, DraftsPredictor};
use crate::snapshot::Swap;
use obs::{Counter, EventLog, Level, Registry};
use parallel::{lock_clean, Pool};
use spotmarket::faults::{combo_label, CleanFeed, FeedSource};
use spotmarket::{Combo, Price, PriceHistory};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Span stage names the service (and the predictor beneath it) records,
/// in canonical exposition order — processes that render a registry
/// pre-register these at boot so the exposition order never depends on
/// which worker thread recorded a stage first.
pub const SERVICE_STAGES: &[&str] = &[
    "svc_cheapest_bid",
    "svc_fetch",
    "svc_compute",
    "svc_snapshot_swap",
    "svc_health",
    "qbets_price",
    "qbets_duration",
];

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Graph recomputation period (paper: 15 minutes).
    pub recompute_period: u64,
    /// Probability levels published (paper: 0.95 and 0.99).
    pub probabilities: Vec<f64>,
    /// The prediction configuration.
    pub drafts: DraftsConfig,
    /// Maximum data age (at the bucket time) still considered
    /// [`FeedHealth::Fresh`].
    pub fresh_for: u64,
    /// Maximum data age the service will still vouch for. Within it,
    /// degraded responses are [`FeedHealth::Stale`] and keep their
    /// guarantee; beyond it they demote to [`FeedHealth::Unavailable`]
    /// no-guarantee fallbacks.
    pub staleness_budget: u64,
    /// Retries after a transient feed error before falling back to the
    /// last good graphs.
    pub max_retries: u32,
    /// Base backoff between feed retries in seconds; doubles per attempt
    /// (deterministic: the retry clock is virtual).
    pub retry_backoff: u64,
    /// Number of combo shards. Each shard publishes and evicts
    /// independently, so publication in one never stalls reads in
    /// another; 452 paper combos spread to ~28 per shard at the default.
    pub shards: usize,
    /// Refresh buckets retained per shard snapshot. Bounds resident
    /// memory at O(combos × retain_buckets) while keeping recent buckets
    /// servable lock-free for lagging or out-of-order `now` queries.
    pub retain_buckets: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            recompute_period: 15 * spotmarket::MINUTE,
            probabilities: vec![0.95, 0.99],
            drafts: DraftsConfig::default(),
            fresh_for: 15 * spotmarket::MINUTE,
            staleness_budget: spotmarket::HOUR,
            max_retries: 3,
            retry_backoff: 30,
            shards: 16,
            retain_buckets: 8,
        }
    }
}

/// Probability levels are published on a fixed published grid; two floats
/// denote the same level iff they agree at basis-point (1/100 of a
/// percent) resolution. A discrete key cannot mis-match the way an
/// epsilon comparison can.
///
/// Callers must validate with [`valid_probability`] first: the `as` cast
/// saturates, so NaN and negative inputs collapse to key 0 and huge ones
/// to `u32::MAX` rather than failing.
pub fn probability_level_bp(p: f64) -> u32 {
    (p * 10_000.0).round() as u32
}

/// Whether `p` is a well-formed probability for level lookups: finite and
/// in `(0, 1]`. Malformed values (NaN, infinities, zero, negatives, > 1)
/// must be rejected *before* [`probability_level_bp`], whose saturating
/// cast would otherwise alias them onto real levels (NaN → key 0).
pub fn valid_probability(p: f64) -> bool {
    p.is_finite() && p > 0.0 && p <= 1.0
}

/// The graphs published for one combo at one refresh bucket.
#[derive(Debug, Clone, Default)]
pub struct ComboGraphs {
    /// One graph per configured probability level (absent when the history
    /// is too short at that level).
    pub graphs: Vec<BidDurationGraph>,
}

impl ComboGraphs {
    /// The graph at probability `p`, if published (matched at basis-point
    /// resolution, see [`probability_level_bp`]). Malformed `p` (NaN,
    /// non-finite, outside `(0, 1]`) never matches.
    pub fn at_probability(&self, p: f64) -> Option<&BidDurationGraph> {
        if !valid_probability(p) {
            return None;
        }
        let key = probability_level_bp(p);
        self.graphs
            .iter()
            .find(|g| probability_level_bp(g.probability) == key)
    }
}

/// Per-combo feed health attached to every served response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedHealth {
    /// Data age within [`ServiceConfig::fresh_for`].
    Fresh,
    /// Serving data `age` seconds old — degraded but within the staleness
    /// budget, so guarantees still stand.
    Stale {
        /// Data age at the serving bucket's time, in seconds.
        age: u64,
    },
    /// Data older than the staleness budget (or missing): any served
    /// graphs are no-guarantee fallbacks.
    Unavailable,
}

impl FeedHealth {
    /// Whether responses in this state retain their durability guarantee.
    pub fn is_guaranteed(&self) -> bool {
        !matches!(self, FeedHealth::Unavailable)
    }
}

/// One served response: the graphs plus the feed-health metadata a client
/// needs to know how much to trust them.
#[derive(Debug, Clone)]
pub struct GraphsResponse {
    /// The published graphs.
    pub graphs: Arc<ComboGraphs>,
    /// Feed health at the serving bucket.
    pub health: FeedHealth,
    /// Timestamp of the newest price update backing the graphs.
    pub covered_until: u64,
}

impl GraphsResponse {
    /// Whether the graphs' durability guarantees stand. When false the
    /// bids are conservative fallbacks and the §4.4 optimizer should route
    /// the request to On-demand.
    pub fn is_guaranteed(&self) -> bool {
        self.health.is_guaranteed()
    }
}

/// A cheapest-bid quote: the answer to "what is the cheapest market and
/// maximum bid guaranteeing `duration` seconds at probability `p`?"
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidQuote {
    /// The market the bid targets.
    pub combo: Combo,
    /// The maximum bid to submit.
    pub bid: Price,
    /// Duration the bid guarantees (≥ the requested duration).
    pub durability_secs: u64,
    /// Probability level of the guarantee.
    pub probability: f64,
    /// True when the quote was computed from a feed past its staleness
    /// budget: the figures are conservative fallbacks, the durability
    /// guarantee does **not** stand, and the §4.4 optimizer routes such
    /// requests to On-demand.
    pub degraded: bool,
}

/// One row of the per-combo health rollup served by `/v1/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComboHealth {
    /// The market.
    pub combo: Combo,
    /// Its feed health at the queried bucket ([`FeedHealth::Unavailable`]
    /// when the combo has never served data).
    pub health: FeedHealth,
    /// Timestamp of the newest price update backing its graphs (0 when
    /// no data has ever been served).
    pub covered_until: u64,
}

/// Last graphs computed from in-budget data, kept per combo for serving
/// through feed failures.
#[derive(Debug, Clone)]
struct LastGood {
    graphs: Arc<ComboGraphs>,
    covered_until: u64,
}

/// Responses built for every combo of one shard at one refresh bucket,
/// keyed by combo key. `None` records a combo with no servable data for
/// the bucket (the bucket's information set is fixed, so the negative
/// result is as cacheable as a positive one).
type BucketEntries = HashMap<u64, Option<GraphsResponse>>;

/// The immutable published state of one shard: its retained buckets in
/// ascending order, each paired with the `Arc` its build returned. At most
/// [`ServiceConfig::retain_buckets`] long; the oldest is evicted first.
/// Readers receive the whole snapshot via one [`Swap::load`]; writers
/// replace it wholesale.
type ShardSnapshot = Vec<(u64, Arc<BucketEntries>)>;

/// `bucket`'s build in `snap`, if retained. Scanned from the newest end,
/// where steady-state reads land.
fn retained(snap: &ShardSnapshot, bucket: u64) -> Option<&Arc<BucketEntries>> {
    snap.iter()
        .rev()
        .find(|(b, _)| *b == bucket)
        .map(|(_, built)| built)
}

/// A single-flight slot: the first fetcher of a `(shard, bucket)`
/// computes the whole shard's bucket while later ones wait here for the
/// shared result — `None` when the build panicked. The first `set` wins.
type Flight = OnceLock<Option<Arc<BucketEntries>>>;

/// The single-flight slot of one `(shard, bucket)` build, held by its
/// leader. Dropping it releases the waiters — with `None` unless
/// [`Lead::complete`] ran first, so a build that panics never strands
/// them — and vacates the slot.
struct Lead<'a> {
    svc: &'a DraftsService,
    fkey: (usize, u64),
    flight: Arc<Flight>,
}

impl Lead<'_> {
    /// Hands the built bucket to every waiter.
    fn complete(&self, built: &Arc<BucketEntries>) {
        let _ = self.flight.set(Some(built.clone()));
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let _ = self.flight.set(None);
        lock_clean(&self.svc.inflight).remove(&self.fkey);
    }
}

/// FNV-1a over a combo key: the shard hash. Stable across platforms and
/// processes, so shard assignment — and with it every per-shard counter
/// and exposition — is deterministic.
fn shard_index(key: u64, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The in-process DrAFTS service.
///
/// Feeds are registered up front (the service "periodically queries the
/// Amazon price-history API"); queries are answered from whatever each
/// feed has published by the request's refresh bucket, with retry,
/// last-good fallback and health metadata as described in the module docs.
pub struct DraftsService {
    cfg: ServiceConfig,
    feeds: HashMap<u64, Arc<dyn FeedSource>>,
    /// Per-shard published snapshots: the lock-free read path.
    shards: Vec<Swap<Arc<ShardSnapshot>>>,
    /// Every registered combo in stable key order (rebuilt on
    /// registration).
    combos: Vec<Combo>,
    /// Combos per shard in stable key order (rebuilt on registration).
    shard_combos: Vec<Vec<Combo>>,
    /// Fans a multi-combo shard build across workers.
    pool: Pool,
    last_good: Mutex<HashMap<u64, LastGood>>,
    inflight: Mutex<HashMap<(usize, u64), Arc<Flight>>>,
    /// Graph recomputations (== distinct (combo, bucket) pairs computed).
    computes: Counter,
    /// Feed poll retries after transient errors.
    feed_retries: Counter,
    /// Fetches answered from the published snapshot without locking.
    cache_hits: Counter,
    /// Shard-bucket builds led (snapshot misses that computed).
    cache_misses: Counter,
    /// Fetches that waited on another caller's in-flight computation.
    stampede_waits: Counter,
    /// Snapshot publications (one atomic swap each).
    snapshot_swaps: Counter,
    /// Slow-path entries: fetches that had to acquire a lock because the
    /// snapshot missed. Reads 0 across any warm steady-state interval.
    read_locks: Counter,
    /// Computed-health transitions into each state (first observation of
    /// a combo counts as a transition into its initial state).
    health_transitions: [Counter; 3],
    /// Last computed health per combo, as an index into
    /// `health_transitions`.
    health_state: Mutex<HashMap<u64, usize>>,
    /// Structured event sink, attached by the serving process (see
    /// [`Self::attach_events`]); `None` drops emissions.
    events: Mutex<Option<EventLog>>,
}

/// An event decided inside a (possibly parallel) shard build, buffered so
/// the leader emits the batch in deterministic combo order afterwards.
struct PendingEvent {
    now: u64,
    level: Level,
    kind: &'static str,
    fields: Vec<(&'static str, String)>,
}

/// One combo's share of a shard build: its response and the events
/// decided while computing it.
type ComboBuild = (Option<GraphsResponse>, Vec<PendingEvent>);

/// Lowercase label of a health state, by `health_index`.
fn health_label(idx: usize) -> &'static str {
    ["fresh", "stale", "unavailable"][idx]
}

/// Index of a health state in [`DraftsService::health_transitions`] and
/// in the exposition's `to=` label order.
fn health_index(health: FeedHealth) -> usize {
    match health {
        FeedHealth::Fresh => 0,
        FeedHealth::Stale { .. } => 1,
        FeedHealth::Unavailable => 2,
    }
}

impl DraftsService {
    /// Creates a service.
    ///
    /// # Panics
    /// Panics on a zero recompute period, an empty probability list, a
    /// staleness budget below the fresh window, or a zero shard or
    /// retained-bucket count.
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(cfg.recompute_period > 0, "recompute period must be > 0");
        assert!(
            !cfg.probabilities.is_empty(),
            "at least one probability level required"
        );
        assert!(
            cfg.staleness_budget >= cfg.fresh_for,
            "staleness budget below the fresh window"
        );
        assert!(cfg.shards > 0, "at least one shard required");
        assert!(
            cfg.retain_buckets > 0,
            "at least one retained bucket required"
        );
        cfg.drafts.validate();
        let shards = (0..cfg.shards).map(|_| Swap::new(Arc::default())).collect();
        let shard_combos = vec![Vec::new(); cfg.shards];
        Self {
            cfg,
            feeds: HashMap::new(),
            shards,
            combos: Vec::new(),
            shard_combos,
            pool: Pool::from_env(),
            last_good: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            computes: Counter::new(),
            feed_retries: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            stampede_waits: Counter::new(),
            snapshot_swaps: Counter::new(),
            read_locks: Counter::new(),
            health_transitions: [Counter::new(), Counter::new(), Counter::new()],
            health_state: Mutex::new(HashMap::new()),
            events: Mutex::new(None),
        }
    }

    /// Attaches the structured event log the service emits health
    /// transitions, feed fault onsets/recoveries, and snapshot swaps
    /// into. Events are stamped with **virtual** time (the bucket clock),
    /// so a sequential drive produces a deterministic event sequence.
    /// Attach after [`Self::warm`] to keep boot-time churn out of the
    /// ring identically across boots.
    pub fn attach_events(&self, log: &EventLog) {
        *lock_clean(&self.events) = Some(log.clone());
    }

    /// Emits into the attached event log, if any.
    fn emit(
        &self,
        now: u64,
        level: Level,
        kind: &'static str,
        fields: Vec<(&'static str, String)>,
    ) {
        if let Some(log) = lock_clean(&self.events).as_ref() {
            log.emit(now, level, kind, fields);
        }
    }

    /// Exposes the service's counters (and its feeds') in `registry`, in
    /// canonical order. Called once per process at boot (a server's
    /// router does it when `Server::start` boots its handler) so repeated
    /// renders and repeated boots list metrics identically.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.attach_counter("drafts_cache_hits_total", &self.cache_hits);
        registry.attach_counter("drafts_cache_misses_total", &self.cache_misses);
        registry.attach_counter("drafts_stampede_waits_total", &self.stampede_waits);
        registry.attach_counter("drafts_computes_total", &self.computes);
        registry.attach_counter("drafts_feed_retries_total", &self.feed_retries);
        registry.attach_counter("drafts_snapshot_swaps_total", &self.snapshot_swaps);
        registry.attach_counter("drafts_read_locks_total", &self.read_locks);
        for (state, counter) in ["fresh", "stale", "unavailable"]
            .iter()
            .zip(&self.health_transitions)
        {
            registry.attach_counter(
                &format!("drafts_health_transitions_total{{to=\"{state}\"}}"),
                counter,
            );
        }
        // Feeds attach their own (e.g. injected-fault counters), in
        // stable combo order for a deterministic exposition.
        for combo in &self.combos {
            if let Some(feed) = self.feeds.get(&combo.key()) {
                feed.register_metrics(registry);
            }
        }
    }

    /// Registers (or replaces) the history backing a combo as a perfect
    /// always-available feed. Pass an `Arc` to share one history between
    /// services (a fleet's replicas) without copying it.
    pub fn register(&mut self, history: impl Into<Arc<PriceHistory>>) {
        self.register_feed(Arc::new(CleanFeed::new(history.into())));
    }

    /// Registers (or replaces) an arbitrary feed for its combo and
    /// invalidates everything the service has published.
    pub fn register_feed(&mut self, feed: Arc<dyn FeedSource>) {
        self.feeds.insert(feed.combo().key(), feed);
        let mut combos: Vec<Combo> = self.feeds.values().map(|f| f.combo()).collect();
        combos.sort_by_key(|c| c.key());
        let mut shard_combos = vec![Vec::new(); self.cfg.shards];
        for &combo in &combos {
            shard_combos[shard_index(combo.key(), self.cfg.shards)].push(combo);
        }
        self.combos = combos;
        self.shard_combos = shard_combos;
        for shard in &self.shards {
            shard.store(Arc::default());
        }
        lock_clean(&self.last_good).clear();
        lock_clean(&self.health_state).clear();
        lock_clean(&self.inflight).clear();
    }

    /// The combos the service knows about, in stable (key) order — so
    /// every rollup or search over them is deterministic regardless of
    /// registration order.
    pub fn combos(&self) -> &[Combo] {
        &self.combos
    }

    /// The cheapest bid across every registered market guaranteeing
    /// `duration_secs` at probability `p`, as of `now`.
    ///
    /// Guaranteed (Fresh/Stale) responses always win over degraded ones:
    /// only when **no** registered combo can serve a guaranteed quote does
    /// the search fall back to no-guarantee fallback graphs, and the
    /// returned quote is then marked [`BidQuote::degraded`] so clients
    /// (and the §4.4 optimizer) route to On-demand instead. `None` when no
    /// combo publishes a qualifying point at all.
    pub fn cheapest_bid(&self, p: f64, duration_secs: u64, now: u64) -> Option<BidQuote> {
        let _span = obs::span("svc_cheapest_bid");
        let mut best: Option<BidQuote> = None;
        let mut best_fallback: Option<BidQuote> = None;
        for &combo in &self.combos {
            let Some(response) = self.fetch(combo, now) else {
                continue;
            };
            let Some(graph) = response.graphs.at_probability(p) else {
                continue;
            };
            let Some(bp) = graph.cheapest_bid(duration_secs) else {
                continue;
            };
            let quote = BidQuote {
                combo,
                bid: bp.bid,
                durability_secs: bp.durability_secs,
                probability: graph.probability,
                degraded: !response.is_guaranteed(),
            };
            let slot = if quote.degraded {
                &mut best_fallback
            } else {
                &mut best
            };
            if slot.is_none_or(|b| quote.bid < b.bid) {
                *slot = Some(quote);
            }
        }
        best.or(best_fallback)
    }

    /// Per-combo feed health as of `now`, in stable combo order (the
    /// `/v1/health` rollup). Combos that have never served data report
    /// [`FeedHealth::Unavailable`] with `covered_until = 0`.
    pub fn health_rollup(&self, now: u64) -> Vec<ComboHealth> {
        let _span = obs::span("svc_health");
        self.combos
            .iter()
            .map(|&combo| match self.fetch(combo, now) {
                Some(r) => ComboHealth {
                    combo,
                    health: r.health,
                    covered_until: r.covered_until,
                },
                None => ComboHealth {
                    combo,
                    health: FeedHealth::Unavailable,
                    covered_until: 0,
                },
            })
            .collect()
    }

    /// Number of graph recomputations performed (snapshot + single-flight
    /// instrumentation: equals the number of distinct (combo, bucket)
    /// pairs computed).
    pub fn compute_count(&self) -> u64 {
        self.computes.get()
    }

    /// Number of feed poll retries performed after transient errors.
    pub fn feed_retry_count(&self) -> u64 {
        self.feed_retries.get()
    }

    /// Number of slow-path lock acquisitions readers have performed. In a
    /// warm steady state (every query inside an already-published bucket)
    /// this does not advance — the acceptance gate for the lock-free read
    /// path.
    pub fn read_lock_count(&self) -> u64 {
        self.read_locks.get()
    }

    /// Number of shard-snapshot publications performed.
    pub fn snapshot_swap_count(&self) -> u64 {
        self.snapshot_swaps.get()
    }

    /// Total `(combo, bucket)` entries resident across every shard
    /// snapshot. Bounded by `combos × retain_buckets` regardless of how
    /// many buckets have been served — the eviction guarantee.
    pub fn resident_graphs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.load().iter().map(|(_, built)| built.len()).sum::<usize>())
            .sum()
    }

    /// Pre-builds every shard's snapshot for `now`'s bucket, so a serving
    /// process enters steady state before its first request: subsequent
    /// same-bucket fetches are pure snapshot loads. Boot-time warm-up is
    /// what makes `read_lock_count` stay 0 across a serve run.
    ///
    /// Every shard that misses the bucket is built at once, in one flat
    /// fan-out over its combos, and published in the order a fetch of
    /// every combo in key order reaches it; then every other combo is
    /// fetched. The counters, health transitions and events equal what
    /// that fetch loop leaves behind.
    pub fn warm(&self, now: u64) {
        let bucket = self.bucket(now);
        let mut leads = Vec::new();
        // Keys of the combos whose fetch leading their shard stands in for.
        let mut fetched = Vec::new();
        for combo in &self.combos {
            let key = combo.key();
            let shard = shard_index(key, self.cfg.shards);
            // A shard's first combo in key order is the fetch that misses
            // and builds; the rest hit what that build published.
            if self.shard_combos[shard][0].key() != key
                || retained(&self.shards[shard].load(), bucket).is_some()
            {
                continue;
            }
            // Another caller is building this shard: the fetch below
            // waits for it.
            let Ok(lead) = self.lead(shard, bucket) else {
                continue;
            };
            self.read_locks.inc();
            fetched.push(key);
            match self.published(shard, bucket) {
                Some(built) => lead.complete(&built),
                None => {
                    self.cache_misses.inc();
                    leads.push((shard, lead));
                }
            }
        }
        let shards: Vec<usize> = leads.iter().map(|&(shard, _)| shard).collect();
        for ((shard, lead), builds) in leads.into_iter().zip(self.build_shards(&shards, bucket)) {
            lead.complete(&self.publish(shard, bucket, builds));
        }
        for &combo in &self.combos {
            if !fetched.contains(&combo.key()) {
                let _ = self.fetch(combo, now);
            }
        }
    }

    fn bucket(&self, now: u64) -> u64 {
        now / self.cfg.recompute_period
    }

    /// Fetches the published graphs for `combo` as of `now`.
    ///
    /// Returns the graphs computed at the start of `now`'s refresh bucket;
    /// repeated queries within a bucket hit the published snapshot, and
    /// concurrent first queries single-flight onto one computation. `None`
    /// when the combo is unknown, or no data (current or last-good) exists
    /// by the bucket time.
    pub fn graphs(&self, combo: Combo, now: u64) -> Option<Arc<ComboGraphs>> {
        self.fetch(combo, now).map(|r| r.graphs)
    }

    /// Like [`Self::graphs`], with the feed-health metadata attached.
    pub fn fetch(&self, combo: Combo, now: u64) -> Option<GraphsResponse> {
        let _span = obs::span("svc_fetch");
        let key = combo.key();
        if !self.feeds.contains_key(&key) {
            return None;
        }
        let bucket = self.bucket(now);
        let shard = shard_index(key, self.cfg.shards);
        // Steady-state path: one snapshot load (wait-free, see
        // `crate::snapshot`), the bucket's build, and one hash probe into
        // it. No lock, no compute.
        let snap = self.shards[shard].load();
        if let Some(built) = retained(&snap, bucket) {
            self.cache_hits.inc();
            return built.get(&key).cloned().flatten();
        }
        drop(snap);
        self.fetch_slow(key, shard, bucket)
    }

    /// Slow path: the snapshot misses `bucket`. Single-flight onto one
    /// leader per `(shard, bucket)`; the leader builds every combo in the
    /// shard and publishes the bucket.
    fn fetch_slow(&self, key: u64, shard: usize, bucket: u64) -> Option<GraphsResponse> {
        self.read_locks.inc();
        let lead = match self.lead(shard, bucket) {
            Ok(lead) => lead,
            Err(flight) => {
                self.stampede_waits.inc();
                return flight
                    .wait()
                    .as_ref()
                    .and_then(|built| built.get(&key).cloned().flatten());
            }
        };
        let built = self.published(shard, bucket).unwrap_or_else(|| {
            self.cache_misses.inc();
            let builds = self.build_shards(&[shard], bucket).pop();
            self.publish(shard, bucket, builds.expect("one build per shard"))
        });
        lead.complete(&built);
        built.get(&key).cloned().flatten()
    }

    /// Takes the single-flight slot of `(shard, bucket)`: the lead when no
    /// other caller holds it, else the flight to wait on.
    fn lead(&self, shard: usize, bucket: u64) -> Result<Lead<'_>, Arc<Flight>> {
        let fkey = (shard, bucket);
        let mut inflight = lock_clean(&self.inflight);
        if let Some(flight) = inflight.get(&fkey) {
            return Err(flight.clone());
        }
        let flight = Arc::new(Flight::new());
        inflight.insert(fkey, flight.clone());
        Ok(Lead {
            svc: self,
            fkey,
            flight,
        })
    }

    /// The leader's double-check: `shard`'s published build of `bucket`,
    /// when a previous leader published the bucket between our snapshot
    /// miss and our taking the lead.
    fn published(&self, shard: usize, bucket: u64) -> Option<Arc<BucketEntries>> {
        let built = retained(&self.shards[shard].load(), bucket)?.clone();
        self.cache_hits.inc();
        Some(built)
    }

    /// Recomputes every combo of each shard in `shards` for `bucket`, in
    /// one flat fan-out on the pool over all their combos: a roll that
    /// builds one shard of many combos and a warm that builds many shards
    /// both keep the workers busy, and no fan-out runs inside another.
    /// Returns each shard's builds in its combo order. Results are keyed
    /// by combo and order-independent, so the parallel build is
    /// deterministic.
    fn build_shards(&self, shards: &[usize], bucket: u64) -> Vec<Vec<ComboBuild>> {
        let combos: Vec<Combo> = shards
            .iter()
            .flat_map(|&shard| self.shard_combos[shard].iter().copied())
            .collect();
        let mut builds = self
            .pool
            .par_map(&combos, |&combo| {
                let feed = self
                    .feeds
                    .get(&combo.key())
                    .expect("shard combo lists track registered feeds");
                let mut pending = Vec::new();
                let response = self.compute_bucket(feed.as_ref(), combo, bucket, &mut pending);
                (response, pending)
            })
            .into_iter();
        shards
            .iter()
            .map(|&shard| {
                let n = self.shard_combos[shard].len();
                builds.by_ref().take(n).collect()
            })
            .collect()
    }

    /// Publishes `shard`'s builds for `bucket`: emits the events decided
    /// inside the (possibly parallel) build in stable combo order, so the
    /// event stream is deterministic, then inserts the responses, keyed by
    /// combo, into the published snapshot as one `Arc` with one atomic
    /// swap, evicting the oldest buckets beyond the retention window.
    /// Concurrent publications of different buckets compose (the swap
    /// cell serializes writers); a bucket older than the whole retained
    /// window is skipped — its callers are already served through the
    /// single-flight result. Returns that `Arc`.
    fn publish(&self, shard: usize, bucket: u64, builds: Vec<ComboBuild>) -> Arc<BucketEntries> {
        let mut built = BucketEntries::with_capacity(builds.len());
        for (combo, (response, pending)) in self.shard_combos[shard].iter().zip(builds) {
            for e in pending {
                self.emit(e.now, e.level, e.kind, e.fields);
            }
            built.insert(combo.key(), response);
        }
        let built = Arc::new(built);
        let _span = obs::span("svc_snapshot_swap");
        let published = self.shards[shard].rcu(|cur| {
            let mut buckets: ShardSnapshot =
                cur.iter().filter(|(b, _)| *b != bucket).cloned().collect();
            let at = buckets.partition_point(|&(b, _)| b < bucket);
            buckets.insert(at, (bucket, built.clone()));
            let evicted = buckets.len().saturating_sub(self.cfg.retain_buckets);
            if at < evicted {
                return None;
            }
            buckets.drain(..evicted);
            Some(Arc::new(buckets))
        });
        if published {
            self.snapshot_swaps.inc();
            self.emit(
                bucket * self.cfg.recompute_period,
                Level::Info,
                "snapshot_swap",
                vec![("shard", shard.to_string()), ("bucket", bucket.to_string())],
            );
        }
        built
    }

    /// Polls the feed (with retries) and computes the bucket's response.
    /// Events (fault onset/recovery, health transitions) are buffered
    /// into `pending` — this may run inside a parallel shard build, and
    /// the leader emits the buffers in combo order (see `publish`).
    fn compute_bucket(
        &self,
        feed: &dyn FeedSource,
        combo: Combo,
        bucket: u64,
        pending: &mut Vec<PendingEvent>,
    ) -> Option<GraphsResponse> {
        let _span = obs::span("svc_compute");
        let bucket_time = bucket * self.cfg.recompute_period;

        // Retry transient feed errors with deterministic exponential
        // backoff. The retry clock is virtual (the bucket time plus the
        // accumulated backoff), so results depend only on the feed's
        // schedule, never on wall-clock timing.
        let mut poll_at = bucket_time;
        let mut attempt: u32 = 0;
        let snapshot = loop {
            match feed.poll(poll_at, attempt) {
                Ok(h) => {
                    if attempt > 0 {
                        // Fault recovery: the feed answered after
                        // transient errors within this bucket.
                        pending.push(PendingEvent {
                            now: bucket_time,
                            level: Level::Info,
                            kind: "feed_recovered",
                            fields: vec![
                                ("combo", combo_label(combo)),
                                ("retries", attempt.to_string()),
                            ],
                        });
                    }
                    break Some(h);
                }
                Err(_) => {
                    if attempt >= self.cfg.max_retries {
                        // Fault onset: the retry budget is exhausted and
                        // the bucket falls back to last-good data.
                        pending.push(PendingEvent {
                            now: bucket_time,
                            level: Level::Warn,
                            kind: "feed_fault",
                            fields: vec![
                                ("combo", combo_label(combo)),
                                ("attempts", (attempt + 1).to_string()),
                            ],
                        });
                        break None;
                    }
                    poll_at += self.cfg.retry_backoff << attempt;
                    attempt += 1;
                    self.feed_retries.inc();
                }
            }
        };

        let computed = snapshot.and_then(|history| {
            // Serve only data visible at the bucket time: retries may have
            // polled later, but the bucket's information set is fixed.
            let upto = history.series().index_at(bucket_time)?;
            let covered_until = history.time(upto);
            let predictor = DraftsPredictor::new(&history, self.cfg.drafts);
            let graphs =
                BidDurationGraph::compute_levels(&predictor, upto, &self.cfg.probabilities)
                    .into_iter()
                    .flatten()
                    .map(|g| g.with_timestamp(bucket_time))
                    .collect();
            self.computes.inc();
            Some((Arc::new(ComboGraphs { graphs }), covered_until))
        });

        match computed {
            Some((graphs, covered_until)) => {
                let health = self.health_for(bucket_time, covered_until);
                self.note_health(combo, health, bucket_time, pending);
                if health.is_guaranteed() {
                    lock_clean(&self.last_good).insert(
                        combo.key(),
                        LastGood {
                            graphs: graphs.clone(),
                            covered_until,
                        },
                    );
                }
                Some(GraphsResponse {
                    graphs,
                    health,
                    covered_until,
                })
            }
            None => {
                // Feed down (or delivered nothing usable): serve the last
                // good graphs with their true age — Stale within the
                // budget, demoted to Unavailable beyond it.
                let lg = lock_clean(&self.last_good).get(&combo.key()).cloned()?;
                let health = self.health_for(bucket_time, lg.covered_until);
                self.note_health(combo, health, bucket_time, pending);
                Some(GraphsResponse {
                    health,
                    graphs: lg.graphs,
                    covered_until: lg.covered_until,
                })
            }
        }
    }

    /// Counts a health-state transition for `combo` (the first computed
    /// health of a combo counts as a transition into its initial state)
    /// and buffers the matching structured event: Unavailable at error
    /// level, Stale at warn, a return to Fresh at info.
    fn note_health(
        &self,
        combo: Combo,
        health: FeedHealth,
        bucket_time: u64,
        pending: &mut Vec<PendingEvent>,
    ) {
        let idx = health_index(health);
        let previous = lock_clean(&self.health_state).insert(combo.key(), idx);
        if previous != Some(idx) {
            self.health_transitions[idx].inc();
            let level = match health {
                FeedHealth::Fresh => Level::Info,
                FeedHealth::Stale { .. } => Level::Warn,
                FeedHealth::Unavailable => Level::Error,
            };
            pending.push(PendingEvent {
                now: bucket_time,
                level,
                kind: "health_transition",
                fields: vec![
                    ("combo", combo_label(combo)),
                    ("from", previous.map_or("none", health_label).to_string()),
                    ("to", health_label(idx).to_string()),
                ],
            });
        }
    }

    fn health_for(&self, bucket_time: u64, covered_until: u64) -> FeedHealth {
        let age = bucket_time.saturating_sub(covered_until);
        if age <= self.cfg.fresh_for {
            FeedHealth::Fresh
        } else if age <= self.cfg.staleness_budget {
            FeedHealth::Stale { age }
        } else {
            FeedHealth::Unavailable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::archetype::Archetype;
    use spotmarket::faults::{FaultPlan, FaultyFeed, FeedError};
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
    use spotmarket::{Az, Catalog, MINUTE};

    fn service() -> (DraftsService, Combo) {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-east-1c").unwrap(),
            cat.type_id("c3.4xlarge").unwrap(),
        );
        let h = generate_with_archetype(combo, cat, &TraceConfig::days(30, 55), Archetype::Choppy);
        let cfg = ServiceConfig {
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 4,
                ..DraftsConfig::default()
            },
            ..ServiceConfig::default()
        };
        let mut svc = DraftsService::new(cfg);
        svc.register(h);
        (svc, combo)
    }

    #[test]
    fn publishes_both_probability_levels() {
        let (svc, combo) = service();
        let g = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        assert!(g.at_probability(0.95).is_some());
        assert!(g.at_probability(0.99).is_some());
        assert!(g.at_probability(0.5).is_none(), "unpublished level");
    }

    #[test]
    fn a_cold_build_runs_one_price_step_for_every_level() {
        let (svc, combo) = service();
        let tracer = obs::Tracer::new(obs::Registry::new());
        let _installed = tracer.install();
        let g = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        assert_eq!(g.graphs.len(), 2);
        // Two levels share one price step; every grid bid of every level
        // still runs its own duration step.
        assert_eq!(tracer.stage_stats("qbets_price").total.count(), 1);
        let grid_bids: usize = g.graphs.iter().map(|g| g.points().len()).sum();
        assert!(tracer.stage_stats("qbets_duration").total.count() >= grid_bids as u64);
    }

    #[test]
    fn probability_levels_match_at_basis_point_resolution() {
        let (svc, combo) = service();
        let g = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        // Any float denoting the same basis-point level matches — even
        // ones an epsilon comparison would miss.
        assert!(g.at_probability(0.95 + 4e-5).is_some());
        assert!(g.at_probability(0.9500000001).is_some());
        assert!(g.at_probability(0.9501).is_none(), "next level up");
        assert_eq!(probability_level_bp(0.99), 9900);
        assert_eq!(probability_level_bp(0.95), 9500);
        assert_ne!(probability_level_bp(0.9949), probability_level_bp(0.995));
    }

    #[test]
    fn probability_straddling_a_basis_point_rounds_to_the_nearest() {
        // 0.94995 sits exactly on the half-basis-point boundary: `round`
        // (half away from zero) sends it to 9500, i.e. the 0.95 level,
        // while anything strictly below the midpoint stays at 9499.
        assert_eq!(probability_level_bp(0.94995), 9500);
        assert_eq!(probability_level_bp(0.95), 9500);
        assert_eq!(probability_level_bp(0.94994), 9499);
        assert_eq!(probability_level_bp(0.949949999), 9499);
        let (svc, combo) = service();
        let g = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        assert!(g.at_probability(0.94995).is_some(), "rounds up to 0.95");
        assert!(g.at_probability(0.94994).is_none(), "rounds down to 0.9499");
    }

    #[test]
    fn probability_one_is_its_own_level() {
        assert_eq!(probability_level_bp(1.0), 10_000);
        assert_ne!(probability_level_bp(1.0), probability_level_bp(0.9999));
        let (svc, combo) = service();
        let g = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        // p = 1.0 is never published (QBETS bounds need p < 1); the lookup
        // must miss cleanly rather than alias the 0.99 level.
        assert!(g.at_probability(1.0).is_none());
    }

    #[test]
    fn malformed_probabilities_never_match_a_published_level() {
        // NaN and negatives saturate to basis-point key 0 under the `as`
        // cast, and huge values to u32::MAX — none may alias a published
        // level. `valid_probability` is the guard the routes use for 400s.
        let (svc, combo) = service();
        let g = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.95,
            0.0,
            -0.0,
            1.0000001,
            95.0,
        ] {
            assert!(!valid_probability(bad), "{bad} must be invalid");
            assert!(
                g.at_probability(bad).is_none(),
                "{bad} matched a published level"
            );
        }
        assert!(valid_probability(0.95));
        assert!(valid_probability(1.0));
        assert!(valid_probability(f64::MIN_POSITIVE));
        // The saturating aliasing the guard exists to stop:
        assert_eq!(probability_level_bp(f64::NAN), 0);
        assert_eq!(probability_level_bp(-5.0), 0);
    }

    #[test]
    fn duplicate_levels_resolve_to_the_first_published_graph() {
        // A graph set carrying two graphs at the same basis-point level
        // (e.g. 0.95 and 0.95004 after rounding) serves the first — the
        // publication order is authoritative, and the lookup never panics.
        let (svc, combo) = service();
        let published = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        let g95 = published.at_probability(0.95).unwrap().clone();
        let mut dup = g95.clone();
        dup.probability = 0.95004; // same basis point as 0.95
        let set = ComboGraphs {
            graphs: vec![g95.clone(), dup],
        };
        let hit = set.at_probability(0.95).unwrap();
        assert_eq!(hit.probability, 0.95, "first published graph wins");
        assert_eq!(
            probability_level_bp(0.95004),
            probability_level_bp(0.95),
            "the duplicate really is the same level"
        );
    }

    #[test]
    fn cheapest_bid_searches_all_combos_and_is_minimal() {
        let cat = Catalog::standard();
        let cfg = ServiceConfig {
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 6,
                ..DraftsConfig::default()
            },
            ..ServiceConfig::default()
        };
        let mut svc = DraftsService::new(cfg);
        let ty = cat.type_id("c3.4xlarge").unwrap();
        for az in ["us-east-1b", "us-east-1c", "us-east-1d"] {
            let combo = Combo::new(Az::parse(az).unwrap(), ty);
            svc.register(generate_with_archetype(
                combo,
                cat,
                &TraceConfig::days(30, 55),
                Archetype::Choppy,
            ));
        }
        let now = 20 * spotmarket::DAY;
        let quote = svc.cheapest_bid(0.95, 3600, now).expect("quote");
        assert!(!quote.degraded);
        assert!(quote.durability_secs >= 3600);
        for &combo in svc.combos() {
            let Some(bp) = svc
                .graphs(combo, now)
                .and_then(|g| g.at_probability(0.95).and_then(|g| g.cheapest_bid(3600)))
            else {
                continue;
            };
            assert!(quote.bid <= bp.bid, "{combo:?} quotes cheaper");
        }
        assert!(
            svc.cheapest_bid(0.95, u64::MAX, now).is_none(),
            "impossible durations quote nothing"
        );
    }

    #[test]
    fn cheapest_bid_past_budget_is_an_explicit_degraded_quote() {
        // A feed deep into an outage serves no-guarantee fallbacks; the
        // service still quotes, but the quote says so.
        let (_, combo) = service();
        let truth = Arc::new(history_for(combo, 55));
        let day20 = 20 * spotmarket::DAY;
        struct DownAfter {
            inner: CleanFeed,
            from: u64,
        }
        impl FeedSource for DownAfter {
            fn combo(&self) -> Combo {
                self.inner.combo()
            }
            fn poll(&self, now: u64, attempt: u32) -> Result<Arc<PriceHistory>, FeedError> {
                if now >= self.from {
                    Err(FeedError::Outage { until: u64::MAX })
                } else {
                    self.inner.poll(now, attempt)
                }
            }
        }
        let cfg = ServiceConfig {
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 4,
                ..DraftsConfig::default()
            },
            ..ServiceConfig::default()
        };
        let mut svc = DraftsService::new(cfg);
        svc.register_feed(Arc::new(DownAfter {
            inner: CleanFeed::new(truth),
            from: day20,
        }));
        // Prime last-good, then query far past the staleness budget.
        let fresh = svc.cheapest_bid(0.95, 3600, day20 - MINUTE).unwrap();
        assert!(!fresh.degraded);
        let stale = svc
            .cheapest_bid(0.95, 3600, day20 + spotmarket::DAY)
            .unwrap();
        assert!(stale.degraded, "past-budget quotes must self-identify");
    }

    #[test]
    fn health_rollup_reports_every_combo_in_stable_order() {
        let (svc, combo) = service();
        let rollup = svc.health_rollup(20 * spotmarket::DAY);
        assert_eq!(rollup.len(), 1);
        assert_eq!(rollup[0].combo, combo);
        assert_eq!(rollup[0].health, FeedHealth::Fresh);
        let keys: Vec<u64> = svc.combos().iter().map(|c| c.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "combos() must be key-ordered");
    }

    #[test]
    fn caches_within_a_bucket_and_recomputes_across() {
        let (svc, combo) = service();
        let t0 = 20 * spotmarket::DAY;
        let a = svc.graphs(combo, t0).unwrap();
        let b = svc.graphs(combo, t0 + 60).unwrap(); // same 15-min bucket
        assert!(Arc::ptr_eq(&a, &b), "same bucket must hit the snapshot");
        assert_eq!(svc.compute_count(), 1);
        let c = svc.graphs(combo, t0 + 15 * spotmarket::MINUTE).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "next bucket recomputes");
        assert_eq!(svc.compute_count(), 2);
    }

    #[test]
    fn steady_state_reads_acquire_no_lock() {
        // First query of a bucket is the one slow-path entry; every
        // subsequent same-bucket read is a pure snapshot load.
        let (svc, combo) = service();
        let t0 = 20 * spotmarket::DAY;
        let _ = svc.fetch(combo, t0).unwrap();
        assert_eq!(svc.read_lock_count(), 1, "the build itself");
        assert_eq!(svc.snapshot_swap_count(), 1);
        let locks_warm = svc.read_lock_count();
        for i in 0..100 {
            let _ = svc.fetch(combo, t0 + i).unwrap();
        }
        assert_eq!(
            svc.read_lock_count(),
            locks_warm,
            "steady-state fetches must not take the slow path"
        );
    }

    #[test]
    fn retained_buckets_stay_servable_without_recompute() {
        // Non-monotonic `now` queries (a replay catching up, an explicit
        // `?now=` probe) within the retention window hit the snapshot.
        let (svc, combo) = service();
        let t0 = 20 * spotmarket::DAY;
        let period = 15 * spotmarket::MINUTE;
        let _ = svc.graphs(combo, t0).unwrap();
        let _ = svc.graphs(combo, t0 + period).unwrap();
        assert_eq!(svc.compute_count(), 2);
        // Back to the older bucket: still published, no recompute.
        let _ = svc.graphs(combo, t0 + 30).unwrap();
        assert_eq!(svc.compute_count(), 2, "retained bucket re-served");
    }

    #[test]
    fn a_thousand_buckets_stay_resident_bounded() {
        // The cache-growth bugfix, pinned explicitly: serving 1000
        // consecutive buckets leaves O(combos × retain_buckets) graphs
        // resident, not O(buckets).
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-east-1c").unwrap(),
            cat.type_id("c3.4xlarge").unwrap(),
        );
        let h = generate_with_archetype(combo, cat, &TraceConfig::days(30, 55), Archetype::Calm);
        let cfg = ServiceConfig {
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 24,
                ..DraftsConfig::default()
            },
            ..ServiceConfig::default()
        };
        let retain = cfg.retain_buckets;
        let period = cfg.recompute_period;
        let mut svc = DraftsService::new(cfg);
        svc.register(h);
        let t0 = 10 * spotmarket::DAY;
        for i in 0..1000u64 {
            let _ = svc.fetch(combo, t0 + i * period);
            assert!(
                svc.resident_graphs() <= retain,
                "bucket {i}: {} resident entries for one combo",
                svc.resident_graphs()
            );
        }
        assert_eq!(svc.compute_count(), 1000, "every bucket computed once");
        assert!(svc.resident_graphs() <= retain);
        assert!(svc.resident_graphs() > 0, "recent buckets stay published");
    }

    #[test]
    fn graphs_are_bucket_stamped_and_ignore_future_prices() {
        let (svc, combo) = service();
        let now = 20 * spotmarket::DAY + 7 * spotmarket::MINUTE;
        let g = svc.graphs(combo, now).unwrap();
        let g95 = g.at_probability(0.95).unwrap();
        let bucket_time = (now / (15 * spotmarket::MINUTE)) * 15 * spotmarket::MINUTE;
        assert_eq!(g95.computed_at, bucket_time);
    }

    #[test]
    fn unknown_combo_is_none() {
        let (svc, _) = service();
        let cat = Catalog::standard();
        let other = Combo::new(
            Az::parse("us-west-1a").unwrap(),
            cat.type_id("m1.small").unwrap(),
        );
        assert!(svc.graphs(other, 1000).is_none());
    }

    #[test]
    fn time_before_history_is_none() {
        let cat = Catalog::standard();
        let combo = Combo::new(
            Az::parse("us-east-1c").unwrap(),
            cat.type_id("c3.4xlarge").unwrap(),
        );
        let h = generate_with_archetype(
            combo,
            cat,
            &TraceConfig {
                start: 100 * spotmarket::DAY,
                end: 130 * spotmarket::DAY,
                seed: 1,
            },
            Archetype::Calm,
        );
        let mut svc = DraftsService::new(ServiceConfig::default());
        svc.register(h);
        assert!(svc.graphs(combo, 1000).is_none());
    }

    #[test]
    #[should_panic(expected = "probability level")]
    fn rejects_empty_probability_list() {
        DraftsService::new(ServiceConfig {
            probabilities: vec![],
            ..ServiceConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "staleness budget")]
    fn rejects_budget_below_fresh_window() {
        DraftsService::new(ServiceConfig {
            fresh_for: spotmarket::HOUR,
            staleness_budget: MINUTE,
            ..ServiceConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "shard")]
    fn rejects_zero_shards() {
        DraftsService::new(ServiceConfig {
            shards: 0,
            ..ServiceConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "retained bucket")]
    fn rejects_zero_retained_buckets() {
        DraftsService::new(ServiceConfig {
            retain_buckets: 0,
            ..ServiceConfig::default()
        });
    }

    #[test]
    fn registering_clears_published_snapshots() {
        let (mut svc, combo) = service();
        let _ = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        assert_eq!(svc.compute_count(), 1);
        let cat = Catalog::standard();
        let h2 = generate_with_archetype(combo, cat, &TraceConfig::days(30, 56), Archetype::Calm);
        svc.register(h2);
        assert_eq!(svc.resident_graphs(), 0, "snapshots reset on register");
        let _ = svc.graphs(combo, 20 * spotmarket::DAY).unwrap();
        assert_eq!(svc.compute_count(), 2, "snapshot was invalidated");
    }

    #[test]
    fn clean_feed_is_always_fresh_and_guaranteed() {
        let (svc, combo) = service();
        let r = svc.fetch(combo, 20 * spotmarket::DAY).unwrap();
        assert_eq!(r.health, FeedHealth::Fresh);
        assert!(r.is_guaranteed());
        assert!(r.covered_until <= 20 * spotmarket::DAY);
    }

    #[test]
    fn single_flight_under_concurrent_fanout() {
        // Fan out many concurrent fetches over a handful of buckets on the
        // workspace pool: exactly one computation per distinct bucket, and
        // every caller of the same bucket shares the same Arc.
        let (svc, combo) = service();
        let t0 = 20 * spotmarket::DAY;
        let period = 15 * spotmarket::MINUTE;
        let buckets = 4u64;
        let queries: Vec<u64> = (0..32)
            .map(|i| t0 + (i % buckets) * period + (i / buckets) * 7)
            .collect();
        let results = parallel::Pool::new(8).par_map(&queries, |&t| {
            (t / period, svc.graphs(combo, t).expect("graphs published"))
        });
        assert_eq!(
            svc.compute_count(),
            buckets,
            "single-flight must compute once per distinct bucket"
        );
        for (ba, ga) in &results {
            for (bb, gb) in &results {
                if ba == bb {
                    assert!(Arc::ptr_eq(ga, gb), "same bucket, same graphs");
                }
            }
        }
    }

    #[test]
    fn a_panicking_build_releases_its_waiters_and_vacates_its_slot() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;

        /// Panics in its first poll once another caller waits on the
        /// build; every later poll is clean.
        struct PanicsOnce {
            inner: CleanFeed,
            stampede_waits: Counter,
            entered: mpsc::Sender<()>,
            polled: AtomicBool,
        }
        impl FeedSource for PanicsOnce {
            fn combo(&self) -> Combo {
                self.inner.combo()
            }
            fn poll(&self, now: u64, attempt: u32) -> Result<Arc<PriceHistory>, FeedError> {
                if !self.polled.swap(true, Ordering::SeqCst) {
                    let _ = self.entered.send(());
                    while self.stampede_waits.get() == 0 {
                        std::thread::yield_now();
                    }
                    panic!("feed panicked mid-build");
                }
                self.inner.poll(now, attempt)
            }
        }

        let (base, combo) = service();
        let mut svc = DraftsService::new(base.cfg.clone());
        let (entered, inside) = mpsc::channel();
        svc.register_feed(Arc::new(PanicsOnce {
            inner: CleanFeed::new(Arc::new(history_for(combo, 55))),
            stampede_waits: svc.stampede_waits.clone(),
            entered,
            polled: AtomicBool::new(false),
        }));
        let svc = Arc::new(svc);
        let now = 20 * spotmarket::DAY;
        let timeout = Duration::from_secs(60);

        let leader = std::thread::spawn({
            let svc = Arc::clone(&svc);
            move || svc.fetch(combo, now)
        });
        inside
            .recv_timeout(timeout)
            .expect("the leader polls the feed");
        // Joined only once it has answered, so a stranded waiter fails
        // the test instead of hanging it.
        let (answer, answered) = mpsc::channel();
        let waiter = std::thread::spawn({
            let svc = Arc::clone(&svc);
            move || answer.send(svc.fetch(combo, now).is_some())
        });
        assert_eq!(
            answered.recv_timeout(timeout),
            Ok(false),
            "the waiter is released with no answer"
        );
        waiter.join().expect("the waiter returns").expect("sent");
        let panic = leader
            .join()
            .expect_err("the panic reaches the leader's caller");
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"feed panicked mid-build")
        );
        assert_eq!(svc.compute_count(), 0);

        assert!(svc.fetch(combo, now).is_some(), "the vacated slot rebuilds");
        assert_eq!(svc.compute_count(), 1);
    }

    #[test]
    fn a_bucket_older_than_the_retained_window_is_served_but_not_published() {
        let (svc, combo) = service();
        let t0 = 20 * spotmarket::DAY;
        let period = svc.cfg.recompute_period;
        let retain = svc.cfg.retain_buckets as u64;
        for i in 1..=retain {
            let _ = svc.fetch(combo, t0 + i * period).unwrap();
        }
        let (swaps, resident) = (svc.snapshot_swap_count(), svc.resident_graphs());
        assert_eq!(svc.compute_count(), retain);

        assert!(
            svc.fetch(combo, t0).is_some(),
            "an evicted bucket still answers"
        );
        assert_eq!(svc.compute_count(), retain + 1);
        assert_eq!(svc.snapshot_swap_count(), swaps, "nothing published");
        assert_eq!(svc.resident_graphs(), resident);

        assert!(svc.fetch(combo, t0).is_some());
        assert_eq!(svc.compute_count(), retain + 2, "so it computes again");
    }

    /// A feed that fails the first `fail_attempts` polls of every fetch,
    /// then serves a clean history.
    struct FlakyFeed {
        inner: CleanFeed,
        fail_attempts: u32,
    }
    impl FeedSource for FlakyFeed {
        fn combo(&self) -> Combo {
            self.inner.combo()
        }
        fn poll(&self, now: u64, attempt: u32) -> Result<Arc<PriceHistory>, FeedError> {
            if attempt < self.fail_attempts {
                Err(FeedError::Throttled)
            } else {
                self.inner.poll(now, attempt)
            }
        }
    }

    fn history_for(combo: Combo, seed: u64) -> PriceHistory {
        generate_with_archetype(
            combo,
            Catalog::standard(),
            &TraceConfig::days(30, seed),
            Archetype::Choppy,
        )
    }

    #[test]
    fn transient_feed_errors_are_retried_within_the_budget() {
        let (_, combo) = service();
        let h = Arc::new(history_for(combo, 55));
        let mut svc = DraftsService::new(ServiceConfig::default());
        svc.register_feed(Arc::new(FlakyFeed {
            inner: CleanFeed::new(h),
            fail_attempts: 2, // < max_retries = 3
        }));
        let r = svc.fetch(combo, 20 * spotmarket::DAY).unwrap();
        assert_eq!(r.health, FeedHealth::Fresh, "retries must recover");
        assert_eq!(svc.feed_retry_count(), 2);
    }

    #[test]
    fn exhausted_retries_without_history_yield_none() {
        let (_, combo) = service();
        let h = Arc::new(history_for(combo, 55));
        let mut svc = DraftsService::new(ServiceConfig::default());
        svc.register_feed(Arc::new(FlakyFeed {
            inner: CleanFeed::new(h),
            fail_attempts: u32::MAX, // never succeeds
        }));
        assert!(
            svc.fetch(combo, 20 * spotmarket::DAY).is_none(),
            "no data ever served: nothing to fall back to"
        );
    }

    #[test]
    fn outage_serves_last_good_stale_then_demotes_past_budget() {
        let (_, combo) = service();
        let truth = Arc::new(history_for(combo, 55));
        // A feed with one long outage window covering [20d, 20d + 3h).
        let day20 = 20 * spotmarket::DAY;
        struct OutageFeed {
            inner: CleanFeed,
            from: u64,
            until: u64,
        }
        impl FeedSource for OutageFeed {
            fn combo(&self) -> Combo {
                self.inner.combo()
            }
            fn poll(&self, now: u64, attempt: u32) -> Result<Arc<PriceHistory>, FeedError> {
                if (self.from..self.until).contains(&now) {
                    Err(FeedError::Outage { until: self.until })
                } else {
                    self.inner.poll(now, attempt)
                }
            }
        }
        let cfg = ServiceConfig {
            staleness_budget: spotmarket::HOUR,
            ..ServiceConfig::default()
        };
        let mut svc = DraftsService::new(cfg);
        svc.register_feed(Arc::new(OutageFeed {
            inner: CleanFeed::new(truth),
            from: day20,
            until: day20 + 3 * spotmarket::HOUR,
        }));

        // Before the outage: fresh, and last-good is primed.
        let before = svc.fetch(combo, day20 - 15 * MINUTE).unwrap();
        assert_eq!(before.health, FeedHealth::Fresh);

        // Shortly into the outage: last-good served as Stale, guaranteed.
        let early = svc.fetch(combo, day20 + 30 * MINUTE).unwrap();
        match early.health {
            FeedHealth::Stale { age } => {
                assert!(age <= spotmarket::HOUR, "within budget, age {age}");
            }
            other => panic!("expected Stale, got {other:?}"),
        }
        assert!(early.is_guaranteed());
        assert_eq!(early.covered_until, before.covered_until);
        assert!(
            Arc::ptr_eq(&early.graphs, &before.graphs),
            "the last good graphs are what is served"
        );

        // Deep into the outage, past the budget: demoted, no guarantee.
        let late = svc.fetch(combo, day20 + 2 * spotmarket::HOUR).unwrap();
        assert_eq!(late.health, FeedHealth::Unavailable);
        assert!(!late.is_guaranteed());

        // After the outage: fresh again.
        let after = svc.fetch(combo, day20 + 4 * spotmarket::HOUR).unwrap();
        assert_eq!(after.health, FeedHealth::Fresh);
    }

    #[test]
    fn outage_emits_one_transition_event_per_state_change_and_the_inverse() {
        use obs::Level;
        let (_, combo) = service();
        let truth = Arc::new(history_for(combo, 55));
        let day20 = 20 * spotmarket::DAY;
        struct OutageFeed {
            inner: CleanFeed,
            from: u64,
            until: u64,
        }
        impl FeedSource for OutageFeed {
            fn combo(&self) -> Combo {
                self.inner.combo()
            }
            fn poll(&self, now: u64, attempt: u32) -> Result<Arc<PriceHistory>, FeedError> {
                if (self.from..self.until).contains(&now) {
                    Err(FeedError::Outage { until: self.until })
                } else {
                    self.inner.poll(now, attempt)
                }
            }
        }
        let mut svc = DraftsService::new(ServiceConfig {
            staleness_budget: spotmarket::HOUR,
            ..ServiceConfig::default()
        });
        svc.register_feed(Arc::new(OutageFeed {
            inner: CleanFeed::new(truth),
            from: day20,
            until: day20 + 3 * spotmarket::HOUR,
        }));
        let log = obs::EventLog::new(64);
        svc.attach_events(&log);

        // Walk the outage bucket-by-bucket: Fresh (priming) → Stale →
        // Unavailable → Fresh again after the feed recovers.
        let period = 15 * spotmarket::MINUTE;
        let mut now = day20 - period;
        while now <= day20 + 4 * spotmarket::HOUR {
            let _ = svc.fetch(combo, now);
            now += period;
        }

        let transitions: Vec<_> = log
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == "health_transition")
            .collect();
        let arc: Vec<(String, String, Level)> = transitions
            .iter()
            .map(|e| {
                let field = |k: &str| {
                    e.fields
                        .iter()
                        .find(|(n, _)| *n == k)
                        .map(|(_, v)| v.clone())
                        .unwrap()
                };
                (field("from"), field("to"), e.level)
            })
            .collect();
        // Exactly one event per state change — never one per bucket.
        assert_eq!(
            arc,
            vec![
                ("none".into(), "fresh".into(), Level::Info),
                ("fresh".into(), "stale".into(), Level::Warn),
                ("stale".into(), "unavailable".into(), Level::Error),
                ("unavailable".into(), "fresh".into(), Level::Info),
            ],
            "full transition arc: {transitions:?}"
        );
        // Every transition names the combo and carries virtual time.
        let label = spotmarket::faults::combo_label(combo);
        for e in &transitions {
            assert!(e.fields.contains(&("combo", label.clone())));
            assert!(e.now >= day20 - period && e.now % period == 0);
        }
        // The outage also surfaced as fault-onset events (retry budget
        // exhausted once per affected bucket).
        assert!(log.snapshot().iter().any(|e| e.kind == "feed_fault"));
        assert_eq!(
            log.emitted(Level::Error),
            1,
            "one error-level event: the demotion to unavailable"
        );
    }

    #[test]
    fn warm_leaves_what_a_fetch_loop_in_key_order_leaves() {
        // Eight markets over three shards, so several shards hold several
        // combos and warm builds them in one fan-out. Seeded faulty feeds
        // of three intensities vary the retries, health transitions and
        // fault events combo by combo.
        let cat = Catalog::standard();
        let markets = [
            ("us-east-1b", "c3.large"),
            ("us-east-1c", "c3.xlarge"),
            ("us-east-1d", "c3.2xlarge"),
            ("us-west-1a", "c4.large"),
            ("us-west-1b", "c4.xlarge"),
            ("us-west-2a", "c3.4xlarge"),
            ("us-west-2b", "c4.2xlarge"),
            ("us-west-2c", "m3.medium"),
        ];
        let cfg = ServiceConfig {
            shards: 3,
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 12,
                ..DraftsConfig::default()
            },
            ..ServiceConfig::default()
        };
        let boot = || {
            let mut svc = DraftsService::new(cfg.clone());
            for (i, &(az, ty)) in (0u64..).zip(&markets) {
                let combo = Combo::new(Az::parse(az).unwrap(), cat.type_id(ty).unwrap());
                let plan = FaultPlan::with_intensity(900 + i, (i % 3) as f64 * 0.5);
                let truth = Arc::new(history_for(combo, 60 + i));
                svc.register_feed(Arc::new(FaultyFeed::new(truth, plan)));
            }
            let log = obs::EventLog::new(1024);
            svc.attach_events(&log);
            let registry = Registry::new();
            svc.register_metrics(&registry);
            (svc, log, registry)
        };
        let (warmed, warm_events, warm_metrics) = boot();
        let (looped, loop_events, loop_metrics) = boot();
        assert!(
            warmed.shard_combos.iter().filter(|c| c.len() > 1).count() >= 2,
            "shards {:?}",
            warmed.shard_combos
        );

        // A cold bucket, the same bucket again (every shard published),
        // then later buckets, one of them past the outages' onsets.
        let (t0, period) = (20 * spotmarket::DAY, cfg.recompute_period);
        let nows = [t0, t0 + 60, t0 + period, t0 + 2 * period, t0 + 40 * period];
        for now in nows {
            warmed.warm(now);
            for &combo in looped.combos() {
                let _ = looped.fetch(combo, now);
            }
            assert_eq!(
                warm_metrics.render_text(),
                loop_metrics.render_text(),
                "counters at {now}"
            );
            assert_eq!(
                warm_events.snapshot(),
                loop_events.snapshot(),
                "events at {now}"
            );
        }
        let kinds: std::collections::HashSet<_> =
            warm_events.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains("feed_fault") && kinds.contains("health_transition"));
        assert!(warmed.feed_retry_count() > 0);

        for now in nows {
            for &combo in warmed.combos() {
                let (a, b) = (warmed.fetch(combo, now), looped.fetch(combo, now));
                let view = |r: Option<GraphsResponse>| {
                    r.map(|r| (r.health, r.covered_until, r.graphs.graphs.clone()))
                };
                assert_eq!(view(a), view(b), "{combo:?} at {now}");
            }
        }
    }

    #[test]
    fn guaranteed_responses_never_exceed_the_staleness_budget() {
        // The acceptance invariant, checked across a hostile seeded plan:
        // every response marked guaranteed is backed by data no older than
        // the budget at its bucket time.
        let (_, combo) = service();
        let truth = Arc::new(history_for(combo, 55));
        let plan = FaultPlan::with_intensity(424242, 1.0);
        let cfg = ServiceConfig {
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 6,
                ..DraftsConfig::default()
            },
            ..ServiceConfig::default()
        };
        let budget = cfg.staleness_budget;
        let period = cfg.recompute_period;
        let mut svc = DraftsService::new(cfg);
        svc.register_feed(Arc::new(FaultyFeed::new(truth, plan)));
        let mut degraded = 0;
        for i in 0..200u64 {
            let now = 10 * spotmarket::DAY + i * period;
            let Some(r) = svc.fetch(combo, now) else {
                continue;
            };
            let bucket_time = (now / period) * period;
            if r.is_guaranteed() {
                assert!(
                    bucket_time.saturating_sub(r.covered_until) <= budget,
                    "guaranteed response from data older than the budget at {now}"
                );
            } else {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "a hostile plan must degrade some buckets");
    }
}
