//! Wire types: JSON encoding of the service's responses, plus the
//! decoders the loadgen harness and tests use to read them back.
//!
//! Schema (documented in DESIGN.md §12):
//!
//! * graphs — `{"region","az","type","state","age"?,"degraded",
//!   "covered_until","graphs":[{"p","computed_at","points":[{"bid_usd",
//!   "durability_secs"}]}]}`
//! * bid quote — `{"region","az","type","bid_usd","durability_secs","p",
//!   "degraded"}`
//! * health — `{"instance","counts":{"fresh","stale","unavailable"},
//!   "combos":[{"region","az","type","state","age"?,"covered_until"}]}`
//! * slo — `{"now","slos":[{"name","state","target_bp","fast_burn_bp",
//!   "slow_burn_bp","fast_good","fast_total"}]}`
//! * events — `{"capacity","events":[{"seq","now","level","kind",
//!   "fields":{...}}]}`
//! * trace timeline — `{"trace","records":[{"instance","hop","span",
//!   "parent","now","stage","status","detail"}]}` (hop-major, then
//!   instance-name order — a stable sort, so the rendering is
//!   independent of which process's ring the records came from)
//!
//! `degraded: true` mirrors PR 3's feed-health semantics exactly: it is
//! set iff the backing response is [`FeedHealth::Unavailable`], i.e. the
//! graphs are no-guarantee fallbacks a client must not treat as bid
//! guarantees (the §4.4 optimizer routes such requests to On-demand).

use crate::json::{self, Json};
use drafts_core::service::{BidQuote, ComboHealth, FeedHealth, GraphsResponse};
use drafts_core::BidDurationGraph;
use obs::{LogEvent, SloStatus, TraceRecord};
use spotmarket::{Catalog, Combo};

/// A graphs, bid or health answer, borrowed from the values it encodes.
/// [`Doc::render`] writes it in one pass straight into the response body;
/// no intermediate [`Json`] tree is built.
pub struct Doc<W> {
    /// Initial capacity of the rendered body.
    size_hint: usize,
    write: W,
}

impl<W: Fn(&mut String)> Doc<W> {
    /// Writes the document in its canonical compact form.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.size_hint);
        (self.write)(&mut out);
        out
    }
}

/// Writes `"region":…,"az":…,"type":…` (no braces).
pub(crate) fn write_combo(out: &mut String, catalog: &Catalog, combo: Combo) {
    let region = combo.az.region().name();
    out.push_str("\"region\":");
    json::write_str(out, region);
    // `Az::name` without building the `String`: the region's name plus
    // the zone letter, neither of which needs escaping.
    out.push_str(",\"az\":\"");
    out.push_str(region);
    out.push(combo.az.letter());
    out.push_str("\",\"type\":");
    json::write_str(out, catalog.spec(combo.ty).name);
}

/// Writes `,"state":…` plus `,"age":…` when stale.
fn write_health(out: &mut String, health: FeedHealth) {
    match health {
        FeedHealth::Fresh => out.push_str(",\"state\":\"fresh\""),
        FeedHealth::Stale { age } => {
            out.push_str(",\"state\":\"stale\",\"age\":");
            json::write_u64(out, age);
        }
        FeedHealth::Unavailable => out.push_str(",\"state\":\"unavailable\""),
    }
}

/// Writes `"fresh":…,"stale":…,"unavailable":…` (no braces).
pub(crate) fn write_counts(out: &mut String, counts: HealthCountsWire) {
    out.push_str("\"fresh\":");
    json::write_u64(out, counts.fresh);
    out.push_str(",\"stale\":");
    json::write_u64(out, counts.stale);
    out.push_str(",\"unavailable\":");
    json::write_u64(out, counts.unavailable);
}

fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Encodes a `/v1/graphs` response. `graphs` is every published level,
/// or the one the request's `?p=` selected (basis-point matched upstream
/// by the router).
pub fn graphs_json<'a>(
    catalog: &'a Catalog,
    combo: Combo,
    response: &'a GraphsResponse,
    graphs: &'a [&'a BidDurationGraph],
) -> Doc<impl Fn(&mut String) + 'a> {
    // About 45 bytes per point, plus the header and each graph's own.
    let points: usize = graphs.iter().map(|g| g.points().len()).sum();
    Doc {
        size_hint: 160 + 64 * graphs.len() + 48 * points,
        write: move |out: &mut String| {
            out.push('{');
            write_combo(out, catalog, combo);
            write_health(out, response.health);
            out.push_str(",\"degraded\":");
            write_bool(out, !response.is_guaranteed());
            out.push_str(",\"covered_until\":");
            json::write_u64(out, response.covered_until);
            out.push_str(",\"graphs\":[");
            for (i, graph) in graphs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"p\":");
                json::write_f64(out, graph.probability);
                out.push_str(",\"computed_at\":");
                json::write_u64(out, graph.computed_at);
                out.push_str(",\"points\":[");
                for (j, pt) in graph.points().iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"bid_usd\":");
                    json::write_price(out, pt.bid);
                    out.push_str(",\"durability_secs\":");
                    json::write_u64(out, pt.durability_secs);
                    out.push('}');
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        },
    }
}

/// Encodes a `/v1/bid` quote.
pub fn bid_quote_json<'a>(
    catalog: &'a Catalog,
    quote: &'a BidQuote,
) -> Doc<impl Fn(&mut String) + 'a> {
    Doc {
        size_hint: 160,
        write: move |out: &mut String| {
            out.push('{');
            write_combo(out, catalog, quote.combo);
            out.push_str(",\"bid_usd\":");
            json::write_price(out, quote.bid);
            out.push_str(",\"durability_secs\":");
            json::write_u64(out, quote.durability_secs);
            out.push_str(",\"p\":");
            json::write_f64(out, quote.probability);
            out.push_str(",\"degraded\":");
            write_bool(out, quote.degraded);
            out.push('}');
        },
    }
}

/// Encodes the `/v1/health` rollup. `instance` is the serving process's
/// stable configured identity (never the bind address — ephemeral ports
/// would break two-boot byte determinism).
pub fn health_json<'a>(
    catalog: &'a Catalog,
    instance: &'a str,
    rollup: &'a [ComboHealth],
) -> Doc<impl Fn(&mut String) + 'a> {
    Doc {
        size_hint: 96 + 128 * rollup.len(),
        write: move |out: &mut String| {
            let mut counts = HealthCountsWire::default();
            for ch in rollup {
                match ch.health {
                    FeedHealth::Fresh => counts.fresh += 1,
                    FeedHealth::Stale { .. } => counts.stale += 1,
                    FeedHealth::Unavailable => counts.unavailable += 1,
                }
            }
            out.push_str("{\"instance\":");
            json::write_str(out, instance);
            out.push_str(",\"counts\":{");
            write_counts(out, counts);
            out.push_str("},\"combos\":[");
            for (i, ch) in rollup.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                write_combo(out, catalog, ch.combo);
                write_health(out, ch.health);
                out.push_str(",\"covered_until\":");
                json::write_u64(out, ch.covered_until);
                out.push('}');
            }
            out.push_str("]}");
        },
    }
}

/// Encodes the `/v1/slo` report: every field is an integer count or a
/// basis-point ratio, so the rendering is bit-deterministic.
pub fn slo_json(now: u64, statuses: &[SloStatus]) -> Json {
    Json::obj(vec![
        ("now", Json::num_u64(now)),
        (
            "slos",
            Json::Arr(
                statuses
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::str(s.name)),
                            ("state", Json::str(s.state.label())),
                            ("target_bp", Json::num_u64(s.target_bp)),
                            ("fast_burn_bp", Json::num_u64(s.fast_burn_bp)),
                            ("slow_burn_bp", Json::num_u64(s.slow_burn_bp)),
                            ("fast_good", Json::num_u64(s.fast_good)),
                            ("fast_total", Json::num_u64(s.fast_total)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a `/v1/_debug/events` dump. `events` is already windowed to
/// the newest `n`, oldest first; fields render as a nested object in
/// emission order.
pub fn events_json(capacity: usize, events: &[LogEvent]) -> Json {
    Json::obj(vec![
        ("capacity", Json::num_u64(capacity as u64)),
        (
            "events",
            Json::Arr(
                events
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("seq", Json::num_u64(e.seq)),
                            ("now", Json::num_u64(e.now)),
                            ("level", Json::str(e.level.label())),
                            ("kind", Json::str(e.kind)),
                            (
                                "fields",
                                Json::Obj(
                                    e.fields
                                        .iter()
                                        .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One hop of a distributed-trace timeline: a [`TraceRecord`] in wire
/// form, used both to render `/v1/_debug/trace/{id}` and to decode a
/// shard's timeline at the fleet front for merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Recording process (`fleet-front`, `shard-2`, ...).
    pub instance: String,
    /// Hop depth in the trace.
    pub hop: u64,
    /// Span id, zero-padded hex.
    pub span: String,
    /// Parent span id, zero-padded hex (all zeros at the root).
    pub parent: String,
    /// Virtual request time.
    pub now: u64,
    /// Pipeline stage or proxy-leg label.
    pub stage: String,
    /// HTTP status of the leg's outcome.
    pub status: u64,
    /// Free-form attribution (`"owner=shard-1 leg=0"`, ...).
    pub detail: String,
}

impl TraceEntry {
    /// The wire form of one in-process observation.
    pub fn of(r: &TraceRecord) -> TraceEntry {
        TraceEntry {
            instance: r.instance.clone(),
            hop: u64::from(r.hop),
            span: format!("{:016x}", r.span_id),
            parent: format!("{:016x}", r.parent_span),
            now: r.now,
            stage: r.stage.to_string(),
            status: u64::from(r.status),
            detail: r.detail.clone(),
        }
    }

    /// Decodes one record of a timeline document.
    pub fn from_json(doc: &Json) -> Option<TraceEntry> {
        Some(TraceEntry {
            instance: doc.get("instance")?.as_str()?.to_string(),
            hop: doc.get("hop")?.as_u64()?,
            span: doc.get("span")?.as_str()?.to_string(),
            parent: doc.get("parent")?.as_str()?.to_string(),
            now: doc.get("now")?.as_u64()?,
            stage: doc.get("stage")?.as_str()?.to_string(),
            status: doc.get("status")?.as_u64()?,
            detail: doc.get("detail")?.as_str()?.to_string(),
        })
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            ("instance", Json::Str(self.instance.clone())),
            ("hop", Json::num_u64(self.hop)),
            ("span", Json::Str(self.span.clone())),
            ("parent", Json::Str(self.parent.clone())),
            ("now", Json::num_u64(self.now)),
            ("stage", Json::Str(self.stage.clone())),
            ("status", Json::num_u64(self.status)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// Encodes a `/v1/_debug/trace/{id}` timeline. Entries sort hop-major,
/// then by instance name, with a **stable** sort — ties (same hop, same
/// instance) keep ring insertion order. The rendering therefore depends
/// only on the set of observations, not on which process contributed
/// which — the property the front's cross-process merge relies on.
pub fn trace_timeline_json(trace_id: u64, entries: &[TraceEntry]) -> Json {
    let mut sorted: Vec<&TraceEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| (a.hop, &a.instance).cmp(&(b.hop, &b.instance)));
    Json::obj(vec![
        ("trace", Json::Str(format!("{trace_id:016x}"))),
        (
            "records",
            Json::Arr(sorted.iter().map(|e| e.json()).collect()),
        ),
    ])
}

/// A decoded `/v1/bid` quote (the client-side mirror of [`BidQuote`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BidQuoteWire {
    /// AZ name, e.g. `us-east-1c`.
    pub az: String,
    /// Instance type name.
    pub type_name: String,
    /// Quoted maximum bid in dollars.
    pub bid_usd: f64,
    /// Guaranteed duration.
    pub durability_secs: u64,
    /// Probability level.
    pub p: f64,
    /// Whether the quote is a no-guarantee fallback.
    pub degraded: bool,
}

impl BidQuoteWire {
    /// Decodes a quote from its JSON document.
    pub fn from_json(doc: &Json) -> Option<BidQuoteWire> {
        Some(BidQuoteWire {
            az: doc.get("az")?.as_str()?.to_string(),
            type_name: doc.get("type")?.as_str()?.to_string(),
            bid_usd: doc.get("bid_usd")?.as_f64()?,
            durability_secs: doc.get("durability_secs")?.as_u64()?,
            p: doc.get("p")?.as_f64()?,
            degraded: doc.get("degraded")?.as_bool()?,
        })
    }
}

/// Decoded `/v1/health` counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCountsWire {
    /// Combos serving fresh data.
    pub fresh: u64,
    /// Combos serving stale-but-guaranteed data.
    pub stale: u64,
    /// Combos past the staleness budget (or without data).
    pub unavailable: u64,
}

impl HealthCountsWire {
    /// Decodes the counts from a `/v1/health` document.
    pub fn from_json(doc: &Json) -> Option<HealthCountsWire> {
        let counts = doc.get("counts")?;
        Some(HealthCountsWire {
            fresh: counts.get("fresh")?.as_u64()?,
            stale: counts.get("stale")?.as_u64()?,
            unavailable: counts.get("unavailable")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drafts_core::predictor::DraftsConfig;
    use drafts_core::service::ServiceConfig;
    use drafts_core::DraftsService;
    use spotmarket::archetype::Archetype;
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
    use spotmarket::{Az, Price, DAY, HOUR, MINUTE};

    /// The tree encoders the one-pass writers replaced, kept as their
    /// byte oracle.
    mod tree {
        use crate::json::Json;
        use drafts_core::service::{BidQuote, ComboHealth, FeedHealth, GraphsResponse};
        use drafts_core::BidDurationGraph;
        use spotmarket::{Catalog, Combo};

        fn combo_fields(catalog: &Catalog, combo: Combo) -> Vec<(&'static str, Json)> {
            vec![
                ("region", Json::str(combo.az.region().name())),
                ("az", Json::str(combo.az.name())),
                ("type", Json::str(catalog.spec(combo.ty).name)),
            ]
        }

        fn health_fields(health: FeedHealth) -> Vec<(&'static str, Json)> {
            match health {
                FeedHealth::Fresh => vec![("state", Json::str("fresh"))],
                FeedHealth::Stale { age } => {
                    vec![("state", Json::str("stale")), ("age", Json::num_u64(age))]
                }
                FeedHealth::Unavailable => vec![("state", Json::str("unavailable"))],
            }
        }

        fn graph_json(graph: &BidDurationGraph) -> Json {
            Json::obj(vec![
                ("p", Json::num(graph.probability)),
                ("computed_at", Json::num_u64(graph.computed_at)),
                (
                    "points",
                    Json::Arr(
                        graph
                            .points()
                            .iter()
                            .map(|pt| {
                                Json::obj(vec![
                                    ("bid_usd", Json::num(pt.bid.dollars())),
                                    ("durability_secs", Json::num_u64(pt.durability_secs)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }

        pub fn graphs_json(
            catalog: &Catalog,
            combo: Combo,
            response: &GraphsResponse,
            graphs: &[&BidDurationGraph],
        ) -> Json {
            let mut fields = combo_fields(catalog, combo);
            fields.extend(health_fields(response.health));
            fields.push(("degraded", Json::Bool(!response.is_guaranteed())));
            fields.push(("covered_until", Json::num_u64(response.covered_until)));
            fields.push((
                "graphs",
                Json::Arr(graphs.iter().map(|g| graph_json(g)).collect()),
            ));
            Json::obj(fields)
        }

        pub fn bid_quote_json(catalog: &Catalog, quote: &BidQuote) -> Json {
            let mut fields = combo_fields(catalog, quote.combo);
            fields.push(("bid_usd", Json::num(quote.bid.dollars())));
            fields.push(("durability_secs", Json::num_u64(quote.durability_secs)));
            fields.push(("p", Json::num(quote.probability)));
            fields.push(("degraded", Json::Bool(quote.degraded)));
            Json::obj(fields)
        }

        pub fn health_json(catalog: &Catalog, instance: &str, rollup: &[ComboHealth]) -> Json {
            let mut fresh = 0u64;
            let mut stale = 0u64;
            let mut unavailable = 0u64;
            for ch in rollup {
                match ch.health {
                    FeedHealth::Fresh => fresh += 1,
                    FeedHealth::Stale { .. } => stale += 1,
                    FeedHealth::Unavailable => unavailable += 1,
                }
            }
            Json::obj(vec![
                ("instance", Json::Str(instance.to_string())),
                (
                    "counts",
                    Json::obj(vec![
                        ("fresh", Json::num_u64(fresh)),
                        ("stale", Json::num_u64(stale)),
                        ("unavailable", Json::num_u64(unavailable)),
                    ]),
                ),
                (
                    "combos",
                    Json::Arr(
                        rollup
                            .iter()
                            .map(|ch| {
                                let mut fields = combo_fields(catalog, ch.combo);
                                fields.extend(health_fields(ch.health));
                                fields.push(("covered_until", Json::num_u64(ch.covered_until)));
                                Json::obj(fields)
                            })
                            .collect(),
                    ),
                ),
            ])
        }
    }

    /// A seeded three-archetype service whose feeds end at day 30, 40
    /// minutes before it and 2 hours before it, so one rollup can hold a
    /// fresh, a stale and an unavailable combo.
    fn mixed_service() -> DraftsService {
        let catalog = Catalog::standard();
        let mut svc = DraftsService::new(ServiceConfig {
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 6,
                ..DraftsConfig::default()
            },
            ..ServiceConfig::default()
        });
        for (i, (az, ty, archetype, cut)) in [
            ("us-east-1c", "c3.4xlarge", Archetype::Choppy, 0),
            ("us-west-2a", "c4.large", Archetype::Calm, 40 * MINUTE),
            ("us-west-1b", "m3.medium", Archetype::Spiky, 2 * HOUR),
        ]
        .into_iter()
        .enumerate()
        {
            let combo = Combo::new(
                Az::parse(az).expect("known az"),
                catalog.type_id(ty).expect("known type"),
            );
            let cfg = TraceConfig {
                end: 30 * DAY - cut,
                ..TraceConfig::days(30, 0x5eed + i as u64)
            };
            svc.register(generate_with_archetype(combo, catalog, &cfg, archetype));
        }
        svc
    }

    #[test]
    fn one_pass_answers_equal_the_tree_encoders() {
        let catalog = Catalog::standard();
        let svc = mixed_service();
        let mut states = std::collections::BTreeSet::new();
        let mut quotes = [0usize; 2];
        for now in [
            20 * DAY,
            30 * DAY,
            30 * DAY + 30 * MINUTE,
            30 * DAY + 2 * HOUR,
        ] {
            let rollup = svc.health_rollup(now);
            assert_eq!(
                health_json(catalog, "shard-0", &rollup).render(),
                tree::health_json(catalog, "shard-0", &rollup).render(),
                "health at {now}"
            );
            for &combo in svc.combos() {
                let response = svc.fetch(combo, now).expect("registered combo");
                states.insert(match response.health {
                    FeedHealth::Fresh => "fresh",
                    FeedHealth::Stale { .. } => "stale",
                    FeedHealth::Unavailable => "unavailable",
                });
                let all: Vec<&BidDurationGraph> = response.graphs.graphs.iter().collect();
                assert!(!all.is_empty(), "{combo:?} publishes graphs at {now}");
                let mut selections = vec![all.clone()];
                selections.extend(all.iter().map(|&graph| vec![graph]));
                for graphs in &selections {
                    assert_eq!(
                        graphs_json(catalog, combo, &response, graphs).render(),
                        tree::graphs_json(catalog, combo, &response, graphs).render(),
                        "graphs for {combo:?} at {now}"
                    );
                }
            }
            for p in [0.95, 0.99] {
                for duration in [
                    0,
                    60,
                    600,
                    3600,
                    4 * HOUR,
                    12 * HOUR,
                    DAY,
                    3 * DAY,
                    30 * DAY,
                ] {
                    let Some(quote) = svc.cheapest_bid(p, duration, now) else {
                        continue;
                    };
                    quotes[usize::from(quote.degraded)] += 1;
                    assert_eq!(
                        bid_quote_json(catalog, &quote).render(),
                        tree::bid_quote_json(catalog, &quote).render(),
                        "bid p={p} duration={duration} at {now}"
                    );
                }
            }
        }
        assert_eq!(
            states.into_iter().collect::<Vec<_>>(),
            ["fresh", "stale", "unavailable"],
            "the sweep covers every feed state"
        );
        assert!(
            quotes[0] > 0 && quotes[1] > 0,
            "guaranteed and degraded quotes: {quotes:?}"
        );
    }

    fn quote() -> BidQuote {
        let catalog = Catalog::standard();
        BidQuote {
            combo: Combo::new(
                Az::parse("us-east-1c").unwrap(),
                catalog.type_id("c3.4xlarge").unwrap(),
            ),
            bid: Price::from_dollars(0.8123),
            durability_secs: 7200,
            probability: 0.95,
            degraded: false,
        }
    }

    #[test]
    fn bid_quote_round_trips_through_json() {
        let catalog = Catalog::standard();
        let q = quote();
        let rendered = bid_quote_json(catalog, &q).render();
        let decoded = BidQuoteWire::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded.az, "us-east-1c");
        assert_eq!(decoded.type_name, "c3.4xlarge");
        assert!((decoded.bid_usd - 0.8123).abs() < 1e-9);
        assert_eq!(decoded.durability_secs, 7200);
        assert_eq!(decoded.p, 0.95);
        assert!(!decoded.degraded);
        assert!(rendered.contains("\"region\":\"us-east-1\""));
    }

    #[test]
    fn health_counts_partition_the_rollup() {
        let catalog = Catalog::standard();
        let az = Az::parse("us-west-2a").unwrap();
        let ty = catalog.type_id("c4.large").unwrap();
        let rollup = vec![
            ComboHealth {
                combo: Combo::new(az, ty),
                health: FeedHealth::Fresh,
                covered_until: 100,
            },
            ComboHealth {
                combo: Combo::new(az, ty),
                health: FeedHealth::Stale { age: 1800 },
                covered_until: 50,
            },
            ComboHealth {
                combo: Combo::new(az, ty),
                health: FeedHealth::Unavailable,
                covered_until: 0,
            },
        ];
        let doc = Json::parse(&health_json(catalog, "drafts-serve", &rollup).render()).unwrap();
        assert_eq!(doc.get("instance").unwrap().as_str(), Some("drafts-serve"));
        let counts = HealthCountsWire::from_json(&doc).unwrap();
        assert_eq!(
            counts,
            HealthCountsWire {
                fresh: 1,
                stale: 1,
                unavailable: 1
            }
        );
        let combos = doc.get("combos").unwrap().as_arr().unwrap();
        assert_eq!(combos.len(), 3);
        assert_eq!(combos[1].get("state").unwrap().as_str(), Some("stale"));
        assert_eq!(combos[1].get("age").unwrap().as_u64(), Some(1800));
        assert_eq!(combos[0].get("age"), None, "fresh rows carry no age");
    }

    #[test]
    fn slo_report_renders_integer_fields_only() {
        use obs::{SloState, SloStatus};
        let statuses = vec![SloStatus {
            name: "serve_latency",
            state: SloState::Warn,
            target_bp: 9_900,
            fast_burn_bp: 15_000,
            slow_burn_bp: 4_000,
            fast_good: 97,
            fast_total: 100,
        }];
        let rendered = slo_json(1_728_000, &statuses).render();
        assert_eq!(
            rendered,
            "{\"now\":1728000,\"slos\":[{\"name\":\"serve_latency\",\
             \"state\":\"warn\",\"target_bp\":9900,\"fast_burn_bp\":15000,\
             \"slow_burn_bp\":4000,\"fast_good\":97,\"fast_total\":100}]}"
        );
    }

    #[test]
    fn events_dump_preserves_field_order() {
        use obs::{EventLog, Level};
        let log = EventLog::new(4);
        log.emit(
            900,
            Level::Warn,
            "health_transition",
            vec![
                ("combo", "us-east-1c/c3.4xlarge".to_string()),
                ("from", "fresh".to_string()),
                ("to", "stale".to_string()),
            ],
        );
        let doc = Json::parse(&events_json(4, &log.snapshot()).render()).unwrap();
        assert_eq!(doc.get("capacity").unwrap().as_u64(), Some(4));
        let events = doc.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(events[0].get("now").unwrap().as_u64(), Some(900));
        assert_eq!(events[0].get("level").unwrap().as_str(), Some("warn"));
        let fields = events[0].get("fields").unwrap();
        assert_eq!(fields.get("from").unwrap().as_str(), Some("fresh"));
        assert_eq!(fields.get("to").unwrap().as_str(), Some("stale"));
    }

    #[test]
    fn trace_timeline_round_trips_and_sorts_hop_major() {
        use obs::TraceContext;
        let root = TraceContext::root(0xABC);
        let leg = root.child(0);
        let records = [
            TraceRecord {
                trace_id: leg.trace_id,
                span_id: leg.span_id,
                parent_span: leg.parent_span,
                hop: leg.hop,
                now: 900,
                instance: "shard-1".to_string(),
                stage: "http_bid",
                status: 200,
                detail: "leg=0".to_string(),
            },
            TraceRecord {
                trace_id: root.trace_id,
                span_id: root.span_id,
                parent_span: root.parent_span,
                hop: root.hop,
                now: 900,
                instance: "fleet-front".to_string(),
                stage: "front_bid",
                status: 200,
                detail: String::new(),
            },
        ];
        let entries: Vec<TraceEntry> = records.iter().map(TraceEntry::of).collect();
        let rendered = trace_timeline_json(0xABC, &entries).render();
        let doc = Json::parse(&rendered).unwrap();
        assert_eq!(doc.get("trace").unwrap().as_str(), Some("0000000000000abc"));
        let out = doc.get("records").unwrap().as_arr().unwrap();
        // Hop-major order: the front's root hop renders first even though
        // the shard's record came first in the input.
        assert_eq!(
            out[0].get("instance").unwrap().as_str(),
            Some("fleet-front")
        );
        assert_eq!(out[0].get("hop").unwrap().as_u64(), Some(0));
        assert_eq!(out[1].get("instance").unwrap().as_str(), Some("shard-1"));
        assert_eq!(out[1].get("hop").unwrap().as_u64(), Some(1));
        // The shard hop chains to the front's span.
        assert_eq!(
            out[1].get("parent").unwrap().as_str(),
            out[0].get("span").unwrap().as_str()
        );
        // Decode round-trips every field.
        let decoded: Vec<TraceEntry> = out
            .iter()
            .map(|d| TraceEntry::from_json(d).unwrap())
            .collect();
        assert_eq!(decoded[0], entries[1]);
        assert_eq!(decoded[1], entries[0]);
        // Byte-deterministic regardless of input order.
        let flipped: Vec<TraceEntry> = entries.iter().rev().cloned().collect();
        assert_eq!(rendered, trace_timeline_json(0xABC, &flipped).render());
    }

    #[test]
    fn degraded_flag_mirrors_feed_health() {
        let catalog = Catalog::standard();
        let mut q = quote();
        q.degraded = true;
        let rendered = bid_quote_json(catalog, &q).render();
        assert!(rendered.contains("\"degraded\":true"));
    }
}
