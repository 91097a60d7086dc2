//! Boots the serving stack a workload runs against: one drafts-serve
//! instance over the paper-scale service population, or the 3-shard
//! replication-2 fleet behind its routing front. Everything goes through
//! the crates' public APIs; nothing in the stack is changed.

use crate::Workload;
use drafts_core::predictor::DraftsConfig;
use drafts_core::DraftsService;
use experiments::{fleet, serve, Scale};
use obs::{Counter, Registry};
use server::{Fleet, FleetConfig, Handler, Metrics, Request, Response, Router, Server};
use spotmarket::archetype::Archetype;
use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
use spotmarket::{Catalog, Combo, PriceHistory};
use std::net::SocketAddr;
use std::sync::Arc;

/// Worker threads per server, sized for a 2-core machine.
const WORKERS: usize = 2;
/// Shard servers get one worker more than the front can pin with pooled
/// keep-alive connections (one per front worker), so a direct client —
/// the per-layer `fleet.direct_graphs_us` probe — is served, not queued.
const SHARD_WORKERS: usize = WORKERS + 1;
/// Fleet size of the `fleet_mixed` workload.
const FLEET_SHARDS: usize = 3;

/// The population a workload's stack serves.
pub struct Population {
    /// Markets, in the experiment's population order.
    pub combos: Vec<Combo>,
    /// Virtual serving time at boot (bucket-aligned).
    pub now: u64,
    /// Seed the experiment generates market histories from.
    seed: u64,
}

impl Population {
    /// The population `workload` runs on: the `repro serve` six combos for
    /// the single-instance workloads, the `repro fleet` six for the fleet.
    pub fn of(workload: Workload) -> Population {
        match workload {
            Workload::QuoteMixed | Workload::BucketRoll => {
                let plan = serve::plan(Scale::Paper);
                Population {
                    combos: plan.combos,
                    now: plan.now,
                    seed: serve::SERVE_SEED,
                }
            }
            Workload::FleetMixed => {
                let plan = fleet::plan(Scale::Paper);
                Population {
                    combos: plan.combos,
                    now: plan.now,
                    seed: fleet::FLEET_SEED,
                }
            }
        }
    }

    /// The price histories the stack's services are built from,
    /// regenerated the way the experiments build them, for the per-layer
    /// timings that need a raw series.
    pub fn histories(&self) -> Vec<PriceHistory> {
        let catalog = Catalog::standard();
        self.combos
            .iter()
            .enumerate()
            .map(|(i, &combo)| {
                let archetype = match i % 3 {
                    0 => Archetype::Choppy,
                    1 => Archetype::Calm,
                    _ => Archetype::Spiky,
                };
                let cfg = TraceConfig::days(30, self.seed ^ (i as u64 + 1));
                generate_with_archetype(combo, catalog, &cfg, archetype)
            })
            .collect()
    }

    /// The predictor configuration the experiments' paper-scale services
    /// use.
    pub fn drafts_config() -> DraftsConfig {
        DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: 2,
            ..DraftsConfig::default()
        }
    }
}

enum Topology {
    Single(Server),
    Fleet(Fleet),
}

/// A booted, warmed stack.
pub struct Stack {
    topology: Topology,
    /// Every service in the stack (one, or one per shard).
    pub services: Vec<Arc<DraftsService>>,
    /// `drafts_stampede_waits_total` of each service.
    stampede: Vec<Counter>,
}

/// Service and routing counters at one instant; subtract two to get the
/// counts of a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub computes: u64,
    pub stampede_waits: u64,
    pub read_locks: u64,
    pub snapshot_swaps: u64,
    pub failed_over: u64,
    pub proxy_errors: u64,
    pub refused: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, o: Counts) -> Counts {
        Counts {
            computes: self.computes - o.computes,
            stampede_waits: self.stampede_waits - o.stampede_waits,
            read_locks: self.read_locks - o.read_locks,
            snapshot_swaps: self.snapshot_swaps - o.snapshot_swaps,
            failed_over: self.failed_over - o.failed_over,
            proxy_errors: self.proxy_errors - o.proxy_errors,
            refused: self.refused - o.refused,
        }
    }
}

/// What the drain saw.
#[derive(Debug, Clone, Copy)]
pub struct Drained {
    /// Connections shed with 503, over every server in the stack.
    pub shed: u64,
    /// Admitted minus served connections (0 unless the drain lost work).
    pub admitted_minus_served: u64,
}

impl Stack {
    /// Cold start: generates the market histories, builds every service,
    /// warms the boot bucket on each, and binds the loopback servers.
    pub fn boot(workload: Workload) -> Stack {
        let (topology, services) = match workload {
            Workload::QuoteMixed | Workload::BucketRoll => {
                let mut plan = serve::plan(Scale::Paper);
                plan.server.workers = WORKERS;
                let service = Arc::new(serve::build_service(&plan.combos, Scale::Paper));
                service.warm(plan.now);
                let router = Router::new(service.clone(), plan.now);
                let server = Server::start(router, plan.server).expect("bind loopback server");
                (Topology::Single(server), vec![service])
            }
            Workload::FleetMixed => {
                let mut plan = fleet::plan(Scale::Paper);
                plan.shards = FLEET_SHARDS;
                let mut cfg = FleetConfig::new(FLEET_SHARDS);
                cfg.shard_server.workers = SHARD_WORKERS;
                cfg.front_server.workers = WORKERS;
                let services = fleet::build_shard_services(&plan, &cfg.ring(), Scale::Paper);
                for service in &services {
                    service.warm(plan.now);
                }
                let fleet = Fleet::start(services.clone(), plan.now, cfg).expect("boot fleet");
                (Topology::Fleet(fleet), services)
            }
        };
        let stampede = services
            .iter()
            .map(|svc| {
                let registry = Registry::new();
                svc.register_metrics(&registry);
                registry.counter("drafts_stampede_waits_total")
            })
            .collect();
        Stack {
            topology,
            services,
            stampede,
        }
    }

    /// The address clients talk to (the instance, or the fleet front).
    pub fn entry(&self) -> SocketAddr {
        match &self.topology {
            Topology::Single(server) => server.addr(),
            Topology::Fleet(fleet) => fleet.addr(),
        }
    }

    /// The metrics of the entry server (its span stats feed `obs.self_us`).
    pub fn entry_metrics(&self) -> Arc<Metrics> {
        match &self.topology {
            Topology::Single(server) => server.metrics(),
            Topology::Fleet(fleet) => fleet.front_metrics(),
        }
    }

    /// Index into [`Stack::services`] of the service that owns `combo`
    /// (its ring primary in a fleet).
    pub fn owner(&self, combo: Combo) -> usize {
        match &self.topology {
            Topology::Single(_) => 0,
            Topology::Fleet(fleet) => fleet.front().ring().primary(combo.key()),
        }
    }

    /// The address of the server that owns `combo` — the entry itself for
    /// a single instance, the primary shard in a fleet.
    pub fn owner_addr(&self, combo: Combo) -> SocketAddr {
        match &self.topology {
            Topology::Single(server) => server.addr(),
            Topology::Fleet(fleet) => fleet.shard_addr(self.owner(combo)),
        }
    }

    /// The fleet front's in-process answer to `req` (it proxies to the
    /// live shards under virtual time); `None` for a single instance.
    pub fn front_handle(&self, req: &Request, metrics: &Metrics) -> Option<Response> {
        match &self.topology {
            Topology::Single(_) => None,
            Topology::Fleet(fleet) => Some(fleet.front().handle(req, metrics)),
        }
    }

    /// Current service and routing counters.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for (svc, stampede) in self.services.iter().zip(&self.stampede) {
            c.computes += svc.compute_count();
            c.read_locks += svc.read_lock_count();
            c.snapshot_swaps += svc.snapshot_swap_count();
            c.stampede_waits += stampede.get();
        }
        if let Topology::Fleet(fleet) = &self.topology {
            let f = fleet.front().counters();
            c.failed_over = f.failed_over.iter().map(Counter::get).sum();
            c.proxy_errors = f.proxy_errors.get();
            c.refused = f.refused.get();
        }
        c
    }

    /// Drains every server and joins its threads.
    pub fn shutdown(self) -> Drained {
        let reports = match self.topology {
            Topology::Single(server) => vec![server.shutdown()],
            Topology::Fleet(fleet) => {
                let r = fleet.shutdown();
                std::iter::once(r.front)
                    .chain(r.shards.into_iter().flatten())
                    .collect()
            }
        };
        Drained {
            shed: reports.iter().map(|r| r.shed).sum(),
            admitted_minus_served: reports.iter().map(|r| r.admitted - r.served).sum(),
        }
    }
}
