//! Provisioning policies: how the platform picks `(type, AZ, bid)` for a
//! queued job (paper §4.3, Tables 2 and 3).

use crate::job::{suitable_types, JobProfile};
use drafts_core::DraftsService;
use spotmarket::catalog::Catalog;
use spotmarket::{Combo, Region};
use strategy::SpotPlan;

/// The three evaluated policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProvisionerPolicy {
    /// Pre-DrAFTS platform default: cheapest suitable type in a fixed AZ,
    /// bid = 80% of On-demand.
    Original,
    /// DrAFTS bid guaranteeing one hour at the target probability;
    /// `(type, AZ)` with the smallest guaranteed bid wins.
    Drafts1Hr,
    /// DrAFTS bid guaranteeing the job's profiled runtime (at least 5
    /// minutes); tighter than 1-hr for short jobs.
    DraftsProfiles,
}

impl ProvisionerPolicy {
    /// All policies in Table 3 order.
    pub const ALL: [ProvisionerPolicy; 3] = [
        ProvisionerPolicy::Original,
        ProvisionerPolicy::Drafts1Hr,
        ProvisionerPolicy::DraftsProfiles,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            ProvisionerPolicy::Original => "Original",
            ProvisionerPolicy::Drafts1Hr => "DrAFTS (1-hr)",
            ProvisionerPolicy::DraftsProfiles => "DrAFTS (profiles)",
        }
    }
}

/// Computes the launch plan for a job under `policy`.
///
/// `region` scopes the candidate AZs (the platform runs in one region);
/// `now` is the decision time; `target_p` the durability probability the
/// DrAFTS policies request. Returns `None` when no suitable type exists or
/// (for DrAFTS policies) no market offers a guaranteed bid — the caller
/// falls back to [`ProvisionerPolicy::Original`] behaviour.
pub fn plan(
    policy: ProvisionerPolicy,
    catalog: &Catalog,
    service: &DraftsService,
    region: Region,
    profile: &JobProfile,
    now: u64,
    target_p: f64,
) -> Option<SpotPlan> {
    plan_gated(
        policy,
        catalog,
        service,
        region,
        profile,
        now,
        target_p,
        &|_| true,
    )
}

/// [`plan`] with an advisory-plane gate: DrAFTS candidates whose combo the
/// gate rejects are skipped, exactly as if the service had no graphs for
/// them. The strategy replay routes advisory lookups through its sharded
/// front here — a dark shard takes its combos off the table while the
/// `Original` arm (which never consults the advisory plane) is unaffected.
#[allow(clippy::too_many_arguments)]
pub fn plan_gated(
    policy: ProvisionerPolicy,
    catalog: &Catalog,
    service: &DraftsService,
    region: Region,
    profile: &JobProfile,
    now: u64,
    target_p: f64,
    gate: &dyn Fn(Combo) -> bool,
) -> Option<SpotPlan> {
    let types = suitable_types(catalog, profile);
    if types.is_empty() {
        return None;
    }
    match policy {
        ProvisionerPolicy::Original => {
            // Fixed choice: the cheapest suitable type in the region's
            // first AZ, at 80% of the On-demand price.
            let ty = types[0];
            let az = region.azs().next().expect("regions have AZs");
            let combo = Combo::new(az, ty);
            let od = catalog.od_price(ty, region);
            catalog.is_available(combo).then_some(SpotPlan {
                combo,
                bid: od.scale(0.8),
            })
        }
        ProvisionerPolicy::Drafts1Hr | ProvisionerPolicy::DraftsProfiles => {
            let required = match policy {
                ProvisionerPolicy::Drafts1Hr => 3600,
                _ => profile.est_runtime.max(300),
            };
            let mut best: Option<SpotPlan> = None;
            for &ty in &types {
                for az in catalog.azs_offering(ty, region) {
                    let combo = Combo::new(az, ty);
                    if !gate(combo) {
                        continue;
                    }
                    let Some(response) = service.fetch(combo, now) else {
                        continue;
                    };
                    // A degraded feed past its staleness budget serves
                    // no-guarantee fallbacks: never launch spot on those —
                    // the optimizer routes such jobs to On-demand instead.
                    if !response.is_guaranteed() {
                        continue;
                    }
                    let Some(graph) = response.graphs.at_probability(target_p) else {
                        continue;
                    };
                    let Some(bp) = graph.cheapest_bid(required) else {
                        continue;
                    };
                    let better = best.is_none_or(|b| bp.bid < b.bid);
                    if better {
                        best = Some(SpotPlan { combo, bid: bp.bid });
                    }
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drafts_core::predictor::DraftsConfig;
    use drafts_core::service::ServiceConfig;
    use spotmarket::archetype::Archetype;
    use spotmarket::catalog::Family;
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};

    fn profile() -> JobProfile {
        JobProfile {
            family: Family::Compute,
            min_vcpus: 2,
            min_mem_gb: 3.0,
            est_runtime: 900,
        }
    }

    fn service_with_histories(days: u64) -> DraftsService {
        let cat = Catalog::standard();
        let mut svc = DraftsService::new(ServiceConfig {
            drafts: DraftsConfig {
                changepoint: None,
                autocorr: false,
                duration_stride: 6,
                ..DraftsConfig::default()
            },
            probabilities: vec![0.95, 0.99],
            ..ServiceConfig::default()
        });
        // Register a few compute types across us-west-2; mixed archetypes.
        for (i, name) in ["c4.large", "c3.large", "c4.xlarge"].iter().enumerate() {
            let ty = cat.type_id(name).unwrap();
            for (j, az) in Region::UsWest2.azs().enumerate() {
                let combo = Combo::new(az, ty);
                if !cat.is_available(combo) {
                    continue;
                }
                let arch = if (i + j) % 3 == 0 {
                    Archetype::Calm
                } else {
                    Archetype::Choppy
                };
                svc.register(generate_with_archetype(
                    combo,
                    cat,
                    &TraceConfig::days(days, 99),
                    arch,
                ));
            }
        }
        svc
    }

    #[test]
    fn original_is_fixed_and_cheap() {
        let cat = Catalog::standard();
        let svc = service_with_histories(2);
        let plan = plan(
            ProvisionerPolicy::Original,
            cat,
            &svc,
            Region::UsWest2,
            &profile(),
            1000,
            0.99,
        )
        .unwrap();
        // Cheapest suitable compute type is c4.large/c3.large at $0.105.
        let od = cat.od_price(plan.combo.ty, Region::UsWest2);
        assert_eq!(plan.bid, od.scale(0.8));
        assert_eq!(plan.combo.az, Region::UsWest2.azs().next().unwrap());
    }

    #[test]
    fn drafts_policy_picks_smallest_guaranteed_bid() {
        let cat = Catalog::standard();
        let svc = service_with_histories(20);
        let now = 19 * spotmarket::DAY;
        let p = plan(
            ProvisionerPolicy::Drafts1Hr,
            cat,
            &svc,
            Region::UsWest2,
            &profile(),
            now,
            0.95,
        )
        .expect("20-day histories must quote");
        // Verify minimality across the service's published graphs.
        for &combo in svc.combos() {
            if let Some(g) = svc
                .graphs(combo, now)
                .and_then(|g| g.at_probability(0.95).and_then(|g| g.cheapest_bid(3600)))
            {
                assert!(p.bid <= g.bid, "{:?} offers a lower bid", combo);
            }
        }
    }

    #[test]
    fn profiles_policy_never_bids_above_one_hour_policy() {
        let cat = Catalog::standard();
        let svc = service_with_histories(20);
        let now = 19 * spotmarket::DAY;
        let mut short = profile();
        short.est_runtime = 600; // 10 minutes << 1 hour
        let p1 = plan(
            ProvisionerPolicy::Drafts1Hr,
            cat,
            &svc,
            Region::UsWest2,
            &short,
            now,
            0.95,
        )
        .unwrap();
        let p2 = plan(
            ProvisionerPolicy::DraftsProfiles,
            cat,
            &svc,
            Region::UsWest2,
            &short,
            now,
            0.95,
        )
        .unwrap();
        assert!(
            p2.bid <= p1.bid,
            "profile bid {} must not exceed 1-hr bid {}",
            p2.bid,
            p1.bid
        );
    }

    #[test]
    fn gate_rejecting_everything_blanks_the_drafts_plan() {
        let cat = Catalog::standard();
        let svc = service_with_histories(20);
        let now = 19 * spotmarket::DAY;
        assert!(plan_gated(
            ProvisionerPolicy::Drafts1Hr,
            cat,
            &svc,
            Region::UsWest2,
            &profile(),
            now,
            0.95,
            &|_| false,
        )
        .is_none());
        // The Original arm never consults the advisory plane: unaffected.
        assert!(plan_gated(
            ProvisionerPolicy::Original,
            cat,
            &svc,
            Region::UsWest2,
            &profile(),
            now,
            0.95,
            &|_| false,
        )
        .is_some());
    }

    #[test]
    fn cold_service_yields_none_for_drafts() {
        let cat = Catalog::standard();
        let svc = DraftsService::new(ServiceConfig::default());
        assert!(plan(
            ProvisionerPolicy::Drafts1Hr,
            cat,
            &svc,
            Region::UsWest2,
            &profile(),
            1000,
            0.99,
        )
        .is_none());
    }

    #[test]
    fn impossible_profile_yields_none() {
        let cat = Catalog::standard();
        let svc = service_with_histories(2);
        let impossible = JobProfile {
            family: Family::Micro,
            min_vcpus: 99,
            min_mem_gb: 1.0,
            est_runtime: 60,
        };
        for policy in ProvisionerPolicy::ALL {
            assert!(plan(policy, cat, &svc, Region::UsWest2, &impossible, 1000, 0.99).is_none());
        }
    }
}
