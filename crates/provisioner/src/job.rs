//! Jobs and computational profiles.
//!
//! The platform "includes approximate computational profiles — descriptions
//! of the requirements of a particular application (e.g., CPU and memory
//! requirements) and estimated execution time" (§4.3). Profiles drive
//! instance-type selection for every policy, and the *DrAFTS profiles*
//! policy additionally uses the runtime estimate as the required
//! durability.

use spotmarket::catalog::{Catalog, Family};
use spotmarket::TypeId;

/// A job's computational profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProfile {
    /// Required capability family.
    pub family: Family,
    /// Minimum vCPUs.
    pub min_vcpus: u16,
    /// Minimum memory in GiB.
    pub min_mem_gb: f32,
    /// Profiled (estimated) execution time in seconds. Estimates carry
    /// error relative to [`Job::runtime`].
    pub est_runtime: u64,
}

/// One schedulable job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Stable identifier within the workload.
    pub id: u32,
    /// Submission time relative to the replay start (seconds) — the paper
    /// transforms recorded submissions into relative offsets so workloads
    /// can be replayed at different times.
    pub submit_offset: u64,
    /// True execution time in seconds (unknown to the provisioner).
    pub runtime: u64,
    /// Completion deadline relative to the replay start (seconds).
    /// Strategies use it to decide when to stop gambling on spot; the
    /// paper's own policies ignore it.
    pub deadline: u64,
    /// The profile the provisioner sees.
    pub profile: JobProfile,
}

/// Instance types able to run `profile`, cheapest (by On-demand) first.
///
/// A type qualifies when it matches the family (or is `General`-family for
/// a `General` request), and meets the vCPU/memory floors.
pub fn suitable_types(catalog: &Catalog, profile: &JobProfile) -> Vec<TypeId> {
    let mut out: Vec<TypeId> = catalog
        .type_ids()
        .filter(|&ty| {
            let s = catalog.spec(ty);
            s.family == profile.family
                && s.vcpus >= profile.min_vcpus
                && s.mem_gb >= profile.min_mem_gb
        })
        .collect();
    out.sort_by_key(|&ty| catalog.spec(ty).od_us_east);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(family: Family, vcpus: u16, mem: f32) -> JobProfile {
        JobProfile {
            family,
            min_vcpus: vcpus,
            min_mem_gb: mem,
            est_runtime: 1800,
        }
    }

    #[test]
    fn suitable_types_meet_floors() {
        let cat = Catalog::standard();
        let p = profile(Family::Compute, 4, 7.0);
        let types = suitable_types(cat, &p);
        assert!(!types.is_empty());
        for ty in &types {
            let s = cat.spec(*ty);
            assert_eq!(s.family, Family::Compute);
            assert!(s.vcpus >= 4);
            assert!(s.mem_gb >= 7.0);
        }
    }

    #[test]
    fn suitable_types_sorted_by_price() {
        let cat = Catalog::standard();
        let types = suitable_types(cat, &profile(Family::General, 1, 1.0));
        assert!(types.len() >= 5);
        let prices: Vec<_> = types.iter().map(|&t| cat.spec(t).od_us_east).collect();
        assert!(prices.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn impossible_profile_yields_empty() {
        let cat = Catalog::standard();
        let types = suitable_types(cat, &profile(Family::Micro, 64, 1000.0));
        assert!(types.is_empty());
    }

    #[test]
    fn memory_family_prefers_r_series() {
        let cat = Catalog::standard();
        let types = suitable_types(cat, &profile(Family::Memory, 2, 10.0));
        let first = cat.spec(types[0]).name;
        assert!(
            first.starts_with("r4.") || first.starts_with("r3."),
            "{first}"
        );
    }
}
