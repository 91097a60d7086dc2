//! AZ-name obfuscation and deobfuscation.
//!
//! Amazon "prevents herding behavior in AZ selection by remapping AZ names
//! on a user-by-user basis. ... It is possible to compare market price
//! histories from different users to determine a globally consistent AZ
//! naming scheme" (paper §2.2). The DrAFTS *service* needs that
//! deobfuscation; this module provides both directions:
//!
//! * [`AzMapping`] — a deterministic per-account permutation of the zone
//!   indices within each region,
//! * [`recover_mapping`] — reconstructs the permutation by correlating an
//!   account's observed price series against canonical ones.

use crate::history::PriceHistory;
use crate::types::{Az, Region};
use simrng::{Rng, SeedableFrom, Xoshiro256pp};
use std::collections::HashMap;

/// A per-account permutation of AZ indices within each region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AzMapping {
    /// `perm[region_idx][account_visible_index] = canonical_index`.
    perms: Vec<Vec<u8>>,
}

impl AzMapping {
    /// The identity mapping (what the provider's own view uses).
    pub fn identity() -> Self {
        Self {
            perms: Region::ALL
                .iter()
                .map(|r| (0..r.az_count()).collect())
                .collect(),
        }
    }

    /// Derives the deterministic mapping for an account.
    pub fn for_account(account_seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(account_seed ^ 0xA20BFu64);
        let perms = Region::ALL
            .iter()
            .map(|r| {
                let mut idx: Vec<u8> = (0..r.az_count()).collect();
                rng.shuffle(&mut idx);
                idx
            })
            .collect();
        Self { perms }
    }

    /// Builds a mapping from explicit per-region permutations.
    ///
    /// # Panics
    /// Panics unless each row is a permutation of the region's AZ indices.
    pub fn from_perms(perms: Vec<Vec<u8>>) -> Self {
        assert_eq!(perms.len(), Region::ALL.len());
        for (r, perm) in Region::ALL.iter().zip(&perms) {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..r.az_count()).collect::<Vec<_>>(),
                "row for {} is not a permutation",
                r.name()
            );
        }
        Self { perms }
    }

    fn region_idx(region: Region) -> usize {
        Region::ALL
            .iter()
            .position(|&r| r == region)
            .expect("all regions listed")
    }

    /// Maps an account-visible AZ to the canonical AZ.
    pub fn to_canonical(&self, visible: Az) -> Az {
        let perm = &self.perms[Self::region_idx(visible.region())];
        Az::new(visible.region(), perm[visible.index() as usize])
    }

    /// Maps a canonical AZ to what this account sees.
    pub fn to_visible(&self, canonical: Az) -> Az {
        let perm = &self.perms[Self::region_idx(canonical.region())];
        let vis = perm
            .iter()
            .position(|&c| c == canonical.index())
            .expect("permutation is total");
        Az::new(canonical.region(), vis as u8)
    }

    /// Whether this is the identity mapping.
    pub fn is_identity(&self) -> bool {
        *self == Self::identity()
    }
}

/// Recovers an account's AZ mapping by matching its observed per-AZ price
/// series for one instance type against the canonical series.
///
/// Histories of the same underlying AZ are identical time series, so
/// matching minimizes the number of disagreeing samples; with distinct
/// markets the correct assignment disagrees nowhere. Returns `None` when a
/// visible series matches no canonical series exactly (e.g. truncated or
/// tampered data).
pub fn recover_mapping(
    observed: &HashMap<Az, PriceHistory>,
    canonical: &HashMap<Az, PriceHistory>,
) -> Option<AzMapping> {
    let mut perms: Vec<Vec<u8>> = Vec::with_capacity(Region::ALL.len());
    for region in Region::ALL {
        let mut perm = vec![u8::MAX; region.az_count() as usize];
        let mut taken = vec![false; region.az_count() as usize];
        for visible in region.azs() {
            let obs = observed.get(&visible)?;
            let mut matched = None;
            for canon in region.azs() {
                if taken[canon.index() as usize] {
                    continue;
                }
                let c = canonical.get(&canon)?;
                if series_match(obs, c) {
                    matched = Some(canon.index());
                    break;
                }
            }
            let m = matched?;
            perm[visible.index() as usize] = m;
            taken[m as usize] = true;
        }
        perms.push(perm);
    }
    Some(AzMapping::from_perms(perms))
}

/// Two histories match when they agree on every sampled point.
fn series_match(a: &PriceHistory, b: &PriceHistory) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a.is_empty() {
        return true;
    }
    // Sample up to 64 evenly spaced points; identical series agree on all.
    let n = a.len();
    let step = (n / 64).max(1);
    (0..n)
        .step_by(step)
        .all(|i| a.price(i) == b.price(i) && a.time(i) == b.time(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::tracegen::{self, TraceConfig};
    use crate::types::Combo;

    #[test]
    fn identity_round_trips() {
        let m = AzMapping::identity();
        assert!(m.is_identity());
        for az in Az::all() {
            assert_eq!(m.to_canonical(az), az);
            assert_eq!(m.to_visible(az), az);
        }
    }

    #[test]
    fn account_mapping_is_deterministic() {
        assert_eq!(AzMapping::for_account(5), AzMapping::for_account(5));
    }

    #[test]
    fn mapping_is_a_bijection() {
        let m = AzMapping::for_account(123);
        for az in Az::all() {
            assert_eq!(m.to_visible(m.to_canonical(az)), az);
            assert_eq!(m.to_canonical(m.to_visible(az)), az);
            assert_eq!(m.to_canonical(az).region(), az.region());
        }
    }

    #[test]
    fn some_account_sees_a_shuffled_view() {
        let shuffled = (0..50).any(|s| !AzMapping::for_account(s).is_identity());
        assert!(shuffled);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_perms_validates() {
        AzMapping::from_perms(vec![vec![0, 0, 1, 2], vec![0, 1], vec![0, 1, 2]]);
    }

    #[test]
    fn recovers_a_random_mapping_from_price_histories() {
        let cat = Catalog::standard();
        let ty = cat.type_id("c3.large").unwrap();
        let cfg = TraceConfig::days(10, 4242);
        let canonical: HashMap<Az, PriceHistory> = Az::all()
            .map(|az| (az, tracegen::generate(Combo::new(az, ty), cat, &cfg)))
            .collect();

        let mapping = AzMapping::for_account(777);
        // The account observes the canonical series under shuffled names.
        let observed: HashMap<Az, PriceHistory> = Az::all()
            .map(|visible| {
                let canonical_az = mapping.to_canonical(visible);
                (visible, canonical[&canonical_az].clone())
            })
            .collect();

        let recovered = recover_mapping(&observed, &canonical).expect("recoverable");
        assert_eq!(recovered, mapping);
    }

    #[test]
    fn recovery_fails_on_foreign_series() {
        let cat = Catalog::standard();
        let ty = cat.type_id("c3.large").unwrap();
        let canonical: HashMap<Az, PriceHistory> = Az::all()
            .map(|az| {
                (
                    az,
                    tracegen::generate(Combo::new(az, ty), cat, &TraceConfig::days(10, 1)),
                )
            })
            .collect();
        // Observations from a different seed match nothing.
        let observed: HashMap<Az, PriceHistory> = Az::all()
            .map(|az| {
                (
                    az,
                    tracegen::generate(Combo::new(az, ty), cat, &TraceConfig::days(10, 2)),
                )
            })
            .collect();
        assert!(recover_mapping(&observed, &canonical).is_none());
    }
}
