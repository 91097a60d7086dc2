//! Price-dynamics archetypes.
//!
//! The paper documents qualitatively distinct market behaviours across AZ x
//! type combinations: calm near-constant floors (m1.large us-west-2c, §4.4),
//! two-orders-of-magnitude volatility (c4.4xlarge us-east-1e: $0.13–$9.5,
//! §4.4), markets whose spot price never drops below On-demand
//! (cg1.4xlarge: minimum observed $2.10010 vs $2.1 On-demand, §4.1.2),
//! diurnal load cycles, and spike-prone but otherwise quiet series. Each
//! combo is assigned one of six archetypes — deterministically from the
//! experiment seed — and the paper's specifically-cited combos are pinned
//! to the behaviour the paper reports.

use crate::types::{Combo, Region};

/// Qualitative market behaviour class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// Near-constant low floor with rare small wiggles.
    Calm,
    /// Daily load cycle on top of a low floor.
    Diurnal,
    /// Frequent moderate moves and regime changes.
    Choppy,
    /// Large swings spanning up to two orders of magnitude.
    Volatile,
    /// Quiet floor punctuated by short, tall spikes.
    Spiky,
    /// Spot price pinned at least one tick above the On-demand price.
    PinnedAbove,
}

impl Archetype {
    /// All archetypes, in weight-table order.
    pub const ALL: [Archetype; 6] = [
        Archetype::Calm,
        Archetype::Diurnal,
        Archetype::Choppy,
        Archetype::Volatile,
        Archetype::Spiky,
        Archetype::PinnedAbove,
    ];

    /// Population weights used for random assignment. Chosen so that the
    /// On-demand-as-bid policy fails for roughly the same share of combos
    /// as the paper's Table 1 (37% < 0.99) — Volatile, Spiky and
    /// PinnedAbove markets are the ones where the On-demand price is an
    /// insufficient bid.
    pub fn weight(self) -> f64 {
        match self {
            Archetype::Calm => 0.30,
            Archetype::Diurnal => 0.14,
            Archetype::Choppy => 0.25,
            Archetype::Volatile => 0.14,
            Archetype::Spiky => 0.12,
            Archetype::PinnedAbove => 0.05,
        }
    }

    /// Generator parameters for this archetype.
    pub fn params(self) -> ArchetypeParams {
        match self {
            Archetype::Calm => ArchetypeParams {
                base_frac: 0.15,
                sigma: 0.003,
                phi: 0.99,
                regime_rate: 1.0 / 40_000.0,
                regime_spread: 0.15,
                spike_rate: 1.0 / 400.0,
                spike_ln_mean: 0.7,
                spike_ln_sd: 0.12,
                spike_steps_mean: 15.0,
                diurnal_amp: 0.0,
                floor_frac: 0.08,
                cap_frac: 12.0,
                era_immune: false,
                hysteresis: 0.03,
            },
            Archetype::Diurnal => ArchetypeParams {
                base_frac: 0.20,
                sigma: 0.004,
                phi: 0.99,
                regime_rate: 1.0 / 30_000.0,
                regime_spread: 0.20,
                spike_rate: 1.0 / 450.0,
                spike_ln_mean: 0.6,
                spike_ln_sd: 0.12,
                spike_steps_mean: 12.0,
                diurnal_amp: 0.30,
                floor_frac: 0.08,
                cap_frac: 12.0,
                era_immune: false,
                hysteresis: 0.03,
            },
            Archetype::Choppy => ArchetypeParams {
                base_frac: 0.25,
                sigma: 0.035,
                phi: 0.98,
                regime_rate: 1.0 / 12_000.0,
                regime_spread: 0.40,
                spike_rate: 1.0 / 1500.0,
                spike_ln_mean: 1.2,
                spike_ln_sd: 0.30,
                spike_steps_mean: 8.0,
                diurnal_amp: 0.08,
                floor_frac: 0.08,
                cap_frac: 12.0,
                era_immune: false,
                hysteresis: 0.025,
            },
            Archetype::Volatile => ArchetypeParams {
                base_frac: 0.40,
                sigma: 0.070,
                phi: 0.985,
                regime_rate: 1.0 / 5000.0,
                regime_spread: 0.70,
                spike_rate: 1.0 / 800.0,
                spike_ln_mean: 1.6,
                spike_ln_sd: 0.45,
                spike_steps_mean: 8.0,
                diurnal_amp: 0.10,
                floor_frac: 0.10,
                cap_frac: 12.0,
                era_immune: true,
                hysteresis: 0.02,
            },
            Archetype::Spiky => ArchetypeParams {
                base_frac: 0.16,
                sigma: 0.003,
                phi: 0.99,
                regime_rate: 1.0 / 30_000.0,
                regime_spread: 0.25,
                spike_rate: 1.0 / 300.0,
                spike_ln_mean: 2.0,
                spike_ln_sd: 0.35,
                spike_steps_mean: 8.0,
                diurnal_amp: 0.0,
                floor_frac: 0.08,
                cap_frac: 12.0,
                era_immune: false,
                hysteresis: 0.05,
            },
            Archetype::PinnedAbove => ArchetypeParams {
                base_frac: 1.02,
                sigma: 0.003,
                phi: 0.99,
                regime_rate: 1.0 / 30_000.0,
                regime_spread: 0.10,
                spike_rate: 1.0 / 600.0,
                spike_ln_mean: 0.4,
                spike_ln_sd: 0.10,
                spike_steps_mean: 8.0,
                diurnal_amp: 0.0,
                // Floor one tick above On-demand is applied by the trace
                // generator for this archetype; base floor here is relative.
                floor_frac: 1.0,
                cap_frac: 12.0,
                era_immune: false,
                hysteresis: 0.03,
            },
        }
    }
}

/// Excursion-rate multiplier at the start of a generated trace. The 2016
/// spot market calmed substantially over the study period (the very change
/// that later obsoleted bidding): regime jumps and price excursions were
/// concentrated in the older part of any 90-day history. Rates interpolate
/// geometrically from `ERA_START_MULT` to `ERA_END_MULT` across the trace,
/// so the multiplier never exceeds `ERA_START_MULT`.
pub const ERA_START_MULT: f64 = 2.0;

/// Excursion-rate multiplier at the end of a generated trace.
pub const ERA_END_MULT: f64 = 0.05;

/// Trace-generator parameters (all fractions are relative to the combo's
/// On-demand price; dynamics run in log-price space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchetypeParams {
    /// Long-run mean spot/On-demand ratio.
    pub base_frac: f64,
    /// Innovation standard deviation of the log-price AR(1).
    pub sigma: f64,
    /// AR(1) coefficient per 5-minute step.
    pub phi: f64,
    /// Per-step probability of a regime-level jump.
    pub regime_rate: f64,
    /// Standard deviation of log regime-level jumps.
    pub regime_spread: f64,
    /// Per-step probability of starting a price spike.
    pub spike_rate: f64,
    /// Mean of the log spike multiplier.
    pub spike_ln_mean: f64,
    /// Standard deviation of the log spike multiplier.
    pub spike_ln_sd: f64,
    /// Mean spike duration in steps (geometric-ish).
    pub spike_steps_mean: f64,
    /// Amplitude of the 24-hour log-price sinusoid.
    pub diurnal_amp: f64,
    /// Price floor as a fraction of On-demand.
    pub floor_frac: f64,
    /// Price cap as a fraction of On-demand (AWS capped spot prices near
    /// 10x On-demand; the paper observed up to ~11.3x).
    pub cap_frac: f64,
    /// Whether this archetype ignores the secular era decay. Volatile
    /// markets are volatile precisely because they stayed hot through the
    /// study period (the paper's c4.4xlarge us-east-1e swung $0.13..$9.5
    /// during the test window itself).
    pub era_immune: bool,
    /// Publication hysteresis in log-price space: a new market price is
    /// announced only when the latent state moves this far from the last
    /// announcement. Real spot prices are *sticky* — plateaus lasting
    /// hours or days dominate the series (the paper notes "many price
    /// changes and/or repeated price announcements" on the 5-minute grid)
    /// — and that stickiness is what separates the empirical-CDF
    /// baseline's behaviour from a continuously wiggling series.
    pub hysteresis: f64,
}

/// Assigns an archetype to a combo.
///
/// Paper-cited combos are pinned (see module docs); all others draw from
/// the weight table using a hash of `(assignment_salt, combo)` so the map
/// is stable across runs with the same experiment seed.
pub fn assign(combo: Combo, catalog: &crate::catalog::Catalog, assignment_salt: u64) -> Archetype {
    if let Some(pinned) = pinned(combo, catalog) {
        return pinned;
    }
    let h = mix(assignment_salt ^ combo.key().wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0;
    for a in Archetype::ALL {
        acc += a.weight();
        if u < acc {
            return a;
        }
    }
    Archetype::PinnedAbove
}

/// The combos the paper describes specifically, pinned to their reported
/// behaviour so the figure/table harnesses reproduce the narrative.
fn pinned(combo: Combo, catalog: &crate::catalog::Catalog) -> Option<Archetype> {
    let name = catalog.spec(combo.ty).name;
    let region = combo.az.region();
    match (name, region) {
        // §4.1.2: spot price never below On-demand for cg1.4xlarge in
        // us-east-1 (observed in "us-east-1c").
        ("cg1.4xlarge", Region::UsEast1) => Some(Archetype::PinnedAbove),
        // §4.4: c4.4xlarge us-east-1e swung $0.13..$9.5.
        ("c4.4xlarge", Region::UsEast1) if combo.az.letter() == 'e' => Some(Archetype::Volatile),
        // §4.4: m1.large us-west-2c bid $0.10 vs OD $0.175 — calm.
        ("m1.large", Region::UsWest2) => Some(Archetype::Calm),
        // Figure 2: c4.large us-east-1, 100/100 launches survive at p=0.95.
        ("c4.large", Region::UsEast1) => Some(Archetype::Calm),
        // Figure 3: c3.2xlarge us-west-1, ~4 failures in 100 at p=0.95.
        ("c3.2xlarge", Region::UsWest1) => Some(Archetype::Choppy),
        // Figure 4: c3.4xlarge us-east-1 bid-duration graph with a knee.
        ("c3.4xlarge", Region::UsEast1) => Some(Archetype::Choppy),
        _ => None,
    }
}

/// SplitMix64 finalizer as a stand-alone mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::types::{Az, TypeId};

    #[test]
    fn weights_sum_to_one() {
        let total: f64 = Archetype::ALL.iter().map(|a| a.weight()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn params_are_sane_for_all_archetypes() {
        for a in Archetype::ALL {
            let p = a.params();
            assert!(p.base_frac > 0.0);
            assert!(p.sigma >= 0.0);
            assert!((0.0..1.0).contains(&p.phi));
            assert!(p.floor_frac <= p.base_frac || a == Archetype::PinnedAbove);
            assert!(p.cap_frac > p.base_frac);
            assert!((0.0..1.0).contains(&p.regime_rate));
            assert!((0.0..1.0).contains(&p.spike_rate));
            assert!(p.hysteresis >= 0.0);
        }
    }

    #[test]
    fn assignment_is_deterministic_and_salt_sensitive() {
        let cat = Catalog::standard();
        let combo = Combo::new(Az::new(Region::UsWest2, 1), TypeId(7));
        assert_eq!(assign(combo, cat, 1), assign(combo, cat, 1));
        // Some combo must differ across salts.
        let differs = cat
            .combos()
            .iter()
            .any(|&c| assign(c, cat, 1) != assign(c, cat, 2));
        assert!(differs);
    }

    #[test]
    fn pinned_combos_match_paper_narrative() {
        let cat = Catalog::standard();
        let cg1 = cat.type_id("cg1.4xlarge").unwrap();
        for az in Region::UsEast1.azs() {
            if cat.is_available(Combo::new(az, cg1)) {
                assert_eq!(
                    assign(Combo::new(az, cg1), cat, 12345),
                    Archetype::PinnedAbove
                );
            }
        }
        let c4l = cat.type_id("c4.large").unwrap();
        let east_b = Az::parse("us-east-1b").unwrap();
        assert_eq!(assign(Combo::new(east_b, c4l), cat, 9), Archetype::Calm);
        let c44 = cat.type_id("c4.4xlarge").unwrap();
        let east_e = Az::parse("us-east-1e").unwrap();
        assert_eq!(assign(Combo::new(east_e, c44), cat, 9), Archetype::Volatile);
    }

    #[test]
    fn population_mix_roughly_matches_weights() {
        let cat = Catalog::standard();
        let combos = cat.combos();
        let mut counts = std::collections::HashMap::new();
        for &c in &combos {
            *counts.entry(assign(c, cat, 42)).or_insert(0usize) += 1;
        }
        let n = combos.len() as f64;
        for a in Archetype::ALL {
            let frac = *counts.get(&a).unwrap_or(&0) as f64 / n;
            // Within 8 points of the nominal weight (pinning and sampling
            // noise shift things a little at n = 452).
            assert!(
                (frac - a.weight()).abs() < 0.08,
                "{a:?}: frac {frac} vs weight {}",
                a.weight()
            );
        }
    }
}
