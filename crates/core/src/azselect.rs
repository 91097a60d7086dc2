//! AZ selection by predicted-price fitness (paper §4.2).
//!
//! The launch experiments "used the predicted price upper bound for each
//! AZ in a given Region as a 'fitness function' so that financial risk
//! associated with each experiment would be minimized": compute the DrAFTS
//! minimum bid in every AZ offering the type and pick the cheapest.

use crate::predictor::{DraftsConfig, DraftsPredictor};
use spotmarket::{Az, Price, PriceHistory};

/// Result of AZ selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AzChoice {
    /// The selected zone.
    pub az: Az,
    /// Its predicted minimum bid (the fitness value).
    pub min_bid: Price,
}

/// Picks the AZ with the lowest DrAFTS minimum bid at time `now`.
///
/// `candidates` pairs each AZ with its price history (histories may have
/// different lengths). An AZ whose current segment is too short for a
/// bound competes with its conservative fallback fitness (one tick above
/// its observed maximum); AZs whose history has not started are skipped.
/// `None` only when no history covers `now`.
pub fn select_az(
    candidates: &[(Az, &PriceHistory)],
    now: u64,
    cfg: DraftsConfig,
    target_p: f64,
) -> Option<AzChoice> {
    let mut best: Option<AzChoice> = None;
    for &(az, history) in candidates {
        let Some(upto) = history.series().index_at(now) else {
            continue;
        };
        let predictor = DraftsPredictor::new(history, cfg);
        let min_bid = predictor.min_bid_or_max(upto, target_p);
        let better = match best {
            None => true,
            Some(b) => min_bid < b.min_bid,
        };
        if better {
            best = Some(AzChoice { az, min_bid });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::archetype::Archetype;
    use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
    use spotmarket::{Catalog, Combo, Region};

    fn cfg() -> DraftsConfig {
        DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: 5,
            ..DraftsConfig::default()
        }
    }

    fn histories(archs: &[Archetype], days: u64) -> Vec<(Az, PriceHistory)> {
        let cat = Catalog::standard();
        let ty = cat.type_id("c4.large").unwrap();
        Region::UsWest2
            .azs()
            .zip(archs.iter())
            .map(|(az, &arch)| {
                let h = generate_with_archetype(
                    Combo::new(az, ty),
                    cat,
                    &TraceConfig::days(days, 77),
                    arch,
                );
                (az, h)
            })
            .collect()
    }

    #[test]
    fn picks_the_cheapest_az() {
        let hs = histories(
            &[Archetype::Volatile, Archetype::Calm, Archetype::Choppy],
            30,
        );
        let refs: Vec<(Az, &PriceHistory)> = hs.iter().map(|(a, h)| (*a, h)).collect();
        let now = 29 * spotmarket::DAY;
        let choice = select_az(&refs, now, cfg(), 0.95).unwrap();
        // The choice's fitness is the minimum across candidates (which AZ
        // wins depends on the realized dynamics, not the archetype label).
        for &(az, h) in &refs {
            let upto = h.series().index_at(now).unwrap();
            let bid = DraftsPredictor::new(h, cfg()).min_bid_or_max(upto, 0.95);
            assert!(
                choice.min_bid <= bid,
                "{} has lower bid {bid} than chosen {}",
                az.name(),
                choice.min_bid
            );
        }
    }

    #[test]
    fn short_history_az_competes_via_conservative_fallback() {
        let cat = Catalog::standard();
        let ty = cat.type_id("c4.large").unwrap();
        let short = generate_with_archetype(
            Combo::new(Az::parse("us-west-2a").unwrap(), ty),
            cat,
            &TraceConfig::days(1, 1),
            Archetype::Calm,
        );
        let long = generate_with_archetype(
            Combo::new(Az::parse("us-west-2b").unwrap(), ty),
            cat,
            &TraceConfig::days(30, 1),
            Archetype::Volatile,
        );
        let refs = vec![
            (Az::parse("us-west-2a").unwrap(), &short),
            (Az::parse("us-west-2b").unwrap(), &long),
        ];
        // At p = 0.99 the 1-day calm history cannot produce a bound; its
        // fallback fitness is one tick above its (low) observed maximum,
        // which still undercuts the volatile AZ's bound.
        let choice = select_az(&refs, 29 * spotmarket::DAY, cfg(), 0.99).unwrap();
        assert_eq!(choice.az, Az::parse("us-west-2a").unwrap());
        let max_short = short.max_price().unwrap();
        assert_eq!(choice.min_bid, max_short + spotmarket::Price::TICK);
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert!(select_az(&[], 0, cfg(), 0.95).is_none());
    }

    #[test]
    fn fallback_fitness_applies_when_no_bound_exists() {
        let hs = histories(&[Archetype::Calm, Archetype::Calm, Archetype::Calm], 5);
        let refs: Vec<(Az, &PriceHistory)> = hs.iter().map(|(a, h)| (*a, h)).collect();
        // p so high no bound exists anywhere: every AZ competes on its
        // max-plus-tick fallback, and a choice is still made.
        let choice = select_az(&refs, 4 * spotmarket::DAY, cfg(), 0.9999).unwrap();
        let expected = refs
            .iter()
            .map(|(az, h)| {
                let upto = h.series().index_at(4 * spotmarket::DAY).unwrap();
                let max = h.series().values()[..=upto].iter().max().copied().unwrap();
                (
                    *az,
                    spotmarket::Price::from_ticks(max) + spotmarket::Price::TICK,
                )
            })
            .min_by_key(|&(_, bid)| bid)
            .unwrap();
        assert_eq!((choice.az, choice.min_bid), expected);
    }
}
