//! Synthetic spot-price trace generation.
//!
//! Stand-in for the paper's (now unavailable) 18 months of recorded price
//! histories; see DESIGN.md §2 for the substitution argument. Dynamics run
//! in log-price space on a 5-minute update grid (the periodicity the paper
//! observes, §2.1):
//!
//! ```text
//! level_t  = level_{t-1} (+ Normal(0, regime_spread) with prob regime_rate)
//! x_t      = level_t + phi (x_{t-1} - level_t) + Normal(0, sigma)
//! d_t      = diurnal_amp * sin(2 pi (t mod day)/day + phase)
//! price_t  = clamp(exp(x_t + d_t) * spike_t, floor, cap)
//! ```
//!
//! with sticky *publication hysteresis* on top (a new market price is
//! announced only when the latent state moves beyond a per-archetype
//! band), producing the plateau-dominated, piecewise-constant series real
//! spot markets show, stationary segments separated by genuine change
//! points, heavy-tailed upward spikes with geometric holding times,
//! optional daily seasonality, and the `PinnedAbove` floor of one tick
//! above On-demand — the statistical features DrAFTS, its baselines, and
//! the paper's qualitative observations all key on.
//!
//! The loop computes each step's work once, with the same draws and the
//! same expressions in the same order as a plain per-step evaluation
//! (a test keeps that loop as the oracle):
//!
//! * `d_t` repeats every day, which is exactly 288 updates, so it comes
//!   from a table of the window's first 288 values;
//! * the era multiplier (a `powf`) is evaluated only for a draw that could
//!   pass its excursion test: the era never exceeds `ERA_START_MULT`, so a
//!   draw at or above `rate × ERA_START_MULT` fails whatever its value;
//! * the published price is converted to ticks only on a step that
//!   announces a new price.

use crate::archetype::{self, Archetype};
use crate::catalog::Catalog;
use crate::history::PriceHistory;
use crate::price::Price;
use crate::types::Combo;
use crate::UPDATE_PERIOD;
use simrng::dist::Normal;
use simrng::{Rng, StreamFactory};
use tsforecast::TimeSeries;

/// Trace generation window and seeding.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// First update timestamp (seconds).
    pub start: u64,
    /// End of the window (exclusive).
    pub end: u64,
    /// Experiment seed; combos derive independent streams from it.
    pub seed: u64,
}

impl TraceConfig {
    /// A window of `days` days starting at t = 0.
    pub fn days(days: u64, seed: u64) -> Self {
        Self {
            start: 0,
            end: days * crate::DAY,
            seed,
        }
    }

    /// Number of 5-minute updates in the window.
    pub fn steps(&self) -> u64 {
        (self.end.saturating_sub(self.start)) / UPDATE_PERIOD
    }
}

/// Generates the price history for one combo.
///
/// Deterministic in `(cfg.seed, combo)`: the same pair always yields the
/// identical trace regardless of what else the experiment generates.
pub fn generate(combo: Combo, catalog: &Catalog, cfg: &TraceConfig) -> PriceHistory {
    let arch = archetype::assign(combo, catalog, cfg.seed);
    generate_with_archetype(combo, catalog, cfg, arch)
}

/// Generates with an explicit archetype (tests and ablations).
pub fn generate_with_archetype(
    combo: Combo,
    catalog: &Catalog,
    cfg: &TraceConfig,
    arch: Archetype,
) -> PriceHistory {
    assert!(cfg.end > cfg.start, "empty trace window");
    let p = arch.params();
    let od = catalog.od_price(combo.ty, combo.az.region());
    let od_d = od.dollars();

    let factory = StreamFactory::new(cfg.seed);
    let mut rng = factory.stream("tracegen", combo.key());

    let noise = Normal::new(0.0, p.sigma).expect("sigma validated by params");
    let regime_jump = Normal::new(0.0, p.regime_spread).expect("spread validated");
    let spike_ln = Normal::new(p.spike_ln_mean, p.spike_ln_sd).expect("spike validated");

    // Floors/caps in dollars. PinnedAbove markets never quote below
    // On-demand + 1 tick (the cg1.4xlarge phenomenon of §4.1.2).
    let floor_d = if arch == Archetype::PinnedAbove {
        (od + Price::TICK).dollars()
    } else {
        (od_d * p.floor_frac).max(Price::TICK.dollars())
    };
    let cap_d = od_d * p.cap_frac;

    let mut level = (od_d * p.base_frac).ln();
    let mut x = level + noise.sample(&mut rng) * 3.0; // start off-mean
    let phase = rng.next_f64() * std::f64::consts::TAU;

    // Spike state: multiplicative factor > 1 while active.
    let mut spike_mult = 1.0f64;
    let mut spike_left = 0u64;
    let spike_continue = 1.0 - 1.0 / p.spike_steps_mean.max(1.0);

    let steps = cfg.steps();
    // The diurnal term depends on the step only through `t mod DAY`, and a
    // day is exactly `DAY_STEPS` updates: step k reads entry k mod
    // `DAY_STEPS` of a table holding the term at the window's first
    // timestamps, each computed with the per-step expression.
    let diurnal_table: Vec<f64> = (0..steps.min(DAY_STEPS))
        .map(|k| {
            let t = cfg.start + k * UPDATE_PERIOD;
            p.diurnal_amp
                * ((std::f64::consts::TAU * (t % crate::DAY) as f64 / crate::DAY as f64) + phase)
                    .sin()
        })
        .collect();
    // Secular calming: excursion rates decay geometrically across the
    // trace (see `archetype::ERA_START_MULT`) — most excursion mass lands
    // early, leaving the evaluation era quiet the way 2016's stabilizing
    // spot markets were.
    let era_at = |step: u64| {
        if p.era_immune {
            1.0
        } else {
            let frac = step as f64 / steps.max(1) as f64;
            archetype::ERA_START_MULT
                * (archetype::ERA_END_MULT / archetype::ERA_START_MULT).powf(frac)
        }
    };

    let mut series = TimeSeries::with_capacity(steps as usize);
    let mut t = cfg.start;
    // Publication hysteresis state: the last announced log price and its
    // tick price.
    let mut published: Option<(f64, u64)> = None;
    for step in 0..steps {
        // The step's era, evaluated only when an excursion draw needs it.
        let mut era = None;
        if excursion(&mut rng, p.regime_rate, &mut era, || era_at(step)) {
            level += regime_jump.sample(&mut rng);
            // Keep regimes from drifting out of the representable band.
            level = level.clamp((floor_d * 0.5).max(1e-6).ln(), (cap_d * 1.5).ln());
        }
        x = level + p.phi * (x - level) + noise.sample(&mut rng);
        let diurnal = diurnal_table[(step % DAY_STEPS) as usize];

        if spike_left > 0 {
            spike_left -= 1;
            if spike_left == 0 {
                spike_mult = 1.0;
            }
        } else if excursion(&mut rng, p.spike_rate, &mut era, || era_at(step)) {
            // Era also scales spike magnitude: early-era excursions were
            // taller, so a history's upper quantiles are dominated by old
            // spikes that the calmer evaluation era rarely revisits.
            let era = era.expect("a passing excursion draw evaluates the era");
            spike_mult = (spike_ln.sample(&mut rng) * era.powf(0.4)).exp().max(1.0);
            // Geometric holding time with the configured mean.
            spike_left = 1;
            while rng.next_bool(spike_continue) {
                spike_left += 1;
            }
        }

        let raw_ln = ((x + diurnal).exp() * spike_mult)
            .clamp(floor_d, cap_d)
            .ln();
        // Sticky publication: re-announce the previous price unless the
        // latent state moved beyond the hysteresis band (spikes always
        // clear it by construction of their magnitudes). Only an
        // announcement converts a price to ticks.
        let publish = match published {
            Some((last, _)) => (raw_ln - last).abs() > p.hysteresis,
            None => true,
        };
        if publish {
            let price_d = raw_ln.exp().clamp(floor_d, cap_d);
            published = Some((raw_ln, Price::from_dollars(price_d).ticks().max(1)));
        }
        let (_, ticks) = published.expect("published on first step");
        series.push(t, ticks);
        t += UPDATE_PERIOD;
    }
    PriceHistory::new(combo, series)
}

/// Updates in one day: the period of the diurnal term on the update grid.
const DAY_STEPS: u64 = crate::DAY / UPDATE_PERIOD;
const _: () = assert!(crate::DAY.is_multiple_of(UPDATE_PERIOD));

/// One excursion test, `rng.next_bool((rate * era).min(1.0))`, with the
/// step's `era` evaluated (into `era`) only when the draw could pass.
///
/// `era` never exceeds `ERA_START_MULT` and rounding is monotone, so a
/// draw at or above `rate × ERA_START_MULT` fails whatever the exact era:
/// the same draw gives the same answer as the plain test, without the
/// `powf`.
fn excursion(
    rng: &mut impl Rng,
    rate: f64,
    era: &mut Option<f64>,
    era_at: impl FnOnce() -> f64,
) -> bool {
    let u = rng.next_f64();
    u < (rate * archetype::ERA_START_MULT).min(1.0)
        && u < (rate * *era.get_or_insert_with(era_at)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Az, Region};

    fn catalog() -> &'static Catalog {
        Catalog::standard()
    }

    fn combo_named(ty: &str, az: &str) -> Combo {
        Combo::new(Az::parse(az).unwrap(), catalog().type_id(ty).unwrap())
    }

    #[test]
    fn trace_covers_window_on_update_grid() {
        let cfg = TraceConfig::days(7, 1);
        let h = generate(combo_named("c4.large", "us-east-1b"), catalog(), &cfg);
        assert_eq!(h.len() as u64, cfg.steps());
        assert_eq!(h.time(0), 0);
        assert_eq!(h.time(1) - h.time(0), UPDATE_PERIOD);
        assert!(h.time(h.len() - 1) < cfg.end);
    }

    #[test]
    fn traces_are_deterministic_per_seed_and_combo() {
        let cfg = TraceConfig::days(3, 7);
        let c = combo_named("m3.large", "us-west-2a");
        let a = generate(c, catalog(), &cfg);
        let b = generate(c, catalog(), &cfg);
        assert_eq!(a.series(), b.series());
        let other_seed = generate(c, catalog(), &TraceConfig::days(3, 8));
        assert_ne!(a.series(), other_seed.series());
        let other_combo = generate(combo_named("m3.large", "us-west-2b"), catalog(), &cfg);
        assert_ne!(a.series(), other_combo.series());
    }

    #[test]
    fn calm_market_stays_well_below_on_demand() {
        let cfg = TraceConfig::days(30, 11);
        let c = combo_named("m1.large", "us-west-2c"); // pinned Calm
        let h = generate(c, catalog(), &cfg);
        let od = catalog().od_price(c.ty, Region::UsWest2);
        let above = (0..h.len()).filter(|&i| h.price(i) >= od).count();
        assert_eq!(above, 0, "calm market should never cross On-demand");
        // And it genuinely moves a little.
        assert!(h.max_price().unwrap() > h.min_price().unwrap());
    }

    #[test]
    fn pinned_market_never_quotes_below_on_demand_plus_tick() {
        let cfg = TraceConfig::days(30, 11);
        let c = combo_named("cg1.4xlarge", "us-east-1c");
        let h = generate(c, catalog(), &cfg);
        let od = catalog().od_price(c.ty, Region::UsEast1);
        let min = h.min_price().unwrap();
        assert!(
            min >= od + Price::TICK,
            "min {min} must exceed On-demand {od} (paper §4.1.2)"
        );
    }

    #[test]
    fn volatile_market_spans_a_wide_range() {
        let cfg = TraceConfig::days(60, 11);
        let c = combo_named("c4.4xlarge", "us-east-1e"); // pinned Volatile
        let h = generate(c, catalog(), &cfg);
        let (lo, hi) = (h.min_price().unwrap(), h.max_price().unwrap());
        let ratio = hi.ticks() as f64 / lo.ticks() as f64;
        assert!(
            ratio > 15.0,
            "volatile market ratio {ratio} (paper saw ~73x over months)"
        );
        // It must also cross On-demand sometimes (why OD bids fail).
        let od = catalog().od_price(c.ty, Region::UsEast1);
        assert!(hi > od);
    }

    #[test]
    fn prices_respect_cap_and_floor() {
        let cfg = TraceConfig::days(30, 3);
        for (ty, az) in [("c3.2xlarge", "us-west-1a"), ("g2.2xlarge", "us-west-2b")] {
            let c = combo_named(ty, az);
            let h = generate(c, catalog(), &cfg);
            let od = catalog().od_price(c.ty, c.az.region());
            let cap = od.scale(12.0);
            assert!(h.max_price().unwrap() <= cap);
            assert!(h.min_price().unwrap() >= Price::TICK);
        }
    }

    #[test]
    fn spiky_market_has_rare_tall_excursions() {
        let cfg = TraceConfig::days(60, 5);
        let c = combo_named("r3.large", "us-west-2a");
        let h = generate_with_archetype(c, catalog(), &cfg, Archetype::Spiky);
        let values = h.series().values();
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let spike_points = values.iter().filter(|&&v| v > median * 3).count();
        let frac = spike_points as f64 / values.len() as f64;
        assert!(frac > 0.001, "expected some spikes, got {frac}");
        assert!(frac < 0.10, "spikes must be rare, got {frac}");
    }

    #[test]
    fn diurnal_market_correlates_with_time_of_day() {
        let cfg = TraceConfig::days(30, 5);
        let c = combo_named("m4.xlarge", "us-east-1b");
        let h = generate_with_archetype(c, catalog(), &cfg, Archetype::Diurnal);
        // Average price per hour-of-day bucket should show real amplitude.
        let mut sums = [0.0f64; 24];
        let mut counts = [0usize; 24];
        for i in 0..h.len() {
            let hour = (h.time(i) % crate::DAY) / crate::HOUR;
            sums[hour as usize] += h.price(i).dollars();
            counts[hour as usize] += 1;
        }
        let means: Vec<f64> = (0..24).map(|i| sums[i] / counts[i] as f64).collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo > 1.3, "diurnal amplitude too small: {lo}..{hi}");
    }

    #[test]
    fn regime_changes_produce_changepoints_qbets_can_see() {
        use tsforecast::{BoundEstimator, Qbets, QbetsConfig};
        let cfg = TraceConfig::days(90, 17);
        let c = combo_named("c3.xlarge", "us-west-2b");
        let h = generate_with_archetype(c, catalog(), &cfg, Archetype::Volatile);
        let mut q = Qbets::new(QbetsConfig::default());
        for &v in h.series().values() {
            q.observe(v);
        }
        assert!(
            q.changepoint_count() >= 2,
            "volatile 90-day trace should contain detectable regime shifts, got {}",
            q.changepoint_count()
        );
    }

    /// The generator as a plain per-step loop, kept verbatim as the oracle
    /// for the tabled diurnal term, the gated era and the cached ticks.
    fn reference_generate(
        combo: Combo,
        catalog: &Catalog,
        cfg: &TraceConfig,
        arch: Archetype,
    ) -> PriceHistory {
        assert!(cfg.end > cfg.start, "empty trace window");
        let p = arch.params();
        let od = catalog.od_price(combo.ty, combo.az.region());
        let od_d = od.dollars();

        let factory = StreamFactory::new(cfg.seed);
        let mut rng = factory.stream("tracegen", combo.key());

        let noise = Normal::new(0.0, p.sigma).expect("sigma validated by params");
        let regime_jump = Normal::new(0.0, p.regime_spread).expect("spread validated");
        let spike_ln = Normal::new(p.spike_ln_mean, p.spike_ln_sd).expect("spike validated");

        // Floors/caps in dollars. PinnedAbove markets never quote below
        // On-demand + 1 tick (the cg1.4xlarge phenomenon of §4.1.2).
        let floor_d = if arch == Archetype::PinnedAbove {
            (od + Price::TICK).dollars()
        } else {
            (od_d * p.floor_frac).max(Price::TICK.dollars())
        };
        let cap_d = od_d * p.cap_frac;

        let mut level = (od_d * p.base_frac).ln();
        let mut x = level + noise.sample(&mut rng) * 3.0; // start off-mean
        let phase = rng.next_f64() * std::f64::consts::TAU;

        // Spike state: multiplicative factor > 1 while active.
        let mut spike_mult = 1.0f64;
        let mut spike_left = 0u64;
        let spike_continue = 1.0 - 1.0 / p.spike_steps_mean.max(1.0);

        let steps = cfg.steps();
        let mut series = TimeSeries::with_capacity(steps as usize);
        let mut t = cfg.start;
        // Publication hysteresis state: the last announced log price.
        let mut published_ln: Option<f64> = None;
        for step in 0..steps {
            // Secular calming: excursion rates decay geometrically across the
            // trace (see `archetype::ERA_START_MULT`) — most excursion mass
            // lands early, leaving the evaluation era quiet the way 2016's
            // stabilizing spot markets were.
            let era = if p.era_immune {
                1.0
            } else {
                let frac = step as f64 / steps.max(1) as f64;
                archetype::ERA_START_MULT
                    * (archetype::ERA_END_MULT / archetype::ERA_START_MULT).powf(frac)
            };
            if rng.next_bool((p.regime_rate * era).min(1.0)) {
                level += regime_jump.sample(&mut rng);
                // Keep regimes from drifting out of the representable band.
                level = level.clamp((floor_d * 0.5).max(1e-6).ln(), (cap_d * 1.5).ln());
            }
            x = level + p.phi * (x - level) + noise.sample(&mut rng);
            let diurnal = p.diurnal_amp
                * ((std::f64::consts::TAU * (t % crate::DAY) as f64 / crate::DAY as f64) + phase)
                    .sin();

            if spike_left > 0 {
                spike_left -= 1;
                if spike_left == 0 {
                    spike_mult = 1.0;
                }
            } else if rng.next_bool((p.spike_rate * era).min(1.0)) {
                // Era also scales spike magnitude: early-era excursions were
                // taller, so a history's upper quantiles are dominated by old
                // spikes that the calmer evaluation era rarely revisits.
                spike_mult = (spike_ln.sample(&mut rng) * era.powf(0.4)).exp().max(1.0);
                // Geometric holding time with the configured mean.
                spike_left = 1;
                while rng.next_bool(spike_continue) {
                    spike_left += 1;
                }
            }

            let raw_d = ((x + diurnal).exp() * spike_mult).clamp(floor_d, cap_d);
            // Sticky publication: re-announce the previous price unless the
            // latent state moved beyond the hysteresis band (spikes always
            // clear it by construction of their magnitudes).
            let publish = match published_ln {
                Some(last) => (raw_d.ln() - last).abs() > p.hysteresis,
                None => true,
            };
            if publish {
                published_ln = Some(raw_d.ln());
            }
            let price_d = published_ln.expect("published on first step").exp();
            let price_d = price_d.clamp(floor_d, cap_d);
            series.push(t, Price::from_dollars(price_d).ticks().max(1));
            t += UPDATE_PERIOD;
        }
        PriceHistory::new(combo, series)
    }

    #[test]
    fn generator_equals_the_per_step_reference() {
        let combos = [
            combo_named("c4.large", "us-east-1b"),
            combo_named("m3.large", "us-west-2a"),
            combo_named("r3.xlarge", "us-west-1a"),
        ];
        // Starts on and off the update grid and on either side of a day
        // boundary; a window shorter than one day's 288 updates, and ones
        // of 30 and 90 days.
        let starts = [0, UPDATE_PERIOD, 12_345, crate::DAY - UPDATE_PERIOD];
        let lengths = [7 * crate::HOUR + 1, 30 * crate::DAY, 90 * crate::DAY];
        let mut updates = 0;
        for arch in Archetype::ALL {
            for (combo, seed) in combos.iter().zip([20_171_112, 7, 0xD1CE]) {
                for start in starts {
                    for len in lengths {
                        let cfg = TraceConfig {
                            start,
                            end: start + len,
                            seed,
                        };
                        let fast = generate_with_archetype(*combo, catalog(), &cfg, arch);
                        let slow = reference_generate(*combo, catalog(), &cfg, arch);
                        assert_eq!(
                            fast.series(),
                            slow.series(),
                            "{arch:?} seed {seed} start {start} length {len}"
                        );
                        updates += fast.len();
                    }
                }
            }
        }
        assert_eq!(updates, 6 * 3 * 4 * (84 + 8640 + 25_920));
    }

    #[test]
    #[should_panic(expected = "empty trace window")]
    fn rejects_empty_window() {
        let cfg = TraceConfig {
            start: 100,
            end: 100,
            seed: 1,
        };
        generate(combo_named("c4.large", "us-east-1b"), catalog(), &cfg);
    }
}
