//! xoshiro256++ — the workspace's workhorse generator.
//!
//! xoshiro256++ (Blackman & Vigna, 2019) is a 256-bit-state all-purpose
//! generator: sub-nanosecond output, passes BigCrush/PractRand, and supports
//! `jump()` (advance by 2^128) so that parallel workers can be handed provably
//! non-overlapping substreams of a single seeded sequence — exactly what the
//! parallel backtesting engine needs.

use crate::{Rng, SeedableFrom, SplitMix64};

/// The xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from raw 256-bit state.
    ///
    /// # Panics
    /// Panics if the state is all zeros (the one forbidden state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "state must not be all-zero");
        Self { s }
    }

    /// Returns a copy of the internal state.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Advances the state by 2^128 steps.
    ///
    /// Calling `jump()` k times on a clone yields a stream that will not
    /// collide with the original for 2^128 outputs — use one jump per
    /// parallel worker.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180EC6D33CFD0ABA,
            0xD5A61266F0C9392C,
            0xA9582618E03FC9AA,
            0x39ABDC4529B1661C,
        ];
        let mut t = [0u64; 4];
        for &j in &JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    t[0] ^= self.s[0];
                    t[1] ^= self.s[1];
                    t[2] ^= self.s[2];
                    t[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = t;
    }

    /// Returns a clone jumped `k + 1` times past `self` — a decorrelated
    /// substream suitable for worker `k`.
    pub fn substream(&self, k: u64) -> Self {
        let mut rng = self.clone();
        for _ in 0..=k {
            rng.jump();
        }
        rng
    }
}

impl SeedableFrom for Xoshiro256pp {
    /// Expands `seed` through SplitMix64 into the 256-bit state, per the
    /// xoshiro authors' recommendation.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs from the canonical C implementation with state
    /// {1, 2, 3, 4}.
    #[test]
    fn matches_reference_vectors() {
        let mut rng = Xoshiro256pp::from_state([1, 2, 3, 4]);
        let expected: [u64; 10] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn all_zero_state_rejected() {
        let _ = Xoshiro256pp::from_state([0; 4]);
    }

    #[test]
    fn seed_from_u64_is_deterministic_and_seed_sensitive() {
        let a1 = Xoshiro256pp::seed_from_u64(5).state();
        let a2 = Xoshiro256pp::seed_from_u64(5).state();
        let b = Xoshiro256pp::seed_from_u64(6).state();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn jump_changes_state_but_not_distribution_shape() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let before = rng.state();
        rng.jump();
        assert_ne!(rng.state(), before);
        // Output after jump still looks uniform-ish on a coarse check.
        let n = 50_000;
        let ones: u32 = (0..n).map(|_| rng.next_u64().count_ones()).sum::<u32>() / n;
        assert!((28..=36).contains(&ones), "mean popcount {ones}");
    }

    #[test]
    fn substreams_do_not_share_prefixes() {
        let base = Xoshiro256pp::seed_from_u64(21);
        let mut s0 = base.substream(0);
        let mut s1 = base.substream(1);
        let p0: Vec<u64> = (0..8).map(|_| s0.next_u64()).collect();
        let p1: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_ne!(p0, p1);
    }

    #[test]
    fn jump_equals_substream_composition() {
        let base = Xoshiro256pp::seed_from_u64(33);
        // substream(1) == jump applied twice.
        let mut manual = base.clone();
        manual.jump();
        manual.jump();
        assert_eq!(manual.state(), base.substream(1).state());
    }
}
