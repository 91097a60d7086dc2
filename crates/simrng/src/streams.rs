//! Keyed stream derivation: one experiment seed, many decorrelated streams.
//!
//! Subsystems must not share a generator (drawing order would couple their
//! randomness and break reproducibility when one subsystem changes). The
//! [`StreamFactory`] hashes `(root_seed, domain, index)` into an independent
//! [`Xoshiro256pp`] seed so that e.g. the trace generator for
//! `("us-east-1a", "c4.large")` always receives the same stream regardless of
//! what else the experiment does.

use crate::{Rng, SeedableFrom, SplitMix64, Xoshiro256pp};

/// Derives independent named random streams from a single root seed.
#[derive(Debug, Clone, Copy)]
pub struct StreamFactory {
    root: u64,
}

impl StreamFactory {
    /// Creates a factory for `root` seed.
    pub fn new(root: u64) -> Self {
        Self { root }
    }

    /// Returns the root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives the seed for `(domain, index)` by mixing through SplitMix64
    /// and an FNV-1a pass over the domain bytes.
    pub fn derive_seed(&self, domain: &str, index: u64) -> u64 {
        // FNV-1a over domain bytes, folded with root and index through
        // SplitMix64 finalization for avalanche.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in domain.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        let mut sm = SplitMix64::new(self.root ^ h);
        let a = sm.next_u64();
        let mut sm2 = SplitMix64::new(a ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        sm2.next_u64()
    }

    /// Returns a fresh generator for `(domain, index)`.
    pub fn stream(&self, domain: &str, index: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(self.derive_seed(domain, index))
    }

    /// Returns a fresh generator for a domain with no index.
    pub fn stream_named(&self, domain: &str) -> Xoshiro256pp {
        self.stream(domain, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_stream() {
        let f = StreamFactory::new(77);
        let mut a = f.stream("market", 3);
        let mut b = f.stream("market", 3);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_domain_different_stream() {
        let f = StreamFactory::new(77);
        let a = f.stream("market", 0).next_u64();
        let b = f.stream("workload", 0).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_index_different_stream() {
        let f = StreamFactory::new(77);
        let a = f.stream("market", 0).next_u64();
        let b = f.stream("market", 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_root_different_stream() {
        let a = StreamFactory::new(1).stream("m", 0).next_u64();
        let b = StreamFactory::new(2).stream("m", 0).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn derived_seeds_have_no_obvious_collisions() {
        let f = StreamFactory::new(12345);
        let mut seen = std::collections::HashSet::new();
        for domain in ["a", "b", "c", "market", "trace"] {
            for i in 0..1000 {
                assert!(
                    seen.insert(f.derive_seed(domain, i)),
                    "collision at {domain}/{i}"
                );
            }
        }
    }

    #[test]
    fn stream_named_is_index_zero() {
        let f = StreamFactory::new(9);
        assert_eq!(f.stream_named("x").next_u64(), f.stream("x", 0).next_u64());
    }
}
