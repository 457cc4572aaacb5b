//! SplitMix64: the workspace's one seeded generator.
//!
//! It stands in for an RNG dependency, so everything builds offline:
//! random workloads, load-test schedules and property-test cases all
//! draw from it. Sequences are stable across platforms and releases, so
//! a seed names its cases for good.

/// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
/// generators", OOPSLA 2014): the seed is the whole state.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draw in `0..n` (`n > 0`), by modulo.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_gives_the_reference_sequence() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let (mut a, mut b) = (SplitMix64::new(42), SplitMix64::new(42));
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x.to_bits(), b.next_f64().to_bits());
            assert!((0.0..1.0).contains(&x));
            assert!(a.below(7) < 7);
            b.below(7);
        }
        assert_ne!(
            SplitMix64::new(42).next_u64(),
            SplitMix64::new(43).next_u64()
        );
    }
}
