//! The benchmark's one PRNG: splitmix64. Small, seedable, and frozen here so
//! the generated inputs never change under the benchmark.

/// A splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// generator does not shift the inputs of another.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut h = Rng(seed ^ fnv1a64(purpose.as_bytes()));
        Rng(h.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        self.shuffle(&mut p);
        p
    }
}

/// FNV-1a, used for input checksums and stream forking.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_values() {
        // First outputs of splitmix64 seeded with 0 (reference implementation).
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn below_and_permutation_stay_in_range() {
        let mut r = Rng::new(7);
        assert!((0..1000).all(|_| r.below(10) < 10));
        let mut p = r.permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn forks_differ_by_purpose_and_seed() {
        assert_ne!(Rng::fork(1, "a").next_u64(), Rng::fork(1, "b").next_u64());
        assert_ne!(Rng::fork(1, "a").next_u64(), Rng::fork(2, "a").next_u64());
        assert_eq!(Rng::fork(1, "a").next_u64(), Rng::fork(1, "a").next_u64());
    }
}
