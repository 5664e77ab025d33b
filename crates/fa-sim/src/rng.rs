//! Deterministic pseudo-random number generation.
//!
//! Experiments must be bit-for-bit reproducible across runs and toolchain
//! updates, so instead of relying on an external generator whose stream
//! might change between crate versions we ship a small, well-known
//! SplitMix64/xoshiro256** pair. The quality is far beyond what workload
//! synthesis needs.

/// A deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64).
///
/// # Examples
///
/// ```
/// use fa_sim::rng::DeterministicRng;
///
/// let mut a = DeterministicRng::seed_from(42);
/// let mut b = DeterministicRng::seed_from(42);
/// let x = a.next_f64();
/// assert_eq!(x, b.next_f64());
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    state: [u64; 4],
}

fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        DeterministicRng { state }
    }

    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the upper 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        lo + self.next_u64() % span
    }

    /// Returns a uniformly distributed integer in `[0, n)`, or 0 when `n == 0`.
    pub(crate) fn gen_index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Derives an independent child generator, useful to give each
    /// component its own stream while keeping a single experiment seed.
    pub fn fork(&mut self, salt: u64) -> DeterministicRng {
        DeterministicRng::seed_from(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seed_from(7);
        let mut b = DeterministicRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::seed_from(1);
        let mut b = DeterministicRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should not coincide");
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = DeterministicRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn uniform_mean_is_reasonable() {
        let mut rng = DeterministicRng::seed_from(99);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DeterministicRng::seed_from(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut parent1 = DeterministicRng::seed_from(11);
        let mut parent2 = DeterministicRng::seed_from(11);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
    }
}
