//! Deterministic pseudo-random number cores.
//!
//! Everything stochastic in the workspace flows through these generators so
//! that every experiment is reproducible from a single 64-bit seed, and so
//! that parallel runs can *split* seeds deterministically (results are
//! independent of thread count).
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — tiny, fast, and splittable; used to expand one master
//!   seed into many independent stream seeds.
//! * [`Xoshiro256pp`] — xoshiro256++ (Blackman & Vigna), the workhorse
//!   generator for simulation hot loops.

/// A minimal 64-bit random number generator interface.
///
/// This deliberately mirrors the tiny subset of functionality the circuits
/// need; it keeps hot loops monomorphic and free of external dependencies.
pub trait Rng64 {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling yields [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn next_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Returns a uniformly distributed integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` index in `[0, n)`.
    #[inline]
    fn next_index(&mut self, n: usize) -> usize {
        self.next_below(n as u64) as usize
    }

    /// Shuffles a slice in place (Fisher–Yates).
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// SplitMix64: a tiny, statistically solid, *splittable* generator.
///
/// Primarily used to derive independent sub-stream seeds from a master seed
/// (e.g. one stream per device, per thread, or per graph instance). The
/// update function is a single Weyl-sequence step followed by a finalizer,
/// so distinct seeds always yield distinct streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. All seeds are valid.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives the `k`-th child seed from `master`.
    ///
    /// Deterministic: `derive(master, k)` is a pure function, so parallel
    /// workers can compute their own seeds without coordination.
    #[inline]
    pub fn derive(master: u64, k: u64) -> u64 {
        let mut sm = SplitMix64::new(master ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        sm.next_u64()
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 (David Blackman and Sebastiano Vigna, 2019).
///
/// An all-purpose generator with a 2^256 − 1 period, excellent statistical
/// quality, and a very cheap update — appropriate for the device-sampling
/// hot loops where millions of coin flips per second are drawn.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed, expanding it with
    /// [`SplitMix64`] as recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is the only invalid one; SplitMix64 cannot
        // produce four consecutive zeros, but be defensive anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }
}

impl Rng64 for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vectors() {
        // First outputs for seed 0, widely published reference values.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn splitmix_distinct_seeds_distinct_streams() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(1);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(2);
            (0..8).map(|_| g.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn derive_is_pure_and_spread_out() {
        assert_eq!(SplitMix64::derive(7, 3), SplitMix64::derive(7, 3));
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000 {
            assert!(seen.insert(SplitMix64::derive(99, k)));
        }
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::new(12345);
        let mut b = Xoshiro256pp::new(12345);
        let mut c = Xoshiro256pp::new(12346);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn next_f64_in_unit_interval_and_roughly_uniform() {
        let mut g = Xoshiro256pp::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        // Standard error is ~0.29/sqrt(n) ≈ 9.1e-4; allow 5 sigma.
        assert!((mean - 0.5).abs() < 5.0 * 0.29 / (n as f64).sqrt());
    }

    #[test]
    fn next_bool_respects_probability() {
        let mut g = Xoshiro256pp::new(11);
        let n = 200_000;
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let hits = (0..n).filter(|_| g.next_bool(p)).count() as f64;
            let freq = hits / n as f64;
            let se = (p * (1.0 - p) / n as f64).sqrt().max(1e-12);
            assert!((freq - p).abs() <= 6.0 * se + 1e-12, "p={p} freq={freq}");
        }
    }

    #[test]
    fn next_below_unbiased_small_range() {
        let mut g = Xoshiro256pp::new(3);
        let n = 120_000;
        let mut counts = [0u32; 6];
        for _ in 0..n {
            counts[g.next_below(6) as usize] += 1;
        }
        let expect = n as f64 / 6.0;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "counts={counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn next_below_zero_panics() {
        let mut g = SplitMix64::new(0);
        let _ = g.next_below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut g = Xoshiro256pp::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn monobit_balance_xoshiro() {
        // Total set bits across many draws should be ~50%.
        let mut g = Xoshiro256pp::new(1234);
        let draws = 10_000usize;
        let ones: u64 = (0..draws).map(|_| g.next_u64().count_ones() as u64).sum();
        let total = (draws * 64) as f64;
        let freq = ones as f64 / total;
        assert!((freq - 0.5).abs() < 6.0 * 0.5 / total.sqrt());
    }
}
