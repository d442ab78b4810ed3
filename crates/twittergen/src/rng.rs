//! A small, std-only, seeded PRNG (xoshiro256++ seeded via SplitMix64).
//!
//! The generator only has to be fast, deterministic, and statistically
//! good enough for Zipf/Poisson sampling — it replaces the external
//! `rand` crate so the workspace builds with no crates.io access.

/// A deterministic pseudo-random generator. Same seed, same stream.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single `u64` (SplitMix64 expansion, the
    /// initialisation recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw with success probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from `[lo, hi)`. Panics if the range is empty, like
    /// `rand`'s `gen_range`.
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = (range.end - range.start) as u64;
        // Multiply-shift bounded draw (Lemire); bias is < 2^-64 * span,
        // irrelevant for sampling purposes.
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_covers_and_respects_bounds() {
        let mut rng = Rng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_probability_is_roughly_p() {
        let mut rng = Rng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }
}
