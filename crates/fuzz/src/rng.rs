//! Deterministic pseudo-random stream for program generation.
//!
//! The fuzzer's reproducibility contract is that every case is a pure
//! function of `(session seed, case index)`, so this module is the
//! *only* entropy source in the crate: a generator stepped by
//! [`audo_common::splitmix64`] (the mix the fleet calibration service
//! uses for per-unit seed derivation), with small sampling helpers on
//! top. No OS randomness, no time, no hash-map iteration order.

use audo_common::splitmix64;

/// Derives the per-case seed from the session seed and the case index.
///
/// Mixing the index through splitmix64 first keeps neighbouring cases
/// statistically unrelated, so `--seed S --iterations N` explores the
/// same programs regardless of how cases are sharded across jobs.
#[must_use]
pub fn case_seed(session_seed: u64, index: u64) -> u64 {
    splitmix64(session_seed ^ splitmix64(index))
}

/// A splitmix64-stepped pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform value in `0..n`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform value in the inclusive range `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Picks one element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_and_pick_stay_in_bounds() {
        let mut r = Rng::new(42);
        for _ in 0..1000 {
            let v = r.range(-7, 5);
            assert!((-7..=5).contains(&v));
            let p = *r.pick(&[1, 2, 3]);
            assert!((1..=3).contains(&p));
        }
    }

    #[test]
    fn case_seeds_differ_per_index() {
        let s: Vec<u64> = (0..100).map(|i| case_seed(0xF00D, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }
}
