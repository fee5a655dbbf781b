//! The engine's only randomness source: a xorshift64 state with a
//! splitmix64 output finalizer and a bias-free bounded sampler.
//!
//! Everything a stream draws — keys, op rolls, value sizes — comes from
//! one of these, seeded deterministically from `(seed, thread)`, so any
//! run is replayable from its recorded knob values alone.

/// The golden-ratio increment used throughout for seed decorrelation.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 finalization round.
#[inline]
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Xorshift64 state with a splitmix64 output finalizer.
///
/// The state advances by xorshift; the output goes through a splitmix64
/// finalizer. The finalizer matters: raw xorshift low bits are
/// GF(2)-linear in the low state bits, so `key = x % 2^k` would
/// deterministically fix the next draw's parity — every key would always
/// receive the same insert-or-remove choice and a mixed workload would
/// freeze after one pass over the key space.
pub struct Xorshift(u64);

impl Xorshift {
    /// Seeds the generator (seed 0 is remapped).
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1).wrapping_mul(GOLDEN) | 1)
    }

    /// A per-thread stream for `(seed, thread)`: one splitmix round over
    /// the pair decorrelates the thread streams even for adjacent seeds.
    pub fn for_thread(seed: u64, thread: usize) -> Self {
        Self::new(splitmix(seed.wrapping_add(GOLDEN.wrapping_mul(thread as u64 + 1))))
    }

    /// Next pseudo-random u64 (finalized output).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        splitmix(x)
    }

    /// Uniform f64 in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)` with **no modulo bias**, via Lemire's
    /// multiply-shift with rejection: `x * bound` maps the 64-bit draw
    /// onto `bound` equal 2^64-wide lanes; draws landing in the short
    /// first `2^64 mod bound` slice of a lane are rejected and redrawn,
    /// so every value in `[0, bound)` is exactly equally likely.
    /// (`x % bound` over-weights the low `2^64 mod bound` values.)
    #[inline]
    pub fn bounded(&mut self, bound: u64) -> u64 {
        let bound = bound.max(1);
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            // Threshold = 2^64 mod bound, computed without u128 division.
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform key in `[1, bound]` (bias-free).
    #[inline]
    pub fn key(&mut self, bound: u64) -> u64 {
        self.bounded(bound) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_remapped() {
        let mut a = Xorshift::new(0);
        let mut b = Xorshift::new(1);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bounded_stays_in_range() {
        let mut rng = Xorshift::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..1000 {
                assert!(rng.bounded(bound) < bound);
            }
        }
        assert_eq!(rng.bounded(0), 0, "bound 0 is clamped to 1");
        assert_eq!(rng.key(0), 1);
    }

    #[test]
    fn unit_is_half_open() {
        let mut rng = Xorshift::new(3);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn thread_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Xorshift::for_thread(42, 0);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xorshift::for_thread(42, 1);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = Xorshift::for_thread(42, 0);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2, "same (seed, thread) replays identically");
        assert_ne!(a, b, "threads draw decorrelated streams");
    }

    /// Regression for the historical `next_u64() % bound` sampler: with a
    /// non-power-of-two bound just above a large power of two, modulo
    /// folds the first `2^64 mod bound` values onto a double-weighted
    /// prefix. Lemire rejection must keep every bucket near-uniform.
    #[test]
    fn lemire_has_no_modulo_bias_for_non_power_of_two_bound() {
        // bound = 3 * 2^62: 2^64 mod bound = 2^62, so a modulo sampler
        // would hit the first third of the range twice as often (2/4 of
        // all draws) as each of the other two thirds (1/4 each).
        let bound = 3u64 << 62;
        let third = bound / 3;
        let mut rng = Xorshift::new(11);
        let samples = 300_000u64;
        let mut buckets = [0u64; 3];
        for _ in 0..samples {
            buckets[(rng.bounded(bound) / third).min(2) as usize] += 1;
        }
        let expect = samples as f64 / 3.0;
        for (i, &count) in buckets.iter().enumerate() {
            let rel = (count as f64 - expect).abs() / expect;
            assert!(rel < 0.02, "bucket {i}: {count} vs {expect} ({rel:.3} off) — biased");
        }
        // And demonstrate that the modulo sampler *does* fail this check,
        // so the assertion above is actually discriminating.
        let mut rng = Xorshift::new(11);
        let mut biased = [0u64; 3];
        for _ in 0..samples {
            biased[((rng.next_u64() % bound) / third).min(2) as usize] += 1;
        }
        // First third receives 1/2 of all modulo draws vs the uniform
        // 1/3 — a +50% relative excess.
        let rel = (biased[0] as f64 - expect).abs() / expect;
        assert!(rel > 0.4, "modulo control should be ~1.5x over-weighted, was {rel:.3}");
    }
}
