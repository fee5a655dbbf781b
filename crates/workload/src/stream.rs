//! Deterministic per-thread request streams: the op-mix layer over
//! [`KeySampler`].
//!
//! Two op vocabularies cover both consumers of the engine:
//!
//! * [`MixStream`] — the set-structure mix (insert / remove / lookup)
//!   the paper's §6.2 figures run against the four durable structures.
//! * [`CacheStream`] — the memtier-style cache mix (set / get) of §6.5.
//!
//! Every stream is a pure function of `(spec, thread, index)`: the same
//! spec and thread replay the identical op sequence, and the `index`-th
//! op is reached by iterating — no global state, no wall clock.

use crate::dist::{KeyDist, KeySampler};
use crate::rng::Xorshift;

/// The paper's memtier set:get ratio (1:4) as a set fraction.
pub const PAPER_SET_FRACTION: f64 = 0.2;

/// The modeled value payload size of one cache `set`, in bytes.
///
/// The in-process caches store fixed-width `u64` values, so the sampled
/// size is *recorded on the op* ([`CacheOp::Set::vsize`]) rather than
/// materialized as payload bytes — harnesses that account for bandwidth
/// or memory pressure read it from there (documented as a deviation in
/// DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDist {
    /// Every value is exactly this many bytes.
    Fixed(u32),
    /// Sizes uniform in `[min, max]` bytes.
    Uniform {
        /// Smallest size, bytes.
        min: u32,
        /// Largest size, bytes (inclusive).
        max: u32,
    },
}

impl ValueDist {
    /// The paper's memtier configuration: fixed 64-byte values.
    pub const PAPER: ValueDist = ValueDist::Fixed(64);

    /// Stable label (`fixed-64`, `uniform-64-4096`); round-trips through
    /// [`ValueDist::parse`].
    pub fn label(&self) -> String {
        match *self {
            ValueDist::Fixed(b) => format!("fixed-{b}"),
            ValueDist::Uniform { min, max } => format!("uniform-{min}-{max}"),
        }
    }

    /// Parses a value-size spec, as accepted by the `VAL_DIST` knob:
    /// `fixed-<bytes>` or `uniform-<min>-<max>`.
    pub fn parse(s: &str) -> Result<ValueDist, String> {
        let s = s.trim();
        if let Some(b) = s.strip_prefix("fixed-") {
            let b: u32 = b.parse().map_err(|_| format!("bad value size '{b}'"))?;
            return Ok(ValueDist::Fixed(b));
        }
        if let Some(rest) = s.strip_prefix("uniform-") {
            let (min, max) =
                rest.split_once('-').ok_or_else(|| format!("bad range '{rest}' (want min-max)"))?;
            let min: u32 = min.parse().map_err(|_| format!("bad min '{min}'"))?;
            let max: u32 = max.parse().map_err(|_| format!("bad max '{max}'"))?;
            if min > max {
                return Err(format!("value-size range {min}-{max} is inverted"));
            }
            return Ok(ValueDist::Uniform { min, max });
        }
        Err(format!("unknown value-size distribution '{s}' (want fixed-N or uniform-MIN-MAX)"))
    }

    /// Samples one value size, in bytes.
    #[inline]
    pub fn sample(&self, rng: &mut Xorshift) -> u32 {
        match *self {
            ValueDist::Fixed(b) => b,
            ValueDist::Uniform { min, max } => min + rng.bounded((max - min) as u64 + 1) as u32,
        }
    }
}

// ---------------------------------------------------------------------------
// Cache traffic (memtier-style set/get)
// ---------------------------------------------------------------------------

/// The full shape of a memtier-style cache workload. This is the type
/// `nvmemcached::memtier` re-exports as `Workload`.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// Keys are drawn from `1..=key_range` according to `dist`.
    pub key_range: u64,
    /// sets per (sets + gets); the paper's 1:4 set:get mix is 0.2.
    pub set_fraction: f64,
    /// Seed for reproducible runs.
    pub seed: u64,
    /// Which keys the traffic concentrates on.
    pub dist: KeyDist,
    /// Modeled value payload sizes.
    pub value: ValueDist,
}

impl TrafficSpec {
    /// The paper's configuration: uniform keys, 1:4 set:get, 64-byte
    /// values over `key_range` keys.
    pub fn paper(key_range: u64, seed: u64) -> Self {
        Self {
            key_range,
            set_fraction: PAPER_SET_FRACTION,
            seed,
            dist: KeyDist::Uniform,
            value: ValueDist::PAPER,
        }
    }

    /// The same spec with a different key distribution.
    pub fn with_dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// The same spec with a different value-size distribution.
    pub fn with_value(mut self, value: ValueDist) -> Self {
        self.value = value;
        self
    }

    /// The warm-up key set: the first half of the key range, as in the
    /// paper ("we warm up the cache by inserting items covering half of
    /// the key range"). For zipfian and hotspot traffic the hot keys are
    /// the low keys, so the warm-up covers the hot set; latest's hot
    /// region sweeps the whole range and is only half-covered at any
    /// instant.
    pub fn warmup_keys(&self) -> impl Iterator<Item = u64> {
        1..=(self.key_range / 2).max(1)
    }

    /// The sampler this spec's streams draw keys from. Zipfian/latest
    /// construction is O(key_range) (the zeta sum); the sampler itself
    /// is `Copy`, so build it once per run and hand it to every thread
    /// via [`TrafficSpec::stream_with`].
    pub fn sampler(&self) -> KeySampler {
        KeySampler::new(self.dist, self.key_range.max(1))
    }

    /// The deterministic request stream for one worker thread, building
    /// a fresh sampler (fine for one-off streams; drivers spawning many
    /// threads should share one via [`TrafficSpec::stream_with`]).
    pub fn stream(&self, thread: usize) -> CacheStream {
        self.stream_with(self.sampler(), thread)
    }

    /// The request stream for one worker thread over a pre-built
    /// sampler (which must come from [`TrafficSpec::sampler`] of an
    /// identical spec).
    pub fn stream_with(&self, sampler: KeySampler, thread: usize) -> CacheStream {
        let set_threshold = (self.set_fraction.clamp(0.0, 1.0) * u32::MAX as f64) as u32;
        CacheStream {
            rng: Xorshift::for_thread(self.seed, thread),
            sampler,
            clock: 0,
            set_threshold,
            value: self.value,
        }
    }
}

/// One cache request, as generated by a [`CacheStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Store `key -> value` (payload modeled as `vsize` bytes).
    Set {
        /// The key to store.
        key: u64,
        /// The 64-bit value word the in-process caches store.
        value: u64,
        /// Modeled payload size in bytes (see [`ValueDist`]).
        vsize: u32,
    },
    /// Fetch `key`.
    Get {
        /// The key to fetch.
        key: u64,
    },
}

impl CacheOp {
    /// The key this op touches.
    pub fn key(&self) -> u64 {
        match *self {
            CacheOp::Set { key, .. } | CacheOp::Get { key } => key,
        }
    }
}

/// Deterministic per-thread cache request generator: a finalized RNG
/// over a [`KeySampler`] (Lemire-bounded uniform, zipfian/hotspot/latest
/// as configured). Infinite iterator.
pub struct CacheStream {
    rng: Xorshift,
    sampler: KeySampler,
    clock: u64,
    set_threshold: u32,
    value: ValueDist,
}

impl Iterator for CacheStream {
    type Item = CacheOp;

    #[inline]
    fn next(&mut self) -> Option<CacheOp> {
        let r = self.rng.next_u64();
        let key = self.sampler.sample(&mut self.rng, self.clock);
        self.clock += 1;
        Some(if (r as u32) < self.set_threshold {
            CacheOp::Set { key, value: r, vsize: self.value.sample(&mut self.rng) }
        } else {
            CacheOp::Get { key }
        })
    }
}

// ---------------------------------------------------------------------------
// Set-structure traffic (insert/remove/lookup)
// ---------------------------------------------------------------------------

/// The shape of a set-structure workload (the paper's §6.2 mix):
/// `update_pct`% of ops are updates — half inserts, half removes — and
/// the rest are lookups.
#[derive(Debug, Clone, Copy)]
pub struct MixSpec {
    /// Keys are drawn from `1..=key_range` according to `dist`.
    pub key_range: u64,
    /// Percent of operations that are updates (0..=100).
    pub update_pct: u32,
    /// Seed for reproducible runs.
    pub seed: u64,
    /// Which keys the traffic concentrates on.
    pub dist: KeyDist,
}

impl MixSpec {
    /// The deterministic op stream for one worker thread, building a
    /// fresh sampler. When many threads share one spec, build the
    /// sampler once with [`KeySampler::new`] and use
    /// [`MixSpec::stream_with`] (zipfian construction is O(key_range)).
    pub fn stream(&self, thread: usize) -> MixStream {
        self.stream_with(KeySampler::new(self.dist, self.key_range), thread)
    }

    /// The op stream for one worker thread over a pre-built sampler.
    pub fn stream_with(&self, sampler: KeySampler, thread: usize) -> MixStream {
        MixStream {
            rng: Xorshift::for_thread(self.seed, thread),
            sampler,
            clock: 0,
            update_pct: self.update_pct.min(100),
        }
    }
}

/// One set-structure operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    /// Insert `key -> value`.
    Insert(u64, u64),
    /// Remove `key`.
    Remove(u64),
    /// Look up `key`.
    Get(u64),
}

/// Deterministic per-thread set-structure op generator. Infinite
/// iterator.
pub struct MixStream {
    rng: Xorshift,
    sampler: KeySampler,
    clock: u64,
    update_pct: u32,
}

impl Iterator for MixStream {
    type Item = MixOp;

    #[inline]
    fn next(&mut self) -> Option<MixOp> {
        let key = self.sampler.sample(&mut self.rng, self.clock);
        self.clock += 1;
        let roll = self.rng.bounded(100) as u32;
        Some(if roll < self.update_pct {
            // The roll's parity splits updates into inserts and removes,
            // as the pre-refactor bench loop did.
            if roll % 2 == 0 {
                MixOp::Insert(key, key)
            } else {
                MixOp::Remove(key)
            }
        } else {
            MixOp::Get(key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_dist_parses_and_samples() {
        assert_eq!(ValueDist::parse("fixed-64"), Ok(ValueDist::Fixed(64)));
        assert_eq!(
            ValueDist::parse("uniform-64-4096"),
            Ok(ValueDist::Uniform { min: 64, max: 4096 })
        );
        assert!(ValueDist::parse("uniform-10-5").is_err());
        assert!(ValueDist::parse("huge").is_err());
        for v in [ValueDist::Fixed(64), ValueDist::Uniform { min: 16, max: 128 }] {
            assert_eq!(ValueDist::parse(&v.label()), Ok(v));
        }
        let mut rng = Xorshift::new(9);
        let v = ValueDist::Uniform { min: 16, max: 128 };
        let mut seen_min = false;
        let mut seen_large = false;
        for _ in 0..10_000 {
            let s = v.sample(&mut rng);
            assert!((16..=128).contains(&s));
            seen_min |= s == 16;
            seen_large |= s >= 120;
        }
        assert!(seen_min && seen_large, "uniform sizes cover the range");
    }

    #[test]
    fn cache_stream_set_fraction_holds() {
        for dist in [KeyDist::Uniform, KeyDist::ZIPF_99] {
            let spec = TrafficSpec::paper(1000, 42).with_dist(dist);
            let sets =
                spec.stream(0).take(100_000).filter(|op| matches!(op, CacheOp::Set { .. })).count();
            let frac = sets as f64 / 100_000.0;
            assert!((0.18..0.22).contains(&frac), "{dist:?} set fraction {frac}");
        }
    }

    #[test]
    fn cache_stream_keys_in_range_for_all_dists() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::ZIPF_99,
            KeyDist::HOTSPOT_10_90,
            KeyDist::Latest { theta: 0.99 },
        ] {
            let spec = TrafficSpec::paper(100, 7).with_dist(dist);
            for op in spec.stream(3).take(10_000) {
                assert!((1..=100).contains(&op.key()), "{dist:?} drew {}", op.key());
            }
        }
    }

    #[test]
    fn streams_replay_deterministically_per_thread() {
        for dist in [KeyDist::Uniform, KeyDist::ZIPF_99, KeyDist::Latest { theta: 0.99 }] {
            let spec = TrafficSpec::paper(500, 7).with_dist(dist);
            let a: Vec<_> = spec.stream(1).take(200).collect();
            let b: Vec<_> = spec.stream(1).take(200).collect();
            let c: Vec<_> = spec.stream(2).take(200).collect();
            assert_eq!(a, b, "{dist:?}: same (seed, thread) replays");
            assert_ne!(a, c, "{dist:?}: threads differ");
        }
        let m = MixSpec { key_range: 500, update_pct: 50, seed: 7, dist: KeyDist::ZIPF_99 };
        let a: Vec<_> = m.stream(1).take(200).collect();
        let b: Vec<_> = m.stream(1).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, m.stream(0).take(200).collect::<Vec<_>>());
    }

    #[test]
    fn mix_stream_honors_update_pct() {
        let spec = MixSpec { key_range: 1000, update_pct: 20, seed: 3, dist: KeyDist::Uniform };
        let (mut ins, mut rem, mut get) = (0u64, 0u64, 0u64);
        for op in spec.stream(0).take(100_000) {
            match op {
                MixOp::Insert(k, v) => {
                    assert_eq!(k, v);
                    ins += 1;
                }
                MixOp::Remove(_) => rem += 1,
                MixOp::Get(_) => get += 1,
            }
        }
        let upd = (ins + rem) as f64 / 100_000.0;
        assert!((0.18..0.22).contains(&upd), "update fraction {upd}");
        assert!(get > 0);
        let split = ins as f64 / (ins + rem) as f64;
        assert!((0.45..0.55).contains(&split), "insert/remove split {split}");
    }

    #[test]
    fn update_pct_100_yields_no_lookups() {
        let spec = MixSpec { key_range: 100, update_pct: 100, seed: 1, dist: KeyDist::Uniform };
        assert!(spec.stream(0).take(10_000).all(|op| !matches!(op, MixOp::Get(_))));
    }
}
