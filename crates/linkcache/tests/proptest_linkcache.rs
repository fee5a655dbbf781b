//! Property tests for the link cache: `try_link_and_add` / `scan` /
//! `flush_all` interplay under capacity pressure (many keys hashed into
//! few buckets, so buckets keep filling up and flushing themselves
//! mid-stream). Every test here is single-threaded, where no bucket is
//! ever mid-flush and no reservation race can be lost, so `CacheFull`
//! must never be returned. Runs are seeded via the workspace
//! `CRASHTEST_SEED` knob (through the vendored proptest runner).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use linkcache::{LinkCache, TryLink, ENTRIES_PER_BUCKET};
use pmem::{Mode, PmemPool, PoolBuilder};
use proptest::prelude::*;

const DIRTY: u64 = 1 << 1;

/// The smallest legal cache: every key maps to one of two buckets, so
/// capacity pressure is constant.
const TINY_BUCKETS: usize = 2;

fn crash_pool() -> Arc<PmemPool> {
    PoolBuilder::new(4 << 20).mode(Mode::CrashSim).build()
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Attempt a cached link update of slot `i` under key `k`.
    Add { key: u64, slot: usize },
    /// Scan key `k` (the dependent-operation durability barrier).
    Scan { key: u64 },
    /// Flush every bucket (APT-trim / shutdown barrier).
    FlushAll,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..32u64, 0..256usize).prop_map(|(key, slot)| Step::Add { key, slot }),
        (0..32u64).prop_map(|key| Step::Scan { key }),
        (0..4u64).prop_map(|_| Step::FlushAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Under any interleaving of adds, scans and flushes on a tiny cache,
    /// every add is accepted (a full bucket flushes itself), an accepted
    /// update followed by `flush_all` is durable, and stats account for
    /// every attempt.
    #[test]
    fn capacity_pressure_preserves_durability(
        steps in proptest::collection::vec(step_strategy(), 1..200)
    ) {
        let pool = crash_pool();
        let lc = LinkCache::new(Arc::clone(&pool), TINY_BUCKETS, DIRTY);
        let mut f = pool.flusher();
        let base = pool.heap_start();
        // Authoritative volatile model: what each slot's link should read.
        let mut model = vec![0u64; 256];
        let mut attempts = 0u64;
        for step in steps {
            match step {
                Step::Add { key, slot } => {
                    attempts += 1;
                    let addr = base + 8 * slot;
                    let old = model[slot];
                    let new = old + 8; // clean word (low bits clear)
                    match lc.try_link_and_add(key, addr, old, new, &mut f) {
                        TryLink::Added => {
                            model[slot] = new;
                            let got = pool.atomic_u64(addr).load(Ordering::Relaxed);
                            prop_assert_eq!(got & !DIRTY, new, "link updated in place");
                        }
                        // Single-threaded: the bucket is never mid-flush and
                        // the expected value is always current.
                        other => prop_assert!(false, "spurious {:?}", other),
                    }
                }
                Step::Scan { key } => lc.scan(key, &mut f),
                Step::FlushAll => lc.flush_all(&mut f),
            }
        }
        let stats = lc.stats();
        prop_assert_eq!(stats.adds + stats.fallbacks, attempts, "every attempt accounted");
        prop_assert_eq!(stats.fallbacks, 0, "no add was refused");
        // Durability barrier, then crash: every accepted update survives.
        lc.flush_all(&mut f);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        for (slot, want) in model.iter().enumerate() {
            let got = pool.atomic_u64(base + 8 * slot).load(Ordering::Relaxed);
            prop_assert_eq!(got & !DIRTY, *want, "slot {} durable", slot);
        }
    }

    /// A scan of a key whose bucket holds a busy entry for that key makes
    /// the update durable immediately — no flush_all needed — while the
    /// cache stays usable (entries freed by the bucket flush).
    #[test]
    fn scan_is_a_sufficient_durability_barrier(
        keys in proptest::collection::vec(0..16u64, 1..40)
    ) {
        let pool = crash_pool();
        let lc = LinkCache::new(Arc::clone(&pool), TINY_BUCKETS, DIRTY);
        let mut f = pool.flusher();
        let base = pool.heap_start();
        let mut scanned: Vec<(usize, u64)> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let addr = base + 8 * i;
            let r = lc.try_link_and_add(key, addr, 0, 64, &mut f);
            prop_assert_eq!(r, TryLink::Added);
            lc.scan(key, &mut f);
            scanned.push((addr, 64));
        }
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        for (addr, want) in scanned {
            let got = pool.atomic_u64(addr).load(Ordering::Relaxed);
            prop_assert_eq!(got & !DIRTY, want, "scanned update survived the crash");
        }
    }

    /// Overflowing one bucket with adds and nothing else: every add is
    /// accepted, the add that finds the bucket full writes back the six
    /// before it under one fence, and so a crash loses at most the last
    /// `ENTRIES_PER_BUCKET` updates — never an older one.
    #[test]
    fn full_bucket_flushes_itself_and_bounds_the_loss(n in 1..40usize) {
        let pool = crash_pool();
        let lc = LinkCache::new(Arc::clone(&pool), TINY_BUCKETS, DIRTY);
        let mut f = pool.flusher();
        let base = pool.heap_start();
        for i in 0..n {
            // Same key -> same bucket: deliberate pressure. One link per
            // cache line, so a write-back persists exactly one of them.
            let r = lc.try_link_and_add(7, base + 64 * i, 0, 8, &mut f);
            prop_assert_eq!(r, TryLink::Added, "add {} of {}", i, n);
        }
        let flushes = (n - 1) / ENTRIES_PER_BUCKET;
        let stats = lc.stats();
        prop_assert_eq!(stats.adds, n as u64);
        prop_assert_eq!(stats.flushes, flushes as u64);
        prop_assert_eq!(stats.links_flushed, (flushes * ENTRIES_PER_BUCKET) as u64);
        prop_assert_eq!(f.stats().fences, flushes as u64, "one fence per full bucket");
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        for i in 0..n {
            let got = pool.atomic_u64(base + 64 * i).load(Ordering::Relaxed);
            let want = if i < flushes * ENTRIES_PER_BUCKET { 8 } else { 0 };
            prop_assert_eq!(got & !DIRTY, want, "link {} of {}", i, n);
        }
    }
}
