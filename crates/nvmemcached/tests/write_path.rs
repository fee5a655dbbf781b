//! The write path's budget and contract: how many fences a `set` may
//! issue (exact `FlushStats` counts — single-threaded, so they repeat
//! run for run), what the link cache saves under keys that never repeat,
//! that overwrites leave the eviction queue alone, and that a key which
//! is only ever `set` is never seen missing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nvmemcached::NvMemcached;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};

fn perf_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build()
}

/// Mean fences per call of `op` over `keys`, from the context's own
/// counters.
fn fences_per_op(
    ctx: &mut nvalloc::ThreadCtx,
    keys: std::ops::RangeInclusive<u64>,
    mut op: impl FnMut(&mut nvalloc::ThreadCtx, u64),
) -> f64 {
    let n = keys.clone().count() as f64;
    let before = ctx.flusher.stats().fences;
    for k in keys {
        op(ctx, k);
    }
    (ctx.flusher.stats().fences - before) as f64 / n
}

#[test]
fn link_and_persist_sets_stay_inside_the_fence_budget() {
    // No link cache, a table warmed past its allocator and auto-grow
    // start-up: 4 096 buckets hold the 3 000 keys without a resize.
    let mc = NvMemcached::create(perf_pool(64), 4096, 1_000_000, false).unwrap();
    let mut ctx = mc.register();
    for k in 1..=2000u64 {
        mc.set(&mut ctx, k, k).unwrap();
    }
    // An overwrite: the pre-link fence, the replacing link, the unlink.
    let overwrite = fences_per_op(&mut ctx, 1..=1000, |c, k| mc.set(c, k, k + 1).unwrap());
    assert!(overwrite <= 3.2, "{overwrite} fences per overwriting set");
    // A new key: the pre-link fence and the link.
    let fresh = fences_per_op(&mut ctx, 2001..=3000, |c, k| mc.set(c, k, k).unwrap());
    assert!(fresh <= 2.2, "{fresh} fences per new-key set");
    // `replace` of a present key is the overwrite; of an absent key, free.
    let replace = fences_per_op(&mut ctx, 1..=1000, |c, k| assert!(mc.replace(c, k, k).unwrap()));
    assert!(replace <= 3.2, "{replace} fences per replace");
    let refused =
        fences_per_op(&mut ctx, 5001..=6000, |c, k| assert!(!mc.replace(c, k, k).unwrap()));
    assert_eq!(refused, 0.0, "a refused replace allocates and persists nothing");
    assert!(!mc.resize_in_flight(), "the budget was measured on a steady table");
}

#[test]
fn link_cache_batches_sets_of_keys_that_never_repeat() {
    let mc = NvMemcached::create(perf_pool(64), 16_384, 1_000_000, true).unwrap();
    let mut ctx = mc.register();
    let sets = fences_per_op(&mut ctx, 1..=10_000, |c, k| mc.set(c, k, k).unwrap());
    // The pre-link fence, plus one fence per six links when a cache
    // bucket fills — not one per link.
    assert!(sets <= 1.5, "{sets} fences per set of a distinct key");
    let lc = mc.link_cache_stats();
    assert!(lc.adds >= 10_000, "every link went through the cache: {lc:?}");
    assert!((lc.fallbacks as f64) < 0.05 * lc.adds as f64, "full buckets flush: {lc:?}");
    assert!(lc.flushes > 0 && lc.links_flushed >= lc.adds - 192, "{lc:?}");
}

#[test]
fn overwrites_do_not_change_the_item_count() {
    // 1 000 keys in a cache with room for 100 000: nothing is ever
    // evicted, so only absent-to-present changes may move the count.
    let mc = NvMemcached::create(perf_pool(64), 1024, 100_000, false).unwrap();
    let mut ctx = mc.register();
    for round in 0..=1000u64 {
        for k in 1..=1000u64 {
            mc.set(&mut ctx, k, round).unwrap();
        }
    }
    assert_eq!(mc.len(), 1000);
    // `replace` is an overwrite too; a delete and a fresh store cancel.
    assert!(mc.replace(&mut ctx, 1, 7).unwrap());
    assert_eq!(mc.len(), 1000);
    assert_eq!(mc.delete(&mut ctx, 1), Some(7));
    assert_eq!(mc.len(), 999);
    mc.set(&mut ctx, 1, 8).unwrap();
    assert_eq!((mc.len(), mc.evictions()), (1000, 0));
}

#[test]
fn a_key_that_is_only_ever_set_is_never_missing() {
    // One writer rewrites a few keys as fast as it can; readers must find
    // every one of them, every time, with a value some `set` stored. With
    // `set` as remove-then-insert a reader misses within milliseconds.
    const KEYS: u64 = 8;
    const ROUNDS: u64 = 40_000;
    for use_link_cache in [false, true] {
        let mc = NvMemcached::create(perf_pool(64), 4, 1_000_000, use_link_cache).unwrap();
        {
            let mut ctx = mc.register();
            for k in 1..=KEYS {
                mc.set(&mut ctx, k, 0).unwrap();
            }
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut ctx = mc.register();
                        let mut reads = 0u64;
                        while !done.load(Ordering::Acquire) {
                            for k in 1..=KEYS {
                                let v = mc.get(&mut ctx, k);
                                assert!(
                                    matches!(v, Some(v) if v <= ROUNDS),
                                    "key {k} read as {v:?} (link cache: {use_link_cache})"
                                );
                                reads += 1;
                            }
                        }
                        reads
                    })
                })
                .collect();
            let mut ctx = mc.register();
            for round in 1..=ROUNDS {
                for k in 1..=KEYS {
                    mc.set(&mut ctx, k, round).unwrap();
                }
            }
            done.store(true, Ordering::Release);
            for r in readers {
                assert!(r.join().expect("reader panicked") > 0, "the readers ran");
            }
        });
        assert_eq!(mc.len(), KEYS as usize);
    }
}
