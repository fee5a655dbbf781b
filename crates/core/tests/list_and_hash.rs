//! Integration tests for the durable linked list and hash table: set
//! semantics, concurrency, durability across simulated crashes, and leak
//! recovery.

use std::collections::BTreeMap;
use std::sync::Arc;

use linkcache::LinkCache;
use logfree::{HashTable, LinkOps, LinkedList, RestartReport};
use nvalloc::NvDomain;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
use rand::prelude::*;

/// Restarts the list of `pool`'s crashed image.
fn restart_list(pool: &Arc<PmemPool>) -> (Arc<NvDomain>, LinkedList, RestartReport) {
    let domain = NvDomain::attach(Arc::clone(pool));
    let (list, report) =
        LinkedList::restart(&domain, ROOT, LinkOps::new(Arc::clone(pool), None)).unwrap();
    (domain, list, report)
}

const ROOT: usize = 1;

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
}

fn make_list(pool: &Arc<PmemPool>, lc: bool) -> (Arc<NvDomain>, LinkedList) {
    let domain = NvDomain::create(Arc::clone(pool));
    let cache = lc
        .then(|| Arc::new(LinkCache::with_default_size(Arc::clone(pool), logfree::marked::DIRTY)));
    let ops = LinkOps::new(Arc::clone(pool), cache);
    let list = LinkedList::create(&domain, ROOT, ops);
    (domain, list)
}

#[test]
fn list_set_semantics() {
    let pool = crash_pool(8);
    let (domain, list) = make_list(&pool, false);
    let mut ctx = domain.register();
    assert!(list.insert(&mut ctx, 5, 50).unwrap());
    assert!(!list.insert(&mut ctx, 5, 51).unwrap(), "duplicate rejected");
    assert!(list.insert(&mut ctx, 3, 30).unwrap());
    assert!(list.insert(&mut ctx, 9, 90).unwrap());
    assert_eq!(list.get(&mut ctx, 5), Some(50));
    assert_eq!(list.get(&mut ctx, 4), None);
    assert_eq!(list.remove(&mut ctx, 5), Some(50));
    assert_eq!(list.remove(&mut ctx, 5), None);
    assert_eq!(list.snapshot(), vec![(3, 30), (9, 90)]);
}

#[test]
fn list_random_ops_match_btreemap_oracle() {
    let pool = crash_pool(16);
    let (domain, list) = make_list(&pool, false);
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..4000u64 {
        let k = rng.gen_range(1..200u64);
        match rng.gen_range(0..4) {
            0 => {
                // Set semantics: a duplicate insert does not overwrite.
                let ours = list.insert(&mut ctx, k, k * 10).unwrap();
                assert_eq!(ours, !oracle.contains_key(&k), "insert({k})");
                oracle.entry(k).or_insert(k * 10);
            }
            1 => {
                assert_eq!(
                    list.upsert(&mut ctx, k, i).unwrap(),
                    oracle.insert(k, i),
                    "upsert({k})"
                );
            }
            2 => {
                assert_eq!(list.remove(&mut ctx, k), oracle.remove(&k), "remove({k})");
            }
            _ => {
                assert_eq!(list.get(&mut ctx, k), oracle.get(&k).copied(), "get({k})");
            }
        }
    }
    let ours: Vec<_> = list.snapshot();
    let theirs: Vec<_> = oracle.into_iter().collect();
    assert_eq!(ours, theirs);
}

#[test]
fn list_survives_crash_with_recovery() {
    let pool = crash_pool(8);
    let (domain, list) = make_list(&pool, false);
    let mut ctx = domain.register();
    for k in 1..=100u64 {
        list.insert(&mut ctx, k, k + 1000).unwrap();
    }
    for k in (2..=100u64).step_by(2) {
        assert_eq!(list.remove(&mut ctx, k), Some(k + 1000));
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };

    let (domain2, list2, report) = restart_list(&pool);
    assert_eq!(report.heap.leaks_freed as usize + report.live, report.heap.slots_scanned as usize);
    assert_eq!(logfree::audit(&domain2, |v| list2.walk(v), |_| true), Vec::<String>::new());
    let snap = list2.snapshot();
    let expect: Vec<_> = (1..=100u64).step_by(2).map(|k| (k, k + 1000)).collect();
    assert_eq!(snap, expect, "all completed ops survive");
}

#[test]
fn list_durable_linearizability_single_thread_random_crash_points() {
    // Apply a random op sequence; capture a crash image after every op;
    // recovery from image i must equal the oracle state after op i
    // (single-threaded, every op has completed when the image is taken).
    let pool = crash_pool(8);
    let (domain, list) = make_list(&pool, false);
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut checkpoints = Vec::new();
    for i in 0..300 {
        let k = rng.gen_range(1..40u64);
        if rng.gen_bool(0.5) {
            list.insert(&mut ctx, k, k).unwrap();
            oracle.insert(k, k);
        } else {
            list.remove(&mut ctx, k);
            oracle.remove(&k);
        }
        if i % 37 == 0 {
            checkpoints.push((pool.capture_crash_image().unwrap(), oracle.clone()));
        }
    }
    drop(ctx);
    for (img, expect) in checkpoints {
        // SAFETY: no threads are running.
        unsafe { pool.crash_to_image(&img).unwrap() };
        let (_domain2, list2, _) = restart_list(&pool);
        let snap = list2.snapshot();
        let expect: Vec<_> = expect.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(snap, expect, "recovered state reflects all completed ops");
    }
}

#[test]
fn list_concurrent_updates_preserve_set_invariants() {
    let pool = PoolBuilder::new(64 << 20).mode(Mode::Perf).build();
    let (domain, list) = make_list(&pool, false);
    let threads = 8;
    let per = 400u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let domain = Arc::clone(&domain);
            let list = &list;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut rng = StdRng::seed_from_u64(t as u64);
                // Disjoint key ranges: each thread fully owns its keys.
                let base = 1 + t as u64 * per;
                for i in 0..per {
                    list.insert(&mut ctx, base + i, t as u64).unwrap();
                }
                for i in 0..per {
                    if rng.gen_bool(0.5) {
                        assert_eq!(list.remove(&mut ctx, base + i), Some(t as u64));
                        assert!(list.get(&mut ctx, base + i).is_none());
                    } else {
                        assert_eq!(list.get(&mut ctx, base + i), Some(t as u64));
                    }
                }
            });
        }
    });
    let snap = list.snapshot();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no duplicates");
}

#[test]
fn list_concurrent_contended_keys() {
    // All threads fight over the same small key space; afterwards the
    // list must be a valid sorted set and every present key's value must
    // be one some thread wrote.
    let pool = PoolBuilder::new(64 << 20).mode(Mode::Perf).build();
    let (domain, list) = make_list(&pool, false);
    std::thread::scope(|s| {
        for t in 0..8 {
            let domain = Arc::clone(&domain);
            let list = &list;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut rng = StdRng::seed_from_u64(100 + t as u64);
                for _ in 0..2000 {
                    let k = rng.gen_range(1..32u64);
                    match rng.gen_range(0..3) {
                        0 => {
                            let _ = list.insert(&mut ctx, k, 1000 + t as u64).unwrap();
                        }
                        // Replacers race removers and each other for the
                        // same node's `next` word.
                        1 => {
                            let _ = list.upsert(&mut ctx, k, 1000 + t as u64).unwrap();
                        }
                        _ => {
                            let _ = list.remove(&mut ctx, k);
                        }
                    }
                }
            });
        }
    });
    let snap = list.snapshot();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no duplicates");
    assert!(snap.iter().all(|&(k, v)| k < 32 && (1000..1008).contains(&v)));
}

#[test]
fn list_with_link_cache_matches_oracle_and_survives_flush_barrier() {
    let pool = crash_pool(16);
    let (domain, list) = make_list(&pool, true);
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..2500 {
        let k = rng.gen_range(1..100u64);
        if rng.gen_bool(0.5) {
            assert_eq!(list.insert(&mut ctx, k, k).unwrap(), oracle.insert(k, k).is_none());
        } else {
            assert_eq!(list.remove(&mut ctx, k), oracle.remove(&k));
        }
    }
    // Durability barrier: flush the cache, then crash.
    list.ops().flush_link_cache(&mut ctx.flusher);
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let (_domain2, list2, _) = restart_list(&pool);
    let expect: Vec<_> = oracle.into_iter().collect();
    assert_eq!(list2.snapshot(), expect);
}

#[test]
fn list_link_cache_defers_syncs() {
    // With the cache, a run of inserts of distinct keys should issue far
    // fewer sync batches than without it.
    let count_batches = |lc: bool| {
        let pool =
            PoolBuilder::new(16 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
        let (domain, list) = make_list(&pool, lc);
        let mut ctx = domain.register();
        for k in 1..=64u64 {
            list.insert(&mut ctx, k * 3, k).unwrap();
        }
        ctx.flusher.stats().sync_batches
    };
    let with_lc = count_batches(true);
    let without_lc = count_batches(false);
    assert!(
        with_lc < without_lc,
        "link cache must reduce sync batches ({with_lc} vs {without_lc})"
    );
}

#[test]
fn volatile_mode_issues_no_writebacks() {
    let pool = PoolBuilder::new(8 << 20).mode(Mode::Volatile).build();
    let (domain, list) = make_list(&pool, false);
    let mut ctx = domain.register();
    for k in 1..=50u64 {
        list.insert(&mut ctx, k, k).unwrap();
    }
    for k in 1..=50u64 {
        assert!(list.contains(&mut ctx, k));
    }
    assert_eq!(ctx.flusher.stats().clwbs, 0);
    assert_eq!(ctx.flusher.stats().fences, 0);
}

#[test]
fn bulk_load_equivalent_to_inserts() {
    let pool = crash_pool(8);
    let (domain, list) = make_list(&pool, false);
    let mut ctx = domain.register();
    let items: Vec<(u64, u64)> = (1..=500u64).map(|k| (k * 2, k)).collect();
    list.bulk_load_sorted(&mut ctx, &items).unwrap();
    assert_eq!(list.snapshot(), items);
    // Bulk-loaded data is durable.
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let (_domain2, list2, _) = restart_list(&pool);
    assert_eq!(list2.snapshot(), items);
}

// ---------------------------------------------------------------------
// Hash table
// ---------------------------------------------------------------------

fn make_hash(pool: &Arc<PmemPool>, buckets: usize) -> (Arc<NvDomain>, HashTable) {
    let domain = NvDomain::create(Arc::clone(pool));
    let ops = LinkOps::new(Arc::clone(pool), None);
    let ht = HashTable::create(&domain, ROOT, buckets, ops).unwrap();
    (domain, ht)
}

#[test]
fn hash_set_semantics_and_oracle() {
    let pool = crash_pool(16);
    let (domain, ht) = make_hash(&pool, 64);
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..4000 {
        let k = rng.gen_range(1..500u64);
        match rng.gen_range(0..3) {
            0 => assert_eq!(
                ht.insert(&mut ctx, k, k * 7).unwrap(),
                oracle.insert(k, k * 7).is_none()
            ),
            1 => assert_eq!(ht.remove(&mut ctx, k), oracle.remove(&k)),
            _ => assert_eq!(ht.get(&mut ctx, k), oracle.get(&k).copied()),
        }
    }
    let mut snap = ht.snapshot();
    snap.sort_unstable();
    let expect: Vec<_> = oracle.into_iter().collect();
    assert_eq!(snap, expect);
}

#[test]
fn hash_crash_recovery_with_node_identity_oracle() {
    let pool = crash_pool(16);
    let (domain, ht) = make_hash(&pool, 32);
    let mut ctx = domain.register();
    for k in 1..=300u64 {
        ht.insert(&mut ctx, k, k).unwrap();
    }
    for k in 1..=300u64 {
        if k % 3 == 0 {
            ht.remove(&mut ctx, k);
        }
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain2 = NvDomain::attach(Arc::clone(&pool));
    // First-approach oracle: per-slot search.
    let (ht2, _) =
        HashTable::restart(&domain2, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    assert_eq!(ht2.capacity_hint(), 32);
    assert_eq!(ht2.audit(&domain2, |_| true), Vec::<String>::new());
    let mut snap = ht2.snapshot();
    snap.sort_unstable();
    let expect: Vec<_> = (1..=300u64).filter(|k| k % 3 != 0).map(|k| (k, k)).collect();
    assert_eq!(snap, expect);
}

#[test]
fn hash_concurrent_mixed_workload() {
    let pool = PoolBuilder::new(128 << 20).mode(Mode::Perf).build();
    let (domain, ht) = make_hash(&pool, 256);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let domain = Arc::clone(&domain);
            let ht = &ht;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..3000 {
                    let k = rng.gen_range(1..2000u64);
                    match rng.gen_range(0..5) {
                        0 => {
                            let _ = ht.insert(&mut ctx, k, t).unwrap();
                        }
                        1 => {
                            let _ = ht.upsert(&mut ctx, k, t).unwrap();
                        }
                        2 => {
                            let _ = ht.replace(&mut ctx, k, t).unwrap();
                        }
                        3 => {
                            let _ = ht.remove(&mut ctx, k);
                        }
                        _ => {
                            let _ = ht.get(&mut ctx, k);
                        }
                    }
                }
            });
        }
    });
    let mut snap = ht.snapshot();
    snap.sort_unstable();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "no duplicate keys across buckets");
}
