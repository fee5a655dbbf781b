//! Incremental-resize tests for the hash table: contents and routing
//! across a grow, the drain's fence budget, concurrent operations racing
//! a live resize (every node retired exactly once), crash recovery of a
//! half-migrated table, and a proptest driving arbitrary
//! op interleavings against a `BTreeMap` oracle while a resize is in
//! flight. The exhaustive crash-point enumeration lives in the
//! `crashtest` crate; these tests pin the volatile and single-crash
//! semantics at the structure level.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use linkcache::LinkCache;
use logfree::marked::DIRTY;
use logfree::{HashTable, LinkOps};
use nvalloc::{NvDomain, PAGE_SIZE};
use pmem::{FlushStats, LatencyModel, Mode, PmemPool, PoolBuilder};
use proptest::prelude::*;
use rand::prelude::*;

/// Live nodes linked from a bucket their key does not hash to, in a
/// table with no resize in flight.
fn misrouted(ht: &HashTable) -> usize {
    let mut bad = 0;
    ht.walk(|r| bad += usize::from(!r.deleted && ht.bucket_of(r.key) != r.bucket.0));
    bad
}

const ROOT: usize = 1;

fn pool(mb: usize, mode: Mode) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(mode).latency(LatencyModel::ZERO).build()
}

fn make_hash(pool: &Arc<PmemPool>, buckets: usize) -> (Arc<NvDomain>, HashTable) {
    let domain = NvDomain::create(Arc::clone(pool));
    let ops = LinkOps::new(Arc::clone(pool), None);
    let ht = HashTable::create(&domain, ROOT, buckets, ops).unwrap();
    (domain, ht)
}

#[test]
fn grow_preserves_contents_and_routing() {
    let pool = pool(16, Mode::CrashSim);
    let (domain, ht) = make_hash(&pool, 16);
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    for k in 1..=400u64 {
        ht.insert(&mut ctx, k, k * 3).unwrap();
        oracle.insert(k, k * 3);
    }
    assert_eq!(ht.capacity_hint(), 16);

    assert!(ht.grow(&mut ctx, 4).unwrap());
    assert!(ht.resize_in_flight());
    // Routing is live immediately: new inserts/removes land correctly
    // while the table is mid-migration (each op drains its own bucket
    // plus two more on behalf of the sweep).
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..300 {
        let k = rng.gen_range(1..600u64);
        match rng.gen_range(0..3) {
            0 => {
                assert_eq!(
                    ht.insert(&mut ctx, k, k * 3).unwrap(),
                    oracle.insert(k, k * 3).is_none()
                );
            }
            1 => assert_eq!(ht.remove(&mut ctx, k), oracle.remove(&k)),
            _ => assert_eq!(ht.get(&mut ctx, k), oracle.get(&k).copied()),
        }
    }
    ht.finish_resize(&mut ctx).unwrap();
    assert!(!ht.resize_in_flight());
    assert_eq!(ht.capacity_hint(), 64, "4x grow from 16 buckets");
    assert_eq!(misrouted(&ht), 0, "every key hashes to the bucket it lives in");
    let mut snap = ht.snapshot();
    snap.sort_unstable();
    let expect: Vec<_> = oracle.into_iter().collect();
    assert_eq!(snap, expect);

    // A second grow still works after the first completed.
    assert!(ht.grow(&mut ctx, 2).unwrap());
    assert!(!ht.grow(&mut ctx, 2).unwrap(), "grow while in flight is refused");
    ht.finish_resize(&mut ctx).unwrap();
    assert_eq!(ht.capacity_hint(), 128);
    assert_eq!(misrouted(&ht), 0);
}

#[test]
fn an_empty_table_takes_only_its_bucket_array_pages() {
    // A region's 64 B header line, then `n_buckets`, NEW and the bucket
    // words: the root slot names the array, and nothing else is allocated.
    for (buckets, pages) in [(16, 1), (1024, 3)] {
        let pool = pool(4, Mode::CrashSim);
        let domain = NvDomain::create(Arc::clone(&pool));
        let before = domain.heap().bump();
        HashTable::create(&domain, ROOT, buckets, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        assert_eq!(domain.heap().bump() - before, pages * PAGE_SIZE, "{buckets} buckets");
        assert_eq!(domain.heap().regions().len(), 1, "{buckets} buckets");
    }
}

/// Flush counters of a 4x grow of 8 192 items from 1 024 buckets, with or
/// without a link cache; checks every key reads back afterwards.
fn grow_flush_stats(link_cache: bool) -> FlushStats {
    const ITEMS: u64 = 8192;
    let pool = pool(64, Mode::Perf);
    let domain = NvDomain::create(Arc::clone(&pool));
    let lc = link_cache.then(|| Arc::new(LinkCache::with_default_size(Arc::clone(&pool), DIRTY)));
    let ht = HashTable::create(&domain, ROOT, 1024, LinkOps::new(Arc::clone(&pool), lc)).unwrap();
    let mut ctx = domain.register();
    for k in 1..=ITEMS {
        ht.insert(&mut ctx, k, k).unwrap();
    }
    ht.ops().flush_link_cache(&mut ctx.flusher);
    let before = ctx.flusher.stats();
    assert!(ht.grow(&mut ctx, 4).unwrap());
    assert!(ht.finish_resize(&mut ctx).unwrap());
    let spent = ctx.flusher.stats().diff(before);
    assert_eq!(ht.capacity_hint(), 4096);
    for k in 1..=ITEMS {
        assert_eq!(ht.get(&mut ctx, k), Some(k), "key {k} after the grow");
    }
    spent
}

#[test]
fn grow_drains_each_bucket_under_three_fences() {
    // Claim-and-copy, publish and detach each end in one fence, however
    // long the bucket's chain is; the allocator and the resize words add
    // a few more.
    for link_cache in [false, true] {
        let s = grow_flush_stats(link_cache);
        assert!(
            s.fences as f64 <= 3.2 * 1024.0,
            "{} fences for 1 024 buckets (link cache {link_cache})",
            s.fences
        );
        assert!(
            s.clwbs <= 4 * 8192,
            "{} write-backs for 8 192 items (link cache {link_cache})",
            s.clwbs
        );
    }
}

#[test]
fn concurrent_ops_race_a_live_grow() {
    let pool = PoolBuilder::new(256 << 20).mode(Mode::Perf).build();
    let (domain, ht) = make_hash(&pool, 16);
    // Churn keys: removed, re-inserted and overwritten by every thread
    // while the grow drains their chains, so drains meet deleted nodes
    // behind claimed predecessors and replacements racing the claim.
    let churn = 5001..=5200u64;
    {
        let mut ctx = domain.register();
        for k in (1..=1000u64).chain(churn.clone()) {
            ht.insert(&mut ctx, k, 1).unwrap();
        }
    }
    let mut ctxs = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..6u64 {
            let domain = Arc::clone(&domain);
            let ht = &ht;
            let churn = churn.clone();
            workers.push(s.spawn(move || {
                let mut ctx = domain.register();
                let mut rng = StdRng::seed_from_u64(t + 100);
                // Thread-disjoint key ranges above the prefill, so each
                // thread can assert its own set semantics exactly.
                let base = 2000 + t * 500;
                for i in 0..500 {
                    let k = base + i;
                    assert!(ht.insert(&mut ctx, k, t).unwrap());
                    assert_eq!(ht.upsert(&mut ctx, k, t + 10).unwrap(), Some(t));
                    assert_eq!(ht.get(&mut ctx, k), Some(t + 10));
                    if rng.gen_bool(0.5) {
                        assert_eq!(ht.remove(&mut ctx, k), Some(t + 10));
                    }
                    // Shared prefill keys are only ever rewritten, with
                    // the value they already hold: replacements race each
                    // other and the migrator's claim on the same node,
                    // and no reader may ever find the key gone.
                    let shared = rng.gen_range(1..=1000u64);
                    assert_eq!(ht.upsert(&mut ctx, shared, 1).unwrap(), Some(1));
                    let shared = rng.gen_range(1..=1000u64);
                    assert_eq!(ht.get(&mut ctx, shared), Some(1));
                    let c = rng.gen_range(churn.clone());
                    match rng.gen_range(0..3) {
                        0 => {
                            ht.remove(&mut ctx, c);
                        }
                        1 => {
                            ht.upsert(&mut ctx, c, t).unwrap();
                        }
                        _ => {
                            ht.insert(&mut ctx, c, t).unwrap();
                        }
                    }
                }
                // Epoch-respecting only: peers still run, and draining
                // would free the retired old bucket array under them.
                ctx.try_collect();
                ctx
            }));
        }
        let domain = Arc::clone(&domain);
        let ht = &ht;
        workers.push(s.spawn(move || {
            let mut ctx = domain.register();
            assert!(ht.grow(&mut ctx, 4).unwrap());
            ht.finish_resize(&mut ctx).unwrap();
            ctx.try_collect();
            ctx
        }));
        workers.into_iter().map(|w| w.join().unwrap()).collect::<Vec<_>>()
    });
    let mut ctx = domain.register();
    ht.finish_resize(&mut ctx).unwrap();
    assert!(!ht.resize_in_flight());
    assert_eq!(ht.capacity_hint(), 64);
    assert_eq!(misrouted(&ht), 0);
    let mut snap = ht.snapshot();
    snap.sort_unstable();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "no duplicate keys");
    for k in 1..=1000u64 {
        assert_eq!(ht.get(&mut ctx, k), Some(1), "prefill key {k} survived the grow");
    }
    // Every unlinked node was retired exactly once: a node nobody retired
    // stays allocated and unreachable (a leak), and one retired twice
    // trips the allocator's double-free assertion in debug builds.
    ctxs.push(ctx);
    for ctx in &mut ctxs {
        ctx.drain_all();
    }
    assert_eq!(ht.audit(&domain, |_| true), Vec::<String>::new(), "leaked nodes");
}

#[test]
fn prefetch_races_grows_that_free_the_arrays_it_reads() {
    let pool = PoolBuilder::new(64 << 20).mode(Mode::Perf).build();
    let (domain, ht) = make_hash(&pool, 16);
    {
        let mut ctx = domain.register();
        for k in 1..=2000u64 {
            ht.insert(&mut ctx, k, k * 3).unwrap();
        }
    }
    let done = AtomicBool::new(false);
    let (done, start) = (&done, &Barrier::new(2));
    let mut ctxs = std::thread::scope(|s| {
        let reader = {
            let domain = Arc::clone(&domain);
            let ht = &ht;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut rng = StdRng::seed_from_u64(51);
                let mut rounds = 0;
                start.wait();
                // Hits and misses alike, then every answer checked.
                while !done.load(Ordering::Acquire) || rounds < 1000 {
                    let keys: Vec<u64> = (0..16).map(|_| rng.gen_range(1..=2400)).collect();
                    ht.prefetch(&mut ctx, &keys);
                    for &k in &keys {
                        let want = (k <= 2000).then_some(k * 3);
                        assert_eq!(ht.get(&mut ctx, k), want, "key {k}");
                    }
                    rounds += 1;
                }
                ctx
            })
        };
        let domain = Arc::clone(&domain);
        let ht = &ht;
        let grower = s.spawn(move || {
            let mut ctx = domain.register();
            start.wait();
            for round in 0..3u64 {
                assert!(ht.grow(&mut ctx, 4).unwrap());
                ht.finish_resize(&mut ctx).unwrap();
                // Churn nodes, so pages of the retired array, once freed,
                // come back as node pages.
                for k in 0..10_000 {
                    let k = 10_000 + round * 10_000 + k;
                    ht.insert(&mut ctx, k, k).unwrap();
                    ht.remove(&mut ctx, k);
                }
                ctx.try_collect();
            }
            done.store(true, Ordering::Release);
            ctx
        });
        vec![reader.join().unwrap(), grower.join().unwrap()]
    });
    assert_eq!(ht.capacity_hint(), 16 << 6);
    let mut ctx = domain.register();
    for k in 1..=2000u64 {
        assert_eq!(ht.get(&mut ctx, k), Some(k * 3));
    }
    ctxs.push(ctx);
    for ctx in &mut ctxs {
        ctx.drain_all();
    }
    assert_eq!(ht.audit(&domain, |_| true), Vec::<String>::new());
}

#[test]
fn crash_mid_resize_rolls_forward() {
    let pool = pool(16, Mode::CrashSim);
    let (domain, ht) = make_hash(&pool, 16);
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    for k in 1..=200u64 {
        ht.insert(&mut ctx, k, k + 9).unwrap();
        oracle.insert(k, k + 9);
    }
    assert!(ht.grow(&mut ctx, 4).unwrap());
    // Partially migrate: a few ops, each draining its own bucket plus two
    // for the sweep — well short of the 16 old buckets.
    for k in 1..=3u64 {
        assert_eq!(ht.remove(&mut ctx, k), oracle.remove(&k));
    }
    assert!(ht.resize_in_flight(), "only part of the table migrated");
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };

    let domain2 = NvDomain::attach(Arc::clone(&pool));
    let (ht2, report) =
        HashTable::restart(&domain2, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    assert!(!ht2.resize_in_flight(), "the crashed resize was rolled forward");
    assert_eq!(ht2.capacity_hint(), 64);
    assert_eq!(misrouted(&ht2), 0);
    let mut snap = ht2.snapshot();
    snap.sort_unstable();
    let expect: Vec<_> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(snap, expect, "no key lost or resurrected (leaks recovered: {report:?})");
    assert_eq!(report.live, snap.len(), "a key mid-move is counted once");
    assert_eq!(
        ht2.audit(&domain2, |_| true),
        Vec::<String>::new(),
        "zero leaks after mid-resize recovery"
    );
}

#[test]
fn drain_out_of_memory_rolls_back_and_keeps_serving() {
    let pool = pool(4, Mode::Perf);
    let (domain, ht) = make_hash(&pool, 16);
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    for k in 1..=200u64 {
        ht.insert(&mut ctx, k, k + 1).unwrap();
        oracle.insert(k, k + 1);
    }
    assert!(ht.grow(&mut ctx, 4).unwrap());
    // Take every free node slot, so the first copy of any drain fails.
    let mut hoard = Vec::new();
    while let Ok(a) = ctx.alloc(24) {
        hoard.push(a);
    }
    assert!(ht.insert(&mut ctx, 1000, 1).is_err(), "a drain needs memory");
    // The failed drain un-claimed its chain: a remove falls back to the
    // old chain instead of waiting on a drain that cannot progress.
    for k in [5u64, 77, 150] {
        assert_eq!(ht.remove(&mut ctx, k), oracle.remove(&k));
    }
    for k in 1..=200u64 {
        assert_eq!(ht.get(&mut ctx, k), oracle.get(&k).copied(), "key {k}");
    }
    for a in hoard {
        ctx.dealloc_unlinked(a);
    }
    assert!(ht.finish_resize(&mut ctx).unwrap());
    assert_eq!(misrouted(&ht), 0);
    let mut snap = ht.snapshot();
    snap.sort_unstable();
    assert_eq!(snap, oracle.into_iter().collect::<Vec<_>>());
    ctx.drain_all();
    assert_eq!(ht.audit(&domain, |_| true), Vec::<String>::new(), "leaked nodes");
}

#[test]
fn eager_grow_keeps_the_reclamation_backlog_bounded() {
    // `finish_resize` retires every node it migrates. Run as one long
    // operation, none of them can settle before it returns: the backlog
    // reaches every migrated node (100 000 / 64 ≈ 1 560 generations) and
    // each APT trim walks all of it. One operation per bucket lets each
    // `end_op` collect what the buckets before it retired.
    const ITEMS: u64 = 100_000;
    let pool = PoolBuilder::new(64 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build();
    let (domain, ht) = make_hash(&pool, (ITEMS / 8) as usize);
    let mut ctx = domain.register();
    for k in 1..=ITEMS {
        ht.insert(&mut ctx, k, k).unwrap();
    }
    ctx.reset_stats();
    assert!(ht.grow(&mut ctx, 4).unwrap());
    assert!(ht.finish_resize(&mut ctx).unwrap());
    assert!(!ht.resize_in_flight());
    assert!(
        ctx.pending_peak() <= 4,
        "{} generations of retired nodes waited at once",
        ctx.pending_peak()
    );
    for k in (1..=ITEMS).step_by(997) {
        assert_eq!(ht.get(&mut ctx, k), Some(k));
    }
}

/// One scripted operation for the interleaving proptest.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Upsert(u64, u64),
    Replace(u64, u64),
    Remove(u64),
    Get(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..64u64, 0..1000u64).prop_map(|(k, v)| Op::Insert(k, v)),
        (1..64u64, 0..1000u64).prop_map(|(k, v)| Op::Upsert(k, v)),
        (1..64u64, 0..1000u64).prop_map(|(k, v)| Op::Replace(k, v)),
        (1..64u64).prop_map(Op::Remove),
        (1..64u64).prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Satellite: arbitrary insert/upsert/replace/remove/get interleavings racing a
    /// resize on a volatile shadow table match a `BTreeMap` oracle
    /// snapshot-for-snapshot — every individual result and the final
    /// contents. The grow is injected at an arbitrary point in the
    /// sequence, so ops land on a steady table, a mid-migration table
    /// (draining buckets as they go), and a freshly committed table.
    #[test]
    fn interleaved_ops_racing_resize_match_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        grow_at in 0..120usize,
        factor in (1..3usize).prop_map(|p| 1usize << p),
        finish_eagerly in any::<bool>(),
    ) {
        let pool = pool(16, Mode::Volatile);
        let (domain, ht) = make_hash(&pool, 8);
        let mut ctx = domain.register();
        let mut oracle = BTreeMap::new();
        let mut grown = false;
        for (i, op) in ops.iter().enumerate() {
            if i == grow_at.min(ops.len() - 1) {
                prop_assert!(ht.grow(&mut ctx, factor).unwrap());
                grown = true;
                if finish_eagerly {
                    ht.finish_resize(&mut ctx).unwrap();
                }
            }
            match *op {
                Op::Insert(k, v) => {
                    // Set semantics: a duplicate insert does NOT
                    // overwrite, so only mirror successful inserts.
                    let inserted = ht.insert(&mut ctx, k, v).unwrap();
                    prop_assert_eq!(inserted, !oracle.contains_key(&k));
                    if inserted {
                        oracle.insert(k, v);
                    }
                }
                // An upsert always stores and reports what it replaced.
                Op::Upsert(k, v) => {
                    prop_assert_eq!(ht.upsert(&mut ctx, k, v).unwrap(), oracle.insert(k, v));
                }
                // A replace stores only over a present key.
                Op::Replace(k, v) => {
                    let old = oracle.get_mut(&k).map(|slot| std::mem::replace(slot, v));
                    prop_assert_eq!(ht.replace(&mut ctx, k, v).unwrap(), old);
                }
                Op::Remove(k) => prop_assert_eq!(ht.remove(&mut ctx, k), oracle.remove(&k)),
                Op::Get(k) => prop_assert_eq!(ht.get(&mut ctx, k), oracle.get(&k).copied()),
            }
        }
        if !grown {
            prop_assert!(ht.grow(&mut ctx, factor).unwrap());
        }
        ht.finish_resize(&mut ctx).unwrap();
        prop_assert!(!ht.resize_in_flight());
        prop_assert_eq!(ht.capacity_hint(), 8 * factor.next_power_of_two());
        prop_assert_eq!(misrouted(&ht), 0);
        let mut snap = ht.snapshot();
        snap.sort_unstable();
        let expect: Vec<_> = oracle.into_iter().collect();
        prop_assert_eq!(snap, expect);
    }
}
