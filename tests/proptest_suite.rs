//! Property-based tests (proptest): set semantics against a `BTreeMap`
//! oracle for all four structures, durable linearizability at arbitrary
//! crash prefixes, allocator soundness, and link-cache invariants.
//!
//! Determinism: every case seed mixes in the workspace-wide
//! `CRASHTEST_SEED` environment knob (shared with the `crashtest`
//! drivers); failures print the value to rerun with. `PROPTEST_CASES`
//! scales the case counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use nvram_logfree::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn op_strategy(key_max: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..key_max, 0..1000u64).prop_map(|(k, v)| Op::Insert(k, v)),
        (1..key_max).prop_map(Op::Remove),
        (1..key_max).prop_map(Op::Get),
    ]
}

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::CrashSim).build()
}

/// Applies ops to a structure + oracle, asserting identical results.
macro_rules! oracle_property {
    ($name:ident, $create:expr, $lookup_snapshot:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(64), 1..400)) {
                let pool = crash_pool(32);
                let domain = NvDomain::create(Arc::clone(&pool));
                let mut ctx = domain.register();
                #[allow(clippy::redundant_closure_call)]
                let ds = ($create)(&domain, &pool, &mut ctx);
                let mut oracle = BTreeMap::new();
                for op in &ops {
                    match *op {
                        Op::Insert(k, v) => {
                            let ours = ds.insert(&mut ctx, k, v).unwrap();
                            prop_assert_eq!(ours, !oracle.contains_key(&k));
                            if ours {
                                // Set semantics: failed inserts do not
                                // overwrite the stored value.
                                oracle.insert(k, v);
                            }
                        }
                        Op::Remove(k) => {
                            prop_assert_eq!(ds.remove(&mut ctx, k), oracle.remove(&k));
                        }
                        Op::Get(k) => {
                            prop_assert_eq!(ds.get(&mut ctx, k), oracle.get(&k).copied());
                        }
                    }
                }
                #[allow(clippy::redundant_closure_call)]
                let mut snap = ($lookup_snapshot)(&ds);
                snap.sort_unstable();
                let expect: Vec<(u64, u64)> = oracle.into_iter().collect();
                prop_assert_eq!(snap, expect);
            }
        }
    };
}

oracle_property!(
    linked_list_matches_oracle,
    |domain: &Arc<NvDomain>, pool: &Arc<PmemPool>, _ctx: &mut ThreadCtx| LinkedList::create(
        domain,
        1,
        LinkOps::new(Arc::clone(pool), None)
    ),
    |ds: &LinkedList| ds.snapshot()
);

oracle_property!(
    hash_table_matches_oracle,
    |domain: &Arc<NvDomain>, pool: &Arc<PmemPool>, _ctx: &mut ThreadCtx| HashTable::create(
        domain,
        1,
        32,
        LinkOps::new(Arc::clone(pool), None)
    )
    .unwrap(),
    |ds: &HashTable| ds.snapshot()
);

oracle_property!(
    skip_list_matches_oracle,
    |domain: &Arc<NvDomain>, pool: &Arc<PmemPool>, ctx: &mut ThreadCtx| SkipList::create(
        domain,
        ctx,
        1,
        LinkOps::new(Arc::clone(pool), None)
    )
    .unwrap(),
    |ds: &SkipList| ds.snapshot()
);

oracle_property!(
    bst_matches_oracle,
    |domain: &Arc<NvDomain>, pool: &Arc<PmemPool>, ctx: &mut ThreadCtx| Bst::create(
        domain,
        ctx,
        1,
        LinkOps::new(Arc::clone(pool), None)
    )
    .unwrap(),
    |ds: &Bst| ds.snapshot()
);

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Durable linearizability at an arbitrary crash point: apply a
    /// random op sequence single-threaded, crash after a random prefix,
    /// recover, and require exactly the oracle state at that prefix.
    #[test]
    fn hash_table_crash_at_any_prefix_is_exact(
        ops in proptest::collection::vec(op_strategy(48), 1..250),
        cut_frac in 0.0f64..1.0,
    ) {
        let pool = crash_pool(32);
        let domain = NvDomain::create(Arc::clone(&pool));
        let ht = HashTable::create(&domain, 1, 32, LinkOps::new(Arc::clone(&pool), None))
            .unwrap();
        let mut ctx = domain.register();
        let cut = ((ops.len() as f64) * cut_frac) as usize;
        let mut oracle = BTreeMap::new();
        let mut image = None;
        for (i, op) in ops.iter().enumerate() {
            if i == cut {
                image = Some((pool.capture_crash_image().unwrap(), oracle.clone()));
            }
            match *op {
                Op::Insert(k, v) => {
                    if ht.insert(&mut ctx, k, v).unwrap() {
                        oracle.insert(k, v);
                    }
                }
                Op::Remove(k) => {
                    ht.remove(&mut ctx, k);
                    oracle.remove(&k);
                }
                Op::Get(k) => {
                    ht.get(&mut ctx, k);
                }
            }
        }
        let (img, expect) = image.unwrap_or_else(|| {
            (pool.capture_crash_image().unwrap(), oracle.clone())
        });
        drop(ctx);
        // SAFETY: no threads running.
        unsafe { pool.crash_to_image(&img).unwrap() };
        let domain = NvDomain::attach(Arc::clone(&pool));
        let (ht, _) = HashTable::restart(&domain, 1, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        let mut snap = ht.snapshot();
        snap.sort_unstable();
        prop_assert_eq!(snap, expect.into_iter().collect::<Vec<_>>());
    }

    /// The allocator never double-allocates and never loses slots under
    /// random alloc/retire interleavings.
    #[test]
    fn allocator_is_sound(
        script in proptest::collection::vec((any::<bool>(), 0..4usize), 1..600)
    ) {
        let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).build();
        let domain = NvDomain::create(Arc::clone(&pool));
        let mut ctx = domain.register();
        let sizes = [24usize, 100, 180, 250];
        let mut live: Vec<usize> = Vec::new();
        for (is_alloc, class) in script {
            ctx.begin_op();
            if is_alloc || live.is_empty() {
                let a = ctx.alloc(sizes[class]).unwrap();
                prop_assert!(!live.contains(&a), "double allocation of {a:#x}");
                live.push(a);
            } else {
                let a = live.swap_remove(live.len() / 2);
                ctx.retire(a);
            }
            ctx.end_op();
        }
        ctx.drain_all();
    }

    /// Link cache: whatever interleaving of adds and scans happens, after
    /// `flush_all` every accepted link update is durable.
    #[test]
    fn link_cache_flush_makes_all_adds_durable(
        keys in proptest::collection::vec(0..200u64, 1..150)
    ) {
        use nvram_logfree::logfree::marked::DIRTY;
        let pool = crash_pool(16);
        let lc = LinkCache::with_default_size(Arc::clone(&pool), DIRTY);
        let mut f = pool.flusher();
        let base = pool.heap_start();
        let mut accepted: Vec<(usize, u64)> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let addr = base + 8 * i;
            let new = ((i as u64) + 1) << 3;
            match lc.try_link_and_add(k, addr, 0, new, &mut f) {
                linkcache::TryLink::Added => accepted.push((addr, new)),
                linkcache::TryLink::CacheFull => {
                    // Fallback path: link-and-persist by hand.
                    pool.atomic_u64(addr).store(new, std::sync::atomic::Ordering::Release);
                    f.persist(addr, 8);
                    accepted.push((addr, new));
                }
                linkcache::TryLink::LinkCasFailed => {}
            }
            if i % 7 == 0 {
                lc.scan(k, &mut f);
            }
        }
        lc.flush_all(&mut f);
        // SAFETY: no threads running.
        unsafe { pool.simulate_crash().unwrap() };
        for (addr, want) in accepted {
            let got = pool.atomic_u64(addr).load(std::sync::atomic::Ordering::Relaxed);
            prop_assert_eq!(got & !DIRTY, want);
        }
    }

    /// The pmem shadow is exact: bytes flushed are exactly the bytes that
    /// survive.
    #[test]
    fn shadow_tracks_flushed_lines_exactly(
        writes in proptest::collection::vec((0..512usize, any::<u64>(), any::<bool>()), 1..100)
    ) {
        let pool = crash_pool(4);
        let mut f = pool.flusher();
        let base = pool.heap_start();
        let mut expect: BTreeMap<usize, u64> = BTreeMap::new();
        for (slot, val, flush) in writes {
            let addr = base + slot * 8;
            pool.atomic_u64(addr).store(val, std::sync::atomic::Ordering::Relaxed);
            if flush {
                f.persist(addr, 8);
                // Flushing commits the whole cache line, including any
                // unflushed neighbours written earlier.
                let line = addr & !63;
                for neighbour in (line..line + 64).step_by(8) {
                    let v = pool
                        .atomic_u64(neighbour)
                        .load(std::sync::atomic::Ordering::Relaxed);
                    if v != 0 {
                        expect.insert(neighbour, v);
                    }
                }
                expect.insert(addr, val);
            }
        }
        // SAFETY: no threads running.
        unsafe { pool.simulate_crash().unwrap() };
        for (addr, want) in expect {
            let got = pool.atomic_u64(addr).load(std::sync::atomic::Ordering::Relaxed);
            prop_assert_eq!(got, want, "addr {:#x}", addr);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Heap geometry round-trips: `class_of` maps the whole (prev, size]
    /// interval to the class, every slot of every class fits inside its
    /// page, and `slot_addr`/`slot_index`/`page_of` invert each other.
    #[test]
    fn heap_geometry_round_trips(
        class in 0..nvram_logfree::nvalloc::N_CLASSES,
        slot_seed in any::<u64>(),
        page_idx in 1..512usize,
    ) {
        use nvram_logfree::nvalloc::{
            class_of, page_of, slots_in_class, PageHeader, BITMAP_WORDS, CLASSES, PAGE_SIZE,
        };
        let size = CLASSES[class];
        prop_assert_eq!(class_of(size), class);
        let prev = if class == 0 { 0 } else { CLASSES[class - 1] };
        prop_assert_eq!(class_of(prev + 1), class);
        let slots = slots_in_class(class);
        prop_assert!((1..=64 * BITMAP_WORDS).contains(&slots), "class {} has {} slots", class, slots);
        let page = page_idx * PAGE_SIZE;
        let i = (slot_seed as usize) % slots;
        let addr = PageHeader::slot_addr(page, class, i);
        prop_assert!(addr + size <= page + PAGE_SIZE, "slot {} overflows its page", i);
        prop_assert_eq!(page_of(addr), page);
        prop_assert_eq!(PageHeader::slot_index(addr, class), i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Allocator recovery invariant: run a random alloc/retire script,
    /// crash at a random persist-relevant event, recover — every
    /// durably-allocated slot is reclaimed (nothing is reachable).
    #[test]
    fn allocator_recovers_with_zero_leaks_at_random_cut(
        script in proptest::collection::vec((any::<bool>(), 0..4usize), 1..200),
        cut_seed in any::<u64>(),
    ) {
        use nvram_logfree::pmem::CrashPlan;
        let run = |pool: &Arc<PmemPool>, plan: &Arc<CrashPlan>| {
            let domain = NvDomain::create(Arc::clone(pool));
            pool.install_crash_plan(Arc::clone(plan));
            let mut ctx = domain.register();
            let sizes = [24usize, 100, 180, 250];
            let mut live: Vec<usize> = Vec::new();
            for &(is_alloc, class) in &script {
                ctx.begin_op();
                if is_alloc || live.is_empty() {
                    live.push(ctx.alloc(sizes[class]).unwrap());
                } else {
                    let a = live.swap_remove(live.len() / 2);
                    ctx.retire(a);
                }
                ctx.end_op();
            }
            drop(ctx);
            pool.clear_crash_plan();
        };
        let pool = crash_pool(8);
        let count = CrashPlan::new(|_, _| {});
        run(&pool, &count);
        let total = count.events();
        prop_assert!(total > 0);
        let k = cut_seed % (total + 1);

        let pool = crash_pool(8);
        let image = Arc::new(std::sync::Mutex::new(None));
        let plan = CrashPlan::new({
            let pool = Arc::clone(&pool);
            let image = Arc::clone(&image);
            move |i, _| {
                if i == k {
                    *image.lock().unwrap() = Some(pool.capture_crash_image().unwrap());
                }
            }
        });
        run(&pool, &plan);
        let img = image
            .lock()
            .unwrap()
            .take()
            .unwrap_or_else(|| pool.capture_crash_image().unwrap());
        // SAFETY: the script has finished; no other thread uses the pool.
        unsafe { pool.crash_to_image(&img).unwrap() };

        let domain = NvDomain::attach(Arc::clone(&pool));
        domain.recover_leaks(|_| false);
        prop_assert_eq!(domain.audit(&Default::default()), [],
            "crash at event {}/{} leaked slots", k, total);
    }
}
