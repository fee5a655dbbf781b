//! Cross-crate integration tests: multiple structures sharing one pool,
//! concurrent torture with mid-run crash images for every structure, and
//! whole-stack recovery.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use nvram_logfree::prelude::*;
use rand::prelude::*;

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::CrashSim).build()
}

/// Per-thread journal of completed updates: `(key, Some(val))` for an
/// insert, `(key, None)` for a remove.
type CompletedLog = Mutex<Vec<(u64, Option<u64>)>>;

#[test]
fn two_structures_share_one_pool_and_recover_together() {
    let pool = crash_pool(64);
    let domain = NvDomain::create(Arc::clone(&pool));
    let ht = HashTable::create(&domain, 1, 64, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let ll = LinkedList::create(&domain, 2, LinkOps::new(Arc::clone(&pool), None));
    let mut ctx = domain.register();
    for k in 1..=200u64 {
        ht.insert(&mut ctx, k, k).unwrap();
        ll.insert(&mut ctx, k, k + 1).unwrap();
    }
    for k in (1..=200u64).step_by(2) {
        ht.remove(&mut ctx, k);
        ll.remove(&mut ctx, k);
    }
    drop(ctx);
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };

    let domain = NvDomain::attach(Arc::clone(&pool));
    let ht = HashTable::attach(&domain, 1, LinkOps::new(Arc::clone(&pool), None));
    let ll = LinkedList::attach(&domain, 2, LinkOps::new(Arc::clone(&pool), None));
    let mut f = pool.flusher();
    ht.recover(&mut f);
    ll.recover(&mut f);
    // One leak scan with a composed oracle covering both structures.
    let ll_reachable = ll.collect_reachable();
    domain.recover_leaks(|a| ht.contains_node_at(a) || ll_reachable.contains(&a));

    let mut ctx = domain.register();
    for k in 1..=200u64 {
        let expect_present = k % 2 == 0;
        assert_eq!(ht.get(&mut ctx, k).is_some(), expect_present, "ht key {k}");
        assert_eq!(ll.get(&mut ctx, k).is_some(), expect_present, "ll key {k}");
    }
}

/// Shared torture driver: concurrent disjoint-range updaters on any
/// structure, one crash image captured mid-run, full audit afterwards.
fn torture<D, R>(make: impl Fn(&Arc<NvDomain>, &Arc<PmemPool>) -> D, recover: R)
where
    D: Sync,
    D: TortureOps,
    R: Fn(&Arc<PmemPool>) -> (Arc<NvDomain>, Box<dyn FnMut(u64) -> Option<u64>>),
{
    const THREADS: u64 = 6;
    let pool = crash_pool(256);
    let domain = NvDomain::create(Arc::clone(&pool));
    let ds = make(&domain, &pool);
    let completed: Vec<CompletedLog> = (0..THREADS).map(|_| Mutex::new(Vec::new())).collect();
    let image: Mutex<Option<(Vec<u64>, Vec<usize>)>> = Mutex::new(None);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let domain = Arc::clone(&domain);
            let ds = &ds;
            let completed = &completed;
            s.spawn(move || {
                let mut ctx = domain.register();
                let base = 1 + t * 100_000;
                let mut rng = StdRng::seed_from_u64(t + 1);
                for _ in 0..4000 {
                    let k = base + rng.gen_range(0..400);
                    if rng.gen_bool(0.55) {
                        if ds.insert(&mut ctx, k, t + 1) {
                            completed[t as usize].lock().unwrap().push((k, Some(t + 1)));
                        }
                    } else if ds.remove(&mut ctx, k).is_some() {
                        completed[t as usize].lock().unwrap().push((k, None));
                    }
                }
            });
        }
        let pool2 = Arc::clone(&pool);
        let completed_ref = &completed;
        let image_ref = &image;
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(25));
            let horizon: Vec<usize> =
                completed_ref.iter().map(|v| v.lock().unwrap().len()).collect();
            let img = pool2.capture_crash_image().unwrap();
            *image_ref.lock().unwrap() = Some((img, horizon));
        });
    });
    drop(ds);

    let (img, horizon) = image.lock().unwrap().take().expect("image captured");
    // SAFETY: workers joined.
    unsafe { pool.crash_to_image(&img).unwrap() };
    let (_domain2, mut lookup) = recover(&pool);

    for t in 0..THREADS as usize {
        let log = completed[t].lock().unwrap();
        let mut expect: HashMap<u64, Option<u64>> = HashMap::new();
        for &(k, v) in &log[..horizon[t]] {
            expect.insert(k, v);
        }
        let mut exempt: HashSet<u64> = HashSet::new();
        for &(k, _) in &log[horizon[t]..] {
            exempt.insert(k);
        }
        for (k, want) in expect {
            if exempt.contains(&k) {
                continue;
            }
            assert_eq!(lookup(k), want, "thread {t} key {k}");
        }
    }
}

/// Minimal op interface for the torture driver.
trait TortureOps {
    fn insert(&self, ctx: &mut ThreadCtx, k: u64, v: u64) -> bool;
    fn remove(&self, ctx: &mut ThreadCtx, k: u64) -> Option<u64>;
}

macro_rules! impl_torture {
    ($t:ty) => {
        impl TortureOps for $t {
            fn insert(&self, ctx: &mut ThreadCtx, k: u64, v: u64) -> bool {
                <$t>::insert(self, ctx, k, v).expect("pool sized")
            }
            fn remove(&self, ctx: &mut ThreadCtx, k: u64) -> Option<u64> {
                <$t>::remove(self, ctx, k)
            }
        }
    };
}

impl_torture!(HashTable);
impl_torture!(LinkedList);
impl_torture!(SkipList);
impl_torture!(Bst);

#[test]
fn torture_hash_table() {
    torture(
        |domain, pool| {
            HashTable::create(domain, 1, 4096, LinkOps::new(Arc::clone(pool), None)).unwrap()
        },
        |pool| {
            let domain = NvDomain::attach(Arc::clone(pool));
            let ht = HashTable::attach(&domain, 1, LinkOps::new(Arc::clone(pool), None));
            let mut f = pool.flusher();
            ht.recover(&mut f);
            domain.recover_leaks(|a| ht.contains_node_at(a));
            let snap: HashMap<u64, u64> = ht.snapshot().into_iter().collect();
            (domain, Box::new(move |k| snap.get(&k).copied()))
        },
    );
}

#[test]
fn torture_skip_list() {
    torture(
        |domain, pool| {
            let mut ctx = domain.register();
            SkipList::create(domain, &mut ctx, 1, LinkOps::new(Arc::clone(pool), None)).unwrap()
        },
        |pool| {
            let domain = NvDomain::attach(Arc::clone(pool));
            let sl = SkipList::attach(&domain, 1, LinkOps::new(Arc::clone(pool), None));
            let mut f = pool.flusher();
            sl.recover(&mut f);
            domain.recover_leaks(|a| sl.contains_node_at(a));
            let snap: HashMap<u64, u64> = sl.snapshot().into_iter().collect();
            (domain, Box::new(move |k| snap.get(&k).copied()))
        },
    );
}

#[test]
fn torture_bst() {
    torture(
        |domain, pool| {
            let mut ctx = domain.register();
            Bst::create(domain, &mut ctx, 1, LinkOps::new(Arc::clone(pool), None)).unwrap()
        },
        |pool| {
            let domain = NvDomain::attach(Arc::clone(pool));
            let bst = Bst::attach(&domain, 1, LinkOps::new(Arc::clone(pool), None));
            let mut f = pool.flusher();
            bst.recover(&mut f);
            domain.recover_leaks(|a| bst.contains_node_at(a));
            let snap: HashMap<u64, u64> = bst.snapshot().into_iter().collect();
            (domain, Box::new(move |k| snap.get(&k).copied()))
        },
    );
}

#[test]
fn torture_linked_list() {
    torture(
        |domain, pool| LinkedList::create(domain, 1, LinkOps::new(Arc::clone(pool), None)),
        |pool| {
            let domain = NvDomain::attach(Arc::clone(pool));
            let ll = LinkedList::attach(&domain, 1, LinkOps::new(Arc::clone(pool), None));
            let mut f = pool.flusher();
            ll.recover(&mut f);
            let reachable = ll.collect_reachable();
            domain.recover_leaks(|a| reachable.contains(&a));
            let snap: HashMap<u64, u64> = ll.snapshot().into_iter().collect();
            (domain, Box::new(move |k| snap.get(&k).copied()))
        },
    );
}

#[test]
fn repeated_crashes_accumulate_no_corruption() {
    // Crash, recover, keep working, crash again — five times over.
    let pool = crash_pool(64);
    let mut oracle = BTreeMap::new();
    {
        let domain = NvDomain::create(Arc::clone(&pool));
        let _ = HashTable::create(&domain, 1, 256, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..5 {
        let domain = NvDomain::attach(Arc::clone(&pool));
        let ht = HashTable::attach(&domain, 1, LinkOps::new(Arc::clone(&pool), None));
        let mut f = pool.flusher();
        ht.recover(&mut f);
        domain.recover_leaks(|a| ht.contains_node_at(a));
        let mut snap = ht.snapshot();
        snap.sort_unstable();
        assert_eq!(
            snap,
            oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
            "state after crash {round}"
        );
        let mut ctx = domain.register();
        for _ in 0..500 {
            let k = rng.gen_range(1..300u64);
            if rng.gen_bool(0.6) {
                let ours = ht.insert(&mut ctx, k, round).unwrap();
                assert_eq!(ours, !oracle.contains_key(&k));
                if ours {
                    // Set semantics: a failed insert does not overwrite.
                    oracle.insert(k, round);
                }
            } else {
                assert_eq!(ht.remove(&mut ctx, k), oracle.remove(&k));
            }
        }
        drop(ctx);
        // SAFETY: no threads running.
        unsafe { pool.simulate_crash().unwrap() };
    }
}

#[test]
fn link_cache_quiesce_then_crash_loses_nothing() {
    let pool = crash_pool(64);
    let domain = NvDomain::create(Arc::clone(&pool));
    let lc = Arc::new(LinkCache::with_default_size(
        Arc::clone(&pool),
        nvram_logfree::logfree::marked::DIRTY,
    ));
    let ht = HashTable::create(&domain, 1, 256, LinkOps::new(Arc::clone(&pool), Some(lc))).unwrap();
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(123);
    for _ in 0..3000 {
        let k = rng.gen_range(1..400u64);
        if rng.gen_bool(0.5) {
            ht.insert(&mut ctx, k, k).unwrap();
            oracle.insert(k, k);
        } else {
            ht.remove(&mut ctx, k);
            oracle.remove(&k);
        }
    }
    ht.ops().flush_link_cache(&mut ctx.flusher);
    drop(ctx);
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain = NvDomain::attach(Arc::clone(&pool));
    let ht = HashTable::attach(&domain, 1, LinkOps::new(Arc::clone(&pool), None));
    let mut f = pool.flusher();
    ht.recover(&mut f);
    domain.recover_leaks(|a| ht.contains_node_at(a));
    let mut snap = ht.snapshot();
    snap.sort_unstable();
    assert_eq!(snap, oracle.into_iter().collect::<Vec<_>>());
}
