//! Integration tests for the durable skip list and Natarajan–Mittal BST.

use std::collections::BTreeMap;
use std::sync::Arc;

use logfree::{Bst, LinkOps, SkipList};
use nvalloc::NvDomain;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
use rand::prelude::*;

const ROOT: usize = 2;

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
}

fn recover_skiplist(pool: &Arc<PmemPool>) -> (Arc<NvDomain>, SkipList) {
    let domain = NvDomain::attach(Arc::clone(pool));
    let (sl, _) = SkipList::restart(&domain, ROOT, LinkOps::new(Arc::clone(pool), None)).unwrap();
    (domain, sl)
}

fn recover_bst(pool: &Arc<PmemPool>) -> (Arc<NvDomain>, Bst) {
    let domain = NvDomain::attach(Arc::clone(pool));
    let (bst, _) = Bst::restart(&domain, ROOT, LinkOps::new(Arc::clone(pool), None)).unwrap();
    (domain, bst)
}

// ---------------------------------------------------------------------
// Skip list
// ---------------------------------------------------------------------

#[test]
fn skiplist_set_semantics() {
    let pool = crash_pool(8);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let sl =
        SkipList::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    assert!(sl.insert(&mut ctx, 10, 100).unwrap());
    assert!(!sl.insert(&mut ctx, 10, 101).unwrap());
    assert!(sl.insert(&mut ctx, 5, 50).unwrap());
    assert!(sl.insert(&mut ctx, 20, 200).unwrap());
    assert_eq!(sl.get(&mut ctx, 10), Some(100));
    assert_eq!(sl.get(&mut ctx, 11), None);
    assert_eq!(sl.remove(&mut ctx, 10), Some(100));
    assert_eq!(sl.remove(&mut ctx, 10), None);
    assert_eq!(sl.snapshot(), vec![(5, 50), (20, 200)]);
}

#[test]
fn skiplist_random_ops_match_oracle() {
    let pool = crash_pool(32);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let sl =
        SkipList::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..6000 {
        let k = rng.gen_range(1..400u64);
        match rng.gen_range(0..3) {
            0 => assert_eq!(
                sl.insert(&mut ctx, k, k * 3).unwrap(),
                oracle.insert(k, k * 3).is_none(),
                "insert({k})"
            ),
            1 => assert_eq!(sl.remove(&mut ctx, k), oracle.remove(&k), "remove({k})"),
            _ => assert_eq!(sl.get(&mut ctx, k), oracle.get(&k).copied(), "get({k})"),
        }
    }
    assert_eq!(sl.snapshot(), oracle.into_iter().collect::<Vec<_>>());
}

#[test]
fn skiplist_concurrent_disjoint_and_contended() {
    let pool = PoolBuilder::new(128 << 20).mode(Mode::Perf).build();
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx0 = domain.register();
    let sl =
        SkipList::create(&domain, &mut ctx0, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let domain = Arc::clone(&domain);
            let sl = &sl;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut rng = StdRng::seed_from_u64(t);
                // Disjoint range.
                let base = 10_000 + t * 1000;
                for i in 0..500 {
                    assert!(sl.insert(&mut ctx, base + i, t).unwrap());
                }
                for i in 0..500 {
                    assert_eq!(sl.get(&mut ctx, base + i), Some(t));
                }
                for i in (0..500).step_by(2) {
                    assert_eq!(sl.remove(&mut ctx, base + i), Some(t));
                }
                // Contended range.
                for _ in 0..1500 {
                    let k = rng.gen_range(1..64u64);
                    if rng.gen_bool(0.5) {
                        let _ = sl.insert(&mut ctx, k, t).unwrap();
                    } else {
                        let _ = sl.remove(&mut ctx, k);
                    }
                }
            });
        }
    });
    let snap = sl.snapshot();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted unique keys");
}

#[test]
fn skiplist_crash_recovery_rebuilds_index() {
    let pool = crash_pool(32);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let sl =
        SkipList::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..3000 {
        let k = rng.gen_range(1..300u64);
        if rng.gen_bool(0.6) {
            sl.insert(&mut ctx, k, k + 7).unwrap();
            oracle.insert(k, k + 7);
        } else {
            sl.remove(&mut ctx, k);
            oracle.remove(&k);
        }
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let (domain2, sl2) = recover_skiplist(&pool);
    assert_eq!(sl2.snapshot(), oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
    // The rebuilt index must actually work for searches and updates.
    let mut ctx = domain2.register();
    for (&k, &v) in &oracle {
        assert_eq!(sl2.get(&mut ctx, k), Some(v), "get({k}) after recovery");
    }
    assert!(sl2.insert(&mut ctx, 100_000, 1).unwrap());
    assert_eq!(sl2.remove(&mut ctx, 100_000), Some(1));
}

#[test]
fn skiplist_crash_image_checkpoints_match_oracle() {
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let sl =
        SkipList::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(9);
    let mut checkpoints = Vec::new();
    for i in 0..400 {
        let k = rng.gen_range(1..50u64);
        if rng.gen_bool(0.5) {
            sl.insert(&mut ctx, k, k).unwrap();
            oracle.insert(k, k);
        } else {
            sl.remove(&mut ctx, k);
            oracle.remove(&k);
        }
        if i % 53 == 0 {
            checkpoints.push((pool.capture_crash_image().unwrap(), oracle.clone()));
        }
    }
    drop(ctx);
    for (img, expect) in checkpoints {
        // SAFETY: no threads are running.
        unsafe { pool.crash_to_image(&img).unwrap() };
        let (_d, sl2) = recover_skiplist(&pool);
        assert_eq!(sl2.snapshot(), expect.into_iter().collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------
// BST
// ---------------------------------------------------------------------

#[test]
fn bst_set_semantics() {
    let pool = crash_pool(8);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let bst = Bst::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    assert!(bst.insert(&mut ctx, 50, 500).unwrap());
    assert!(!bst.insert(&mut ctx, 50, 501).unwrap());
    assert!(bst.insert(&mut ctx, 30, 300).unwrap());
    assert!(bst.insert(&mut ctx, 70, 700).unwrap());
    assert!(bst.insert(&mut ctx, 20, 200).unwrap());
    assert_eq!(bst.get(&mut ctx, 50), Some(500));
    assert_eq!(bst.get(&mut ctx, 51), None);
    assert_eq!(bst.remove(&mut ctx, 50), Some(500));
    assert_eq!(bst.remove(&mut ctx, 50), None);
    assert_eq!(bst.get(&mut ctx, 30), Some(300));
    assert_eq!(bst.snapshot(), vec![(20, 200), (30, 300), (70, 700)]);
}

#[test]
fn bst_random_ops_match_oracle() {
    let pool = crash_pool(32);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let bst = Bst::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(123);
    for _ in 0..6000 {
        let k = rng.gen_range(0..400u64);
        match rng.gen_range(0..3) {
            0 => assert_eq!(
                bst.insert(&mut ctx, k, k * 3).unwrap(),
                oracle.insert(k, k * 3).is_none(),
                "insert({k})"
            ),
            1 => assert_eq!(bst.remove(&mut ctx, k), oracle.remove(&k), "remove({k})"),
            _ => assert_eq!(bst.get(&mut ctx, k), oracle.get(&k).copied(), "get({k})"),
        }
    }
    assert_eq!(bst.snapshot(), oracle.into_iter().collect::<Vec<_>>());
}

#[test]
fn bst_concurrent_mixed_workload() {
    let pool = PoolBuilder::new(256 << 20).mode(Mode::Perf).build();
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx0 = domain.register();
    let bst = Bst::create(&domain, &mut ctx0, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let domain = Arc::clone(&domain);
            let bst = &bst;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut rng = StdRng::seed_from_u64(t + 40);
                // Disjoint range with full verification.
                let base = 100_000 + t * 1000;
                for i in 0..400 {
                    assert!(bst.insert(&mut ctx, base + i, t).unwrap());
                }
                for i in (0..400).step_by(2) {
                    assert_eq!(bst.remove(&mut ctx, base + i), Some(t));
                }
                for i in 0..400 {
                    let expect = (i % 2 == 1).then_some(t);
                    assert_eq!(bst.get(&mut ctx, base + i), expect);
                }
                // Contended small range.
                for _ in 0..2000 {
                    let k = rng.gen_range(0..48u64);
                    match rng.gen_range(0..3) {
                        0 => {
                            let _ = bst.insert(&mut ctx, k, t).unwrap();
                        }
                        1 => {
                            let _ = bst.remove(&mut ctx, k);
                        }
                        _ => {
                            let _ = bst.get(&mut ctx, k);
                        }
                    }
                }
            });
        }
    });
    let snap = bst.snapshot();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted unique keys");
}

#[test]
fn bst_crash_recovery_completes_flagged_deletions() {
    let pool = crash_pool(32);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let bst = Bst::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..4000 {
        let k = rng.gen_range(0..300u64);
        if rng.gen_bool(0.6) {
            bst.insert(&mut ctx, k, k + 9).unwrap();
            oracle.insert(k, k + 9);
        } else {
            bst.remove(&mut ctx, k);
            oracle.remove(&k);
        }
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let (domain2, bst2) = recover_bst(&pool);
    assert_eq!(bst2.snapshot(), oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
    let mut ctx = domain2.register();
    for (&k, &v) in &oracle {
        assert_eq!(bst2.get(&mut ctx, k), Some(v));
    }
    assert!(bst2.insert(&mut ctx, 999_999, 5).unwrap());
}

#[test]
fn bst_crash_image_checkpoints_match_oracle() {
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let bst = Bst::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(19);
    let mut checkpoints = Vec::new();
    for i in 0..400 {
        let k = rng.gen_range(0..60u64);
        if rng.gen_bool(0.5) {
            bst.insert(&mut ctx, k, k).unwrap();
            oracle.insert(k, k);
        } else {
            bst.remove(&mut ctx, k);
            oracle.remove(&k);
        }
        if i % 41 == 0 {
            checkpoints.push((pool.capture_crash_image().unwrap(), oracle.clone()));
        }
    }
    drop(ctx);
    for (img, expect) in checkpoints {
        // SAFETY: no threads are running.
        unsafe { pool.crash_to_image(&img).unwrap() };
        let (_d, bst2) = recover_bst(&pool);
        assert_eq!(bst2.snapshot(), expect.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn bst_leak_recovery_frees_unreachable_slots() {
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let bst = Bst::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    for k in 0..200u64 {
        bst.insert(&mut ctx, k, k).unwrap();
    }
    for k in (0..200u64).step_by(3) {
        bst.remove(&mut ctx, k);
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain2 = NvDomain::attach(Arc::clone(&pool));
    let (bst2, report) =
        Bst::restart(&domain2, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    assert!(report.heap.slots_scanned > 0);
    assert_eq!(report.live, bst2.snapshot().len());
    // The identity-search oracle freed exactly what the walk does not
    // reach: a slot it kept is allocated but unreached, a node it freed
    // is reached but not allocated.
    assert_eq!(logfree::audit(&domain2, |v| bst2.walk(v), |_| true), Vec::<String>::new());
}
