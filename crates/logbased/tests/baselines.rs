//! Integration tests for the log-based baseline structures: semantics,
//! concurrency, and crash recovery via redo-log replay.

use std::collections::BTreeMap;
use std::sync::Arc;

use logbased::{BstTk, LazyHashTable, LazyList, LockSkipList, LogDirectory};
use nvalloc::{MemMode, NvDomain};
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
use rand::prelude::*;

const LOG_ROOT: usize = 0;
const DS_ROOT: usize = 1;

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
}

#[test]
fn lazylist_oracle_and_crash() {
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let dir = LogDirectory::create(&domain, LOG_ROOT).unwrap();
    let mut ctx = domain.register();
    ctx.set_mem_mode(MemMode::IntentLog);
    let mut log = dir.open(ctx.tid());
    let list = LazyList::create(&domain, &mut ctx, DS_ROOT).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..3000 {
        let k = rng.gen_range(1..150u64);
        match rng.gen_range(0..3) {
            0 => assert_eq!(
                list.insert(&mut ctx, &mut log, k, k * 2).unwrap(),
                oracle.insert(k, k * 2).is_none()
            ),
            1 => assert_eq!(list.remove(&mut ctx, &mut log, k), oracle.remove(&k)),
            _ => assert_eq!(list.get(&mut ctx, k), oracle.get(&k).copied()),
        }
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain2 = NvDomain::attach(Arc::clone(&pool));
    let dir2 = LogDirectory::attach(&domain2, LOG_ROOT);
    let mut f = pool.flusher();
    dir2.replay_all(&mut f);
    let list2 = LazyList::attach(&domain2, DS_ROOT);
    list2.recover(&mut f);
    let reachable = list2.collect_reachable();
    domain2.recover_leaks(|a| reachable.contains(&a));
    assert_eq!(list2.snapshot(), oracle.into_iter().collect::<Vec<_>>());
}

#[test]
fn lazylist_concurrent() {
    let pool = PoolBuilder::new(64 << 20).mode(Mode::Perf).build();
    let domain = NvDomain::create(Arc::clone(&pool));
    let dir = LogDirectory::create(&domain, LOG_ROOT).unwrap();
    let mut ctx0 = domain.register();
    let list = LazyList::create(&domain, &mut ctx0, DS_ROOT).unwrap();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let domain = Arc::clone(&domain);
            let dir = &dir;
            let list = &list;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut log = dir.open(ctx.tid());
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..1500 {
                    let k = rng.gen_range(1..64u64);
                    match rng.gen_range(0..3) {
                        0 => {
                            let _ = list.insert(&mut ctx, &mut log, k, t).unwrap();
                        }
                        1 => {
                            let _ = list.remove(&mut ctx, &mut log, k);
                        }
                        _ => {
                            let _ = list.get(&mut ctx, k);
                        }
                    }
                }
            });
        }
    });
    let snap = list.snapshot();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn lazyhash_oracle_and_crash() {
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let dir = LogDirectory::create(&domain, LOG_ROOT).unwrap();
    let mut ctx = domain.register();
    let mut log = dir.open(ctx.tid());
    let ht = LazyHashTable::create(&domain, &mut ctx, DS_ROOT, 32).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..3000 {
        let k = rng.gen_range(1..400u64);
        match rng.gen_range(0..3) {
            0 => assert_eq!(
                ht.insert(&mut ctx, &mut log, k, k).unwrap(),
                oracle.insert(k, k).is_none()
            ),
            1 => assert_eq!(ht.remove(&mut ctx, &mut log, k), oracle.remove(&k)),
            _ => assert_eq!(ht.get(&mut ctx, k), oracle.get(&k).copied()),
        }
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain2 = NvDomain::attach(Arc::clone(&pool));
    let dir2 = LogDirectory::attach(&domain2, LOG_ROOT);
    let mut f = pool.flusher();
    dir2.replay_all(&mut f);
    let ht2 = LazyHashTable::attach(&domain2, DS_ROOT);
    ht2.recover(&mut f);
    let reachable = ht2.collect_reachable();
    domain2.recover_leaks(|a| reachable.contains(&a));
    let mut snap = ht2.snapshot();
    snap.sort_unstable();
    assert_eq!(snap, oracle.into_iter().collect::<Vec<_>>());
}

#[test]
fn lockskip_oracle_and_crash() {
    let pool = crash_pool(32);
    let domain = NvDomain::create(Arc::clone(&pool));
    let dir = LogDirectory::create(&domain, LOG_ROOT).unwrap();
    let mut ctx = domain.register();
    let mut log = dir.open(ctx.tid());
    let sl = LockSkipList::create(&domain, &mut ctx, DS_ROOT).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..4000 {
        let k = rng.gen_range(1..250u64);
        match rng.gen_range(0..3) {
            0 => assert_eq!(
                sl.insert(&mut ctx, &mut log, k, k + 5).unwrap(),
                oracle.insert(k, k + 5).is_none(),
                "insert({k})"
            ),
            1 => assert_eq!(sl.remove(&mut ctx, &mut log, k), oracle.remove(&k), "remove({k})"),
            _ => assert_eq!(sl.get(&mut ctx, k), oracle.get(&k).copied(), "get({k})"),
        }
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain2 = NvDomain::attach(Arc::clone(&pool));
    let dir2 = LogDirectory::attach(&domain2, LOG_ROOT);
    let mut f = pool.flusher();
    dir2.replay_all(&mut f);
    let sl2 = LockSkipList::attach(&domain2, DS_ROOT);
    sl2.recover(&mut f);
    let reachable = sl2.collect_reachable();
    domain2.recover_leaks(|a| reachable.contains(&a));
    assert_eq!(sl2.snapshot(), oracle.into_iter().collect::<Vec<_>>());
}

#[test]
fn lockskip_concurrent() {
    let pool = PoolBuilder::new(128 << 20).mode(Mode::Perf).build();
    let domain = NvDomain::create(Arc::clone(&pool));
    let dir = LogDirectory::create(&domain, LOG_ROOT).unwrap();
    let mut ctx0 = domain.register();
    let sl = LockSkipList::create(&domain, &mut ctx0, DS_ROOT).unwrap();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let domain = Arc::clone(&domain);
            let dir = &dir;
            let sl = &sl;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut log = dir.open(ctx.tid());
                let mut rng = StdRng::seed_from_u64(t + 9);
                let base = 1000 + t * 500;
                for i in 0..300 {
                    assert!(sl.insert(&mut ctx, &mut log, base + i, t).unwrap());
                }
                for i in (0..300).step_by(2) {
                    assert_eq!(sl.remove(&mut ctx, &mut log, base + i), Some(t));
                }
                for _ in 0..1000 {
                    let k = rng.gen_range(1..48u64);
                    if rng.gen_bool(0.5) {
                        let _ = sl.insert(&mut ctx, &mut log, k, t).unwrap();
                    } else {
                        let _ = sl.remove(&mut ctx, &mut log, k);
                    }
                }
            });
        }
    });
    let snap = sl.snapshot();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn bsttk_oracle_and_crash() {
    let pool = crash_pool(32);
    let domain = NvDomain::create(Arc::clone(&pool));
    let dir = LogDirectory::create(&domain, LOG_ROOT).unwrap();
    let mut ctx = domain.register();
    let mut log = dir.open(ctx.tid());
    let bst = BstTk::create(&domain, &mut ctx, DS_ROOT).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..4000 {
        let k = rng.gen_range(0..250u64);
        match rng.gen_range(0..3) {
            0 => assert_eq!(
                bst.insert(&mut ctx, &mut log, k, k + 5).unwrap(),
                oracle.insert(k, k + 5).is_none()
            ),
            1 => assert_eq!(bst.remove(&mut ctx, &mut log, k), oracle.remove(&k)),
            _ => assert_eq!(bst.get(&mut ctx, k), oracle.get(&k).copied()),
        }
    }
    drop(ctx);
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain2 = NvDomain::attach(Arc::clone(&pool));
    let dir2 = LogDirectory::attach(&domain2, LOG_ROOT);
    let mut f = pool.flusher();
    dir2.replay_all(&mut f);
    let bst2 = BstTk::attach(&domain2, DS_ROOT);
    bst2.recover(&mut f);
    let reachable = bst2.collect_reachable();
    domain2.recover_leaks(|a| reachable.contains(&a));
    assert_eq!(bst2.snapshot(), oracle.into_iter().collect::<Vec<_>>());
}

#[test]
fn bsttk_concurrent() {
    let pool = PoolBuilder::new(128 << 20).mode(Mode::Perf).build();
    let domain = NvDomain::create(Arc::clone(&pool));
    let dir = LogDirectory::create(&domain, LOG_ROOT).unwrap();
    let mut ctx0 = domain.register();
    let bst = BstTk::create(&domain, &mut ctx0, DS_ROOT).unwrap();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let domain = Arc::clone(&domain);
            let dir = &dir;
            let bst = &bst;
            s.spawn(move || {
                let mut ctx = domain.register();
                let mut log = dir.open(ctx.tid());
                let mut rng = StdRng::seed_from_u64(t + 77);
                for _ in 0..2000 {
                    let k = rng.gen_range(0..64u64);
                    match rng.gen_range(0..3) {
                        0 => {
                            let _ = bst.insert(&mut ctx, &mut log, k, t).unwrap();
                        }
                        1 => {
                            let _ = bst.remove(&mut ctx, &mut log, k);
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
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn crash_image_checkpoints_lazylist() {
    // Durable linearizability for the baseline too: every completed op
    // must be visible after replay + recovery.
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let dir = LogDirectory::create(&domain, LOG_ROOT).unwrap();
    let mut ctx = domain.register();
    let mut log = dir.open(ctx.tid());
    let list = LazyList::create(&domain, &mut ctx, DS_ROOT).unwrap();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(5);
    let mut checkpoints = Vec::new();
    for i in 0..300 {
        let k = rng.gen_range(1..40u64);
        if rng.gen_bool(0.5) {
            list.insert(&mut ctx, &mut log, k, k).unwrap();
            oracle.insert(k, k);
        } else {
            list.remove(&mut ctx, &mut log, k);
            oracle.remove(&k);
        }
        if i % 43 == 0 {
            checkpoints.push((pool.capture_crash_image().unwrap(), oracle.clone()));
        }
    }
    drop(ctx);
    for (img, expect) in checkpoints {
        // SAFETY: no threads are running.
        unsafe { pool.crash_to_image(&img).unwrap() };
        let domain2 = NvDomain::attach(Arc::clone(&pool));
        let dir2 = LogDirectory::attach(&domain2, LOG_ROOT);
        let mut f = pool.flusher();
        dir2.replay_all(&mut f);
        let list2 = LazyList::attach(&domain2, DS_ROOT);
        list2.recover(&mut f);
        assert_eq!(list2.snapshot(), expect.into_iter().collect::<Vec<_>>());
    }
}
