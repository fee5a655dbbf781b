//! Edge-case tests for the memtier driver and NV-Memcached: empty store,
//! 100% miss workloads, set-over-existing-key upserts, and recovery of
//! the degenerate (empty / single-key) stores.

use std::sync::Arc;

use nvmemcached::memtier::{Request, RequestStream, Workload};
use nvmemcached::NvMemcached;
use pmem::{Mode, PoolBuilder};

#[test]
fn empty_store_serves_misses_and_deletes() {
    let pool = PoolBuilder::new(16 << 20).mode(Mode::Perf).build();
    let mc = NvMemcached::create(pool, 64, 1000, false).unwrap();
    let mut ctx = mc.register();
    assert!(mc.is_empty());
    for k in 1..=100u64 {
        assert_eq!(mc.get(&mut ctx, k), None, "get on empty store misses");
        assert_eq!(mc.delete(&mut ctx, k), None, "delete on empty store is a no-op");
    }
    assert!(mc.is_empty(), "misses and no-op deletes store nothing");
}

#[test]
fn empty_store_recovers_empty() {
    let pool = PoolBuilder::new(16 << 20).mode(Mode::CrashSim).build();
    {
        let _mc = NvMemcached::create(Arc::clone(&pool), 64, 1000, false).unwrap();
    }
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let (mc, report) = NvMemcached::recover(Arc::clone(&pool), 1000).unwrap();
    assert!(mc.is_empty(), "an empty store recovers empty");
    assert_eq!(report.leaks_freed, 0, "nothing was allocated, nothing leaks");
    // The recovered empty store keeps serving.
    let mut ctx = mc.register();
    mc.set(&mut ctx, 1, 10).unwrap();
    assert_eq!(mc.get(&mut ctx, 1), Some(10));
}

#[test]
fn pure_miss_workload_leaves_store_untouched() {
    // set_fraction 0.0 on an empty cache: every request is a missing get.
    let workload = Workload { set_fraction: 0.0, ..Workload::paper(1000, 99) };
    let pool = PoolBuilder::new(16 << 20).mode(Mode::Perf).build();
    let mc = NvMemcached::create(pool, 64, 10_000, false).unwrap();
    let mut ctx = mc.register();
    let mut requests = 0u64;
    for req in RequestStream::new(&workload, 0).take(10_000) {
        match req {
            Request::Get(k) => {
                assert_eq!(mc.get(&mut ctx, k), None, "100% miss workload");
            }
            Request::Set(..) => panic!("set_fraction 0.0 must generate no sets"),
        }
        requests += 1;
    }
    assert_eq!(requests, 10_000);
    assert!(mc.is_empty());
}

#[test]
fn set_fraction_one_generates_only_sets() {
    let workload = Workload { set_fraction: 1.0, ..Workload::paper(100, 5) };
    assert!(RequestStream::new(&workload, 1).take(5_000).all(|r| matches!(r, Request::Set(..))));
}

#[test]
fn single_key_range_stays_degenerate() {
    // key_range 1: every request hits the same key.
    let workload = Workload::paper(1, 3);
    for req in RequestStream::new(&workload, 2).take(2_000) {
        let k = match req {
            Request::Set(k, _) => k,
            Request::Get(k) => k,
        };
        assert_eq!(k, 1);
    }
    assert_eq!(workload.warmup_keys().collect::<Vec<_>>(), vec![1]);
}

#[test]
fn set_over_existing_key_replaces_and_keeps_count() {
    let pool = PoolBuilder::new(16 << 20).mode(Mode::Perf).build();
    let mc = NvMemcached::create(pool, 64, 1000, false).unwrap();
    let mut ctx = mc.register();
    for v in 0..50u64 {
        mc.set(&mut ctx, 7, v).unwrap();
        assert_eq!(mc.get(&mut ctx, 7), Some(v), "set replaces the stored value");
        assert_eq!(mc.len(), 1, "repeated sets of one key keep one item");
    }
}

#[test]
fn set_over_existing_key_survives_crash() {
    let pool = PoolBuilder::new(16 << 20).mode(Mode::CrashSim).build();
    {
        let mc = NvMemcached::create(Arc::clone(&pool), 64, 1000, false).unwrap();
        let mut ctx = mc.register();
        mc.set(&mut ctx, 7, 1).unwrap();
        mc.set(&mut ctx, 7, 2).unwrap();
        mc.set(&mut ctx, 7, 3).unwrap();
    }
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let (mc, _report) = NvMemcached::recover(Arc::clone(&pool), 1000).unwrap();
    let mut ctx = mc.register();
    assert_eq!(mc.get(&mut ctx, 7), Some(3), "last completed set wins");
    assert_eq!(mc.len(), 1, "replaced versions do not resurface");
}
