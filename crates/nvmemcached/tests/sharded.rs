//! Sharding acceptance tests: shard=1 behavioral equivalence with the
//! standalone cache, geometry validation at `recover`, and the parallel
//! per-shard recovery merge.

use std::sync::Arc;

use nvmemcached::memtier::{run_cache, Workload};
use nvmemcached::sharded::SHARD_GEOMETRY_ROOT;
use nvmemcached::{GeometryError, NvMemcached, ShardedNvMemcached};
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};

fn pools(n: usize, mode: Mode) -> Vec<Arc<PmemPool>> {
    (0..n)
        .map(|_| PoolBuilder::new(32 << 20).mode(mode).latency(LatencyModel::ZERO).build())
        .collect()
}

/// A single-shard cache must produce *exactly* the counters of a
/// standalone `NvMemcached` for the same seeded memtier run (same warm-up,
/// same request stream, single-threaded so outcomes are deterministic).
#[test]
fn shard1_memtier_counters_match_unsharded() {
    let wl = Workload::paper(2_000, 42);
    let ops = 30_000u64;

    let pool = pools(1, Mode::Perf);
    let unsharded = NvMemcached::create(Arc::clone(&pool[0]), 256, 1_000, false).unwrap();
    {
        let mut ctx = unsharded.register();
        for k in wl.warmup_keys() {
            unsharded.set(&mut ctx, k, k).unwrap();
        }
    }
    let r_unsharded = run_cache(&unsharded, 1, ops, wl);

    let pool = pools(1, Mode::Perf);
    let sharded = ShardedNvMemcached::create(&pool, 256, 1_000, false).unwrap();
    {
        let mut ctx = sharded.register();
        for k in wl.warmup_keys() {
            sharded.set(&mut ctx, k, k).unwrap();
        }
    }
    let r_sharded = run_cache(&sharded, 1, ops, wl);

    assert_eq!(r_sharded.requests, r_unsharded.requests);
    assert_eq!(r_sharded.sets, r_unsharded.sets, "set counts diverge");
    assert_eq!(r_sharded.hits, r_unsharded.hits, "hit counts diverge");
    assert_eq!(r_sharded.misses, r_unsharded.misses, "miss counts diverge");
    assert_eq!(sharded.len(), unsharded.len(), "item counts diverge");

    // The stored state is identical too, not just the counters.
    let mut a = sharded.snapshot();
    let mut b = unsharded.snapshot();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "stored key/value sets diverge");
}

#[test]
fn recover_rejects_wrong_pool_count() {
    let pools = pools(4, Mode::CrashSim);
    drop(ShardedNvMemcached::create(&pools, 64, 1_000, false).unwrap());
    for pool in &pools {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let err = ShardedNvMemcached::recover(&pools[..2], 1_000).unwrap_err();
    assert_eq!(err, GeometryError::ShardCount { position: 0, recorded: 4, given: 2 });
}

#[test]
fn recover_rejects_reordered_pools() {
    let mut pools = pools(2, Mode::CrashSim);
    drop(ShardedNvMemcached::create(&pools, 64, 1_000, false).unwrap());
    for pool in &pools {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    pools.swap(0, 1);
    let err = ShardedNvMemcached::recover(&pools, 1_000).unwrap_err();
    assert_eq!(err, GeometryError::ShardIndex { position: 0, recorded: 1 });
}

#[test]
fn recover_rejects_foreign_and_empty_pools() {
    assert_eq!(ShardedNvMemcached::recover(&[], 1_000).unwrap_err(), GeometryError::NoPools);
    // A pool that only ever held a standalone NvMemcached has no shard
    // geometry recorded.
    let pool = PoolBuilder::new(16 << 20).mode(Mode::CrashSim).build();
    drop(NvMemcached::create(Arc::clone(&pool), 64, 1_000, false).unwrap());
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };
    let err = ShardedNvMemcached::recover(&[pool], 1_000).unwrap_err();
    assert_eq!(err, GeometryError::NotSharded { position: 0 });
}

#[test]
fn recover_rejects_pools_mixed_from_two_caches() {
    // Two caches with the *same* (count, index) layout: a pool slice
    // mixing them must be refused, or recovery would serve a
    // frankenstein key space with no error.
    let pools_a = pools(2, Mode::CrashSim);
    let pools_b = pools(2, Mode::CrashSim);
    drop(ShardedNvMemcached::create(&pools_a, 64, 1_000, false).unwrap());
    drop(ShardedNvMemcached::create(&pools_b, 64, 1_000, false).unwrap());
    for pool in pools_a.iter().chain(&pools_b) {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let mixed = vec![Arc::clone(&pools_a[0]), Arc::clone(&pools_b[1])];
    let err = ShardedNvMemcached::recover(&mixed, 1_000).unwrap_err();
    assert!(
        matches!(err, GeometryError::CacheMismatch { position: 1, .. }),
        "mixed pools must be rejected, got {err:?}"
    );
}

#[test]
fn geometry_survives_crash_durably() {
    let pools = pools(2, Mode::CrashSim);
    drop(ShardedNvMemcached::create(&pools, 64, 1_000, false).unwrap());
    for pool in &pools {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
        assert_ne!(pool.root(SHARD_GEOMETRY_ROOT), 0, "geometry word lost by crash");
    }
    assert!(ShardedNvMemcached::validate_geometry(&pools).is_ok());
}

/// The merged report of a parallel recovery must equal the counter-wise
/// sum of recovering each shard on its own. Two identical single-threaded
/// runs over two pool sets make the comparison deterministic.
#[test]
fn parallel_recovery_merges_per_shard_reports() {
    let mk = || {
        let pools = pools(4, Mode::CrashSim);
        let mc = ShardedNvMemcached::create(&pools, 64, 100_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=300u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        for k in 1..=60u64 {
            mc.delete(&mut ctx, k);
        }
        drop(mc);
        for pool in &pools {
            // SAFETY: no threads are running.
            unsafe { pool.simulate_crash().unwrap() };
        }
        pools
    };

    let pools_a = mk();
    let (mc_a, merged) = ShardedNvMemcached::recover(&pools_a, 100_000).unwrap();

    let pools_b = mk();
    let mut summed = nvalloc::RecoveryReport::default();
    let mut len_b = 0usize;
    for pool in &pools_b {
        let (shard, report) = NvMemcached::recover(Arc::clone(pool), 25_000).unwrap();
        summed.merge(report);
        len_b += shard.len();
    }
    assert_eq!(merged, summed, "merged report != sum of per-shard reports");
    assert_eq!(mc_a.len(), len_b);
    assert_eq!(mc_a.len(), 240);
}
