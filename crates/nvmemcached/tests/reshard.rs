//! Live-reshard acceptance tests: data survival under concurrent
//! traffic, shrink as well as grow, mid-reshard crash roll-forward, and
//! the topology-validation error surface.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use nvmemcached::sharded::SHARD_GEOMETRY_ROOT;
use nvmemcached::{GeometryError, ReshardError, ShardedNvMemcached, RESHARD_STATE_ROOT};
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};

fn pools(n: usize, mode: Mode) -> Vec<Arc<PmemPool>> {
    (0..n)
        .map(|_| PoolBuilder::new(32 << 20).mode(mode).latency(LatencyModel::ZERO).build())
        .collect()
}

#[test]
fn blocking_reshard_preserves_all_data_and_bumps_version() {
    let old = pools(2, Mode::Perf);
    let new = pools(4, Mode::Perf);
    let mc = ShardedNvMemcached::create(&old, 64, 1_000_000, false).unwrap();
    let mut ctx = mc.register();
    for k in 1..=2_000u64 {
        mc.set(&mut ctx, k, k * 7).unwrap();
    }
    for k in 1..=200u64 {
        mc.delete(&mut ctx, k);
    }
    assert_eq!(mc.version(), 1);

    let stats = mc.reshard(&new, 64).unwrap();
    assert_eq!((stats.from, stats.to, stats.version), (2, 4, 2));
    assert_eq!(stats.keys_moved, 1_800, "every surviving key was migrated by the driver");
    assert_eq!(mc.n_shards(), 4);
    assert_eq!(mc.version(), 2);
    assert!(!mc.reshard_in_flight());

    // A context registered before the reshard keeps working (it
    // re-registers transparently on its next operation).
    for k in 1..=200u64 {
        assert_eq!(mc.get(&mut ctx, k), None, "deleted key {k} stayed deleted");
    }
    for k in 201..=2_000u64 {
        assert_eq!(mc.get(&mut ctx, k), Some(k * 7), "key {k} survived the reshard");
    }
    assert_eq!(mc.len(), 1_800);

    // Routing containment in the new topology.
    for (i, shard) in mc.shards().iter().enumerate() {
        for (k, _) in shard.snapshot() {
            assert_eq!(mc.shard_of(k), i, "key {k} stored in wrong shard {i}");
        }
    }
    // The old pools are drained husks: every key left them.
    let drained: usize = old
        .iter()
        .map(|p| nvmemcached::NvMemcached::recover(Arc::clone(p), 1_000_000).unwrap().0.len())
        .sum();
    assert_eq!(drained, 0, "old shards fully drained");
}

#[test]
fn reshard_shrinks_as_well_as_grows() {
    let old = pools(4, Mode::Perf);
    let new = pools(2, Mode::Perf);
    let mc = ShardedNvMemcached::create(&old, 64, 1_000_000, false).unwrap();
    let mut ctx = mc.register();
    for k in 1..=1_000u64 {
        mc.set(&mut ctx, k, k).unwrap();
    }
    let stats = mc.reshard(&new, 64).unwrap();
    assert_eq!((stats.from, stats.to), (4, 2));
    assert_eq!(mc.n_shards(), 2);
    for k in 1..=1_000u64 {
        assert_eq!(mc.get(&mut ctx, k), Some(k), "key {k} survived the shrink");
    }
}

/// Workers hammer disjoint key ranges while the main thread runs the
/// 2→4 reshard; every acknowledged final value must be served afterwards
/// — the volatile-side half of the "zero lost acknowledged writes"
/// criterion (the durable half is the crashtest enumeration).
#[test]
fn live_reshard_under_concurrent_traffic_loses_nothing() {
    const THREADS: u64 = 4;
    const KEYS_PER_THREAD: u64 = 400;
    const ROUNDS: u64 = 30;

    let old = pools(2, Mode::Perf);
    let new = pools(4, Mode::Perf);
    let mc = Arc::new(ShardedNvMemcached::create(&old, 64, 4_000_000, false).unwrap());
    let start = Arc::new(Barrier::new(THREADS as usize + 1));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let mc = Arc::clone(&mc);
            let start = Arc::clone(&start);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut ctx = mc.register();
                let base = 1 + t * KEYS_PER_THREAD;
                start.wait();
                let mut round = 0u64;
                // Keep rewriting until the reshard completes, then one
                // final deterministic round so the expected state is
                // known.
                while !stop.load(Ordering::Acquire) || round < ROUNDS {
                    for k in base..base + KEYS_PER_THREAD {
                        mc.set(&mut ctx, k, k * 1000 + round).unwrap();
                        assert_eq!(
                            mc.get(&mut ctx, k),
                            Some(k * 1000 + round),
                            "own write visible mid-reshard"
                        );
                        if k % 7 == 0 {
                            mc.delete(&mut ctx, k);
                        }
                    }
                    round += 1;
                }
                // Final acknowledged state: value for the last round.
                let last = round - 1;
                for k in base..base + KEYS_PER_THREAD {
                    if k % 7 == 0 {
                        assert_eq!(mc.delete(&mut ctx, k), None, "key {k} was deleted");
                    } else {
                        mc.set(&mut ctx, k, k * 1000 + last).unwrap();
                    }
                }
                last
            });
        }
        start.wait();
        let stats = mc.reshard(&new, 64).unwrap();
        assert_eq!((stats.from, stats.to, stats.version), (2, 4, 2));
        stop.store(true, Ordering::Release);
    });

    // Every thread ran at least ROUNDS rounds; the final state is
    // deterministic per key.
    assert_eq!(mc.n_shards(), 4);
    let mut ctx = mc.register();
    let mut live = 0usize;
    for t in 0..THREADS {
        let base = 1 + t * KEYS_PER_THREAD;
        for k in base..base + KEYS_PER_THREAD {
            let got = mc.get(&mut ctx, k);
            if k % 7 == 0 {
                assert_eq!(got, None, "deleted key {k} resurrected");
            } else {
                let v = got.unwrap_or_else(|| panic!("acknowledged key {k} lost"));
                assert!(v % 1000 >= ROUNDS - 1, "key {k} serves a pre-final round: {v}");
                assert_eq!(v / 1000, k, "key {k} serves a foreign value {v}");
                live += 1;
            }
        }
    }
    assert_eq!(mc.len(), live);
    for (i, shard) in mc.shards().iter().enumerate() {
        for (k, _) in shard.snapshot() {
            assert_eq!(mc.shard_of(k), i, "key {k} stored in wrong shard {i}");
        }
    }
}

#[test]
fn stepwise_reshard_reports_progress() {
    let old = pools(3, Mode::Perf);
    let new = pools(2, Mode::Perf);
    let mc = ShardedNvMemcached::create(&old, 64, 100_000, false).unwrap();
    let mut ctx = mc.register();
    for k in 1..=300u64 {
        mc.set(&mut ctx, k, k).unwrap();
    }
    mc.reshard_start(&new, 64).unwrap();
    assert!(mc.reshard_in_flight());
    let s = mc.topology_stats();
    assert_eq!(s.version, 1, "still serving the old version mid-flight");
    let p = s.reshard.expect("in flight");
    assert_eq!((p.from, p.to, p.cursor, p.version), (3, 2, 0, 2));

    assert!(!mc.reshard_step().unwrap(), "one drained shard of three");
    let p = mc.topology_stats().reshard.expect("still in flight");
    assert_eq!(p.cursor, 1);
    // Serving throughout.
    for k in 1..=300u64 {
        assert_eq!(mc.get(&mut ctx, k), Some(k));
    }
    assert!(!mc.reshard_step().unwrap());
    assert!(mc.reshard_step().unwrap(), "third step finishes");
    assert!(mc.reshard_step().unwrap(), "idempotent once complete");
    assert_eq!(mc.topology_stats().reshard, None);
    assert_eq!(mc.version(), 2);
    for k in 1..=300u64 {
        assert_eq!(mc.get(&mut ctx, k), Some(k));
    }
}

#[test]
fn crash_mid_reshard_rolls_forward_to_the_new_version() {
    let old = pools(2, Mode::CrashSim);
    let new = pools(4, Mode::CrashSim);
    {
        let mc = ShardedNvMemcached::create(&old, 64, 100_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=500u64 {
            mc.set(&mut ctx, k, k * 3).unwrap();
        }
        mc.reshard_start(&new, 64).unwrap();
        // Drain exactly one of the two old shards, then "power fails".
        assert!(!mc.reshard_step().unwrap());
        // Mid-flight writes land wherever the routing epoch says.
        for k in 501..=600u64 {
            mc.set(&mut ctx, k, k * 3).unwrap();
        }
    }
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    for pool in &all {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }

    let (mc2, _report) = ShardedNvMemcached::recover(&all, 100_000).unwrap();
    assert_eq!(mc2.version(), 2, "rolled forward to a single consistent version");
    assert_eq!(mc2.n_shards(), 4);
    assert!(!mc2.reshard_in_flight());
    let mut ctx = mc2.register();
    for k in 1..=600u64 {
        assert_eq!(mc2.get(&mut ctx, k), Some(k * 3), "key {k} survived crash mid-reshard");
    }
    for (i, shard) in mc2.shards().iter().enumerate() {
        for (k, _) in shard.snapshot() {
            assert_eq!(mc2.shard_of(k), i, "key {k} recovered into wrong shard {i}");
        }
    }
    // The recovered cache can reshard again (version 3).
    let newer = pools(2, Mode::CrashSim);
    let stats = mc2.reshard(&newer, 64).unwrap();
    assert_eq!((stats.from, stats.to, stats.version), (4, 2, 3));
}

#[test]
fn crash_before_any_step_rolls_the_whole_migration_forward() {
    let old = pools(2, Mode::CrashSim);
    let new = pools(4, Mode::CrashSim);
    {
        let mc = ShardedNvMemcached::create(&old, 64, 100_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=300u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        mc.reshard_start(&new, 64).unwrap();
        // Crash with the commit durable but the cursor still at 0.
    }
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    for pool in &all {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let (mc2, _) = ShardedNvMemcached::recover(&all, 100_000).unwrap();
    assert_eq!((mc2.version(), mc2.n_shards()), (2, 4));
    let mut ctx = mc2.register();
    for k in 1..=300u64 {
        assert_eq!(mc2.get(&mut ctx, k), Some(k));
    }
}

#[test]
fn recover_after_completed_reshard_accepts_old_and_new_together() {
    // A crash right after completion, before the operator discards the
    // old pools: both groups are on disk, the cursor reads "complete",
    // and the roll-forward is a no-op.
    let old = pools(2, Mode::CrashSim);
    let new = pools(4, Mode::CrashSim);
    {
        let mc = ShardedNvMemcached::create(&old, 64, 100_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=400u64 {
            mc.set(&mut ctx, k, k + 9).unwrap();
        }
        mc.reshard(&new, 64).unwrap();
    }
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    for pool in &all {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let (mc2, _) = ShardedNvMemcached::recover(&all, 100_000).unwrap();
    assert_eq!((mc2.version(), mc2.n_shards()), (2, 4));
    let mut ctx = mc2.register();
    for k in 1..=400u64 {
        assert_eq!(mc2.get(&mut ctx, k), Some(k + 9));
    }

    // The new pools alone also recover (the normal post-retirement open).
    for pool in &new {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let (mc3, _) = ShardedNvMemcached::recover(&new, 100_000).unwrap();
    assert_eq!((mc3.version(), mc3.n_shards()), (2, 4));
    assert_eq!(mc3.len(), 400);
}

#[test]
fn old_pools_alone_after_a_committed_reshard_are_rejected() {
    let old = pools(2, Mode::CrashSim);
    let new = pools(4, Mode::CrashSim);
    {
        let mc = ShardedNvMemcached::create(&old, 64, 100_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=100u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        mc.reshard_start(&new, 64).unwrap();
    }
    for pool in &old {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    // The commit record promises data may live in the (absent) new
    // pools; serving the old group alone could lose migrated keys.
    let err = ShardedNvMemcached::recover(&old, 100_000).unwrap_err();
    assert_eq!(err, GeometryError::MissingShards { version: 2, expected: 4 });
}

#[test]
fn uncommitted_new_pools_are_rejected_and_old_group_serves() {
    let old = pools(2, Mode::CrashSim);
    let new = pools(4, Mode::CrashSim);
    {
        let mc = ShardedNvMemcached::create(&old, 64, 100_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=100u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        mc.reshard_start(&new, 64).unwrap();
    }
    // Forge the uncommitted image: new pools formatted, commit record
    // never durable (the crash enumeration hits this window too; the
    // fixture pins it deterministically).
    {
        let mut flusher = old[0].flusher();
        old[0].set_root(RESHARD_STATE_ROOT, 0, &mut flusher);
    }
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    for pool in &all {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let err = ShardedNvMemcached::recover(&all, 100_000).unwrap_err();
    assert_eq!(err, GeometryError::Uncommitted { version: 2 });
    // The old group alone is the authoritative cache.
    let (mc2, _) = ShardedNvMemcached::recover(&old, 100_000).unwrap();
    assert_eq!((mc2.version(), mc2.n_shards()), (1, 2));
    assert_eq!(mc2.len(), 100);
}

#[test]
fn roll_forward_into_full_target_pools_is_an_error() {
    const KEYS: u64 = 16_000;
    let old = pools(2, Mode::CrashSim);
    // Room for the target shards' formatting and fewer than 3 000 keys
    // each. Old shard 0 drains into targets 0 and 2 only (both routes
    // are the same mix mod 2 and mod 4), 4 000 keys apiece.
    let new: Vec<Arc<PmemPool>> = (0..4)
        .map(|_| {
            PoolBuilder::new(768 << 10).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect();
    {
        let mc = ShardedNvMemcached::create(&old, 64, 1_000_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=KEYS {
            mc.set(&mut ctx, k, k).unwrap();
        }
        mc.reshard_start(&new, 64).unwrap();
        // Crash with the commit durable but the cursor still at 0.
    }
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    for pool in &all {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let err = ShardedNvMemcached::recover(&all, 1_000_000).unwrap_err();
    assert_eq!(err, GeometryError::TargetFull { old_shard: 0 });
    // The durable cursor still says no old shard finished draining.
    let cursor = (old[0].root(RESHARD_STATE_ROOT) >> 16) & 0xFFFF;
    assert_eq!(cursor, 0);
}

#[test]
fn reshard_error_surface() {
    let old = pools(2, Mode::Perf);
    let mc = ShardedNvMemcached::create(&old, 64, 10_000, false).unwrap();
    assert_eq!(mc.reshard_start(&[], 64).unwrap_err(), ReshardError::NoPools);
    // A pool of the serving topology is not a fresh target.
    let err = mc.reshard_start(&[Arc::clone(&old[0])], 64).unwrap_err();
    assert_eq!(err, ReshardError::NotFresh { position: 0 });
    // Starting twice without driving the first to completion refuses.
    let new = pools(3, Mode::Perf);
    mc.reshard_start(&new, 64).unwrap();
    let more = pools(2, Mode::Perf);
    assert_eq!(mc.reshard_start(&more, 64).unwrap_err(), ReshardError::AlreadyInFlight);
    while !mc.reshard_step().unwrap() {}
    assert_eq!(mc.n_shards(), 3);
    // After completion the *old* pools are stale husks, not fresh targets.
    let err = mc.reshard_start(&old[..1], 64).unwrap_err();
    assert_eq!(err, ReshardError::NotFresh { position: 0 });
}

#[test]
fn geometry_word_keeps_version_durably() {
    let old = pools(2, Mode::CrashSim);
    let mc = ShardedNvMemcached::create(&old, 64, 1_000, false).unwrap();
    drop(mc);
    for pool in &old {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
        assert_ne!(pool.root(SHARD_GEOMETRY_ROOT), 0, "geometry word lost by crash");
    }
    assert!(ShardedNvMemcached::validate_geometry(&old).is_ok());
}
