//! Recovery fixtures for torn reshard-topology states — the edges of
//! the `[OLD][NEW][0][VERSION]` commit record and of the bucket
//! sentinels that the random crash enumeration cannot pin
//! deterministically:
//!
//! * **half-drained images**: recovery must *roll forward* — drain every
//!   old bucket that lacks its sentinel, keep the copies already in
//!   their new homes, and serve the new topology.
//! * **torn or foreign state words** (stale version, wild shard counts,
//!   bits outside the fields): recovery must *cleanly reject* the union
//!   with [`GeometryError::TornReshard`] instead of migrating by a
//!   record that does not describe the pools in hand.
//!
//! The fixtures forge the state word directly (the same idiom as the
//! torn resize-geometry fixtures in `torn_geometry.rs`), pinning each
//! edge deterministically.

use std::sync::Arc;

use nvmemcached::sharded::shard_of;
use nvmemcached::{GeometryError, NvMemcached, ShardedNvMemcached, RESHARD_STATE_ROOT};
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};

fn pools(n: usize) -> Vec<Arc<PmemPool>> {
    (0..n)
        .map(|_| {
            PoolBuilder::new(16 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect()
}

const CAP: usize = 100_000;
const KEYS: u64 = 400;

/// `[OLD:16][NEW:16][0:16][VERSION:16]`, the durable layout documented
/// on `nvmemcached::RESHARD_STATE_ROOT`.
fn state_word(old: u64, new: u64, version: u64) -> u64 {
    (old << 48) | (new << 32) | version
}

/// Builds a 2-shard cache with `KEYS` keys, runs a full 2→4 reshard,
/// and returns `(old pools, new pools)` — both groups durable.
fn reshard_complete() -> (Vec<Arc<PmemPool>>, Vec<Arc<PmemPool>>) {
    let old = pools(2);
    let new = pools(4);
    let mc = ShardedNvMemcached::create(&old, 64, CAP, false).unwrap();
    let mut ctx = mc.register();
    for k in 1..=KEYS {
        mc.set(&mut ctx, k, k * 7).unwrap();
    }
    mc.reshard(&new, 64).unwrap();
    (old, new)
}

/// Durably overwrites the reshard state word on old pool 0.
fn forge_state_word(pool: &Arc<PmemPool>, value: u64) {
    let mut flusher = pool.flusher();
    pool.set_root(RESHARD_STATE_ROOT, value, &mut flusher);
}

fn crash_all(pools: &[Arc<PmemPool>]) {
    for pool in pools {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
}

/// Recovers the union and checks it serves the new topology with
/// `value(k)` for every key, each in its own shard.
fn assert_rolled_forward(all: &[Arc<PmemPool>], value: impl Fn(u64) -> u64) {
    let (mc, _report) = ShardedNvMemcached::recover(all, CAP).unwrap();
    assert_eq!((mc.version(), mc.n_shards()), (2, 4));
    assert!(!mc.reshard_in_flight());
    assert_eq!(mc.len(), KEYS as usize, "no key lost or doubled by the roll-forward");
    let mut ctx = mc.register();
    for k in 1..=KEYS {
        assert_eq!(mc.get(&mut ctx, k), Some(value(k)), "key {k}");
    }
    for (i, shard) in mc.shards().iter().enumerate() {
        for (k, _) in shard.snapshot() {
            assert_eq!(mc.shard_of(k), i, "key {k} in wrong shard after the roll-forward");
        }
    }
}

#[test]
fn copies_already_in_their_new_homes_are_kept() {
    // A crash between a drain's copies and its detach leaves the old
    // bucket whole and copies in the new homes. Forge the extreme case:
    // the commit is durable, no old bucket has its sentinel, and every
    // key already has a copy — with a value of its own, to show which
    // one recovery keeps. Re-draining inserts only absent keys, so each
    // new home keeps its copy and no key is doubled.
    let old = pools(2);
    let new = pools(4);
    {
        let mc = ShardedNvMemcached::create(&old, 64, CAP, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=KEYS {
            mc.set(&mut ctx, k, k * 7).unwrap();
        }
        mc.reshard_start(&new, 64).unwrap();
    }
    for (d, pool) in new.iter().enumerate() {
        let (shard, _) = NvMemcached::recover(Arc::clone(pool), CAP).unwrap();
        let mut ctx = shard.register();
        for k in (1..=KEYS).filter(|&k| shard_of(k, 4) == d) {
            shard.set(&mut ctx, k, k * 11).unwrap();
        }
    }
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    crash_all(&all);
    assert_rolled_forward(&all, |k| k * 11);
}

#[test]
fn half_drained_image_rolls_forward_from_its_sentinels() {
    // One driver step drained old shard 0: its buckets carry sentinels,
    // shard 1's do not. Recovery drains exactly what is left.
    let old = pools(2);
    let new = pools(4);
    {
        let mc = ShardedNvMemcached::create(&old, 64, CAP, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=KEYS {
            mc.set(&mut ctx, k, k * 7).unwrap();
        }
        mc.reshard_start(&new, 64).unwrap();
        assert!(!mc.reshard_step().unwrap());
    }
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    crash_all(&all);
    assert_rolled_forward(&all, |k| k * 7);
}

#[test]
fn stale_version_state_word_is_rejected() {
    let (old, new) = reshard_complete();
    // A state word whose version does not name the younger geometry
    // generation in hand: a leftover from some earlier life of the
    // pools. Migrating by it would drain into the wrong group.
    forge_state_word(&old[0], state_word(2, 4, 7));
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    crash_all(&all);

    let err = ShardedNvMemcached::recover(&all, CAP).unwrap_err();
    assert_eq!(err, GeometryError::TornReshard { old: 2, new: 4, version: 7 });
}

#[test]
fn wild_shard_counts_are_rejected() {
    let (old, new) = reshard_complete();
    // Counts that match no group in hand — a torn write or a foreign
    // record. 2 + 4 pools are present, the word claims 57 → 3.
    forge_state_word(&old[0], state_word(57, 3, 2));
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    crash_all(&all);

    let err = ShardedNvMemcached::recover(&all, CAP).unwrap_err();
    assert_eq!(err, GeometryError::TornReshard { old: 57, new: 3, version: 2 });
}

#[test]
fn bits_outside_the_fields_are_rejected() {
    let (old, new) = reshard_complete();
    // The word's fields describe the pools in hand, but bits 16..32 —
    // zero in every word a commit writes — are set: a torn or foreign
    // word.
    forge_state_word(&old[0], state_word(2, 4, 2) | (9 << 16));
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    crash_all(&all);

    let err = ShardedNvMemcached::recover(&all, CAP).unwrap_err();
    assert_eq!(err, GeometryError::TornReshard { old: 2, new: 4, version: 2 });
}

#[test]
fn zeroed_state_word_means_uncommitted() {
    let (old, new) = reshard_complete();
    // Both geometry generations durable but no commit record at all:
    // recovery must refuse the union (the old group alone is the
    // authoritative cache — the formatted targets were never adopted).
    forge_state_word(&old[0], 0);
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    crash_all(&all);

    let err = ShardedNvMemcached::recover(&all, CAP).unwrap_err();
    assert_eq!(err, GeometryError::Uncommitted { version: 2 });
}
