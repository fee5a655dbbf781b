//! **Live reshard**: migrating a [`ShardedNvMemcached`] from N to N'
//! shards without downtime.
//!
//! # The durable state machine
//!
//! A reshard is governed by one 64-bit **reshard state word** in root
//! slot [`RESHARD_STATE_ROOT`] of *old pool 0*, laid out
//! `[OLD:16][NEW:16][CURSOR:16][VERSION:16]`:
//!
//! * `OLD` / `NEW` — shard counts of the source and target topologies;
//! * `CURSOR` — how many old shards are fully drained (old shards are
//!   drained in index order, so shards `0..CURSOR` are empty and shards
//!   `CURSOR..OLD` still own their keys);
//! * `VERSION` — the *target* topology version (source version + 1).
//!
//! Every update of the word is link-and-persist (store + persist) and is
//! announced to the crash-point enumeration as
//! [`pmem::CrashEvent::ReshardState`] first, so the crashtest subsystem
//! enumerates a crash at every topology transition. The word is written
//! exactly `OLD + 1` times per reshard:
//!
//! 1. **Commit** — `[OLD][NEW][0][VERSION]`, written *after* the N' new
//!    pools are durably formatted (geometry words stamped with
//!    `VERSION`). Before this write a crash leaves the new pools as
//!    unreferenced scratch ([`GeometryError::Uncommitted`]); after it the
//!    reshard is owed and `recover()` rolls it forward.
//! 2. **Cursor advance** ×OLD — after old shard `s` is verifiably empty,
//!    the cursor swings to `s + 1`. The advance with `CURSOR == OLD` is
//!    the completion record; the word is never cleared (old pools are
//!    retired wholesale), so recovery can always distinguish *completed*
//!    from *uncommitted*.
//!
//! # Routing in flight
//!
//! While a reshard is migrating, every request resolves deterministically
//! against the volatile mirror of the cursor (monotone, so a stale read
//! only widens the dual-checked window):
//!
//! * old shard `s < CURSOR` — drained: the key lives only in its new
//!   home; route there directly.
//! * `s > CURSOR` — untouched: the key lives only in shard `s`; route
//!   old-only.
//! * `s == CURSOR` — the shard being drained: **writes** take a per-key
//!   stripe lock and go dual-path (`set` writes the new home then
//!   deletes the old copy; `delete` clears old then new — see the
//!   ordering arguments on the methods); **reads** stay lock-free,
//!   checking old-then-new (migration copies before it deletes, so an
//!   old-side miss proves the key is in its new home or absent).
//!
//! The migration driver claims each key under the same stripe lock and
//! uses the copy-then-delete discipline of `logfree::hash::resize` one
//! level up: copy into the new home (skipped if the new home already has
//! the key — **new wins**, because only a fresher client write can have
//! put it there), then delete the old copy. The cursor advances only
//! after a verification pass that holds *all* stripes — any in-flight
//! dual-path writer has finished, and every later writer re-reads the
//! advanced cursor under its stripe — so a drained shard can never
//! silently swallow an acknowledged write.
//!
//! # Retirement
//!
//! Topologies are immutable `Arc`s; connections pin the generation they
//! registered against and re-register on the next operation after a
//! change. The old shards (and their volatile bookkeeping) are therefore
//! dropped only when the last pinned connection lets go — epoch-style
//! retirement by refcount, with no reader ever observing freed shards.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nvalloc::{OutOfMemory, RecoveryReport, ThreadCtx};
use parking_lot::Mutex;
use pmem::{CrashEvent, PmemPool};

use crate::sharded::{
    new_tallies, pack_geometry, shard_of, unpack_geometry, GeometryError, ShardTally,
    ShardedNvMemcached, Topology, MAX_SHARDS, MAX_VERSION, SHARD_GEOMETRY_ROOT,
};
use crate::NvMemcached;

/// Root-directory slot holding the reshard state word
/// `[OLD:16][NEW:16][CURSOR:16][VERSION:16]` on *old pool 0* (distinct
/// from [`crate::NVMC_ROOT`] and [`SHARD_GEOMETRY_ROOT`]).
pub const RESHARD_STATE_ROOT: usize = 10;

/// Writer stripes for the dual-path window: keys hash onto one of these
/// locks while their shard is being drained. 64 stripes keep unrelated
/// keys from serializing while staying cheap to sweep in the cursor-
/// advance barrier.
const N_STRIPES: usize = 64;

/// The stripe `key` serializes on during the dual-path window.
#[inline]
pub(crate) fn stripe_of(key: u64) -> usize {
    crate::sharded::shard_of(key, N_STRIPES)
}

/// Packs the reshard state word `[OLD:16][NEW:16][CURSOR:16][VERSION:16]`.
pub(crate) fn pack_reshard_state(old: usize, new: usize, cursor: usize, version: u32) -> u64 {
    debug_assert!(old <= u16::MAX as usize && new <= u16::MAX as usize);
    debug_assert!(cursor <= u16::MAX as usize && version <= MAX_VERSION);
    ((old as u64) << 48) | ((new as u64) << 32) | ((cursor as u64) << 16) | version as u64
}

/// `(old, new, cursor, version)` from a reshard state word.
pub(crate) fn unpack_reshard_state(word: u64) -> (u32, u32, u32, u32) {
    (
        (word >> 48) as u32,
        ((word >> 32) & 0xFFFF) as u32,
        ((word >> 16) & 0xFFFF) as u32,
        (word & 0xFFFF) as u32,
    )
}

/// Why a reshard could not start (or step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardError {
    /// A reshard is already migrating; drive it to completion first.
    AlreadyInFlight,
    /// No target pools were given.
    NoPools,
    /// More target pools than the geometry word can record.
    TooManyShards {
        /// Number of pools given.
        given: usize,
    },
    /// The topology version would exceed the geometry word's field.
    VersionOverflow,
    /// The target pool at `position` already belongs to a cache (its
    /// geometry or reshard root is non-zero) and is not a leftover of
    /// this cache's own uncommitted reshard attempt.
    NotFresh {
        /// Index of the offending pool in the given slice.
        position: usize,
    },
    /// A target shard ran out of pool space mid-migration. The reshard
    /// stays in flight; no data was lost.
    OutOfMemory(OutOfMemory),
}

impl std::fmt::Display for ReshardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ReshardError::AlreadyInFlight => write!(f, "a reshard is already in flight"),
            ReshardError::NoPools => write!(f, "no target shard pools given"),
            ReshardError::TooManyShards { given } => {
                write!(f, "{given} target pools exceed the geometry word's {MAX_SHARDS}")
            }
            ReshardError::VersionOverflow => {
                write!(f, "topology version would exceed the geometry word")
            }
            ReshardError::NotFresh { position } => {
                write!(f, "target pool {position} already belongs to a cache")
            }
            ReshardError::OutOfMemory(e) => write!(f, "target shard out of pool space: {e}"),
        }
    }
}

impl std::error::Error for ReshardError {}

impl From<OutOfMemory> for ReshardError {
    fn from(e: OutOfMemory) -> Self {
        ReshardError::OutOfMemory(e)
    }
}

/// Summary of a completed [`ShardedNvMemcached::reshard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardStats {
    /// Shard count before.
    pub from: usize,
    /// Shard count after.
    pub to: usize,
    /// Topology version now serving.
    pub version: u32,
    /// Keys the migration driver moved (keys rewritten by clients during
    /// the flight migrate themselves and are not counted).
    pub keys_moved: u64,
}

/// Progress of an in-flight reshard (see
/// [`ShardedNvMemcached::topology_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardProgress {
    /// Source shard count.
    pub from: usize,
    /// Target shard count.
    pub to: usize,
    /// Old shards fully drained so far (`0..=from`).
    pub cursor: usize,
    /// Target topology version.
    pub version: u32,
}

/// A point-in-time view of the serving topology (the server's
/// `stats reshard` output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyStats {
    /// Serving topology version.
    pub version: u32,
    /// Serving shard count.
    pub n_shards: usize,
    /// In-flight migration progress, if a reshard is running.
    pub reshard: Option<ReshardProgress>,
}

/// The volatile half of an in-flight reshard, hung off the serving
/// [`Topology`]: the target shards, the cursor mirror, and the writer
/// stripes. Immutable except for the atomics; shared by every pinned
/// connection.
pub(crate) struct Flight {
    /// Target topology version.
    pub(crate) version: u32,
    pub(crate) new_shards: Arc<[NvMemcached]>,
    pub(crate) new_requests: Arc<[ShardTally]>,
    /// Volatile mirror of the durable cursor (stored *after* the durable
    /// advance, under all stripes — monotone, so a stale read only widens
    /// the dual-checked window).
    pub(crate) cursor: AtomicUsize,
    pub(crate) stripes: Box<[Mutex<()>]>,
    /// Serializes migration steps; accumulates `keys_moved`.
    pub(crate) driver: Mutex<u64>,
}

impl ShardedNvMemcached {
    /// Whether a reshard is currently migrating.
    pub fn reshard_in_flight(&self) -> bool {
        self.topology().flight.is_some()
    }

    /// A point-in-time view of the serving topology and any in-flight
    /// migration.
    pub fn topology_stats(&self) -> TopologyStats {
        let top = self.topology();
        TopologyStats {
            version: top.version,
            n_shards: top.shards.len(),
            reshard: top.flight.as_ref().map(|f| ReshardProgress {
                from: top.shards.len(),
                to: f.new_shards.len(),
                cursor: f.cursor.load(Ordering::Acquire).min(top.shards.len()),
                version: f.version,
            }),
        }
    }

    /// **Live reshard** (blocking): migrates the cache onto the freshly
    /// formatted `new_pools` (each shard gets `n_buckets` buckets and an
    /// even split of the cache's soft capacity) while concurrent
    /// operations keep serving, then retires the old shards. Equivalent
    /// to [`ShardedNvMemcached::reshard_start`] followed by
    /// [`ShardedNvMemcached::reshard_step`] until complete.
    pub fn reshard(
        &self,
        new_pools: &[Arc<PmemPool>],
        n_buckets: usize,
    ) -> Result<ReshardStats, ReshardError> {
        let from = self.n_shards();
        self.reshard_start(new_pools, n_buckets)?;
        let flight =
            Arc::clone(self.topology().flight.as_ref().expect("reshard_start installed a flight"));
        while !self.reshard_step()? {}
        let keys_moved = *flight.driver.lock();
        Ok(ReshardStats { from, to: new_pools.len(), version: flight.version, keys_moved })
    }

    /// Formats `new_pools` as the target topology, durably **commits**
    /// the reshard (state word `[OLD][NEW][0][VERSION]` on old pool 0),
    /// and switches routing into the dual-path flight. Returns with the
    /// migration at cursor 0; drive it with
    /// [`ShardedNvMemcached::reshard_step`] (or use the blocking
    /// [`ShardedNvMemcached::reshard`]).
    pub fn reshard_start(
        &self,
        new_pools: &[Arc<PmemPool>],
        n_buckets: usize,
    ) -> Result<(), ReshardError> {
        if new_pools.is_empty() {
            return Err(ReshardError::NoPools);
        }
        if new_pools.len() > MAX_SHARDS {
            return Err(ReshardError::TooManyShards { given: new_pools.len() });
        }
        let mut slot = self.topology.lock();
        let top = Arc::clone(&slot);
        if top.flight.is_some() {
            return Err(ReshardError::AlreadyInFlight);
        }
        let version = top.version + 1;
        if version > MAX_VERSION {
            return Err(ReshardError::VersionOverflow);
        }
        // Target pools must be fresh — or leftovers of this cache's own
        // uncommitted attempt at this same version (safe to reformat: the
        // commit record was never written, so they hold nothing owed).
        for (position, pool) in new_pools.iter().enumerate() {
            let word = pool.root(SHARD_GEOMETRY_ROOT);
            if word != 0 {
                let (id, ver, _, _) = unpack_geometry(word);
                if id != self.cache_id || ver != version {
                    return Err(ReshardError::NotFresh { position });
                }
            }
            if pool.root(RESHARD_STATE_ROOT) != 0 {
                return Err(ReshardError::NotFresh { position });
            }
        }

        let n_new = new_pools.len();
        let per_shard_capacity = self.capacity.div_ceil(n_new);
        let mut shards = Vec::with_capacity(n_new);
        for (j, pool) in new_pools.iter().enumerate() {
            let shard = NvMemcached::create(
                Arc::clone(pool),
                n_buckets,
                per_shard_capacity,
                self.use_link_cache,
            )?;
            let mut flusher = pool.flusher();
            pool.set_root(
                SHARD_GEOMETRY_ROOT,
                pack_geometry(self.cache_id, version, n_new, j),
                &mut flusher,
            );
            shards.push(shard);
        }

        // COMMIT: from here on the reshard is owed — a crash leaves a
        // committed state word and recovery rolls the migration forward.
        let old_pool = Arc::clone(top.shards[0].domain().pool());
        let mut flusher = old_pool.flusher();
        flusher.note_crash_event(CrashEvent::ReshardState);
        old_pool.set_root(
            RESHARD_STATE_ROOT,
            pack_reshard_state(top.shards.len(), n_new, 0, version),
            &mut flusher,
        );
        drop(flusher);

        let flight = Arc::new(Flight {
            version,
            new_shards: shards.into(),
            new_requests: new_tallies(n_new),
            cursor: AtomicUsize::new(0),
            stripes: (0..N_STRIPES).map(|_| Mutex::new(())).collect(),
            driver: Mutex::new(0),
        });
        *slot = Arc::new(Topology {
            version: top.version,
            shards: Arc::clone(&top.shards),
            requests: Arc::clone(&top.requests),
            flight: Some(flight),
        });
        drop(slot);
        // Connections re-register on their next operation and start
        // routing dual-path.
        self.gen.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Drains the next old shard of an in-flight reshard (or finalizes a
    /// fully drained one). Returns `Ok(true)` once the new topology is
    /// serving and the old shards are retired. Safe to call concurrently
    /// (steps serialize on the flight's driver lock) and idempotent when
    /// no reshard is in flight.
    pub fn reshard_step(&self) -> Result<bool, ReshardError> {
        let top = self.topology();
        let Some(flight) = top.flight.as_ref().map(Arc::clone) else {
            return Ok(true);
        };
        let mut moved = flight.driver.lock();
        let old_n = top.shards.len();
        let cursor = flight.cursor.load(Ordering::Acquire);
        if cursor < old_n {
            *moved += drain_shard(&top, &flight, cursor)?;
        }
        let done = flight.cursor.load(Ordering::Acquire) >= old_n;
        if done {
            let mut slot = self.topology.lock();
            // Another stepper may have swapped already (then `slot` no
            // longer points at our pinned topology).
            if Arc::ptr_eq(&slot, &top) {
                *slot = Arc::new(Topology {
                    version: flight.version,
                    shards: Arc::clone(&flight.new_shards),
                    requests: Arc::clone(&flight.new_requests),
                    flight: None,
                });
                drop(slot);
                self.gen.fetch_add(1, Ordering::Release);
            }
        }
        Ok(done)
    }
}

/// Drains old shard `s` (the cursor shard) into the flight's target
/// shards, then advances the durable and volatile cursors to `s + 1`.
/// Runs concurrently with client traffic.
fn drain_shard(top: &Topology, flight: &Flight, s: usize) -> Result<u64, ReshardError> {
    let old = &top.shards[s];
    let mut octx = old.register();
    let mut nctxs: Vec<ThreadCtx> = flight.new_shards.iter().map(NvMemcached::register).collect();
    let mut moved = 0u64;
    // Pairs with the fence in `ShardedNvMemcached::gen_settled`: any
    // client op whose post-op generation re-check read the *pre-flight*
    // generation is ordered before this fence, so the snapshots below
    // (in particular the all-stripes re-verification) observe its
    // effects. An op that instead reads the bumped generation redoes
    // itself under the stripe locks. Together: no write a client will
    // acknowledge can land in shard `s` after the drain passes it.
    std::sync::atomic::fence(Ordering::SeqCst);
    loop {
        // Unguarded walk of a live shard — safe here, and only here:
        // while shard `s` is being drained *nothing allocates in its
        // pool* (client writes route to the target pools; the drain and
        // dual-path writers only delete), so a retired node is never
        // recycled mid-walk. The walk can at worst miss keys (caught by
        // the all-stripes verification below) or return stale ones
        // (re-verified under the stripe lock before acting).
        let snap = old.snapshot();
        if snap.is_empty() {
            // Freeze every writer, confirm emptiness, then advance. Any
            // dual-path writer mid-operation holds a stripe and finishes
            // first; any later writer re-reads the advanced cursor under
            // its stripe, so no acknowledged write can land in the
            // drained shard afterwards.
            let guards: Vec<_> = flight.stripes.iter().map(|m| m.lock()).collect();
            if old.snapshot().is_empty() {
                let next = s + 1;
                let pool0 = Arc::clone(top.shards[0].domain().pool());
                let mut flusher = pool0.flusher();
                flusher.note_crash_event(CrashEvent::ReshardState);
                pool0.set_root(
                    RESHARD_STATE_ROOT,
                    pack_reshard_state(
                        top.shards.len(),
                        flight.new_shards.len(),
                        next,
                        flight.version,
                    ),
                    &mut flusher,
                );
                drop(flusher);
                flight.cursor.store(next, Ordering::Release);
                drop(guards);
                return Ok(moved);
            }
            continue;
        }
        for (key, _) in snap {
            let _g = flight.stripes[stripe_of(key)].lock();
            if let Some(value) = old.get(&mut octx, key) {
                let d = shard_of(key, flight.new_shards.len());
                // Copy-then-delete with the new-wins claim: a key already
                // in its new home was put there by a fresher client
                // write; re-copying the old value would travel back in
                // time.
                if flight.new_shards[d].get(&mut nctxs[d], key).is_none() {
                    flight.new_shards[d].set(&mut nctxs[d], key, value)?;
                }
                old.delete(&mut octx, key);
                moved += 1;
            }
        }
    }
}

/// Version-aware recovery: the implementation behind
/// [`ShardedNvMemcached::recover`].
pub(crate) fn recover_versioned(
    pools: &[Arc<PmemPool>],
    capacity: usize,
) -> Result<(ShardedNvMemcached, RecoveryReport), GeometryError> {
    if pools.is_empty() {
        return Err(GeometryError::NoPools);
    }
    // Parse every geometry word; the cache id must be uniform.
    let mut geos = Vec::with_capacity(pools.len());
    let mut base: Option<u32> = None;
    for (position, pool) in pools.iter().enumerate() {
        let word = pool.root(SHARD_GEOMETRY_ROOT);
        if word == 0 {
            return Err(GeometryError::NotSharded { position });
        }
        let (id, version, count, index) = unpack_geometry(word);
        let expected_id = *base.get_or_insert(id);
        if id != expected_id {
            return Err(GeometryError::CacheMismatch {
                position,
                expected: expected_id,
                found: id,
            });
        }
        geos.push((version, count, index));
    }
    let cache_id = base.expect("pools is non-empty");
    let versions: BTreeSet<u32> = geos.iter().map(|&(v, _, _)| v).collect();
    let (&lo, &hi) = (versions.first().expect("non-empty"), versions.last().expect("non-empty"));

    if versions.len() == 1 {
        // One coherent topology: positional validation, then make sure no
        // committed reshard points at absent pools.
        for (position, &(_, count, index)) in geos.iter().enumerate() {
            if count as usize != pools.len() {
                return Err(GeometryError::ShardCount {
                    position,
                    recorded: count,
                    given: pools.len(),
                });
            }
            if index as usize != position {
                return Err(GeometryError::ShardIndex { position, recorded: index });
            }
        }
        let word = pools[0].root(RESHARD_STATE_ROOT);
        if word != 0 {
            let (old, new, cursor, version) = unpack_reshard_state(word);
            if version == lo + 1 && old as usize == pools.len() {
                return Err(GeometryError::MissingShards { version, expected: new });
            }
            return Err(GeometryError::TornReshard { old, new, cursor, version });
        }
        let (shards, report) = ShardedNvMemcached::recover_group(pools, capacity);
        let cache = ShardedNvMemcached::assemble(shards, lo, cache_id, capacity, false);
        return Ok((cache, report));
    }

    if versions.len() > 2 || hi != lo + 1 {
        return Err(GeometryError::VersionSkew { lo, hi });
    }

    // Two adjacent versions: a crash hit mid-reshard. Partition the pools
    // (order within each group is still positional).
    let mut old_pools: Vec<Arc<PmemPool>> = Vec::new();
    let mut new_pools: Vec<Arc<PmemPool>> = Vec::new();
    for (position, (&(version, count, index), pool)) in geos.iter().zip(pools).enumerate() {
        let group = if version == lo { &mut old_pools } else { &mut new_pools };
        if index as usize != group.len() {
            return Err(GeometryError::ShardIndex { position, recorded: index });
        }
        group.push(Arc::clone(pool));
        // Count is validated against the final group size below; record
        // position for the error here.
        let _ = count;
    }
    for (position, &(version, count, _)) in geos.iter().enumerate() {
        let group_len = if version == lo { old_pools.len() } else { new_pools.len() };
        if count as usize != group_len {
            return Err(GeometryError::ShardCount { position, recorded: count, given: group_len });
        }
    }

    // The old group's commit record must describe exactly these groups.
    let word = old_pools[0].root(RESHARD_STATE_ROOT);
    if word == 0 {
        return Err(GeometryError::Uncommitted { version: hi });
    }
    let (old, new, cursor, version) = unpack_reshard_state(word);
    if old as usize != old_pools.len()
        || new as usize != new_pools.len()
        || version != hi
        || cursor > old
    {
        return Err(GeometryError::TornReshard { old, new, cursor, version });
    }

    // Every shard of both groups recovers in parallel first (each repairs
    // its table and reclaims its leaks), then the interrupted migration
    // is rolled forward from the durable cursor.
    let (old_shards, mut report) = ShardedNvMemcached::recover_group(&old_pools, capacity);
    let (new_shards, new_report) = ShardedNvMemcached::recover_group(&new_pools, capacity);
    report.merge(new_report);

    let pool0 = Arc::clone(&old_pools[0]);
    for s in cursor as usize..old_shards.len() {
        roll_forward_shard(&old_shards[s], &new_shards)
            .map_err(|OutOfMemory| GeometryError::TargetFull { old_shard: s })?;
        let mut flusher = pool0.flusher();
        flusher.note_crash_event(CrashEvent::ReshardState);
        pool0.set_root(
            RESHARD_STATE_ROOT,
            pack_reshard_state(old_shards.len(), new_shards.len(), s + 1, hi),
            &mut flusher,
        );
    }

    let cache = ShardedNvMemcached::assemble(new_shards, hi, cache_id, capacity, false);
    Ok((cache, report))
}

/// Recovery roll-forward of one old shard: single-threaded drain into the
/// target shards with the same new-wins rule as the live driver (a key
/// already in its new home was copied — or overwritten — before the
/// crash; the old copy is stale and is only deleted).
fn roll_forward_shard(old: &NvMemcached, new_shards: &[NvMemcached]) -> Result<(), OutOfMemory> {
    let mut octx = old.register();
    let mut nctxs: Vec<ThreadCtx> = new_shards.iter().map(NvMemcached::register).collect();
    loop {
        let snap = old.snapshot();
        if snap.is_empty() {
            return Ok(());
        }
        for (key, value) in snap {
            let d = shard_of(key, new_shards.len());
            if new_shards[d].get(&mut nctxs[d], key).is_none() {
                new_shards[d].set(&mut nctxs[d], key, value)?;
            }
            old.delete(&mut octx, key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshard_state_word_round_trips() {
        for (old, new, cursor, version) in
            [(1usize, 2usize, 0usize, 2u32), (2, 4, 2, 7), (4095, 4095, 4095, 65_535)]
        {
            let (o, n, c, v) = unpack_reshard_state(pack_reshard_state(old, new, cursor, version));
            assert_eq!((o as usize, n as usize, c as usize, v), (old, new, cursor, version));
        }
    }

    #[test]
    fn stripes_cover_all_keys() {
        for key in 0..10_000u64 {
            assert!(stripe_of(key) < N_STRIPES);
        }
    }
}
