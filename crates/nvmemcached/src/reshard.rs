//! **Live reshard**: migrating a [`ShardedNvMemcached`] from N to N'
//! shards without downtime.
//!
//! # One migration machine
//!
//! A reshard moves keys with the hash table's own bucket drain — the
//! claim → copy → detach of the incremental resize — pointed at other
//! tables ([`logfree::HashTable::drain_out`]). Draining old bucket `b`:
//!
//! 1. **claim** its live nodes (a claimed node can be neither removed
//!    nor replaced);
//! 2. **copy** each into the key's new home `shard_of(key, N')`,
//!    insert-if-absent ([`logfree::HashTable::splice_in`]): one fence for
//!    the copies and one for their links, per target pool;
//! 3. **detach**: only then swing the old head to the sentinel with
//!    link-and-persist. The copies are durable before the sentinel, which
//!    orders the pools by construction.
//!
//! A drained bucket is a sentinel for good: an operation that meets it
//! gets a typed `Moved` outcome, and [`ShardedNvMemcached`] routes the
//! key to its new home.
//!
//! # The durable state
//!
//! A reshard is recorded by one 64-bit **reshard state word** in root
//! slot [`RESHARD_STATE_ROOT`] of *old pool 0*, laid out
//! `[OLD:16][NEW:16][0:16][VERSION:16]`: the shard counts of the source
//! and target topologies and the *target* topology version (source
//! version + 1). It is written once, at commit, *after* the N' new pools
//! are durably formatted (geometry words stamped with `VERSION`), and
//! announced to the crash-point enumeration as
//! [`pmem::CrashEvent::ReshardState`] first. Before this write a crash
//! leaves the new pools as unreferenced scratch
//! ([`GeometryError::Uncommitted`]); after it the reshard is owed, and
//! `recover()` re-drains every old bucket that lacks its sentinel, with
//! the driver's code. Progress needs no record of its own: each drained
//! bucket carries its sentinel. The word is never cleared (old pools are
//! retired wholesale), so recovery can always tell a committed reshard
//! from an uncommitted one.
//!
//! # Routing in flight
//!
//! While a reshard is in flight every **write** (`set`, `add`,
//! `replace`, `delete`) first drains its key's old bucket, exactly as a
//! resize writer does, and then writes only the new home — so a key
//! never lives in two places, and the old bucket is authoritative until
//! its sentinel is durable. A **read** uses the old shard unless it gets
//! `Moved`, and then the new home; it never locks. The driver
//! ([`ShardedNvMemcached::reshard_step`]) drains the old shards one at a
//! time, bucket by bucket, with one context per pool registered once per
//! flight.
//!
//! An operation that raced [`ShardedNvMemcached::reshard_start`] can
//! still run against the old topology's routing. It cannot lose a
//! write: before a bucket's claim the write lands in the chain the drain
//! copies, during it the claims turn it away, and after the sentinel it
//! gets `Moved` and re-registers against the current topology.
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

use logfree::hash::Removed;
use nvalloc::{OutOfMemory, RecoveryReport, ThreadCtx};
use parking_lot::Mutex;
use pmem::{CrashEvent, PmemPool};

use crate::sharded::{
    new_tallies, pack_geometry, shard_of, unpack_geometry, GeometryError, ShardTally,
    ShardedNvMemcached, Topology, MAX_SHARDS, MAX_VERSION, SHARD_GEOMETRY_ROOT,
};
use crate::NvMemcached;

/// Root-directory slot holding the reshard state word
/// `[OLD:16][NEW:16][0:16][VERSION:16]` on *old pool 0* (distinct from
/// [`crate::NVMC_ROOT`] and [`SHARD_GEOMETRY_ROOT`]).
pub const RESHARD_STATE_ROOT: usize = 10;

/// Packs the reshard state word `[OLD:16][NEW:16][0:16][VERSION:16]`.
pub(crate) fn pack_reshard_state(old: usize, new: usize, version: u32) -> u64 {
    debug_assert!(old <= u16::MAX as usize && new <= u16::MAX as usize);
    debug_assert!(version <= MAX_VERSION);
    ((old as u64) << 48) | ((new as u64) << 32) | version as u64
}

/// `(old, new, version)` from a reshard state word.
pub(crate) fn unpack_reshard_state(word: u64) -> (u32, u32, u32) {
    ((word >> 48) as u32, ((word >> 32) & 0xFFFF) as u32, (word & 0xFFFF) as u32)
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
    /// stays in flight; the bucket being drained stays whole in its old
    /// shard, so no data was lost.
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
    /// Keys the migration driver moved (a bucket a client write drained
    /// first is not counted).
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
    /// Old shards the migration driver has drained so far (`0..=from`;
    /// volatile progress, restarting at 0 after a crash).
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
/// [`Topology`]: the target shards, the driver and its progress.
/// Shared by every pinned connection.
pub(crate) struct Flight {
    /// Target topology version.
    pub(crate) version: u32,
    pub(crate) new_shards: Arc<[NvMemcached]>,
    pub(crate) new_requests: Arc<[ShardTally]>,
    /// Old shards the driver has drained (volatile progress).
    pub(crate) cursor: AtomicUsize,
    /// Serializes migration steps.
    pub(crate) driver: Mutex<Driver>,
}

/// The migration driver's state: one context per old pool and one per
/// target pool, registered once per flight, and the keys it moved.
pub(crate) struct Driver {
    old: Vec<ThreadCtx>,
    new: Vec<ThreadCtx>,
    moved: u64,
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
    /// formatted `new_pools` (each shard gets an even split of the cache's
    /// soft capacity, and at least `n_buckets` buckets: as many as
    /// [`NvMemcached::create`] presizes for that split) while concurrent
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
        let keys_moved = flight.driver.lock().moved;
        Ok(ReshardStats { from, to: new_pools.len(), version: flight.version, keys_moved })
    }

    /// Finishes any resize in flight on the old shards (and keeps them
    /// from starting another), formats `new_pools` as the target topology
    /// (`n_buckets` is each target shard's floor, as in
    /// [`ShardedNvMemcached::reshard`]), durably **commits** the
    /// reshard (state word `[OLD][NEW][0][VERSION]` on old pool 0), and
    /// switches routing into the flight. Drive the migration with
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

        // A bucket drains out of a table with one array, for good: finish
        // any resize, and let no write that raced this start grow one. (A
        // shard whose pool cannot finish its resize could not grow anyway.)
        let mut old: Vec<ThreadCtx> = top.shards.iter().map(NvMemcached::register).collect();
        for (shard, ctx) in top.shards.iter().zip(&mut old) {
            shard.table.seal(ctx)?;
        }

        // COMMIT: from here on the reshard is owed — a crash leaves a
        // committed state word and recovery rolls the migration forward.
        let old_pool = Arc::clone(top.shards[0].domain().pool());
        let mut flusher = old_pool.flusher();
        flusher.note_crash_event(CrashEvent::ReshardState);
        old_pool.set_root(
            RESHARD_STATE_ROOT,
            pack_reshard_state(top.shards.len(), n_new, version),
            &mut flusher,
        );
        drop(flusher);

        let new = shards.iter().map(NvMemcached::register).collect();
        let flight = Arc::new(Flight {
            version,
            new_shards: shards.into(),
            new_requests: new_tallies(n_new),
            cursor: AtomicUsize::new(0),
            driver: Mutex::new(Driver { old, new, moved: 0 }),
        });
        *slot = Arc::new(Topology {
            version: top.version,
            shards: Arc::clone(&top.shards),
            requests: Arc::clone(&top.requests),
            flight: Some(flight),
        });
        drop(slot);
        // Connections re-register on their next operation and start
        // draining before they write.
        self.gen.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Drains the next old shard of an in-flight reshard, bucket by
    /// bucket, and swaps in the new topology once every old shard is
    /// drained. Returns `Ok(true)` once the new topology is serving and
    /// the old shards are retired. Safe to call concurrently (steps
    /// serialize on the flight's driver) and idempotent when no reshard
    /// is in flight.
    pub fn reshard_step(&self) -> Result<bool, ReshardError> {
        let top = self.topology();
        let Some(flight) = top.flight.as_ref().map(Arc::clone) else {
            return Ok(true);
        };
        let mut driver = flight.driver.lock();
        let Driver { old, new, moved } = &mut *driver;
        let old_n = top.shards.len();
        let s = flight.cursor.load(Ordering::Acquire);
        if s < old_n {
            *moved += drain_shard(&top.shards[s], &mut old[s], &flight.new_shards, new)?;
            flight.cursor.store(s + 1, Ordering::Release);
        }
        let done = s + 1 >= old_n;
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

/// Drains every bucket of old shard `old` into `targets`: one driver
/// step, or one old shard of recovery's roll-forward.
fn drain_shard(
    old: &NvMemcached,
    octx: &mut ThreadCtx,
    targets: &[NvMemcached],
    tctxs: &mut [ThreadCtx],
) -> Result<u64, OutOfMemory> {
    let mut moved = 0;
    for b in 0..old.table.capacity_hint() {
        moved += drain_bucket(old, octx, targets, tctxs, b)?;
    }
    Ok(moved)
}

/// Drains bucket `b` of old shard `old` out into `targets`, each key to
/// its new home `shard_of(key, N')`. If a target runs out of space, every
/// copy is taken back out, durably, and the bucket stays whole in `old`.
/// Returns how many live keys moved (0 if the bucket was drained
/// already).
pub(crate) fn drain_bucket(
    old: &NvMemcached,
    octx: &mut ThreadCtx,
    targets: &[NvMemcached],
    tctxs: &mut [ThreadCtx],
    b: usize,
) -> Result<u64, OutOfMemory> {
    let n = targets.len();
    // Items each target gained.
    let mut gained: Vec<i64> = Vec::new();
    let moved = old.table.drain_out(octx, b, |pairs| {
        gained.resize(n, 0);
        let mut homes = vec![Vec::new(); n];
        for &(key, value) in pairs {
            homes[shard_of(key, n)].push((key, value));
        }
        for (d, home) in homes.iter().enumerate() {
            if home.is_empty() {
                continue;
            }
            match targets[d].table.splice_in(&mut tctxs[d], home) {
                Ok(inserted) => gained[d] += inserted as i64,
                Err(oom) => {
                    // An earlier attempt's copies go too: the old chain
                    // may change once un-claimed.
                    for (d, home) in homes.iter().enumerate() {
                        let table = &targets[d].table;
                        for &(key, _) in home {
                            if let Removed::Yes(_) = table.take(&mut tctxs[d], key) {
                                gained[d] -= 1;
                            }
                            table.ops().scan(key, &mut tctxs[d].flusher);
                        }
                    }
                    return Err(oom);
                }
            }
        }
        Ok(())
    });
    for (d, &g) in gained.iter().enumerate() {
        targets[d].note_items(&mut tctxs[d], g);
    }
    let moved = moved?;
    old.note_items(octx, -(moved as i64));
    Ok(moved)
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
    if versions.len() > 2 || hi > lo + 1 {
        return Err(GeometryError::VersionSkew { lo, hi });
    }

    // The old group and, if a crash hit mid-reshard, the new one; order
    // within each is positional.
    let mut old_pools: Vec<Arc<PmemPool>> = Vec::new();
    let mut new_pools: Vec<Arc<PmemPool>> = Vec::new();
    for (position, (&(version, _, index), pool)) in geos.iter().zip(pools).enumerate() {
        let group = if version == lo { &mut old_pools } else { &mut new_pools };
        if index as usize != group.len() {
            return Err(GeometryError::ShardIndex { position, recorded: index });
        }
        group.push(Arc::clone(pool));
    }
    for (position, &(version, count, _)) in geos.iter().enumerate() {
        let given = if version == lo { old_pools.len() } else { new_pools.len() };
        if count as usize != given {
            return Err(GeometryError::ShardCount { position, recorded: count, given });
        }
    }

    let word = old_pools[0].root(RESHARD_STATE_ROOT);
    let (old, new, version) = unpack_reshard_state(word);
    if new_pools.is_empty() {
        // One coherent topology: no committed reshard may point at
        // absent pools.
        if word != 0 {
            if version == lo + 1 && old as usize == pools.len() {
                return Err(GeometryError::MissingShards { version, expected: new });
            }
            return Err(GeometryError::TornReshard { old, new, version });
        }
        let (shards, report) = ShardedNvMemcached::recover_group(pools, capacity)?;
        let cache = ShardedNvMemcached::assemble(shards, lo, cache_id, capacity, false);
        return Ok((cache, report));
    }
    // The old group's commit record must describe exactly these groups.
    if word == 0 {
        return Err(GeometryError::Uncommitted { version: hi });
    }
    // Bits outside the fields mean a torn or foreign word too.
    if old as usize != old_pools.len()
        || new as usize != new_pools.len()
        || version != hi
        || word != pack_reshard_state(old as usize, new as usize, version)
    {
        return Err(GeometryError::TornReshard { old, new, version });
    }

    // Every shard of both groups recovers in parallel first (each repairs
    // its table and reclaims its leaks), then the migration is rolled
    // forward: every old bucket that lacks its sentinel is drained, with
    // the driver's code and one context per pool.
    let (old_shards, mut report) = ShardedNvMemcached::recover_group(&old_pools, capacity)?;
    let (new_shards, new_report) = ShardedNvMemcached::recover_group(&new_pools, capacity)?;
    report.merge(new_report);
    let mut tctxs: Vec<ThreadCtx> = new_shards.iter().map(NvMemcached::register).collect();
    for (s, old) in old_shards.iter().enumerate() {
        drain_shard(old, &mut old.register(), &new_shards, &mut tctxs)
            .map_err(|OutOfMemory| GeometryError::TargetFull { old_shard: s })?;
    }

    let cache = ShardedNvMemcached::assemble(new_shards, hi, cache_id, capacity, false);
    Ok((cache, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshard_state_word_round_trips() {
        for (old, new, version) in [(1usize, 2usize, 2u32), (2, 4, 7), (4095, 4095, 65_535)] {
            let (o, n, v) = unpack_reshard_state(pack_reshard_state(old, new, version));
            assert_eq!((o as usize, n as usize, v), (old, new, version));
        }
    }
}
