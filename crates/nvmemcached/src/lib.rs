//! **NV-Memcached** (§6.5): a durable object-cache model built on the
//! log-free durable hash table, next to the two volatile systems the
//! paper compares against.
//!
//! The paper transforms Memcached by replacing its core data structures —
//! the hash table and the slab allocator — with durable versions:
//!
//! * stock **Memcached** uses a lock-protected sequential hash table →
//!   modelled by [`VolatileMemcached`];
//! * **memcached-clht** replaces it with a concurrent lock-free hash
//!   table (CLHT) → modelled by [`ClhtMemcached`] (our lock-free hash
//!   table over a [`pmem::Mode::Volatile`] pool);
//! * **NV-Memcached** further swaps in the log-free *durable* hash table
//!   and tracks **active slabs** so items leaked by a crash between
//!   allocate-and-link (or unlink-and-free) are reclaimed at recovery →
//!   [`NvMemcached`]. The active-slab table is exactly the NV-epochs
//!   active-page table: items are slab(page)-allocated nodes.
//!
//! # Substitutions (documented in DESIGN.md)
//!
//! The comparison is in-process: the network stack is identical across
//! the three systems in the paper's setup, so an in-process driver
//! ([`memtier`]) preserves the comparison's shape. Keys and values are
//! 8 bytes as in the paper's data-structure experiments (§6.1); larger
//! values are accommodated by indirection, as the paper notes.

#![warn(missing_docs)]

mod evict;
pub mod memtier;
pub mod reshard;
pub mod sharded;

use std::collections::HashMap;
use std::sync::Arc;

use linkcache::{LinkCache, LinkCacheStats};
use logfree::{HashTable, LinkOps};
use nvalloc::{NvDomain, OutOfMemory, RecoveryReport, ThreadCtx};
use parking_lot::Mutex;
use pmem::{Flusher, PmemPool};

use crate::evict::Clock;
use crate::memtier::{MemtierCache, ReqOutcome, Request};

pub use crate::reshard::{
    ReshardError, ReshardProgress, ReshardStats, TopologyStats, RESHARD_STATE_ROOT,
};
pub use crate::sharded::{GeometryError, ShardedCtx, ShardedNvMemcached};

/// Root-directory slot used by the NV-Memcached hash table.
pub const NVMC_ROOT: usize = 8;

/// Auto-grow threshold: when the (approximate) item count exceeds this
/// many items per bucket, `set`/`add` kick off an incremental grow.
/// Memcached's own hash expands at 1.5 items per bucket; chains here are
/// cheap lock-free lists, so the trigger is laxer.
const GROW_ITEMS_PER_BUCKET: usize = 8;

/// Auto-grow factor: quadruple the bucket array each time, so repeated
/// doubling churn is avoided under a steadily filling cache.
const GROW_FACTOR: usize = 4;

/// The durable cache. One `NvMemcached` is exactly one *shard*: it owns
/// its pool, allocation domain, hash table and eviction clock, and
/// [`sharded::ShardedNvMemcached`] composes N of them behind a routing
/// hash.
pub struct NvMemcached {
    domain: Arc<NvDomain>,
    table: HashTable,
    /// Soft item capacity; beyond it, new keys evict unreferenced ones.
    capacity: usize,
    /// CLOCK reference bits over the heap's slots + item accounting,
    /// batched per thread (volatile; like memcached's LRU it is advisory,
    /// not exact).
    clock: Clock,
}

impl NvMemcached {
    /// Creates a fresh cache over `pool` with `n_buckets` buckets and a
    /// soft capacity of `capacity` items. Pass `use_link_cache` to enable
    /// the link cache on the underlying table.
    pub fn create(
        pool: Arc<PmemPool>,
        n_buckets: usize,
        capacity: usize,
        use_link_cache: bool,
    ) -> Result<Self, OutOfMemory> {
        let domain = NvDomain::create(Arc::clone(&pool));
        let lc = use_link_cache.then(|| {
            Arc::new(LinkCache::with_default_size(Arc::clone(&pool), logfree::marked::DIRTY))
        });
        let ops = LinkOps::new(Arc::clone(&pool), lc);
        let table = HashTable::create(&domain, NVMC_ROOT, n_buckets, ops)?;
        Ok(Self { domain, table, capacity, clock: Clock::new(&pool, 0) })
    }

    /// Re-attaches to a crashed cache image, repairs the table, and frees
    /// items leaked between allocate/link or unlink/free (the active-slab
    /// scan of §6.5). A resize caught in flight by the crash is rolled
    /// forward to completion before the cache is returned, so callers
    /// always get a steady-state table; a pool with no room left to finish
    /// it is an [`OutOfMemory`] error. Returns the recovery report.
    pub fn recover(
        pool: Arc<PmemPool>,
        capacity: usize,
    ) -> Result<(Self, RecoveryReport), OutOfMemory> {
        let domain = NvDomain::attach(Arc::clone(&pool));
        let ops = LinkOps::new(Arc::clone(&pool), None);
        let table = HashTable::attach(&domain, NVMC_ROOT, ops);
        let mut flusher = pool.flusher();
        let (_, _, live) = table.recover(&mut flusher);
        // Leak scan before any allocation; the oracle consults both
        // bucket arrays of a mid-resize image.
        let report = domain.recover_leaks(|addr| table.contains_node_at(addr));
        let mut ctx = domain.register();
        table.finish_resize(&mut ctx)?;
        ctx.drain_all();
        table.sweep_orphan_regions(&mut ctx);
        drop(ctx);
        let clock = Clock::new(&pool, live as usize);
        Ok((Self { domain, table, capacity, clock }, report))
    }

    /// The allocation domain (register worker threads here).
    pub fn domain(&self) -> &Arc<NvDomain> {
        &self.domain
    }

    /// Registers the calling worker thread.
    ///
    /// With a link cache, the context flushes it before every APT trim:
    /// §5.4 lets a trim drop a page only when no cached (still volatile)
    /// link points into it, or a crash would strand the node behind that
    /// link where recovery never scans.
    pub fn register(&self) -> ThreadCtx {
        let mut ctx = self.domain.register();
        if let Some(lc) = self.table.ops().link_cache() {
            let lc = Arc::clone(lc);
            ctx.set_trim_hook(Box::new(move |f| lc.flush_all(f)));
        }
        ctx
    }

    /// Item count (exact when the cache is quiescent).
    pub fn len(&self) -> usize {
        self.clock.len()
    }

    /// Evictions made so far.
    pub fn evictions(&self) -> u64 {
        self.clock.evictions()
    }

    /// Counters of this shard's link cache (all zero without one).
    pub fn link_cache_stats(&self) -> LinkCacheStats {
        self.table.ops().link_cache().map(|lc| lc.stats()).unwrap_or_default()
    }

    /// Bucket count the table is heading towards (the new array's while a
    /// resize is in flight, the current array's otherwise).
    pub fn capacity_hint(&self) -> usize {
        self.table.capacity_hint()
    }

    /// Whether a resize is currently in flight on the underlying table.
    pub fn resize_in_flight(&self) -> bool {
        self.table.resize_in_flight()
    }

    /// Starts an incremental grow of the bucket array by `factor`
    /// (rounded up to a power of two). Returns `Ok(false)` if a resize is
    /// already in flight. Ops keep serving while the migration proceeds;
    /// call [`NvMemcached::finish_resize`] to drive it to completion
    /// eagerly.
    pub fn grow(&self, ctx: &mut ThreadCtx, factor: usize) -> Result<bool, OutOfMemory> {
        self.table.grow(ctx, factor)
    }

    /// Drives any in-flight resize to completion. Returns whether one was
    /// in flight.
    pub fn finish_resize(&self, ctx: &mut ThreadCtx) -> Result<bool, OutOfMemory> {
        self.table.finish_resize(ctx)
    }

    /// Kicks off a background-style grow when the load factor passes
    /// [`GROW_ITEMS_PER_BUCKET`]. Best effort: refused while a resize is
    /// already in flight, and an out-of-memory grow just leaves the table
    /// denser (the cache still works, chains are merely longer).
    fn maybe_grow(&self, ctx: &mut ThreadCtx) {
        let items = self.clock.approx_len(ctx.tid()).max(0) as usize;
        if items > self.table.capacity_hint().saturating_mul(GROW_ITEMS_PER_BUCKET) {
            let _ = self.table.grow(ctx, GROW_FACTOR);
        }
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `key -> value` (memcached `set`: upsert) in one atomic
    /// durable step: a `get` concurrent with a `set` of a present key
    /// never misses, and no crash image lacks the key. A new key evicts
    /// unreferenced keys, in the clock hand's order, until the count is
    /// back at the soft capacity; an overwrite leaves the count alone.
    pub fn set(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<(), OutOfMemory> {
        if self.table.upsert(ctx, key, value)?.is_none() {
            self.note_new_item(ctx);
        }
        Ok(())
    }

    /// Accounting after a key went from absent to present.
    fn note_new_item(&self, ctx: &mut ThreadCtx) {
        let tid = ctx.tid();
        self.clock.add(tid, 1);
        let heap = self.domain.heap();
        self.clock.enforce(tid, self.capacity, heap, |node| self.table.evict_at(ctx, node));
        self.maybe_grow(ctx);
    }

    /// Fetches `key` (memcached `get`). A hit sets the key's reference
    /// bit, which spares it the next pass of the eviction hand.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let (value, node) = self.table.get_node(ctx, key)?;
        self.clock.touch(node);
        Some(value)
    }

    /// Deletes `key` (memcached `delete`).
    pub fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let v = self.table.remove(ctx, key);
        if v.is_some() {
            self.clock.add(ctx.tid(), -1);
        }
        v
    }

    /// Memcached `add`: stores only if the key is absent. Returns whether
    /// the value was stored.
    pub fn add(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        let stored = self.table.insert(ctx, key, value)?;
        if stored {
            self.note_new_item(ctx);
        }
        Ok(stored)
    }

    /// Memcached `replace`: stores only if the key is present, with the
    /// atomicity of [`Self::set`]. Returns whether the value was stored.
    pub fn replace(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        Ok(self.table.replace(ctx, key, value)?.is_some())
    }

    /// Durability barrier: flush any link-cache residue (used before
    /// planned shutdowns and by tests).
    pub fn quiesce(&self, flusher: &mut Flusher) {
        self.table.ops().flush_link_cache(flusher);
    }

    /// Reachability oracle over the underlying table (§5.5), exposed for
    /// the crashtest subsystem's post-recovery leak audits.
    pub fn contains_node_at(&self, addr: usize) -> bool {
        self.table.contains_node_at(addr)
    }

    /// Quiescent snapshot (test support).
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.table.snapshot()
    }
}

/// Stock Memcached model: one global lock around a sequential hash table
/// (memcached shards this lock, but the data structure is sequential —
/// the paper's point of comparison).
#[derive(Default)]
pub struct VolatileMemcached {
    map: Mutex<HashMap<u64, u64>>,
}

impl VolatileMemcached {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `key -> value`.
    pub fn set(&self, key: u64, value: u64) {
        self.map.lock().insert(key, value);
    }

    /// Fetches `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.lock().get(&key).copied()
    }

    /// Deletes `key`.
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.map.lock().remove(&key)
    }

    /// Item count.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// memcached-clht model: the same lock-free hash table, volatile (no
/// durability work at all — the pool is in [`pmem::Mode::Volatile`]).
pub struct ClhtMemcached {
    domain: Arc<NvDomain>,
    table: HashTable,
}

impl ClhtMemcached {
    /// Creates a volatile lock-free cache with `n_buckets` buckets.
    pub fn create(pool: Arc<PmemPool>, n_buckets: usize) -> Result<Self, OutOfMemory> {
        assert_eq!(pool.mode(), pmem::Mode::Volatile, "clht model must use a volatile pool");
        let domain = NvDomain::create(Arc::clone(&pool));
        let ops = LinkOps::new(Arc::clone(&pool), None);
        let table = HashTable::create(&domain, NVMC_ROOT, n_buckets, ops)?;
        Ok(Self { domain, table })
    }

    /// Registers the calling worker thread.
    pub fn register(&self) -> ThreadCtx {
        self.domain.register()
    }

    /// Stores `key -> value` (upsert).
    pub fn set(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<(), OutOfMemory> {
        self.table.upsert(ctx, key, value).map(|_| ())
    }

    /// Fetches `key`.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.table.get(ctx, key)
    }

    /// Deletes `key`.
    pub fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.table.remove(ctx, key)
    }
}

impl MemtierCache for NvMemcached {
    type Conn = ThreadCtx;

    fn connect(&self) -> ThreadCtx {
        self.register()
    }

    fn exec(&self, ctx: &mut ThreadCtx, req: Request) -> ReqOutcome {
        memtier::exec_kv(
            ctx,
            req,
            |c, k, v| self.set(c, k, v).expect("pool sized for workload"),
            |c, k| self.get(c, k).is_some(),
        )
    }
}

impl MemtierCache for ClhtMemcached {
    type Conn = ThreadCtx;

    fn connect(&self) -> ThreadCtx {
        self.register()
    }

    fn exec(&self, ctx: &mut ThreadCtx, req: Request) -> ReqOutcome {
        memtier::exec_kv(
            ctx,
            req,
            |c, k, v| self.set(c, k, v).expect("pool sized for workload"),
            |c, k| self.get(c, k).is_some(),
        )
    }
}

impl MemtierCache for VolatileMemcached {
    /// No per-thread state: the lock is the connection.
    type Conn = ();

    fn connect(&self) {}

    fn exec(&self, conn: &mut (), req: Request) -> ReqOutcome {
        memtier::exec_kv(conn, req, |_, k, v| self.set(k, v), |_, k| self.get(k).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{LatencyModel, Mode, PoolBuilder};
    use std::collections::HashSet;

    #[test]
    fn set_get_delete_round_trip() {
        let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).build();
        let mc = NvMemcached::create(pool, 256, 10_000, false).unwrap();
        let mut ctx = mc.register();
        mc.set(&mut ctx, 1, 10).unwrap();
        mc.set(&mut ctx, 2, 20).unwrap();
        assert_eq!(mc.get(&mut ctx, 1), Some(10));
        // Upsert replaces.
        mc.set(&mut ctx, 1, 11).unwrap();
        assert_eq!(mc.get(&mut ctx, 1), Some(11));
        assert_eq!(mc.delete(&mut ctx, 2), Some(20));
        assert_eq!(mc.get(&mut ctx, 2), None);
        assert_eq!(mc.len(), 1);
    }

    #[test]
    fn eviction_bounds_size() {
        let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).build();
        let mc = NvMemcached::create(pool, 256, 100, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=500u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        assert!(mc.len() <= 101, "capacity respected (len = {})", mc.len());
    }

    #[test]
    fn clock_spares_referenced_keys_and_evicts_in_hand_order() {
        let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build();
        let mc = NvMemcached::create(pool, 256, 100, false).unwrap();
        let mut ctx = mc.register();
        let read_hot = |ctx: &mut ThreadCtx| {
            for k in 1..=10u64 {
                assert_eq!(mc.get(ctx, k), Some(k), "hot key {k} was read since the last pass");
            }
        };
        let present = || mc.snapshot().iter().map(|&(k, _)| k).collect::<HashSet<u64>>();
        for k in 1..=100u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        let mut next = 101u64;
        for batch in 1..=100u64 {
            read_hot(&mut ctx);
            for _ in 0..10 {
                mc.set(&mut ctx, next, next).unwrap();
                next += 1;
            }
            if batch <= 3 {
                // First lap: the cold keys sit in the slots they were
                // allocated in, in insertion order behind the hot keys'
                // slots, so the hand takes them oldest first.
                let expect: HashSet<u64> = (1..=10).chain(11 + batch * 10..next).collect();
                assert_eq!(present(), expect, "batch {batch}");
            }
        }
        read_hot(&mut ctx);
        assert_eq!((mc.len(), mc.evictions()), (100, 1000));
        assert_eq!(present().len(), 100);
    }

    #[test]
    fn evict_at_refuses_slots_that_no_longer_hold_their_key() {
        let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build();
        let mc = NvMemcached::create(pool, 256, 1000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=4u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        let node = |ctx: &mut ThreadCtx, k| mc.table.get_node(ctx, k).unwrap().1;
        let (replaced, deleted, freed) = (node(&mut ctx, 1), node(&mut ctx, 2), node(&mut ctx, 3));
        mc.set(&mut ctx, 1, 10).unwrap();
        assert_eq!(mc.delete(&mut ctx, 2), Some(2));
        let refuses = |ctx: &mut ThreadCtx, addr, what: &str| {
            let before = (mc.snapshot(), mc.len());
            assert!(!mc.table.evict_at(ctx, addr), "evicted {what}");
            assert_eq!((mc.snapshot(), mc.len()), before, "{what} changed the cache");
        };
        refuses(&mut ctx, replaced, "the old node of a replaced key");
        refuses(&mut ctx, deleted, "a deleted node awaiting reclamation");
        assert_eq!(mc.delete(&mut ctx, 3), Some(3));
        ctx.drain_all();
        refuses(&mut ctx, freed, "a freed slot");
        // The live node of a key is evicted.
        let live = node(&mut ctx, 4);
        assert!(mc.table.evict_at(&mut ctx, live));
        assert_eq!(mc.get(&mut ctx, 4), None);
    }

    #[test]
    fn concurrent_inserts_keep_exact_accounting() {
        const THREADS: u64 = 4;
        const KEYS: u64 = 2000;
        let pool = PoolBuilder::new(64 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build();
        let mc = NvMemcached::create(pool, 1024, 1000, false).unwrap();
        let ctxs: Vec<ThreadCtx> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let mc = &mc;
                    s.spawn(move || {
                        let mut ctx = mc.register();
                        for k in t * KEYS + 1..=(t + 1) * KEYS {
                            assert!(mc.add(&mut ctx, k, k).unwrap(), "key {k} is distinct");
                            mc.replace(&mut ctx, k, k + 1).unwrap();
                        }
                        ctx
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for mut ctx in ctxs {
            ctx.drain_all();
        }
        assert_eq!(mc.domain().count_unreachable(|a| mc.contains_node_at(a)), 0, "leaked nodes");
        let mut ctx = mc.register();
        let snap = mc.snapshot();
        assert_eq!(mc.evictions() + mc.len() as u64, THREADS * KEYS);
        assert_eq!(snap.len(), mc.len());
        for (k, v) in snap {
            assert_eq!(v, k + 1, "key {k} holds its last value");
            assert_eq!(mc.get(&mut ctx, k), Some(k + 1));
        }
    }

    #[test]
    fn crash_right_after_the_first_apt_trim_leaks_nothing() {
        // Distinct keys with the link cache on, enough buckets that no
        // grow runs. The set whose allocation takes the APT row past its
        // trim threshold trims at its `end_op`; every cached link must be
        // durable before that trim drops the link's page from the row.
        let pool =
            PoolBuilder::new(64 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
        {
            let mc = NvMemcached::create(Arc::clone(&pool), 1 << 14, 1_000_000, true).unwrap();
            let mut ctx = mc.register();
            let mut key = 0;
            loop {
                key += 1;
                mc.set(&mut ctx, key, key).unwrap();
                let s = ctx.apt_stats();
                if s.alloc_misses + s.unlink_misses > nvalloc::APT_TRIM_THRESHOLD as u64 {
                    break;
                }
            }
            let active = nvalloc::apt::active_pages(&pool).expect("no overflow").len();
            assert!(active < nvalloc::APT_TRIM_THRESHOLD, "the last set trimmed ({active} left)");
            // Crash once the trim's write-backs are durable: at the
            // thread's next fence.
            ctx.flusher.fence();
        }
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
        let (mc, report) = NvMemcached::recover(Arc::clone(&pool), 1_000_000).unwrap();
        assert!(!report.used_full_scan);
        let leaked = mc.domain().count_unreachable(|addr| mc.contains_node_at(addr));
        assert_eq!(leaked, 0, "a node behind a cached link sat in a trimmed page");
    }

    #[test]
    fn completed_sets_survive_crash() {
        let pool =
            PoolBuilder::new(32 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
        {
            let mc = NvMemcached::create(Arc::clone(&pool), 128, 100_000, false).unwrap();
            let mut ctx = mc.register();
            for k in 1..=200u64 {
                mc.set(&mut ctx, k, k * 2).unwrap();
            }
            for k in 1..=50u64 {
                mc.delete(&mut ctx, k);
            }
        }
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
        let (mc2, report) = NvMemcached::recover(Arc::clone(&pool), 100_000).unwrap();
        assert!(!report.used_full_scan);
        let mut ctx = mc2.register();
        for k in 1..=50u64 {
            assert_eq!(mc2.get(&mut ctx, k), None, "deleted key {k} stayed deleted");
        }
        for k in 51..=200u64 {
            assert_eq!(mc2.get(&mut ctx, k), Some(k * 2), "key {k} recovered");
        }
        assert_eq!(mc2.len(), 150);
        // The recovered instance keeps serving.
        mc2.set(&mut ctx, 9999, 1).unwrap();
        assert_eq!(mc2.get(&mut ctx, 9999), Some(1));
    }

    #[test]
    fn cache_auto_grows_under_load() {
        let pool = PoolBuilder::new(64 << 20).mode(Mode::Perf).build();
        let mc = NvMemcached::create(pool, 16, 1_000_000, false).unwrap();
        let mut ctx = mc.register();
        assert_eq!(mc.capacity_hint(), 16);
        for k in 1..=2000u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        mc.finish_resize(&mut ctx).unwrap();
        assert!(
            mc.capacity_hint() > 16,
            "load factor triggered a grow (hint = {})",
            mc.capacity_hint()
        );
        for k in 1..=2000u64 {
            assert_eq!(mc.get(&mut ctx, k), Some(k), "key {k} survived the auto-grow");
        }
    }

    #[test]
    fn crash_mid_grow_recovers_rolled_forward() {
        let pool =
            PoolBuilder::new(64 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
        {
            let mc = NvMemcached::create(Arc::clone(&pool), 16, 100_000, false).unwrap();
            let mut ctx = mc.register();
            for k in 1..=300u64 {
                mc.set(&mut ctx, k, k * 2).unwrap();
            }
            // Either the auto-grow is still migrating or this starts a
            // fresh one; both ways a resize is now in flight.
            let _ = mc.grow(&mut ctx, 4).unwrap();
            assert!(mc.resize_in_flight());
        }
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
        let (mc2, report) = NvMemcached::recover(Arc::clone(&pool), 100_000).unwrap();
        assert!(!report.used_full_scan);
        assert!(!mc2.resize_in_flight(), "recovery rolled the crashed resize forward");
        let mut ctx = mc2.register();
        for k in 1..=300u64 {
            assert_eq!(mc2.get(&mut ctx, k), Some(k * 2), "key {k} survived the crashed grow");
        }
        assert_eq!(mc2.len(), 300);
        mc2.set(&mut ctx, 9999, 1).unwrap();
        assert_eq!(mc2.get(&mut ctx, 9999), Some(1));
    }

    #[test]
    fn add_and_replace_semantics() {
        let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).build();
        let mc = NvMemcached::create(pool, 256, 10_000, false).unwrap();
        let mut ctx = mc.register();
        assert!(mc.add(&mut ctx, 1, 10).unwrap(), "add to empty slot stores");
        assert!(!mc.add(&mut ctx, 1, 11).unwrap(), "add to occupied slot refuses");
        assert_eq!(mc.get(&mut ctx, 1), Some(10));
        assert!(mc.replace(&mut ctx, 1, 12).unwrap(), "replace of present key stores");
        assert_eq!(mc.get(&mut ctx, 1), Some(12));
        assert!(!mc.replace(&mut ctx, 2, 20).unwrap(), "replace of absent key refuses");
        assert_eq!(mc.get(&mut ctx, 2), None);
        assert_eq!(mc.len(), 1);
    }

    #[test]
    fn volatile_models_work() {
        let v = VolatileMemcached::new();
        v.set(1, 10);
        assert_eq!(v.get(1), Some(10));
        assert_eq!(v.delete(1), Some(10));
        assert!(v.is_empty());

        let pool = PoolBuilder::new(16 << 20).mode(Mode::Volatile).build();
        let c = ClhtMemcached::create(pool, 64).unwrap();
        let mut ctx = c.register();
        c.set(&mut ctx, 1, 10).unwrap();
        c.set(&mut ctx, 1, 11).unwrap();
        assert_eq!(c.get(&mut ctx, 1), Some(11));
        assert_eq!(c.delete(&mut ctx, 1), Some(11));
    }

    #[test]
    fn concurrent_cache_traffic() {
        let pool = PoolBuilder::new(128 << 20).mode(Mode::Perf).build();
        let mc = NvMemcached::create(pool, 1024, 1_000_000, false).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mc = &mc;
                s.spawn(move || {
                    let mut ctx = mc.register();
                    for i in 0..4000u64 {
                        let k = (t * 4000 + i) % 3000 + 1;
                        if i % 5 == 0 {
                            mc.set(&mut ctx, k, t).unwrap();
                        } else {
                            let _ = mc.get(&mut ctx, k);
                        }
                    }
                });
            }
        });
    }
}
