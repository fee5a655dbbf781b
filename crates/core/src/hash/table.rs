//! The resize-aware table: creation/attachment, the routing loop that
//! decides which bucket array an operation targets, and the quiescent
//! recovery fixup + oracles. The resize machinery itself lives in
//! [`super::resize`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use nvalloc::{NvDomain, OutOfMemory, ThreadCtx};
use pmem::Flusher;

use super::{bucket_index, bucket_link_at, HDR_BYTES, H_CUR, H_CURSOR, H_NEW};
use crate::list::{self, Lookup, Put, PutMode, Removed};
use crate::marked::{addr_of, bare, clean, is_deleted, is_dirty, is_tagged};
use crate::ops::LinkOps;

/// Number of volatile stripe locks serialising per-bucket migration.
pub(super) const N_STRIPES: usize = 16;

/// A crash image whose table geometry cannot be trusted.
///
/// Returned by [`HashTable::try_attach`] when the root header or one of
/// the bucket-array regions it references is torn (e.g. a new array was
/// published but its geometry word never became durable). Recovery must
/// reject such an image rather than walk wild pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// The root slot does not point inside the pool's heap area.
    MissingHeader {
        /// The rejected root value.
        root: usize,
    },
    /// A referenced bucket-array region has an invalid bucket count.
    BadArray {
        /// Data address of the rejected array region.
        addr: usize,
        /// The bucket-count word found there.
        n_buckets: u64,
    },
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingHeader { root } => {
                write!(f, "hash-table root {root:#x} does not point at a header region")
            }
            Self::BadArray { addr, n_buckets } => {
                write!(f, "bucket array at {addr:#x} has invalid bucket count {n_buckets}")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// Durable lock-free hash table with non-blocking incremental resize.
pub struct HashTable {
    pub(super) ops: LinkOps,
    /// Address of the header region data: `[CUR][NEW][CURSOR]`.
    pub(super) hdr: usize,
    /// Serialises grow/commit transitions (volatile; rebuilt at attach).
    pub(super) resize_lock: Mutex<()>,
    /// Serialises migration per bucket (volatile). Gets never take these.
    pub(super) stripes: [Mutex<()>; N_STRIPES],
    /// Test-only mutation hook: when set, resize-state header updates are
    /// stored without any write-back (see the crashtest mutation test).
    pub(super) omit_resize_word_flush: AtomicBool,
}

impl std::fmt::Debug for HashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashTable")
            .field("hdr", &format_args!("{:#x}", self.hdr))
            .field("n_buckets", &self.n_buckets())
            .field("resize_in_flight", &self.resize_in_flight())
            .finish()
    }
}

impl HashTable {
    fn build(ops: LinkOps, hdr: usize) -> Self {
        Self {
            ops,
            hdr,
            resize_lock: Mutex::new(()),
            stripes: std::array::from_fn(|_| Mutex::new(())),
            omit_resize_word_flush: AtomicBool::new(false),
        }
    }

    /// Creates a table with `n_buckets` buckets (rounded up to a power of
    /// two), anchored at root slot `root_idx`.
    pub fn create(
        domain: &NvDomain,
        root_idx: usize,
        n_buckets: usize,
        ops: LinkOps,
    ) -> Result<Self, OutOfMemory> {
        let n_buckets = n_buckets.next_power_of_two();
        let pool = domain.pool();
        let mut flusher = pool.flusher();
        let arr = domain.heap().alloc_region(8 + n_buckets * 8, &mut flusher)?;
        pool.atomic_u64(arr).store(n_buckets as u64, Ordering::Release);
        flusher.persist(arr, 8);
        let hdr = domain.heap().alloc_region(HDR_BYTES, &mut flusher)?;
        pool.atomic_u64(hdr + H_CUR).store(arr as u64, Ordering::Release);
        pool.atomic_u64(hdr + H_NEW).store(0, Ordering::Release);
        pool.atomic_u64(hdr + H_CURSOR).store(0, Ordering::Release);
        flusher.persist(hdr, HDR_BYTES);
        pool.set_root(root_idx, hdr as u64, &mut flusher);
        Ok(Self::build(ops, hdr))
    }

    /// Re-attaches after a crash to the table anchored at `root_idx`,
    /// validating the durable geometry first. Run [`Self::recover`] (and
    /// then [`Self::finish_resize`]) before serving operations.
    pub fn try_attach(
        domain: &NvDomain,
        root_idx: usize,
        ops: LinkOps,
    ) -> Result<Self, GeometryError> {
        let pool = domain.pool();
        let hdr = pool.root(root_idx) as usize;
        if hdr < pool.heap_start() || hdr + HDR_BYTES > pool.heap_end() {
            return Err(GeometryError::MissingHeader { root: hdr });
        }
        let t = Self::build(ops, hdr);
        let cur = t.load_bare(H_CUR);
        t.validate_array(cur)?;
        let new = t.load_bare(H_NEW);
        if new != 0 && new != cur {
            t.validate_array(new)?;
        }
        Ok(t)
    }

    /// Infallible [`Self::try_attach`] for images known to be well formed.
    pub fn attach(domain: &NvDomain, root_idx: usize, ops: LinkOps) -> Self {
        Self::try_attach(domain, root_idx, ops).expect("valid hash-table geometry")
    }

    fn validate_array(&self, arr: usize) -> Result<usize, GeometryError> {
        let pool = self.ops.pool();
        let bad = |n| GeometryError::BadArray { addr: arr, n_buckets: n };
        // Checked arithmetic throughout: a torn header word can hold any
        // bit pattern, and rejecting it must not overflow-panic.
        let in_heap = |end: Option<usize>| end.is_some_and(|e| e <= pool.heap_end());
        if arr < pool.heap_start() || !in_heap(arr.checked_add(8)) {
            return Err(bad(0));
        }
        let n = pool.atomic_u64(arr).load(Ordering::Acquire);
        let nb = n as usize;
        let end = nb.checked_mul(8).and_then(|b| b.checked_add(arr + 8));
        if nb == 0 || !nb.is_power_of_two() || !in_heap(end) {
            return Err(bad(n));
        }
        Ok(nb)
    }

    /// The persistence engine.
    pub fn ops(&self) -> &LinkOps {
        &self.ops
    }

    /// Bare (mark-stripped) value of header word `off`, without helping.
    #[inline]
    pub(super) fn load_bare(&self, off: usize) -> usize {
        bare(self.ops.load(self.hdr + off)) as usize
    }

    /// Reads a header word, helping persist it if it is mid-publish.
    #[inline]
    pub(super) fn read_word(&self, off: usize, flusher: &mut Flusher) -> u64 {
        let addr = self.hdr + off;
        let w = self.ops.load(addr);
        bare(self.ops.ensure_durable(addr, w, flusher))
    }

    /// The `(cur, new)` array pair an operation should route through.
    /// `new == 0`: steady state. `new == cur`: committed, cleanup
    /// pending — route to `cur`. Otherwise a resize is in flight.
    #[inline]
    pub(super) fn geometry(&self, flusher: &mut Flusher) -> (usize, usize) {
        // NEW is read before CUR; either order is actually safe (a stale
        // CUR routes to a fully-sentineled array, which bubbles
        // `Migrated`, and epochs keep retired arrays mapped while any
        // operation is in flight), but reading the resize word first
        // minimises pointless stale-route retries.
        let new = self.read_word(H_NEW, flusher) as usize;
        let cur = self.read_word(H_CUR, flusher) as usize;
        (cur, new)
    }

    /// Whether `(cur, new)` still describe the table. Negative results
    /// (get miss, remove miss, insert pre-link) must re-check: a resize
    /// that started or finished mid-operation may have moved the key to
    /// an array the operation never searched.
    #[inline]
    fn geometry_unchanged(&self, cur: usize, new: usize, flusher: &mut Flusher) -> bool {
        let (c, n) = self.geometry(flusher);
        c == cur && n == new
    }

    /// Bucket count of the array region at `arr`.
    #[inline]
    pub(super) fn arr_n(&self, arr: usize) -> usize {
        self.ops.pool().atomic_u64(arr).load(Ordering::Acquire) as usize
    }

    /// The number of buckets operations are currently routed into: the
    /// destination array during a resize, the current array otherwise.
    /// **Resize-aware**: callers sizing anything from this value must
    /// treat it as a hint that can grow between calls, never as an
    /// immutable geometry fact.
    pub fn capacity_hint(&self) -> usize {
        let new = self.load_bare(H_NEW);
        let arr = if new != 0 { new } else { self.load_bare(H_CUR) };
        self.arr_n(arr)
    }

    /// Number of buckets (alias of [`Self::capacity_hint`]; kept for the
    /// pre-resize API).
    pub fn n_buckets(&self) -> usize {
        self.capacity_hint()
    }

    /// Whether a resize is currently in flight (including the
    /// committed-but-not-cleaned state).
    pub fn resize_in_flight(&self) -> bool {
        self.load_bare(H_NEW) != 0
    }

    /// Inserts `key -> value`; returns `Ok(false)` if the key existed.
    pub fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        Ok(self.put(ctx, key, value, PutMode::IfAbsent)? == Put::Inserted)
    }

    /// Stores `key -> value` whether or not the key exists; returns the
    /// value it replaced, if any. One search and one atomic durable step
    /// (see `list::put`): a concurrent [`Self::get`] and every crash image
    /// see the old value or the new one, never a missing key.
    pub fn upsert(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, OutOfMemory> {
        Ok(self.put(ctx, key, value, PutMode::Upsert)?.replaced())
    }

    /// Replaces the value of `key` only if it is present, with the same
    /// atomicity as [`Self::upsert`]; returns the old value, or `None`
    /// (and stores nothing) if the key was absent.
    pub fn replace(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, OutOfMemory> {
        Ok(self.put(ctx, key, value, PutMode::IfPresent)?.replaced())
    }

    /// Routes one `list::put` to the array `key` lives in; never returns
    /// [`Put::Migrated`].
    fn put(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: u64,
        mode: PutMode,
    ) -> Result<Put, OutOfMemory> {
        ctx.begin_op();
        let r = self.put_inner(ctx, key, value, mode);
        ctx.end_op();
        r
    }

    fn put_inner(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: u64,
        mode: PutMode,
    ) -> Result<Put, OutOfMemory> {
        loop {
            let (cur, new) = self.geometry(&mut ctx.flusher);
            let dest = if new == 0 || new == cur {
                cur
            } else {
                // Resize in flight: drain this key's old bucket first so
                // the key cannot live in both arrays, then lend a hand to
                // the in-order sweep.
                let b = bucket_index(key, self.arr_n(cur));
                self.ensure_migrated(ctx, cur, new, b)?;
                self.help_sweep(ctx, cur, new)?;
                new
            };
            let head = bucket_link_at(dest, bucket_index(key, self.arr_n(dest)));
            // The absence decision must still describe the live geometry
            // when the link is published (see `geometry_unchanged`).
            let guard = |f: &mut Flusher| self.geometry_unchanged(cur, new, f);
            match list::put(&self.ops, ctx, head, key, value, mode, guard)? {
                Put::Migrated => continue,
                // "Absent, nothing stored" is a negative result too.
                Put::Unchanged
                    if mode == PutMode::IfPresent
                        && !self.geometry_unchanged(cur, new, &mut ctx.flusher) =>
                {
                    continue
                }
                done => return Ok(done),
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = self.remove_inner(ctx, key, None);
        ctx.end_op();
        r
    }

    /// Removes the item whose node is at `addr`, if that node is still
    /// the one linked for its key; returns whether it removed it. For an
    /// eviction hand that walks the heap's slots rather than the keys:
    /// `addr` may hold a freed slot, a node a `set` replaced, a deleted
    /// node or no node at all, and each of those is refused. The slot is
    /// read inside one epoch op, so it cannot be freed and reused while
    /// its key is read and searched.
    pub fn evict_at(&self, ctx: &mut ThreadCtx, addr: usize) -> bool {
        ctx.begin_op();
        let w = self.ops.load(list::next_addr(addr));
        let key = list::key_at(&self.ops, addr);
        let removed = !is_deleted(w)
            && (list::MIN_KEY..=list::MAX_KEY).contains(&key)
            && self.remove_inner(ctx, key, Some(addr)).is_some();
        ctx.end_op();
        removed
    }

    /// Routes one `list::remove` (of the node at `at`, if given) to the
    /// array `key` lives in.
    fn remove_inner(&self, ctx: &mut ThreadCtx, key: u64, at: Option<usize>) -> Option<u64> {
        loop {
            let (cur, new) = self.geometry(&mut ctx.flusher);
            let dest = if new == 0 || new == cur {
                cur
            } else {
                let b = bucket_index(key, self.arr_n(cur));
                if self.ensure_migrated(ctx, cur, new, b).is_ok() {
                    // Best-effort help; a remove must not fail on OOM.
                    let _ = self.help_sweep(ctx, cur, new);
                    new
                } else {
                    // Cannot migrate (pool exhausted). A remove frees
                    // memory rather than consuming it, so fall back to
                    // removing in place: the failed drain un-claimed the
                    // chain and emptied its destinations, and `Migrated`
                    // bubbles if another thread's drain claims it first.
                    match list::remove(&self.ops, ctx, bucket_link_at(cur, b), key, at) {
                        Removed::Yes(v) => return Some(v),
                        Removed::Migrated => continue,
                        Removed::No => new,
                    }
                }
            };
            let head = bucket_link_at(dest, bucket_index(key, self.arr_n(dest)));
            match list::remove(&self.ops, ctx, head, key, at) {
                Removed::Yes(v) => return Some(v),
                Removed::Migrated => continue,
                Removed::No => {
                    if self.geometry_unchanged(cur, new, &mut ctx.flusher) {
                        return None;
                    }
                }
            }
        }
    }

    /// Looks up `key`. Fully lock-free: lookups never take stripe locks
    /// and never migrate; during a resize they read the old chain first,
    /// then the new one (the same direction moves travel, so a live key
    /// cannot be missed).
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.get_node(ctx, key).map(|(v, _)| v)
    }

    /// [`Self::get`] that also returns the address of the node it found.
    /// The node may be replaced or freed as soon as the call returns, so
    /// the address is a hint (an eviction hand's reference bit), never a
    /// pointer to dereference.
    pub fn get_node(&self, ctx: &mut ThreadCtx, key: u64) -> Option<(u64, usize)> {
        ctx.begin_op();
        let r = self.get_inner(ctx, key);
        ctx.end_op();
        r
    }

    fn get_inner(&self, ctx: &mut ThreadCtx, key: u64) -> Option<(u64, usize)> {
        loop {
            let (cur, new) = self.geometry(&mut ctx.flusher);
            if new == 0 || new == cur {
                let head = bucket_link_at(cur, bucket_index(key, self.arr_n(cur)));
                match list::get(&self.ops, ctx, head, key) {
                    Lookup::Found(v, node) => return Some((v, node)),
                    Lookup::Migrated => continue,
                    Lookup::Absent => {
                        if self.geometry_unchanged(cur, new, &mut ctx.flusher) {
                            return None;
                        }
                    }
                }
                continue;
            }
            // Resize in flight: old chain first, then new.
            let old_head = bucket_link_at(cur, bucket_index(key, self.arr_n(cur)));
            if let Lookup::Found(v, node) = list::get(&self.ops, ctx, old_head, key) {
                return Some((v, node));
            }
            let new_head = bucket_link_at(new, bucket_index(key, self.arr_n(new)));
            match list::get(&self.ops, ctx, new_head, key) {
                Lookup::Found(v, node) => return Some((v, node)),
                Lookup::Migrated => continue,
                Lookup::Absent => {
                    if self.geometry_unchanged(cur, new, &mut ctx.flusher) {
                        return None;
                    }
                }
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        self.get(ctx, key).is_some()
    }

    /// The live arrays: `cur` plus the in-flight destination, if any.
    pub(super) fn live_arrays(&self) -> (usize, Option<usize>) {
        let cur = self.load_bare(H_CUR);
        let new = self.load_bare(H_NEW);
        (cur, (new != 0 && new != cur).then_some(new))
    }

    /// Quiescent post-crash fixup: clears leftover dirty marks on the
    /// header words and every bucket chain of every live array, and
    /// completes pending unlinks; returns `(dirty_cleared, unlinked,
    /// live)` totals, where `live` is the number of keys the table holds.
    /// A half-migrated table is left half-migrated — run
    /// [`Self::finish_resize`] afterwards (after the leak scan) to roll
    /// it forward; that moves keys without changing `live`.
    pub fn recover(&self, flusher: &mut Flusher) -> (u64, u64, u64) {
        let pool = self.ops.pool();
        let mut dirty = 0;
        for off in [H_CUR, H_NEW, H_CURSOR] {
            let w = pool.atomic_u64(self.hdr + off).load(Ordering::Acquire);
            if is_dirty(w) {
                pool.atomic_u64(self.hdr + off).store(clean(w), Ordering::Release);
                flusher.clwb(self.hdr + off);
                dirty += 1;
            }
        }
        flusher.fence();
        let (mut unlinked, mut live) = (0, 0);
        let (cur, new) = self.live_arrays();
        let cur_n = self.arr_n(cur);
        for arr in std::iter::once(cur).chain(new) {
            for b in 0..self.arr_n(arr) {
                let (d, u, l) = list::recover_chain(&self.ops, bucket_link_at(arr, b), flusher);
                dirty += d;
                unlinked += u;
                // A key mid-move counts once: in the old array until its
                // bucket carries the drained sentinel (the roll-forward
                // re-drains it, replacing any copies), in the new one after.
                if arr == cur || is_tagged(self.ops.load(bucket_link_at(cur, b % cur_n))) {
                    live += l;
                }
            }
        }
        (dirty, unlinked, live)
    }

    fn chain_contains(&self, head: usize, addr: usize, key: u64) -> bool {
        let mut curr = addr_of(self.ops.load(head));
        while curr != 0 {
            let w = self.ops.load(list::next_addr(curr));
            if curr == addr {
                return !is_deleted(w);
            }
            if list::key_at(&self.ops, curr) > key {
                return false;
            }
            curr = addr_of(w);
        }
        false
    }

    /// §5.5 first-approach oracle: is there a node at exactly `addr`
    /// linked in the table? Mid-resize this consults the key's bucket in
    /// **both** arrays — a claimed original and its copy are both
    /// reachable until the drain detaches the old chain.
    pub fn contains_node_at(&self, addr: usize) -> bool {
        let key = self.ops.pool().atomic_u64(addr + list::KEY_OFF).load(Ordering::Acquire);
        let (cur, new) = self.live_arrays();
        if self.chain_contains(bucket_link_at(cur, bucket_index(key, self.arr_n(cur))), addr, key) {
            return true;
        }
        if let Some(new) = new {
            return self.chain_contains(
                bucket_link_at(new, bucket_index(key, self.arr_n(new))),
                addr,
                key,
            );
        }
        false
    }

    /// Reachability set over all buckets of all live arrays (§5.5 second
    /// approach).
    pub fn collect_reachable(&self) -> HashSet<usize> {
        let mut set = HashSet::new();
        let (cur, new) = self.live_arrays();
        for arr in std::iter::once(cur).chain(new) {
            for b in 0..self.arr_n(arr) {
                list::reachable_chain(&self.ops, bucket_link_at(arr, b), &mut set);
            }
        }
        set
    }

    /// Quiescent snapshot of live pairs (unordered across buckets).
    /// Mid-resize a key mid-move can appear twice — with the same value,
    /// since a claimed node cannot be replaced; after
    /// [`Self::finish_resize`] the snapshot is duplicate-free.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        let (cur, new) = self.live_arrays();
        for arr in std::iter::once(cur).chain(new) {
            for b in 0..self.arr_n(arr) {
                list::snapshot_chain(&self.ops, bucket_link_at(arr, b), &mut v);
            }
        }
        v
    }

    /// Routing containment check (quiescent): counts live nodes linked
    /// from a bucket their key does not hash to. Must be 0; the crashtest
    /// resize driver asserts this at every crash point.
    pub fn check_routing(&self) -> u64 {
        let mut bad = 0;
        let (cur, new) = self.live_arrays();
        for arr in std::iter::once(cur).chain(new) {
            let n = self.arr_n(arr);
            for b in 0..n {
                let mut curr = addr_of(self.ops.load(bucket_link_at(arr, b)));
                while curr != 0 {
                    let w = self.ops.load(list::next_addr(curr));
                    if !is_deleted(w) && bucket_index(list::key_at(&self.ops, curr), n) != b {
                        bad += 1;
                    }
                    curr = addr_of(w);
                }
            }
        }
        bad
    }
}

// SAFETY: all shared state lives in the pool and is accessed atomically;
// the volatile locks are std mutexes (Sync).
unsafe impl Send for HashTable {}
// SAFETY: see above.
unsafe impl Sync for HashTable {}
