//! The resize-aware table: creation/attachment, the routing loop that
//! decides which bucket array an operation targets, and the quiescent
//! recovery fixup + oracles. The resize machinery itself lives in
//! [`super::resize`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use nvalloc::{NvDomain, OutOfMemory, ThreadCtx};
use pmem::{Flusher, CACHE_LINE};

use super::{bucket_index, bucket_link_at, HDR_BYTES, H_CUR, H_NEW};
use crate::list::{self, Lookup, Put, PutMode, Removed};
use crate::marked::{addr_of, bare, clean, is_deleted, is_dirty, is_tagged};
use crate::ops::LinkOps;
use crate::walk::Reached;
use crate::RestartReport;

/// Number of volatile stripe locks serialising per-bucket migration.
pub(super) const N_STRIPES: usize = 16;

/// Keys whose chains [`HashTable::prefetch`] walks together.
const PREFETCH_GROUP: usize = 16;

/// Nodes of each chain [`HashTable::prefetch`] warms at most. A grown
/// table holds 2–8 items a bucket, so most hits are among a chain's
/// first four nodes.
const PREFETCH_DEPTH: usize = 4;

/// Prefetches the cache line holding `addr`. A hint: it cannot fault,
/// whatever `addr` is, and it changes no memory.
#[inline]
fn prefetch_line(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and writes nothing.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(addr as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as above; `prfm` neither faults nor writes.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) addr, options(nostack, readonly, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = addr;
}

/// Prefetches the list node at `node` (none at 0): both of its lines
/// when it spans two.
#[inline]
fn prefetch_node(node: usize) {
    if node != 0 {
        prefetch_line(node);
        let last = node + list::NODE_SIZE - 1;
        if last / CACHE_LINE != node / CACHE_LINE {
            prefetch_line(last);
        }
    }
}

/// Why a structure's `restart` refused a crash image.
///
/// Mostly a torn geometry: the root header or one of the bucket-array
/// regions it references cannot be trusted (e.g. a new array was
/// published but its geometry word never became durable), or a chain
/// loops. Recovery rejects such an image rather than walk wild pointers
/// or walk forever.
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
    /// The pool has no room to finish the resize the crash interrupted.
    ResizeFull,
    /// The chain anchored at the link word `at` (a bucket word, a list's
    /// root slot, a skip list's level 0) holds more nodes than the heap
    /// has node slots: it loops.
    Cycle {
        /// Address of the chain's anchor.
        at: usize,
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
            Self::ResizeFull => write!(f, "no room in the pool to finish the interrupted resize"),
            Self::Cycle { at } => write!(f, "the chain anchored at {at:#x} loops"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Durable lock-free hash table with non-blocking incremental resize.
pub struct HashTable {
    pub(super) ops: LinkOps,
    /// Address of the header region data: `[CUR][NEW]`.
    pub(super) hdr: usize,
    /// Serialises grow/commit transitions (volatile; rebuilt at attach).
    pub(super) resize_lock: Mutex<()>,
    /// Serialises migration per bucket (volatile). Gets never take these.
    pub(super) stripes: [Mutex<()>; N_STRIPES],
    /// Next old-bucket index of the resize's helping sweep. Advisory:
    /// commit and recovery check every bucket's sentinel instead.
    pub(super) sweep: AtomicUsize,
    /// Set by [`Self::seal`], before a drain-out: it never grows again.
    pub(super) sealed: AtomicBool,
    /// Test-only mutation hook: when set, resize-state header updates are
    /// stored without any write-back (see the crashtest mutation test).
    pub(super) omit_resize_word_flush: AtomicBool,
}

impl std::fmt::Debug for HashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashTable")
            .field("hdr", &format_args!("{:#x}", self.hdr))
            .field("capacity_hint", &self.capacity_hint())
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
            sweep: AtomicUsize::new(0),
            sealed: AtomicBool::new(false),
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
        flusher.persist(hdr, HDR_BYTES);
        pool.set_root(root_idx, hdr as u64, &mut flusher);
        Ok(Self::build(ops, hdr))
    }

    /// Re-attaches after a crash to the table anchored at `root_idx`,
    /// validating the durable geometry first.
    fn try_attach(domain: &NvDomain, root_idx: usize, ops: LinkOps) -> Result<Self, GeometryError> {
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
    pub(super) fn geometry_unchanged(&self, cur: usize, new: usize, flusher: &mut Flusher) -> bool {
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

    /// Whether a resize is currently in flight (including the
    /// committed-but-not-cleaned state).
    pub fn resize_in_flight(&self) -> bool {
        self.load_bare(H_NEW) != 0
    }

    /// Inserts `key -> value`; returns `Ok(false)` if the key existed.
    ///
    /// This and the other plain operations read a key whose bucket was
    /// drained out ([`Self::drain_out`]) as absent and store nothing
    /// there; [`Self::put`], [`Self::take`] and [`Self::lookup`] tell the
    /// two apart.
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

    /// Routes one `list::put` to the array `key` lives in. Returns
    /// [`Put::Moved`] only when the key's bucket was drained out.
    pub fn put(
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

    pub(super) fn put_inner(
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
            let b = bucket_index(key, self.arr_n(dest));
            // The absence decision must still describe the live geometry
            // when the link is published (see `geometry_unchanged`).
            let guard = |f: &mut Flusher| self.geometry_unchanged(cur, new, f);
            match list::put(&self.ops, ctx, bucket_link_at(dest, b), key, value, mode, guard)? {
                Put::Moved if self.moved_out(dest, b, cur, new, &mut ctx.flusher) => {
                    return Ok(Put::Moved)
                }
                Put::Moved => continue,
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

    /// After a list operation at bucket `b` of `arr` under geometry
    /// `(cur, new)` reported `Moved`: whether the bucket was drained out
    /// of the table (steady geometry, still current, sentinel at the
    /// head). A drain-out still claiming the bucket is waited out on its
    /// stripe, and the caller retries.
    fn moved_out(&self, arr: usize, b: usize, cur: usize, new: usize, f: &mut Flusher) -> bool {
        if (new != 0 && new != cur) || !self.geometry_unchanged(cur, new, f) {
            return false;
        }
        if is_tagged(self.ops.load(bucket_link_at(arr, b))) {
            return true;
        }
        drop(self.stripes[b % N_STRIPES].lock().expect("stripe lock"));
        false
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.take(ctx, key).value()
    }

    /// Removes `key`; [`Removed::Moved`] if its bucket was drained out.
    pub fn take(&self, ctx: &mut ThreadCtx, key: u64) -> Removed {
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
            && matches!(self.remove_inner(ctx, key, Some(addr)), Removed::Yes(_));
        ctx.end_op();
        removed
    }

    /// Routes one `list::remove` (of the node at `at`, if given) to the
    /// array `key` lives in.
    fn remove_inner(&self, ctx: &mut ThreadCtx, key: u64, at: Option<usize>) -> Removed {
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
                    // chain and emptied its destinations, and `Moved`
                    // bubbles if another thread's drain claims it first.
                    match list::remove(&self.ops, ctx, bucket_link_at(cur, b), key, at) {
                        Removed::Moved => continue,
                        Removed::No => new,
                        done => return done,
                    }
                }
            };
            let b = bucket_index(key, self.arr_n(dest));
            match list::remove(&self.ops, ctx, bucket_link_at(dest, b), key, at) {
                Removed::Moved if self.moved_out(dest, b, cur, new, &mut ctx.flusher) => {
                    return Removed::Moved
                }
                Removed::Moved => continue,
                Removed::No if !self.geometry_unchanged(cur, new, &mut ctx.flusher) => continue,
                done => return done,
            }
        }
    }

    /// Looks up `key`. Fully lock-free: lookups never take stripe locks
    /// and never migrate; during a resize they read the old chain first,
    /// then the new one (the same direction moves travel, so a live key
    /// cannot be missed).
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.lookup(ctx, key).value()
    }

    /// [`Self::get`] that also returns the address of the node it found,
    /// and [`Lookup::Moved`] if the key's bucket was drained out. The
    /// node may be replaced or freed as soon as the call returns, so the
    /// address is a hint (an eviction hand's reference bit), never a
    /// pointer to dereference.
    pub fn lookup(&self, ctx: &mut ThreadCtx, key: u64) -> Lookup {
        ctx.begin_op();
        let r = self.lookup_inner(ctx, key);
        ctx.end_op();
        r
    }

    fn lookup_inner(&self, ctx: &mut ThreadCtx, key: u64) -> Lookup {
        loop {
            let (cur, new) = self.geometry(&mut ctx.flusher);
            if new == 0 || new == cur {
                let b = bucket_index(key, self.arr_n(cur));
                match list::get(&self.ops, ctx, bucket_link_at(cur, b), key) {
                    Lookup::Moved if self.moved_out(cur, b, cur, new, &mut ctx.flusher) => {
                        return Lookup::Moved
                    }
                    Lookup::Moved => continue,
                    Lookup::Absent if !self.geometry_unchanged(cur, new, &mut ctx.flusher) => {
                        continue
                    }
                    done => return done,
                }
            }
            // Resize in flight: old chain first, then new.
            let old_head = bucket_link_at(cur, bucket_index(key, self.arr_n(cur)));
            if let found @ Lookup::Found(..) = list::get(&self.ops, ctx, old_head, key) {
                return found;
            }
            let new_head = bucket_link_at(new, bucket_index(key, self.arr_n(new)));
            match list::get(&self.ops, ctx, new_head, key) {
                Lookup::Moved => continue,
                Lookup::Absent if !self.geometry_unchanged(cur, new, &mut ctx.flusher) => continue,
                done => return done,
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        self.get(ctx, key).is_some()
    }

    /// Warms the cache lines that operations on `keys` read first, so a
    /// batch's cache misses overlap instead of following one another
    /// (group prefetching, as in Chen, Ailamaki, Gibbons and Mowry,
    /// "Improving Hash Join Performance through Prefetching", ICDE 2004).
    /// Passes over each group of keys: prefetch each key's bucket word;
    /// load it and prefetch the chain's first node (both lines when the
    /// node spans two); then, pass by pass, load each key's node and,
    /// while its key is below the target, prefetch the next node, up to
    /// four nodes a chain. Each pass loads what the one before
    /// prefetched, so the misses of a group overlap.
    ///
    /// A hint: it writes nothing (it helps no dirty link, scans no link
    /// cache) and changes no result. Its loads still run inside one epoch
    /// op, because the bucket words and node keys are reached through
    /// arrays and nodes that a concurrent resize or remove may retire;
    /// only the prefetch instruction itself cannot fault. Mid-resize it
    /// warms the current array, which a lookup reads first.
    pub fn prefetch(&self, ctx: &mut ThreadCtx, keys: &[u64]) {
        ctx.begin_op();
        let arr = self.load_bare(H_CUR);
        let n = self.arr_n(arr);
        for group in keys.chunks(PREFETCH_GROUP) {
            // Each key's bucket link, then the node its walk is at.
            let mut at = [0; PREFETCH_GROUP];
            for (a, &key) in at.iter_mut().zip(group) {
                *a = bucket_link_at(arr, bucket_index(key, n));
                prefetch_line(*a);
            }
            for a in &mut at[..group.len()] {
                *a = addr_of(self.ops.load(*a));
                prefetch_node(*a);
            }
            for _ in 1..PREFETCH_DEPTH {
                for (a, &key) in at.iter_mut().zip(group) {
                    if *a != 0 && list::key_at(&self.ops, *a) < key {
                        *a = addr_of(self.ops.load(list::next_addr(*a)));
                        prefetch_node(*a);
                    } else {
                        *a = 0;
                    }
                }
            }
        }
        ctx.end_op();
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
    /// live)` totals, where `live` is the number of keys the table holds,
    /// or [`GeometryError::Cycle`] for the first chain that loops.
    /// A half-migrated table is left half-migrated: `restart` rolls it
    /// forward after the leak scan, which moves keys without changing
    /// `live`.
    fn recover(&self, flusher: &mut Flusher) -> Result<(u64, u64, u64), GeometryError> {
        let pool = self.ops.pool();
        let mut dirty = 0;
        for off in [H_CUR, H_NEW] {
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
                let head = bucket_link_at(arr, b);
                let (d, u, l) = list::recover_chain(&self.ops, head, list::NEXT_OFF, flusher)?;
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
        Ok((dirty, unlinked, live))
    }

    /// §5.5 first-approach oracle: is there a node at exactly `addr`
    /// linked in the table? Mid-resize this consults the key's bucket in
    /// **both** arrays — a claimed original and its copy are both
    /// reachable until the drain detaches the old chain.
    fn contains_node_at(&self, addr: usize) -> bool {
        let key = list::key_at(&self.ops, addr);
        let (cur, new) = self.live_arrays();
        std::iter::once(cur).chain(new).any(|arr| {
            let head = bucket_link_at(arr, bucket_index(key, self.arr_n(arr)));
            list::chain_contains(&self.ops, head, addr)
        })
    }

    /// Visits every node the table reaches (see [`Reached`]; quiescent):
    /// each bucket of the current array in order, then of the in-flight
    /// destination, if any, each chain in key order.
    pub fn walk(&self, mut visit: impl FnMut(Reached)) {
        let mut seen = HashSet::new();
        let (cur, new) = self.live_arrays();
        for arr in std::iter::once(cur).chain(new) {
            let n = self.arr_n(arr);
            for b in 0..n {
                list::walk_chain(&self.ops, bucket_link_at(arr, b), (b, n), &mut seen, &mut visit);
            }
        }
    }

    /// Quiescent snapshot of live pairs (unordered across buckets).
    /// Mid-resize a key mid-move can appear twice — with the same value,
    /// since a claimed node cannot be replaced; after
    /// [`Self::finish_resize`] the snapshot is duplicate-free.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        self.walk(|r| v.extend((!r.deleted).then_some((r.key, r.value))));
        v
    }

    /// [`crate::audit`] over the table in `domain`, plus its resize
    /// state: a recovered table has none in flight.
    pub fn audit(&self, domain: &NvDomain, home: impl Fn(u64) -> bool) -> Vec<String> {
        let mut faults = crate::audit(domain, |visit| self.walk(visit), home);
        if self.resize_in_flight() {
            faults.push("a resize is still in flight".into());
        }
        faults
    }

    /// Brings the table at root slot `root_idx` of a crashed image back
    /// to service: validate the geometry, clear leftover marks and
    /// complete pending unlinks, free every allocated node a search for
    /// its own key does not reach before anything is allocated (§5.5's
    /// first approach), roll a resize forward, collect what it retired,
    /// free orphaned bucket arrays. A torn geometry, a chain that loops,
    /// or no room to finish the resize, is an `Err`.
    pub fn restart(
        domain: &Arc<NvDomain>,
        root_idx: usize,
        ops: LinkOps,
    ) -> Result<(Self, RestartReport), GeometryError> {
        let table = Self::try_attach(domain, root_idx, ops)?;
        let (dirty_cleared, unlinked, live) = table.recover(&mut domain.pool().flusher())?;
        let heap = domain.recover_leaks(|addr| table.contains_node_at(addr));
        let mut ctx = domain.register();
        table.finish_resize(&mut ctx).map_err(|OutOfMemory| GeometryError::ResizeFull)?;
        ctx.drain_all();
        table.sweep_orphan_regions(&mut ctx);
        Ok((table, RestartReport { heap, dirty_cleared, unlinked, live: live as usize }))
    }
}

// SAFETY: all shared state lives in the pool and is accessed atomically;
// the volatile locks are std mutexes (Sync).
unsafe impl Send for HashTable {}
// SAFETY: see above.
unsafe impl Sync for HashTable {}
