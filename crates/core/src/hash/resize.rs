//! The incremental-resize state machine: grow, per-bucket migration,
//! sweep helping, commit, and the recovery roll-forward. See the module
//! docs in [`super`] for the durable layout and the crash argument.
//!
//! Blocking inventory: only *migration* takes locks (a volatile stripe
//! mutex per bucket plus one resize mutex around grow/commit), and only
//! inserts and removes migrate. Lookups never lock, never allocate, and
//! never migrate — they stay lock-free throughout a resize.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{OutOfMemory, ThreadCtx};
use pmem::{CrashEvent, Flusher};

use super::table::N_STRIPES;
use super::{bucket_index, bucket_link_at, HashTable, H_CUR, H_CURSOR, H_NEW};
use crate::list::{self, Put, PutMode};
use crate::marked::{bare, is_deleted, is_tagged, DELETED, DIRTY, TAG};
use crate::ops::CasOutcome;

/// Buckets an insert/remove migrates on behalf of the in-order sweep,
/// on top of the bucket it touches itself. Keeps helping O(1) per op
/// while guaranteeing the sweep finishes even if no one calls
/// [`HashTable::finish_resize`].
const HELP_BUCKETS: usize = 2;

impl HashTable {
    /// Durably stores resize-header word `off` (link-and-persist
    /// discipline, preceded by a [`CrashEvent::ResizeState`] crash
    /// point). Only called with the resize lock held — or, for the
    /// cursor reset in [`Self::grow`], while no resize is in flight —
    /// so a plain store cannot race another writer of the same word.
    pub(super) fn store_resize_word(&self, off: usize, value: u64, flusher: &mut Flusher) {
        debug_assert_eq!(value & (DELETED | DIRTY | TAG), 0);
        let addr = self.hdr + off;
        let word = self.ops.pool().atomic_u64(addr);
        if !self.ops.durable() {
            word.store(value, Ordering::Release);
            return;
        }
        flusher.note_crash_event(CrashEvent::ResizeState);
        if self.omit_resize_word_flush.load(Ordering::Relaxed) {
            // Deliberately broken variant for the crashtest mutation
            // test: the new value is stored clean but never written
            // back, so it silently misses the durable image.
            word.store(value, Ordering::Release);
            return;
        }
        word.store(value | DIRTY, Ordering::Release);
        flusher.clwb(addr);
        flusher.fence();
        // A concurrent reader may have helped via `ensure_durable`.
        let _ = word.compare_exchange(value | DIRTY, value, Ordering::AcqRel, Ordering::Acquire);
    }

    /// CAS-advances the migration cursor from the observed bare word to
    /// index `idx` (same discipline as [`Self::store_resize_word`], but
    /// conditional: helpers race each other, and a cursor must never
    /// move backwards). The cursor is purely an optimisation — recovery
    /// ignores its value and revalidates every bucket — so a failed CAS
    /// is simply dropped.
    fn advance_cursor(&self, observed: u64, idx: usize, flusher: &mut Flusher) {
        let value = (idx as u64) << 3;
        if observed >= value {
            return;
        }
        let word = self.ops.pool().atomic_u64(self.hdr + H_CURSOR);
        if !self.ops.durable() {
            let _ = word.compare_exchange(observed, value, Ordering::AcqRel, Ordering::Acquire);
            return;
        }
        flusher.note_crash_event(CrashEvent::ResizeState);
        if self.omit_resize_word_flush.load(Ordering::Relaxed) {
            let _ = word.compare_exchange(observed, value, Ordering::AcqRel, Ordering::Acquire);
            return;
        }
        if word
            .compare_exchange(observed, value | DIRTY, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let addr = self.hdr + H_CURSOR;
            flusher.clwb(addr);
            flusher.fence();
            let _ =
                word.compare_exchange(value | DIRTY, value, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Starts a resize to `factor`× the current bucket count (factor
    /// clamped to a power of two ≥ 2). Returns `Ok(false)` if a resize
    /// was already in flight (including committed-pending cleanup).
    ///
    /// Publication order: allocate + initialise the new array, reset the
    /// cursor, then publish `NEW` — so a crash before the publish leaves
    /// only an orphan region (reclaimed by
    /// [`Self::sweep_orphan_regions`]), never a half-described resize.
    pub fn grow(&self, ctx: &mut ThreadCtx, factor: usize) -> Result<bool, OutOfMemory> {
        ctx.begin_op();
        let r = self.grow_inner(ctx, factor);
        ctx.end_op();
        r
    }

    fn grow_inner(&self, ctx: &mut ThreadCtx, factor: usize) -> Result<bool, OutOfMemory> {
        let factor = factor.max(2).next_power_of_two();
        let _g = self.resize_lock.lock().expect("resize lock");
        let (cur, new) = self.geometry(&mut ctx.flusher);
        if new != 0 {
            return Ok(false);
        }
        let new_n = self.arr_n(cur) * factor;
        let domain = Arc::clone(ctx.domain());
        let arr = domain.heap().alloc_region(8 + new_n * 8, &mut ctx.flusher)?;
        // Bucket words start zeroed (fresh regions are untouched pool
        // pages; recycled ones were durably zeroed by `free_region`), so
        // only the geometry word needs persisting.
        self.ops.pool().atomic_u64(arr).store(new_n as u64, Ordering::Release);
        ctx.flusher.persist(arr, 8);
        self.store_resize_word(H_CURSOR, 0, &mut ctx.flusher);
        self.store_resize_word(H_NEW, arr as u64, &mut ctx.flusher);
        Ok(true)
    }

    /// Drains old bucket `b` into the new array if it has not been
    /// drained yet. Fast path: one load of the head word.
    pub(super) fn ensure_migrated(
        &self,
        ctx: &mut ThreadCtx,
        old: usize,
        new: usize,
        b: usize,
    ) -> Result<(), OutOfMemory> {
        let head = bucket_link_at(old, b);
        let hw = self.ops.load(head);
        if is_tagged(hw) {
            self.ops.ensure_durable(head, hw, &mut ctx.flusher);
            return Ok(());
        }
        let _g = self.stripes[b % N_STRIPES].lock().expect("stripe lock");
        self.migrate_bucket(ctx, old, new, b)
    }

    /// Copy-then-delete drain of one bucket, front node first (caller
    /// holds the stripe lock). Each step is a durable `link_cas`, so at
    /// any crash point a key is in its old chain, in both chains with
    /// the same value, or in the new chain — never absent:
    ///
    /// 1. **claim** — tag the front node's `next` word. Removers and
    ///    replacers seeing the tag re-route instead of marking the node (a
    ///    delete here could resurrect via the copy, a replacement could be
    ///    lost to it).
    /// 2. **copy** — insert `(key, value)` into the destination bucket
    ///    (insert-if-absent; finding the key there after a recovery re-run
    ///    is benign: a claimed node refuses replacement, and writers reach
    ///    the destination only once this bucket is drained, so original
    ///    and copy hold the same value). The insert's §4.2 scans flush any
    ///    cached updates the copy's durability depends on.
    /// 3. **delete + unlink** — standard durable two-step removal of the
    ///    original; `scan(key)` first, so a cached copy always becomes
    ///    durable before the delete can.
    ///
    /// When the chain is empty the head word is CASed `0 → TAG`: the
    /// permanent "drained" sentinel every list operation re-routes on.
    fn migrate_bucket(
        &self,
        ctx: &mut ThreadCtx,
        old: usize,
        new: usize,
        b: usize,
    ) -> Result<(), OutOfMemory> {
        let head = bucket_link_at(old, b);
        let new_n = self.arr_n(new);
        loop {
            let f = list::search(&self.ops, ctx, head, list::MIN_KEY);
            if f.migrated {
                return Ok(());
            }
            if f.curr == 0 {
                match self.ops.link_cas(0, head, 0, TAG, &mut ctx.flusher) {
                    CasOutcome::Ok => return Ok(()),
                    // A racing insert with a stale steady-state view got
                    // its node in first; drain it too.
                    CasOutcome::Retry => continue,
                }
            }
            let node = f.curr;
            let key = f.curr_key;
            let nw_addr = list::next_addr(node);
            let mut cw = self.ops.load(nw_addr);
            if is_deleted(cw) {
                // A remover linearised first; the next search unlinks it.
                continue;
            }
            cw = self.ops.ensure_durable(nw_addr, cw, &mut ctx.flusher);
            if !is_tagged(cw) {
                match self.ops.link_cas(key, nw_addr, cw, cw | TAG, &mut ctx.flusher) {
                    CasOutcome::Ok => cw |= TAG,
                    CasOutcome::Retry => continue,
                }
            }
            let val = list::value_at(&self.ops, node);
            let dest = bucket_link_at(new, bucket_index(key, new_n));
            match list::put(&self.ops, ctx, dest, key, val, PutMode::IfAbsent, |_| true) {
                Ok(Put::Inserted | Put::Unchanged) => {}
                Ok(Put::Migrated | Put::Replaced(_)) => {
                    unreachable!("destination bucket of an in-flight resize is never sentineled")
                }
                Err(oom) => {
                    // Roll the claim back so removers are not blocked on
                    // a migration that cannot progress.
                    let _ = self.ops.link_cas(key, nw_addr, cw, cw & !TAG, &mut ctx.flusher);
                    return Err(oom);
                }
            }
            // Copy durable before the delete can be (same-key scan).
            self.ops.scan(key, &mut ctx.flusher);
            match self.ops.link_cas(key, nw_addr, cw, cw | DELETED, &mut ctx.flusher) {
                // Our claimed node's successor was unlinked under us;
                // re-search (the claim survives address changes).
                CasOutcome::Retry => continue,
                CasOutcome::Ok => {
                    if let Some(pk) = f.pred_key {
                        self.ops.scan(pk, &mut ctx.flusher);
                    }
                    match self.ops.link_cas(
                        key,
                        f.pred_link,
                        node as u64,
                        bare(cw),
                        &mut ctx.flusher,
                    ) {
                        CasOutcome::Ok => ctx.retire(node),
                        // Someone else's search completes the unlink.
                        CasOutcome::Retry => {}
                    }
                }
            }
        }
    }

    /// Bounded helping: advances the in-order sweep by up to
    /// [`HELP_BUCKETS`] buckets, then tries to commit if the cursor has
    /// passed the end. Called by every insert/remove that observes an
    /// in-flight resize.
    pub(super) fn help_sweep(
        &self,
        ctx: &mut ThreadCtx,
        old: usize,
        new: usize,
    ) -> Result<(), OutOfMemory> {
        let old_n = self.arr_n(old);
        for _ in 0..HELP_BUCKETS {
            let cw = self.read_word(H_CURSOR, &mut ctx.flusher);
            let idx = (cw >> 3) as usize;
            if idx >= old_n {
                self.try_finish(ctx);
                return Ok(());
            }
            self.ensure_migrated(ctx, old, new, idx)?;
            self.advance_cursor(cw, idx + 1, &mut ctx.flusher);
        }
        Ok(())
    }

    /// Commits a fully-drained resize: `CUR ← NEW`, retire the old
    /// array under epochs, `NEW ← 0`. No-op unless every old bucket
    /// carries the drained sentinel (the cursor is not trusted). Also
    /// clears a committed-pending (`CUR == NEW`) state left by a crash —
    /// the then-orphaned old region is swept separately at recovery.
    fn try_finish(&self, ctx: &mut ThreadCtx) {
        let Ok(_g) = self.resize_lock.try_lock() else {
            return;
        };
        let (cur, new) = self.geometry(&mut ctx.flusher);
        if new == 0 {
            return;
        }
        if new != cur {
            for b in 0..self.arr_n(cur) {
                if !is_tagged(self.ops.load(bucket_link_at(cur, b))) {
                    return;
                }
            }
            self.store_resize_word(H_CUR, new as u64, &mut ctx.flusher);
            ctx.retire_region(cur);
        }
        self.store_resize_word(H_NEW, 0, &mut ctx.flusher);
    }

    /// Drives an in-flight resize to completion (migrating every
    /// remaining bucket on this thread) and returns whether there was
    /// one. Used by recovery to roll a half-migrated table forward, and
    /// by tests/benchmarks to bound a grow.
    ///
    /// Each bucket is migrated in an operation of its own. Leaving the
    /// epoch in between lets `end_op` collect the nodes the previous
    /// buckets retired; inside one long operation nothing this thread
    /// retires can ever settle, the backlog grows to every migrated node
    /// and every APT trim scans all of it.
    pub fn finish_resize(&self, ctx: &mut ThreadCtx) -> Result<bool, OutOfMemory> {
        let mut was_in_flight = false;
        // `(cur, new, next bucket)` of the sweep being driven.
        let mut sweep = (0, 0, 0);
        loop {
            ctx.begin_op();
            let in_flight = self.finish_resize_step(ctx, &mut sweep);
            ctx.end_op();
            if !in_flight? {
                return Ok(was_in_flight);
            }
            was_in_flight = true;
        }
    }

    /// One step of [`Self::finish_resize`]: migrates the sweep's next
    /// bucket, or commits once every bucket is done. Returns whether a
    /// resize was in flight. The geometry is re-read on every call: since
    /// the previous one this thread has been outside the epoch, so another
    /// thread may have committed the resize and retired `cur`.
    fn finish_resize_step(
        &self,
        ctx: &mut ThreadCtx,
        sweep: &mut (usize, usize, usize),
    ) -> Result<bool, OutOfMemory> {
        let (cur, new) = self.geometry(&mut ctx.flusher);
        if new == 0 {
            return Ok(false);
        }
        if new != cur {
            if (sweep.0, sweep.1) != (cur, new) {
                *sweep = (cur, new, 0);
            }
            let old_n = self.arr_n(cur);
            if sweep.2 < old_n {
                self.ensure_migrated(ctx, cur, new, sweep.2)?;
                sweep.2 += 1;
                return Ok(true);
            }
            let cw = self.read_word(H_CURSOR, &mut ctx.flusher);
            self.advance_cursor(cw, old_n, &mut ctx.flusher);
        }
        self.try_finish(ctx);
        Ok(true)
    }

    /// Frees every heap region that is not the header or a live bucket
    /// array. **Recovery-only** (quiescent, and assumes this table is
    /// the pool's only region user): reclaims arrays orphaned by a crash
    /// between allocation and publish, or between commit and the
    /// epoch-deferred free of the old array. Returns the count freed.
    pub fn sweep_orphan_regions(&self, ctx: &mut ThreadCtx) -> usize {
        let (cur, new) = self.live_arrays();
        let domain = Arc::clone(ctx.domain());
        let mut freed = 0;
        for r in domain.heap().regions() {
            if r != self.hdr && r != cur && Some(r) != new {
                domain.heap().free_region(r, &mut ctx.flusher);
                freed += 1;
            }
        }
        freed
    }

    /// Test-only mutation switch: suppresses the write-back of every
    /// resize-header update (publish, cursor, commit, clear). The
    /// crashtest mutation test flips this on and asserts the crash
    /// enumeration reports the resulting lost-key violations — proving
    /// the harness actually exercises resize-state durability.
    #[doc(hidden)]
    pub fn set_omit_resize_word_flush(&self, on: bool) {
        self.omit_resize_word_flush.store(on, Ordering::Relaxed);
    }
}
