//! The incremental-resize state machine: grow, the bucket drain, sweep
//! helping, commit, and the recovery roll-forward. See the module docs
//! in [`super`] for the durable layout and the crash argument.
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
use crate::list::{self, NODE_SIZE};
use crate::marked::{addr_of, is_deleted, is_tagged, DELETED, DIRTY, TAG};
use crate::ops::CasOutcome;

/// Buckets an insert/remove migrates on behalf of the in-order sweep,
/// on top of the bucket it touches itself. Keeps helping O(1) per op
/// while guaranteeing the sweep finishes even if no one calls
/// [`HashTable::finish_resize`].
const HELP_BUCKETS: usize = 2;

impl HashTable {
    /// Durably stores resize-header word `off` (link-and-persist
    /// discipline, preceded by a [`CrashEvent::ResizeState`] crash
    /// point). Only called with the resize lock held, so a plain store
    /// cannot race another writer of the same word.
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

    /// The sweep cursor's raw word: the next old-bucket index `<< 3`.
    fn cursor(&self) -> u64 {
        self.ops.load(self.hdr + H_CURSOR)
    }

    /// CAS-advances the sweep cursor from the observed word to index
    /// `idx`. The cursor is advisory — commit and recovery revalidate
    /// every bucket's sentinel and never read it — so it is neither
    /// written back nor a crash point, and a lost CAS is simply dropped
    /// (helpers race each other, and a cursor must never move backwards).
    fn advance_cursor(&self, observed: u64, idx: usize) {
        let value = (idx as u64) << 3;
        if observed < value {
            let word = self.ops.pool().atomic_u64(self.hdr + H_CURSOR);
            let _ = word.compare_exchange(observed, value, Ordering::AcqRel, Ordering::Acquire);
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
        self.ops.pool().atomic_u64(self.hdr + H_CURSOR).store(0, Ordering::Release);
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
        while !self.drain_bucket(ctx, old, new, b)? {}
        Ok(())
    }

    /// Moves old bucket `b`'s whole chain into its destination buckets
    /// `b + k·old_n` under three fences, however long the chain is
    /// (caller holds the stripe lock). Returns `Ok(false)` when a race
    /// was lost and the bucket must be drained again.
    ///
    /// 1. **claim and copy** — one walk tags every live node's `next`
    ///    word ([`Self::claim`]) and builds a private, key-ordered chain
    ///    of copies per destination; the copies are written back under
    ///    one fence. A claimed node can be neither removed nor replaced
    ///    (such writers re-route and wait on the stripe lock), so every
    ///    copy holds its original's value for as long as both exist.
    /// 2. **publish** — [`Self::publish`] swings every destination head
    ///    to its chain under one fence.
    /// 3. **detach** — the old head goes from the first node to the `TAG`
    ///    sentinel with link-and-persist, bypassing the link cache:
    ///    writers enter the destination as soon as they see the sentinel,
    ///    so it must be durable by then. Every node of the detached chain
    ///    is retired, the skipped `DELETED` ones too — with their
    ///    predecessor claimed, nobody else can unlink them.
    ///
    /// A stale writer can still change the old head (a front insert, or
    /// the unlink of a deleted front node), which fails the detach and
    /// reruns the bucket; the rerun replaces the copies just published.
    /// The drain never runs `list::search` on its claimed chain: Harris's
    /// unlink cannot get past a claimed predecessor.
    fn drain_bucket(
        &self,
        ctx: &mut ThreadCtx,
        old: usize,
        new: usize,
        b: usize,
    ) -> Result<bool, OutOfMemory> {
        let head = bucket_link_at(old, b);
        let hw = self.ops.ensure_durable(head, self.ops.load(head), &mut ctx.flusher);
        if is_tagged(hw) {
            return Ok(true);
        }
        let old_n = self.arr_n(old);
        let new_n = self.arr_n(new);
        // First and last copy bound for each destination `b + k·old_n`.
        let mut heads = vec![0; new_n / old_n];
        let mut tails = vec![0; new_n / old_n];
        let mut copies = Vec::new();
        let mut curr = addr_of(hw);
        while curr != 0 {
            let w = self.claim(curr, &mut ctx.flusher);
            if !is_deleted(w) {
                let key = list::key_at(&self.ops, curr);
                let value = list::value_at(&self.ops, curr);
                let copy = match list::alloc_node(&self.ops, ctx, key, value, 0) {
                    Ok(copy) => copy,
                    Err(oom) => {
                        // Back to "old chain only": free the copies, drop
                        // any earlier ones the destination holds (they
                        // must not outlive the claims), then un-claim so
                        // removers are not blocked on a stalled drain.
                        for c in copies {
                            ctx.dealloc_unlinked(c);
                        }
                        let _ = self.publish(ctx, new, b, old_n, &vec![0; heads.len()]);
                        self.unclaim(hw);
                        return Err(oom);
                    }
                };
                let k = bucket_index(key, new_n) / old_n;
                if tails[k] == 0 {
                    heads[k] = copy;
                } else {
                    let tail_link = self.ops.pool().atomic_u64(list::next_addr(tails[k]));
                    tail_link.store(copy as u64, Ordering::Release);
                }
                tails[k] = copy;
                copies.push(copy);
            }
            curr = addr_of(w);
        }
        if !copies.is_empty() {
            for &c in &copies {
                self.ops.persist_node(c, NODE_SIZE, &mut ctx.flusher);
            }
            self.ops.pre_link_fence(&mut ctx.flusher);
        }
        if !self.publish(ctx, new, b, old_n, &heads) {
            return Ok(false);
        }
        if self.ops.link_cas_persisted(head, hw, TAG, &mut ctx.flusher) == CasOutcome::Retry {
            return Ok(false);
        }
        self.retire_chain(ctx, hw);
        Ok(true)
    }

    /// Tags `node`'s `next` word with the drain's claim (a plain CAS: the
    /// copies, not the claims, carry the state across a crash) and
    /// returns the word — claimed, or already `DELETED` by a remover or
    /// replacer that linearised first. A word that is already tagged was
    /// claimed by an earlier drain of this bucket (a lost race, or a
    /// crash image) and is taken over as is.
    fn claim(&self, node: usize, flusher: &mut Flusher) -> u64 {
        let addr = list::next_addr(node);
        let link = self.ops.pool().atomic_u64(addr);
        loop {
            let w = self.ops.ensure_durable(addr, link.load(Ordering::Acquire), flusher);
            if is_deleted(w) || is_tagged(w) {
                return w;
            }
            if link.compare_exchange(w, w | TAG, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                return w | TAG;
            }
        }
    }

    /// Clears every claim in the chain starting at `hw`'s node.
    fn unclaim(&self, hw: u64) {
        let mut curr = addr_of(hw);
        while curr != 0 {
            let link = self.ops.pool().atomic_u64(list::next_addr(curr));
            let w = link.load(Ordering::Acquire);
            if is_tagged(w) {
                let _ = link.compare_exchange(w, w & !TAG, Ordering::AcqRel, Ordering::Acquire);
            }
            curr = addr_of(w);
        }
    }

    /// Swings the head of destination `b + k·old_n` to the private chain
    /// `heads[k]` for every `k` with batched link-and-persist — one fence
    /// for all of them — and retires what each head held: nothing
    /// normally, or, after a crash roll-forward or a lost detach, earlier
    /// copies of this bucket's keys (no writer enters a destination
    /// before its old bucket's sentinel is durable). Returns `false` if a
    /// head changed under it; the chains it did not publish are freed.
    fn publish(
        &self,
        ctx: &mut ThreadCtx,
        new: usize,
        b: usize,
        old_n: usize,
        heads: &[usize],
    ) -> bool {
        let durable = self.ops.durable();
        let mark = if durable { DIRTY } else { 0 };
        // (head address, value published, value replaced)
        let mut swung = Vec::with_capacity(heads.len());
        let mut lost = None;
        for (k, &first) in heads.iter().enumerate() {
            let addr = bucket_link_at(new, b + k * old_n);
            let link = self.ops.pool().atomic_u64(addr);
            let held =
                self.ops.ensure_durable(addr, link.load(Ordering::Acquire), &mut ctx.flusher);
            let first = first as u64;
            if held == 0 && first == 0 {
                continue;
            }
            if durable {
                ctx.flusher.note_crash_event(CrashEvent::LinkPublish);
            }
            if link
                .compare_exchange(held, first | mark, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                lost = Some(k);
                break;
            }
            ctx.flusher.clwb(addr);
            swung.push((addr, first, held));
        }
        if durable && !swung.is_empty() {
            ctx.flusher.fence();
            for &(addr, first, _) in &swung {
                let _ = self.ops.pool().atomic_u64(addr).compare_exchange(
                    first | DIRTY,
                    first,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
        for &(_, _, held) in &swung {
            self.retire_chain(ctx, held);
        }
        let Some(k) = lost else {
            return true;
        };
        for &first in &heads[k..] {
            let mut curr = first;
            while curr != 0 {
                let next = addr_of(self.ops.load(list::next_addr(curr)));
                ctx.dealloc_unlinked(curr);
                curr = next;
            }
        }
        false
    }

    /// Retires every node of the unreachable chain starting at `hw`'s
    /// node.
    fn retire_chain(&self, ctx: &mut ThreadCtx, hw: u64) {
        let mut curr = addr_of(hw);
        while curr != 0 {
            let next = addr_of(self.ops.load(list::next_addr(curr)));
            ctx.retire(curr);
            curr = next;
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
            let cw = self.cursor();
            let idx = (cw >> 3) as usize;
            if idx >= old_n {
                self.try_finish(ctx);
                return Ok(());
            }
            self.ensure_migrated(ctx, old, new, idx)?;
            self.advance_cursor(cw, idx + 1);
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
            self.advance_cursor(self.cursor(), old_n);
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
    /// durable resize-header update (publish, commit, clear). The
    /// crashtest mutation test flips this on and asserts the crash
    /// enumeration reports the resulting lost-key violations — proving
    /// the harness actually exercises resize-state durability.
    #[doc(hidden)]
    pub fn set_omit_resize_word_flush(&self, on: bool) {
        self.omit_resize_word_flush.store(on, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::LinkOps;
    use nvalloc::NvDomain;
    use pmem::{LatencyModel, Mode, PoolBuilder};

    #[test]
    fn drain_retires_deleted_nodes_behind_its_claims() {
        let pool =
            PoolBuilder::new(4 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
        let domain = NvDomain::create(Arc::clone(&pool));
        let ht = HashTable::create(&domain, 1, 1, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        let mut ctx = domain.register();
        for k in 1..=6 {
            ht.insert(&mut ctx, k, k).unwrap();
        }
        let mut nodes = Vec::new();
        let mut curr = addr_of(ht.ops.load(bucket_link_at(ht.load_bare(H_CUR), 0)));
        while curr != 0 {
            nodes.push(curr);
            curr = addr_of(ht.ops.load(list::next_addr(curr)));
        }
        let next = |node: usize| pool.atomic_u64(list::next_addr(node));
        // A remove of key 3 and an upsert of key 5, each stopped between
        // its mark and its unlink: once the drain claims their
        // predecessors, nobody else can unlink (and retire) them.
        next(nodes[2]).fetch_or(DELETED, Ordering::AcqRel);
        let succ = next(nodes[4]).load(Ordering::Acquire);
        let five = list::alloc_node(&ht.ops, &mut ctx, 5, 50, succ).unwrap();
        next(nodes[4]).store(five as u64 | DELETED, Ordering::Release);

        assert!(ht.grow(&mut ctx, 4).unwrap());
        assert!(ht.finish_resize(&mut ctx).unwrap());
        ctx.drain_all();
        let mut snap = ht.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, [(1, 1), (2, 2), (4, 4), (5, 50), (6, 6)]);
        assert_eq!(domain.count_unreachable(|a| ht.contains_node_at(a)), 0, "leaked nodes");
    }
}
