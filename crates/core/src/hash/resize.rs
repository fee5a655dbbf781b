//! The migration machine: the claim → copy → detach bucket drain, and
//! the two migrations built on it — the incremental resize (grow, sweep
//! helping, commit, recovery roll-forward) and the drain-out of a bucket
//! into other tables. See the module docs in [`super`] for the durable
//! layout and the crash argument.
//!
//! Blocking inventory: only *migration* takes locks (a volatile stripe
//! mutex per bucket plus one resize mutex around grow/commit), and only
//! inserts and removes migrate. Lookups never lock, never allocate, and
//! never migrate — they stay lock-free throughout a resize.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{OutOfMemory, ThreadCtx};
use pmem::{CrashEvent, Flusher};

use super::table::N_STRIPES;
use super::{bucket_index, bucket_link_at, HashTable, H_CUR, H_NEW};
use crate::list::{self, Put, PutMode, NODE_SIZE};
use crate::marked::{addr_of, is_deleted, is_tagged, DELETED, DIRTY, TAG};
use crate::ops::CasOutcome;

/// Buckets an insert/remove migrates on behalf of the in-order sweep,
/// on top of the bucket it touches itself. Keeps helping O(1) per op
/// while guaranteeing the sweep finishes even if no one calls
/// [`HashTable::finish_resize`].
const HELP_BUCKETS: usize = 2;

/// A drain's copy step: given the claimed chain's live pairs, it makes a
/// copy of each durable in the key's destination, insert-if-absent — or,
/// failing, leaves no copy of any of them anywhere.
type CopyStep<'a> = dyn FnMut(&mut ThreadCtx, &[(u64, u64)]) -> Result<(), OutOfMemory> + 'a;

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

    /// Starts a resize to `factor`× the current bucket count (factor
    /// clamped to a power of two ≥ 2). Returns `Ok(false)` if a resize
    /// was already in flight (including committed-pending cleanup), or
    /// if the table is [sealed](Self::seal).
    ///
    /// Publication order: allocate + initialise the new array, then
    /// publish `NEW` — so a crash before the publish leaves only an
    /// orphan region (reclaimed by `restart`'s orphan sweep), never
    /// a half-described resize.
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
        if new != 0 || self.sealed.load(Ordering::Acquire) {
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
        self.sweep.store(0, Ordering::Release);
        self.store_resize_word(H_NEW, arr as u64, &mut ctx.flusher);
        Ok(true)
    }

    /// Drains old bucket `b` into the new array if it has not been
    /// drained yet.
    pub(super) fn ensure_migrated(
        &self,
        ctx: &mut ThreadCtx,
        old: usize,
        new: usize,
        b: usize,
    ) -> Result<(), OutOfMemory> {
        self.drain(ctx, old, b, &mut |ctx, pairs| self.copy_to_new(ctx, old, new, b, pairs))
            .map(drop)
    }

    /// The resize's copy step: splices old bucket `b`'s claimed pairs into
    /// its destinations `b + k·old_n` of `new`. Nobody else writes those
    /// before `b`'s sentinel, so every splice lands. On failure the
    /// destinations are emptied: copies an earlier attempt left there
    /// must not outlive the claims.
    fn copy_to_new(
        &self,
        ctx: &mut ThreadCtx,
        old: usize,
        new: usize,
        b: usize,
        pairs: &[(u64, u64)],
    ) -> Result<(), OutOfMemory> {
        let oom = match self.splice(ctx, new, (old, new), pairs) {
            Ok((_, left)) => {
                debug_assert!(left.is_empty(), "a resize destination changed under its drain");
                return Ok(());
            }
            Err(oom) => oom,
        };
        let old_n = self.arr_n(old);
        for k in 0..self.arr_n(new) / old_n {
            let head = bucket_link_at(new, b + k * old_n);
            let hw = self.ops.ensure_durable(head, self.ops.load(head), &mut ctx.flusher);
            if hw != 0
                && self.ops.link_cas_persisted(head, hw, 0, &mut ctx.flusher) == CasOutcome::Ok
            {
                self.retire_chain(ctx, hw);
            }
        }
        Err(oom)
    }

    /// The bucket `key` hashes to in the current array: what
    /// [`Self::drain_out`] takes.
    pub fn bucket_of(&self, key: u64) -> usize {
        bucket_index(key, self.arr_n(self.load_bare(H_CUR)))
    }

    /// Drains bucket `b` out of this table: claims its live nodes, hands
    /// their pairs to `copy` — which must make a copy of each durable in
    /// the key's new home, insert-if-absent ([`Self::splice_in`]), or,
    /// failing, leave no copy of them anywhere — and only then swings the
    /// head to the sentinel with link-and-persist. From then on every
    /// operation on the bucket reports `Moved`. Returns how many live
    /// keys moved (0 if the bucket was drained already).
    ///
    /// It [seals](Self::seal) the table first; seal it before computing
    /// `b`, or a resize could move the key to another bucket.
    pub fn drain_out(
        &self,
        ctx: &mut ThreadCtx,
        b: usize,
        mut copy: impl FnMut(&[(u64, u64)]) -> Result<(), OutOfMemory>,
    ) -> Result<u64, OutOfMemory> {
        self.seal(ctx)?;
        ctx.begin_op();
        let cur = self.load_bare(H_CUR);
        let r = self.drain(ctx, cur, b, &mut |_, pairs| copy(pairs));
        ctx.end_op();
        r
    }

    /// Finishes any resize in flight and keeps [`Self::grow`] from
    /// starting another: the bucket array of a sealed table never changes.
    /// A no-op on a sealed table.
    pub fn seal(&self, ctx: &mut ThreadCtx) -> Result<(), OutOfMemory> {
        while !self.sealed.load(Ordering::Acquire) {
            self.finish_resize(ctx)?;
            let _g = self.resize_lock.lock().expect("resize lock");
            if self.geometry(&mut ctx.flusher).1 == 0 {
                self.sealed.store(true, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Drains bucket `b` of array `arr` unless it already carries the
    /// sentinel (one load of the head word), under its stripe lock.
    /// Returns how many live keys moved.
    fn drain(
        &self,
        ctx: &mut ThreadCtx,
        arr: usize,
        b: usize,
        copy: &mut CopyStep<'_>,
    ) -> Result<u64, OutOfMemory> {
        let head = bucket_link_at(arr, b);
        let hw = self.ops.load(head);
        if is_tagged(hw) {
            self.ops.ensure_durable(head, hw, &mut ctx.flusher);
            return Ok(0);
        }
        let _g = self.stripes[b % N_STRIPES].lock().expect("stripe lock");
        loop {
            if let Some(moved) = self.drain_bucket(ctx, head, copy)? {
                return Ok(moved);
            }
        }
    }

    /// Moves the whole chain at `head` into its destinations (caller
    /// holds the stripe lock). Returns `Ok(None)` when a race was lost
    /// and the bucket must be drained again.
    ///
    /// 1. **claim** — one walk tags every live node's `next` word
    ///    ([`Self::claim`]) and collects its pair. A claimed node can be
    ///    neither removed nor replaced (such writers re-route and wait on
    ///    the stripe lock), so every copy holds its original's value for
    ///    as long as both exist.
    /// 2. **copy** — `copy` makes a copy of each pair durable in its
    ///    destination ([`Self::splice`]: one fence for the copies and one
    ///    for their links, per destination pool).
    /// 3. **detach** — the old head goes from the first node to the `TAG`
    ///    sentinel with link-and-persist, bypassing the link cache:
    ///    writers enter the destination as soon as they see the sentinel,
    ///    so it must be durable by then. Every node of the detached chain
    ///    is retired, the skipped `DELETED` ones too — with their
    ///    predecessor claimed, nobody else can unlink them.
    ///
    /// A stale writer can still change the old head (a front insert, or
    /// the unlink of a deleted front node), which fails the detach and
    /// reruns the bucket; the rerun keeps the copies already made. The
    /// drain never runs `list::search` on its claimed chain: Harris's
    /// unlink cannot get past a claimed predecessor.
    fn drain_bucket(
        &self,
        ctx: &mut ThreadCtx,
        head: usize,
        copy: &mut CopyStep<'_>,
    ) -> Result<Option<u64>, OutOfMemory> {
        let hw = self.ops.ensure_durable(head, self.ops.load(head), &mut ctx.flusher);
        if is_tagged(hw) {
            return Ok(Some(0));
        }
        let mut pairs = Vec::new();
        let mut curr = addr_of(hw);
        while curr != 0 {
            let w = self.claim(curr, &mut ctx.flusher);
            if !is_deleted(w) {
                pairs.push((list::key_at(&self.ops, curr), list::value_at(&self.ops, curr)));
            }
            curr = addr_of(w);
        }
        if let Err(oom) = copy(ctx, &pairs) {
            // Back to "old chain only": un-claim, so removers are not
            // blocked on a stalled drain.
            self.unclaim(hw);
            return Err(oom);
        }
        if self.ops.link_cas_persisted(head, hw, TAG, &mut ctx.flusher) == CasOutcome::Retry {
            return Ok(None);
        }
        self.retire_chain(ctx, hw);
        Ok(Some(pairs.len() as u64))
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

    /// Inserts each of `pairs` whose key is absent — a drain-out's copy
    /// step, run on the destination table — and returns how many it
    /// inserted. On return every pair's key is durably present. The
    /// common case takes two fences however many pairs there are: the
    /// copies are written back under one, and spliced into their chains
    /// with batched link-and-persist under the other. A pair that loses a
    /// race to a concurrent writer, or meets a resize, is inserted on its
    /// own.
    pub fn splice_in(&self, ctx: &mut ThreadCtx, pairs: &[(u64, u64)]) -> Result<u64, OutOfMemory> {
        ctx.begin_op();
        let (cur, new) = self.geometry(&mut ctx.flusher);
        let spliced = if new == 0 || new == cur {
            self.splice(ctx, cur, (cur, new), pairs)
        } else {
            Ok((0, pairs.to_vec()))
        };
        let r = spliced.and_then(|(mut inserted, left)| {
            for (key, value) in left {
                let put = self.put_inner(ctx, key, value, PutMode::IfAbsent)?;
                inserted += u64::from(put == Put::Inserted);
                // Flushes the link if the link cache took it.
                self.ops.scan(key, &mut ctx.flusher);
            }
            Ok(inserted)
        });
        ctx.end_op();
        r
    }

    /// Splices a copy of each pair whose key is absent into its chain in
    /// array `arr`, which geometry `geo` routes to. The keys that fall
    /// into one gap of a chain form a key-ordered run of copies; all
    /// copies are written back under one fence, then each run is linked
    /// with one CAS, and all links are made durable under one more fence
    /// (batched link-and-persist). Returns how many keys it linked, and
    /// the pairs of each run whose CAS lost a race or whose chain moved on
    /// (their copies are freed). On `Err` nothing was linked.
    fn splice(
        &self,
        ctx: &mut ThreadCtx,
        arr: usize,
        geo: (usize, usize),
        pairs: &[(u64, u64)],
    ) -> Result<(u64, Vec<(u64, u64)>), OutOfMemory> {
        let n = self.arr_n(arr);
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable_by_key(|&(k, _)| (bucket_index(k, n), k));
        let mut left = Vec::new();
        // (predecessor link, its key, the node the run goes before, run)
        let mut runs: Vec<(usize, Option<u64>, usize, Range<usize>)> = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let (key, _) = pairs[i];
            let b = bucket_index(key, n);
            let f = list::search(&self.ops, ctx, bucket_link_at(arr, b), key);
            self.ops.scan(key, &mut ctx.flusher);
            if f.migrated {
                left.push(pairs[i]);
            }
            if f.migrated || (f.curr != 0 && f.curr_key == key) {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < pairs.len()
                && bucket_index(pairs[j].0, n) == b
                && (f.curr == 0 || pairs[j].0 < f.curr_key)
            {
                self.ops.scan(pairs[j].0, &mut ctx.flusher);
                j += 1;
            }
            runs.push((f.pred_link, f.pred_key, f.curr, i..j));
            i = j;
        }
        // Copy: each run chained back to front onto the node it precedes.
        let mut copies = Vec::new();
        let mut firsts = Vec::with_capacity(runs.len());
        for (_, _, curr, run) in &runs {
            let mut next = *curr as u64;
            for &(key, value) in pairs[run.clone()].iter().rev() {
                let Ok(c) = list::alloc_node(&self.ops, ctx, key, value, next) else {
                    copies.into_iter().for_each(|c| ctx.dealloc_unlinked(c));
                    return Err(OutOfMemory);
                };
                copies.push(c);
                next = c as u64;
            }
            firsts.push(next);
        }
        if copies.is_empty() {
            return Ok((0, left));
        }
        for &c in &copies {
            self.ops.persist_node(c, NODE_SIZE, &mut ctx.flusher);
        }
        self.ops.pre_link_fence(&mut ctx.flusher);
        // Link: batched link-and-persist, one fence for every run.
        let durable = self.ops.durable();
        let mark = if durable { DIRTY } else { 0 };
        let mut linked = Vec::with_capacity(runs.len());
        let mut inserted = 0;
        for ((pred_link, pred_key, curr, run), first) in runs.into_iter().zip(firsts) {
            if let Some(pk) = pred_key {
                self.ops.scan(pk, &mut ctx.flusher);
            }
            if durable {
                ctx.flusher.note_crash_event(CrashEvent::LinkPublish);
            }
            let link = self.ops.pool().atomic_u64(pred_link);
            if self.geometry_unchanged(geo.0, geo.1, &mut ctx.flusher)
                && link
                    .compare_exchange(
                        curr as u64,
                        first | mark,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
            {
                ctx.flusher.clwb(pred_link);
                linked.push((pred_link, first));
                inserted += run.len() as u64;
                continue;
            }
            let mut c = first as usize;
            while c != curr {
                let next = addr_of(self.ops.load(list::next_addr(c)));
                ctx.dealloc_unlinked(c);
                c = next;
            }
            left.extend_from_slice(&pairs[run]);
        }
        if durable && !linked.is_empty() {
            ctx.flusher.fence();
            for (addr, first) in linked {
                let _ = self.ops.pool().atomic_u64(addr).compare_exchange(
                    first | DIRTY,
                    first,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
        Ok((inserted, left))
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
    /// [`HELP_BUCKETS`] buckets, then tries to commit if the sweep has
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
            let idx = self.sweep.load(Ordering::Acquire);
            if idx >= old_n {
                self.try_finish(ctx);
                return Ok(());
            }
            self.ensure_migrated(ctx, old, new, idx)?;
            // Helpers race each other; a lost CAS is simply dropped.
            let _ = self.sweep.compare_exchange(idx, idx + 1, Ordering::AcqRel, Ordering::Acquire);
        }
        Ok(())
    }

    /// Commits a fully-drained resize: `CUR ← NEW`, retire the old
    /// array under epochs, `NEW ← 0`. No-op unless every old bucket
    /// carries the drained sentinel (the sweep is not trusted). Also
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
            self.sweep.fetch_max(old_n, Ordering::AcqRel);
        }
        self.try_finish(ctx);
        Ok(true)
    }

    /// Frees every heap region that is not the header or a live bucket
    /// array. **Recovery-only** (quiescent, and relies on the domain
    /// holding this table alone): reclaims arrays orphaned by a crash
    /// between allocation and publish, or between commit and the
    /// epoch-deferred free of the old array.
    pub(super) fn sweep_orphan_regions(&self, ctx: &mut ThreadCtx) {
        let (cur, new) = self.live_arrays();
        let domain = Arc::clone(ctx.domain());
        for r in domain.heap().regions() {
            if r != self.hdr && r != cur && Some(r) != new {
                domain.heap().free_region(r, &mut ctx.flusher);
            }
        }
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
        assert_eq!(ht.audit(&domain, |_| true), Vec::<String>::new(), "leaked nodes");
    }
}
