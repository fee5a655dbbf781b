//! Durable lock-free external binary search tree — the Natarajan–Mittal
//! algorithm (PPoPP 2014) with link-and-persist durability (§3).
//!
//! Keys live in **leaves**; internal nodes hold routing keys and exactly
//! two children. The deletion protocol marks *edges*: the edge to the
//! victim leaf is **flagged** (the durable linearization point of a
//! remove) and the sibling edge is **tagged** during cleanup, which then
//! swings the *ancestor* edge to the sibling, splicing out the parent and
//! the victim in one CAS. Flag, tag and the link-and-persist dirty mark
//! share the three low bits of every edge word ([`crate::marked`]).
//!
//! Durability placement:
//!
//! * insert CAS (parent edge: leaf → new internal) — durable
//!   ([`LinkOps::link_cas`]);
//! * remove's flag CAS — durable (it linearizes the remove);
//! * cleanup's bypass CAS (ancestor edge) — durable;
//! * the tag CAS is **not** persisted: tags are cleanup-internal and
//!   recovery recomputes cleanups from flags alone, clearing stray tags.
//!
//! # Node layout (one 32-byte slot, two to a cache line, both kinds)
//!
//! ```text
//! +0   key    u64     (sentinels: MAX-2, MAX-1, MAX; user keys <= MAX-3)
//! +8   value  u64     (leaves only)
//! +16  left   u64     edge word (0 in leaves)
//! +24  right  u64     edge word (0 in leaves)
//! ```

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{NvDomain, OutOfMemory, ThreadCtx};
use pmem::Flusher;

use crate::marked::{addr_of, bare, is_deleted, is_tagged, DELETED, DIRTY, TAG};
use crate::ops::{CasOutcome, LinkOps};
use crate::walk::Reached;
use crate::RestartReport;

const KEY_OFF: usize = 0;
const VAL_OFF: usize = 8;
const LEFT_OFF: usize = 16;
const RIGHT_OFF: usize = 24;
const NODE_SIZE: usize = 32;

/// Largest user key (three values are reserved for sentinels).
pub const MAX_BST_KEY: u64 = u64::MAX - 3;
const INF0: u64 = u64::MAX - 2;
const INF1: u64 = u64::MAX - 1;
const INF2: u64 = u64::MAX;

/// Result of `seek` (the NM seek record).
struct SeekRecord {
    ancestor: usize,
    successor: usize,
    parent: usize,
    leaf: usize,
}

/// The durable lock-free external BST.
pub struct Bst {
    ops: LinkOps,
    /// Address of the root sentinel R.
    root: usize,
}

impl Bst {
    /// Creates an empty tree anchored at root slot `root_idx`.
    pub fn create(
        domain: &NvDomain,
        ctx: &mut ThreadCtx,
        root_idx: usize,
        ops: LinkOps,
    ) -> Result<Self, OutOfMemory> {
        let pool = domain.pool();
        ctx.begin_op();
        let mk_leaf = |ctx: &mut ThreadCtx, key: u64| -> Result<usize, OutOfMemory> {
            let n = ctx.alloc(NODE_SIZE)?;
            pool.atomic_u64(n + KEY_OFF).store(key, Ordering::Relaxed);
            pool.atomic_u64(n + VAL_OFF).store(0, Ordering::Relaxed);
            pool.atomic_u64(n + LEFT_OFF).store(0, Ordering::Relaxed);
            pool.atomic_u64(n + RIGHT_OFF).store(0, Ordering::Release);
            ctx.flusher.clwb_range(n, NODE_SIZE);
            Ok(n)
        };
        let inf0 = mk_leaf(ctx, INF0)?;
        let inf1 = mk_leaf(ctx, INF1)?;
        let inf2 = mk_leaf(ctx, INF2)?;
        let s = ctx.alloc(NODE_SIZE)?;
        pool.atomic_u64(s + KEY_OFF).store(INF1, Ordering::Relaxed);
        pool.atomic_u64(s + VAL_OFF).store(0, Ordering::Relaxed);
        pool.atomic_u64(s + LEFT_OFF).store(inf0 as u64, Ordering::Relaxed);
        pool.atomic_u64(s + RIGHT_OFF).store(inf1 as u64, Ordering::Release);
        ctx.flusher.clwb_range(s, NODE_SIZE);
        let r = ctx.alloc(NODE_SIZE)?;
        pool.atomic_u64(r + KEY_OFF).store(INF2, Ordering::Relaxed);
        pool.atomic_u64(r + VAL_OFF).store(0, Ordering::Relaxed);
        pool.atomic_u64(r + LEFT_OFF).store(s as u64, Ordering::Relaxed);
        pool.atomic_u64(r + RIGHT_OFF).store(inf2 as u64, Ordering::Release);
        ctx.flusher.clwb_range(r, NODE_SIZE);
        ctx.flusher.fence();
        pool.set_root(root_idx, r as u64, &mut ctx.flusher);
        ctx.end_op();
        Ok(Self { ops, root: r })
    }

    /// Brings the tree at root slot `root_idx` of a crashed image back to
    /// service (§5.5): clears leftover marks, completes flagged
    /// deletions, then frees every allocated node that is not on its own
    /// key's search path (§5.5's first approach).
    pub fn restart(domain: &Arc<NvDomain>, root_idx: usize, ops: LinkOps) -> (Self, RestartReport) {
        let bst = Self { ops, root: domain.pool().root(root_idx) as usize };
        let (dirty_cleared, unlinked, live) = bst.recover(&mut domain.pool().flusher());
        let heap = domain.recover_leaks(|addr| bst.contains_node_at(addr));
        (bst, RestartReport { heap, dirty_cleared, unlinked, live: live as usize })
    }

    /// The persistence engine.
    pub fn ops(&self) -> &LinkOps {
        &self.ops
    }

    #[inline]
    fn key_at(&self, node: usize) -> u64 {
        self.ops.pool().atomic_u64(node + KEY_OFF).load(Ordering::Acquire)
    }

    #[inline]
    fn value_at(&self, node: usize) -> u64 {
        self.ops.pool().atomic_u64(node + VAL_OFF).load(Ordering::Acquire)
    }

    /// Address of the edge word of `node` on the search path of `key`.
    #[inline]
    fn child_edge(&self, node: usize, key: u64) -> usize {
        if key < self.key_at(node) {
            node + LEFT_OFF
        } else {
            node + RIGHT_OFF
        }
    }

    /// Address of the other edge word.
    #[inline]
    fn sibling_edge(&self, node: usize, key: u64) -> usize {
        if key < self.key_at(node) {
            node + RIGHT_OFF
        } else {
            node + LEFT_OFF
        }
    }

    #[inline]
    fn is_leaf(&self, node: usize) -> bool {
        addr_of(self.ops.load(node + LEFT_OFF)) == 0
            && addr_of(self.ops.load(node + RIGHT_OFF)) == 0
    }

    /// NM `seek`: descends to the leaf on `key`'s search path, recording
    /// the deepest untagged ancestor edge.
    fn seek(&self, key: u64) -> SeekRecord {
        let s = addr_of(self.ops.load(self.root + LEFT_OFF));
        let mut rec = SeekRecord {
            ancestor: self.root,
            successor: s,
            parent: s,
            leaf: addr_of(self.ops.load(s + LEFT_OFF)),
        };
        let mut parent_field = self.ops.load(s + LEFT_OFF);
        let mut current_field = self.ops.load(rec.leaf + LEFT_OFF);
        let mut current = addr_of(current_field);
        while current != 0 {
            if !is_tagged(parent_field) {
                rec.ancestor = rec.parent;
                rec.successor = rec.leaf;
            }
            rec.parent = rec.leaf;
            rec.leaf = current;
            parent_field = current_field;
            current_field = self.ops.load(self.child_edge(current, key));
            current = addr_of(current_field);
        }
        rec
    }

    /// Inserts `key -> value`; returns `Ok(false)` if present.
    pub fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        debug_assert!(key <= MAX_BST_KEY, "key out of range");
        ctx.begin_op();
        let r = self.insert_inner(ctx, key, value);
        ctx.end_op();
        r
    }

    fn insert_inner(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        let pool = self.ops.pool().clone();
        loop {
            let rec = self.seek(key);
            self.ops.scan(key, &mut ctx.flusher);
            let leaf_key = self.key_at(rec.leaf);
            let parent_edge = self.child_edge(rec.parent, key);
            if leaf_key == key {
                // Present: the decision depends on this edge (§3 rule 2).
                let w = self.ops.load(parent_edge);
                self.ops.ensure_durable(parent_edge, w, &mut ctx.flusher);
                return Ok(false);
            }
            let pk = self.key_at(rec.parent);
            if pk <= MAX_BST_KEY {
                self.ops.scan(pk, &mut ctx.flusher);
            }
            let new_leaf = ctx.alloc(NODE_SIZE)?;
            pool.atomic_u64(new_leaf + KEY_OFF).store(key, Ordering::Relaxed);
            pool.atomic_u64(new_leaf + VAL_OFF).store(value, Ordering::Relaxed);
            pool.atomic_u64(new_leaf + LEFT_OFF).store(0, Ordering::Relaxed);
            pool.atomic_u64(new_leaf + RIGHT_OFF).store(0, Ordering::Release);
            let internal = ctx.alloc(NODE_SIZE)?;
            let (l, rt) = if key < leaf_key { (new_leaf, rec.leaf) } else { (rec.leaf, new_leaf) };
            pool.atomic_u64(internal + KEY_OFF).store(key.max(leaf_key), Ordering::Relaxed);
            pool.atomic_u64(internal + VAL_OFF).store(0, Ordering::Relaxed);
            pool.atomic_u64(internal + LEFT_OFF).store(l as u64, Ordering::Relaxed);
            pool.atomic_u64(internal + RIGHT_OFF).store(rt as u64, Ordering::Release);
            self.ops.persist_node(new_leaf, NODE_SIZE, &mut ctx.flusher);
            self.ops.persist_node(internal, NODE_SIZE, &mut ctx.flusher);
            self.ops.pre_link_fence(&mut ctx.flusher);
            match self.ops.link_cas(
                key,
                parent_edge,
                rec.leaf as u64,
                internal as u64,
                &mut ctx.flusher,
            ) {
                CasOutcome::Ok => return Ok(true),
                CasOutcome::Retry => {
                    ctx.dealloc_unlinked(new_leaf);
                    ctx.dealloc_unlinked(internal);
                    let w = self.ops.load(parent_edge);
                    let w = self.ops.ensure_durable(parent_edge, w, &mut ctx.flusher);
                    if addr_of(w) == rec.leaf && (is_deleted(w) || is_tagged(w)) {
                        // Help the delete that owns this edge.
                        self.cleanup(ctx, key, &rec);
                    }
                }
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = self.remove_inner(ctx, key);
        ctx.end_op();
        r
    }

    fn remove_inner(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let mut injecting = true;
        let mut victim = 0usize;
        let mut val = 0u64;
        loop {
            let rec = self.seek(key);
            self.ops.scan(key, &mut ctx.flusher);
            let parent_edge = self.child_edge(rec.parent, key);
            if injecting {
                if self.key_at(rec.leaf) != key {
                    let w = self.ops.load(parent_edge);
                    self.ops.ensure_durable(parent_edge, w, &mut ctx.flusher);
                    return None;
                }
                let pk = self.key_at(rec.parent);
                if pk <= MAX_BST_KEY {
                    self.ops.scan(pk, &mut ctx.flusher);
                }
                val = self.value_at(rec.leaf);
                // Injection: flag the edge — the durable linearization
                // point of the remove.
                match self.ops.link_cas(
                    key,
                    parent_edge,
                    rec.leaf as u64,
                    rec.leaf as u64 | DELETED,
                    &mut ctx.flusher,
                ) {
                    CasOutcome::Ok => {
                        injecting = false;
                        victim = rec.leaf;
                        if self.cleanup(ctx, key, &rec) {
                            return Some(val);
                        }
                    }
                    CasOutcome::Retry => {
                        let w = self.ops.load(parent_edge);
                        let w = self.ops.ensure_durable(parent_edge, w, &mut ctx.flusher);
                        if addr_of(w) == rec.leaf && (is_deleted(w) || is_tagged(w)) {
                            self.cleanup(ctx, key, &rec);
                        }
                    }
                }
            } else {
                if rec.leaf != victim {
                    // Someone else's bypass already spliced our victim out.
                    return Some(val);
                }
                if self.cleanup(ctx, key, &rec) {
                    return Some(val);
                }
            }
        }
    }

    /// NM `cleanup`: tags the sibling edge, then swings the ancestor edge
    /// to the sibling, splicing out the parent chain and every flagged
    /// leaf hanging off it. Returns whether this call's CAS did the splice.
    fn cleanup(&self, ctx: &mut ThreadCtx, key: u64, rec: &SeekRecord) -> bool {
        let pool = self.ops.pool();
        let succ_edge = self.child_edge(rec.ancestor, key);
        let mut child_edge = self.child_edge(rec.parent, key);
        let mut sibling_edge = self.sibling_edge(rec.parent, key);
        let cw = self.ops.load(child_edge);
        if !is_deleted(cw) {
            // The flagged edge is on the other side (we are helping a
            // delete whose victim is the sibling).
            std::mem::swap(&mut child_edge, &mut sibling_edge);
        }
        // Tag the sibling edge so it cannot change under the splice. Tags
        // are volatile: recovery recomputes cleanup from flags (see module
        // docs).
        loop {
            let w = self.ops.load(sibling_edge);
            if is_tagged(w) {
                break;
            }
            let w = self.ops.ensure_durable(sibling_edge, w, &mut ctx.flusher);
            if pool
                .atomic_u64(sibling_edge)
                .compare_exchange(w, w | TAG, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        let sib_w = self.ops.load(sibling_edge);
        // Splice: ancestor edge successor -> sibling child; the tag (and
        // any dirty bit) is stripped, a flag on the moved-up leaf is kept.
        let new_w = bare(sib_w) | (sib_w & DELETED);
        match self.ops.link_cas(key, succ_edge, rec.successor as u64, new_w, &mut ctx.flusher) {
            CasOutcome::Ok => {
                self.retire_chain(ctx, rec.successor, addr_of(sib_w));
                true
            }
            CasOutcome::Retry => {
                let w = self.ops.load(succ_edge);
                self.ops.ensure_durable(succ_edge, w, &mut ctx.flusher);
                false
            }
        }
    }

    /// Retires the spliced-out chain: every internal node from `successor`
    /// along tagged edges, plus each flagged (deleted) leaf hanging off
    /// it, stopping at the moved-up child. Defensive bounds make this leak
    /// (never corrupt) under pathological interleavings.
    fn retire_chain(&self, ctx: &mut ThreadCtx, successor: usize, moved_up: usize) {
        let mut node = successor;
        for _ in 0..128 {
            if node == moved_up || node == 0 {
                return;
            }
            let lw = self.ops.load(node + LEFT_OFF);
            let rw = self.ops.load(node + RIGHT_OFF);
            if addr_of(lw) == 0 && addr_of(rw) == 0 {
                // A leaf mid-chain: shouldn't happen; retire and stop.
                ctx.retire(node);
                return;
            }
            ctx.retire(node);
            let (follow, other) = if is_tagged(lw) && !is_tagged(rw) {
                (lw, rw)
            } else if is_tagged(rw) && !is_tagged(lw) {
                (rw, lw)
            } else {
                // Ambiguous (both/neither tagged): stop — leak, don't risk
                // retiring a live node.
                return;
            };
            if is_deleted(other) && !is_tagged(other) && addr_of(other) != 0 {
                ctx.retire(addr_of(other));
            }
            node = addr_of(follow);
        }
    }

    /// Looks up `key`.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = self.get_inner(ctx, key);
        ctx.end_op();
        r
    }

    fn get_inner(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let mut edge = self.child_edge(self.root, key);
        let mut w = self.ops.load(edge);
        let mut node = addr_of(w);
        while node != 0 && !self.is_leaf(node) {
            edge = self.child_edge(node, key);
            w = self.ops.load(edge);
            node = addr_of(w);
        }
        let result = if node != 0 && self.key_at(node) == key {
            // The decision depends on this edge being durable (§3).
            self.ops.ensure_durable(edge, w, &mut ctx.flusher);
            Some(self.value_at(node))
        } else {
            if node != 0 {
                self.ops.ensure_durable(edge, w, &mut ctx.flusher);
            }
            None
        };
        self.ops.scan(key, &mut ctx.flusher);
        result
    }

    /// Whether `key` is present.
    pub fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        self.get(ctx, key).is_some()
    }

    /// Quiescent post-crash fixup:
    ///
    /// 1. clear every dirty mark,
    /// 2. complete every flagged deletion (splice out parent + victim),
    /// 3. clear stray tags (tags are never durable state).
    ///
    /// Returns `(dirty_cleared, deletions_completed, live)`.
    fn recover(&self, flusher: &mut Flusher) -> (u64, u64, u64) {
        let pool = self.ops.pool();
        let mut dirty = 0u64;
        // Pass 1+3 combined helper: DFS clearing DIRTY (and later TAG);
        // also counts the live user leaves it passes.
        let clear_bits = |bits: u64, flusher: &mut Flusher| {
            let (mut cleared, mut live) = (0u64, 0u64);
            let mut stack = vec![self.root];
            while let Some(n) = stack.pop() {
                for off in [LEFT_OFF, RIGHT_OFF] {
                    let w = pool.atomic_u64(n + off).load(Ordering::Acquire);
                    if w & bits != 0 {
                        pool.atomic_u64(n + off).store(w & !bits, Ordering::Release);
                        flusher.clwb(n + off);
                        cleared += 1;
                    }
                    let child = addr_of(w);
                    if child != 0 && !self.is_leaf(child) {
                        stack.push(child);
                    } else if child != 0 && !is_deleted(w) && self.key_at(child) <= MAX_BST_KEY {
                        live += 1;
                    }
                }
            }
            (cleared, live)
        };
        dirty += clear_bits(DIRTY, flusher).0;
        // Pass 2: complete flagged deletions until none remain. Each DFS
        // tracks (grandparent edge, parent); a flagged child edge means
        // "parent and this leaf must go".
        let mut completed = 0u64;
        'restart: loop {
            let mut stack: Vec<(usize, usize)> = Vec::new();
            for off in [LEFT_OFF, RIGHT_OFF] {
                let w = pool.atomic_u64(self.root + off).load(Ordering::Acquire);
                let child = addr_of(w);
                if child != 0 && !self.is_leaf(child) {
                    stack.push((self.root + off, child));
                }
            }
            while let Some((gp_edge, parent)) = stack.pop() {
                for off in [LEFT_OFF, RIGHT_OFF] {
                    let w = pool.atomic_u64(parent + off).load(Ordering::Acquire);
                    if is_deleted(w) {
                        // Complete: splice the sibling up to the
                        // grandparent edge, keeping a flag on the sibling
                        // if it is itself a flagged leaf.
                        let sib_off = if off == LEFT_OFF { RIGHT_OFF } else { LEFT_OFF };
                        let sib_w = pool.atomic_u64(parent + sib_off).load(Ordering::Acquire);
                        let new_w = bare(sib_w) | (sib_w & DELETED);
                        pool.atomic_u64(gp_edge).store(new_w, Ordering::Release);
                        flusher.clwb(gp_edge);
                        completed += 1;
                        continue 'restart;
                    }
                    let child = addr_of(w);
                    if child != 0 && !self.is_leaf(child) {
                        stack.push((parent + off, child));
                    }
                }
            }
            break;
        }
        let (_, live) = clear_bits(TAG | DIRTY, flusher);
        flusher.fence();
        (dirty, completed, live)
    }

    /// §5.5 first-approach oracle: is there a node (internal or leaf) at
    /// exactly `addr` on its own key's search path?
    fn contains_node_at(&self, addr: usize) -> bool {
        let key = self.ops.pool().atomic_u64(addr + KEY_OFF).load(Ordering::Acquire);
        let mut node = self.root;
        loop {
            if node == addr {
                return true;
            }
            if self.is_leaf(node) {
                return false;
            }
            node = addr_of(self.ops.load(self.child_edge(node, key)));
            if node == 0 {
                return false;
            }
        }
    }

    /// Visits every node the tree reaches, depth first and left first,
    /// so its leaves come in key order (see [`Reached`]; quiescent). A
    /// left child's range ends below its parent's key, a right child's
    /// starts at it.
    pub fn walk(&self, mut visit: impl FnMut(Reached)) {
        let mut seen = HashSet::new();
        let mut stack = vec![(self.root as u64, 0..=u64::MAX)];
        while let Some((link, keys)) = stack.pop() {
            let node = addr_of(link);
            let key = self.key_at(node);
            let (lo, hi) = (*keys.start(), *keys.end());
            let value = self.value_at(node);
            let deleted = is_deleted(link);
            visit(Reached { addr: node, key, value, link, keys, deleted, bucket: (0, 1) });
            if !seen.insert(node) || self.is_leaf(node) {
                continue;
            }
            let left = lo..=key.saturating_sub(1).min(hi);
            for (off, keys) in [(RIGHT_OFF, lo.max(key)..=hi), (LEFT_OFF, left)] {
                let w = self.ops.load(node + off);
                if addr_of(w) != 0 {
                    stack.push((w, keys));
                }
            }
        }
    }

    /// Quiescent snapshot of live user pairs in key order: the leaves
    /// that hold a user key and are not reached through a flagged edge.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        self.walk(|r| {
            let live = !r.deleted && r.key <= MAX_BST_KEY && self.is_leaf(r.addr);
            v.extend(live.then_some((r.key, r.value)));
        });
        v
    }
}

// SAFETY: all shared state lives in the pool and is accessed atomically.
unsafe impl Send for Bst {}
// SAFETY: see above.
unsafe impl Sync for Bst {}
