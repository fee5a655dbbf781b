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
use pmem::{Flusher, PmemPool};

use crate::list::step_budget;
use crate::marked::{addr_of, bare, is_deleted, is_tagged, DELETED, DIRTY, TAG};
use crate::ops::{CasOutcome, LinkOps};
use crate::walk::Reached;
use crate::{GeometryError, RestartReport};

const KEY_OFF: usize = 0;
const VAL_OFF: usize = 8;
/// Byte offset of a node's left edge word (0 in a leaf).
pub const LEFT_OFF: usize = 16;
const RIGHT_OFF: usize = 24;
const NODE_SIZE: usize = 32;

/// Largest user key (three values are reserved for sentinels).
pub const MAX_BST_KEY: u64 = u64::MAX - 3;
const INF0: u64 = u64::MAX - 2;
const INF1: u64 = u64::MAX - 1;
const INF2: u64 = u64::MAX;

/// Writes the words of the fresh node at `n`; `l` and `r` are 0 in a
/// leaf. Not durable yet.
#[inline]
fn init_node(pool: &PmemPool, n: usize, key: u64, value: u64, l: usize, r: usize) {
    pool.atomic_u64(n + KEY_OFF).store(key, Ordering::Relaxed);
    pool.atomic_u64(n + VAL_OFF).store(value, Ordering::Relaxed);
    pool.atomic_u64(n + LEFT_OFF).store(l as u64, Ordering::Relaxed);
    pool.atomic_u64(n + RIGHT_OFF).store(r as u64, Ordering::Release);
}

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
        let mk = |ctx: &mut ThreadCtx, key, l, r| -> Result<usize, OutOfMemory> {
            let n = ctx.alloc(NODE_SIZE)?;
            init_node(pool, n, key, 0, l, r);
            ctx.flusher.clwb_range(n, NODE_SIZE);
            Ok(n)
        };
        let (inf0, inf1, inf2) = (mk(ctx, INF0, 0, 0)?, mk(ctx, INF1, 0, 0)?, mk(ctx, INF2, 0, 0)?);
        let s = mk(ctx, INF1, inf0, inf1)?;
        let r = mk(ctx, INF2, s, inf2)?;
        ctx.flusher.fence();
        pool.set_root(root_idx, r as u64, &mut ctx.flusher);
        ctx.end_op();
        Ok(Self { ops, root: r })
    }

    /// Brings the tree at root slot `root_idx` of a crashed image back to
    /// service (§5.5): clears leftover marks, completes flagged
    /// deletions, then frees every allocated node that is not on its own
    /// key's search path (§5.5's first approach). A tree that reaches a
    /// node twice (an edge back to an ancestor) is
    /// [`GeometryError::Cycle`], and nothing is freed.
    pub fn restart(
        domain: &Arc<NvDomain>,
        root_idx: usize,
        ops: LinkOps,
    ) -> Result<(Self, RestartReport), GeometryError> {
        let bst = Self { ops, root: domain.pool().root(root_idx) as usize };
        let (dirty_cleared, unlinked, live) = bst.recover(&mut domain.pool().flusher())?;
        let heap = domain.recover_leaks(|addr| bst.contains_node_at(addr));
        Ok((bst, RestartReport { heap, dirty_cleared, unlinked, live: live as usize }))
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
            init_node(&pool, new_leaf, key, value, 0, 0);
            let internal = ctx.alloc(NODE_SIZE)?;
            let (l, rt) = if key < leaf_key { (new_leaf, rec.leaf) } else { (rec.leaf, new_leaf) };
            init_node(&pool, internal, key.max(leaf_key), 0, l, rt);
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
    /// Returns `(dirty_cleared, deletions_completed, live)`, or
    /// [`GeometryError::Cycle`] for a tree that reaches a node twice.
    fn recover(&self, flusher: &mut Flusher) -> Result<(u64, u64, u64), GeometryError> {
        let pool = self.ops.pool();
        // Passes 1 and 3: clear `bits` on every edge, and count the live
        // user leaves.
        let clear_bits = |bits: u64, flusher: &mut Flusher| {
            let (mut cleared, mut live) = (0u64, 0u64);
            self.internal_nodes(|_, n| {
                for off in [LEFT_OFF, RIGHT_OFF] {
                    let w = self.ops.load(n + off);
                    if w & bits != 0 {
                        pool.atomic_u64(n + off).store(w & !bits, Ordering::Release);
                        flusher.clwb(n + off);
                        cleared += 1;
                    }
                    let child = addr_of(w);
                    let user_leaf =
                        child != 0 && self.is_leaf(child) && self.key_at(child) <= MAX_BST_KEY;
                    if user_leaf && !is_deleted(w) {
                        live += 1;
                    }
                }
                true
            })?;
            Ok((cleared, live))
        };
        let (dirty, _) = clear_bits(DIRTY, flusher)?;
        // Pass 2: complete flagged deletions until none remain. A flagged
        // child edge means "its parent and this leaf must go": splice the
        // sibling up to the grandparent edge, keeping a flag on the
        // sibling if it is itself a flagged leaf. Each splice restarts the
        // walk.
        let mut splice = |gp_edge, parent| {
            let flagged = |&off: &usize| gp_edge != 0 && is_deleted(self.ops.load(parent + off));
            let Some(off) = [LEFT_OFF, RIGHT_OFF].into_iter().find(flagged) else {
                return true;
            };
            let sib_off = if off == LEFT_OFF { RIGHT_OFF } else { LEFT_OFF };
            let sib_w = self.ops.load(parent + sib_off);
            pool.atomic_u64(gp_edge).store(bare(sib_w) | (sib_w & DELETED), Ordering::Release);
            flusher.clwb(gp_edge);
            false
        };
        let mut completed = 0u64;
        while self.internal_nodes(&mut splice)? {
            completed += 1;
        }
        let (_, live) = clear_bits(TAG | DIRTY, flusher)?;
        flusher.fence();
        Ok((dirty, completed, live))
    }

    /// Visits the root and every internal node below it, depth first,
    /// with the address of the edge that reached it (0 for the root),
    /// until `visit` returns `false`; returns whether it did. It takes
    /// one step per node, at most the list's [`step_budget`]: a walk that
    /// spends it has met a node twice (an edge back to an ancestor), and
    /// ends with [`GeometryError::Cycle`].
    fn internal_nodes(
        &self,
        mut visit: impl FnMut(usize, usize) -> bool,
    ) -> Result<bool, GeometryError> {
        let mut left = step_budget(&self.ops);
        let mut stack = vec![(0, self.root)];
        while let Some((edge, node)) = stack.pop() {
            left = left.checked_sub(1).ok_or(GeometryError::Cycle { at: self.root })?;
            if !visit(edge, node) {
                return Ok(true);
            }
            for off in [LEFT_OFF, RIGHT_OFF] {
                let child = addr_of(self.ops.load(node + off));
                if child != 0 && !self.is_leaf(child) {
                    stack.push((node + off, child));
                }
            }
        }
        Ok(false)
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
