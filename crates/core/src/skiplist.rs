//! Durable lock-free skip list — the Herlihy–Shavit lock-free algorithm
//! (*The Art of Multiprocessor Programming*, via Fraser), with the paper's
//! link-and-persist durability rules applied to the bottom level.
//!
//! Set membership is defined entirely by the level-0 chain: a node is in
//! the set iff it is reachable at level 0 with an unmarked level-0 next
//! pointer. Consequently (§3):
//!
//! * level-0 link updates — the linearization points — go through
//!   [`LinkOps::link_cas`] (link-and-persist / link cache);
//! * upper-level (index) links are written back with `clwb` but never
//!   fenced or dirty-marked: losing them cannot affect durable
//!   linearizability, and recovery rebuilds the whole index from the
//!   level-0 chain in one pass (see DESIGN.md, "Known deviations").
//!
//! # Node layout
//!
//! ```text
//! +0   key     u64
//! +8   value   u64
//! +16  height  u64            (1..=MAX_HEIGHT)
//! +24  tower   height × u64   (next pointers; [0] carries DELETED/DIRTY)
//! ```
//!
//! A node of height `h` occupies `24 + 8h` bytes, placed in the matching
//! slab class (32/64/128/192/256 B). The head sentinel has full height and
//! key 0 (keys 0 and `u64::MAX` are reserved).

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{NvDomain, OutOfMemory, ThreadCtx};
use pmem::Flusher;

use crate::list::{self, Chain, MAX_KEY};
use crate::marked::{addr_of, bare, is_deleted, DELETED};
use crate::ops::{CasOutcome, LinkOps};
use crate::walk::Reached;
use crate::{GeometryError, RestartReport};

/// Maximum tower height (fits the 256-byte slab class).
pub const MAX_HEIGHT: usize = 24;

const KEY_OFF: usize = 0;
const VAL_OFF: usize = 8;
const HEIGHT_OFF: usize = 16;
/// Byte offset of a node's tower: its level-0 link is the first word.
pub const TOWER_OFF: usize = 24;

#[inline]
fn node_size(height: usize) -> usize {
    TOWER_OFF + 8 * height
}

#[inline]
fn tower(node: usize, level: usize) -> usize {
    node + TOWER_OFF + 8 * level
}

thread_local! {
    /// Per-thread xorshift state for geometric height selection.
    static HEIGHT_RNG: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
}

fn random_height() -> usize {
    HEIGHT_RNG.with(|c| {
        let mut x = c.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        // Geometric with p = 1/2, capped.
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    })
}

/// The durable lock-free skip list.
pub struct SkipList {
    ops: LinkOps,
    /// Address of the full-height head sentinel.
    head: usize,
}

struct FindResult {
    preds: [usize; MAX_HEIGHT],
    succs: [usize; MAX_HEIGHT],
    found: bool,
}

impl SkipList {
    /// Creates an empty skip list anchored at root slot `root_idx`. The
    /// head sentinel is allocated through `ctx`.
    pub fn create(
        domain: &NvDomain,
        ctx: &mut ThreadCtx,
        root_idx: usize,
        ops: LinkOps,
    ) -> Result<Self, OutOfMemory> {
        let pool = domain.pool();
        ctx.begin_op();
        let head = ctx.alloc(node_size(MAX_HEIGHT))?;
        for off in (0..node_size(MAX_HEIGHT)).step_by(8) {
            pool.atomic_u64(head + off).store(0, Ordering::Relaxed);
        }
        pool.atomic_u64(head + HEIGHT_OFF).store(MAX_HEIGHT as u64, Ordering::Release);
        ctx.flusher.clwb_range(head, node_size(MAX_HEIGHT));
        ctx.flusher.fence();
        pool.set_root(root_idx, head as u64, &mut ctx.flusher);
        ctx.end_op();
        Ok(Self { ops, head })
    }

    /// Brings the skip list at root slot `root_idx` of a crashed image
    /// back to service (§5.5): repairs level 0 and rebuilds the index,
    /// then frees every allocated node that a search for its own key does
    /// not reach (§5.5's first approach). A level-0 chain that loops is
    /// [`GeometryError::Cycle`], and nothing is freed.
    pub fn restart(
        domain: &Arc<NvDomain>,
        root_idx: usize,
        ops: LinkOps,
    ) -> Result<(Self, RestartReport), GeometryError> {
        let sl = Self { ops, head: domain.pool().root(root_idx) as usize };
        let (dirty_cleared, unlinked, live) = sl.recover(&mut domain.pool().flusher())?;
        let heap = domain.recover_leaks(|addr| sl.contains_node_at(addr));
        Ok((sl, RestartReport { heap, dirty_cleared, unlinked, live: live as usize }))
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

    #[inline]
    fn height_at(&self, node: usize) -> usize {
        self.ops.pool().atomic_u64(node + HEIGHT_OFF).load(Ordering::Acquire) as usize
    }

    /// Herlihy–Shavit `find`: locates preds/succs at every level, snipping
    /// marked nodes. Level-0 snips are durable unlinks (and the snipping
    /// thread retires the node); upper-level snips are index-only.
    fn find(&self, ctx: &mut ThreadCtx, key: u64) -> FindResult {
        'retry: loop {
            let mut preds = [self.head; MAX_HEIGHT];
            let mut succs = [0usize; MAX_HEIGHT];
            let mut pred = self.head;
            for level in (0..MAX_HEIGHT).rev() {
                let mut curr = addr_of(self.ops.load(tower(pred, level)));
                loop {
                    if curr == 0 {
                        break;
                    }
                    let mut succ_w = self.ops.load(tower(curr, level));
                    while is_deleted(succ_w) {
                        // Snip the marked node at this level.
                        if level == 0 {
                            let succ_w2 =
                                self.ops.ensure_durable(tower(curr, 0), succ_w, &mut ctx.flusher);
                            let pw = self.ops.load(tower(pred, 0));
                            let pw = self.ops.ensure_durable(tower(pred, 0), pw, &mut ctx.flusher);
                            if bare(pw) != curr as u64 || is_deleted(pw) {
                                continue 'retry;
                            }
                            match self.ops.link_cas(
                                self.key_at(curr),
                                tower(pred, 0),
                                curr as u64,
                                bare(succ_w2),
                                &mut ctx.flusher,
                            ) {
                                CasOutcome::Ok => ctx.retire(curr),
                                CasOutcome::Retry => continue 'retry,
                            }
                            curr = addr_of(succ_w2);
                        } else {
                            let pool = self.ops.pool();
                            if pool
                                .atomic_u64(tower(pred, level))
                                .compare_exchange(
                                    curr as u64,
                                    bare(succ_w),
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_err()
                            {
                                continue 'retry;
                            }
                            if self.ops.durable() {
                                ctx.flusher.clwb(tower(pred, level));
                            }
                            curr = addr_of(succ_w);
                        }
                        if curr == 0 {
                            break;
                        }
                        succ_w = self.ops.load(tower(curr, level));
                    }
                    if curr == 0 {
                        break;
                    }
                    if self.key_at(curr) < key {
                        pred = curr;
                        curr = addr_of(succ_w);
                    } else {
                        break;
                    }
                }
                preds[level] = pred;
                succs[level] = curr;
            }
            // Durable adjacency at the decision level (§3 rule 2).
            if self.ops.durable() {
                let pl = tower(preds[0], 0);
                let w = self.ops.load(pl);
                self.ops.ensure_durable(pl, w, &mut ctx.flusher);
                if succs[0] != 0 {
                    let sl = tower(succs[0], 0);
                    let w = self.ops.load(sl);
                    self.ops.ensure_durable(sl, w, &mut ctx.flusher);
                }
            }
            let found = succs[0] != 0 && self.key_at(succs[0]) == key;
            return FindResult { preds, succs, found };
        }
    }

    /// Inserts `key -> value`; returns `Ok(false)` if present.
    pub fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        debug_assert!(key > 0 && key < u64::MAX, "key out of range");
        ctx.begin_op();
        let r = self.insert_inner(ctx, key, value);
        ctx.end_op();
        r
    }

    fn insert_inner(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        let pool = self.ops.pool().clone();
        loop {
            let f = self.find(ctx, key);
            self.ops.scan(key, &mut ctx.flusher);
            if f.found {
                return Ok(false);
            }
            let pk = self.key_at(f.preds[0]);
            if pk != 0 {
                self.ops.scan(pk, &mut ctx.flusher);
            }
            let height = random_height();
            let node = ctx.alloc(node_size(height))?;
            pool.atomic_u64(node + KEY_OFF).store(key, Ordering::Relaxed);
            pool.atomic_u64(node + VAL_OFF).store(value, Ordering::Relaxed);
            pool.atomic_u64(node + HEIGHT_OFF).store(height as u64, Ordering::Relaxed);
            for level in 0..height {
                pool.atomic_u64(tower(node, level)).store(f.succs[level] as u64, Ordering::Release);
            }
            self.ops.persist_node(node, node_size(height), &mut ctx.flusher);
            self.ops.pre_link_fence(&mut ctx.flusher);
            // Level-0 link: the linearization point, durably installed.
            match self.ops.link_cas(
                key,
                tower(f.preds[0], 0),
                f.succs[0] as u64,
                node as u64,
                &mut ctx.flusher,
            ) {
                CasOutcome::Retry => {
                    ctx.dealloc_unlinked(node);
                    continue;
                }
                CasOutcome::Ok => {}
            }
            // Index levels: plain CAS + write-back, helped by re-finding.
            let mut f = f;
            for level in 1..height {
                loop {
                    let link = tower(node, level);
                    let w = self.ops.load(link);
                    if is_deleted(w) || is_deleted(self.ops.load(tower(node, 0))) {
                        return Ok(true); // concurrently deleted; stop indexing
                    }
                    let succ = f.succs[level];
                    if addr_of(w) != succ
                        && pool
                            .atomic_u64(link)
                            .compare_exchange(w, succ as u64, Ordering::AcqRel, Ordering::Acquire)
                            .is_err()
                    {
                        continue; // node's tower changed (mark?); re-check
                    }
                    if pool
                        .atomic_u64(tower(f.preds[level], level))
                        .compare_exchange(
                            succ as u64,
                            node as u64,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        if self.ops.durable() {
                            ctx.flusher.clwb(tower(f.preds[level], level));
                        }
                        break;
                    }
                    f = self.find(ctx, key);
                    if f.succs[0] != node {
                        return Ok(true); // deleted and replaced meanwhile
                    }
                }
            }
            return Ok(true);
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
        let pool = self.ops.pool();
        let f = self.find(ctx, key);
        self.ops.scan(key, &mut ctx.flusher);
        if !f.found {
            return None;
        }
        let pk = self.key_at(f.preds[0]);
        if pk != 0 {
            self.ops.scan(pk, &mut ctx.flusher);
        }
        let node = f.succs[0];
        let height = self.height_at(node);
        // Mark index levels top-down (volatile index state).
        for level in (1..height).rev() {
            loop {
                let w = self.ops.load(tower(node, level));
                if is_deleted(w) {
                    break;
                }
                if pool
                    .atomic_u64(tower(node, level))
                    .compare_exchange(w, w | DELETED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
            }
        }
        // Mark level 0: the durable linearization point.
        loop {
            let w = self.ops.load(tower(node, 0));
            let w = self.ops.ensure_durable(tower(node, 0), w, &mut ctx.flusher);
            if is_deleted(w) {
                return None; // another remover linearized first
            }
            match self.ops.link_cas(key, tower(node, 0), w, w | DELETED, &mut ctx.flusher) {
                CasOutcome::Ok => {
                    let val = self.value_at(node);
                    // Physical removal (snips at every level; the level-0
                    // snipper retires the node).
                    let _ = self.find(ctx, key);
                    return Some(val);
                }
                CasOutcome::Retry => continue,
            }
        }
    }

    /// Looks up `key` without modifying the structure.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = self.get_inner(ctx, key);
        ctx.end_op();
        r
    }

    fn get_inner(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let mut pred = self.head;
        let mut level = MAX_HEIGHT - 1;
        let mut result = None;
        loop {
            let w = self.ops.load(tower(pred, level));
            let curr = addr_of(w);
            if curr != 0 && self.key_at(curr) < key {
                pred = curr;
                continue;
            }
            if level > 0 {
                level -= 1;
                continue;
            }
            // Level 0 decision point.
            if curr != 0 && self.key_at(curr) == key {
                let cw = self.ops.load(tower(curr, 0));
                if !is_deleted(cw) {
                    if self.ops.durable() {
                        self.ops.ensure_durable(tower(pred, 0), w, &mut ctx.flusher);
                        self.ops.ensure_durable(tower(curr, 0), cw, &mut ctx.flusher);
                    }
                    result = Some(self.value_at(curr));
                } else {
                    // Absence relies on the mark: make it durable.
                    self.ops.ensure_durable(tower(curr, 0), cw, &mut ctx.flusher);
                }
            }
            break;
        }
        self.ops.scan(key, &mut ctx.flusher);
        result
    }

    /// Whether `key` is present.
    pub fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        self.get(ctx, key).is_some()
    }

    /// Quiescent post-crash fixup: repairs the level-0 chain with the
    /// linked list's own fixup (clear dirty marks, complete unlinks of
    /// marked nodes), then rebuilds the entire index from the surviving chain in
    /// a single pass. Returns `(dirty_cleared, unlinked, live)`, or
    /// [`GeometryError::Cycle`] when level 0 loops.
    // Tower levels index `last` and feed `tower()` at once; a range loop
    // reads better than iterator adapters here.
    #[allow(clippy::needless_range_loop)]
    fn recover(&self, flusher: &mut Flusher) -> Result<(u64, u64, u64), GeometryError> {
        let pool = self.ops.pool();
        let level0 = tower(self.head, 0);
        // Pass 1: fix the level-0 chain.
        let (dirty, unlinked, live) = list::recover_chain(&self.ops, level0, TOWER_OFF, flusher)?;
        // Pass 2: rebuild the index. `last[l]` is the most recent node of
        // height > l whose level-l link is still open.
        let mut last = [self.head; MAX_HEIGHT];
        let mut chain = Chain::new(&self.ops, level0, self.ops.load(level0), TOWER_OFF);
        for curr in chain.by_ref() {
            let h = self.height_at(curr).min(MAX_HEIGHT);
            for level in 1..h {
                pool.atomic_u64(tower(last[level], level)).store(curr as u64, Ordering::Release);
                flusher.clwb(tower(last[level], level));
                last[level] = curr;
            }
        }
        chain.end()?;
        for level in 1..MAX_HEIGHT {
            pool.atomic_u64(tower(last[level], level)).store(0, Ordering::Release);
            flusher.clwb(tower(last[level], level));
        }
        flusher.fence();
        Ok((dirty, unlinked, live))
    }

    /// §5.5 first-approach oracle: node-identity search.
    fn contains_node_at(&self, addr: usize) -> bool {
        let key = self.ops.pool().atomic_u64(addr + KEY_OFF).load(Ordering::Acquire);
        if addr == self.head {
            return true;
        }
        let mut pred = self.head;
        let mut level = MAX_HEIGHT - 1;
        loop {
            let curr = addr_of(self.ops.load(tower(pred, level)));
            if curr != 0 && self.key_at(curr) < key {
                pred = curr;
                continue;
            }
            if level > 0 {
                level -= 1;
                continue;
            }
            return curr == addr && !is_deleted(self.ops.load(tower(curr, 0)));
        }
    }

    /// Visits every node the list reaches (see [`Reached`]; quiescent):
    /// the head, then level 0 in key order, then any node only an index
    /// level reaches. A level is followed while its keys increase; a node
    /// that breaks the order is visited, with its level's range, and ends
    /// that level.
    pub fn walk(&self, mut visit: impl FnMut(Reached)) {
        let reached = |addr: usize, link: u64, keys| Reached {
            addr,
            key: self.key_at(addr),
            value: self.value_at(addr),
            link,
            keys,
            deleted: addr != self.head && is_deleted(self.ops.load(tower(addr, 0))),
            bucket: (0, 1),
        };
        visit(reached(self.head, self.head as u64, 0..=0));
        let mut seen = HashSet::from([self.head]);
        for level in 0..MAX_HEIGHT {
            let mut pred = self.head;
            loop {
                let link = self.ops.load(tower(pred, level));
                let node = addr_of(link);
                if node == 0 {
                    break;
                }
                let keys = self.key_at(pred).saturating_add(1)..=MAX_KEY;
                let in_order = keys.contains(&self.key_at(node));
                if seen.insert(node) || !in_order {
                    visit(reached(node, link, keys));
                }
                if !in_order || (level > 0 && self.height_at(node) <= level) {
                    break;
                }
                pred = node;
            }
        }
    }

    /// Quiescent snapshot of live pairs in key order.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        self.walk(|r| v.extend((r.addr != self.head && !r.deleted).then_some((r.key, r.value))));
        v
    }
}

// SAFETY: all shared state lives in the pool and is accessed atomically.
unsafe impl Send for SkipList {}
// SAFETY: see above.
unsafe impl Sync for SkipList {}
