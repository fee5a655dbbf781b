//! Lock-based external BST in the style of **bst-tk** (David, Guerraoui,
//! Trigonakis — ASPLOS 2015), with redo logging — the paper's BST
//! baseline (§6.2).
//!
//! Searches are wait-free; an insert locks the parent, a delete locks the
//! grandparent and parent, validates, and commits the splice as one
//! redo-logged transaction.
//!
//! # Node layout (one 64-byte slot, internal and leaf)
//!
//! ```text
//! +0   key      u64
//! +8   value    u64    (leaves)
//! +16  left     u64    (0 in leaves)
//! +24  right    u64    (0 in leaves)
//! +32  lock     u64    (volatile spinlock)
//! +40  removed  u64    (validation flag, logged)
//! ```

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{NvDomain, OutOfMemory, RecoveryReport, ThreadCtx};
use pmem::PmemPool;

use crate::redo::{self, LogDirectory, RedoLog};
use crate::{lock, unlock, LOCK_OFF};

const KEY_OFF: usize = 0;
const VAL_OFF: usize = 8;
const LEFT_OFF: usize = 16;
const RIGHT_OFF: usize = 24;
const REMOVED_OFF: usize = 40;
const NODE_SIZE: usize = 48;

/// Largest user key (three values reserved for sentinels).
pub const MAX_BST_KEY: u64 = u64::MAX - 3;
const INF0: u64 = u64::MAX - 2;
const INF1: u64 = u64::MAX - 1;
const INF2: u64 = u64::MAX;

/// Allocates and initialises an unlocked node with children `l` and `r`
/// (0 and 0 for a leaf), written back but not yet fenced.
fn make_node(
    ctx: &mut ThreadCtx,
    pool: &PmemPool,
    key: u64,
    value: u64,
    l: usize,
    r: usize,
) -> Result<usize, OutOfMemory> {
    let n = ctx.alloc(NODE_SIZE)?;
    pool.atomic_u64(n + KEY_OFF).store(key, Ordering::Relaxed);
    pool.atomic_u64(n + VAL_OFF).store(value, Ordering::Relaxed);
    pool.atomic_u64(n + LEFT_OFF).store(l as u64, Ordering::Relaxed);
    pool.atomic_u64(n + RIGHT_OFF).store(r as u64, Ordering::Relaxed);
    pool.atomic_u64(n + LOCK_OFF).store(0, Ordering::Relaxed);
    pool.atomic_u64(n + REMOVED_OFF).store(0, Ordering::Release);
    ctx.flusher.clwb_range(n, NODE_SIZE);
    Ok(n)
}

/// The log-based lock-based external BST.
pub struct BstTk {
    pool: Arc<PmemPool>,
    root: usize,
}

impl BstTk {
    /// Creates an empty tree anchored at root slot `root_idx`.
    pub fn create(
        domain: &NvDomain,
        ctx: &mut ThreadCtx,
        root_idx: usize,
    ) -> Result<Self, OutOfMemory> {
        let pool = Arc::clone(domain.pool());
        ctx.begin_op();
        let inf0 = make_node(ctx, &pool, INF0, 0, 0, 0)?;
        let inf1 = make_node(ctx, &pool, INF1, 0, 0, 0)?;
        let inf2 = make_node(ctx, &pool, INF2, 0, 0, 0)?;
        let s = make_node(ctx, &pool, INF1, 0, inf0, inf1)?;
        let r = make_node(ctx, &pool, INF2, 0, s, inf2)?;
        ctx.flusher.fence();
        pool.set_root(root_idx, r as u64, &mut ctx.flusher);
        ctx.end_op();
        Ok(Self { pool, root: r })
    }

    /// Brings the tree at root slot `root_idx` of a crashed image back
    /// to service ([recovery](crate::redo#recovery)).
    pub fn restart(
        domain: &NvDomain,
        log_root: usize,
        root_idx: usize,
    ) -> (Self, LogDirectory, RecoveryReport) {
        redo::restart(domain, log_root, |reached| {
            let bst = Self {
                pool: Arc::clone(domain.pool()),
                root: domain.pool().root(root_idx) as usize,
            };
            let mut stack = vec![bst.root];
            while let Some(n) = stack.pop() {
                if n != 0 && reached.insert(n) {
                    stack.extend([LEFT_OFF, RIGHT_OFF].map(|off| bst.child(n, off)));
                }
            }
            bst
        })
    }

    #[inline]
    fn key_at(&self, n: usize) -> u64 {
        self.pool.atomic_u64(n + KEY_OFF).load(Ordering::Acquire)
    }

    #[inline]
    fn child_off(&self, n: usize, key: u64) -> usize {
        if key < self.key_at(n) {
            LEFT_OFF
        } else {
            RIGHT_OFF
        }
    }

    #[inline]
    fn child(&self, n: usize, off: usize) -> usize {
        self.pool.atomic_u64(n + off).load(Ordering::Acquire) as usize
    }

    #[inline]
    fn is_leaf(&self, n: usize) -> bool {
        self.child(n, LEFT_OFF) == 0 && self.child(n, RIGHT_OFF) == 0
    }

    #[inline]
    fn removed(&self, n: usize) -> bool {
        self.pool.atomic_u64(n + REMOVED_OFF).load(Ordering::Acquire) != 0
    }

    /// Wait-free search: returns `(grandparent, parent, leaf)`.
    fn search(&self, key: u64) -> (usize, usize, usize) {
        let mut gp = self.root;
        let mut p = self.child(self.root, LEFT_OFF);
        let mut leaf = self.child(p, self.child_off(p, key));
        while !self.is_leaf(leaf) {
            gp = p;
            p = leaf;
            leaf = self.child(leaf, self.child_off(leaf, key));
        }
        (gp, p, leaf)
    }

    /// Inserts `key -> value`; `Ok(false)` if present.
    pub fn insert(
        &self,
        ctx: &mut ThreadCtx,
        log: &mut RedoLog,
        key: u64,
        value: u64,
    ) -> Result<bool, OutOfMemory> {
        debug_assert!(key <= MAX_BST_KEY);
        ctx.begin_op();
        let r = self.insert_inner(ctx, log, key, value);
        ctx.end_op();
        r
    }

    fn insert_inner(
        &self,
        ctx: &mut ThreadCtx,
        log: &mut RedoLog,
        key: u64,
        value: u64,
    ) -> Result<bool, OutOfMemory> {
        let pool = &self.pool;
        loop {
            let (_gp, p, leaf) = self.search(key);
            let leaf_key = self.key_at(leaf);
            if leaf_key == key {
                return Ok(false);
            }
            let edge_off = self.child_off(p, key);
            lock(&self.pool, p);
            if self.removed(p) || self.child(p, edge_off) != leaf {
                unlock(&self.pool, p);
                continue;
            }
            let new_leaf = make_node(ctx, pool, key, value, 0, 0)?;
            let (l, r) = if key < leaf_key { (new_leaf, leaf) } else { (leaf, new_leaf) };
            let internal = make_node(ctx, pool, key.max(leaf_key), 0, l, r)?;
            log.record(p + edge_off, internal as u64, &mut ctx.flusher);
            log.commit_apply(&mut ctx.flusher);
            unlock(&self.pool, p);
            return Ok(true);
        }
    }

    /// Removes `key`.
    pub fn remove(&self, ctx: &mut ThreadCtx, log: &mut RedoLog, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = self.remove_inner(ctx, log, key);
        ctx.end_op();
        r
    }

    fn remove_inner(&self, ctx: &mut ThreadCtx, log: &mut RedoLog, key: u64) -> Option<u64> {
        loop {
            let (gp, p, leaf) = self.search(key);
            if self.key_at(leaf) != key {
                return None;
            }
            let gp_off = self.child_off(gp, key);
            let p_off = self.child_off(p, key);
            lock(&self.pool, gp);
            lock(&self.pool, p);
            let valid = !self.removed(gp)
                && !self.removed(p)
                && self.child(gp, gp_off) == p
                && self.child(p, p_off) == leaf;
            if !valid {
                unlock(&self.pool, p);
                unlock(&self.pool, gp);
                continue;
            }
            let sibling_off = if p_off == LEFT_OFF { RIGHT_OFF } else { LEFT_OFF };
            let sibling = self.child(p, sibling_off);
            let val = self.pool.atomic_u64(leaf + VAL_OFF).load(Ordering::Acquire);
            // One transaction: splice + tombstones for validation.
            log.record(gp + gp_off, sibling as u64, &mut ctx.flusher);
            log.record(p + REMOVED_OFF, 1, &mut ctx.flusher);
            log.record(leaf + REMOVED_OFF, 1, &mut ctx.flusher);
            log.commit_apply(&mut ctx.flusher);
            unlock(&self.pool, p);
            unlock(&self.pool, gp);
            ctx.retire(p);
            ctx.retire(leaf);
            return Some(val);
        }
    }

    /// Wait-free lookup.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let (_gp, _p, leaf) = self.search(key);
        let r = (self.key_at(leaf) == key)
            .then(|| self.pool.atomic_u64(leaf + VAL_OFF).load(Ordering::Acquire));
        ctx.end_op();
        r
    }

    /// Quiescent snapshot of live user pairs in key order.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            if !self.is_leaf(n) {
                let children = [LEFT_OFF, RIGHT_OFF].map(|off| self.child(n, off));
                stack.extend(children.into_iter().filter(|&c| c != 0));
            } else if self.key_at(n) <= MAX_BST_KEY {
                v.push((self.key_at(n), self.pool.atomic_u64(n + VAL_OFF).load(Ordering::Acquire)));
            }
        }
        v.sort_unstable();
        v
    }
}

// SAFETY: all shared state lives in the pool, accessed atomically.
unsafe impl Send for BstTk {}
// SAFETY: see above.
unsafe impl Sync for BstTk {}
