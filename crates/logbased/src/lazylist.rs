//! Lock-based **lazy linked list** (Heller et al., OPODIS 2005) with
//! hand-placed redo logging — the paper's baseline for the linked list
//! and (one list per bucket) the hash table (§6.2).
//!
//! Traversals are lock-free; updates lock the predecessor and current
//! node, validate, then run a two-sync redo-logged transaction
//! ([`crate::redo`]). A removal logically deletes (`marked := 1`) and
//! physically unlinks in the *same* transaction, which keeps replay
//! atomic.
//!
//! # Node layout (one 64-byte slot)
//!
//! ```text
//! +0   key     u64
//! +8   value   u64
//! +16  next    u64   (plain address; no mark bits needed)
//! +24  marked  u64   (logical deletion flag, logged)
//! +32  lock    u64   (spinlock; volatile — cleared by recovery)
//! ```

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{NvDomain, OutOfMemory, RecoveryReport, ThreadCtx};
use pmem::PmemPool;

use crate::redo::{self, LogDirectory, RedoLog};
use crate::{lock, unlock, LOCK_OFF};

pub(crate) const KEY_OFF: usize = 0;
pub(crate) const VAL_OFF: usize = 8;
pub(crate) const NEXT_OFF: usize = 16;
pub(crate) const MARK_OFF: usize = 24;
pub(crate) const NODE_SIZE: usize = 40;

/// Smallest user key (0 is the head sentinel).
pub const MIN_KEY: u64 = 1;
/// Largest user key (`u64::MAX` is the tail sentinel).
pub const MAX_KEY: u64 = u64::MAX - 1;

#[inline]
pub(crate) fn key_at(pool: &PmemPool, n: usize) -> u64 {
    pool.atomic_u64(n + KEY_OFF).load(Ordering::Acquire)
}

#[inline]
pub(crate) fn next_of(pool: &PmemPool, n: usize) -> usize {
    pool.atomic_u64(n + NEXT_OFF).load(Ordering::Acquire) as usize
}

#[inline]
pub(crate) fn is_marked(pool: &PmemPool, n: usize) -> bool {
    pool.atomic_u64(n + MARK_OFF).load(Ordering::Acquire) != 0
}

/// Allocates and initialises an unlocked, unmarked node (written back,
/// not yet fenced); returns its address.
pub(crate) fn make_node(
    ctx: &mut ThreadCtx,
    pool: &PmemPool,
    key: u64,
    value: u64,
    next: usize,
) -> Result<usize, OutOfMemory> {
    let n = ctx.alloc(NODE_SIZE)?;
    pool.atomic_u64(n + KEY_OFF).store(key, Ordering::Relaxed);
    pool.atomic_u64(n + VAL_OFF).store(value, Ordering::Relaxed);
    pool.atomic_u64(n + NEXT_OFF).store(next as u64, Ordering::Relaxed);
    pool.atomic_u64(n + MARK_OFF).store(0, Ordering::Relaxed);
    pool.atomic_u64(n + LOCK_OFF).store(0, Ordering::Release);
    ctx.flusher.clwb_range(n, NODE_SIZE);
    Ok(n)
}

/// Lock-free traversal from `head`: returns `(pred, curr)` with
/// `curr.key >= key` (curr may be the tail sentinel).
#[inline]
fn traverse(pool: &PmemPool, head: usize, key: u64) -> (usize, usize) {
    let mut pred = head;
    let mut curr = next_of(pool, pred);
    while key_at(pool, curr) < key {
        pred = curr;
        curr = next_of(pool, curr);
    }
    (pred, curr)
}

fn validate(pool: &PmemPool, pred: usize, curr: usize) -> bool {
    !is_marked(pool, pred) && !is_marked(pool, curr) && next_of(pool, pred) == curr
}

/// Core insert into the chain anchored at sentinel `head`.
pub(crate) fn insert(
    pool: &PmemPool,
    ctx: &mut ThreadCtx,
    log: &mut RedoLog,
    head: usize,
    key: u64,
    value: u64,
) -> Result<bool, OutOfMemory> {
    debug_assert!((MIN_KEY..=MAX_KEY).contains(&key));
    loop {
        let (pred, curr) = traverse(pool, head, key);
        lock(pool, pred);
        lock(pool, curr);
        if validate(pool, pred, curr) {
            if key_at(pool, curr) == key {
                unlock(pool, curr);
                unlock(pool, pred);
                return Ok(false);
            }
            let node = make_node(ctx, pool, key, value, curr)?;
            // The commit's first sync covers the node contents (same
            // batch); the transaction is the single link write.
            log.record(pred + NEXT_OFF, node as u64, &mut ctx.flusher);
            log.commit_apply(&mut ctx.flusher);
            unlock(pool, curr);
            unlock(pool, pred);
            return Ok(true);
        }
        unlock(pool, curr);
        unlock(pool, pred);
    }
}

/// Core remove from the chain anchored at `head`.
pub(crate) fn remove(
    pool: &PmemPool,
    ctx: &mut ThreadCtx,
    log: &mut RedoLog,
    head: usize,
    key: u64,
) -> Option<u64> {
    loop {
        let (pred, curr) = traverse(pool, head, key);
        lock(pool, pred);
        lock(pool, curr);
        if validate(pool, pred, curr) {
            if key_at(pool, curr) != key {
                unlock(pool, curr);
                unlock(pool, pred);
                return None;
            }
            let val = pool.atomic_u64(curr + VAL_OFF).load(Ordering::Acquire);
            // Logical delete + physical unlink, atomically replayable.
            log.record(curr + MARK_OFF, 1, &mut ctx.flusher);
            log.record(pred + NEXT_OFF, next_of(pool, curr) as u64, &mut ctx.flusher);
            log.commit_apply(&mut ctx.flusher);
            unlock(pool, curr);
            unlock(pool, pred);
            ctx.retire(curr);
            return Some(val);
        }
        unlock(pool, curr);
        unlock(pool, pred);
    }
}

/// Core wait-free lookup.
pub(crate) fn get(pool: &PmemPool, head: usize, key: u64) -> Option<u64> {
    let mut curr = next_of(pool, head);
    while key_at(pool, curr) < key {
        curr = next_of(pool, curr);
    }
    (key_at(pool, curr) == key && !is_marked(pool, curr))
        .then(|| pool.atomic_u64(curr + VAL_OFF).load(Ordering::Acquire))
}

/// Puts every node of the chain anchored at sentinel `head`, sentinels
/// included, into `reached`. It stops at the tail sentinel, or at a
/// node met again, so it ends on any image.
pub(crate) fn reach_chain(pool: &PmemPool, head: usize, reached: &mut HashSet<usize>) {
    let mut n = head;
    while n != 0 && reached.insert(n) && key_at(pool, n) != u64::MAX {
        n = next_of(pool, n);
    }
}

/// Snapshot of live user pairs of one chain.
pub(crate) fn snapshot_chain(pool: &PmemPool, head: usize, out: &mut Vec<(u64, u64)>) {
    let mut n = next_of(pool, head);
    while key_at(pool, n) != u64::MAX {
        if !is_marked(pool, n) {
            out.push((key_at(pool, n), pool.atomic_u64(n + VAL_OFF).load(Ordering::Acquire)));
        }
        n = next_of(pool, n);
    }
}

/// The standalone log-based lazy list.
pub struct LazyList {
    pool: Arc<PmemPool>,
    head: usize,
}

impl LazyList {
    /// Creates an empty list (head + tail sentinels) anchored at root
    /// slot `root_idx`.
    pub fn create(
        domain: &NvDomain,
        ctx: &mut ThreadCtx,
        root_idx: usize,
    ) -> Result<Self, OutOfMemory> {
        let pool = Arc::clone(domain.pool());
        ctx.begin_op();
        let tail = make_node(ctx, &pool, u64::MAX, 0, 0)?;
        let head = make_node(ctx, &pool, 0, 0, tail)?;
        ctx.flusher.fence();
        pool.set_root(root_idx, head as u64, &mut ctx.flusher);
        ctx.end_op();
        Ok(Self { pool, head })
    }

    /// Brings the list at root slot `root_idx` of a crashed image back
    /// to service ([recovery](crate::redo#recovery)).
    pub fn restart(
        domain: &NvDomain,
        log_root: usize,
        root_idx: usize,
    ) -> (Self, LogDirectory, RecoveryReport) {
        redo::restart(domain, log_root, |reached| {
            let list = Self {
                pool: Arc::clone(domain.pool()),
                head: domain.pool().root(root_idx) as usize,
            };
            reach_chain(&list.pool, list.head, reached);
            list
        })
    }

    /// Inserts `key -> value`; `Ok(false)` if present.
    pub fn insert(
        &self,
        ctx: &mut ThreadCtx,
        log: &mut RedoLog,
        key: u64,
        value: u64,
    ) -> Result<bool, OutOfMemory> {
        ctx.begin_op();
        let r = insert(&self.pool, ctx, log, self.head, key, value);
        ctx.end_op();
        r
    }

    /// Removes `key`.
    pub fn remove(&self, ctx: &mut ThreadCtx, log: &mut RedoLog, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = remove(&self.pool, ctx, log, self.head, key);
        ctx.end_op();
        r
    }

    /// Looks up `key`.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = get(&self.pool, self.head, key);
        ctx.end_op();
        r
    }

    /// Quiescent snapshot of live pairs in key order.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        snapshot_chain(&self.pool, self.head, &mut v);
        v
    }

    /// Quiescent bulk load of sorted pairs into an empty list (bench
    /// prefill).
    pub fn bulk_load_sorted(
        &self,
        ctx: &mut ThreadCtx,
        items: &[(u64, u64)],
    ) -> Result<(), OutOfMemory> {
        let pool = &self.pool;
        let tail = next_of(pool, self.head);
        debug_assert_eq!(key_at(pool, tail), u64::MAX, "bulk load requires empty list");
        ctx.begin_op();
        let mut prev = self.head;
        for &(key, value) in items {
            let node = make_node(ctx, pool, key, value, tail)?;
            pool.atomic_u64(prev + NEXT_OFF).store(node as u64, Ordering::Release);
            ctx.flusher.clwb(prev + NEXT_OFF);
            prev = node;
        }
        ctx.flusher.fence();
        ctx.end_op();
        Ok(())
    }
}

// SAFETY: all shared state lives in the pool, accessed atomically.
unsafe impl Send for LazyList {}
// SAFETY: see above.
unsafe impl Sync for LazyList {}
