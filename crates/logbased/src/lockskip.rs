//! Lock-based **optimistic skip list** (Herlihy, Lev, Luchangco, Shavit —
//! SIROCCO 2007) with redo logging — the paper's skip-list baseline.
//!
//! As the paper notes (§6.2), a log-based skip-list update holds a
//! logarithmic number of locks while logging a logarithmic number of link
//! writes, which is why Figure 5 shows the largest gains for this
//! structure.
//!
//! # Node layout
//!
//! ```text
//! +0   key         u64
//! +8   value       u64
//! +16  height      u64
//! +24  flags       u64   bit0 = marked, bit1 = fully linked (logged)
//! +32  lock        u64   (volatile spinlock)
//! +40  tower       height × u64
//! ```

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{NvDomain, OutOfMemory, RecoveryReport, ThreadCtx};
use pmem::PmemPool;

use crate::redo::{self, LogDirectory, RedoLog};
use crate::{lock, unlock, LOCK_OFF};

/// Maximum tower height (fits the 256-byte slab class).
pub const MAX_HEIGHT: usize = 24;

const KEY_OFF: usize = 0;
const VAL_OFF: usize = 8;
const HEIGHT_OFF: usize = 16;
const FLAGS_OFF: usize = 24;
const TOWER_OFF: usize = 40;

const MARKED: u64 = 1;
const FULLY_LINKED: u64 = 2;

#[inline]
fn node_size(height: usize) -> usize {
    TOWER_OFF + 8 * height
}

#[inline]
fn tower(n: usize, level: usize) -> usize {
    n + TOWER_OFF + 8 * level
}

use std::cell::Cell;
thread_local! {
    static HEIGHT_RNG: Cell<u64> = const { Cell::new(0xDEAD_BEEF_1234_5678) };
}

fn random_height() -> usize {
    HEIGHT_RNG.with(|c| {
        let mut x = c.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    })
}

/// Allocates and initialises an unlocked node with `flags`, one level
/// per entry of `succs`, linked to it (written back, not yet fenced).
fn make_node(
    ctx: &mut ThreadCtx,
    pool: &PmemPool,
    key: u64,
    value: u64,
    flags: u64,
    succs: &[usize],
) -> Result<usize, OutOfMemory> {
    let n = ctx.alloc(node_size(succs.len()))?;
    pool.atomic_u64(n + KEY_OFF).store(key, Ordering::Relaxed);
    pool.atomic_u64(n + VAL_OFF).store(value, Ordering::Relaxed);
    pool.atomic_u64(n + HEIGHT_OFF).store(succs.len() as u64, Ordering::Relaxed);
    pool.atomic_u64(n + FLAGS_OFF).store(flags, Ordering::Relaxed);
    pool.atomic_u64(n + LOCK_OFF).store(0, Ordering::Relaxed);
    for (level, &succ) in succs.iter().enumerate() {
        pool.atomic_u64(tower(n, level)).store(succ as u64, Ordering::Release);
    }
    ctx.flusher.clwb_range(n, node_size(succs.len()));
    Ok(n)
}

/// The log-based lock-based skip list.
pub struct LockSkipList {
    pool: Arc<PmemPool>,
    head: usize,
    tail: usize,
}

impl LockSkipList {
    /// Creates an empty skip list anchored at root slot `root_idx`.
    pub fn create(
        domain: &NvDomain,
        ctx: &mut ThreadCtx,
        root_idx: usize,
    ) -> Result<Self, OutOfMemory> {
        let pool = Arc::clone(domain.pool());
        ctx.begin_op();
        let tail = make_node(ctx, &pool, u64::MAX, 0, FULLY_LINKED, &[0; MAX_HEIGHT])?;
        let head = make_node(ctx, &pool, 0, 0, FULLY_LINKED, &[tail; MAX_HEIGHT])?;
        ctx.flusher.fence();
        pool.set_root(root_idx, head as u64, &mut ctx.flusher);
        pool.set_root(root_idx + 1, tail as u64, &mut ctx.flusher);
        ctx.end_op();
        Ok(Self { pool, head, tail })
    }

    /// Brings the skip list at root slots `root_idx` and `root_idx + 1`
    /// of a crashed image back to service ([recovery](crate::redo#recovery)).
    /// The walk follows the bottom level: a committed remove unlinks its
    /// node from every level at once.
    pub fn restart(
        domain: &NvDomain,
        log_root: usize,
        root_idx: usize,
    ) -> (Self, LogDirectory, RecoveryReport) {
        redo::restart(domain, log_root, |reached| {
            let pool = Arc::clone(domain.pool());
            let (head, tail) = (pool.root(root_idx) as usize, pool.root(root_idx + 1) as usize);
            let sl = Self { pool, head, tail };
            let mut n = head;
            while n != 0 && reached.insert(n) && n != tail {
                n = sl.next_at(n, 0);
            }
            sl
        })
    }

    #[inline]
    fn key_at(&self, n: usize) -> u64 {
        self.pool.atomic_u64(n + KEY_OFF).load(Ordering::Acquire)
    }

    #[inline]
    fn flags(&self, n: usize) -> u64 {
        self.pool.atomic_u64(n + FLAGS_OFF).load(Ordering::Acquire)
    }

    #[inline]
    fn height_at(&self, n: usize) -> usize {
        self.pool.atomic_u64(n + HEIGHT_OFF).load(Ordering::Acquire) as usize
    }

    #[inline]
    fn next_at(&self, n: usize, level: usize) -> usize {
        self.pool.atomic_u64(tower(n, level)).load(Ordering::Acquire) as usize
    }

    /// Optimistic find: fills `preds`/`succs`, returns the highest level
    /// at which the key was found (or `None`).
    fn find(
        &self,
        key: u64,
        preds: &mut [usize; MAX_HEIGHT],
        succs: &mut [usize; MAX_HEIGHT],
    ) -> Option<usize> {
        let mut found = None;
        let mut pred = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut curr = self.next_at(pred, level);
            while self.key_at(curr) < key {
                pred = curr;
                curr = self.next_at(pred, level);
            }
            if found.is_none() && self.key_at(curr) == key {
                found = Some(level);
            }
            preds[level] = pred;
            succs[level] = curr;
        }
        found
    }

    /// Inserts `key -> value`; `Ok(false)` if present.
    pub fn insert(
        &self,
        ctx: &mut ThreadCtx,
        log: &mut RedoLog,
        key: u64,
        value: u64,
    ) -> Result<bool, OutOfMemory> {
        debug_assert!(key > 0 && key < u64::MAX);
        ctx.begin_op();
        let r = self.insert_inner(ctx, log, key, value);
        ctx.end_op();
        r
    }

    // Tower levels index `preds`/`succs` and feed `tower()` at once; range
    // loops read better than iterator adapters here.
    #[allow(clippy::needless_range_loop)]
    fn insert_inner(
        &self,
        ctx: &mut ThreadCtx,
        log: &mut RedoLog,
        key: u64,
        value: u64,
    ) -> Result<bool, OutOfMemory> {
        let top = random_height();
        let mut preds = [0usize; MAX_HEIGHT];
        let mut succs = [0usize; MAX_HEIGHT];
        loop {
            if let Some(_lvl) = self.find(key, &mut preds, &mut succs) {
                let node = succs[0];
                if self.flags(node) & MARKED == 0 {
                    // Wait until the in-flight insert finishes linking.
                    while self.flags(node) & FULLY_LINKED == 0 {
                        std::hint::spin_loop();
                    }
                    return Ok(false);
                }
                continue; // marked: about to disappear, retry
            }
            // Lock predecessors bottom-up, skipping duplicates.
            let mut locked: Vec<usize> = Vec::with_capacity(top);
            let mut valid = true;
            for level in 0..top {
                let pred = preds[level];
                if locked.last() != Some(&pred) && !locked.contains(&pred) {
                    lock(&self.pool, pred);
                    locked.push(pred);
                }
                let succ = succs[level];
                valid = self.flags(pred) & MARKED == 0
                    && self.flags(succ) & MARKED == 0
                    && self.next_at(pred, level) == succ;
                if !valid {
                    break;
                }
            }
            if !valid {
                for &n in locked.iter().rev() {
                    unlock(&self.pool, n);
                }
                continue;
            }
            let node = make_node(ctx, &self.pool, key, value, 0, &succs[..top])?;
            // One transaction: a logarithmic number of link writes plus
            // the fully-linked flag (§6.2).
            for level in 0..top {
                log.record(tower(preds[level], level), node as u64, &mut ctx.flusher);
            }
            log.record(node + FLAGS_OFF, FULLY_LINKED, &mut ctx.flusher);
            log.commit_apply(&mut ctx.flusher);
            for &n in locked.iter().rev() {
                unlock(&self.pool, n);
            }
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

    #[allow(clippy::needless_range_loop)]
    fn remove_inner(&self, ctx: &mut ThreadCtx, log: &mut RedoLog, key: u64) -> Option<u64> {
        let mut preds = [0usize; MAX_HEIGHT];
        let mut succs = [0usize; MAX_HEIGHT];
        let mut victim_locked = 0usize;
        loop {
            let lfound = self.find(key, &mut preds, &mut succs);
            let victim = match lfound {
                Some(l) => succs[l],
                None => {
                    if victim_locked != 0 {
                        unlock(&self.pool, victim_locked);
                    }
                    return None;
                }
            };
            if victim_locked == 0 {
                let f = self.flags(victim);
                let top = self.height_at(victim);
                if f & FULLY_LINKED == 0 || f & MARKED != 0 || lfound != Some(top - 1) {
                    return None;
                }
                lock(&self.pool, victim);
                if self.flags(victim) & MARKED != 0 {
                    unlock(&self.pool, victim);
                    return None;
                }
                victim_locked = victim;
            } else if victim != victim_locked {
                // Should not happen while we hold the victim's lock and
                // it is unmarked; retry defensively.
                continue;
            }
            let top = self.height_at(victim);
            // Lock predecessors and validate.
            let mut locked: Vec<usize> = Vec::with_capacity(top);
            let mut valid = true;
            for level in 0..top {
                let pred = preds[level];
                if pred != victim_locked && !locked.contains(&pred) {
                    lock(&self.pool, pred);
                    locked.push(pred);
                }
                valid = self.flags(pred) & MARKED == 0 && self.next_at(pred, level) == victim;
                if !valid {
                    break;
                }
            }
            if !valid {
                for &n in locked.iter().rev() {
                    unlock(&self.pool, n);
                }
                continue;
            }
            let val = self.pool.atomic_u64(victim + VAL_OFF).load(Ordering::Acquire);
            // One transaction: mark + all unlinks.
            log.record(victim + FLAGS_OFF, MARKED | FULLY_LINKED, &mut ctx.flusher);
            for level in 0..top {
                log.record(
                    tower(preds[level], level),
                    self.next_at(victim, level) as u64,
                    &mut ctx.flusher,
                );
            }
            log.commit_apply(&mut ctx.flusher);
            for &n in locked.iter().rev() {
                unlock(&self.pool, n);
            }
            unlock(&self.pool, victim);
            ctx.retire(victim);
            return Some(val);
        }
    }

    /// Wait-free lookup.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let mut pred = self.head;
        let mut level = MAX_HEIGHT - 1;
        let r = loop {
            let curr = self.next_at(pred, level);
            if self.key_at(curr) < key {
                pred = curr;
                continue;
            }
            if level > 0 {
                level -= 1;
                continue;
            }
            let f = self.flags(curr);
            break (self.key_at(curr) == key && f & FULLY_LINKED != 0 && f & MARKED == 0)
                .then(|| self.pool.atomic_u64(curr + VAL_OFF).load(Ordering::Acquire));
        };
        ctx.end_op();
        r
    }

    /// Quiescent snapshot of live user pairs in key order.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        let mut n = self.next_at(self.head, 0);
        while n != 0 && n != self.tail {
            if self.flags(n) & MARKED == 0 {
                v.push((self.key_at(n), self.pool.atomic_u64(n + VAL_OFF).load(Ordering::Acquire)));
            }
            n = self.next_at(n, 0);
        }
        v
    }
}

// SAFETY: all shared state lives in the pool, accessed atomically.
unsafe impl Send for LockSkipList {}
// SAFETY: see above.
unsafe impl Sync for LockSkipList {}
