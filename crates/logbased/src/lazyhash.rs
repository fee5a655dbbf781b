//! Log-based hash table baseline: one lazy linked list per bucket
//! (§6.2), with a shared tail sentinel.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{NvDomain, OutOfMemory, RecoveryReport, ThreadCtx};
use pmem::PmemPool;

use crate::lazylist;
use crate::redo::{self, LogDirectory, RedoLog};

/// Log-based lock-based hash table (lazy list per bucket).
pub struct LazyHashTable {
    pool: Arc<PmemPool>,
    /// Region data: `[n_buckets: u64][head sentinel addrs ...]`.
    meta: usize,
    n_buckets: usize,
}

impl LazyHashTable {
    /// Creates a table with `n_buckets` buckets (rounded to a power of
    /// two) anchored at root slot `root_idx`.
    pub fn create(
        domain: &NvDomain,
        ctx: &mut ThreadCtx,
        root_idx: usize,
        n_buckets: usize,
    ) -> Result<Self, OutOfMemory> {
        let n_buckets = n_buckets.next_power_of_two();
        let pool = Arc::clone(domain.pool());
        ctx.begin_op();
        let meta = domain.heap().alloc_region(8 + n_buckets * 8, &mut ctx.flusher)?;
        pool.atomic_u64(meta).store(n_buckets as u64, Ordering::Release);
        let tail = lazylist::make_node(ctx, &pool, u64::MAX, 0, 0)?;
        for b in 0..n_buckets {
            let head = lazylist::make_node(ctx, &pool, 0, 0, tail)?;
            pool.atomic_u64(meta + 8 + b * 8).store(head as u64, Ordering::Release);
        }
        ctx.flusher.clwb_range(meta, 8 + n_buckets * 8);
        ctx.flusher.fence();
        pool.set_root(root_idx, meta as u64, &mut ctx.flusher);
        ctx.end_op();
        Ok(Self { pool, meta, n_buckets })
    }

    /// Brings the table at root slot `root_idx` of a crashed image back
    /// to service ([recovery](crate::redo#recovery)).
    pub fn restart(
        domain: &NvDomain,
        log_root: usize,
        root_idx: usize,
    ) -> (Self, LogDirectory, RecoveryReport) {
        redo::restart(domain, log_root, |reached| {
            let pool = Arc::clone(domain.pool());
            let meta = pool.root(root_idx) as usize;
            let n_buckets = pool.atomic_u64(meta).load(Ordering::Acquire) as usize;
            let ht = Self { pool, meta, n_buckets };
            for b in 0..n_buckets {
                lazylist::reach_chain(&ht.pool, ht.head_at(b), reached);
            }
            ht
        })
    }

    /// The head sentinel of bucket `b`.
    #[inline]
    fn head_at(&self, b: usize) -> usize {
        self.pool.atomic_u64(self.meta + 8 + b * 8).load(Ordering::Acquire) as usize
    }

    #[inline]
    fn head_of(&self, key: u64) -> usize {
        self.head_at(bucket_index(key, self.n_buckets))
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
        let r = lazylist::insert(&self.pool, ctx, log, self.head_of(key), key, value);
        ctx.end_op();
        r
    }

    /// Removes `key`.
    pub fn remove(&self, ctx: &mut ThreadCtx, log: &mut RedoLog, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = lazylist::remove(&self.pool, ctx, log, self.head_of(key), key);
        ctx.end_op();
        r
    }

    /// Looks up `key`.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = lazylist::get(&self.pool, self.head_of(key), key);
        ctx.end_op();
        r
    }

    /// Quiescent snapshot of live pairs (unordered across buckets).
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        for b in 0..self.n_buckets {
            lazylist::snapshot_chain(&self.pool, self.head_at(b), &mut v);
        }
        v
    }
}

/// Bucket of `key` among `n` (power of two): the low bits of murmur3's
/// `fmix64`. A copy of `logfree::hash`'s private `bucket_index` (this
/// crate does not depend on `logfree`), so the log-free and log-based
/// tables of fig5/fig8 compare walks over the same chains.
#[inline]
fn bucket_index(key: u64, n: usize) -> usize {
    let mut h = key;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h as usize & (n - 1)
}

// SAFETY: all shared state lives in the pool, accessed atomically.
unsafe impl Send for LazyHashTable {}
// SAFETY: see above.
unsafe impl Sync for LazyHashTable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_the_log_free_table() {
        // The values `logfree::hash` pins for its own `bucket_index`.
        for (key, h) in [
            (0, 0u64),
            (1, 0xB456_BCFC_34C2_CB2C),
            (42, 0x8108_7960_8E42_59CC),
            (u64::MAX, 0x64B5_720B_4B82_5F21),
        ] {
            assert_eq!(bucket_index(key, 1 << 30), h as usize & ((1 << 30) - 1));
        }
    }
}
