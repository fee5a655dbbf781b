//! **Log-based durable baselines** — the comparison points of the paper's
//! evaluation (§6.2).
//!
//! The paper compares its log-free structures against the
//! best-performing *lock-based* algorithms, each made durable with
//! hand-placed **redo logging** tuned to minimise syncs:
//!
//! * [`LazyList`] — lazy linked list (Heller et al., OPODIS 2005);
//! * [`LazyHashTable`] — one lazy list per bucket;
//! * [`LockSkipList`] — optimistic lock-based skip list (Herlihy et al.,
//!   SIROCCO 2007);
//! * [`BstTk`] — lock-based external BST in the style of bst-tk (David
//!   et al., ASPLOS 2015).
//!
//! Every update costs **two syncs** (commit the redo log, persist the
//! application — see [`redo`]) plus, in the traditional memory-management
//! configuration ([`nvalloc::MemMode::IntentLog`]), one waiting intent
//! write per allocation/retire. The log-free structures pay one sync per
//! link (or amortised less with the link cache) and none for memory
//! management in the common case — that difference is exactly what
//! Figures 5–9 of the paper quantify.

use std::sync::atomic::Ordering;

use pmem::PmemPool;

pub mod bsttk;
pub mod lazyhash;
pub mod lazylist;
pub mod lockskip;
pub mod redo;

pub use bsttk::BstTk;
pub use lazyhash::LazyHashTable;
pub use lazylist::LazyList;
pub use lockskip::LockSkipList;
pub use redo::{LogDirectory, RedoLog, LOG_BYTES, MAX_ENTRIES};

/// Byte offset of every baseline node's spinlock word (0 free, 1 held).
/// A lock is never durable state: `restart` clears every one it reaches.
pub(crate) const LOCK_OFF: usize = 32;

/// Takes node `n`'s spinlock.
#[inline]
pub(crate) fn lock(pool: &PmemPool, n: usize) {
    let w = pool.atomic_u64(n + LOCK_OFF);
    loop {
        if w.compare_exchange_weak(0, 1, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            return;
        }
        while w.load(Ordering::Relaxed) != 0 {
            std::hint::spin_loop();
        }
    }
}

/// Releases node `n`'s spinlock.
#[inline]
pub(crate) fn unlock(pool: &PmemPool, n: usize) {
    pool.atomic_u64(n + LOCK_OFF).store(0, Ordering::Release);
}
