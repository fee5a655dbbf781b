//! The **link-and-persist** primitive (§3) and its link-cache-accelerated
//! variant (§4), shared by all four data structures.
//!
//! A state-changing link update must be durable before any operation that
//! depends on it returns. [`LinkOps::link_cas`] provides this in one of
//! three ways, chosen per structure instance:
//!
//! * **Volatile** (pool in [`pmem::Mode::Volatile`]): a plain CAS — the
//!   NVRAM-oblivious baseline of Figure 7.
//! * **Link-and-persist**: CAS the new value with the [`DIRTY`] mark set,
//!   write the line back, fence, then clear the mark. Any concurrent
//!   operation that observes the mark can complete the persist itself
//!   ([`LinkOps::ensure_durable`]) — helping, so no blocking anywhere.
//! * **Link cache**: deposit the link in the [`LinkCache`] instead of
//!   persisting it; a batched flush happens when a dependent operation
//!   occurs or the link's cache bucket fills up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use linkcache::{LinkCache, TryLink};
use nvalloc::{NvDomain, ThreadCtx};
use pmem::{CrashEvent, Flusher, Mode, PmemPool};

use crate::marked::{clean, is_dirty, DIRTY};

/// Result of a conditional link update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The link was updated (and its durability arranged per the mode).
    Ok,
    /// The link's current value differed from `old`; retry the operation.
    Retry,
}

/// Per-structure persistence engine.
pub struct LinkOps {
    pool: Arc<PmemPool>,
    lc: Option<Arc<LinkCache>>,
    durable: bool,
    /// Test-only mutation hook: when set, a replacement node is published
    /// without its write-back and pre-link fence (see the crashtest
    /// mutation test).
    omit_replacement_persist: AtomicBool,
}

impl LinkOps {
    /// Creates the engine for `pool`, optionally with a link cache. The
    /// volatile fast path is selected automatically when the pool is in
    /// [`Mode::Volatile`].
    pub fn new(pool: Arc<PmemPool>, lc: Option<Arc<LinkCache>>) -> Self {
        let durable = pool.mode() != Mode::Volatile;
        Self { pool, lc, durable, omit_replacement_persist: AtomicBool::new(false) }
    }

    /// The pool this engine writes to.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// The link cache, if one is attached.
    pub fn link_cache(&self) -> Option<&Arc<LinkCache>> {
        self.lc.as_ref()
    }

    /// Registers the calling thread in `domain`, the one this engine's
    /// structure allocates from. With a link cache, the context flushes
    /// it before every APT trim and before it frees retired nodes: §5.4
    /// lets a trim drop a page only when no cached (still volatile) link
    /// points into it, or a crash would strand the node behind that link
    /// where recovery never scans.
    pub fn register(&self, domain: &Arc<NvDomain>) -> ThreadCtx {
        let mut ctx = domain.register();
        if let Some(lc) = &self.lc {
            let lc = Arc::clone(lc);
            ctx.set_trim_hook(Box::new(move |f| lc.flush_all(f)));
        }
        ctx
    }

    /// Whether durability actions are enabled.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// Acquire-loads the link word at `addr`.
    #[inline]
    pub fn load(&self, addr: usize) -> u64 {
        self.pool.atomic_u64(addr).load(Ordering::Acquire)
    }

    /// Makes the logical value of the link at `addr` durable if its
    /// observed word carries the [`DIRTY`] mark (the helping path of
    /// link-and-persist), and returns the cleaned word.
    ///
    /// When the mark is absent the link is already durable — or sits in
    /// the link cache, which the operation-level `scan` handles — so this
    /// is a no-op returning `word` unchanged.
    #[inline]
    pub fn ensure_durable(&self, addr: usize, word: u64, flusher: &mut Flusher) -> u64 {
        if !self.durable || !is_dirty(word) {
            return word;
        }
        flusher.clwb(addr);
        flusher.fence();
        // Clear the mark; a failure means someone else cleared it (or
        // modified the link further after persisting it) — both fine.
        let _ = self.pool.atomic_u64(addr).compare_exchange(
            word,
            clean(word),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        clean(word)
    }

    /// Atomically updates the link at `addr` from `old` to `new` and
    /// arranges durability of the new value. `old` and `new` must be
    /// *clean* words (no [`DIRTY`] bit); `key` attributes the update for
    /// link-cache scans.
    pub fn link_cas(
        &self,
        key: u64,
        addr: usize,
        old: u64,
        new: u64,
        flusher: &mut Flusher,
    ) -> CasOutcome {
        self.cas(Some(key), addr, old, new, flusher)
    }

    /// [`Self::link_cas`] that never defers to the link cache: on `Ok` the
    /// new value is already durable. For links whose readers act on the
    /// new value without a §4.2 scan that could flush it (the resize's
    /// drained-bucket sentinel).
    pub(crate) fn link_cas_persisted(
        &self,
        addr: usize,
        old: u64,
        new: u64,
        flusher: &mut Flusher,
    ) -> CasOutcome {
        self.cas(None, addr, old, new, flusher)
    }

    /// The body of both CASes; `cache_key` is `None` to bypass the cache.
    fn cas(
        &self,
        cache_key: Option<u64>,
        addr: usize,
        old: u64,
        new: u64,
        flusher: &mut Flusher,
    ) -> CasOutcome {
        debug_assert!(!is_dirty(old) && !is_dirty(new), "marked words passed to link_cas");
        let link = self.pool.atomic_u64(addr);
        if !self.durable {
            return match link.compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => CasOutcome::Ok,
                Err(_) => CasOutcome::Retry,
            };
        }
        // Crash-point taxonomy: a state-changing link publish is about to
        // be attempted (no-op unless a crashtest plan is installed).
        flusher.note_crash_event(CrashEvent::LinkPublish);
        if let (Some(lc), Some(key)) = (&self.lc, cache_key) {
            match lc.try_link_and_add(key, addr, old, new, flusher) {
                TryLink::Added => return CasOutcome::Ok,
                TryLink::LinkCasFailed => return CasOutcome::Retry,
                TryLink::CacheFull => {} // fall through to link-and-persist
            }
        }
        // Link-and-persist (§3): install marked, write back, fence, clear.
        if link.compare_exchange(old, new | DIRTY, Ordering::AcqRel, Ordering::Acquire).is_err() {
            return CasOutcome::Retry;
        }
        flusher.clwb(addr);
        flusher.fence();
        let _ = link.compare_exchange(new | DIRTY, new, Ordering::AcqRel, Ordering::Acquire);
        CasOutcome::Ok
    }

    /// Link-cache scan for `key` (§4.2): guarantees that any *prior*
    /// cached update this operation's result depends on becomes durable
    /// before the operation returns. No-op without a link cache.
    #[inline]
    pub fn scan(&self, key: u64, flusher: &mut Flusher) {
        if let Some(lc) = &self.lc {
            if self.durable {
                lc.scan(key, flusher);
            }
        }
    }

    /// Schedules the write-back of a freshly initialised node's contents
    /// (no fence; the pre-link fence covers it).
    #[inline]
    pub fn persist_node(&self, addr: usize, len: usize, flusher: &mut Flusher) {
        if self.durable {
            flusher.clwb_range(addr, len);
        }
    }

    /// Issues the pre-link fence making node contents + allocator
    /// metadata durable before the node becomes reachable (§5.5).
    #[inline]
    pub fn pre_link_fence(&self, flusher: &mut Flusher) {
        if self.durable {
            flusher.fence();
        }
    }

    /// Test-only mutation switch: publishes the node an upsert or replace
    /// swaps in without writing it back or fencing first, so the link can
    /// reach the durable image before the node it points at. The
    /// crashtest mutation test flips this on and asserts the crash
    /// enumeration reports the damage — proving the harness exercises the
    /// replacement's pre-link ordering.
    #[doc(hidden)]
    pub fn set_omit_replacement_persist(&self, on: bool) {
        self.omit_replacement_persist.store(on, Ordering::Relaxed);
    }

    pub(crate) fn omits_replacement_persist(&self) -> bool {
        self.omit_replacement_persist.load(Ordering::Relaxed)
    }

    /// Flushes the whole link cache (durability barrier; used by tests,
    /// shutdown, and the APT trim hook).
    pub fn flush_link_cache(&self, flusher: &mut Flusher) {
        if let Some(lc) = &self.lc {
            lc.flush_all(flusher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolBuilder;

    fn crash_pool() -> Arc<PmemPool> {
        PoolBuilder::new(1 << 20).mode(Mode::CrashSim).build()
    }

    #[test]
    fn link_cas_is_durable_without_cache() {
        let pool = crash_pool();
        let ops = LinkOps::new(Arc::clone(&pool), None);
        let mut f = pool.flusher();
        let a = pool.heap_start();
        assert_eq!(ops.link_cas(1, a, 0, 0x40, &mut f), CasOutcome::Ok);
        assert_eq!(ops.load(a), 0x40, "mark cleared after persist");
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(ops.load(a) & !DIRTY, 0x40, "value survived");
    }

    #[test]
    fn link_cas_retries_on_mismatch() {
        let pool = crash_pool();
        let ops = LinkOps::new(Arc::clone(&pool), None);
        let mut f = pool.flusher();
        let a = pool.heap_start();
        assert_eq!(ops.link_cas(1, a, 0x8, 0x40, &mut f), CasOutcome::Retry);
    }

    #[test]
    fn dirty_link_blocks_cas_until_helped() {
        let pool = crash_pool();
        let ops = LinkOps::new(Arc::clone(&pool), None);
        let mut f = pool.flusher();
        let a = pool.heap_start();
        // Simulate an in-flight link-and-persist by another thread.
        pool.atomic_u64(a).store(0x40 | DIRTY, Ordering::Release);
        // A modification expecting the clean value must fail...
        assert_eq!(ops.link_cas(1, a, 0x40, 0x80, &mut f), CasOutcome::Retry);
        // ...until a helper persists and cleans the link.
        let w = ops.load(a);
        let cleaned = ops.ensure_durable(a, w, &mut f);
        assert_eq!(cleaned, 0x40);
        assert_eq!(ops.link_cas(1, a, 0x40, 0x80, &mut f), CasOutcome::Ok);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(ops.load(a) & !DIRTY, 0x80);
    }

    #[test]
    fn ensure_durable_persists_the_marked_value() {
        let pool = crash_pool();
        let ops = LinkOps::new(Arc::clone(&pool), None);
        let mut f = pool.flusher();
        let a = pool.heap_start();
        pool.atomic_u64(a).store(0x40 | DIRTY, Ordering::Release);
        ops.ensure_durable(a, 0x40 | DIRTY, &mut f);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        // The durable word may retain the mark (cleared lazily at
        // recovery); the logical value must be there.
        assert_eq!(clean(ops.load(a)), 0x40);
    }

    #[test]
    fn volatile_pool_skips_marks_and_flushes() {
        let pool = PoolBuilder::new(1 << 20).mode(Mode::Volatile).build();
        let ops = LinkOps::new(Arc::clone(&pool), None);
        let mut f = pool.flusher();
        let a = pool.heap_start();
        assert_eq!(ops.link_cas(1, a, 0, 0x40, &mut f), CasOutcome::Ok);
        assert_eq!(ops.load(a), 0x40);
        assert_eq!(f.stats().clwbs, 0, "no write-backs in volatile mode");
        assert_eq!(f.stats().fences, 0);
    }

    #[test]
    fn cache_path_defers_durability_to_scan() {
        let pool = crash_pool();
        let lc = Arc::new(LinkCache::with_default_size(Arc::clone(&pool), DIRTY));
        let ops = LinkOps::new(Arc::clone(&pool), Some(lc));
        let mut f = pool.flusher();
        let a = pool.heap_start();
        assert_eq!(ops.link_cas(9, a, 0, 0x40, &mut f), CasOutcome::Ok);
        assert_eq!(f.stats().fences, 0, "no sync on the update itself");
        ops.scan(9, &mut f);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(clean(ops.load(a)), 0x40);
    }
}
