//! Per-thread write-back state: the software analogue of `clwb`/`sfence`.

use std::sync::Arc;

use crate::crashpoint::{CrashEvent, CrashPlan};
use crate::pool::{Mode, PmemPool};
use crate::{line_of, CACHE_LINE};

/// Counters describing the durable-write traffic a thread generated.
///
/// The paper's Figures 8 and 9 are explained by exactly these quantities:
/// the log-free designs win by issuing fewer fences (sync operations), and
/// the link cache wins further by increasing the batch size per fence.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Cache-line write-backs issued (`clwb` count).
    pub clwbs: u64,
    /// Fences issued (`sfence` count).
    pub fences: u64,
    /// Fences that actually had outstanding write-backs to drain (these
    /// are the ones that pay NVRAM write latency).
    pub sync_batches: u64,
}

impl FlushStats {
    /// Counter-wise difference `self - earlier`, for delimiting a timed
    /// run between two snapshots (e.g. of [`PmemPool::flush_stats`]).
    ///
    /// Saturates rather than panicking so a snapshot pair taken across a
    /// [`Flusher::reset_stats`] stays well-defined.
    pub fn diff(self, earlier: FlushStats) -> FlushStats {
        FlushStats {
            clwbs: self.clwbs.saturating_sub(earlier.clwbs),
            fences: self.fences.saturating_sub(earlier.fences),
            sync_batches: self.sync_batches.saturating_sub(earlier.sync_batches),
        }
    }

    /// Counter-wise accumulation (for summing per-thread stats).
    pub fn merge(&mut self, other: FlushStats) {
        self.clwbs += other.clwbs;
        self.fences += other.fences;
        self.sync_batches += other.sync_batches;
    }
}

/// A per-thread handle through which stores to a [`PmemPool`] are made
/// durable.
///
/// Mirrors the hardware model: [`Flusher::clwb`] is asynchronous and only
/// [`Flusher::fence`] guarantees completion. One `Flusher` must not be
/// shared between threads (it is deliberately `!Sync`); create one per
/// worker via [`PmemPool::flusher`].
pub struct Flusher {
    pool: Arc<PmemPool>,
    /// Lines scheduled since the last fence (crash-sim mode only).
    pending: Vec<usize>,
    /// Whether any write-back is outstanding (perf mode batch flag).
    batch_open: bool,
    stats: FlushStats,
    /// Crash-point plan snapshotted at creation; `None` unless a crashtest
    /// driver installed one on the pool before this flusher was made.
    plan: Option<Arc<CrashPlan>>,
}

impl Flusher {
    pub(crate) fn new(pool: Arc<PmemPool>) -> Self {
        let plan = pool.crash_plan();
        Self {
            pool,
            pending: Vec::with_capacity(64),
            batch_open: false,
            stats: FlushStats::default(),
            plan,
        }
    }

    /// Records a persist-relevant event against the installed crash plan,
    /// if any. The `LinkPublish` events of the data-structure layer come
    /// through here too; with no plan installed this is a single branch.
    #[inline]
    pub fn note_crash_event(&self, kind: CrashEvent) {
        if let Some(plan) = &self.plan {
            plan.note(kind);
        }
    }

    /// The pool this flusher belongs to.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Schedules a write-back of the cache line containing `addr`.
    ///
    /// The line is guaranteed durable only after the next [`Self::fence`].
    #[inline]
    pub fn clwb(&mut self, addr: usize) {
        self.note_crash_event(CrashEvent::Clwb);
        match self.pool.mode() {
            // No instruction would be issued at all: don't count it.
            Mode::Volatile => return,
            Mode::Perf => self.batch_open = true,
            Mode::CrashSim => {
                // Duplicates are deduplicated at fence time (sorting once
                // per batch); a per-clwb linear scan would make large
                // recovery passes quadratic.
                self.pending.push(self.pool.line_index(line_of(addr)));
                self.batch_open = true;
            }
        }
        self.stats.clwbs += 1;
    }

    /// Schedules write-backs for every cache line overlapping
    /// `[addr, addr + len)`.
    #[inline]
    pub fn clwb_range(&mut self, addr: usize, len: usize) {
        let mut line = line_of(addr);
        let end = addr + len.max(1);
        while line < end {
            self.clwb(line);
            line += CACHE_LINE;
        }
    }

    /// Drains all outstanding write-backs: after this returns, every line
    /// passed to [`Self::clwb`] since the previous fence is durable.
    ///
    /// Costs one NVRAM batch write latency if (and only if) write-backs
    /// were outstanding — the paper's "pause once per batch" model (§6.1).
    #[inline]
    pub fn fence(&mut self) {
        // Crash "at" a fence means the fence never happened: note before
        // draining, so a plan firing here captures the pre-fence image.
        self.note_crash_event(CrashEvent::Fence);
        if self.pool.mode() == Mode::Volatile {
            return;
        }
        self.stats.fences += 1;
        if !self.batch_open {
            return;
        }
        self.stats.sync_batches += 1;
        if let Some(shadow) = self.pool.shadow() {
            let base = self.pool.base_ptr();
            self.pending.sort_unstable();
            self.pending.dedup();
            // Hold the commit gate so a concurrent crash-image capture is
            // an instantaneous cut: whole batches are either in or out.
            let _gate = shadow.begin_commit_batch();
            for &line in &self.pending {
                // SAFETY: `line` was computed from an in-bounds pool
                // address in `clwb`; `base` covers the whole pool.
                unsafe { shadow.commit_line(base, line) };
            }
            self.pending.clear();
        }
        self.pool.latency().pause_batch();
        self.batch_open = false;
    }

    /// Convenience: `clwb_range` followed by `fence`. This is the paper's
    /// "sync operation".
    #[inline]
    pub fn persist(&mut self, addr: usize, len: usize) {
        self.clwb_range(addr, len);
        self.fence();
    }

    /// Whether a write-back is outstanding (no fence since the last clwb).
    pub fn has_pending(&self) -> bool {
        self.batch_open
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FlushStats {
        self.stats
    }

    /// Resets the counters (e.g. after warm-up, before a measured run).
    ///
    /// The counters accumulated so far are still published to the pool's
    /// lifetime totals ([`PmemPool::flush_stats`]) immediately, so a
    /// reset never makes durable-write traffic disappear from the
    /// pool-level view.
    pub fn reset_stats(&mut self) {
        self.pool.absorb_flush_stats(self.stats);
        self.stats = FlushStats::default();
    }
}

impl Drop for Flusher {
    /// Publishes this flusher's counters into the pool's lifetime totals
    /// so per-run [`FlushStats`] snapshots can be taken at the pool level
    /// once the run's workers have quiesced (see [`PmemPool::flush_stats`]).
    fn drop(&mut self) {
        self.pool.absorb_flush_stats(self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolBuilder;
    use std::sync::atomic::Ordering;

    #[test]
    fn stats_count_clwbs_and_batches() {
        let pool = PoolBuilder::new(1 << 20).mode(Mode::Perf).build();
        let mut f = pool.flusher();
        let a = pool.heap_start();
        f.clwb(a);
        f.clwb(a + 64);
        f.fence();
        f.fence(); // empty fence: no batch
        assert_eq!(f.stats(), FlushStats { clwbs: 2, fences: 2, sync_batches: 1 });
    }

    #[test]
    fn clwb_range_covers_straddling_lines() {
        let pool = PoolBuilder::new(1 << 20).mode(Mode::CrashSim).build();
        let mut f = pool.flusher();
        let a = pool.heap_start() + 60; // straddles two lines
        pool.atomic_u64(pool.heap_start() + 56).store(1, Ordering::Relaxed);
        pool.atomic_u64(pool.heap_start() + 64).store(2, Ordering::Relaxed);
        f.clwb_range(a, 8);
        f.fence();
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(pool.atomic_u64(pool.heap_start() + 56).load(Ordering::Relaxed), 1);
        assert_eq!(pool.atomic_u64(pool.heap_start() + 64).load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pending_lines_deduplicate() {
        let pool = PoolBuilder::new(1 << 20).mode(Mode::CrashSim).build();
        let mut f = pool.flusher();
        let a = pool.heap_start();
        f.clwb(a);
        f.clwb(a + 8); // same line
        assert_eq!(f.stats().clwbs, 2);
        f.fence();
        assert_eq!(f.stats().sync_batches, 1);
        assert!(!f.has_pending());
    }

    #[test]
    fn installed_plan_counts_events_and_fires() {
        use crate::crashpoint::{CrashEvent, CrashPlan};
        let pool = PoolBuilder::new(1 << 20).mode(Mode::CrashSim).build();
        // A flusher created before installation must stay plan-free.
        let mut before = pool.flusher();
        let addr = pool.heap_start();
        pool.atomic_u64(addr).store(1, Ordering::Relaxed);
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let plan = CrashPlan::new({
            let pool = Arc::clone(&pool);
            let fired = Arc::clone(&fired);
            move |k, _| {
                if k == 2 {
                    // Fires at the fence (event 2): the image excludes it.
                    let img = pool.capture_crash_image().unwrap();
                    assert_eq!(img[(pool.heap_start() - pool.start()) / 8], 0);
                    fired.store(true, Ordering::Relaxed);
                }
            }
        });
        pool.install_crash_plan(Arc::clone(&plan));
        before.clwb(addr + 64);
        before.fence();
        assert_eq!(plan.events(), 0, "pre-install flusher emits no events");
        let mut f = pool.flusher();
        pool.atomic_u64(addr).store(2, Ordering::Relaxed);
        f.clwb(addr); // event 0
        f.note_crash_event(CrashEvent::LinkPublish); // event 1
        f.fence(); // event 2: plan fires before the drain
        assert!(fired.load(Ordering::Relaxed));
        assert_eq!(plan.events(), 3);
        assert_eq!(plan.kind_count(CrashEvent::Clwb), 1);
        assert_eq!(plan.kind_count(CrashEvent::Fence), 1);
        assert_eq!(plan.kind_count(CrashEvent::LinkPublish), 1);
        pool.clear_crash_plan();
        assert!(pool.crash_plan().is_none());
    }

    #[test]
    fn durable_image_changes_only_after_a_fence_with_an_open_batch() {
        // The premise of one-run crash enumeration: every crash point
        // between two fences sees the same durable image.
        use std::hash::{Hash, Hasher};
        let pool = PoolBuilder::new(1 << 20).mode(Mode::CrashSim).build();
        let hashes: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
        let plan = CrashPlan::new({
            let pool = Arc::clone(&pool);
            let hashes = Arc::clone(&hashes);
            move |_, _| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                pool.capture_crash_image().unwrap().hash(&mut h);
                hashes.lock().unwrap().push(h.finish());
            }
        });
        pool.install_crash_plan(plan);
        let mut f = pool.flusher();
        let a = pool.heap_start();
        let store = |addr: usize, v: u64| pool.atomic_u64(addr).store(v, Ordering::Relaxed);
        store(a, 1);
        f.clwb(a); // 0
        f.note_crash_event(CrashEvent::LinkPublish); // 1
        store(a + 64, 2);
        f.clwb(a + 64); // 2
        f.fence(); // 3: full
        store(a + 128, 3);
        f.note_crash_event(CrashEvent::LinkPublish); // 4: sees fence 3
        f.fence(); // 5: empty
        f.clwb(a + 128); // 6
        f.fence(); // 7: full
        f.clwb(a + 192); // 8: sees fence 7
        pool.clear_crash_plan();
        let hashes = hashes.lock().unwrap();
        let changed: Vec<usize> =
            (1..hashes.len()).filter(|&i| hashes[i] != hashes[i - 1]).collect();
        assert_eq!(changed, [4, 8], "the image changes only at the first event after a full fence");
    }

    #[test]
    fn reset_stats_zeroes() {
        let pool = PoolBuilder::new(1 << 20).mode(Mode::Perf).build();
        let mut f = pool.flusher();
        f.clwb(pool.heap_start());
        f.fence();
        f.reset_stats();
        assert_eq!(f.stats(), FlushStats::default());
    }

    #[test]
    fn pool_accumulates_retired_flusher_stats() {
        let pool = PoolBuilder::new(1 << 20).mode(Mode::Perf).build();
        let before = pool.flush_stats();
        assert_eq!(before, FlushStats::default());
        {
            let mut f = pool.flusher();
            f.clwb(pool.heap_start());
            f.fence();
            // Live flushers are not yet visible at the pool level.
            assert_eq!(pool.flush_stats(), FlushStats::default());
        }
        let after = pool.flush_stats();
        assert_eq!(after, FlushStats { clwbs: 1, fences: 1, sync_batches: 1 });

        // A reset publishes the pre-reset counters immediately and no
        // traffic is ever double-counted by the eventual drop.
        let mut f = pool.flusher();
        f.clwb(pool.heap_start());
        f.fence();
        f.reset_stats();
        assert_eq!(
            pool.flush_stats().diff(after),
            FlushStats { clwbs: 1, fences: 1, sync_batches: 1 }
        );
        f.clwb(pool.heap_start());
        f.fence();
        drop(f);
        assert_eq!(
            pool.flush_stats().diff(after),
            FlushStats { clwbs: 2, fences: 2, sync_batches: 2 }
        );
    }

    #[test]
    fn flush_stats_diff_and_merge() {
        let a = FlushStats { clwbs: 5, fences: 3, sync_batches: 2 };
        let b = FlushStats { clwbs: 2, fences: 1, sync_batches: 1 };
        assert_eq!(a.diff(b), FlushStats { clwbs: 3, fences: 2, sync_batches: 1 });
        // Saturating, never panicking, across a reset.
        assert_eq!(b.diff(a), FlushStats::default());
        let mut c = b;
        c.merge(a);
        assert_eq!(c, FlushStats { clwbs: 7, fences: 4, sync_batches: 3 });
    }
}
