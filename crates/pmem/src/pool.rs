//! The persistent memory pool.

use std::alloc::{self, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::crashpoint::CrashPlan;
use crate::flusher::{FlushStats, Flusher};
use crate::latency::LatencyModel;
use crate::shadow::Shadow;
use crate::{align_up, CACHE_LINE, NUM_ROOTS};

/// Durability mode of a pool. See the crate documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No durability at all: `clwb`/`fence` are no-ops. Models the
    /// NVRAM-oblivious baselines (paper Figure 7).
    Volatile,
    /// Latency injection only: a fence with outstanding write-backs pauses
    /// for one batch write latency. No crash simulation. This is the
    /// paper's own evaluation methodology (§6.1).
    Perf,
    /// Full crash simulation: a durable shadow image tracks exactly the
    /// lines committed by `clwb`+`fence`; [`PmemPool::simulate_crash`]
    /// restores it. Latency injection still applies (use
    /// [`LatencyModel::ZERO`] in functional tests).
    CrashSim,
}

/// Builder for [`PmemPool`].
pub struct PoolBuilder {
    len: usize,
    mode: Mode,
    latency: LatencyModel,
}

impl PoolBuilder {
    /// Starts building a pool of `len` bytes (rounded up to a page).
    pub fn new(len: usize) -> Self {
        Self { len, mode: Mode::Perf, latency: LatencyModel::ZERO }
    }

    /// Selects the durability mode (default: [`Mode::Perf`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the NVRAM latency model (default: zero).
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Allocates the pool.
    pub fn build(self) -> Arc<PmemPool> {
        PmemPool::new(self.len, self.mode, self.latency)
    }
}

/// A region of simulated NVRAM with a stable base address.
///
/// The first page holds the *root directory*: [`NUM_ROOTS`] named 8-byte
/// slots through which data structures publish the durable address of
/// their persistent root, so they can be re-attached after a crash (the
/// paper assumes the region maps at the same virtual address across
/// restarts, §2). The remainder is the heap area managed by the `nvalloc`
/// crate.
pub struct PmemPool {
    base: *mut u8,
    /// What `alloc_zeroed` returned for `layout`: `base` is this rounded
    /// up to a page, and `dealloc` takes this.
    raw: *mut u8,
    layout: Layout,
    len: usize,
    mode: Mode,
    latency: LatencyModel,
    shadow: Option<Shadow>,
    /// Count of simulated crashes, for tests and harness reporting.
    crashes: AtomicU64,
    /// Crash-point injection plan (crashtest subsystem). Snapshotted by
    /// each flusher at creation; `None` on every production path.
    crash_plan: Mutex<Option<Arc<CrashPlan>>>,
    /// Lifetime durable-write totals, accumulated from every flusher as it
    /// drops (or resets). Backs [`PmemPool::flush_stats`].
    retired_clwbs: AtomicU64,
    retired_fences: AtomicU64,
    retired_sync_batches: AtomicU64,
}

// SAFETY: the pool hands out access to its memory only through atomic or
// volatile operations (or through raw pointers whose safe use is the
// caller's obligation, documented on each accessor). The raw `base` pointer
// itself is never aliased mutably by the pool's own methods except in
// `simulate_crash`, which requires external quiescence. `raw` is only
// read by `Drop`.
unsafe impl Send for PmemPool {}
// SAFETY: see above; all interior mutation is atomic/volatile.
unsafe impl Sync for PmemPool {}

const PAGE: usize = 4096;

impl PmemPool {
    /// Allocates a zeroed, page-aligned pool of at least `len` bytes.
    ///
    /// The pool reserves its address range; a page becomes resident when
    /// it is first written. The zero pages come from the allocator's
    /// `calloc` path: the request asks for word alignment plus one page
    /// of slack and the base is rounded up to a page here, because the
    /// standard allocator serves a zeroed request aligned above 16 bytes
    /// with `posix_memalign` and a memset, which touches every page.
    /// glibc maps every request of 32 MiB or more (its largest dynamic
    /// mmap threshold) directly and does not memset it. A smaller pool
    /// may still be memset by `calloc`: correct, just resident.
    pub fn new(len: usize, mode: Mode, latency: LatencyModel) -> Arc<Self> {
        let len = align_up(len.max(2 * PAGE), PAGE);
        let layout = Layout::from_size_align(len + PAGE, 8).expect("pool layout");
        // SAFETY: `layout` has non-zero size and valid power-of-two
        // alignment.
        let raw = unsafe { alloc::alloc_zeroed(layout) };
        assert!(!raw.is_null(), "pool allocation of {len} bytes failed");
        // SAFETY: the offset is below `PAGE`, so `base..base + len` stays
        // inside the `len + PAGE` bytes just allocated.
        let base = unsafe { raw.add(align_up(raw as usize, PAGE) - raw as usize) };
        let shadow = match mode {
            Mode::CrashSim => Some(Shadow::new(len)),
            _ => None,
        };
        Arc::new(Self {
            base,
            raw,
            layout,
            len,
            mode,
            latency,
            shadow,
            crashes: AtomicU64::new(0),
            crash_plan: Mutex::new(None),
            retired_clwbs: AtomicU64::new(0),
            retired_fences: AtomicU64::new(0),
            retired_sync_batches: AtomicU64::new(0),
        })
    }

    /// The pool's durability mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The pool's latency model.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Base address of the pool.
    pub fn start(&self) -> usize {
        self.base as usize
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty (never true; pools have a minimum size).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First address of the heap area (past the root directory page).
    pub fn heap_start(&self) -> usize {
        self.start() + PAGE
    }

    /// One past the last heap address.
    pub fn heap_end(&self) -> usize {
        self.start() + self.len
    }

    /// Whether `addr` lies within the pool.
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.start() && addr < self.start() + self.len
    }

    /// Creates a per-thread flusher for this pool.
    pub fn flusher(self: &Arc<Self>) -> Flusher {
        Flusher::new(Arc::clone(self))
    }

    /// Views the 8-byte-aligned word at `addr` as an atomic.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or out of bounds.
    #[inline]
    pub fn atomic_u64(&self, addr: usize) -> &AtomicU64 {
        assert!(addr % 8 == 0 && self.contains(addr), "bad pmem address {addr:#x}");
        // SAFETY: the address is in-bounds, aligned, and lives as long as
        // `self`; `AtomicU64` permits shared mutation so handing out a
        // shared reference is sound even though other threads write the
        // same word (they do so through the same atomic view or through
        // word-atomic volatile accesses).
        unsafe { &*(addr as *const AtomicU64) }
    }

    /// Raw pointer to `addr` for typed node access.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn as_mut_ptr(&self, addr: usize) -> *mut u8 {
        assert!(self.contains(addr), "bad pmem address {addr:#x}");
        addr as *mut u8
    }

    /// Index of the cache line containing `addr` (for the shadow).
    #[inline]
    pub(crate) fn line_index(&self, addr: usize) -> usize {
        debug_assert!(self.contains(addr));
        (addr - self.start()) / CACHE_LINE
    }

    pub(crate) fn shadow(&self) -> Option<&Shadow> {
        self.shadow.as_ref()
    }

    pub(crate) fn base_ptr(&self) -> *mut u8 {
        self.base
    }

    /// Address of root slot `i` in the root directory.
    fn root_addr(&self, i: usize) -> usize {
        assert!(i < NUM_ROOTS, "root index {i} out of range");
        self.start() + i * 8
    }

    /// Durably publishes `addr` in root slot `i`.
    pub fn set_root(&self, i: usize, addr: u64, flusher: &mut Flusher) {
        let slot = self.root_addr(i);
        self.atomic_u64(slot).store(addr, Ordering::Release);
        flusher.persist(slot, 8);
    }

    /// Reads root slot `i`.
    pub fn root(&self, i: usize) -> u64 {
        self.atomic_u64(self.root_addr(i)).load(Ordering::Acquire)
    }

    /// Number of simulated crashes so far.
    pub fn crash_count(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Lifetime [`FlushStats`] totals over every flusher that has been
    /// dropped (or explicitly reset) on this pool.
    ///
    /// Live flushers contribute only once they drop, so the intended use
    /// is a *per-run snapshot pair*: record `flush_stats()` once a phase's
    /// workers have quiesced, run the next phase to completion (joining
    /// its workers, which drops their flushers), then call it again and
    /// take [`FlushStats::diff`]. The bench harness reports durable-write
    /// traffic per timed run exactly this way.
    pub fn flush_stats(&self) -> FlushStats {
        FlushStats {
            clwbs: self.retired_clwbs.load(Ordering::Relaxed),
            fences: self.retired_fences.load(Ordering::Relaxed),
            sync_batches: self.retired_sync_batches.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn absorb_flush_stats(&self, s: FlushStats) {
        self.retired_clwbs.fetch_add(s.clwbs, Ordering::Relaxed);
        self.retired_fences.fetch_add(s.fences, Ordering::Relaxed);
        self.retired_sync_batches.fetch_add(s.sync_batches, Ordering::Relaxed);
    }

    /// Installs a crash-point injection plan. Only flushers created
    /// *after* installation observe it (each flusher snapshots the plan
    /// once, keeping the per-event check zero-cost when disabled).
    pub fn install_crash_plan(&self, plan: Arc<CrashPlan>) {
        *self.crash_plan.lock().expect("crash-plan lock poisoned") = Some(plan);
    }

    /// Removes the installed crash plan (flushers created afterwards —
    /// e.g. by recovery — see no plan).
    pub fn clear_crash_plan(&self) {
        *self.crash_plan.lock().expect("crash-plan lock poisoned") = None;
    }

    /// The currently installed crash plan, if any.
    pub fn crash_plan(&self) -> Option<Arc<CrashPlan>> {
        self.crash_plan.lock().expect("crash-plan lock poisoned").clone()
    }

    /// Simulates a power failure followed by a reboot: the working memory
    /// is replaced by the durable shadow image, discarding every store not
    /// committed by a fence.
    ///
    /// Returns `Err` if the pool was not built in [`Mode::CrashSim`].
    ///
    /// # Safety
    ///
    /// No other thread may be accessing the pool: the caller must have
    /// joined or otherwise quiesced all workers, exactly as a real power
    /// failure stops all CPUs.
    pub unsafe fn simulate_crash(&self) -> Result<(), NoShadow> {
        let shadow = self.shadow.as_ref().ok_or(NoShadow)?;
        // SAFETY: `base` covers `len` bytes; caller guarantees quiescence.
        unsafe { shadow.restore(self.base) };
        self.crashes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Captures the current durable image (what would survive a crash right
    /// now). Safe to call while workers are running; used by the
    /// durable-linearizability torture tests.
    pub fn capture_crash_image(&self) -> Result<Vec<u64>, NoShadow> {
        Ok(self.shadow.as_ref().ok_or(NoShadow)?.snapshot())
    }

    /// Replaces the durable image with `snap` and reboots from it, as
    /// [`Self::simulate_crash`] does.
    ///
    /// # Safety
    ///
    /// Same as [`Self::simulate_crash`]: exclusive access required.
    pub unsafe fn crash_to_image(&self, snap: &[u64]) -> Result<(), NoShadow> {
        let shadow = self.shadow.as_ref().ok_or(NoShadow)?;
        shadow.load_snapshot(snap);
        // SAFETY: forwarded from caller.
        unsafe { shadow.restore(self.base) };
        self.crashes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for PmemPool {
    fn drop(&mut self) {
        // SAFETY: `raw` was allocated with `self.layout` in `new` and is
        // deallocated exactly once.
        unsafe { alloc::dealloc(self.raw, self.layout) };
    }
}

/// Error returned when a crash-simulation API is used on a pool without a
/// shadow image (i.e. not in [`Mode::CrashSim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoShadow;

impl std::fmt::Display for NoShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool was not created in CrashSim mode")
    }
}

impl std::error::Error for NoShadow {}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash_pool() -> Arc<PmemPool> {
        PoolBuilder::new(1 << 20).mode(Mode::CrashSim).build()
    }

    #[test]
    fn roots_survive_crash() {
        let pool = crash_pool();
        let mut f = pool.flusher();
        pool.set_root(3, 0xdead_beef, &mut f);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(pool.root(3), 0xdead_beef);
        assert_eq!(pool.crash_count(), 1);
    }

    #[test]
    fn unflushed_stores_are_lost() {
        let pool = crash_pool();
        let addr = pool.heap_start();
        pool.atomic_u64(addr).store(7, Ordering::Relaxed);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(pool.atomic_u64(addr).load(Ordering::Relaxed), 0);
    }

    #[test]
    fn flushed_stores_survive() {
        let pool = crash_pool();
        let mut f = pool.flusher();
        let addr = pool.heap_start();
        pool.atomic_u64(addr).store(7, Ordering::Relaxed);
        f.clwb(addr);
        f.fence();
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(pool.atomic_u64(addr).load(Ordering::Relaxed), 7);
    }

    #[test]
    fn clwb_without_fence_is_not_durable() {
        let pool = crash_pool();
        let mut f = pool.flusher();
        let addr = pool.heap_start();
        pool.atomic_u64(addr).store(7, Ordering::Relaxed);
        f.clwb(addr);
        // No fence: the write-back may not have completed. Our model is
        // strict (never completes without a fence).
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(pool.atomic_u64(addr).load(Ordering::Relaxed), 0);
    }

    #[test]
    fn crash_image_round_trip() {
        let pool = crash_pool();
        let mut f = pool.flusher();
        let addr = pool.heap_start();
        pool.atomic_u64(addr).store(1, Ordering::Relaxed);
        f.persist(addr, 8);
        let img = pool.capture_crash_image().unwrap();
        pool.atomic_u64(addr).store(2, Ordering::Relaxed);
        f.persist(addr, 8);
        // SAFETY: single-threaded test.
        unsafe { pool.crash_to_image(&img).unwrap() };
        assert_eq!(pool.atomic_u64(addr).load(Ordering::Relaxed), 1);
    }

    #[test]
    fn perf_mode_has_no_shadow() {
        let pool = PoolBuilder::new(1 << 20).mode(Mode::Perf).build();
        // SAFETY: single-threaded test.
        assert!(unsafe { pool.simulate_crash() }.is_err());
        assert!(pool.capture_crash_image().is_err());
    }

    #[test]
    fn heap_is_past_root_directory() {
        let pool = crash_pool();
        assert!(pool.heap_start() >= pool.start() + NUM_ROOTS * 8);
        assert_eq!(pool.heap_start() % 4096, 0);
    }

    #[test]
    #[should_panic(expected = "bad pmem address")]
    fn atomic_view_rejects_foreign_address() {
        let pool = crash_pool();
        let _ = pool.atomic_u64(8);
    }
}
