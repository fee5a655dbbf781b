//! The allocation domain: glue between the heap, the epoch manager and the
//! active page tables, exposed to data structures as per-thread
//! [`ThreadCtx`] handles.
//!
//! # Lifecycle
//!
//! * [`NvDomain::create`] formats a fresh heap in a pool.
//! * Threads call [`NvDomain::register`] and perform operations between
//!   [`ThreadCtx::begin_op`] / [`ThreadCtx::end_op`].
//! * After a (simulated) crash, [`NvDomain::attach`] re-opens the heap and
//!   [`NvDomain::recover_leaks`] frees allocated-but-unreachable nodes
//!   using the membership oracle provided by the data structure (§5.5).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pmem::{Flusher, PmemPool};

use crate::apt::{self, ActivePageTable, Activity, AptStats, PageSet};
use crate::epoch::{EpochManager, EpochVector};
use crate::heap::{class_of, page_of, slots_in_class, NvHeap, OutOfMemory, PageHeader, N_CLASSES};

/// Retired nodes are sealed into a generation once this many accumulate.
pub const GENERATION_SIZE: usize = 64;

/// How allocation/reclamation intentions are made crash-safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemMode {
    /// NV-epochs (§5): durable active page table, synced only on misses.
    #[default]
    NvEpochs,
    /// The traditional approach the paper argues against (§5.1): every
    /// allocation and every unlink durably logs its intention **and
    /// waits** — one sync per alloc and per retire. Used as the baseline
    /// of Figure 9b.
    IntentLog,
}

/// A sealed generation of retired nodes (and whole persistent regions)
/// awaiting a safe epoch.
struct Generation {
    nodes: Vec<usize>,
    regions: Vec<usize>,
    snapshot: EpochVector,
}

/// Shared state of an allocation domain.
pub struct NvDomain {
    pool: Arc<PmemPool>,
    heap: NvHeap,
    epochs: EpochManager,
}

impl NvDomain {
    /// Formats a fresh domain in `pool`.
    pub fn create(pool: Arc<PmemPool>) -> Arc<Self> {
        let mut flusher = pool.flusher();
        let heap = NvHeap::format(Arc::clone(&pool), &mut flusher);
        Arc::new(Self { pool, heap, epochs: EpochManager::new() })
    }

    /// Re-attaches to an existing heap after a crash. Call
    /// [`Self::recover_leaks`] before serving new operations.
    pub fn attach(pool: Arc<PmemPool>) -> Arc<Self> {
        let heap = NvHeap::attach(Arc::clone(&pool));
        Arc::new(Self { pool, heap, epochs: EpochManager::new() })
    }

    /// The pool backing this domain.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// The shared heap.
    pub fn heap(&self) -> &NvHeap {
        &self.heap
    }

    /// The epoch manager (exposed for tests and instrumentation).
    pub fn epochs(&self) -> &EpochManager {
        &self.epochs
    }

    /// Registers the calling thread, returning its operation context.
    pub fn register(self: &Arc<Self>) -> ThreadCtx {
        let tid = self.epochs.register();
        let mut flusher = self.pool.flusher();
        let apt = ActivePageTable::open(Arc::clone(&self.pool), tid, &mut flusher);
        ThreadCtx {
            domain: Arc::clone(self),
            tid,
            flusher,
            apt,
            cur_page: [None; N_CLASSES],
            find_cursor: [0; N_CLASSES],
            partial: std::array::from_fn(|_| VecDeque::with_capacity(GENERATION_SIZE)),
            open_gen: Vec::with_capacity(GENERATION_SIZE),
            open_regions: Vec::new(),
            pending: VecDeque::new(),
            pending_peak: 0,
            cur_epoch: 0,
            trim_hook: None,
            mem_mode: MemMode::default(),
        }
    }

    /// Frees every allocated-but-unreachable node in the active pages
    /// (§5.5, first approach). `reachable(addr)` must return whether the
    /// node at `addr` is linked in the data structure — typically a search
    /// for the node's key followed by an address identity check.
    ///
    /// Must be called after a crash with no concurrent activity, before
    /// new operations start.
    pub fn recover_leaks(&self, mut reachable: impl FnMut(usize) -> bool) -> RecoveryReport {
        let mut flusher = self.pool.flusher();
        let mut report = RecoveryReport::default();
        let pages: Vec<usize> = match apt::active_pages(&self.pool) {
            Some(p) => p,
            None => {
                report.used_full_scan = true;
                self.heap.pages().into_iter().map(|(p, _)| p).collect()
            }
        };
        for page in pages {
            let Some(class) = PageHeader::read_class(&self.pool, page) else {
                // The page was recorded active but its header never became
                // durable: it holds no durably-linked node, reformat later.
                continue;
            };
            report.pages_scanned += 1;
            let bitmap = PageHeader::bitmap(&self.pool, page);
            for i in (0..slots_in_class(class)).filter(|&i| bitmap.contains(i)) {
                report.slots_scanned += 1;
                let addr = PageHeader::slot_addr(page, class, i);
                if !reachable(addr) {
                    report.leaks_freed += 1;
                    if PageHeader::clear(&self.pool, page, class, i) {
                        self.heap.release_page(page, class);
                    }
                }
            }
            flusher.clwb(page);
        }
        // Intent slots (MemMode::IntentLog): each names at most one node
        // whose alloc/unlink was in flight at the crash.
        for tid in 0..crate::epoch::MAX_THREADS {
            for which in 0..2 {
                let slot = crate::apt::intent_slot(&self.pool, tid, which);
                let addr = self.pool.atomic_u64(slot).load(Ordering::Acquire) as usize;
                if addr == 0 {
                    continue;
                }
                let page = page_of(addr);
                let Some(class) = PageHeader::read_class(&self.pool, page) else {
                    continue;
                };
                let i = PageHeader::slot_index(addr, class);
                if i >= slots_in_class(class) || !PageHeader::bitmap(&self.pool, page).contains(i) {
                    continue;
                }
                report.slots_scanned += 1;
                if !reachable(addr) {
                    report.leaks_freed += 1;
                    if PageHeader::clear(&self.pool, page, class, i) {
                        self.heap.release_page(page, class);
                    }
                    flusher.clwb(page);
                }
            }
        }
        flusher.fence();
        apt::clear_all(&self.pool, &mut flusher);
        report
    }

    /// Checks the heap against what a quiescent walk of the domain's
    /// roots reached, both ways (§5.5), in one scan of every formatted
    /// page: `reached` maps each reached node to whether it is live (not
    /// logically deleted). Unlike [`Self::recover_leaks`] it frees
    /// nothing. Quiescent only.
    pub fn audit(&self, reached: &BTreeMap<usize, bool>) -> Vec<HeapFault> {
        let mut faults = Vec::new();
        let mut allocated = BTreeSet::new();
        for (page, class) in self.heap.pages() {
            let bitmap = PageHeader::bitmap(&self.pool, page);
            for i in (0..slots_in_class(class)).filter(|&i| bitmap.contains(i)) {
                let addr = PageHeader::slot_addr(page, class, i);
                allocated.insert(addr);
                if reached.get(&addr) != Some(&true) {
                    faults.push(HeapFault::Unreachable(addr));
                }
            }
        }
        let dangling = reached.keys().filter(|addr| !allocated.contains(addr));
        faults.extend(dangling.map(|&addr| HeapFault::NotAllocated(addr)));
        faults
    }
}

/// A disagreement between the heap and what a domain's roots reach,
/// found by [`NvDomain::audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapFault {
    /// A root reaches this address, but no allocated slot starts there.
    NotAllocated(usize),
    /// This slot is allocated but holds no live reached node: a leak.
    Unreachable(usize),
}

impl std::fmt::Display for HeapFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotAllocated(a) => write!(f, "node {a:#x} is reached but not allocated"),
            Self::Unreachable(a) => write!(f, "slot {a:#x} is allocated but not reached (a leak)"),
        }
    }
}

/// Outcome of a leak-recovery pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Active pages scanned.
    pub pages_scanned: u64,
    /// Allocated slots whose reachability was checked.
    pub slots_scanned: u64,
    /// Leaked (allocated but unreachable) nodes freed.
    pub leaks_freed: u64,
    /// Whether the ALL_ACTIVE fallback forced a full-heap scan.
    pub used_full_scan: bool,
}

impl RecoveryReport {
    /// Counter-wise accumulation: sums the scan counters and ORs the
    /// full-scan flag. Used to merge the per-shard reports of a parallel
    /// recovery (e.g. `ShardedNvMemcached::recover`) into one aggregate.
    pub fn merge(&mut self, other: RecoveryReport) {
        self.pages_scanned += other.pages_scanned;
        self.slots_scanned += other.slots_scanned;
        self.leaks_freed += other.leaks_freed;
        self.used_full_scan |= other.used_full_scan;
    }
}

/// Callback run before the allocator reclaims memory a volatile link may
/// still point into: before an APT trim and before retired nodes are
/// freed (the link cache registers its flush here).
pub type TrimHook = Box<dyn FnMut(&mut Flusher) + Send>;

/// Per-thread operation context: allocation, retirement, epochs and the
/// thread's flusher.
///
/// Not `Sync`; create one per worker thread via [`NvDomain::register`].
pub struct ThreadCtx {
    domain: Arc<NvDomain>,
    tid: usize,
    /// The thread's write-back handle. Public because data-structure
    /// operations interleave their own `clwb`/`fence` calls with
    /// allocation.
    pub flusher: Flusher,
    apt: ActivePageTable,
    cur_page: [Option<usize>; N_CLASSES],
    /// Next-free hint per class: the first slot worth probing in
    /// `cur_page[class]`, lowered on local frees so single-threaded
    /// allocation order stays lowest-free-first.
    find_cursor: [usize; N_CLASSES],
    /// Per class, the latest pages this thread's frees made non-full (at
    /// most [`GENERATION_SIZE`], what one collection can free), newest at
    /// the back: `alloc` takes the newest before the heap's shared list.
    /// Their retirements put them in this thread's APT row, so allocating
    /// from them is a hit.
    partial: [VecDeque<usize>; N_CLASSES],
    open_gen: Vec<usize>,
    open_regions: Vec<usize>,
    pending: VecDeque<Generation>,
    pending_peak: usize,
    cur_epoch: u64,
    trim_hook: Option<TrimHook>,
    mem_mode: MemMode,
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        // Hand every page this context holds with a free slot to the
        // shared list; no free would ever return the ones that are not
        // full. A full allocation page floats as usual.
        let pool = &self.domain.pool;
        for (class, pages) in self.partial.iter_mut().enumerate() {
            let held =
                self.cur_page[class].filter(|&p| PageHeader::find_free(pool, p, class).is_some());
            for page in pages.drain(..).chain(held) {
                self.domain.heap.release_page(page, class);
            }
        }
    }
}

impl ThreadCtx {
    /// Selects the memory-management durability scheme (default:
    /// [`MemMode::NvEpochs`]). [`MemMode::IntentLog`] adds the
    /// traditional waiting intent write to every allocation and retire —
    /// the Figure 9b baseline.
    pub fn set_mem_mode(&mut self, mode: MemMode) {
        self.mem_mode = mode;
    }

    /// Durably records an intention in this thread's intent slot and
    /// waits (the §5.1 "traditional approach"): one sync per call.
    fn log_intent(&mut self, addr: usize, which: usize) {
        let slot = crate::apt::intent_slot(&self.domain.pool, self.tid, which);
        self.domain.pool.atomic_u64(slot).store(addr as u64, Ordering::Release);
        self.flusher.persist(slot, 8);
    }
    /// This thread's id within the domain.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The domain this context belongs to.
    pub fn domain(&self) -> &Arc<NvDomain> {
        &self.domain
    }

    /// The pool backing the domain.
    pub fn pool(&self) -> &Arc<PmemPool> {
        self.domain.pool.clone_ref()
    }

    /// Installs a hook run before an APT trim and before retired nodes
    /// are freed. The log-free structures use this to flush their link
    /// cache: §5.4 requires that no cached link refer to a page being
    /// trimmed, and a retired node's unlink may itself sit in the cache,
    /// so its slot must not be reused while the durable image still links
    /// it.
    pub fn set_trim_hook(&mut self, hook: TrimHook) {
        self.trim_hook = Some(hook);
    }

    /// Marks the start of a data-structure operation.
    #[inline]
    pub fn begin_op(&mut self) {
        self.cur_epoch = self.domain.epochs.begin_op(self.tid);
    }

    /// Marks the end of a data-structure operation; opportunistically
    /// collects settled generations and trims the APT.
    #[inline]
    pub fn end_op(&mut self) {
        self.cur_epoch = self.domain.epochs.end_op(self.tid);
        self.try_collect();
        if self.apt.wants_trim() {
            self.trim_apt();
        }
    }

    /// Current epoch of this thread.
    pub fn epoch(&self) -> u64 {
        self.cur_epoch
    }

    /// APT hit/miss counters (Figure 9a).
    pub fn apt_stats(&self) -> AptStats {
        self.apt.stats()
    }

    /// The most sealed generations that have waited for a safe epoch at
    /// once since the last [`Self::reset_stats`]: the high-water mark of
    /// this thread's reclamation backlog, in units of up to
    /// [`GENERATION_SIZE`] nodes.
    pub fn pending_peak(&self) -> usize {
        self.pending_peak
    }

    /// Resets APT, backlog and flush counters (after warm-up).
    pub fn reset_stats(&mut self) {
        self.apt.reset_stats();
        self.flusher.reset_stats();
        self.pending_peak = self.pending.len();
    }

    /// Allocates a node of `size` bytes (rounded up to its size class).
    ///
    /// Implements Figure 4: the prospective page is durably marked active
    /// *before* the slot is marked allocated, and the allocated bit is
    /// written back without waiting — the caller's pre-link fence covers
    /// it (§5.5 relies on this ordering).
    ///
    /// The returned memory is uninitialised; the caller must initialise it
    /// and persist the contents before publishing a link to it.
    pub fn alloc(&mut self, size: usize) -> Result<usize, OutOfMemory> {
        let class = class_of(size);
        loop {
            let page = match self.cur_page[class] {
                Some(p) => p,
                None => {
                    let p = match self.partial[class].pop_back() {
                        Some(p) => p,
                        None => self.domain.heap.acquire_page(class, &mut self.flusher)?,
                    };
                    self.cur_page[class] = Some(p);
                    self.find_cursor[class] = 0;
                    p
                }
            };
            let cursor = self.find_cursor[class];
            let Some(slot) = PageHeader::find_free_at(&self.domain.pool, page, class, cursor)
            else {
                // Page is full: drop it. It becomes "floating" until a
                // free makes space in it (see `free_slot`).
                self.cur_page[class] = None;
                self.find_cursor[class] = 0;
                continue;
            };
            let addr = PageHeader::slot_addr(page, class, slot);
            self.mark_active(page, Activity::Alloc);
            if self.mem_mode == MemMode::IntentLog {
                self.log_intent(addr, 0);
            }
            if !PageHeader::try_set(&self.domain.pool, page, slot) {
                // Extremely unlikely (only the owner sets bits), but retry
                // defensively rather than corrupting state.
                continue;
            }
            self.find_cursor[class] = slot + 1;
            self.flusher.clwb(page); // bitmap write-back, no wait
            return Ok(addr);
        }
    }

    /// Returns a node that was allocated but never linked (e.g. a failed
    /// insert) straight to the heap. No epoch protection is needed because
    /// no other thread ever saw the address.
    pub fn dealloc_unlinked(&mut self, addr: usize) {
        self.free_slot(addr);
    }

    /// Retires a node that has been durably unlinked from the structure.
    /// The node is freed once no concurrent operation can still hold a
    /// reference (§5.2). Durably marks the node's page active first —
    /// usually a hit (§5.1's deallocation locality).
    pub fn retire(&mut self, addr: usize) {
        self.mark_active(page_of(addr), Activity::Unlink);
        if self.mem_mode == MemMode::IntentLog {
            self.log_intent(addr, 1);
        }
        self.open_gen.push(addr);
        if self.open_gen.len() >= GENERATION_SIZE {
            self.seal_generation();
        }
    }

    /// Retires a whole persistent region (e.g. a hash table's outgrown
    /// bucket array) once it has been durably unlinked from the
    /// structure's root. The region's pages are freed after every
    /// concurrent operation that could still traverse it has finished —
    /// the same epoch rule as node retirement, at region granularity.
    ///
    /// Regions are rare (one per resize), so the generation is sealed
    /// immediately rather than waiting for [`GENERATION_SIZE`] nodes.
    pub fn retire_region(&mut self, data_addr: usize) {
        self.open_regions.push(data_addr);
        self.seal_generation();
    }

    /// Seals the open generation (if any) with a snapshot of the epoch
    /// vector.
    pub fn seal_generation(&mut self) {
        if self.open_gen.is_empty() && self.open_regions.is_empty() {
            return;
        }
        let nodes = std::mem::replace(&mut self.open_gen, Vec::with_capacity(GENERATION_SIZE));
        let regions = std::mem::take(&mut self.open_regions);
        let snapshot = self.domain.epochs.snapshot();
        self.pending.push_back(Generation { nodes, regions, snapshot });
        self.pending_peak = self.pending_peak.max(self.pending.len());
    }

    /// Frees every settled pending generation. Called automatically from
    /// [`Self::end_op`]; exposed for tests and shutdown.
    pub fn try_collect(&mut self) -> usize {
        let mut freed = 0;
        while let Some(gen) = self.pending.front() {
            if !self.domain.epochs.has_advanced(&gen.snapshot) {
                break;
            }
            let gen = self.pending.pop_front().expect("non-empty pending queue");
            self.run_trim_hook();
            for addr in gen.nodes {
                self.free_slot(addr);
                freed += 1;
            }
            for region in gen.regions {
                self.domain.heap.free_region(region, &mut self.flusher);
            }
            // One fence covers the whole batch of bitmap write-backs
            // (§5.3: reclamation waits for all its deallocations at once).
            self.flusher.fence();
        }
        freed
    }

    /// Drains all retirements unconditionally. Only safe when no other
    /// thread is running operations (shutdown/tests).
    pub fn drain_all(&mut self) -> usize {
        self.seal_generation();
        self.run_trim_hook();
        let mut freed = 0;
        while let Some(gen) = self.pending.pop_front() {
            for addr in gen.nodes {
                self.free_slot(addr);
                freed += 1;
            }
            for region in gen.regions {
                self.domain.heap.free_region(region, &mut self.flusher);
            }
        }
        self.flusher.fence();
        freed
    }

    fn free_slot(&mut self, addr: usize) {
        let pool = &self.domain.pool;
        let page = page_of(addr);
        let class = PageHeader::read_class(pool, page).expect("freeing into uninitialised page");
        let slot = PageHeader::slot_index(addr, class);
        let word_was_full = PageHeader::clear(pool, page, class, slot);
        self.flusher.clwb(page);
        // Keep the cursor exact: a local free below it must re-expose the
        // lowest free slot.
        if self.cur_page[class] == Some(page) && slot < self.find_cursor[class] {
            self.find_cursor[class] = slot;
        }
        // Full -> non-full transition of the slot's bitmap word: the freer
        // that observes it adopts the page on its own partial list (the
        // retire marked the page active in this thread's APT row, so
        // reallocating from it is a hit). A floating page is full, so its
        // first free lists it. Frees racing on two of its words may list it
        // twice, which is harmless: two threads allocating from one page
        // already fail safe at `try_set`. A full list hands its oldest page
        // to the heap's shared list, so one thread alone reuses pages in
        // the same newest-first order as through the shared list alone.
        if word_was_full && self.cur_page[class] != Some(page) {
            let partial = &mut self.partial[class];
            if partial.len() == GENERATION_SIZE {
                let oldest = partial.pop_front().expect("a full list has a front");
                self.domain.heap.release_page(oldest, class);
            }
            partial.push_back(page);
        }
    }

    fn mark_active(&mut self, page: usize, why: Activity) {
        loop {
            match self.apt.ensure_active(page, why, self.cur_epoch, &mut self.flusher) {
                Ok(_) => return,
                Err(_full) => {
                    if self.trim_apt() == 0 {
                        // Nothing trimmable: fall back to the safe
                        // whole-heap-scan marker and stop tracking.
                        self.apt.set_all_active(&mut self.flusher);
                        return;
                    }
                }
            }
        }
    }

    fn run_trim_hook(&mut self) {
        if let Some(mut hook) = self.trim_hook.take() {
            hook(&mut self.flusher);
            self.trim_hook = Some(hook);
        }
    }

    fn trim_apt(&mut self) -> usize {
        self.run_trim_hook();
        // A page is settled when none of this thread's not-yet-freed
        // retirements belong to it, and it is not one of the thread's
        // current allocation pages (those are in continuous use; evicting
        // them would turn every allocation into an APT miss).
        let unsettled = self.unsettled_pages();
        let cur_page = &self.cur_page;
        self.apt.trim(
            self.cur_epoch,
            |page| !cur_page.contains(&Some(page)) && !unsettled.contains(&page),
            &mut self.flusher,
        )
    }

    /// Pages holding a retirement of this thread that is not yet freed.
    fn unsettled_pages(&self) -> PageSet {
        let pending = self.pending.iter().flat_map(|g| &g.nodes);
        self.open_gen.iter().chain(pending).map(|&a| page_of(a)).collect()
    }
}

/// Small extension trait so `ThreadCtx::pool` can return `&Arc` without a
/// clone at every call site.
trait CloneRef {
    fn clone_ref(&self) -> &Self;
}

impl CloneRef for Arc<PmemPool> {
    fn clone_ref(&self) -> &Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::PAGE_SIZE;
    use pmem::{Mode, PoolBuilder};

    /// A log-free list/hash node (`logfree::list::NODE_SIZE`), and its
    /// class: 168 nodes to a page, in three bitmap words.
    const NODE: usize = 24;
    const NODE_CLASS: usize = class_of(NODE);

    fn domain() -> Arc<NvDomain> {
        let pool = PoolBuilder::new(8 << 20).mode(Mode::CrashSim).build();
        NvDomain::create(pool)
    }

    #[test]
    fn alloc_returns_distinct_aligned_slots() {
        let d = domain();
        let mut ctx = d.register();
        ctx.begin_op();
        let a = ctx.alloc(64).unwrap();
        let b = ctx.alloc(64).unwrap();
        ctx.end_op();
        assert_ne!(a, b);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
    }

    #[test]
    fn second_alloc_in_same_page_is_apt_hit() {
        let d = domain();
        let mut ctx = d.register();
        ctx.begin_op();
        let _ = ctx.alloc(64).unwrap();
        let _ = ctx.alloc(64).unwrap();
        ctx.end_op();
        let s = ctx.apt_stats();
        assert_eq!(s.alloc_misses, 1, "only the first alloc pays");
        assert_eq!(s.alloc_hits, 1);
    }

    #[test]
    fn retire_defers_free_until_epoch_advances() {
        let d = domain();
        let mut a = d.register();
        let mut b = d.register();
        a.begin_op();
        let node = a.alloc(64).unwrap();
        a.end_op();

        b.begin_op(); // b is mid-operation
        a.begin_op();
        a.retire(node);
        a.seal_generation();
        assert_eq!(a.try_collect(), 0, "b active: nothing can be freed");
        a.end_op();
        b.end_op();
        a.begin_op();
        a.end_op(); // end_op triggers collection
                    // The slot must be reusable now.
        a.begin_op();
        let again = a.alloc(64).unwrap();
        a.end_op();
        assert_eq!(again, node, "slot was recycled after epochs advanced");
    }

    #[test]
    fn trim_hook_runs_before_retired_nodes_are_freed() {
        use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
        let d = domain();
        let mut ctx = d.register();
        static RAN: AtomicUsize = AtomicUsize::new(0);
        ctx.set_trim_hook(Box::new(|_f| {
            RAN.fetch_add(1, AOrd::SeqCst);
        }));
        ctx.begin_op();
        let node = ctx.alloc(64).unwrap();
        ctx.retire(node);
        ctx.seal_generation();
        ctx.end_op();
        // The node's unlink may still sit in a link cache, so freeing its
        // generation runs the hook (the cache flush) too.
        ctx.begin_op();
        assert_eq!(RAN.load(AOrd::SeqCst), 1, "one freed generation, one hook run");
        assert_eq!(ctx.alloc(64).unwrap(), node, "the slot was freed");
        ctx.end_op();
    }

    #[test]
    fn dealloc_unlinked_recycles_immediately() {
        let d = domain();
        let mut ctx = d.register();
        ctx.begin_op();
        let a = ctx.alloc(128).unwrap();
        ctx.dealloc_unlinked(a);
        let b = ctx.alloc(128).unwrap();
        ctx.end_op();
        assert_eq!(a, b);
    }

    #[test]
    fn full_page_floats_and_returns_on_free() {
        let d = domain();
        let mut ctx = d.register();
        ctx.begin_op();
        let n = slots_in_class(NODE_CLASS);
        let nodes: Vec<usize> = (0..n).map(|_| ctx.alloc(NODE).unwrap()).collect();
        let page = page_of(nodes[0]);
        assert!(nodes.iter().all(|&a| page_of(a) == page), "all in one page");
        // Page is now full; next alloc opens a new page.
        let far = ctx.alloc(NODE).unwrap();
        assert_ne!(page_of(far), page);
        ctx.end_op();
        // Free one node from the full page; the page must become reusable.
        ctx.begin_op();
        ctx.retire(nodes[3]);
        ctx.seal_generation();
        ctx.end_op();
        ctx.begin_op();
        ctx.end_op(); // collect
        ctx.begin_op();
        // Drain the current page, then the floating page must be adopted.
        let mut seen_old_page = false;
        for _ in 0..(2 * n) {
            let a = ctx.alloc(NODE).unwrap();
            if page_of(a) == page {
                seen_old_page = true;
                break;
            }
        }
        ctx.end_op();
        assert!(seen_old_page, "freed slot in floating page was reused");
    }

    #[test]
    fn recover_leaks_frees_unreachable_nodes() {
        let pool = PoolBuilder::new(8 << 20).mode(Mode::CrashSim).build();
        let d = NvDomain::create(Arc::clone(&pool));
        let mut ctx = d.register();
        ctx.begin_op();
        let keep = ctx.alloc(64).unwrap();
        let leak = ctx.alloc(64).unwrap();
        // Persist "linked" marker for keep only; the bitmap write-backs
        // are made durable by this fence too.
        ctx.flusher.fence();
        ctx.end_op();
        drop(ctx);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        let d2 = NvDomain::attach(Arc::clone(&pool));
        let report = d2.recover_leaks(|addr| addr == keep);
        assert_eq!(report.leaks_freed, 1);
        assert!(!report.used_full_scan);
        assert!(report.slots_scanned >= 2);
        // The leaked slot is allocatable again.
        let mut ctx = d2.register();
        ctx.begin_op();
        let a = ctx.alloc(64).unwrap();
        ctx.end_op();
        assert!(a == leak || page_of(a) == page_of(leak));
    }

    #[test]
    fn unflushed_allocation_does_not_survive_crash() {
        // A node allocated but whose page/bitmap was never fenced must be
        // absent after a crash (the APT entry itself IS fenced, so the
        // page is scanned — and found empty or stale).
        let pool = PoolBuilder::new(8 << 20).mode(Mode::CrashSim).build();
        let d = NvDomain::create(Arc::clone(&pool));
        let mut ctx = d.register();
        ctx.begin_op();
        let _node = ctx.alloc(64).unwrap();
        // NO fence: bitmap write-back still pending.
        ctx.end_op();
        drop(ctx);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        let d2 = NvDomain::attach(Arc::clone(&pool));
        let report = d2.recover_leaks(|_| false);
        assert_eq!(report.leaks_freed, 0, "bitmap store was not durable");
    }

    #[test]
    fn trim_hook_runs_before_trim() {
        use std::sync::atomic::{AtomicBool, Ordering as AOrd};
        let d = domain();
        let mut ctx = d.register();
        static RAN: AtomicBool = AtomicBool::new(false);
        RAN.store(false, AOrd::SeqCst);
        ctx.set_trim_hook(Box::new(|_f| RAN.store(true, AOrd::SeqCst)));
        // Touch enough distinct pages to exceed the trim threshold.
        for _ in 0..(apt::APT_TRIM_THRESHOLD + 2) {
            ctx.begin_op();
            let n = slots_in_class(class_of(256));
            for _ in 0..=n {
                let _ = ctx.alloc(256).unwrap();
            }
            ctx.end_op();
        }
        assert!(RAN.load(AOrd::SeqCst), "hook must run when the APT trims");
    }

    #[test]
    fn recovery_report_merge_sums_counters_and_ors_fallback() {
        let mut a = RecoveryReport {
            pages_scanned: 2,
            slots_scanned: 10,
            leaks_freed: 1,
            used_full_scan: false,
        };
        a.merge(RecoveryReport {
            pages_scanned: 3,
            slots_scanned: 7,
            leaks_freed: 0,
            used_full_scan: true,
        });
        assert_eq!(
            a,
            RecoveryReport {
                pages_scanned: 5,
                slots_scanned: 17,
                leaks_freed: 1,
                used_full_scan: true,
            }
        );
        let mut b = RecoveryReport::default();
        b.merge(RecoveryReport::default());
        assert_eq!(b, RecoveryReport::default());
    }

    #[test]
    fn alloc_order_is_lowest_free_first() {
        // The next-free cursor must produce exactly the address sequence
        // of a full lowest-free-first rescan.
        let d = domain();
        let mut ctx = d.register();
        ctx.begin_op();
        let base = ctx.alloc(64).unwrap();
        for i in 1..8 {
            assert_eq!(ctx.alloc(64).unwrap(), base + i * 64, "sequential fill");
        }
        // Free slots 2 and 5 (owner frees lower the cursor): the next two
        // allocations must reuse them lowest-first, then resume at 8.
        ctx.dealloc_unlinked(base + 2 * 64);
        ctx.dealloc_unlinked(base + 5 * 64);
        assert_eq!(ctx.alloc(64).unwrap(), base + 2 * 64);
        assert_eq!(ctx.alloc(64).unwrap(), base + 5 * 64);
        assert_eq!(ctx.alloc(64).unwrap(), base + 8 * 64);
        ctx.end_op();
    }

    #[test]
    fn half_used_page_survives_crash_with_zero_leaks() {
        // Crash with a half-used allocation page: recovery must reclaim
        // every durably-allocated-but-unreachable slot, and the APT entry
        // alone must bound the scan.
        let pool = PoolBuilder::new(8 << 20).mode(Mode::CrashSim).build();
        let d = NvDomain::create(Arc::clone(&pool));
        let mut ctx = d.register();
        ctx.begin_op();
        let keep = ctx.alloc(64).unwrap();
        for _ in 0..10 {
            let _ = ctx.alloc(64).unwrap();
        }
        ctx.flusher.fence(); // bitmap now durable; none of the 10 are linked
        ctx.end_op();
        drop(ctx);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        let d2 = NvDomain::attach(Arc::clone(&pool));
        let report = d2.recover_leaks(|addr| addr == keep);
        assert_eq!(report.leaks_freed, 10);
        assert!(!report.used_full_scan);
        assert_eq!(d2.audit(&BTreeMap::from([(keep, true)])), []);
    }

    fn reusable_locks(d: &NvDomain) -> u64 {
        d.heap.reusable_locks.load(Ordering::Relaxed)
    }

    /// Allocates `pages` full pages of nodes and returns their nodes,
    /// page by page. The last page is still the allocation page.
    fn fill_pages(ctx: &mut ThreadCtx, pages: usize) -> Vec<Vec<usize>> {
        let n = slots_in_class(NODE_CLASS);
        ctx.begin_op();
        let nodes: Vec<usize> = (0..pages * n).map(|_| ctx.alloc(NODE).unwrap()).collect();
        ctx.end_op();
        let by_page: Vec<Vec<usize>> = nodes.chunks(n).map(<[usize]>::to_vec).collect();
        assert!(by_page.iter().all(|p| p.iter().all(|&a| page_of(a) == page_of(p[0]))));
        by_page
    }

    /// Retires `victims`, seals, and collects them (no other thread is in
    /// an operation, so the epochs advance at once).
    fn retire_and_collect(ctx: &mut ThreadCtx, victims: &[usize]) {
        ctx.begin_op();
        for &a in victims {
            ctx.retire(a);
        }
        ctx.seal_generation();
        ctx.end_op();
        ctx.begin_op();
        ctx.end_op();
        assert!(ctx.pending.is_empty() && ctx.open_gen.is_empty(), "all collected");
    }

    #[test]
    fn freed_pages_are_reused_without_the_shared_lock() {
        let d = domain();
        let mut ctx = d.register();
        let pages = fill_pages(&mut ctx, 8);
        // One slot freed in each page: seven floating pages join the
        // thread's own list, the eighth is still its allocation page.
        let victims: Vec<usize> = pages.iter().map(|p| p[5]).collect();
        retire_and_collect(&mut ctx, &victims);
        assert_eq!(ctx.partial[NODE_CLASS].len(), 7);
        let locks = reusable_locks(&d);
        let misses = ctx.apt_stats().alloc_misses;
        ctx.begin_op();
        let mut again: Vec<usize> = (0..victims.len()).map(|_| ctx.alloc(NODE).unwrap()).collect();
        ctx.end_op();
        again.sort_unstable();
        let mut want = victims.clone();
        want.sort_unstable();
        assert_eq!(again, want, "every freed slot is reused");
        assert_eq!(reusable_locks(&d), locks, "no shared-list lock on the churn path");
        assert_eq!(ctx.apt_stats().alloc_misses, misses, "each page is still active");
    }

    #[test]
    fn collection_overflow_goes_to_the_shared_list() {
        let d = domain();
        let mut ctx = d.register();
        let extra = 5;
        let pages = fill_pages(&mut ctx, GENERATION_SIZE + extra + 1);
        // Free a slot in every page but the allocation page: one
        // collection makes GENERATION_SIZE + extra pages non-full.
        let victims: Vec<usize> = pages[..GENERATION_SIZE + extra].iter().map(|p| p[0]).collect();
        let locks = reusable_locks(&d);
        retire_and_collect(&mut ctx, &victims);
        // The thread keeps the newest GENERATION_SIZE pages, oldest first.
        let newest: Vec<usize> = victims[extra..].iter().map(|&a| page_of(a)).collect();
        assert!(ctx.partial[NODE_CLASS].iter().eq(&newest), "the thread keeps its bound");
        assert_eq!(reusable_locks(&d) - locks, extra as u64, "one release per overflow page");
        // Another thread adopts the overflow, the last page handed over
        // first.
        let mut other = d.register();
        other.begin_op();
        let got = other.alloc(NODE).unwrap();
        other.end_op();
        assert_eq!(got, victims[extra - 1]);
    }

    #[test]
    fn dropped_context_hands_back_its_pages() {
        let d = domain();
        let start = d.heap().bump();
        let mut live = Vec::new();
        for _ in 0..60 {
            let mut ctx = d.register();
            ctx.begin_op();
            live.push(ctx.alloc(64).unwrap());
            ctx.end_op();
        }
        assert_eq!(d.heap().bump() - start, PAGE_SIZE, "60 nodes fit one page");
        live.sort_unstable();
        live.dedup();
        assert_eq!(live.len(), 60);
    }

    #[test]
    fn dropped_context_hands_back_its_partial_pages() {
        let d = domain();
        let mut ctx = d.register();
        let pages = fill_pages(&mut ctx, 4);
        let victims: Vec<usize> = pages[..3].iter().map(|p| p[0]).collect();
        retire_and_collect(&mut ctx, &victims);
        let bump = d.heap().bump();
        drop(ctx);
        let mut other = d.register();
        other.begin_op();
        let mut got: Vec<usize> = (0..3).map(|_| other.alloc(NODE).unwrap()).collect();
        other.end_op();
        got.sort_unstable();
        assert_eq!(got, victims, "the next context reuses the dropped one's pages");
        assert_eq!(d.heap().bump(), bump);
    }

    #[test]
    fn trim_removes_exactly_the_settled_entries() {
        let d = domain();
        let mut a = d.register();
        let mut b = d.register();
        let n = slots_in_class(class_of(256));
        a.begin_op();
        let nodes: Vec<usize> = (0..16 * n).map(|_| a.alloc(256).unwrap()).collect();
        a.end_op();
        let pages: Vec<&[usize]> = nodes.chunks(n).collect();
        // Pages 0..3 settle: their retirements are collected.
        let settled: Vec<usize> = pages[..3].concat();
        retire_and_collect(&mut a, &settled);
        // `b` holds its epoch: four generations (pages 3..11, two pages
        // each) and an open one (page 11) stay outstanding.
        b.begin_op();
        a.begin_op();
        for pair in pages[3..11].chunks(2) {
            for &addr in pair.concat().iter().step_by(3) {
                a.retire(addr);
            }
            a.seal_generation();
        }
        a.retire(pages[11][4]);
        a.end_op();
        a.begin_op();
        assert_eq!(a.pending.len(), 4);
        assert_eq!(a.open_gen.len(), 1);
        // The check this trim replaced: a linear scan of every
        // outstanding retirement, per entry.
        let old_unsettled = |page: usize| {
            a.open_gen.iter().any(|&x| page_of(x) == page)
                || a.pending.iter().any(|g| g.nodes.iter().any(|&x| page_of(x) == page))
        };
        let mut want: Vec<usize> = a
            .apt
            .pages()
            .into_iter()
            .filter(|&p| a.cur_page.contains(&Some(p)) || old_unsettled(p))
            .collect();
        let before = a.apt.len();
        let removed = a.trim_apt();
        let mut kept = a.apt.pages();
        kept.sort_unstable();
        want.sort_unstable();
        assert_eq!(kept, want);
        assert_eq!(removed, before - want.len());
        assert!(removed >= 3 && want.len() >= 9, "{removed} removed, {} kept", want.len());
        a.end_op();
        b.end_op();
    }

    #[test]
    fn two_threads_churning_strand_no_pages() {
        const THREADS: usize = 2;
        const LIVE: usize = 3000;
        let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).build();
        let d = NvDomain::create(pool);
        let start = d.heap().bump();
        // One population of live nodes: each thread retires nodes either
        // thread allocated, as two store threads overwrite each other's
        // keys.
        let live = std::sync::Mutex::new(Vec::new());
        let peaks: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (d, live) = (Arc::clone(&d), &live);
                    s.spawn(move || {
                        let mut ctx = d.register();
                        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t as u64;
                        for _ in 0..100_000 {
                            ctx.begin_op();
                            let node = ctx.alloc(NODE).unwrap();
                            let victim = {
                                let mut live = live.lock().unwrap();
                                live.push(node);
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                let i = x as usize % live.len();
                                (live.len() > LIVE).then(|| live.swap_remove(i))
                            };
                            if let Some(victim) = victim {
                                ctx.retire(victim);
                            }
                            ctx.end_op();
                        }
                        ctx.pending_peak()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // When the heap last grew, the shared list was empty: every page
        // was full (its slots live, in flight or retired-but-unfreed), an
        // allocation page, or on a thread's bounded partial list.
        let n = slots_in_class(NODE_CLASS);
        let unfreed: usize = peaks.iter().map(|&p| (p + 1) * GENERATION_SIZE).sum();
        let allocated = LIVE + THREADS + unfreed;
        let bound = allocated.div_ceil(n) + THREADS * (GENERATION_SIZE + 1);
        let used = (d.heap().bump() - start) / PAGE_SIZE;
        assert!(used <= bound, "{used} pages used, bound {bound} (peaks {peaks:?})");
    }

    #[test]
    fn frees_racing_on_both_words_relist_the_page() {
        // Every round, two threads each free one slot of a full floating
        // page, one in each bitmap word, at the same time. Each sees its
        // word go full -> non-full and lists the page, so each reallocates
        // from it: the heap never grows.
        const ROUNDS: usize = 100;
        let d = domain();
        let mut ctx = d.register();
        let pages = fill_pages(&mut ctx, ROUNDS);
        ctx.begin_op();
        let _ = ctx.alloc(NODE).unwrap(); // the last page floats too
        ctx.end_op();
        let bump = d.heap().bump();
        let victim = |r: usize, w: usize| pages[r][64 * w + r % 62];
        let barrier = std::sync::Barrier::new(2);
        let got: Vec<Vec<usize>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let (d, barrier) = (&d, &barrier);
                    s.spawn(move || {
                        let mut ctx = d.register();
                        (0..ROUNDS)
                            .map(|r| {
                                barrier.wait();
                                ctx.dealloc_unlinked(victim(r, w));
                                barrier.wait();
                                ctx.begin_op();
                                let a = ctx.alloc(NODE).unwrap();
                                ctx.end_op();
                                a
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (r, (&a, &b)) in got[0].iter().zip(&got[1]).enumerate() {
            let mut again = [a, b];
            again.sort_unstable();
            assert_eq!(again, [victim(r, 0), victim(r, 1)], "round {r}: both slots reused");
        }
        assert_eq!(d.heap().bump(), bump, "no page was stranded");
    }

    #[test]
    fn recovery_frees_an_unreachable_node_in_word_one() {
        let pool = PoolBuilder::new(8 << 20).mode(Mode::CrashSim).build();
        let d = NvDomain::create(Arc::clone(&pool));
        let mut ctx = d.register();
        ctx.begin_op();
        let nodes: Vec<usize> = (0..100).map(|_| ctx.alloc(NODE).unwrap()).collect();
        ctx.flusher.fence();
        ctx.end_op();
        drop(ctx);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        let d2 = NvDomain::attach(Arc::clone(&pool));
        let leak = nodes[90];
        assert!(PageHeader::slot_index(leak, NODE_CLASS) >= 64);
        // Every node reached, and all live but `leak`.
        let reached = |live: bool| -> BTreeMap<usize, bool> {
            nodes.iter().map(|&n| (n, n != leak || live)).collect()
        };
        assert_eq!(d2.audit(&reached(false)), [HeapFault::Unreachable(leak)]);
        let report = d2.recover_leaks(|addr| addr != leak);
        assert_eq!((report.slots_scanned, report.leaks_freed), (100, 1));
        let mut rest = reached(false);
        rest.remove(&leak);
        assert_eq!(d2.audit(&rest), []);
        assert_eq!(d2.audit(&reached(true)), [HeapFault::NotAllocated(leak)]);
        let mut ctx = d2.register();
        ctx.begin_op();
        assert_eq!(ctx.alloc(NODE).unwrap(), leak, "the freed slot is the lowest free one");
        ctx.end_op();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_in_word_one_is_caught() {
        // A double free in each bitmap word of a node page, caught in
        // release builds too: words 0 and 2 here, word 1 out of the test.
        let d = domain();
        let mut ctx = d.register();
        ctx.begin_op();
        let n = slots_in_class(NODE_CLASS);
        let nodes: Vec<usize> = (0..n).map(|_| ctx.alloc(NODE).unwrap()).collect();
        ctx.end_op();
        let mut free_twice = |slot: usize| {
            assert_eq!(PageHeader::slot_index(nodes[slot], NODE_CLASS), slot);
            ctx.dealloc_unlinked(nodes[slot]);
            ctx.dealloc_unlinked(nodes[slot]);
        };
        for slot in [5, 160] {
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| free_twice(slot)));
            let message = caught.expect_err("a double free panics");
            let message = message.downcast_ref::<String>().expect("a formatted message");
            assert!(message.starts_with("double free"), "slot {slot}: {message}");
        }
        free_twice(69);
    }

    #[test]
    fn concurrent_alloc_free_stress() {
        let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).build();
        let d = NvDomain::create(pool);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    let mut ctx = d.register();
                    let mut live = Vec::new();
                    for i in 0..3000 {
                        ctx.begin_op();
                        if i % 3 != 2 {
                            live.push(ctx.alloc(64).unwrap());
                        } else if let Some(a) = live.pop() {
                            ctx.retire(a);
                        }
                        ctx.end_op();
                    }
                    ctx.drain_all();
                });
            }
        });
    }
}
