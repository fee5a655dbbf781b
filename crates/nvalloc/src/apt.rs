//! The durable **active page table** (APT, §5.4).
//!
//! Each thread keeps a durable set of *active* allocator pages: pages it
//! has recently allocated from or unlinked nodes of. Inserting a page is
//! the **only** operation in the whole memory-management scheme that must
//! wait for a durable write — and thanks to allocation/reclamation
//! locality it is rare (Figure 9a measures the hit rate). Everything else
//! (allocation bitmaps, removals) is written back lazily.
//!
//! On recovery, the union of all threads' active pages bounds the set of
//! pages that can possibly contain leaked nodes, so the leak scan touches
//! a handful of pages instead of the whole heap.
//!
//! # Durable layout
//!
//! The APT region sits right after the heap meta page. Each thread owns a
//! 1 KiB row:
//!
//! ```text
//! +0    flags   u64   bit 0 = ALL_ACTIVE (overflow fallback)
//! +8    entry 0 u64   page address, 0 = empty
//! ...
//! +8+8*(CAP-1)  entry CAP-1
//! (tail) 2 intent slots (Figure 9b baseline)
//! ```
//!
//! Per-entry epoch metadata ("largest epoch at which this thread allocated
//! / unlinked memory of this page") is volatile — it is only needed for
//! trimming, never for recovery (§5.4).
//!
//! # Volatile index
//!
//! The hit path is one lookup in a page -> entry map keyed by the 4 KiB
//! page address, hashed with one multiply (`PageHasher`). A miss takes its
//! entry from a stack of free entry indices that [`ActivePageTable::trim`]
//! refills, so an insert costs O(1) however full the row is.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pmem::{Flusher, PmemPool};

use crate::epoch::MAX_THREADS;
use crate::heap::PAGE_SIZE;

/// Maximum entries per thread row. The paper pre-allocates table entries
/// and notes tables "usually do not grow beyond a certain size" (§5.4);
/// the delete hit rates of Figure 9a imply a table large enough to cover
/// the whole churn working set of medium structures, so rows are sized
/// generously (the crossover where hit rates decline scales with this).
pub const APT_CAP: usize = 1000;
/// Trim is attempted once a row exceeds this many live entries (§6.3
/// trims at 16; with generous rows we trim lazily at a fraction of
/// capacity, which preserves the paper's "attempt to trim" semantics
/// while keeping the hot pages resident).
pub const APT_TRIM_THRESHOLD: usize = 750;
/// Bytes per thread row (flags word + entries + intent slots, padded to
/// two pages).
pub const APT_ROW_BYTES: usize = 8192;
/// Total bytes of the APT region.
pub const APT_REGION_BYTES: usize = MAX_THREADS * APT_ROW_BYTES;

const ALL_ACTIVE: u64 = 1;

/// Address of thread `tid`'s row.
fn row_addr(pool: &PmemPool, tid: usize) -> usize {
    debug_assert!(tid < MAX_THREADS);
    pool.heap_start() + PAGE_SIZE + tid * APT_ROW_BYTES
}

/// Address of thread `tid`'s durable intent slot (`which`: 0 = alloc,
/// 1 = unlink). Used by the traditional intent-log mode (Figure 9b
/// baseline); lives in the unused tail of the APT row.
pub(crate) fn intent_slot(pool: &PmemPool, tid: usize, which: usize) -> usize {
    debug_assert!(which < 2);
    row_addr(pool, tid) + 8 + APT_CAP * 8 + which * 8
}

/// Why a page is being marked active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// The thread is about to allocate a node from the page.
    Alloc,
    /// The thread unlinked (retired) a node belonging to the page.
    Unlink,
}

/// Hit/miss counters for Figure 9a.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AptStats {
    /// Allocations whose page was already active (no durable write).
    pub alloc_hits: u64,
    /// Allocations that had to durably insert an APT entry.
    pub alloc_misses: u64,
    /// Unlinks whose page was already active.
    pub unlink_hits: u64,
    /// Unlinks that had to durably insert an APT entry.
    pub unlink_misses: u64,
    /// Always 0: read by the frozen `benchmark/src/ladder.rs`; goes with its `tlab_hit_rate` row.
    pub tlab_hits: u64,
    /// Always 0: read by the frozen `benchmark/src/ladder.rs`; goes with its `tlab_hit_rate` row.
    pub tlab_misses: u64,
}

impl AptStats {
    /// Hit fraction for allocations (1.0 when no allocations happened).
    pub fn alloc_hit_rate(&self) -> f64 {
        let total = self.alloc_hits + self.alloc_misses;
        if total == 0 {
            1.0
        } else {
            self.alloc_hits as f64 / total as f64
        }
    }

    /// Hit fraction for unlinks (1.0 when no unlinks happened).
    pub fn unlink_hit_rate(&self) -> f64 {
        let total = self.unlink_hits + self.unlink_misses;
        if total == 0 {
            1.0
        } else {
            self.unlink_hits as f64 / total as f64
        }
    }
}

/// Hashes a page address: the page number times a 64-bit odd constant
/// (Fibonacci hashing). Page numbers are dense, so the product's low bits
/// (the bucket) and high bits (the probe tag) both vary from page to page.
#[derive(Default)]
pub(crate) struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, page: usize) {
        self.0 = ((page / PAGE_SIZE) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by page address.
pub(crate) type PageMap<V> = HashMap<usize, V, BuildHasherDefault<PageHasher>>;
/// A set of page addresses.
pub(crate) type PageSet = HashSet<usize, BuildHasherDefault<PageHasher>>;

/// Volatile per-entry metadata.
#[derive(Debug, Default, Clone, Copy)]
struct SlotMeta {
    /// Cached page address (0 = slot empty). Mirrors the durable entry.
    page: usize,
    /// Thread epoch of the most recent allocation from this page.
    last_alloc_epoch: u64,
    /// Thread epoch of the most recent unlink of a node in this page.
    last_unlink_epoch: u64,
}

/// A thread's handle on its active page table row.
pub struct ActivePageTable {
    pool: Arc<PmemPool>,
    row: usize,
    meta: Box<[SlotMeta]>,
    /// Volatile page -> slot index map (the durable row is the plain
    /// array; the index only accelerates the hit path).
    index: PageMap<usize>,
    /// Indices of the empty entries; the next miss takes the top one.
    free: Vec<usize>,
    live: usize,
    stats: AptStats,
}

impl ActivePageTable {
    /// Opens (and clears) thread `tid`'s row. Used on fresh registration;
    /// recovery reads rows directly via [`active_pages`].
    pub fn open(pool: Arc<PmemPool>, tid: usize, flusher: &mut Flusher) -> Self {
        let row = row_addr(&pool, tid);
        clear_row(&pool, row, flusher);
        Self {
            pool,
            row,
            meta: vec![SlotMeta::default(); APT_CAP].into_boxed_slice(),
            index: PageMap::with_capacity_and_hasher(APT_CAP, Default::default()),
            // Lowest index on top: a fresh row fills from entry 0 up.
            free: (0..APT_CAP).rev().collect(),
            live: 0,
            stats: AptStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether the table would benefit from a trim.
    pub fn wants_trim(&self) -> bool {
        self.live > APT_TRIM_THRESHOLD
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> AptStats {
        self.stats
    }

    /// Resets the counters (after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = AptStats::default();
    }

    /// Ensures `page` is durably recorded as active before the caller
    /// proceeds. Returns `true` on a hit (no durable write was needed).
    ///
    /// On a miss, the entry is written and **synced** — this is the only
    /// waiting durable write in the scheme (Figure 4). If the row is full
    /// the caller should [`Self::trim`] and retry; if it is still full,
    /// [`Self::set_all_active`] is the safe fallback.
    pub fn ensure_active(
        &mut self,
        page: usize,
        why: Activity,
        cur_epoch: u64,
        flusher: &mut Flusher,
    ) -> Result<bool, TableFull> {
        debug_assert_eq!(page % PAGE_SIZE, 0);
        // Hit path: pure volatile work.
        if let Some(&i) = self.index.get(&page) {
            let m = &mut self.meta[i];
            match why {
                Activity::Alloc => {
                    m.last_alloc_epoch = cur_epoch;
                    self.stats.alloc_hits += 1;
                }
                Activity::Unlink => {
                    m.last_unlink_epoch = cur_epoch;
                    self.stats.unlink_hits += 1;
                }
            }
            return Ok(true);
        }
        // Miss: durably insert.
        let Some(i) = self.free.pop() else {
            return Err(TableFull);
        };
        let entry_addr = self.row + 8 + i * 8;
        self.pool.atomic_u64(entry_addr).store(page as u64, Ordering::Release);
        flusher.persist(entry_addr, 8); // the one waiting write
        self.meta[i] = SlotMeta {
            page,
            last_alloc_epoch: if why == Activity::Alloc { cur_epoch } else { 0 },
            last_unlink_epoch: if why == Activity::Unlink { cur_epoch } else { 0 },
        };
        self.index.insert(page, i);
        self.live += 1;
        match why {
            Activity::Alloc => self.stats.alloc_misses += 1,
            Activity::Unlink => self.stats.unlink_misses += 1,
        }
        Ok(false)
    }

    /// Removes entries that are provably no longer active (§5.4):
    ///
    /// * the last allocation from the page happened in a finished
    ///   operation (`last_alloc_epoch < cur_epoch`), and
    /// * `unlinked_settled(page)` confirms every node this thread unlinked
    ///   from the page has been freed (reclamation caught up), and
    /// * the caller has already flushed any link cache it uses (so no
    ///   cached link refers to the page).
    ///
    /// Removals are written back without waiting — a stale *active* entry
    /// is safe, it only costs recovery time. The cleared entries go back on
    /// the free stack, lowest index on top. Returns removed count.
    pub fn trim(
        &mut self,
        cur_epoch: u64,
        mut unlinked_settled: impl FnMut(usize) -> bool,
        flusher: &mut Flusher,
    ) -> usize {
        let mut removed = 0;
        let stack_top = self.free.len();
        for i in 0..APT_CAP {
            let m = self.meta[i];
            if m.page == 0 {
                continue;
            }
            let alloc_quiet = m.last_alloc_epoch < cur_epoch;
            if alloc_quiet && unlinked_settled(m.page) {
                let entry_addr = self.row + 8 + i * 8;
                self.pool.atomic_u64(entry_addr).store(0, Ordering::Release);
                flusher.clwb(entry_addr);
                self.index.remove(&m.page);
                self.meta[i] = SlotMeta::default();
                self.free.push(i);
                self.live -= 1;
                removed += 1;
            }
        }
        self.free[stack_top..].reverse();
        removed
    }

    /// Overflow fallback: durably mark *every* page as potentially active,
    /// degrading recovery to a full-heap scan but preserving safety.
    pub fn set_all_active(&mut self, flusher: &mut Flusher) {
        self.pool.atomic_u64(self.row).store(ALL_ACTIVE, Ordering::Release);
        flusher.persist(self.row, 8);
    }

    /// Pages currently live in this handle (volatile view, for tests).
    pub fn pages(&self) -> Vec<usize> {
        self.meta.iter().filter(|m| m.page != 0).map(|m| m.page).collect()
    }
}

/// The table had no free slot; trim and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "active page table row is full")
    }
}

impl std::error::Error for TableFull {}

fn clear_row(pool: &PmemPool, row: usize, flusher: &mut Flusher) {
    // Flags word + entries + the two intent slots.
    let row_used = 8 + APT_CAP * 8 + 16;
    for off in (0..row_used).step_by(8) {
        pool.atomic_u64(row + off).store(0, Ordering::Release);
    }
    flusher.persist(row, row_used);
}

/// Reads the union of all threads' durable active pages — the recovery
/// scan set. Returns `None` if any thread fell back to ALL_ACTIVE (the
/// caller must scan the whole heap).
pub fn active_pages(pool: &PmemPool) -> Option<Vec<usize>> {
    let mut pages = Vec::new();
    for tid in 0..MAX_THREADS {
        let row = row_addr(pool, tid);
        if pool.atomic_u64(row).load(Ordering::Acquire) & ALL_ACTIVE != 0 {
            return None;
        }
        for i in 0..APT_CAP {
            let p = pool.atomic_u64(row + 8 + i * 8).load(Ordering::Acquire) as usize;
            if p != 0 {
                pages.push(p);
            }
        }
    }
    pages.sort_unstable();
    pages.dedup();
    Some(pages)
}

/// Durably clears every thread's row (end of recovery).
pub fn clear_all(pool: &PmemPool, flusher: &mut Flusher) {
    for tid in 0..MAX_THREADS {
        clear_row(pool, row_addr(pool, tid), flusher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{Mode, PoolBuilder};

    fn setup() -> (Arc<PmemPool>, ActivePageTable, Flusher) {
        let pool = PoolBuilder::new(4 << 20).mode(Mode::CrashSim).build();
        let mut f = pool.flusher();
        let apt = ActivePageTable::open(Arc::clone(&pool), 0, &mut f);
        (pool, apt, f)
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let (_pool, mut apt, mut f) = setup();
        let page = 0x10_000;
        assert_eq!(apt.ensure_active(page, Activity::Alloc, 1, &mut f), Ok(false));
        assert_eq!(apt.ensure_active(page, Activity::Alloc, 3, &mut f), Ok(true));
        assert_eq!(apt.ensure_active(page, Activity::Unlink, 3, &mut f), Ok(true));
        let s = apt.stats();
        assert_eq!((s.alloc_hits, s.alloc_misses, s.unlink_hits), (1, 1, 1));
    }

    #[test]
    fn entries_survive_crash() {
        let (pool, mut apt, mut f) = setup();
        apt.ensure_active(0x10_000, Activity::Alloc, 1, &mut f).unwrap();
        apt.ensure_active(0x20_000, Activity::Unlink, 1, &mut f).unwrap();
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        let pages = active_pages(&pool).unwrap();
        assert_eq!(pages, vec![0x10_000, 0x20_000]);
    }

    #[test]
    fn trim_respects_epoch_and_settlement() {
        let (_pool, mut apt, mut f) = setup();
        apt.ensure_active(0x10_000, Activity::Alloc, 5, &mut f).unwrap();
        apt.ensure_active(0x20_000, Activity::Alloc, 5, &mut f).unwrap();
        // Same epoch: the allocating op is still running; nothing trims.
        assert_eq!(apt.trim(5, |_| true, &mut f), 0);
        // Epoch advanced, but 0x20_000 has unsettled unlinks.
        assert_eq!(apt.trim(6, |p| p != 0x20_000, &mut f), 1);
        assert_eq!(apt.pages(), vec![0x20_000]);
    }

    #[test]
    fn table_full_then_all_active_fallback() {
        let (pool, mut apt, mut f) = setup();
        for i in 0..APT_CAP {
            apt.ensure_active((i + 1) * PAGE_SIZE * 2, Activity::Alloc, 1, &mut f).unwrap();
        }
        // An odd page multiple cannot collide with the even ones above.
        assert_eq!(
            apt.ensure_active(PAGE_SIZE * 2_000_001, Activity::Alloc, 1, &mut f),
            Err(TableFull)
        );
        apt.set_all_active(&mut f);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert!(active_pages(&pool).is_none(), "ALL_ACTIVE forces full scan");
    }

    #[test]
    fn misses_reuse_trimmed_entries_lowest_first() {
        let (pool, mut apt, mut f) = setup();
        let page = |i: usize| (i + 1) * PAGE_SIZE;
        for i in 0..APT_CAP {
            apt.ensure_active(page(i), Activity::Alloc, 1, &mut f).unwrap();
        }
        // Trim every third entry.
        let removed = apt.trim(2, |p| (p / PAGE_SIZE - 1) % 3 == 0, &mut f);
        assert_eq!(removed, APT_CAP.div_ceil(3));
        let entry =
            |i: usize| pool.atomic_u64(row_addr(&pool, 0) + 8 + i * 8).load(Ordering::Acquire);
        for k in 0..removed {
            let fresh = page(APT_CAP + k);
            assert_eq!(apt.ensure_active(fresh, Activity::Unlink, 2, &mut f), Ok(false));
            assert_eq!(entry(3 * k), fresh as u64, "miss {k} takes the lowest cleared entry");
        }
        assert_eq!(apt.len(), APT_CAP);
        let mut live = apt.pages();
        live.sort_unstable();
        assert_eq!(active_pages(&pool).unwrap(), live, "durable row matches the handle");
        assert_eq!(apt.ensure_active(page(0), Activity::Alloc, 2, &mut f), Err(TableFull));
        assert_eq!(apt.ensure_active(page(1), Activity::Alloc, 2, &mut f), Ok(true));
    }

    #[test]
    fn wants_trim_threshold() {
        let (_pool, mut apt, mut f) = setup();
        for i in 0..APT_TRIM_THRESHOLD {
            apt.ensure_active((i + 1) * PAGE_SIZE, Activity::Alloc, 1, &mut f).unwrap();
        }
        assert!(!apt.wants_trim());
        apt.ensure_active((APT_TRIM_THRESHOLD + 5) * PAGE_SIZE, Activity::Alloc, 1, &mut f)
            .unwrap();
        assert!(apt.wants_trim());
    }

    #[test]
    fn clear_all_empties_every_row() {
        let (pool, mut apt, mut f) = setup();
        apt.ensure_active(0x10_000, Activity::Alloc, 1, &mut f).unwrap();
        clear_all(&pool, &mut f);
        assert_eq!(active_pages(&pool).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn removal_is_lazy_but_insert_is_synced() {
        let (_pool, mut apt, mut f) = setup();
        let before = f.stats().sync_batches;
        apt.ensure_active(0x10_000, Activity::Alloc, 1, &mut f).unwrap();
        assert_eq!(f.stats().sync_batches, before + 1, "miss pays one sync");
        let before = f.stats().sync_batches;
        apt.trim(2, |_| true, &mut f);
        assert_eq!(f.stats().sync_batches, before, "trim does not fence");
    }
}
