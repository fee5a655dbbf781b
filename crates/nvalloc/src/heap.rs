//! The persistent slab heap: fixed-size pages carved from the pool, each
//! serving one size class, with a durable per-page allocation bitmap.
//!
//! This is the "basic persistent allocator" interface the paper assumes
//! (§5.3): per-thread pages, durable metadata whose final write-back does
//! **not** need to be awaited (the data-structure fence or the reclamation
//! batch fence covers it), and a way to peek at the next address to be
//! allocated so the active-page check can run before the allocation.
//!
//! # Pool layout
//!
//! ```text
//! pool.heap_start()
//!   ├─ heap meta page   (durable bump pointer)
//!   ├─ APT region       (MAX_THREADS rows, see `apt` module)
//!   └─ data pages ...   (4 KiB each: 64 B header + slots)
//! ```
//!
//! # Page layout (header occupies the first cache line)
//!
//! ```text
//! +0   magic      u64   identifies an initialised page + its class
//! +8   slot_size  u64   bytes per slot
//! +16  bitmap[0]  u64   slots 0..64: bit i set = slot i allocated (durable)
//! +24  bitmap[1]  u64   slots 64..128: bit i - 64
//! +32  bitmap[2]  u64   slots 128..168: bit i - 128
//! +40  .. 63      reserved
//! +64  slot 0, slot 1, ...
//! ```
//!
//! Slot *i* is bit `i % 64` of bitmap word `i / 64` ([`SlotSet`]; the
//! word count is [`BITMAP_WORDS`]). The smallest class (24 B) fills the
//! page with 168 slots; the whole header stays one cache line, so one
//! `clwb` writes back any word. A 24 B slot is 8 B-aligned, and two of
//! every eight span two cache lines: node write-backs cover a node's
//! whole byte range, never just the line it starts in.
//!
//! # Region layout
//!
//! A region (e.g. a bucket array) is a run of whole pages whose first
//! line is its header: `+0` holds `REGION_MAGIC`, `+8` the run's page
//! count, and the data starts at `+64`, right after the header line.
//!
//! # Volatile page lists
//!
//! A page with a free slot is adopted by one thread at a time as its
//! allocation page. A page its allocator filled "floats": no list holds
//! it until a free makes it non-full, and the one freer that sees that
//! transition keeps it on its own bounded list of partial pages
//! ([`crate::ThreadCtx`]), so churn reuses a thread's own pages without
//! a shared lock. The shared lists here ([`NvHeap::release_page`],
//! [`NvHeap::acquire_page`]) take what those per-thread lists overflow,
//! the pages a dropped context held, and the pages recovery finds with
//! free slots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use pmem::{Flusher, PmemPool};

use crate::epoch::MAX_THREADS;

/// Size of an allocator page in bytes (the granularity tracked by the
/// active page table; §6.3 uses 4 KiB).
pub const PAGE_SIZE: usize = 4096;
/// Bytes reserved for the page header.
pub const PAGE_HEADER: usize = 64;
/// Slot size classes. 24 B fits a log-free list/hash node exactly (eight
/// to three cache lines), 32 B packs two BST nodes or height-1 skip-list
/// nodes per line; the paper aligns every node to a line (§6.1), which
/// the larger classes, multiples of 64 B, still do. 256 B fits a
/// 24-level skip-list tower.
pub const CLASSES: [usize; 6] = [24, 32, 64, 128, 192, 256];
/// Number of size classes.
pub const N_CLASSES: usize = CLASSES.len();

const PAGE_MAGIC: u64 = 0x4E56_5041_4745_0000; // "NVPAGE" + class in low bits
const REGION_MAGIC: u64 = 0x4E56_5245_4749_4F4E; // "NVREGION" region header

/// Returns the size class index for an allocation of `size` bytes.
///
/// # Panics
///
/// Panics if `size` exceeds the largest class.
#[inline]
pub const fn class_of(size: usize) -> usize {
    let mut class = 0;
    while class < N_CLASSES {
        if size <= CLASSES[class] {
            return class;
        }
        class += 1;
    }
    panic!("allocation exceeds largest class")
}

/// Number of 64-bit words in a page's allocation bitmap: enough for the
/// smallest class's slots, and inside the header line with the magic and
/// slot size.
pub const BITMAP_WORDS: usize = 3;

const _: () = assert!((PAGE_SIZE - PAGE_HEADER) / CLASSES[0] <= 64 * BITMAP_WORDS);
const _: () = assert!(16 + 8 * BITMAP_WORDS <= PAGE_HEADER);

/// Number of slots in a page of class `class`.
#[inline]
pub const fn slots_in_class(class: usize) -> usize {
    (PAGE_SIZE - PAGE_HEADER) / CLASSES[class]
}

/// A set of slots of one page, laid out as its allocation bitmap: slot
/// *i* is bit `i % 64` of word `i / 64`. What [`PageHeader::occupancy`]
/// returns, and the shape of any per-slot bit array kept beside a page
/// (the cache's eviction reference bits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotSet(pub [u64; BITMAP_WORDS]);

impl SlotSet {
    /// The bitmap word and the bit within it that stand for slot `i`.
    #[inline]
    pub const fn bit(i: usize) -> (usize, u64) {
        (i / 64, 1 << (i % 64))
    }

    /// Slots `0..n`.
    #[inline]
    pub fn below(n: usize) -> Self {
        Self(std::array::from_fn(|w| match n.saturating_sub(64 * w) {
            k if k >= 64 => u64::MAX,
            k => (1 << k) - 1,
        }))
    }

    /// Whether slot `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let (w, bit) = Self::bit(i);
        self.0[w] & bit != 0
    }

    /// Whether the set has no slot.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; BITMAP_WORDS]
    }

    /// The slots of `self` that are not in `other`.
    #[inline]
    pub fn minus(self, other: Self) -> Self {
        Self(std::array::from_fn(|w| self.0[w] & !other.0[w]))
    }

    /// The lowest slot in the set at or after `from`.
    #[inline]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let (mut w, _) = Self::bit(from);
        let mut bits = *self.0.get(w)? & u64::MAX << (from % 64);
        while bits == 0 {
            w += 1;
            bits = *self.0.get(w)?;
        }
        Some(64 * w + bits.trailing_zeros() as usize)
    }
}

/// Start address of the page containing `addr`.
#[inline]
pub fn page_of(addr: usize) -> usize {
    addr & !(PAGE_SIZE - 1)
}

/// Typed view of a page header living in persistent memory.
///
/// All fields are accessed atomically; the bitmap words are shared
/// between the owning thread (allocations) and arbitrary threads (frees
/// of reclaimed nodes). A read of every word is not one snapshot.
pub struct PageHeader;

impl PageHeader {
    #[inline]
    fn magic(pool: &PmemPool, page: usize) -> &AtomicU64 {
        pool.atomic_u64(page)
    }

    #[inline]
    fn slot_size(pool: &PmemPool, page: usize) -> &AtomicU64 {
        pool.atomic_u64(page + 8)
    }

    /// Bitmap word `w` (slots `64 * w ..`).
    #[inline]
    fn word(pool: &PmemPool, page: usize, w: usize) -> &AtomicU64 {
        pool.atomic_u64(page + 16 + 8 * w)
    }

    /// Every bitmap word, one load each (not one snapshot).
    #[inline]
    pub(crate) fn bitmap(pool: &PmemPool, page: usize) -> SlotSet {
        SlotSet(std::array::from_fn(|w| Self::word(pool, page, w).load(Ordering::Acquire)))
    }

    /// Initialises a fresh page for `class` and schedules its write-back
    /// (no fence; the caller's next sync covers it).
    pub fn init(pool: &PmemPool, page: usize, class: usize, flusher: &mut Flusher) {
        Self::slot_size(pool, page).store(CLASSES[class] as u64, Ordering::Relaxed);
        for w in 0..BITMAP_WORDS {
            Self::word(pool, page, w).store(0, Ordering::Relaxed);
        }
        Self::magic(pool, page).store(PAGE_MAGIC | class as u64, Ordering::Release);
        flusher.clwb(page);
    }

    /// Reads the class of an initialised page, or `None` if the page
    /// header is not valid.
    pub fn read_class(pool: &PmemPool, page: usize) -> Option<usize> {
        let m = Self::magic(pool, page).load(Ordering::Acquire);
        if m & !0xFFFF == PAGE_MAGIC {
            let class = (m & 0xFFFF) as usize;
            (class < N_CLASSES).then_some(class)
        } else {
            None
        }
    }

    /// The class and allocation bitmap of `page`, or `None` if its header
    /// is not a valid slab page (a region page, or a blank one). A
    /// read-only view for scans that walk the heap's slots, such as an
    /// eviction hand; the bitmap can change as soon as it is read.
    pub fn occupancy(pool: &PmemPool, page: usize) -> Option<(usize, SlotSet)> {
        let class = Self::read_class(pool, page)?;
        Some((class, Self::bitmap(pool, page)))
    }

    /// Address of slot `i` in `page` of class `class`.
    #[inline]
    pub fn slot_addr(page: usize, class: usize, i: usize) -> usize {
        page + PAGE_HEADER + i * CLASSES[class]
    }

    /// Slot index of `addr` within its page, given the page's class.
    #[inline]
    pub fn slot_index(addr: usize, class: usize) -> usize {
        (addr - page_of(addr) - PAGE_HEADER) / CLASSES[class]
    }

    /// Marks slot `i` allocated. Returns `false` if it was already
    /// allocated (contended with another thread).
    pub fn try_set(pool: &PmemPool, page: usize, i: usize) -> bool {
        let (w, bit) = SlotSet::bit(i);
        Self::word(pool, page, w).fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Clears slot `i` of `page` of class `class` (free). Returns whether
    /// the slot's bitmap word was full: this free made it non-full.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already free (a double free), in every
    /// build: the check costs nothing beyond the `fetch_and` it reads.
    pub fn clear(pool: &PmemPool, page: usize, class: usize, i: usize) -> bool {
        let (w, bit) = SlotSet::bit(i);
        let prev = Self::word(pool, page, w).fetch_and(!bit, Ordering::AcqRel);
        assert!(prev & bit != 0, "double free at {:#x}", Self::slot_addr(page, class, i));
        prev == SlotSet::below(slots_in_class(class)).0[w]
    }

    /// Index of a free slot, if any.
    pub fn find_free(pool: &PmemPool, page: usize, class: usize) -> Option<usize> {
        Self::find_free_at(pool, page, class, 0)
    }

    /// Index of a free slot at or after `cursor`, falling back to the
    /// lowest free slot when everything from `cursor` on is taken.
    ///
    /// The cursor turns the owner thread's sequential fill of a page into
    /// O(1) next-free lookups instead of an O(slots) rescan from slot 0;
    /// because the fallback picks the lowest free slot, a caller that
    /// lowers its cursor on every local free observes exactly the
    /// lowest-free-first order of [`Self::find_free`] in single-threaded
    /// use.
    pub fn find_free_at(
        pool: &PmemPool,
        page: usize,
        class: usize,
        cursor: usize,
    ) -> Option<usize> {
        let free = SlotSet::below(slots_in_class(class)).minus(Self::bitmap(pool, page));
        free.next_from(cursor).or_else(|| free.next_from(0))
    }

    /// Whether the page has no allocated slots.
    pub fn is_empty(pool: &PmemPool, page: usize) -> bool {
        Self::bitmap(pool, page).is_empty()
    }
}

/// Global (volatile) heap state shared by all threads of a domain.
///
/// Persistent state is limited to the bump pointer (in the heap meta page)
/// and the per-page headers; everything else is rebuilt by
/// [`NvHeap::attach`] after a crash.
pub struct NvHeap {
    pool: Arc<PmemPool>,
    /// Durable high-water mark: address of the next never-used page.
    bump_addr: usize,
    /// Shared lists, per class, of pages with a free slot that no thread
    /// holds: per-thread overflow, dropped contexts, recovery.
    reusable: Mutex<[Vec<usize>; N_CLASSES]>,
    /// Pages that were never assigned a class and are fully free.
    blank: Mutex<Vec<usize>>,
    /// How often `reusable` was locked (the page-reuse tests read it).
    #[cfg(test)]
    pub(crate) reusable_locks: AtomicU64,
}

/// Address of the first data page.
pub fn data_start(pool: &PmemPool) -> usize {
    pool.heap_start() + PAGE_SIZE + crate::apt::APT_REGION_BYTES.next_multiple_of(PAGE_SIZE)
}

impl NvHeap {
    /// Formats a fresh heap in `pool` (erasing any previous content of the
    /// meta page) and durably initialises the bump pointer.
    pub fn format(pool: Arc<PmemPool>, flusher: &mut Flusher) -> Self {
        let bump_addr = pool.heap_start();
        let start = data_start(&pool);
        pool.atomic_u64(bump_addr).store(start as u64, Ordering::Release);
        flusher.persist(bump_addr, 8);
        Self::with_lists(pool, std::array::from_fn(|_| Vec::new()), Vec::new())
    }

    /// Re-attaches to a heap after a crash: reads the durable bump pointer
    /// and rebuilds the volatile page lists by scanning page headers.
    pub fn attach(pool: Arc<PmemPool>) -> Self {
        let bump_addr = pool.heap_start();
        let bump = pool.atomic_u64(bump_addr).load(Ordering::Acquire) as usize;
        let mut reusable: [Vec<usize>; N_CLASSES] = std::array::from_fn(|_| Vec::new());
        let mut blank = Vec::new();
        let mut page = data_start(&pool);
        while page < bump {
            if pool.atomic_u64(page).load(Ordering::Acquire) == REGION_MAGIC {
                // Persistent region (e.g. a hash-table bucket array): skip
                // all of its pages.
                let npages = pool.atomic_u64(page + 8).load(Ordering::Acquire) as usize;
                page += npages.max(1) * PAGE_SIZE;
                continue;
            }
            match PageHeader::read_class(&pool, page) {
                Some(class) => {
                    if PageHeader::find_free(&pool, page, class).is_some() {
                        reusable[class].push(page);
                    }
                }
                None => blank.push(page),
            }
            page += PAGE_SIZE;
        }
        Self::with_lists(pool, reusable, blank)
    }

    fn with_lists(
        pool: Arc<PmemPool>,
        reusable: [Vec<usize>; N_CLASSES],
        blank: Vec<usize>,
    ) -> Self {
        Self {
            bump_addr: pool.heap_start(),
            pool,
            reusable: Mutex::new(reusable),
            blank: Mutex::new(blank),
            #[cfg(test)]
            reusable_locks: Default::default(),
        }
    }

    fn lock_reusable(&self) -> MutexGuard<'_, [Vec<usize>; N_CLASSES]> {
        #[cfg(test)]
        self.reusable_locks.fetch_add(1, Ordering::Relaxed);
        self.reusable.lock().expect("heap lock")
    }

    /// The pool backing this heap.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Durable bump pointer value.
    pub fn bump(&self) -> usize {
        self.pool.atomic_u64(self.bump_addr).load(Ordering::Acquire) as usize
    }

    /// Acquires a page for `class`, preferring reusable pages. The page
    /// header is (re-)initialised if needed. Durably advances the bump
    /// pointer when taking a fresh page (one sync, amortised over the
    /// page's 15 to 168 slots).
    pub fn acquire_page(&self, class: usize, flusher: &mut Flusher) -> Result<usize, OutOfMemory> {
        if let Some(page) = self.lock_reusable()[class].pop() {
            return Ok(page);
        }
        if let Some(page) = self.blank.lock().expect("heap lock").pop() {
            PageHeader::init(&self.pool, page, class, flusher);
            return Ok(page);
        }
        // Fresh page: CAS the durable bump pointer forward.
        let bump = self.pool.atomic_u64(self.bump_addr);
        loop {
            let cur = bump.load(Ordering::Acquire) as usize;
            if cur + PAGE_SIZE > self.pool.heap_end() {
                return Err(OutOfMemory);
            }
            if bump
                .compare_exchange(
                    cur as u64,
                    (cur + PAGE_SIZE) as u64,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                flusher.persist(self.bump_addr, 8);
                PageHeader::init(&self.pool, cur, class, flusher);
                return Ok(cur);
            }
        }
    }

    /// Returns a page with free capacity to the shared reusable list, so
    /// another (or the same) thread can adopt it later.
    pub fn release_page(&self, page: usize, class: usize) {
        self.lock_reusable()[class].push(page);
    }

    /// Allocates a contiguous persistent region of at least `bytes` bytes
    /// (e.g. a hash-table bucket array) and returns the address of its
    /// data area, the line after the region's header line. Regions live
    /// until [`NvHeap::free_region`]; the header makes [`NvHeap::attach`]
    /// skip them when rebuilding page lists.
    pub fn alloc_region(&self, bytes: usize, flusher: &mut Flusher) -> Result<usize, OutOfMemory> {
        let npages = (PAGE_HEADER + bytes).div_ceil(PAGE_SIZE);
        let bump = self.pool.atomic_u64(self.bump_addr);
        loop {
            let cur = bump.load(Ordering::Acquire) as usize;
            if cur + npages * PAGE_SIZE > self.pool.heap_end() {
                return Err(OutOfMemory);
            }
            if bump
                .compare_exchange(
                    cur as u64,
                    (cur + npages * PAGE_SIZE) as u64,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                self.pool.atomic_u64(cur + 8).store(npages as u64, Ordering::Release);
                self.pool.atomic_u64(cur).store(REGION_MAGIC, Ordering::Release);
                flusher.clwb(cur);
                flusher.persist(self.bump_addr, 8);
                return Ok(cur + PAGE_HEADER);
            }
        }
    }

    /// Frees a persistent region previously returned by
    /// [`NvHeap::alloc_region`], identified by its *data* address. The
    /// region's pages are zeroed (so a future [`NvHeap::attach`] or region
    /// reuse sees a clean slate), the `REGION_MAGIC` header is erased, and
    /// every page joins the blank list for reuse by `acquire_page`.
    ///
    /// The caller must guarantee no thread can still reach the region —
    /// in practice the region is retired through an epoch generation
    /// ([`crate::ThreadCtx::retire_region`]) or freed during
    /// single-threaded recovery.
    pub fn free_region(&self, data_addr: usize, flusher: &mut Flusher) {
        let hdr = data_addr - PAGE_HEADER;
        debug_assert_eq!(
            self.pool.atomic_u64(hdr).load(Ordering::Acquire),
            REGION_MAGIC,
            "free_region on a non-region address"
        );
        let npages = self.pool.atomic_u64(hdr + 8).load(Ordering::Acquire) as usize;
        if npages == 0 {
            // A crash tore an earlier free of this region between its
            // zeroing fence and the magic-clear: the page-count word and
            // all data are durably blank already ([`NvHeap::attach`] put
            // the pages after the first on the blank list), only the
            // magic survives. Roll the free forward — erase the magic and
            // hand the first page back.
            self.pool.atomic_u64(hdr).store(0, Ordering::Release);
            flusher.persist(hdr, 8);
            self.blank.lock().expect("heap lock").push(hdr);
            return;
        }
        // Zero the whole run (header line included) before erasing the
        // magic: once the magic is gone a concurrent crash-recovery scan
        // must find blank pages, not stale bucket words that could alias a
        // page header.
        for w in (8..npages * PAGE_SIZE).step_by(8) {
            self.pool.atomic_u64(hdr + w).store(0, Ordering::Relaxed);
        }
        flusher.clwb_range(hdr + 8, npages * PAGE_SIZE - 8);
        flusher.fence();
        self.pool.atomic_u64(hdr).store(0, Ordering::Release);
        flusher.persist(hdr, 8);
        let mut blank = self.blank.lock().expect("heap lock");
        for p in 0..npages {
            blank.push(hdr + p * PAGE_SIZE);
        }
    }

    /// Data addresses of all live persistent regions up to the bump
    /// pointer. Used by the data-structure layer's recovery sweep to free
    /// regions that lost their last durable reference in a crash.
    pub fn regions(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut page = data_start(&self.pool);
        let bump = self.bump();
        while page < bump {
            if self.pool.atomic_u64(page).load(Ordering::Acquire) == REGION_MAGIC {
                let npages = self.pool.atomic_u64(page + 8).load(Ordering::Acquire) as usize;
                out.push(page + PAGE_HEADER);
                page += npages.max(1) * PAGE_SIZE;
                continue;
            }
            page += PAGE_SIZE;
        }
        out
    }

    /// Iterates over all initialised pages `(page, class)` up to the bump
    /// pointer. Used by recovery audits and tests.
    pub fn pages(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut page = data_start(&self.pool);
        let bump = self.bump();
        while page < bump {
            if self.pool.atomic_u64(page).load(Ordering::Acquire) == REGION_MAGIC {
                let npages = self.pool.atomic_u64(page + 8).load(Ordering::Acquire) as usize;
                page += npages.max(1) * PAGE_SIZE;
                continue;
            }
            if let Some(class) = PageHeader::read_class(&self.pool, page) {
                out.push((page, class));
            }
            page += PAGE_SIZE;
        }
        out
    }
}

/// The heap area of the pool is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory;

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "persistent heap exhausted")
    }
}

impl std::error::Error for OutOfMemory {}

/// Bytes needed for the APT region; re-exported here to keep the layout
/// computation in one place.
pub(crate) const _ASSERT_THREADS: usize = MAX_THREADS;

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{Mode, PoolBuilder};

    fn heap() -> (Arc<PmemPool>, NvHeap, Flusher) {
        let pool = PoolBuilder::new(4 << 20).mode(Mode::CrashSim).build();
        let mut f = pool.flusher();
        let h = NvHeap::format(Arc::clone(&pool), &mut f);
        (pool, h, f)
    }

    #[test]
    fn class_of_maps_sizes() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(24), 0, "a list/hash node");
        assert_eq!(class_of(25), 1);
        assert_eq!(class_of(32), 1, "a BST node");
        assert_eq!(class_of(33), 2);
        assert_eq!(class_of(64), 2);
        assert_eq!(class_of(65), 3);
        assert_eq!(class_of(256), 5);
    }

    #[test]
    #[should_panic(expected = "exceeds largest class")]
    fn class_of_rejects_huge() {
        let _ = class_of(257);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn slot_counts_match_page_geometry() {
        assert_eq!(slots_in_class(0), 168);
        assert_eq!(slots_in_class(1), 126);
        assert_eq!(slots_in_class(2), 63);
        assert_eq!(slots_in_class(3), 31);
        assert_eq!(slots_in_class(4), 21);
        assert_eq!(slots_in_class(5), 15);
        for class in 0..N_CLASSES {
            let last = PageHeader::slot_addr(0, class, slots_in_class(class) - 1);
            assert!(last + CLASSES[class] <= PAGE_SIZE, "class {class} overflows page");
        }
    }

    #[test]
    fn acquire_initialises_header() {
        let (pool, heap, mut f) = heap();
        let page = heap.acquire_page(2, &mut f).unwrap();
        assert_eq!(page % PAGE_SIZE, 0);
        assert_eq!(PageHeader::read_class(&pool, page), Some(2));
        assert!(PageHeader::is_empty(&pool, page));
    }

    #[test]
    fn set_and_clear_slots() {
        let (pool, heap, mut f) = heap();
        let page = heap.acquire_page(0, &mut f).unwrap();
        assert!(PageHeader::try_set(&pool, page, 5));
        assert!(!PageHeader::try_set(&pool, page, 5), "double alloc detected");
        assert_eq!(PageHeader::find_free(&pool, page, 0), Some(0));
        assert!(!PageHeader::clear(&pool, page, 0, 5), "the word was not full");
        assert!(PageHeader::is_empty(&pool, page));
    }

    #[test]
    fn node_page_fills_both_bitmap_words() {
        // A BST node page: 126 slots of 32 B, two words and no third.
        let (pool, heap, mut f) = heap();
        let class = class_of(32);
        let page = heap.acquire_page(class, &mut f).unwrap();
        let n = slots_in_class(class);
        for i in 0..n {
            assert_eq!(PageHeader::find_free(&pool, page, class), Some(i));
            assert!(PageHeader::try_set(&pool, page, i));
        }
        assert_eq!(PageHeader::find_free(&pool, page, class), None, "all {n} slots taken");
        assert_eq!(PageHeader::occupancy(&pool, page), Some((class, SlotSet::below(n))));
        assert_eq!(SlotSet::below(n).0[2], 0);
        // Each word reports its own full -> non-full transition.
        assert!(PageHeader::clear(&pool, page, class, 100), "word 1 was full");
        assert!(!PageHeader::clear(&pool, page, class, 101), "word 1 no longer full");
        assert!(PageHeader::clear(&pool, page, class, 3), "word 0 was full");
        assert_eq!(PageHeader::find_free(&pool, page, class), Some(3));
        assert_eq!(PageHeader::find_free_at(&pool, page, class, 64), Some(100));
    }

    #[test]
    fn slot_set_spans_three_words() {
        assert!(SlotSet::below(0).is_empty());
        assert_eq!(SlotSet::below(64).0, [u64::MAX, 0, 0]);
        assert_eq!(SlotSet::below(65).0, [u64::MAX, 1, 0]);
        assert_eq!(SlotSet::below(168).0, [u64::MAX, u64::MAX, (1 << 40) - 1]);
        assert_eq!(SlotSet::below(192).0, [u64::MAX; BITMAP_WORDS]);
        let set = SlotSet([1 << 63, 0, 1 << 39]);
        assert!(set.contains(63) && set.contains(167) && !set.contains(64));
        assert_eq!(set.next_from(0), Some(63));
        assert_eq!(set.next_from(64), Some(167), "skips an empty word");
        assert_eq!(set.next_from(168), None);
        assert_eq!(set.next_from(64 * BITMAP_WORDS), None, "past the last word");
        assert_eq!(SlotSet::below(168).minus(set).next_from(63), Some(64));
    }

    #[test]
    fn node_page_fills_three_words_and_frees_across_their_boundaries() {
        let (pool, heap, mut f) = heap();
        let page = heap.acquire_page(0, &mut f).unwrap();
        let n = slots_in_class(0);
        for i in 0..n {
            assert_eq!(PageHeader::find_free_at(&pool, page, 0, i), Some(i));
            assert!(PageHeader::try_set(&pool, page, i));
        }
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 0), None, "all {n} slots taken");
        // The last slot: word 2 holds 40, so it was full at 40 bits.
        assert!(PageHeader::clear(&pool, page, 0, 167), "word 2 was full");
        assert!(!PageHeader::clear(&pool, page, 0, 166), "word 2 no longer full");
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 0), Some(166));
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 167), Some(167));
        assert!(PageHeader::try_set(&pool, page, 166) && PageHeader::try_set(&pool, page, 167));
        // Each side of both word boundaries reports its own word's
        // full -> non-full transition.
        assert!(PageHeader::clear(&pool, page, 0, 127), "word 1 was full");
        assert!(PageHeader::clear(&pool, page, 0, 128), "word 2 was full");
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 64), Some(127));
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 128), Some(128));
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 129), Some(127), "falls back");
        assert!(PageHeader::clear(&pool, page, 0, 63), "word 0 was full");
        assert!(!PageHeader::clear(&pool, page, 0, 64), "word 1 no longer full");
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 0), Some(63));
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 64), Some(64));
        let freed = SlotSet([1 << 63, 1 | 1 << 63, 1]);
        assert_eq!(PageHeader::occupancy(&pool, page), Some((0, SlotSet::below(n).minus(freed))));
    }

    #[test]
    fn find_free_at_crosses_into_word_one_then_falls_back() {
        let (pool, heap, mut f) = heap();
        let page = heap.acquire_page(0, &mut f).unwrap();
        for i in 0..64 {
            PageHeader::try_set(&pool, page, i);
        }
        PageHeader::clear(&pool, page, 0, 10);
        // Slots 60..64 are taken: the cursor's next free slot is word 1's
        // first.
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 60), Some(64));
        for i in 64..slots_in_class(0) {
            PageHeader::try_set(&pool, page, i);
        }
        // Word 1 full: fall back to the lowest free slot, in word 0.
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 60), Some(10));
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 167), Some(10));
    }

    #[test]
    fn find_free_at_prefers_cursor_then_falls_back() {
        let (pool, heap, mut f) = heap();
        let page = heap.acquire_page(0, &mut f).unwrap();
        for i in 0..5 {
            PageHeader::try_set(&pool, page, i);
        }
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 5), Some(5));
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 9), Some(9));
        // Everything from the cursor on is taken: fall back to the lowest
        // free slot rather than declaring the page full.
        let n = slots_in_class(0);
        for i in 9..n {
            PageHeader::try_set(&pool, page, i);
        }
        PageHeader::clear(&pool, page, 0, 2);
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 9), Some(2));
        PageHeader::try_set(&pool, page, 2);
        for i in 5..9 {
            PageHeader::try_set(&pool, page, i);
        }
        assert_eq!(PageHeader::find_free_at(&pool, page, 0, 0), None);
    }

    #[test]
    fn slot_addr_round_trips_index() {
        let page = 0x10000;
        for (class, &size) in CLASSES.iter().enumerate() {
            for i in 0..slots_in_class(class) {
                let addr = PageHeader::slot_addr(page, class, i);
                assert_eq!(PageHeader::slot_index(addr, class), i);
                assert_eq!(page_of(addr), page);
                assert!(addr >= page + PAGE_HEADER && addr + size <= page + PAGE_SIZE);
                // All the three mark bits of a link word need.
                assert_eq!(addr % 8, 0, "class {class}, slot {i}");
            }
        }
        let node = |i| PageHeader::slot_addr(page, 0, i);
        let spanning = (0..168).filter(|&i| node(i) / 64 != (node(i) + 23) / 64).count();
        assert_eq!(spanning, 168 / 4, "two of every eight node slots span two lines");
    }

    #[test]
    fn bump_pointer_survives_crash() {
        let (pool, heap, mut f) = heap();
        let p1 = heap.acquire_page(0, &mut f).unwrap();
        let _p2 = heap.acquire_page(1, &mut f).unwrap();
        let bump_before = heap.bump();
        // Make page headers durable (normally the data-structure fence
        // does this).
        f.fence();
        drop(heap);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        let heap = NvHeap::attach(Arc::clone(&pool));
        assert_eq!(heap.bump(), bump_before);
        assert_eq!(PageHeader::read_class(&pool, p1), Some(0));
    }

    #[test]
    fn attach_rebuilds_reusable_lists() {
        let (pool, heap, mut f) = heap();
        let page = heap.acquire_page(0, &mut f).unwrap();
        PageHeader::try_set(&pool, page, 0);
        f.clwb(page);
        f.fence();
        drop(heap);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        let heap = NvHeap::attach(Arc::clone(&pool));
        // The page has free slots, so it must be adopted for reuse.
        let got = heap.acquire_page(0, &mut f).unwrap();
        assert_eq!(got, page);
    }

    #[test]
    fn region_data_follows_its_header_line() {
        let (pool, heap, mut f) = heap();
        let start = heap.bump();
        // A 16 B region and a 1 024-bucket array: one page and three.
        let small = heap.alloc_region(16, &mut f).unwrap();
        assert_eq!(small, start + PAGE_HEADER);
        let arr = heap.alloc_region(16 + 1024 * 8, &mut f).unwrap();
        assert_eq!(arr, start + PAGE_SIZE + PAGE_HEADER);
        assert_eq!(heap.bump(), start + 4 * PAGE_SIZE);
        let exact = heap.alloc_region(PAGE_SIZE - PAGE_HEADER, &mut f).unwrap();
        assert_eq!(heap.bump(), exact - PAGE_HEADER + PAGE_SIZE, "a full page, not two");
        let node = heap.acquire_page(0, &mut f).unwrap();
        f.fence();
        assert_eq!(heap.regions(), [small, arr, exact]);
        drop(heap);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        // Attach skips every region page: none is blank or a slab page.
        let heap = NvHeap::attach(Arc::clone(&pool));
        let bump = heap.bump();
        assert_eq!(heap.pages(), [(node, 0)]);
        assert_eq!(heap.regions(), [small, arr, exact]);
        heap.free_region(arr, &mut f);
        assert_eq!(heap.regions(), [small, exact]);
        // Its three pages come back blank, for any class.
        let mut got: Vec<usize> = (0..3).map(|_| heap.acquire_page(1, &mut f).unwrap()).collect();
        got.sort_unstable();
        let first = arr - PAGE_HEADER;
        assert_eq!(got, [first, first + PAGE_SIZE, first + 2 * PAGE_SIZE]);
        assert_eq!(heap.bump(), bump);
    }

    #[test]
    fn torn_region_free_rolls_forward() {
        let (pool, heap, mut f) = heap();
        let arr = heap.alloc_region(2 * PAGE_SIZE, &mut f).unwrap();
        let hdr = arr - PAGE_HEADER;
        // The state a crash leaves between a free's zeroing fence and its
        // magic-clear: the page count and every data word are zero.
        for w in (8..3 * PAGE_SIZE).step_by(8) {
            pool.atomic_u64(hdr + w).store(0, Ordering::Relaxed);
        }
        f.clwb_range(hdr + 8, 3 * PAGE_SIZE - 8);
        f.fence();
        drop(heap);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        let heap = NvHeap::attach(Arc::clone(&pool));
        assert_eq!(heap.regions(), [arr], "the magic alone still names the region");
        heap.free_region(arr, &mut f);
        assert!(heap.regions().is_empty());
        let mut got: Vec<usize> = (0..3).map(|_| heap.acquire_page(0, &mut f).unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, [hdr, hdr + PAGE_SIZE, hdr + 2 * PAGE_SIZE], "every page reused");
    }

    #[test]
    fn exhaustion_reports_oom() {
        let pool = PoolBuilder::new(2 << 20).mode(Mode::Perf).build();
        let mut f = pool.flusher();
        let heap = NvHeap::format(Arc::clone(&pool), &mut f);
        let mut n = 0;
        while heap.acquire_page(0, &mut f).is_ok() {
            n += 1;
            assert!(n < 10_000, "runaway");
        }
        assert!(n > 0);
    }
}
