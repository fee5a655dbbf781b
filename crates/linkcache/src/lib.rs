//! The **link cache** (§4 of David et al., *Log-Free Concurrent Data
//! Structures*, USENIX ATC 2018): a small, volatile, best-effort hash
//! table of data-structure links that have not yet been durably written.
//!
//! Instead of persisting every updated link one at a time (one NVRAM
//! round-trip each), updates deposit the link's address here. When an
//! operation *depends* on a cached link — a read of the key, a
//! predecessor check, an APT trim — the whole bucket (and hence a batch of
//! links) is written back at once, which is significantly faster than
//! waiting per link (§2, batched `clwb`).
//!
//! # Bucket layout (Figure 2)
//!
//! Each bucket spans exactly one cache line and stores up to
//! [`ENTRIES_PER_BUCKET`] links:
//!
//! ```text
//! +0   control   u32: flushing flag (bit 31) + 6 × 2-bit entry states
//! +4   hashes    6 × u16 key hashes
//! +16  addrs     6 × u64 link addresses
//! ```
//!
//! Entry states are *free* → *pending* (reserved, link CAS in flight) →
//! *busy* (link updated, awaiting write-back) → *free* (flushed). False
//! 16-bit-hash collisions are benign: they only trigger a write-back that
//! was not strictly necessary.
//!
//! # Full buckets
//!
//! A flush is triggered by a dependent operation ([`LinkCache::scan`]) or
//! by the bucket filling up: an add that finds no free entry flushes the
//! bucket itself — at most [`ENTRIES_PER_BUCKET`] write-backs under one
//! fence — and takes one of the entries it freed. Keys that never repeat
//! therefore still pay one fence per six links instead of one per link,
//! and a cached link waits for at most five later adds to its bucket.
//!
//! # Durability semantics
//!
//! An update whose link sits in the cache is **not yet durable**; its
//! durable-linearizability completion is deferred to the flush of the
//! bucket. Any operation whose return value depends on such a link calls
//! [`LinkCache::scan`] first, which triggers the flush — so no operation
//! ever *returns* a value that a crash could contradict. This is the
//! paper's argument for preserving durable linearizability (§4.1). A
//! flush keeps its entries busy until its fence has run, so a scan that
//! races it waits instead of returning early; and memory a cached link
//! may still point into (a trimmed page, a retired node) is reclaimed only
//! after a [`LinkCache::flush_all`], which the owning structures install
//! as the allocator's trim hook.
//!
//! # HTM note
//!
//! The paper uses a hardware-transactional-memory fast path for
//! *try-link-and-add* and falls back to the marked-pointer path described
//! in §4.2. Portable Rust has no stable HTM intrinsics, so this crate
//! implements the (fully specified, semantically identical) fallback path
//! only; see DESIGN.md.

use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use pmem::{Flusher, PmemPool};

/// Links per bucket (Figure 2).
pub const ENTRIES_PER_BUCKET: usize = 6;
/// Default number of buckets (§6.3 uses a 32-cache-line link cache).
pub const DEFAULT_BUCKETS: usize = 32;

const STATE_FREE: u32 = 0;
const STATE_PENDING: u32 = 1;
const STATE_BUSY: u32 = 2;
const STATE_MASK: u32 = 0b11;
const FLUSHING: u32 = 1 << 31;

/// Outcome of [`LinkCache::try_link_and_add`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryLink {
    /// The link was atomically updated and registered in the cache. The
    /// caller may return without a sync; durability is deferred to the
    /// next flush touching this bucket.
    Added,
    /// No cache slot could be taken in constant time: another thread is
    /// flushing the bucket, or won the race for the entry this call
    /// picked. The link was **not** updated; the caller should CAS and
    /// persist it itself (link-and-persist).
    CacheFull,
    /// The cache slot was reserved but the link CAS failed (the link
    /// changed concurrently). The caller should restart its operation.
    LinkCasFailed,
}

#[repr(C, align(64))]
struct Bucket {
    control: AtomicU32,
    hashes: [AtomicU16; ENTRIES_PER_BUCKET],
    addrs: [AtomicU64; ENTRIES_PER_BUCKET],
}

impl Bucket {
    fn new() -> Self {
        Self {
            control: AtomicU32::new(0),
            hashes: std::array::from_fn(|_| AtomicU16::new(0)),
            addrs: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn state_of(control: u32, i: usize) -> u32 {
        (control >> (2 * i)) & STATE_MASK
    }

    /// CAS entry `i`'s state from `from` to `to`, tolerating concurrent
    /// changes to other entries. With `forbid_flushing`, fails if the
    /// bucket is being flushed.
    fn transition(&self, i: usize, from: u32, to: u32, forbid_flushing: bool) -> bool {
        loop {
            let cur = self.control.load(Ordering::Acquire);
            if forbid_flushing && cur & FLUSHING != 0 {
                return false;
            }
            if Self::state_of(cur, i) != from {
                return false;
            }
            let next = (cur & !(STATE_MASK << (2 * i))) | (to << (2 * i));
            if self
                .control
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }
}

/// Counters describing link-cache effectiveness (Figure 8 analysis).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkCacheStats {
    /// Successful `try_link_and_add` calls.
    pub adds: u64,
    /// Calls that did not add: the caller fell back to link-and-persist
    /// (bucket mid-flush or reservation race) or its link CAS failed.
    pub fallbacks: u64,
    /// Bucket flushes performed.
    pub flushes: u64,
    /// Links written back by flushes.
    pub links_flushed: u64,
}

impl LinkCacheStats {
    /// Counter-wise accumulation (for summing per-shard caches).
    pub fn merge(&mut self, other: LinkCacheStats) {
        self.adds += other.adds;
        self.fallbacks += other.fallbacks;
        self.flushes += other.flushes;
        self.links_flushed += other.links_flushed;
    }
}

/// The volatile link cache. Shared between threads (`Sync`); all state is
/// in atomics.
pub struct LinkCache {
    pool: Arc<PmemPool>,
    buckets: Box<[Bucket]>,
    /// The bit data structures use to mark a link "not yet durable".
    dirty_bit: u64,
    stats: StatsCells,
}

#[derive(Default)]
struct StatsCells {
    adds: AtomicU64,
    fallbacks: AtomicU64,
    flushes: AtomicU64,
    links_flushed: AtomicU64,
}

impl LinkCache {
    /// Creates a cache of `n_buckets` single-cache-line buckets over
    /// `pool`. `dirty_bit` is the pointer mark the owning data structure
    /// uses for "not yet durable" links (cleared when a scan helps).
    pub fn new(pool: Arc<PmemPool>, n_buckets: usize, dirty_bit: u64) -> Self {
        assert!(n_buckets.is_power_of_two(), "bucket count must be a power of two");
        assert_eq!(dirty_bit.count_ones(), 1, "dirty bit must be a single bit");
        let mut v = Vec::with_capacity(n_buckets);
        v.resize_with(n_buckets, Bucket::new);
        Self { pool, buckets: v.into_boxed_slice(), dirty_bit, stats: StatsCells::default() }
    }

    /// Convenience constructor with the paper's default size.
    pub fn with_default_size(pool: Arc<PmemPool>, dirty_bit: u64) -> Self {
        Self::new(pool, DEFAULT_BUCKETS, dirty_bit)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LinkCacheStats {
        LinkCacheStats {
            adds: self.stats.adds.load(Ordering::Relaxed),
            fallbacks: self.stats.fallbacks.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            links_flushed: self.stats.links_flushed.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn bucket_and_hash(&self, key: u64) -> (&Bucket, u16) {
        // Fibonacci hash; high bits pick the bucket, middle bits form the
        // 16-bit entry tag (never 0, so 0 can mean "unset").
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let bucket = (h >> 48) as usize & (self.buckets.len() - 1);
        let tag = ((h >> 32) as u16).max(1);
        (&self.buckets[bucket], tag)
    }

    /// §4.2 *Try Link and Add*: atomically CAS `link` from `old` to `new`
    /// (transiently `new | dirty_bit`) **and** register the link for
    /// deferred write-back under `key`. A full bucket is flushed through
    /// `flusher` first. Best effort — see [`TryLink`].
    pub fn try_link_and_add(
        &self,
        key: u64,
        link_addr: usize,
        old: u64,
        new: u64,
        flusher: &mut Flusher,
    ) -> TryLink {
        let (bucket, tag) = self.bucket_and_hash(key);
        let Some(i) = self.reserve_entry(bucket, flusher) else {
            self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
            return TryLink::CacheFull;
        };
        bucket.hashes[i].store(tag, Ordering::Release);
        bucket.addrs[i].store(link_addr as u64, Ordering::Release);
        // Update the link in the data structure, marked: neither persisted
        // nor finalised in the cache yet.
        let link = self.pool.atomic_u64(link_addr);
        if link
            .compare_exchange(old, new | self.dirty_bit, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            bucket.transition(i, STATE_PENDING, STATE_FREE, false);
            self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
            return TryLink::LinkCasFailed;
        }
        // Finalise: addr/hash are valid and the link holds the value to
        // persist.
        bucket.transition(i, STATE_PENDING, STATE_BUSY, false);
        // Remove the mark; failure means a helper already persisted (and
        // possibly re-modified) the link, which is fine.
        let _ =
            link.compare_exchange(new | self.dirty_bit, new, Ordering::AcqRel, Ordering::Acquire);
        self.stats.adds.fetch_add(1, Ordering::Relaxed);
        TryLink::Added
    }

    /// Moves one free entry of `bucket` to *pending* and returns its
    /// index. A bucket with no free entry is flushed once and re-read.
    /// Never waits and never retries a lost race, so the worst case stays
    /// constant (§4.2): `None` means another thread is flushing the bucket
    /// or took the entry this call picked.
    fn reserve_entry(&self, bucket: &Bucket, flusher: &mut Flusher) -> Option<usize> {
        let free_entry = |control: u32| {
            (0..ENTRIES_PER_BUCKET).find(|&i| Bucket::state_of(control, i) == STATE_FREE)
        };
        let mut control = bucket.control.load(Ordering::Acquire);
        if control & FLUSHING != 0 {
            return None;
        }
        if free_entry(control).is_none() {
            if !Self::try_lock_flush(bucket) {
                return None;
            }
            self.write_back_locked(bucket, flusher);
            control = bucket.control.load(Ordering::Acquire);
        }
        let i = free_entry(control)?;
        bucket.transition(i, STATE_FREE, STATE_PENDING, true).then_some(i)
    }

    /// §4.2 *Scan*: called by every operation for its key (and, for
    /// updates, the predecessor's key) before returning a depending
    /// result. A busy entry triggers a bucket flush; a pending entry whose
    /// link is already visible in the structure gets an individual
    /// write-back.
    pub fn scan(&self, key: u64, flusher: &mut Flusher) {
        let (bucket, tag) = self.bucket_and_hash(key);
        let control = bucket.control.load(Ordering::Acquire);
        for i in 0..ENTRIES_PER_BUCKET {
            match Bucket::state_of(control, i) {
                STATE_BUSY if bucket.hashes[i].load(Ordering::Acquire) == tag => {
                    self.flush_bucket(bucket, flusher);
                    return;
                }
                STATE_PENDING => {
                    if bucket.hashes[i].load(Ordering::Acquire) != tag {
                        continue;
                    }
                    let addr = bucket.addrs[i].load(Ordering::Acquire) as usize;
                    if addr == 0 || !self.pool.contains(addr) || addr % 8 != 0 {
                        continue;
                    }
                    // The inserting operation is mid-flight. If its new
                    // pointer is already in the structure (mark visible),
                    // our linearization point comes after it: write the
                    // link back ourselves. Otherwise we linearised first
                    // and owe nothing (§4.2).
                    let val = self.pool.atomic_u64(addr).load(Ordering::Acquire);
                    if val & self.dirty_bit != 0 {
                        flusher.clwb(addr);
                        flusher.fence();
                        let _ = self.pool.atomic_u64(addr).compare_exchange(
                            val,
                            val & !self.dirty_bit,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                    }
                }
                _ => {}
            }
        }
    }

    /// Sets the flushing flag unless another thread holds it.
    fn try_lock_flush(bucket: &Bucket) -> bool {
        loop {
            let cur = bucket.control.load(Ordering::Acquire);
            if cur & FLUSHING != 0 {
                return false;
            }
            if bucket
                .control
                .compare_exchange_weak(cur, cur | FLUSHING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// §4.2 *Flush* of one bucket: set the flushing flag, write back busy
    /// entries (re-checking for late arrivals) and free them, then one
    /// fence for the whole batch.
    fn flush_bucket(&self, bucket: &Bucket, flusher: &mut Flusher) {
        // Acquire the flushing flag, or wait out a concurrent flusher —
        // either way the links are durable when we return.
        while !Self::try_lock_flush(bucket) {
            std::hint::spin_loop();
        }
        self.write_back_locked(bucket, flusher);
    }

    /// The body of a flush; the caller holds the flushing flag, which is
    /// released here.
    fn write_back_locked(&self, bucket: &Bucket, flusher: &mut Flusher) {
        let written = self.write_back_busy(bucket, flusher);
        flusher.fence();
        self.release(bucket, written);
    }

    /// Schedules the write-back of every busy entry of a bucket whose
    /// flushing flag the caller holds, and returns their state bits. The
    /// entries stay busy until [`Self::release`] frees them after the
    /// caller's fence, so a scan that finds one meanwhile waits for the
    /// flag instead of returning before the links are durable.
    fn write_back_busy(&self, bucket: &Bucket, flusher: &mut Flusher) -> u32 {
        let mut written = 0u32;
        loop {
            let control = bucket.control.load(Ordering::Acquire);
            let mut any = false;
            for i in 0..ENTRIES_PER_BUCKET {
                let bits = STATE_MASK << (2 * i);
                if written & bits == 0 && Bucket::state_of(control, i) == STATE_BUSY {
                    any = true;
                    written |= bits;
                    let addr = bucket.addrs[i].load(Ordering::Acquire) as usize;
                    if addr != 0 && self.pool.contains(addr) {
                        flusher.clwb(addr);
                    }
                }
            }
            if !any {
                return written;
            }
            // Loop: pending entries may have become busy meanwhile.
        }
    }

    /// Ends a flush after its fence: frees the entries written back and
    /// releases the flushing flag in one step. Only a flush moves a busy
    /// entry, so clearing their state bits frees exactly them.
    fn release(&self, bucket: &Bucket, written: u32) {
        bucket.control.fetch_and(!(written | FLUSHING), Ordering::AcqRel);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats.links_flushed.fetch_add(u64::from(written.count_ones() / 2), Ordering::Relaxed);
    }

    /// Flushes every bucket under one fence. Used before APT trims (§5.4),
    /// before retired nodes are freed, and at durability barriers.
    pub fn flush_all(&self, flusher: &mut Flusher) {
        let mut held = Vec::new();
        for b in self.buckets.iter() {
            let control = b.control.load(Ordering::Acquire);
            let any_busy =
                (0..ENTRIES_PER_BUCKET).any(|i| Bucket::state_of(control, i) != STATE_FREE);
            if any_busy || control & FLUSHING != 0 {
                // Flags are taken in bucket order and a single-bucket flush
                // waits on nothing else, so no two flushes wait on each
                // other.
                while !Self::try_lock_flush(b) {
                    std::hint::spin_loop();
                }
                held.push((b, self.write_back_busy(b, flusher)));
            }
        }
        if held.is_empty() {
            return;
        }
        flusher.fence();
        for (b, written) in held {
            self.release(b, written);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{Mode, PoolBuilder};

    const DIRTY: u64 = 1 << 1;

    fn setup() -> (Arc<PmemPool>, LinkCache, Flusher) {
        let pool = PoolBuilder::new(1 << 20).mode(Mode::CrashSim).build();
        let f = pool.flusher();
        let lc = LinkCache::new(Arc::clone(&pool), 32, DIRTY);
        (pool, lc, f)
    }

    #[test]
    fn bucket_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
        assert_eq!(std::mem::align_of::<Bucket>(), 64);
    }

    #[test]
    fn add_updates_link_and_clears_mark() {
        let (pool, lc, mut f) = setup();
        let link = pool.heap_start();
        pool.atomic_u64(link).store(16, Ordering::Relaxed);
        assert_eq!(lc.try_link_and_add(7, link, 16, 32, &mut f), TryLink::Added);
        assert_eq!(pool.atomic_u64(link).load(Ordering::Relaxed), 32);
        assert_eq!(lc.stats().adds, 1);
    }

    #[test]
    fn cas_failure_releases_entry() {
        let (pool, lc, mut f) = setup();
        let link = pool.heap_start();
        pool.atomic_u64(link).store(99 << 3, Ordering::Relaxed);
        assert_eq!(lc.try_link_and_add(7, link, 8, 16, &mut f), TryLink::LinkCasFailed);
        assert_eq!(pool.atomic_u64(link).load(Ordering::Relaxed), 99 << 3, "link untouched");
        // The reserved entry was released: six adds to the same bucket
        // must all find slots.
        for k in 0..ENTRIES_PER_BUCKET {
            let a = link + 8 * (k + 1);
            pool.atomic_u64(a).store(0, Ordering::Relaxed);
            assert_eq!(lc.try_link_and_add(7, a, 0, 8, &mut f), TryLink::Added);
        }
    }

    #[test]
    fn scan_makes_cached_link_durable() {
        let (pool, lc, mut f) = setup();
        let link = pool.heap_start();
        pool.atomic_u64(link).store(16, Ordering::Relaxed);
        f.persist(link, 8);
        lc.try_link_and_add(7, link, 16, 32, &mut f);
        // Without a scan a crash loses the update...
        let img = pool.capture_crash_image().unwrap();
        // SAFETY: single-threaded test.
        unsafe { pool.crash_to_image(&img).unwrap() };
        assert_eq!(pool.atomic_u64(link).load(Ordering::Relaxed), 16);
        // ...after a scan it must survive.
        pool.atomic_u64(link).store(16, Ordering::Relaxed);
        f.persist(link, 8);
        lc.try_link_and_add(7, link, 16, 32, &mut f);
        lc.scan(7, &mut f);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(pool.atomic_u64(link).load(Ordering::Relaxed), 32);
    }

    #[test]
    fn scan_of_unrelated_key_does_not_fence() {
        let (pool, lc, mut f) = setup();
        let link = pool.heap_start();
        lc.try_link_and_add(7, link, 0, 8, &mut f);
        let before = f.stats().fences;
        // A key mapping to a different bucket must not flush anything.
        // Key 8 may share the bucket; find one that does not.
        let other = (0..1000u64)
            .find(|&k| {
                let h7 = 7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
                let hk = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
                (h7 as usize & 31) != (hk as usize & 31)
            })
            .unwrap();
        lc.scan(other, &mut f);
        assert_eq!(f.stats().fences, before);
    }

    #[test]
    fn full_bucket_is_flushed_by_the_next_add() {
        let (pool, lc, mut f) = setup();
        // Same key -> same bucket: fill all six entries, one per line.
        let base = pool.heap_start();
        for i in 0..ENTRIES_PER_BUCKET {
            assert_eq!(lc.try_link_and_add(7, base + 64 * i, 0, 8, &mut f), TryLink::Added);
        }
        assert_eq!(f.stats().fences, 0, "nothing flushed while entries are free");
        // The seventh add writes the six back under one fence and takes
        // one of the entries that frees.
        assert_eq!(lc.try_link_and_add(7, base + 64 * 6, 0, 8, &mut f), TryLink::Added);
        assert_eq!(f.stats(), pmem::FlushStats { clwbs: 6, fences: 1, sync_batches: 1 });
        let s = lc.stats();
        assert_eq!((s.adds, s.fallbacks, s.flushes, s.links_flushed), (7, 0, 1, 6));
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        for i in 0..=ENTRIES_PER_BUCKET {
            let want = if i < ENTRIES_PER_BUCKET { 8 } else { 0 };
            assert_eq!(pool.atomic_u64(base + 64 * i).load(Ordering::Relaxed), want, "link {i}");
        }
    }

    #[test]
    fn bucket_mid_flush_refuses_without_waiting() {
        let (pool, lc, mut f) = setup();
        let link = pool.heap_start();
        let (bucket, _) = lc.bucket_and_hash(7);
        // Another thread holds the flushing flag.
        assert!(LinkCache::try_lock_flush(bucket));
        assert_eq!(lc.try_link_and_add(7, link, 0, 8, &mut f), TryLink::CacheFull);
        assert_eq!(pool.atomic_u64(link).load(Ordering::Relaxed), 0, "link untouched");
        assert_eq!(lc.stats().fallbacks, 1);
        lc.write_back_locked(bucket, &mut f);
        assert_eq!(lc.try_link_and_add(7, link, 0, 8, &mut f), TryLink::Added);
    }

    #[test]
    fn a_flush_frees_its_entries_only_after_its_fence() {
        let (pool, lc, mut f) = setup();
        let link = pool.heap_start();
        assert_eq!(lc.try_link_and_add(7, link, 0, 8, &mut f), TryLink::Added);
        let (bucket, _) = lc.bucket_and_hash(7);
        assert!(LinkCache::try_lock_flush(bucket));
        let written = lc.write_back_busy(bucket, &mut f);
        // Written back but not fenced: the entry still reads busy, so a
        // scan of key 7 waits for the flag instead of returning.
        let control = bucket.control.load(Ordering::Acquire);
        assert!((0..ENTRIES_PER_BUCKET).any(|i| Bucket::state_of(control, i) == STATE_BUSY));
        f.fence();
        lc.release(bucket, written);
        assert_eq!(bucket.control.load(Ordering::Acquire), 0, "entry freed, flag released");
    }

    #[test]
    fn flush_all_empties_and_persists() {
        let (pool, lc, mut f) = setup();
        let base = pool.heap_start();
        for i in 0..4usize {
            pool.atomic_u64(base + 64 * i).store(40, Ordering::Relaxed);
            assert_eq!(
                lc.try_link_and_add(i as u64, base + 64 * i, 40, 48, &mut f),
                TryLink::Added
            );
        }
        let fences_before = f.stats().sync_batches;
        lc.flush_all(&mut f);
        assert_eq!(f.stats().sync_batches - fences_before, 1, "one fence for every bucket");
        assert!(lc.stats().links_flushed >= 4);
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        for i in 0..4usize {
            assert_eq!(pool.atomic_u64(base + 64 * i).load(Ordering::Relaxed), 48);
        }
        // All entries are free again.
        for i in 0..4usize {
            assert_eq!(
                lc.try_link_and_add(i as u64, base + 64 * i, 48, 56, &mut f),
                TryLink::Added
            );
        }
    }

    #[test]
    fn figure3_schedule_batches_writebacks() {
        // Figure 3: Insert(7), Delete(20) (mark + unlink) and Insert(12)
        // deposit links; the Search(20) scan flushes them as one batch.
        let (pool, lc, mut f) = setup();
        let l_6_7 = pool.heap_start(); // &(6 -> 7)
        let l_20_23 = pool.heap_start() + 64; // &(20 -> 23), then &(14 -> 23)
        let l_10_12 = pool.heap_start() + 128; // &(10 -> 12)
        assert_eq!(lc.try_link_and_add(7, l_6_7, 0, 56, &mut f), TryLink::Added);
        assert_eq!(lc.try_link_and_add(20, l_20_23, 0, 184, &mut f), TryLink::Added);
        assert_eq!(lc.try_link_and_add(20, l_20_23, 184, 112, &mut f), TryLink::Added);
        assert_eq!(lc.try_link_and_add(12, l_10_12, 0, 96, &mut f), TryLink::Added);
        let fences_before = f.stats().sync_batches;
        lc.scan(20, &mut f);
        assert_eq!(f.stats().sync_batches - fences_before, 1, "one batched sync, not four");
        // SAFETY: single-threaded test.
        unsafe { pool.simulate_crash().unwrap() };
        assert_eq!(pool.atomic_u64(l_20_23).load(Ordering::Relaxed), 112);
    }

    #[test]
    fn concurrent_adds_and_scans() {
        let pool = PoolBuilder::new(4 << 20).mode(Mode::Perf).build();
        let lc = LinkCache::new(Arc::clone(&pool), 32, DIRTY);
        let base = pool.heap_start();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let lc = &lc;
                let pool = &pool;
                s.spawn(move || {
                    let mut f = pool.flusher();
                    for i in 0..2000usize {
                        let key = (t * 2000 + i) as u64;
                        let addr = base + 8 * ((t * 2000 + i) % 10_000);
                        let _ = lc.try_link_and_add(key, addr, 0, 0, &mut f);
                        if i % 16 == 0 {
                            lc.scan(key, &mut f);
                        }
                    }
                    lc.flush_all(&mut f);
                });
            }
        });
        let s = lc.stats();
        assert!(s.adds + s.fallbacks >= 4_000, "all adds accounted for");
    }
}
