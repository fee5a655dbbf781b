//! Soft-capacity accounting plus CLOCK eviction over the heap's own
//! slots.
//!
//! One [`Clock`] belongs to one shard (a standalone [`crate::NvMemcached`]
//! is exactly one shard), so nothing here is shared across shards of a
//! [`crate::sharded::ShardedNvMemcached`].
//!
//! # Reference bits
//!
//! The allocator already knows where every item is: an item is one
//! hash-table node in a slot of the node class (168 slots per page), and
//! every page has an allocation bitmap of [`nvalloc::BITMAP_WORDS`] words
//! (§5.3). So the clock keeps no list of keys. It keeps as many volatile
//! words of reference bits per heap page, in DRAM, laid out as the bitmap
//! ([`nvalloc::SlotSet`]): bit `i % 64` of word `i / 64` stands for slot
//! *i*. A `get` hit sets its node's bit
//! ([`Clock::touch`]), loading the word first, so a hot key costs no
//! shared write after its first hit. A slot that is freed and reused
//! keeps its bit: the new item inherits one pass of grace.
//!
//! # Hand
//!
//! The hand is one page cursor per shard. A thread that must evict
//! claims the next page with one `fetch_add`, keeps it and its slot
//! cursor in a slot of its own (one per domain thread id,
//! [`nvalloc::ThreadCtx::tid`]), and sweeps it: an allocated slot whose
//! bit is set has the bit cleared and is passed over, one whose bit is
//! clear is the victim. The victim is removed with
//! [`logfree::HashTable::evict_at`], which refuses a slot that no longer
//! holds its key's live node (freed, replaced, deleted), so a stale
//! bitmap read never evicts the wrong item. Pages that are not node-class
//! slab pages (bucket-array regions, blank pages) are skipped, and the
//! hand wraps at the bump pointer. A key hit since the hand last passed
//! its slot survives the next pass; unreferenced keys go in hand order,
//! which for slots allocated in sequence is insertion order.
//!
//! # Count
//!
//! The item count is the shared count plus one signed delta per thread
//! slot, folded into the shared count once it reaches `±BATCH`, so a
//! store thread writes a line another thread reads about once per
//! `BATCH` new keys. The capacity check reads the shared count plus the
//! thread's own delta ([`Clock::approx_len`]), off by less than `BATCH`
//! per other thread; [`Clock::len`] sums every slot, so it is exact
//! whenever the cache is quiescent and a dropped context needs no
//! hand-back. (Other threads' checks do not see the under-`BATCH` delta
//! a dropped context leaves in its slot, so the soft capacity can drift
//! by that much per dropped context.) The count moves only when the hash
//! table actually changed, and [`Clock::enforce`] keeps evicting until
//! the count is back at (or below) capacity or the hand has gone round
//! twice without a victim.
//!
//! Every atomic here is `Relaxed`: none publishes other data. A stale
//! bit, bitmap or cursor changes only which slot the hand offers, and
//! `evict_at` decides under the table's own synchronisation whether the
//! offer is taken.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use nvalloc::{page_of, NvHeap, PageHeader, SlotSet, BITMAP_WORDS, MAX_THREADS, PAGE_SIZE};
use pmem::PmemPool;

/// The delta magnitude a thread keeps in its slot before it folds it
/// into the shared count.
const BATCH: i64 = 32;

/// The size class of a hash-table node.
pub(crate) const NODE_CLASS: usize = nvalloc::class_of(logfree::list::NODE_SIZE);

/// Reference bits, hand and item accounting for one shard.
pub struct Clock {
    /// One word per bitmap word of each heap page, indexed by
    /// `(page − data_start) / PAGE_SIZE`.
    refs: Box<[[AtomicU64; BITMAP_WORDS]]>,
    /// Address of the heap's first data page.
    data_start: usize,
    /// Pages claimed so far; the next claim sweeps page
    /// `hand % pages in use`.
    hand: Padded<AtomicUsize>,
    /// Item count of the shard's table, minus the slots' unfolded deltas.
    items: Padded<AtomicI64>,
    /// One per domain thread id.
    slots: Box<[Slot]>,
}

/// Keeps a value on cache lines of its own.
#[repr(align(128))]
struct Padded<T>(T);

/// One thread's share of the bookkeeping, on lines of its own. Written
/// by its thread alone; [`Clock::len`] and [`Clock::evictions`] read it.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    /// Item-count change not yet in [`Clock::items`].
    delta: AtomicI64,
    /// Evictions this slot's thread made.
    evictions: AtomicU64,
    /// The page this thread's sweep is on (0 before its first claim).
    page: AtomicUsize,
    /// The next slot of `page` to look at.
    next: AtomicU32,
}

impl Clock {
    /// A clock over `pool`'s heap for a table that holds `items` items
    /// (0 at creation, the recovered count after a crash). Every bit
    /// starts clear and the hand starts at the first data page.
    pub fn new(pool: &PmemPool, items: usize) -> Self {
        let data_start = nvalloc::heap::data_start(pool);
        let pages = pool.heap_end().saturating_sub(data_start).div_ceil(PAGE_SIZE);
        Self {
            refs: (0..pages).map(|_| Default::default()).collect(),
            data_start,
            hand: Padded(AtomicUsize::new(0)),
            items: Padded(AtomicI64::new(items as i64)),
            slots: (0..MAX_THREADS).map(|_| Slot::default()).collect(),
        }
    }

    /// Marks the item whose node is at `node` as referenced (a `get`
    /// hit). The node may have been freed since it was found; then the
    /// slot's next item inherits the bit, which costs one pass of grace.
    #[inline]
    pub fn touch(&self, node: usize) {
        let page = page_of(node);
        if let Some(words) = self.refs.get(page.wrapping_sub(self.data_start) / PAGE_SIZE) {
            let (w, bit) = SlotSet::bit(PageHeader::slot_index(node, NODE_CLASS));
            let word = &words[w];
            if word.load(Ordering::Relaxed) & bit == 0 {
                word.fetch_or(bit, Ordering::Relaxed);
            }
        }
    }

    /// Item count: the shared count plus every slot's delta, floored at
    /// zero (a delete can be counted before the insert it undoes). Exact
    /// when the cache is quiescent.
    pub fn len(&self) -> usize {
        let deltas: i64 = self.slots.iter().map(|s| s.delta.load(Ordering::Relaxed)).sum();
        (self.items.0.load(Ordering::Relaxed) + deltas).max(0) as usize
    }

    /// The count thread `tid`'s capacity check acts on: the shared count
    /// plus its own delta. Reads no line another thread writes per op.
    #[inline]
    pub fn approx_len(&self, tid: usize) -> i64 {
        self.items.0.load(Ordering::Relaxed) + self.slots[tid].delta.load(Ordering::Relaxed)
    }

    /// Evictions made so far, summed over every thread.
    pub fn evictions(&self) -> u64 {
        self.slots.iter().map(|s| s.evictions.load(Ordering::Relaxed)).sum()
    }

    /// Adds `by` to thread `tid`'s delta, folding it into the shared
    /// count once it reaches `±BATCH`.
    ///
    /// The delta is signed, so a concurrent set/delete pair that orders
    /// the table change before the set's increment leaves the count one
    /// low until that increment lands, never wrapped; [`Self::len`]
    /// floors the transient negative at zero.
    pub fn add(&self, tid: usize, by: i64) {
        let delta = &self.slots[tid].delta;
        let d = delta.load(Ordering::Relaxed) + by;
        if d.abs() >= BATCH {
            delta.store(0, Ordering::Relaxed);
            self.items.0.fetch_add(d, Ordering::Relaxed);
        } else {
            delta.store(d, Ordering::Relaxed);
        }
    }

    /// Evicts until the count thread `tid` sees ([`Self::approx_len`]) is
    /// at or below `capacity`, or until the hand has claimed two laps of
    /// `heap`'s pages without finding a victim. `evict(addr)` removes the
    /// item whose node is at `addr` and returns whether it did (see
    /// [`logfree::HashTable::evict_at`]); a refused slot is passed over.
    pub fn enforce(
        &self,
        tid: usize,
        capacity: usize,
        heap: &NvHeap,
        mut evict: impl FnMut(usize) -> bool,
    ) {
        let slot = &self.slots[tid];
        let mut page = slot.page.load(Ordering::Relaxed);
        let mut next = slot.next.load(Ordering::Relaxed);
        // Pages claimed since the last victim.
        let mut idle = 0;
        'evict: while self.approx_len(tid) > capacity as i64 {
            loop {
                // The allocated slots of `page` from `next` on.
                let nodes = self.nodes_on(heap, page);
                while let Some(i) = nodes.next_from(next as usize) {
                    next = i as u32 + 1;
                    let (w, bit) = SlotSet::bit(i);
                    let refs = &self.refs[(page - self.data_start) / PAGE_SIZE][w];
                    if refs.load(Ordering::Relaxed) & bit != 0 {
                        refs.fetch_and(!bit, Ordering::Relaxed);
                    } else if evict(PageHeader::slot_addr(page, NODE_CLASS, i)) {
                        let evictions = &slot.evictions;
                        evictions.store(evictions.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                        self.add(tid, -1);
                        idle = 0;
                        continue 'evict;
                    }
                }
                let lap = (heap.bump() - self.data_start) / PAGE_SIZE;
                if idle >= 2 * lap {
                    break 'evict;
                }
                idle += 1;
                let claimed = self.hand.0.fetch_add(1, Ordering::Relaxed) % lap;
                (page, next) = (self.data_start + claimed * PAGE_SIZE, 0);
            }
        }
        slot.page.store(page, Ordering::Relaxed);
        slot.next.store(next, Ordering::Relaxed);
    }

    /// The allocated slots of `page` if it is a page of hash-table
    /// nodes, else none (no page yet, a region page, a blank page).
    fn nodes_on(&self, heap: &NvHeap, page: usize) -> SlotSet {
        if page < self.data_start {
            return SlotSet::default();
        }
        match PageHeader::occupancy(heap.pool(), page) {
            Some((NODE_CLASS, bitmap)) => bitmap,
            _ => SlotSet::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvMemcached;
    use pmem::{LatencyModel, Mode, PoolBuilder};
    use std::collections::HashSet;

    fn cache(capacity: usize) -> NvMemcached {
        let pool = PoolBuilder::new(16 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build();
        NvMemcached::create(pool, 64, capacity, false).unwrap()
    }

    #[test]
    fn accounting_round_trip() {
        let pool = PoolBuilder::new(4 << 20).mode(Mode::Perf).build();
        let clock = Clock::new(&pool, 0);
        assert_eq!(clock.len(), 0);
        clock.add(0, 1);
        clock.add(0, 1);
        assert_eq!(clock.len(), 2);
        clock.add(0, -1);
        assert_eq!(clock.len(), 1);
        assert_eq!(Clock::new(&pool, 7).len(), 7, "a recovered count starts the clock");
    }

    #[test]
    fn enforce_skips_stale_entries_until_converged() {
        // 10 keys, the 5 odd ones deleted: their nodes are retired but not
        // yet freed, so the bitmap still shows them. The hand must pass
        // over them and still bring the count down to capacity.
        let mc = cache(1000);
        let mut ctx = mc.register();
        for k in 1..=10u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        for k in (1..=10u64).step_by(2) {
            assert_eq!(mc.delete(&mut ctx, k), Some(k));
        }
        assert_eq!(mc.len(), 5);
        let heap = mc.domain().heap();
        mc.clock.enforce(ctx.tid(), 2, heap, |node| mc.table.evict_at(&mut ctx, node));
        assert_eq!((mc.len(), mc.evictions()), (2, 3));
        // The survivors are the last two in hand order.
        let survivors: HashSet<u64> = mc.snapshot().iter().map(|&(k, _)| k).collect();
        assert_eq!(survivors, HashSet::from([8, 10]));
    }

    #[test]
    fn remove_on_zero_count_saturates_instead_of_wrapping() {
        let mc = cache(0);
        let heap = mc.domain().heap();
        mc.clock.add(0, -1);
        assert_eq!(mc.len(), 0, "a decrement below zero reads as zero, not as a wrapped count");
        // A wrapped counter would make enforce look for victims; a
        // negative one is already within capacity.
        mc.clock.enforce(0, 0, heap, |_| panic!("nothing to evict"));
        assert_eq!(mc.len(), 0);
        // The decrement raced ahead of its insert's increment: once that
        // lands the count is exact again.
        mc.clock.add(1, 1);
        assert_eq!(mc.len(), 0, "the early decrement and its insert cancel");
        mc.clock.add(1, 1);
        assert_eq!(mc.len(), 1, "the count tracks on from there");
    }

    #[test]
    fn a_referenced_node_in_word_one_is_spared_one_pass() {
        let mc = cache(1000);
        let mut ctx = mc.register();
        for k in 1..=100u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        let hot = 80;
        let logfree::hash::Lookup::Found(_, node) = mc.table.lookup(&mut ctx, hot) else {
            panic!("key {hot} is in the cache");
        };
        assert!(PageHeader::slot_index(node, NODE_CLASS) >= 64, "the node is in word 1");
        assert_eq!(mc.get(&mut ctx, hot), Some(hot));
        // The first pass clears the hot node's bit and evicts every other
        // item; the next pass evicts it.
        let heap = mc.domain().heap();
        mc.clock.enforce(ctx.tid(), 1, heap, |node| mc.table.evict_at(&mut ctx, node));
        assert_eq!(mc.snapshot(), [(hot, hot)]);
        assert_eq!(mc.evictions(), 99);
        mc.clock.enforce(ctx.tid(), 0, heap, |node| mc.table.evict_at(&mut ctx, node));
        assert_eq!((mc.len(), mc.evictions()), (0, 100));
    }

    #[test]
    fn the_one_unreferenced_node_in_word_two_is_the_victim() {
        let mc = cache(1000);
        let mut ctx = mc.register();
        for k in 1..=160u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        let cold = 150;
        let logfree::hash::Lookup::Found(_, node) = mc.table.lookup(&mut ctx, cold) else {
            panic!("key {cold} is in the cache");
        };
        assert!(PageHeader::slot_index(node, NODE_CLASS) >= 128, "the node is in word 2");
        for k in (1..=160u64).filter(|&k| k != cold) {
            assert_eq!(mc.get(&mut ctx, k), Some(k));
        }
        let heap = mc.domain().heap();
        mc.clock.enforce(ctx.tid(), 159, heap, |node| mc.table.evict_at(&mut ctx, node));
        assert_eq!((mc.len(), mc.evictions()), (159, 1));
        assert_eq!(mc.get(&mut ctx, cold), None, "the hand passed every hot slot");
    }

    #[test]
    fn enforce_gives_up_after_two_laps() {
        // Over capacity with no item in the heap at all: the hand claims
        // two laps of (region) pages and returns.
        let mc = cache(0);
        let heap = mc.domain().heap();
        mc.clock.add(0, 1);
        mc.clock.enforce(0, 0, heap, |_| panic!("no node to offer"));
        assert_eq!(mc.len(), 1, "count untouched when nothing can be evicted");
        // Five items, every one refused: each slot is offered once per
        // lap, and the hand stops after two laps without a victim.
        let mc = cache(1000);
        let mut ctx = mc.register();
        for k in 1..=5u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        let mut offered = 0;
        mc.clock.enforce(ctx.tid(), 0, mc.domain().heap(), |_| {
            offered += 1;
            false
        });
        assert!((5..=10).contains(&offered), "{offered} offers of 5 slots");
        assert_eq!(mc.len(), 5);
        // Every key referenced: the first lap clears the bits, the
        // second evicts.
        for k in 1..=5u64 {
            mc.get(&mut ctx, k);
        }
        mc.clock
            .enforce(ctx.tid(), 0, mc.domain().heap(), |node| mc.table.evict_at(&mut ctx, node));
        assert_eq!((mc.len(), mc.evictions()), (0, 5));
    }
}
