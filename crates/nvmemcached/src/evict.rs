//! Soft-capacity accounting plus the coarse FIFO eviction queue.
//!
//! One `EvictQueue` belongs to one shard (a standalone [`crate::NvMemcached`]
//! is exactly one shard), so nothing here is shared across shards of a
//! [`crate::sharded::ShardedNvMemcached`].
//!
//! # Per-thread slots
//!
//! The paper keeps its durable metadata private to each thread (one epoch
//! counter per thread, §5.2; one active-page-table row per thread, §5.4)
//! so that updates scale. The eviction queue follows the same rule for its
//! volatile bookkeeping: besides the shared queue and the shared item
//! count, it has one cache-line-padded **slot** per domain thread id
//! ([`nvalloc::ThreadCtx::tid`]), written by that thread alone on the hot
//! path. A slot holds
//!
//! * the thread's last `< BATCH` inserted keys, pushed onto the back of the
//!   shared queue under one lock when the batch fills;
//! * up to `BATCH` victims taken off the front of the shared queue under
//!   one lock, evicted one by one as the thread needs them;
//! * the thread's signed item-count delta, folded into the shared count
//!   once it reaches `±BATCH`;
//! * the thread's eviction count (never folded; [`EvictQueue::evictions`]
//!   sums it).
//!
//! So a store thread touches a line another thread writes about once per
//! `BATCH` new keys instead of three times per key. The capacity check
//! reads the shared count plus the thread's own delta, so the count it
//! acts on is off by less than `BATCH` per other thread; [`EvictQueue::len`]
//! and [`EvictQueue::queue_len`] sum every slot and are exact whenever the
//! cache is quiescent.
//!
//! A thread changes its slot through [`EvictQueue::slot`], one lock per
//! new key for the insert and the evictions it causes. A thread that
//! stops using its context must not strand its slot: [`EvictQueue::flush`]
//! hands the buffered keys and the delta back (the cache runs it when a
//! context drops, and the sharded cache when a connection closes), and
//! [`SlotGuard::enforce`], finding the shared queue dry, first pushes its
//! own inserts and then steals the keys of idle slots.
//!
//! # Order
//!
//! The order is **FIFO by first insertion, to within one batch per
//! thread**: a key is enqueued when it goes from absent to present, and
//! an overwrite (`set` or `replace` of a present key) neither moves nor
//! re-enqueues it, so a quiescent queue below capacity holds one entry
//! per live key however often the keys are rewritten. Victims come off
//! the front of the shared queue, which holds everything older than each
//! thread's last `< BATCH` inserts; one thread alone evicts in exact
//! insertion order. Like memcached's LRU the queue is advisory: stale
//! entries come only from deletes (the entry of a deleted key stays until
//! it is popped, and a key deleted and stored again has two), and a stale
//! pop simply discards the entry. What *is* guaranteed is the accounting:
//! the item count moves only when the hash table actually changed, and
//! [`SlotGuard::enforce`] keeps evicting until the count is back at (or
//! below) capacity or no queued key is left to try.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use nvalloc::MAX_THREADS;
use parking_lot::{Mutex, MutexGuard};

/// Changes a thread makes in its slot before it touches the shared queue
/// or the shared count: inserts per push, victims per refill, and the
/// delta magnitude that is folded into the shared count.
pub const BATCH: usize = 32;

/// FIFO eviction queue + item accounting for one shard.
pub struct EvictQueue {
    /// One per domain thread id.
    slots: Box<[Slot]>,
    /// Insertion-ordered victim candidates (may contain stale entries),
    /// minus what the slots hold.
    queue: Padded<Mutex<VecDeque<u64>>>,
    /// Item count of the shard's table, minus the slots' unfolded deltas.
    /// Every capacity check reads it; under churn (an eviction per
    /// insert) the deltas hover near zero and rarely fold, so its line
    /// stays shared-clean, away from the queue lock's.
    items: Padded<AtomicI64>,
    /// How often `queue` was locked (the batching test reads it).
    #[cfg(test)]
    queue_locks: AtomicU64,
}

/// Keeps a value on cache lines of its own.
#[repr(align(128))]
struct Padded<T>(T);

/// One thread's share of the bookkeeping, on lines of its own.
#[repr(align(128))]
struct Slot {
    /// Buffered keys; locked by the owner for every change, and by
    /// another thread only to steal (`try_lock`) or to count.
    keys: Mutex<SlotKeys>,
    /// Item-count change not yet in [`EvictQueue::items`]. Written only
    /// under `keys`' lock; read lock-free by [`EvictQueue::len`].
    delta: AtomicI64,
    /// Evictions this slot's thread made. Written only under `keys`'
    /// lock.
    evictions: AtomicU64,
}

#[derive(Default)]
struct SlotKeys {
    /// The thread's latest inserts, oldest first (`< BATCH` between
    /// changes).
    inserted: Vec<u64>,
    /// Victims taken off the front of the shared queue, oldest first.
    victims: VecDeque<u64>,
}

impl EvictQueue {
    /// An empty queue with a zero item count.
    pub fn new() -> Self {
        Self::rebuild([])
    }

    /// Rebuilds the queue from a recovered key set (recovery path).
    pub fn rebuild(keys: impl IntoIterator<Item = u64>) -> Self {
        let queue: VecDeque<u64> = keys.into_iter().collect();
        let slot = || Slot {
            keys: Mutex::new(SlotKeys::default()),
            delta: AtomicI64::new(0),
            evictions: AtomicU64::new(0),
        };
        Self {
            slots: (0..MAX_THREADS).map(|_| slot()).collect(),
            items: Padded(AtomicI64::new(queue.len() as i64)),
            queue: Padded(Mutex::new(queue)),
            #[cfg(test)]
            queue_locks: AtomicU64::new(0),
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<u64>> {
        #[cfg(test)]
        self.queue_locks.fetch_add(1, Ordering::Relaxed);
        self.queue.0.lock()
    }

    /// Locks thread `tid`'s slot, to record that thread's changes.
    /// `tid` is the thread's domain id ([`nvalloc::ThreadCtx::tid`]).
    pub fn slot(&self, tid: usize) -> SlotGuard<'_> {
        let slot = &self.slots[tid];
        SlotGuard { evict: self, tid, slot, keys: slot.keys.lock() }
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

    /// Entries in the queue, stale ones included: the live keys plus one
    /// per delete whose entry has not been popped yet. Counts the keys
    /// buffered in slots too.
    pub fn queue_len(&self) -> usize {
        let shared = self.lock_queue().len();
        let buffered: usize = self
            .slots
            .iter()
            .map(|s| {
                let k = s.keys.lock();
                k.inserted.len() + k.victims.len()
            })
            .sum();
        shared + buffered
    }

    /// Evictions made so far, summed over every thread.
    pub fn evictions(&self) -> u64 {
        self.slots.iter().map(|s| s.evictions.load(Ordering::Relaxed)).sum()
    }

    /// Whether the accounted item count is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands thread `tid`'s buffered keys back to the shared queue (its
    /// victims to the front, where they came from; its inserts to the
    /// back) and folds its delta into the shared count. Call when the
    /// thread stops using its context.
    pub fn flush(&self, tid: usize) {
        let mut slot = self.slot(tid);
        let keys = &mut *slot.keys;
        if !keys.inserted.is_empty() || !keys.victims.is_empty() {
            let mut queue = self.lock_queue();
            while let Some(k) = keys.victims.pop_back() {
                queue.push_front(k);
            }
            queue.extend(keys.inserted.drain(..));
        }
        let d = slot.slot.delta.swap(0, Ordering::Relaxed);
        if d != 0 {
            self.items.0.fetch_add(d, Ordering::Relaxed);
        }
    }
}

/// One thread's locked slot ([`EvictQueue::slot`]). A new key takes the
/// lock once for its insert and the evictions it causes.
pub struct SlotGuard<'a> {
    evict: &'a EvictQueue,
    tid: usize,
    slot: &'a Slot,
    keys: MutexGuard<'a, SlotKeys>,
}

impl SlotGuard<'_> {
    /// Adds `by` to the delta, folding it into the shared count once it
    /// reaches `±BATCH`.
    fn add_delta(&mut self, by: i64) {
        let d = self.slot.delta.load(Ordering::Relaxed) + by;
        if d.unsigned_abs() >= BATCH as u64 {
            self.slot.delta.store(0, Ordering::Relaxed);
            self.evict.items.0.fetch_add(d, Ordering::Relaxed);
        } else {
            self.slot.delta.store(d, Ordering::Relaxed);
        }
    }

    /// Records a successful insert of `key`.
    pub fn note_insert(&mut self, key: u64) {
        self.keys.inserted.push(key);
        if self.keys.inserted.len() >= BATCH {
            self.evict.lock_queue().extend(self.keys.inserted.drain(..));
        }
        self.add_delta(1);
    }

    /// Records a successful removal (a delete).
    ///
    /// The delta is signed, so a concurrent set/delete pair that orders
    /// the table change before the set's increment leaves the count one
    /// low until that increment lands, never wrapped;
    /// [`EvictQueue::len`] floors the transient negative at zero.
    pub fn note_remove(&mut self) {
        self.add_delta(-1);
    }

    /// Evicts until the count this thread sees
    /// ([`EvictQueue::approx_len`]) is at or below `capacity` or no
    /// queued key is left to try. `remove(victim)` must return whether
    /// the victim was actually removed from the table; stale entries are
    /// discarded and the loop continues, so the count converges even when
    /// the queue is full of leftovers from deletes.
    pub fn enforce(&mut self, capacity: usize, mut remove: impl FnMut(u64) -> bool) {
        while self.evict.approx_len(self.tid) > capacity as i64 {
            let Some(victim) = self.keys.victims.pop_front() else {
                if self.refill() {
                    continue;
                }
                return;
            };
            if remove(victim) {
                let evictions = &self.slot.evictions;
                evictions.store(evictions.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                self.add_delta(-1);
            }
        }
    }

    /// Takes up to [`BATCH`] victims off the front of the shared queue.
    /// If it is dry, pushes this thread's own inserts first; if it is
    /// still dry, steals the buffered keys of every slot not in use right
    /// now (`try_lock`, so two stealers never wait on each other). Returns
    /// whether any victim was found.
    fn refill(&mut self) -> bool {
        let keys = &mut *self.keys;
        {
            let mut queue = self.evict.lock_queue();
            if queue.is_empty() {
                queue.extend(keys.inserted.drain(..));
            }
            let n = queue.len().min(BATCH);
            keys.victims.extend(queue.drain(..n));
        }
        if keys.victims.is_empty() {
            for (other, slot) in self.evict.slots.iter().enumerate() {
                if other == self.tid {
                    continue;
                }
                if let Some(mut theirs) = slot.keys.try_lock() {
                    keys.victims.extend(theirs.victims.drain(..));
                    keys.victims.extend(theirs.inserted.drain(..));
                }
            }
        }
        !keys.victims.is_empty()
    }
}

impl Default for EvictQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn accounting_round_trip() {
        let q = EvictQueue::new();
        assert!(q.is_empty());
        q.slot(0).note_insert(1);
        q.slot(0).note_insert(2);
        assert_eq!(q.len(), 2);
        q.slot(0).note_remove();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rebuild_counts_recovered_keys() {
        let q = EvictQueue::rebuild([7, 8, 9]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.queue_len(), 3);
    }

    #[test]
    fn enforce_skips_stale_entries_until_converged() {
        // 10 enqueued keys, but only the even ones are still in the
        // "table"; enforce must chew through the stale odd entries and
        // still bring the count down to capacity.
        let q = EvictQueue::new();
        for k in 1..=10u64 {
            q.slot(0).note_insert(k);
        }
        // Account for the 5 odd keys having been deleted already.
        let mut table: HashSet<u64> = (1..=10).filter(|k| k % 2 == 0).collect();
        for _ in 0..5 {
            q.slot(0).note_remove();
        }
        assert_eq!(q.len(), 5);
        q.slot(0).enforce(2, |victim| table.remove(&victim));
        assert_eq!(q.len(), 2);
        assert_eq!(table.len(), 2);
        assert_eq!(q.evictions(), 3);
    }

    #[test]
    fn remove_on_zero_count_saturates_instead_of_wrapping() {
        let q = EvictQueue::new();
        q.slot(0).note_remove();
        assert_eq!(q.len(), 0, "a decrement below zero reads as zero, not as a wrapped count");
        // A wrapped counter would make enforce drain everything; a
        // negative one leaves the (empty) queue alone.
        q.slot(0).enforce(0, |_| true);
        assert_eq!(q.len(), 0);
        // The decrement raced ahead of its insert's increment: once that
        // lands the count is exact again.
        q.slot(1).note_insert(5);
        assert_eq!(q.len(), 0, "the early decrement and its insert cancel");
        q.slot(1).note_insert(6);
        assert_eq!(q.len(), 1, "the count tracks on from there");
    }

    #[test]
    fn enforce_stops_on_empty_queue() {
        let q = EvictQueue::new();
        q.slot(0).note_insert(1);
        // Drain the queue without fixing the count: enforce must give up
        // rather than spin.
        q.slot(0).enforce(0, |_| false);
        assert_eq!(q.len(), 1, "count untouched when every entry is stale");
        q.slot(0).enforce(0, |_| true);
        assert_eq!(q.len(), 1, "queue already empty: nothing to evict");
    }

    #[test]
    fn shared_queue_is_locked_once_per_batch() {
        let (capacity, inserts) = (100, 1000u64);
        let q = EvictQueue::new();
        let mut table = HashSet::new();
        for k in 1..=inserts {
            table.insert(k);
            let mut slot = q.slot(3);
            slot.note_insert(k);
            slot.enforce(capacity, |victim| table.remove(&victim));
        }
        let evictions = q.evictions();
        assert_eq!(evictions, inserts - capacity as u64);
        let locks = q.queue_locks.load(Ordering::Relaxed);
        let bound = inserts.div_ceil(BATCH as u64) + evictions.div_ceil(BATCH as u64);
        assert!(locks <= bound, "{locks} queue locks for {inserts} inserts (bound {bound})");
        // One thread alone evicts in exact insertion order.
        let expect: HashSet<u64> = (inserts - capacity as u64 + 1..=inserts).collect();
        assert_eq!(table, expect);
        assert_eq!((q.len(), q.queue_len()), (capacity, capacity));
    }

    #[test]
    fn idle_slots_are_stolen_when_the_shared_queue_is_dry() {
        // 32 recovered keys. Thread 1 takes all of them as victims,
        // evicts one, inserts two more and goes idle without a flush.
        let q = EvictQueue::rebuild(1..=32u64);
        q.slot(1).enforce(31, |_| true);
        q.slot(1).note_insert(33);
        q.slot(1).note_insert(34);
        // Thread 2 sees 32 > 30 with the shared queue dry and nothing of
        // its own: it steals thread 1's keys, oldest first.
        let mut evicted = Vec::new();
        q.slot(2).enforce(30, |victim| {
            evicted.push(victim);
            true
        });
        assert_eq!(evicted, [2, 3]);
        assert_eq!((q.len(), q.queue_len()), (31, 31));
        assert_eq!(q.evictions(), 3);
    }

    #[test]
    fn flush_hands_back_keys_and_delta() {
        let q = EvictQueue::new();
        for k in 1..=10 {
            q.slot(4).note_insert(k);
        }
        assert_eq!(q.approx_len(5), 0, "another thread sees none of an unflushed slot");
        q.flush(4);
        assert_eq!(q.approx_len(5), 10);
        assert_eq!((q.len(), q.queue_len()), (10, 10));
        // The handed-back keys are evicted oldest first by anyone.
        let mut evicted = Vec::new();
        q.slot(5).enforce(7, |victim| {
            evicted.push(victim);
            true
        });
        assert_eq!(evicted, [1, 2, 3]);
    }
}
