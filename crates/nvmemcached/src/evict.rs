//! Soft-capacity accounting plus the coarse FIFO eviction queue.
//!
//! One `EvictQueue` belongs to one shard (a standalone [`crate::NvMemcached`]
//! is exactly one shard), so the queue mutex is never shared across shards
//! of a [`crate::sharded::ShardedNvMemcached`].
//!
//! The order is **FIFO by first insertion**: a key is enqueued when it goes
//! from absent to present, and an overwrite (`set` or `replace` of a present
//! key) neither moves nor re-enqueues it, so a queue below capacity holds
//! one entry per live key however often the keys are rewritten. Like
//! memcached's LRU the queue is advisory, not exact: stale entries come only
//! from deletes (the entry of a deleted key stays until it is popped, and a
//! key deleted and stored again has two), and a stale pop simply discards
//! the entry. What *is* guaranteed is the accounting: the item counter moves
//! only when the hash table actually changed, and [`EvictQueue::enforce`]
//! keeps evicting until the counter is back at (or below) capacity or the
//! queue runs dry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// FIFO eviction queue + item accounting for one shard.
pub struct EvictQueue {
    /// Insertion-ordered victim candidates (may contain stale entries).
    queue: Mutex<VecDeque<u64>>,
    /// Live item count of the shard's table (moves only on real changes).
    items: AtomicU64,
}

impl EvictQueue {
    /// An empty queue with a zero item count.
    pub fn new() -> Self {
        Self { queue: Mutex::new(VecDeque::new()), items: AtomicU64::new(0) }
    }

    /// Rebuilds the queue from a recovered key set (recovery path).
    pub fn rebuild(keys: impl IntoIterator<Item = u64>) -> Self {
        let queue: VecDeque<u64> = keys.into_iter().collect();
        let items = AtomicU64::new(queue.len() as u64);
        Self { queue: Mutex::new(queue), items }
    }

    /// Current (approximate under concurrency) item count.
    pub fn len(&self) -> usize {
        self.items.load(Ordering::Relaxed) as usize
    }

    /// Entries in the queue, stale ones included: the live keys plus one
    /// per delete whose entry has not been popped yet.
    pub fn queue_len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether the accounted item count is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a successful insert of `key`.
    pub fn note_insert(&self, key: u64) {
        self.items.fetch_add(1, Ordering::Relaxed);
        self.queue.lock().push_back(key);
    }

    /// Records a successful removal (a delete).
    ///
    /// The decrement saturates at zero: a concurrent set/delete pair can
    /// order the table change before the set's counter increment, and a
    /// plain `fetch_sub` would wrap the count to `u64::MAX` — at which
    /// point [`Self::enforce`] would drain the whole cache and the count
    /// would stay poisoned forever. Flooring trades that for a transient
    /// off-by-a-few in an explicitly approximate counter.
    pub fn note_remove(&self) {
        let mut cur = self.items.load(Ordering::Relaxed);
        while cur > 0 {
            match self.items.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Evicts until the item count is at or below `capacity` or the queue
    /// is exhausted. `remove(victim)` must return whether the victim was
    /// actually removed from the table; stale entries are discarded and
    /// the loop continues, so the count converges even when the queue is
    /// full of leftovers from deletes.
    pub fn enforce(&self, capacity: usize, mut remove: impl FnMut(u64) -> bool) {
        while self.items.load(Ordering::Relaxed) as usize > capacity {
            let Some(victim) = self.queue.lock().pop_front() else { return };
            if remove(victim) {
                self.items.fetch_sub(1, Ordering::Relaxed);
            }
        }
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
        q.note_insert(1);
        q.note_insert(2);
        assert_eq!(q.len(), 2);
        q.note_remove();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rebuild_counts_recovered_keys() {
        let q = EvictQueue::rebuild([7, 8, 9]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn enforce_skips_stale_entries_until_converged() {
        // 10 enqueued keys, but only the even ones are still in the
        // "table"; enforce must chew through the stale odd entries and
        // still bring the count down to capacity.
        let q = EvictQueue::new();
        for k in 1..=10u64 {
            q.note_insert(k);
        }
        // Account for the 5 odd keys having been deleted already.
        let mut table: HashSet<u64> = (1..=10).filter(|k| k % 2 == 0).collect();
        for _ in 0..5 {
            q.note_remove();
        }
        assert_eq!(q.len(), 5);
        q.enforce(2, |victim| table.remove(&victim));
        assert_eq!(q.len(), 2);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn remove_on_zero_count_saturates_instead_of_wrapping() {
        let q = EvictQueue::new();
        q.note_remove();
        assert_eq!(q.len(), 0, "decrement below zero must floor, not wrap");
        // A wrapped counter would make enforce drain everything; a
        // floored one leaves the (empty) queue alone.
        q.enforce(0, |_| true);
        assert_eq!(q.len(), 0);
        q.note_insert(5);
        assert_eq!(q.len(), 1, "counter still tracks after the floored decrement");
    }

    #[test]
    fn enforce_stops_on_empty_queue() {
        let q = EvictQueue::new();
        q.note_insert(1);
        // Drain the queue without fixing the count: enforce must give up
        // rather than spin.
        q.enforce(0, |_| false);
        assert_eq!(q.len(), 1, "count untouched when every entry is stale");
        q.enforce(0, |_| true);
        assert_eq!(q.len(), 1, "queue already empty: nothing to evict");
    }
}
