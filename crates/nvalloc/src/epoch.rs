//! Epoch-based memory reclamation (§5.2 of the paper).
//!
//! Each registered thread owns an epoch counter. The counter is incremented
//! when the thread starts a data-structure operation and again when it
//! finishes, so an **odd** value means "currently inside an operation".
//! Unlinked nodes are grouped into *generations*; a generation can be freed
//! once every thread that was active (odd epoch) when the generation was
//! sealed has since advanced — at that point no live operation can still
//! hold a reference to any node in the generation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Maximum number of threads that may register with a domain.
///
/// A fixed bound keeps epoch vectors flat arrays (one cache line per
/// thread); the paper's evaluation never exceeds 8 threads.
pub const MAX_THREADS: usize = 64;

/// One cache-line-padded epoch counter, to avoid false sharing between
/// threads hammering their own epochs.
#[repr(align(128))]
struct PaddedEpoch(AtomicU64);

/// The global epoch table of a domain.
pub struct EpochManager {
    epochs: Box<[PaddedEpoch]>,
    registered: AtomicUsize,
}

impl Default for EpochManager {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochManager {
    /// Creates a manager with all epochs at zero (idle).
    pub fn new() -> Self {
        let mut v = Vec::with_capacity(MAX_THREADS);
        v.resize_with(MAX_THREADS, || PaddedEpoch(AtomicU64::new(0)));
        Self { epochs: v.into_boxed_slice(), registered: AtomicUsize::new(0) }
    }

    /// Reserves a thread slot, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] threads register.
    pub fn register(&self) -> usize {
        let tid = self.registered.fetch_add(1, Ordering::AcqRel);
        assert!(tid < MAX_THREADS, "too many threads registered (max {MAX_THREADS})");
        tid
    }

    /// Number of registered threads.
    pub fn registered(&self) -> usize {
        self.registered.load(Ordering::Acquire).min(MAX_THREADS)
    }

    /// Current epoch of thread `tid`.
    #[inline]
    pub fn epoch_of(&self, tid: usize) -> u64 {
        self.epochs[tid].0.load(Ordering::Acquire)
    }

    /// Marks the start of an operation by `tid` (epoch becomes odd).
    ///
    /// `SeqCst`: EBR needs this store ordered before the operation's
    /// first load of a shared pointer (store→load, which only a full
    /// barrier gives). Otherwise a reclaimer could snapshot the old even
    /// epoch, see this thread idle, and free a node the operation is
    /// about to read.
    #[inline]
    pub fn begin_op(&self, tid: usize) -> u64 {
        let e = self.epochs[tid].0.load(Ordering::Relaxed) + 1;
        debug_assert!(e % 2 == 1, "begin_op while already active");
        self.epochs[tid].0.store(e, Ordering::SeqCst);
        e
    }

    /// Marks the end of an operation by `tid` (epoch becomes even).
    ///
    /// `Release` is enough: a reclaimer reads the even value with
    /// `Acquire` ([`Self::epoch_of`]), so every access the operation made
    /// happens before that read, and thus before any free it allows. No
    /// later load needs ordering against this store, so the full barrier
    /// (an `xchg` on x86) that `SeqCst` would cost buys nothing.
    #[inline]
    pub fn end_op(&self, tid: usize) -> u64 {
        let e = self.epochs[tid].0.load(Ordering::Relaxed) + 1;
        debug_assert!(e % 2 == 0, "end_op while not active");
        self.epochs[tid].0.store(e, Ordering::Release);
        e
    }

    /// Snapshots the epochs of all registered threads.
    pub fn snapshot(&self) -> EpochVector {
        let n = self.registered();
        EpochVector((0..n).map(|t| self.epoch_of(t)).collect())
    }

    /// Whether every thread that was mid-operation in `snap` has since
    /// advanced, i.e. whether nodes unlinked before `snap` are safe to
    /// free.
    pub fn has_advanced(&self, snap: &EpochVector) -> bool {
        snap.0.iter().enumerate().all(|(t, &e)| e % 2 == 0 || self.epoch_of(t) > e)
    }

    /// Resets all epochs to zero. Only valid when no thread is active —
    /// used when re-attaching after a simulated crash.
    pub fn reset(&self) {
        for e in self.epochs.iter() {
            e.0.store(0, Ordering::SeqCst);
        }
        self.registered.store(0, Ordering::SeqCst);
    }
}

/// A snapshot of per-thread epochs taken when a generation was sealed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochVector(pub Vec<u64>);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_alternate_parity() {
        let m = EpochManager::new();
        let t = m.register();
        assert_eq!(m.epoch_of(t), 0);
        assert_eq!(m.begin_op(t), 1);
        assert_eq!(m.end_op(t), 2);
        assert_eq!(m.begin_op(t), 3);
    }

    #[test]
    fn idle_threads_do_not_block_reclamation() {
        let m = EpochManager::new();
        let a = m.register();
        let b = m.register();
        m.begin_op(a);
        m.end_op(a); // a idle at epoch 2
        m.begin_op(b);
        let snap = m.snapshot(); // a=2 (even), b=1 (odd)
        assert!(!m.has_advanced(&snap), "b still active");
        m.end_op(b);
        assert!(m.has_advanced(&snap), "b advanced past snapshot");
    }

    #[test]
    fn active_thread_blocks_until_it_moves() {
        let m = EpochManager::new();
        let a = m.register();
        m.begin_op(a);
        let snap = m.snapshot();
        assert!(!m.has_advanced(&snap));
        m.end_op(a);
        assert!(m.has_advanced(&snap));
    }

    #[test]
    fn empty_snapshot_always_advanced() {
        let m = EpochManager::new();
        let snap = m.snapshot();
        assert!(m.has_advanced(&snap));
    }

    #[test]
    fn reset_clears_registration() {
        let m = EpochManager::new();
        m.register();
        m.begin_op(0);
        m.reset();
        assert_eq!(m.registered(), 0);
        assert_eq!(m.epoch_of(0), 0);
    }
}
