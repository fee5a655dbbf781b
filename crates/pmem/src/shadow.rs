//! The durable shadow image used in crash-simulation mode.
//!
//! The shadow holds the bytes that would have survived a power failure:
//! a cache line's content reaches the shadow only when a `clwb` for it is
//! drained by a fence. On a simulated crash, the shadow is copied back over
//! the working memory, discarding every store that was never durably
//! written back — the adversarial interpretation of a crash (see crate
//! docs).

use std::alloc::{self, Layout};
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::CACHE_LINE;

const WORDS_PER_LINE: usize = CACHE_LINE / 8;

/// Durable image of a pool, maintained at cache-line granularity.
///
/// All operations are word-atomic: concurrent committers of the same line
/// race benignly (both copy current-or-newer word values), which models the
/// fact that on real hardware the write-back of a line may complete at any
/// time between the `clwb` and the fence.
pub struct Shadow {
    words: Box<[AtomicU64]>,
    /// Commit batches take this shared; snapshot/restore take it
    /// exclusive. This makes a captured image an *instantaneous* cut of
    /// the durable state: without it, an address-order capture could
    /// include a later commit while missing an earlier one — a state no
    /// real power failure can produce (fences order commits in time).
    gate: RwLock<()>,
}

impl Shadow {
    /// Creates a shadow for a pool of `len` bytes, initialised from the
    /// pool's current (zeroed) contents.
    ///
    /// The words come zeroed from the allocator's `calloc` path, so, like
    /// the pool, the shadow reserves its range and a page becomes resident
    /// when a commit first writes it (on glibc, for 32 MiB or more).
    ///
    /// `len` must be a multiple of [`CACHE_LINE`].
    pub fn new(len: usize) -> Self {
        assert_eq!(len % CACHE_LINE, 0, "pool length must be line-aligned");
        let n = len / 8;
        let words = if n == 0 {
            Box::default()
        } else {
            let layout = Layout::array::<AtomicU64>(n).expect("shadow layout");
            // SAFETY: `layout` has non-zero size.
            let p = unsafe { alloc::alloc_zeroed(layout) } as *mut AtomicU64;
            if p.is_null() {
                alloc::handle_alloc_error(layout);
            }
            // SAFETY: `p` is a live allocation of `n` zeroed `AtomicU64`s
            // (all-zero bytes are a valid `AtomicU64`) made with the
            // global allocator and the layout `Box<[AtomicU64]>` frees.
            unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(p, n)) }
        };
        Self { words, gate: RwLock::new(()) }
    }

    /// Takes the commit gate shared for the duration of a fence's batch.
    pub(crate) fn begin_commit_batch(&self) -> std::sync::RwLockReadGuard<'_, ()> {
        self.gate.read().expect("shadow gate poisoned")
    }

    /// Number of cache lines covered.
    pub fn lines(&self) -> usize {
        self.words.len() / WORDS_PER_LINE
    }

    /// Commits cache line `line` (index, not address) from the working
    /// memory starting at `base` into the shadow.
    ///
    /// # Safety
    ///
    /// `base` must point to a live allocation of at least
    /// `self.lines() * CACHE_LINE` bytes, and `line < self.lines()`.
    /// Concurrent ordinary stores to the same line are allowed; each
    /// 8-byte word is copied atomically.
    pub unsafe fn commit_line(&self, base: *const u8, line: usize) {
        debug_assert!(line < self.lines());
        let first_word = line * WORDS_PER_LINE;
        // SAFETY: caller guarantees `base` covers the line; word reads are
        // volatile so the compiler cannot elide or tear them, and the
        // underlying accesses are 8-byte aligned.
        unsafe {
            let src = (base as *const u64).add(first_word);
            for w in 0..WORDS_PER_LINE {
                let val = std::ptr::read_volatile(src.add(w));
                self.words[first_word + w].store(val, Ordering::Relaxed);
            }
        }
    }

    /// Restores the entire working memory at `base` from the shadow,
    /// simulating the post-crash state.
    ///
    /// Afterwards the working memory equals the shadow word for word, but
    /// only words that differ are stored: reading a page nobody wrote maps
    /// the kernel's shared zero page, so untouched pages stay non-resident.
    ///
    /// # Safety
    ///
    /// `base` must point to a live allocation of at least
    /// `self.lines() * CACHE_LINE` bytes and no other thread may access the
    /// pool concurrently (the machine is "rebooting").
    pub unsafe fn restore(&self, base: *mut u8) {
        // SAFETY: caller guarantees exclusive access and sufficient length.
        unsafe {
            let dst = base as *mut u64;
            for (i, w) in self.words.iter().enumerate() {
                let v = w.load(Ordering::Relaxed);
                if ptr::read_volatile(dst.add(i)) != v {
                    ptr::write_volatile(dst.add(i), v);
                }
            }
        }
    }

    /// Clones the current durable image. Used by concurrent torture tests
    /// to capture "the state NVRAM would have had if power failed now"
    /// while worker threads keep running.
    ///
    /// The image starts zeroed from the allocator and only nonzero words
    /// are stored, so it costs memory only where the shadow was written
    /// (on glibc, for images of 32 MiB or more).
    pub fn snapshot(&self) -> Vec<u64> {
        let _g = self.gate.write().expect("shadow gate poisoned");
        let mut img = vec![0u64; self.words.len()];
        for (d, w) in img.iter_mut().zip(self.words.iter()) {
            let v = w.load(Ordering::Relaxed);
            if v != 0 {
                *d = v;
            }
        }
        img
    }

    /// Overwrites the durable image with a previously captured snapshot,
    /// storing only the words that differ.
    pub fn load_snapshot(&self, snap: &[u64]) {
        assert_eq!(snap.len(), self.words.len(), "snapshot length mismatch");
        for (w, &v) in self.words.iter().zip(snap) {
            if w.load(Ordering::Relaxed) != v {
                w.store(v, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_restore_round_trip() {
        let mut buf = vec![0u8; 4 * CACHE_LINE];
        let shadow = Shadow::new(buf.len());
        // Write a pattern, commit only line 1.
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        // SAFETY: buf is live and long enough; single-threaded.
        unsafe { shadow.commit_line(buf.as_ptr(), 1) };
        // Scribble over everything, then restore.
        for b in buf.iter_mut() {
            *b = 0xFF;
        }
        // SAFETY: exclusive access to buf.
        unsafe { shadow.restore(buf.as_mut_ptr()) };
        // Line 1 survived; the others reverted to the initial zeros.
        for (i, &b) in buf.iter().enumerate() {
            let expected =
                if (CACHE_LINE..2 * CACHE_LINE).contains(&i) { (i % 251) as u8 } else { 0 };
            assert_eq!(b, expected, "byte {i}");
        }
    }

    #[test]
    fn snapshot_round_trip() {
        let mut buf = vec![0u8; 2 * CACHE_LINE];
        let shadow = Shadow::new(buf.len());
        buf[0] = 42;
        // SAFETY: buf is live; single-threaded.
        unsafe { shadow.commit_line(buf.as_ptr(), 0) };
        let snap = shadow.snapshot();
        buf[0] = 43;
        // SAFETY: as above.
        unsafe { shadow.commit_line(buf.as_ptr(), 0) };
        shadow.load_snapshot(&snap);
        // SAFETY: exclusive access.
        unsafe { shadow.restore(buf.as_mut_ptr()) };
        assert_eq!(buf[0], 42);
    }

    const WORDS: usize = 8 * WORDS_PER_LINE;

    /// Two images that disagree in every way the zero-skipping operations
    /// care about, by word index mod 4: nonzero only in `a`, nonzero only
    /// in `b`, nonzero in both but different, equal in both.
    fn images() -> (Vec<u64>, Vec<u64>) {
        let a =
            (0..WORDS as u64).map(|i| [i + 1, 0, (i << 8) | 1, i % 3][i as usize % 4]).collect();
        let b = (0..WORDS as u64).map(|i| [0, !i, (i << 16) | 2, i % 3][i as usize % 4]).collect();
        (a, b)
    }

    /// A shadow whose every line was committed from `image`.
    fn shadow_of(image: &[u64]) -> Shadow {
        let shadow = Shadow::new(image.len() * 8);
        for line in 0..shadow.lines() {
            // SAFETY: `image` is live and covers every line; single-threaded.
            unsafe { shadow.commit_line(image.as_ptr() as *const u8, line) };
        }
        shadow
    }

    fn words(shadow: &Shadow) -> Vec<u64> {
        shadow.words.iter().map(|w| w.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn restore_over_scribbled_memory_equals_the_image() {
        let (image, mut memory) = images();
        let shadow = shadow_of(&image);
        // SAFETY: `memory` covers every line; exclusive access.
        unsafe { shadow.restore(memory.as_mut_ptr() as *mut u8) };
        assert_eq!(memory, image);
    }

    #[test]
    fn load_snapshot_over_other_content_equals_the_snapshot() {
        let (snap, other) = images();
        let shadow = shadow_of(&other);
        shadow.load_snapshot(&snap);
        assert_eq!(words(&shadow), snap);
    }

    #[test]
    fn snapshot_equals_the_shadow_word_for_word() {
        let (image, _) = images();
        let shadow = shadow_of(&image);
        assert_eq!(shadow.snapshot(), words(&shadow));
        assert_eq!(shadow.snapshot(), image);
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn rejects_unaligned_length() {
        let _ = Shadow::new(100);
    }
}
