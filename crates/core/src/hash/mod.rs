//! Durable lock-free hash table: one Harris linked list per bucket (§3),
//! exactly as in the paper's evaluation — extended with **non-blocking
//! incremental resize** (the paper sizes its table per experiment; a
//! long-running cache cannot).
//!
//! The module is split in two:
//!
//! * [`table`] — steady-state operations and the resize-aware routing
//!   loop (which array does a key live in right now?),
//! * [`resize`] — the grow/drain/commit state machine and its recovery
//!   roll-forward.
//!
//! # Durable layout
//!
//! The root slot points at a small **header region** of three words:
//!
//! ```text
//! +0   CUR     data address of the current bucket-array region
//! +8   NEW     0 = steady state; == CUR = committed, cleanup pending;
//!              otherwise the in-flight destination array
//! +16  CURSOR  next old-bucket index of the in-order sweep, << 3
//!              (advisory, volatile)
//! ```
//!
//! Each bucket-array region is self-describing:
//! `[n_buckets: u64][bucket link words ...]`.
//!
//! `CUR` and `NEW` are updated with the link-and-persist discipline
//! (store `value | DIRTY`, write back, fence, clear), each update
//! preceded by a [`pmem::CrashEvent::ResizeState`] crash event so the
//! crashtest subsystem can enumerate a crash at every resize-state
//! transition. The cursor only spreads the helping sweep across writers:
//! commit and recovery check every bucket's sentinel instead of trusting
//! it, so it is CASed and reset with plain stores, and whatever value a
//! crash image holds there is harmless. It is an index, stored shifted
//! left by 3 to keep the low mark bits free.
//!
//! # Resize state machine
//!
//! ```text
//!   steady (CUR=A, NEW=0)
//!      │  grow(): alloc array B, CURSOR←0, publish NEW←B
//!      ▼
//!   migrating (CUR=A, NEW=B)       every insert/remove drains the
//!      │                           bucket it touches + helps the sweep
//!      │  all A-buckets drained and sentineled
//!      ▼
//!   committed (CUR=B, NEW=B)
//!      │  NEW←0; retire region A under epochs
//!      ▼
//!   steady (CUR=B, NEW=0)
//! ```
//!
//! A bucket is drained whole, under three fences however long its chain
//! is. The drainer **claims** every live node by tagging its `next` word
//! ([`crate::marked::TAG`]) — a claimed node can be neither removed nor
//! replaced — and builds private copies of the chain, one key-ordered
//! chain per destination bucket, written back under one fence. It then
//! swings every destination head to its chain (one fence), and finally
//! swings the old head to the `TAG` sentinel (one fence), which makes
//! every later list operation on it report "migrated" so the caller
//! re-routes. Each bucket is therefore durably in one of three states:
//! old chain only; old chain plus a complete copy in the destination
//! (the same keys with the same values); destination only. Recovery
//! simply re-runs the drain, which replaces whatever copies a crash left
//! in the destination.

pub mod resize;
pub mod table;

pub use table::{GeometryError, HashTable};

/// Byte offset of the CUR header word (see the module docs). Public so
/// crash-recovery fixtures can forge torn header states.
pub const H_CUR: usize = 0;
/// Byte offset of the NEW header word.
pub const H_NEW: usize = 8;
/// Byte offset of the CURSOR header word.
pub const H_CURSOR: usize = 16;
/// Header region payload size.
pub(crate) const HDR_BYTES: usize = 24;

/// Bucket index of `key` in an array of `n` buckets (power of two):
/// Fibonacci hashing on the high 32 bits.
#[inline]
pub(crate) fn bucket_index(key: u64, n: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize & (n - 1)
}

/// Address of bucket `b`'s link word in the array region at `arr`.
#[inline]
pub(crate) fn bucket_link_at(arr: usize, b: usize) -> usize {
    arr + 8 + b * 8
}
