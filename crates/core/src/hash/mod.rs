//! Durable lock-free hash table: one Harris linked list per bucket (§3),
//! exactly as in the paper's evaluation — extended with **non-blocking
//! incremental resize** (the paper sizes its table per experiment; a
//! long-running cache cannot).
//!
//! The module is split in two:
//!
//! * [`table`] — steady-state operations and the resize-aware routing
//!   loop (which array does a key live in right now?),
//! * [`resize`] — the grow/migrate/commit state machine and its
//!   recovery roll-forward.
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
//! ```
//!
//! Each bucket-array region is self-describing:
//! `[n_buckets: u64][bucket link words ...]`.
//!
//! Header words are updated with the link-and-persist discipline (store
//! `value | DIRTY`, write back, fence, clear), each update preceded by a
//! [`pmem::CrashEvent::ResizeState`] crash event so the crashtest
//! subsystem can enumerate a crash at every resize-state transition. The
//! cursor is an index, so it is stored shifted left by 3 to keep the low
//! mark bits free.
//!
//! # Resize state machine
//!
//! ```text
//!   steady (CUR=A, NEW=0)
//!      │  grow(): alloc array B, CURSOR←0, publish NEW←B
//!      ▼
//!   migrating (CUR=A, NEW=B)       every insert/remove migrates the
//!      │                           bucket it touches + helps the sweep
//!      │  all A-buckets drained and sentineled
//!      ▼
//!   committed (CUR=B, NEW=B)
//!      │  NEW←0; retire region A under epochs
//!      ▼
//!   steady (CUR=B, NEW=0)
//! ```
//!
//! Per-bucket migration is copy-then-delete: the migrator **claims** the
//! front node by tagging its `next` word ([`crate::marked::TAG`]),
//! inserts a copy into the destination bucket (insert-if-absent; a claimed
//! node can be neither removed nor replaced, so the duplicate holds the
//! same value for as long as it exists), then durably deletes and unlinks
//! the original. A drained bucket's
//! head word is CASed from 0 to the `TAG` sentinel, which makes every
//! later list operation on it report "migrated" so the caller re-routes.
//! Because every per-node step is a durable `link_cas`, a crash anywhere
//! leaves each key either in its old chain, in both (same value), or in
//! the new chain — never lost — and recovery simply re-runs the sweep.

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
