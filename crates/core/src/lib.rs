//! **Log-free durable concurrent data structures** — the primary
//! contribution of David, Dragojević, Guerraoui and Zablotchi, *Log-Free
//! Concurrent Data Structures* (USENIX ATC 2018).
//!
//! Four lock-free structures modelling a set of `(u64, u64)` pairs, made
//! durable with **no logging in the data-structure operations**:
//!
//! * [`LinkedList`] — Harris's lock-free list (DISC 2001),
//! * [`HashTable`] — one Harris list per bucket,
//! * [`SkipList`] — the Herlihy–Shavit lock-free skip list,
//! * [`Bst`] — the Natarajan–Mittal external BST (PPoPP 2014),
//!
//! each combined with:
//!
//! * **link-and-persist** ([`ops::LinkOps`], §3): state-changing links are
//!   CASed with a transient [`marked::DIRTY`] bit, written back, fenced,
//!   then unmarked — with helping, so nothing blocks;
//! * optionally the **link cache** (§4) for batched write-backs;
//! * **NV-epochs** (the `nvalloc` crate, §5) for log-free memory
//!   management.
//!
//! All structures guarantee **durable linearizability** (Izraelevitz et
//! al.): after a crash, recovery restores a state reflecting every
//! operation that completed before the crash. Each structure has one
//! entry point for it, `restart` (§5.5): repair the structure, then free
//! every allocated node it no longer reaches. A domain holds one
//! structure, so that leak scan may free whatever its structure does not
//! reach. Construct them over a pool
//! in [`pmem::Mode::Volatile`] to get the NVRAM-oblivious baseline of the
//! paper's Figure 7 (all durability work compiles down to no-ops).

pub mod bst;
pub mod hash;
pub mod list;
pub mod marked;
pub mod ops;
pub mod skiplist;
pub mod walk;

pub use bst::Bst;
pub use hash::{GeometryError, HashTable};
pub use list::{LinkedList, MAX_KEY, MIN_KEY};
pub use ops::{CasOutcome, LinkOps};
pub use skiplist::SkipList;
pub use walk::{audit, Reached};

/// What a structure's `restart` found and did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RestartReport {
    /// The allocator's leak scan (§5.5).
    pub heap: nvalloc::RecoveryReport,
    /// `DIRTY` marks the repair cleared.
    pub dirty_cleared: u64,
    /// Deletions the repair completed: unlinks in a chain, splices in
    /// the tree.
    pub unlinked: u64,
    /// Keys the structure holds.
    pub live: usize,
}
