//! **NV-epochs**: durable memory management for log-free concurrent data
//! structures (§5 of David et al., *Log-Free Concurrent Data Structures*,
//! USENIX ATC 2018).
//!
//! The traditional way to avoid persistent memory leaks is to log every
//! allocate/link and unlink/free intention — one awaited NVRAM write per
//! update. NV-epochs replaces that with coarse-grained bookkeeping:
//!
//! * a slab [`heap`] whose per-page allocation bitmaps are written back
//!   *lazily* (the data structure's own fence covers them),
//! * classic [`epoch`]-based reclamation to decide when unlinked nodes can
//!   be freed, and
//! * a durable per-thread [`apt`] (active page table) recording which
//!   *pages* may contain in-flight allocations or unlinks. Only an APT
//!   **miss** waits for a durable write; hits — the overwhelming majority,
//!   thanks to locality (Figure 9a) — do no durable bookkeeping at all.
//!
//! After a crash, recovery ([`NvDomain::recover_leaks`]) scans just the
//! active pages and frees every allocated-but-unreachable node, using a
//! reachability oracle supplied by the data structure (§5.5).

pub mod apt;
pub mod domain;
pub mod epoch;
pub mod heap;

pub use apt::{ActivePageTable, Activity, AptStats, APT_CAP, APT_TRIM_THRESHOLD};
pub use domain::{HeapFault, MemMode, NvDomain, RecoveryReport, ThreadCtx, GENERATION_SIZE};
pub use epoch::{EpochManager, EpochVector, MAX_THREADS};
pub use heap::{
    class_of, page_of, slots_in_class, NvHeap, OutOfMemory, PageHeader, SlotSet, BITMAP_WORDS,
    CLASSES, N_CLASSES, PAGE_SIZE,
};
