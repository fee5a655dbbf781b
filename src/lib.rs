//! # nvram-logfree
//!
//! A complete reproduction of **“Log-Free Concurrent Data Structures”**
//! (Tudor David, Aleksandar Dragojević, Rachid Guerraoui, Igor Zablotchi —
//! USENIX ATC 2018) as a Rust workspace:
//!
//! * [`pmem`] — simulated byte-addressable NVRAM: `clwb`/`sfence`
//!   semantics, latency injection (the paper's own methodology), and an
//!   adversarial crash simulator.
//! * [`nvalloc`] — **NV-epochs** (§5): slab heap, epoch-based
//!   reclamation, and the durable active page table.
//! * [`linkcache`] — the **link cache** (§4).
//! * [`logfree`] — the four **log-free durable structures** built with
//!   **link-and-persist** (§3): Harris linked list, hash table,
//!   Herlihy–Shavit skip list, Natarajan–Mittal BST.
//! * [`logbased`] — the redo-logged lock-based baselines of §6.2.
//! * [`nvmemcached`] — **NV-Memcached** (§6.5) and its volatile
//!   comparison points, plus a memtier-style workload driver.
//! * [`workload`] — the traffic engine under every harness: key
//!   distributions (uniform/zipfian/hotspot/latest), op mixes,
//!   value-size models, deterministic per-thread streams, and a
//!   statistical self-check.
//! * `crashtest` (dev) — systematic crash-point injection: enumerates
//!   every persist-relevant event, crashes there, recovers, and
//!   validates against an operation oracle (DESIGN.md, "Crash-point
//!   coverage").
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory,
//! the experiment index, and the documented deviations from the paper.
//! Each harness under `crates/bench/src/bin/` prints paper-reported
//! ratios next to the measured ones.
//!
//! ## Quickstart
//!
//! ```
//! use nvram_logfree::prelude::*;
//! use std::sync::Arc;
//!
//! // A pool of simulated NVRAM with crash simulation enabled.
//! let pool = PoolBuilder::new(32 << 20).mode(Mode::CrashSim).build();
//! let domain = NvDomain::create(Arc::clone(&pool));
//! let table = HashTable::create(&domain, 1, 1024, LinkOps::new(Arc::clone(&pool), None))
//!     .expect("pool large enough");
//!
//! let mut ctx = domain.register();
//! table.insert(&mut ctx, 7, 700).unwrap();
//! drop(ctx);
//!
//! // Power failure...
//! // SAFETY: no other thread is using the pool.
//! unsafe { pool.simulate_crash().unwrap() };
//!
//! // ...reboot: re-attach, then one `restart` repairs the table and
//! // reclaims leaks; keep serving.
//! let domain = NvDomain::attach(Arc::clone(&pool));
//! let (table, _report) =
//!     HashTable::restart(&domain, 1, LinkOps::new(Arc::clone(&pool), None)).unwrap();
//!
//! let mut ctx = domain.register();
//! assert_eq!(table.get(&mut ctx, 7), Some(700));
//! ```

pub use linkcache;
pub use logbased;
pub use logfree;
pub use nvalloc;
pub use nvmemcached;
pub use pmem;
pub use workload;

/// Convenient re-exports of the items nearly every user needs.
pub mod prelude {
    pub use linkcache::LinkCache;
    pub use logfree::{Bst, HashTable, LinkOps, LinkedList, SkipList};
    pub use nvalloc::{MemMode, NvDomain, ThreadCtx};
    pub use nvmemcached::{NvMemcached, ShardedNvMemcached};
    pub use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
}
