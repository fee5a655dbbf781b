//! Systematic crash-point injection for the log-free structures.
//!
//! The paper's central claim is durability: after a crash at *any*
//! instant, every log-free structure recovers to a consistent state with
//! no leaks (§3, §5.5). The `pmem` shadow-image simulator makes
//! missing-flush bugs deterministic, but a simulator only catches the
//! crash points someone thinks to test. This crate makes "crash anywhere"
//! an *enumerable* dimension instead of a sampled one:
//!
//! 1. **Run once** — an operation trace runs to completion under a
//!    [`pmem::CrashPlan`] that sees every persist-relevant event (`clwb`,
//!    fence, link-CAS publish; see [`pmem::CrashEvent`]). The run records
//!    the event count at every op boundary, and at every fence it keeps
//!    the words of the durable image that changed since the last one.
//! 2. **Recover each image once** — only a fence changes the durable
//!    image, so every crash point `k` between two fences sees the same
//!    one: exactly what a power failure before event `k` leaves. Each
//!    image is rebuilt on the pools, and the structure's `restart`
//!    (repair, then [`nvalloc::NvDomain::recover_leaks`]) runs once,
//!    then one audit
//!    ([`CrashTarget::audit`]) walks every domain once and checks:
//!    reachable ⇒ allocated; allocated ⇒ reachable; every chain
//!    key-ordered and acyclic, every key in its home bucket and shard,
//!    no `DIRTY` mark left; no resize or reshard in flight.
//! 3. **Validate every point** — for each `k` the image covers, every
//!    recovered key is checked against a window of its own history
//!    ([`oracle`]): it must hold the state after some prefix that
//!    includes every operation completed before `k` and at most the ones
//!    in flight. Every audit fault of the image is a violation at `k`.
//!
//! One set of generic drivers runs every [`target::CrashTarget`]: all
//! four log-free structures, the four log-based baselines
//! ([`baseline`]), `NvMemcached`, the sharded cache
//! ([`sharded::ShardedTarget`], N pools) and a live 2→4 reshard
//! ([`reshard::ReshardTarget`], old and new pools together). A target
//! that spans several pools gets one shared crash plan over all of them
//! and has every pool's image captured in one consistent cut. The
//! drivers run in single-threaded exhaustive mode
//! ([`driver::run_crash_points`]) and multi-threaded quiesce-and-crash
//! mode ([`driver::run_torture`]); both hand their histories to the same
//! recover-and-validate path, with or without a link cache.
//!
//! # Reproducing a failure
//!
//! Every reported violation carries the `(trace seed, event index)` pair
//! that produced it. Runs are seeded from the `CRASHTEST_SEED`
//! environment variable (one knob shared with the workspace property
//! tests). See DESIGN.md, "Crash-point coverage".

#![warn(missing_docs)]

pub mod baseline;
pub mod driver;
pub mod oracle;
pub mod reshard;
pub mod sharded;
pub mod target;
pub mod trace;

pub use baseline::{BstTkTarget, LazyHashTarget, LazyListTarget, LockSkipTarget};
pub use driver::{
    run_crash_points, run_torture, CrashConfig, CrashReport, TortureConfig, TortureReport,
};
pub use oracle::{History, Violation};
pub use reshard::{ReshardTarget, RESHARD_FROM, RESHARD_START_AT, RESHARD_STEP_EVERY, RESHARD_TO};
pub use sharded::ShardedTarget;
pub use target::{
    BstTarget, CrashTarget, HashTarget, HashUpsertTarget, ListTarget, ListUpsertTarget,
    MemcachedTarget, ResizeTarget, ResizeUpsertTarget, SkipTarget, RESIZE_GROW_AT,
    RESIZE_GROW_EVERY,
};
pub use trace::{gen_trace, OpMix, TraceOp};

use std::sync::OnceLock;

/// The workspace-wide deterministic test seed: `CRASHTEST_SEED` from the
/// environment, or 0 — the same default the vendored proptest runner
/// uses, so the one knob means the same thing everywhere. Parsed once;
/// printed by every failure report so a run can be reproduced exactly.
pub fn seed_from_env() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("CRASHTEST_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
    })
}
