//! Systematic crash-point injection for the log-free structures.
//!
//! The paper's central claim is durability: after a crash at *any*
//! instant, every log-free structure recovers to a consistent state with
//! no leaks (§3, §5.5). The `pmem` shadow-image simulator makes
//! missing-flush bugs deterministic, but a simulator only catches the
//! crash points someone thinks to test. This crate makes "crash anywhere"
//! an *enumerable* dimension instead of a sampled one:
//!
//! 1. **Count** — an operation trace is run to completion under a
//!    [`pmem::CrashPlan`] that counts every persist-relevant event
//!    (`clwb`, fence, link-CAS publish; see [`pmem::CrashEvent`]).
//! 2. **Replay** — the same trace is re-run once per crash point `k`
//!    (or a seeded stratified sample above a threshold). A plan firing at
//!    event `k` captures the durable image *before the event takes
//!    effect* — exactly what a power failure at that instant leaves.
//! 3. **Recover + validate** — the image is restored, the structure's
//!    `recover` and [`nvalloc::NvDomain::recover_leaks`] run, and every
//!    recovered key is checked against a window of its own history
//!    ([`oracle`]): it must hold the state after some prefix that
//!    includes every completed operation and at most the ones in flight.
//!    No allocated-but-unreachable slot may remain.
//!
//! One set of generic drivers runs every [`target::CrashTarget`]: all
//! four log-free structures, `NvMemcached`, the sharded cache
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
//! tests); `CRASHTEST_SAMPLE=n` caps the number of replayed crash points
//! per trace (seeded stratified sampling). See DESIGN.md, "Crash-point
//! coverage".

#![warn(missing_docs)]

pub mod driver;
pub mod oracle;
pub mod reshard;
pub mod sharded;
pub mod target;
pub mod trace;

pub use driver::{
    count_events, crash_at, run_crash_points, run_torture, CrashConfig, CrashReport, TortureConfig,
    TortureReport,
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

/// Crash-point sampling cap from `CRASHTEST_SAMPLE` (absent or
/// unparsable means exhaustive enumeration).
pub fn sample_from_env() -> Option<usize> {
    std::env::var("CRASHTEST_SAMPLE").ok().and_then(|v| v.parse().ok())
}
