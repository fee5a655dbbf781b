//! A **live reshard** of the sharded NV-Memcached as a crash target.
//!
//! The elastic-topology design (`nvmemcached::reshard`) promises that a
//! power failure at *any* instant of a live reshard loses no
//! acknowledged write: before the durable commit record the old
//! topology is the authoritative cache, after it recovery rolls the
//! migration forward to the new topology. This target makes that an
//! enumerable claim, the same way the resize target does for the
//! in-table migration:
//!
//! * One deterministic single-threaded schedule interleaves client
//!   operations with the admin actions — [`ShardedNvMemcached::
//!   reshard_start`] a third of the way through the trace, one
//!   [`ShardedNvMemcached::reshard_step`] every few operations after
//!   it, and the remaining steps after the last operation (the target's
//!   `settle`, outside every op span) — so every persist-relevant event
//!   of the *whole* migration (target-pool formatting, the
//!   `[OLD][NEW][0][VERSION]` commit record, every drained bucket's
//!   claim, copies, links and sentinel) gets a global event index.
//! * One shared [`pmem::CrashPlan`] is installed on **all** pools — the old
//!   shards and the reshard targets — and its hook records every pool's
//!   fence batches into one image of them all: a consistent cross-pool
//!   cut, which is what a power failure is.
//! * Recovery ([`ReshardTarget`]'s `recover`) is attempted over the
//!   union of old and new pools, which must resolve exactly like the
//!   operator's restart would:
//!   - **Committed** (the state word is durable): recovery must
//!     succeed, roll the migration forward, and serve the *new*
//!     topology.
//!   - **Uncommitted** (targets formatted, no durable commit): recovery
//!     of the union must *refuse* ([`GeometryError::Uncommitted`] /
//!     [`GeometryError::NotSharded`] for half-formatted targets), and
//!     the old pools alone must recover as the still-authoritative
//!     version-1 cache.
//!
//!   Any other outcome is reported as a violation.
//! * The recovered cache is validated with the drivers' oracle over the
//!   merged snapshot (every acknowledged write present, every
//!   acknowledged delete absent, the in-flight operation atomic) and the
//!   image audit over every serving shard (§5.5 both ways, with **routing
//!   containment** over the recovered topology).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nvalloc::RecoveryReport;
use nvmemcached::sharded::ShardedCtx;
use nvmemcached::{GeometryError, ShardedNvMemcached};
use pmem::PmemPool;

use crate::sharded::apply_sharded;
use crate::target::{counted_once, CrashTarget, MC_CAPACITY, N_BUCKETS};
use crate::trace::TraceOp;

/// Shard count the trace starts with.
pub const RESHARD_FROM: usize = 2;
/// Shard count the live reshard grows to.
pub const RESHARD_TO: usize = 4;
/// The op index at which `reshard_start` runs: a third of the way into
/// the default 64-op trace, so crash points cover pre-flight, in-flight
/// and post-flight windows.
pub const RESHARD_START_AT: usize = 64 / 3;
/// One `reshard_step` runs every this many operations after the start.
pub const RESHARD_STEP_EVERY: usize = 4;

/// The sharded cache on [`RESHARD_FROM`] pools, resharding live onto
/// [`RESHARD_TO`] fresh ones: its pools are the old group followed by the
/// new one.
pub struct ReshardTarget {
    cache: ShardedNvMemcached,
    /// The reshard's fresh target pools.
    targets: Vec<Arc<PmemPool>>,
    ops_applied: AtomicUsize,
}

impl CrashTarget for ReshardTarget {
    const NAME: &'static str = "ShardedNvMemcached::reshard";
    const UPSERT: bool = true;
    const POOLS: usize = RESHARD_FROM + RESHARD_TO;
    type Ctx = ShardedCtx;

    fn create(pools: &[Arc<PmemPool>], use_link_cache: bool) -> Self {
        let (old, new) = pools.split_at(RESHARD_FROM);
        let cache = ShardedNvMemcached::create(old, N_BUCKETS, MC_CAPACITY, use_link_cache)
            .expect("pools sized for trace");
        Self { cache, targets: new.to_vec(), ops_applied: AtomicUsize::new(0) }
    }

    fn register(&self) -> ShardedCtx {
        self.cache.register()
    }

    fn apply(&self, ctx: &mut ShardedCtx, op: TraceOp) {
        let i = self.ops_applied.fetch_add(1, Ordering::Relaxed);
        if i == RESHARD_START_AT {
            self.cache.reshard_start(&self.targets, N_BUCKETS).expect("fresh target pools");
        } else if i > RESHARD_START_AT && (i - RESHARD_START_AT) % RESHARD_STEP_EVERY == 0 {
            let _ = self.cache.reshard_step().expect("pools sized for migration");
        }
        apply_sharded(&self.cache, ctx, op)
    }

    /// Drives the migration to completion after the last operation, so
    /// the tail crash points cover the last buckets' drains and the
    /// topology swap.
    fn settle(&self) {
        while !self.cache.reshard_step().expect("pools sized for migration") {}
    }

    /// The operator's restart: try the union first; on a pre-commit
    /// image fall back to the old pools, which must still be whole. The
    /// recovered topology must be the one the path taken owes: the new
    /// one after a durable commit, the old one before it.
    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let ((cache, report), want) = match ShardedNvMemcached::recover(pools, MC_CAPACITY) {
            Ok(recovered) => (recovered, (RESHARD_TO, 2)),
            // No durable commit: the old topology is authoritative.
            Err(GeometryError::Uncommitted { .. } | GeometryError::NotSharded { .. }) => {
                let old = &pools[..RESHARD_FROM];
                let recovered = ShardedNvMemcached::recover(old, MC_CAPACITY).map_err(|e| {
                    format!("old pools refused to recover after an uncommitted reshard: {e}")
                })?;
                (recovered, (RESHARD_FROM, 1))
            }
            Err(e) => return Err(format!("union recovery failed with an unexpected error: {e}")),
        };
        let (n_shards, version) = (cache.n_shards(), cache.version());
        if (n_shards, version) != want {
            let path = if want.1 == 1 { "pre-commit fallback" } else { "committed union" };
            return Err(format!(
                "{path} recovery serves {n_shards} shard(s) at version {version} \
                 (want {} at version {})",
                want.0, want.1
            ));
        }
        counted_once(cache.len(), cache.snapshot().len())?;
        Ok((Self { cache, targets: Vec::new(), ops_applied: AtomicUsize::new(0) }, report))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.cache.snapshot()
    }

    fn audit(&self) -> Vec<String> {
        self.cache.audit()
    }
}
