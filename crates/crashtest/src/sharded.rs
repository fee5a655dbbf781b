//! The **sharded** NV-Memcached as a crash target.
//!
//! The sharded cache spreads keys over N independent pools, so a power
//! failure is an *instantaneous cut across all shards at once*. The
//! drivers model exactly that for every multi-pool target: one shared
//! [`pmem::CrashPlan`] is installed on every shard pool (the event
//! counter is global, so a crash point `k` means "the k-th
//! persist-relevant event of the whole cache"), and its hook records
//! every shard's fence batches into one image of **all** pools — a
//! consistent cross-shard cut, since the trace is single-threaded.
//!
//! Validation then checks the cross-shard invariant the sharding design
//! promises — *a crash during an operation in shard i never corrupts
//! shard j*: the drivers' oracle runs over the merged snapshot, and the
//! image audit ([`ShardedNvMemcached::audit`]) over every shard's domain,
//! with **routing containment**: every recovered key lives in exactly the
//! shard it routes to. A shard that loses a completed update loses it
//! from the merged snapshot too, and a key that lands in the wrong shard
//! fails the audit, so no per-shard oracle is needed.

use std::sync::Arc;

use nvalloc::RecoveryReport;
use nvmemcached::sharded::ShardedCtx;
use nvmemcached::ShardedNvMemcached;
use pmem::PmemPool;

use crate::target::{counted_once, CrashTarget, MC_CAPACITY, N_BUCKETS};
use crate::trace::TraceOp;

/// The sharded cache over `N` shard pools. `Insert` maps to `set`
/// (upsert), `Remove` to `delete`, as for the unsharded cache.
pub struct ShardedTarget<const N: usize> {
    cache: ShardedNvMemcached,
}

impl<const N: usize> CrashTarget for ShardedTarget<N> {
    const NAME: &'static str = "ShardedNvMemcached";
    const UPSERT: bool = true;
    const POOLS: usize = N;
    type Ctx = ShardedCtx;

    fn create(pools: &[Arc<PmemPool>], use_link_cache: bool) -> Self {
        let cache = ShardedNvMemcached::create(pools, N_BUCKETS, MC_CAPACITY, use_link_cache)
            .expect("pools sized for trace");
        Self { cache }
    }

    fn register(&self) -> ShardedCtx {
        self.cache.register()
    }

    fn apply(&self, ctx: &mut ShardedCtx, op: TraceOp) {
        apply_sharded(&self.cache, ctx, op)
    }

    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let (cache, report) =
            ShardedNvMemcached::recover(pools, MC_CAPACITY).map_err(|e| e.to_string())?;
        counted_once(cache.len(), cache.snapshot().len())?;
        Ok((Self { cache }, report))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.cache.snapshot()
    }

    fn audit(&self) -> Vec<String> {
        self.cache.audit()
    }
}

/// Applies one trace op to a sharded cache (shared with the live-reshard
/// target).
pub(crate) fn apply_sharded(cache: &ShardedNvMemcached, ctx: &mut ShardedCtx, op: TraceOp) {
    match op {
        TraceOp::Insert(k, v) => cache.set(ctx, k, v).expect("pools sized for trace"),
        TraceOp::Remove(k) => _ = cache.delete(ctx, k),
        TraceOp::Get(k) => _ = cache.get(ctx, k),
    }
}
