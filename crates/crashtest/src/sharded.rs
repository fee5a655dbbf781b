//! The **sharded** NV-Memcached as a crash target.
//!
//! The sharded cache spreads keys over N independent pools, so a power
//! failure is an *instantaneous cut across all shards at once*. The
//! drivers model exactly that for every multi-pool target: one shared
//! [`pmem::CrashPlan`] is installed on every shard pool (the event
//! counter is global, so a crash point `k` means "the k-th
//! persist-relevant event of the whole cache"), and when the plan fires
//! the durable images of **all** pools are captured in one synchronous
//! callback — a consistent cross-shard cut, since the trace is
//! single-threaded.
//!
//! Validation then checks the cross-shard invariant the sharding design
//! promises — *a crash during an operation in shard i never corrupts
//! shard j*:
//!
//! 1. the **global oracle** over the merged snapshot (same upsert oracle
//!    as the unsharded `MemcachedTarget`),
//! 2. **routing containment** — every recovered key lives in exactly the
//!    shard it routes to,
//! 3. a **per-shard oracle** — each shard's recovered state is validated
//!    independently against the sub-trace that routed to it (so a shard
//!    losing a completed update is attributed to that shard, not to the
//!    cache as a whole), and
//! 4. a **per-shard leak audit** — zero allocated-but-unreachable slots
//!    in every shard after its recovery pass.
//!
//! The per-shard sub-spans use each sub-operation's *end* boundary from
//! the global span table. Between one shard's consecutive operations the
//! global event counter advances through other shards' events; a crash
//! landing in that gap treats the shard's next operation as (vacuously)
//! in-flight, which only widens the accepted states of that single key by
//! its own post-state — every lost-update, corruption and foreign-key
//! check stays exact, and the global oracle of step 1 is exact for
//! everything.

use std::collections::BTreeMap;
use std::sync::Arc;

use nvalloc::RecoveryReport;
use nvmemcached::sharded::{shard_of, ShardedCtx};
use nvmemcached::{NvMemcached, ShardedNvMemcached};
use pmem::PmemPool;

use crate::oracle::{validate, OracleConfig, Violation};
use crate::target::{CrashTarget, MC_CAPACITY, N_BUCKETS};
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

    fn apply(&self, ctx: &mut ShardedCtx, op: TraceOp) -> bool {
        apply_sharded(&self.cache, ctx, op)
    }

    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let (cache, report) =
            ShardedNvMemcached::recover(pools, MC_CAPACITY).map_err(|e| e.to_string())?;
        Ok((Self { cache }, report))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.cache.snapshot()
    }

    fn leaked(&self) -> u64 {
        unreachable_over_shards(&self.cache)
    }

    /// Routing containment and the per-shard leak audit, then each
    /// shard's own sub-trace oracle (see module docs).
    fn post_recovery_check(
        &self,
        trace: &[TraceOp],
        spans: &[u64],
        k: u64,
        oracle: OracleConfig,
    ) -> Vec<Violation> {
        let mut violations = audit_shards(&self.cache, k);
        for (i, shard) in self.cache.shards().iter().enumerate() {
            // 3. Per-shard oracle: the shard's own sub-trace, with end-boundary
            //    sub-spans from the global span table (see module docs).
            let mut sub_ops: Vec<TraceOp> = Vec::new();
            let mut sub_spans: Vec<u64> = Vec::new();
            for (idx, op) in trace.iter().enumerate() {
                if shard_of(op.key(), N) == i {
                    if sub_spans.is_empty() {
                        sub_spans.push(spans[idx]);
                    }
                    sub_ops.push(*op);
                    sub_spans.push(spans[idx + 1]);
                }
            }
            if !sub_ops.is_empty() {
                let shard_state: BTreeMap<u64, u64> = shard.snapshot().into_iter().collect();
                for mut v in validate(&sub_ops, &sub_spans, k, &shard_state, oracle) {
                    v.detail = format!("shard {i}: {}", v.detail);
                    violations.push(v);
                }
            }
        }
        violations
    }
}

/// Applies one trace op to a sharded cache (shared with the live-reshard
/// target).
pub(crate) fn apply_sharded(cache: &ShardedNvMemcached, ctx: &mut ShardedCtx, op: TraceOp) -> bool {
    match op {
        TraceOp::Insert(k, v) => {
            cache.set(ctx, k, v).expect("pools sized for trace");
            true
        }
        TraceOp::Remove(k) => cache.delete(ctx, k).is_some(),
        TraceOp::Get(k) => {
            let _ = cache.get(ctx, k);
            false
        }
    }
}

fn unreachable_slots(shard: &NvMemcached) -> u64 {
    shard.domain().count_unreachable(|addr| shard.contains_node_at(addr))
}

/// Allocated-but-unreachable slots summed over the serving shards.
pub(crate) fn unreachable_over_shards(cache: &ShardedNvMemcached) -> u64 {
    cache.shards().iter().map(unreachable_slots).sum()
}

/// The per-shard audits of a recovered cache over the topology it
/// serves (shared with the live-reshard target).
pub(crate) fn audit_shards(cache: &ShardedNvMemcached, k: u64) -> Vec<Violation> {
    let n_shards = cache.n_shards();
    let mut violations = Vec::new();
    for (i, shard) in cache.shards().iter().enumerate() {
        // 2. Routing containment: no shard may hold a foreign key.
        for (key, value) in shard.snapshot() {
            let home = cache.shard_of(key);
            if home != i {
                let detail =
                    format!("key routed to shard {home}/{n_shards} recovered inside shard {i}");
                violations.push(Violation {
                    key,
                    got: Some(value),
                    ..Violation::structural(k, detail)
                });
            }
        }
        // 4. §5.5 per serving shard: zero unreachable slots after
        //    recovery (a reshard's retired pools are about to be
        //    discarded and are not audited).
        let leaked = unreachable_slots(shard);
        if leaked != 0 {
            violations.push(Violation::structural(
                k,
                format!(
                    "shard {i}: {leaked} allocated-but-unreachable slot(s) after recover_leaks"
                ),
            ));
        }
    }
    violations
}
