//! Crash-point enumeration over the **sharded** NV-Memcached.
//!
//! The sharded cache spreads keys over N independent pools, so a power
//! failure is an *instantaneous cut across all shards at once*. The
//! driver models exactly that: one shared [`CrashPlan`] is installed on
//! every shard pool (the event counter is global, so a crash point `k`
//! means "the k-th persist-relevant event of the whole cache"), and when
//! the plan fires the durable images of **all** pools are captured in one
//! synchronous callback — a consistent cross-shard cut, since the trace
//! is single-threaded.
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
use std::sync::{Arc, Mutex};

use nvmemcached::sharded::shard_of;
use nvmemcached::ShardedNvMemcached;
use pmem::{CrashEvent, CrashPlan, Mode, PmemPool, PoolBuilder};

use crate::driver::{select_points, CrashConfig, CrashReport};
use crate::oracle::{validate, OracleConfig, Violation};
use crate::target::{MC_CAPACITY, N_BUCKETS};
use crate::trace::{gen_trace, TraceOp};

fn new_pools(cfg: &CrashConfig, n_shards: usize) -> Vec<Arc<PmemPool>> {
    (0..n_shards)
        .map(|_| PoolBuilder::new(cfg.pool_mb << 20).mode(Mode::CrashSim).build())
        .collect()
}

/// Runs the trace once over a fresh sharded cache on `pools` under
/// `plan`, returning the global event counter at every op boundary (the
/// same contract as the unsharded driver's span table).
fn run_trace(
    cfg: &CrashConfig,
    pools: &[Arc<PmemPool>],
    plan: &Arc<CrashPlan>,
    trace: &[TraceOp],
) -> Vec<u64> {
    let cache = ShardedNvMemcached::create(pools, N_BUCKETS, MC_CAPACITY, cfg.use_link_cache)
        .expect("pools sized for trace");
    for pool in pools {
        pool.install_crash_plan(Arc::clone(plan));
    }
    let mut ctx = cache.register();
    let mut spans = Vec::with_capacity(trace.len() + 1);
    spans.push(plan.events());
    for &op in trace {
        match op {
            TraceOp::Insert(k, v) => {
                cache.set(&mut ctx, k, v).expect("pools sized for trace");
            }
            TraceOp::Remove(k) => {
                cache.delete(&mut ctx, k);
            }
            TraceOp::Get(k) => {
                let _ = cache.get(&mut ctx, k);
            }
        }
        spans.push(plan.events());
    }
    for pool in pools {
        pool.clear_crash_plan();
    }
    spans
}

/// Phase 1: counts the persist-relevant events of the configured trace
/// over an `n_shards`-way cache and records per-op spans.
pub fn count_sharded_events(
    cfg: &CrashConfig,
    n_shards: usize,
) -> (Arc<CrashPlan>, Vec<u64>, Vec<TraceOp>) {
    let trace = gen_trace(cfg.seed, cfg.trace_len, cfg.key_range, cfg.mix);
    let pools = new_pools(cfg, n_shards);
    let plan = CrashPlan::count_only();
    let spans = run_trace(cfg, &pools, &plan, &trace);
    (plan, spans, trace)
}

/// Phase 2 for one crash point: replays the trace, captures the durable
/// images of **every** shard pool immediately before event `k` (one
/// consistent cut), crashes all shards to them, recovers in parallel,
/// and validates globally and per shard.
pub fn sharded_crash_at(
    cfg: &CrashConfig,
    n_shards: usize,
    trace: &[TraceOp],
    spans: &[u64],
    k: u64,
) -> Vec<Violation> {
    let pools = new_pools(cfg, n_shards);
    type Images = Vec<Vec<u64>>;
    let images: Arc<Mutex<Option<Images>>> = Arc::new(Mutex::new(None));
    let plan = CrashPlan::fire_at(k, {
        let pools = pools.clone();
        let images = Arc::clone(&images);
        Box::new(move || {
            let cut: Images =
                pools.iter().map(|p| p.capture_crash_image().expect("crash-sim pool")).collect();
            *images.lock().expect("image cell poisoned") = Some(cut);
        })
    });
    let replay_spans = run_trace(cfg, &pools, &plan, trace);

    let mut violations = Vec::new();
    if replay_spans != spans {
        violations.push(Violation {
            seed: cfg.seed,
            crash_point: k,
            key: 0,
            got: None,
            allowed: vec![],
            detail: format!(
                "nondeterministic sharded replay: op spans diverged from the count phase \
                 (count total {}, replay total {})",
                spans.last().unwrap_or(&0),
                replay_spans.last().unwrap_or(&0)
            ),
        });
        return violations;
    }
    // `k` past the end of the trace means "crash after completion".
    let imgs = images.lock().expect("image cell poisoned").take().unwrap_or_else(|| {
        pools.iter().map(|p| p.capture_crash_image().expect("crash-sim pool")).collect()
    });
    for (pool, img) in pools.iter().zip(&imgs) {
        // SAFETY: the trace ran on this thread and has finished; no other
        // thread touches the pools.
        unsafe { pool.crash_to_image(img).expect("crash-sim pool") };
    }

    let (cache, _report) =
        ShardedNvMemcached::recover(&pools, MC_CAPACITY).expect("geometry written at create");
    let oracle_cfg = OracleConfig { upsert: true, relaxed: cfg.use_link_cache };

    // 1. Global oracle over the merged snapshot (exact).
    let recovered: BTreeMap<u64, u64> = cache.snapshot().into_iter().collect();
    violations.extend(validate(cfg.seed, trace, spans, k, &recovered, oracle_cfg));

    for (i, shard) in cache.shards().iter().enumerate() {
        let shard_state: BTreeMap<u64, u64> = shard.snapshot().into_iter().collect();

        // 2. Routing containment: no shard may hold a foreign key.
        for &key in shard_state.keys() {
            let home = shard_of(key, n_shards);
            if home != i {
                violations.push(Violation {
                    seed: cfg.seed,
                    crash_point: k,
                    key,
                    got: shard_state.get(&key).copied(),
                    allowed: vec![],
                    detail: format!("key routed to shard {home} recovered inside shard {i}"),
                });
            }
        }

        // 3. Per-shard oracle: the shard's own sub-trace, with end-boundary
        //    sub-spans from the global span table (see module docs).
        let mut sub_ops: Vec<TraceOp> = Vec::new();
        let mut sub_spans: Vec<u64> = Vec::new();
        for (idx, op) in trace.iter().enumerate() {
            if shard_of(op.key(), n_shards) == i {
                if sub_spans.is_empty() {
                    sub_spans.push(spans[idx]);
                }
                sub_ops.push(*op);
                sub_spans.push(spans[idx + 1]);
            }
        }
        if !sub_ops.is_empty() {
            for mut v in validate(cfg.seed, &sub_ops, &sub_spans, k, &shard_state, oracle_cfg) {
                v.detail = format!("shard {i}: {}", v.detail);
                violations.push(v);
            }
        }

        // 4. §5.5 per shard: zero unreachable slots after recovery.
        let leaked = shard.domain().count_unreachable(|addr| shard.contains_node_at(addr));
        if leaked != 0 {
            violations.push(Violation {
                seed: cfg.seed,
                crash_point: k,
                key: 0,
                got: None,
                allowed: vec![],
                detail: format!(
                    "shard {i}: {leaked} allocated-but-unreachable slot(s) after recover_leaks"
                ),
            });
        }
    }
    violations
}

/// The full sharded enumeration: count, then crash at every selected
/// event index (plus the post-completion point), recovering all shards in
/// parallel and validating each time.
pub fn run_sharded_crash_points(cfg: &CrashConfig, n_shards: usize) -> CrashReport {
    let (count_plan, spans, trace) = count_sharded_events(cfg, n_shards);
    let total = count_plan.events();
    let mut points = select_points(total, cfg.sample, cfg.seed);
    points.push(total);

    let mut violations = Vec::new();
    for &k in &points {
        violations.extend(sharded_crash_at(cfg, n_shards, &trace, &spans, k));
    }
    CrashReport {
        target: "ShardedNvMemcached",
        seed: cfg.seed,
        total_events: total,
        event_kinds: (
            count_plan.kind_count(CrashEvent::Clwb),
            count_plan.kind_count(CrashEvent::Fence),
            count_plan.kind_count(CrashEvent::LinkPublish),
            count_plan.kind_count(CrashEvent::ResizeState),
            count_plan.kind_count(CrashEvent::ReshardState),
        ),
        points_tested: points.len(),
        violations,
    }
}
