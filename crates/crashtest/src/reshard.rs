//! Crash-point enumeration over a **live reshard** of the sharded
//! NV-Memcached.
//!
//! The elastic-topology design (`nvmemcached::reshard`) promises that a
//! power failure at *any* instant of a live reshard loses no
//! acknowledged write: before the durable commit record the old
//! topology is the authoritative cache, after it recovery rolls the
//! migration forward to the new topology. This driver makes that an
//! enumerable claim, the same way the resize driver does for the
//! in-table migration:
//!
//! * One deterministic single-threaded schedule interleaves client
//!   operations with the admin actions — [`ShardedNvMemcached::
//!   reshard_start`] a third of the way through the trace, one
//!   [`ShardedNvMemcached::reshard_step`] every few operations after
//!   it, and the remaining steps after the last operation — so every
//!   persist-relevant event of the *whole* reshard state machine
//!   (target-pool formatting, the `[OLD][NEW][CURSOR][VERSION]` commit
//!   record, every durable cursor advance, every migrated key's
//!   copy-then-delete) gets a global event index.
//! * One shared [`CrashPlan`] is installed on **all** pools — the old
//!   shards and the reshard targets — and the firing hook captures
//!   every pool's durable image in one synchronous callback: a
//!   consistent cross-pool cut, which is what a power failure is.
//! * Recovery is attempted over the union of old and new pools, which
//!   must resolve exactly like the operator's restart would:
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
//! * The recovered cache is validated with the **global oracle** (every
//!   acknowledged write present, every acknowledged delete absent, the
//!   at-most-one in-flight operation atomic), **routing containment**
//!   over the recovered topology, and the §5.5 **zero-leak audit** on
//!   every serving shard.
//!
//! Unlike the static sharded driver, the per-shard sub-trace oracle is
//! deliberately *not* run here: a key's home shard changes mid-trace
//! (that is the point of the exercise), so no single shard owns a key's
//! sub-history. The global oracle stays exact — it is the one that
//! encodes "zero lost acknowledged writes".

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use nvmemcached::{GeometryError, ShardedNvMemcached};
use pmem::{CrashEvent, CrashPlan, Mode, PmemPool, PoolBuilder};

use crate::driver::{select_points, CrashConfig, CrashReport};
use crate::oracle::{validate, OracleConfig, Violation};
use crate::target::{MC_CAPACITY, N_BUCKETS};
use crate::trace::{gen_trace, TraceOp};

/// Shard count the trace starts with.
pub const RESHARD_FROM: usize = 2;
/// Shard count the live reshard grows to.
pub const RESHARD_TO: usize = 4;
/// One `reshard_step` runs every this many operations after the start.
pub const RESHARD_STEP_EVERY: usize = 4;

fn new_pools(cfg: &CrashConfig, n: usize) -> Vec<Arc<PmemPool>> {
    (0..n).map(|_| PoolBuilder::new(cfg.pool_mb << 20).mode(Mode::CrashSim).build()).collect()
}

/// The op index at which `reshard_start` runs (a third of the way in,
/// so crash points cover pre-flight, in-flight and post-flight windows).
fn start_at(trace_len: usize) -> usize {
    trace_len / 3
}

/// Runs the deterministic trace-plus-reshard schedule once over fresh
/// caches on `old`/`new` under `plan`, returning the global event
/// counter at every op boundary.
fn run_reshard_trace(
    cfg: &CrashConfig,
    old: &[Arc<PmemPool>],
    new: &[Arc<PmemPool>],
    plan: &Arc<CrashPlan>,
    trace: &[TraceOp],
) -> Vec<u64> {
    let cache = ShardedNvMemcached::create(old, N_BUCKETS, MC_CAPACITY, cfg.use_link_cache)
        .expect("pools sized for trace");
    for pool in old.iter().chain(new) {
        pool.install_crash_plan(Arc::clone(plan));
    }
    let start = start_at(trace.len());
    let mut ctx = cache.register();
    let mut spans = Vec::with_capacity(trace.len() + 1);
    spans.push(plan.events());
    for (i, &op) in trace.iter().enumerate() {
        if i == start {
            cache.reshard_start(new, N_BUCKETS).expect("fresh target pools");
        } else if i > start && (i - start) % RESHARD_STEP_EVERY == 0 {
            let _ = cache.reshard_step().expect("pools sized for migration");
        }
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
    // Drive the migration to completion after the last operation, so
    // the tail crash points cover the final cursor advances and the
    // topology swap.
    while !cache.reshard_step().expect("pools sized for migration") {}
    for pool in old.iter().chain(new) {
        pool.clear_crash_plan();
    }
    spans
}

/// Phase 1: counts the persist-relevant events of the full
/// trace-plus-reshard schedule and records per-op spans.
pub fn count_reshard_events(cfg: &CrashConfig) -> (Arc<CrashPlan>, Vec<u64>, Vec<TraceOp>) {
    let trace = gen_trace(cfg.seed, cfg.trace_len, cfg.key_range, cfg.mix);
    let old = new_pools(cfg, RESHARD_FROM);
    let new = new_pools(cfg, RESHARD_TO);
    let plan = CrashPlan::count_only();
    let spans = run_reshard_trace(cfg, &old, &new, &plan, &trace);
    (plan, spans, trace)
}

/// Phase 2 for one crash point: replays the schedule, captures a
/// consistent cut of **all** pools immediately before event `k`,
/// crashes every pool to it, recovers like an operator restart would,
/// and validates the survivor cache.
pub fn reshard_crash_at(
    cfg: &CrashConfig,
    trace: &[TraceOp],
    spans: &[u64],
    k: u64,
) -> Vec<Violation> {
    let old = new_pools(cfg, RESHARD_FROM);
    let new = new_pools(cfg, RESHARD_TO);
    let all: Vec<Arc<PmemPool>> = old.iter().chain(&new).cloned().collect();
    type Images = Vec<Vec<u64>>;
    let images: Arc<Mutex<Option<Images>>> = Arc::new(Mutex::new(None));
    let plan = CrashPlan::fire_at(k, {
        let all = all.clone();
        let images = Arc::clone(&images);
        Box::new(move || {
            let cut: Images =
                all.iter().map(|p| p.capture_crash_image().expect("crash-sim pool")).collect();
            *images.lock().expect("image cell poisoned") = Some(cut);
        })
    });
    let replay_spans = run_reshard_trace(cfg, &old, &new, &plan, trace);

    let mut violations = Vec::new();
    if replay_spans != spans {
        violations.push(Violation {
            seed: cfg.seed,
            crash_point: k,
            key: 0,
            got: None,
            allowed: vec![],
            detail: format!(
                "nondeterministic reshard replay: op spans diverged from the count phase \
                 (count total {}, replay total {})",
                spans.last().unwrap_or(&0),
                replay_spans.last().unwrap_or(&0)
            ),
        });
        return violations;
    }
    // `k` past the end of the schedule means "crash after completion".
    let imgs = images.lock().expect("image cell poisoned").take().unwrap_or_else(|| {
        all.iter().map(|p| p.capture_crash_image().expect("crash-sim pool")).collect()
    });
    for (pool, img) in all.iter().zip(&imgs) {
        // SAFETY: the schedule ran on this thread and has finished; no
        // other thread touches the pools.
        unsafe { pool.crash_to_image(img).expect("crash-sim pool") };
    }

    // The operator's restart: try the union first; on a pre-commit
    // image fall back to the old pools, which must still be whole.
    let cache = match ShardedNvMemcached::recover(&all, MC_CAPACITY) {
        Ok((cache, _report)) => {
            if cache.n_shards() != RESHARD_TO || cache.version() != 2 {
                violations.push(Violation {
                    seed: cfg.seed,
                    crash_point: k,
                    key: 0,
                    got: None,
                    allowed: vec![],
                    detail: format!(
                        "union recovery accepted a committed reshard but serves \
                         {} shard(s) at version {} (want {RESHARD_TO} at version 2)",
                        cache.n_shards(),
                        cache.version()
                    ),
                });
            }
            cache
        }
        Err(GeometryError::Uncommitted { .. }) | Err(GeometryError::NotSharded { .. }) => {
            // No durable commit: the old topology is authoritative.
            match ShardedNvMemcached::recover(&old, MC_CAPACITY) {
                Ok((cache, _report)) => {
                    if cache.n_shards() != RESHARD_FROM || cache.version() != 1 {
                        violations.push(Violation {
                            seed: cfg.seed,
                            crash_point: k,
                            key: 0,
                            got: None,
                            allowed: vec![],
                            detail: format!(
                                "pre-commit fallback recovered {} shard(s) at version {} \
                                 (want {RESHARD_FROM} at version 1)",
                                cache.n_shards(),
                                cache.version()
                            ),
                        });
                    }
                    cache
                }
                Err(e) => {
                    violations.push(Violation {
                        seed: cfg.seed,
                        crash_point: k,
                        key: 0,
                        got: None,
                        allowed: vec![],
                        detail: format!(
                            "old pools refused to recover after an uncommitted reshard: {e}"
                        ),
                    });
                    return violations;
                }
            }
        }
        Err(e) => {
            violations.push(Violation {
                seed: cfg.seed,
                crash_point: k,
                key: 0,
                got: None,
                allowed: vec![],
                detail: format!("union recovery failed with an unexpected error: {e}"),
            });
            return violations;
        }
    };

    let oracle_cfg = OracleConfig { upsert: true, relaxed: cfg.use_link_cache };

    // 1. Global oracle over the merged snapshot (exact): zero lost
    //    acknowledged writes, whichever topology survived.
    let recovered: BTreeMap<u64, u64> = cache.snapshot().into_iter().collect();
    violations.extend(validate(cfg.seed, trace, spans, k, &recovered, oracle_cfg));

    let n_shards = cache.n_shards();
    for (i, shard) in cache.shards().iter().enumerate() {
        // 2. Routing containment over the *recovered* topology.
        for (key, value) in shard.snapshot() {
            let home = cache.shard_of(key);
            if home != i {
                violations.push(Violation {
                    seed: cfg.seed,
                    crash_point: k,
                    key,
                    got: Some(value),
                    allowed: vec![],
                    detail: format!(
                        "key routed to shard {home}/{n_shards} recovered inside shard {i}"
                    ),
                });
            }
        }
        // 3. §5.5 per serving shard: zero unreachable slots after
        //    recovery (retired pools are about to be discarded and are
        //    not audited).
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

/// The full reshard enumeration: count, then crash at every selected
/// event index (plus the post-completion point), recovering and
/// validating each time.
pub fn run_reshard_crash_points(cfg: &CrashConfig) -> CrashReport {
    let (count_plan, spans, trace) = count_reshard_events(cfg);
    let total = count_plan.events();
    let mut points = select_points(total, cfg.sample, cfg.seed);
    points.push(total);

    let mut violations = Vec::new();
    for &k in &points {
        violations.extend(reshard_crash_at(cfg, &trace, &spans, k));
    }
    CrashReport {
        target: "ShardedNvMemcached::reshard",
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
