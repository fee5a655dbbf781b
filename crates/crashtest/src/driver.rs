//! The crash-point drivers: single-threaded exhaustive enumeration and
//! the multi-threaded quiesce-and-crash torture mode. A target spanning
//! several pools crashes as one: one [`CrashPlan`] on all its pools, all
//! their images captured in one cut (see [`crate::sharded`]).

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pmem::crashpoint::N_EVENT_KINDS;
use pmem::{CrashEvent, CrashPlan, Mode, PmemPool, PoolBuilder};

use crate::oracle::{validate, History, Violation};
use crate::target::CrashTarget;
use crate::trace::{gen_trace, xorshift, OpMix, TraceOp};

/// Configuration of a single-threaded crash-point enumeration.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Trace seed (reported with every violation).
    pub seed: u64,
    /// Operations per trace.
    pub trace_len: usize,
    /// Keys are drawn from `1..=key_range`.
    pub key_range: u64,
    /// Size of each pool in MiB.
    pub pool_mb: usize,
    /// Attach a link cache (lets each key lose its last completed update;
    /// see [`crate::oracle`]).
    pub use_link_cache: bool,
    /// Operation mix of the generated trace.
    pub mix: OpMix,
}

impl CrashConfig {
    /// The default small-instance configuration: a 64-op update-heavy
    /// trace over 24 keys.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            trace_len: 64,
            key_range: 24,
            pool_mb: 2,
            use_link_cache: false,
            mix: OpMix::default(),
        }
    }
}

/// Outcome of a crash-point enumeration run.
#[derive(Debug)]
pub struct CrashReport {
    /// Target name.
    pub target: &'static str,
    /// Trace seed.
    pub seed: u64,
    /// Total persist-relevant events in the trace (= crash points).
    pub total_events: u64,
    /// Event taxonomy: events of each kind, indexed by
    /// `pmem::CrashEvent as usize`.
    pub event_kinds: [u64; N_EVENT_KINDS],
    /// Crash points checked: every event index plus the point after
    /// completion.
    pub points_tested: usize,
    /// Distinct durable images recovered (each covers the crash points
    /// between two fences).
    pub images_recovered: usize,
    /// Every violation found, across all crash points.
    pub violations: Vec<Violation>,
}

impl CrashReport {
    /// Panics with a reproduction recipe if any crash point failed.
    pub fn assert_clean(&self) {
        if self.violations.is_empty() {
            return;
        }
        for v in &self.violations {
            eprintln!("crashtest[{}]: {v}", self.target);
        }
        panic!(
            "crashtest[{}]: {} violation(s) across {} crash points; reproduce with \
             CRASHTEST_SEED={} (failing event indices above)",
            self.target,
            self.violations.len(),
            self.points_tested,
            self.seed
        );
    }
}

fn new_pools(pool_mb: usize, n: usize) -> Vec<Arc<PmemPool>> {
    (0..n).map(|_| PoolBuilder::new(pool_mb << 20).mode(Mode::CrashSim).build()).collect()
}

/// Installs `plan` on every pool (one global event counter across them),
/// or clears it with `None`.
fn set_plan(pools: &[Arc<PmemPool>], plan: Option<&Arc<CrashPlan>>) {
    for pool in pools {
        match plan {
            Some(plan) => pool.install_crash_plan(Arc::clone(plan)),
            None => pool.clear_crash_plan(),
        }
    }
}

/// One consistent cut: the durable image of every pool, captured in one
/// call.
fn capture_cut(pools: &[Arc<PmemPool>]) -> Vec<Vec<u64>> {
    pools.iter().map(|pool| pool.capture_crash_image().expect("crash-sim pool")).collect()
}

/// Crashes every pool to its image in `cut`.
///
/// # Safety
///
/// No other thread may touch the pools.
unsafe fn crash_to_cut(pools: &[Arc<PmemPool>], cut: &[Vec<u64>]) {
    for (pool, img) in pools.iter().zip(cut) {
        // SAFETY: forwarded from the caller.
        unsafe { pool.crash_to_image(img).expect("crash-sim pool") };
    }
}

/// The `(pool, word, value)` triples that changed between two cuts.
type Diff = Vec<(usize, usize, u64)>;

/// The distinct durable images one run passed through, in order: for
/// each, the last crash point whose cut it is and its [`Diff`] from the
/// previous image.
struct Images {
    /// The latest captured cut.
    prev: Vec<Vec<u64>>,
    diffs: Vec<(u64, Diff)>,
}

impl Images {
    /// Captures the cut at crash point `k`, extending the last image when
    /// nothing changed since.
    fn capture(&mut self, pools: &[Arc<PmemPool>], k: u64) {
        let cut = capture_cut(pools);
        let diff: Diff = (cut.iter().zip(&self.prev).enumerate())
            .flat_map(|(p, (img, prev))| {
                (0..img.len()).filter(|&w| img[w] != prev[w]).map(move |w| (p, w, img[w]))
            })
            .collect();
        match self.diffs.last_mut() {
            Some((last, _)) if diff.is_empty() => *last = k,
            _ => self.diffs.push((k, diff)),
        }
        self.prev = cut;
    }
}

/// The full enumeration. The trace runs once over a fresh target, on a
/// fresh thread so that thread-local state such as skip-list tower
/// heights starts from its initialiser; the target's
/// [`CrashTarget::settle`] tail runs after the last op, outside every op
/// span. Only a fence changes the durable image, and it commits after
/// its event is noted, so the cut captured at fence `k` is the cut at
/// every crash point after the previous fence up to `k`. Each distinct
/// image is then rebuilt on the pools, recovered once and checked at
/// every crash point it covers, up to the point after completion.
pub fn run_crash_points<T: CrashTarget>(cfg: &CrashConfig) -> CrashReport {
    let trace = gen_trace(cfg.seed, cfg.trace_len, cfg.key_range, cfg.mix);
    let pools = new_pools(cfg.pool_mb, T::POOLS);
    let zeroed: Vec<Vec<u64>> = pools.iter().map(|p| vec![0; p.len() / 8]).collect();
    let images = Arc::new(Mutex::new(Images { prev: zeroed.clone(), diffs: Vec::new() }));
    let plan = CrashPlan::new({
        let (pools, images) = (pools.clone(), Arc::clone(&images));
        move |k, kind| {
            if kind == CrashEvent::Fence {
                images.lock().expect("image log poisoned").capture(&pools, k);
            }
        }
    });
    // `spans[i]` = events before op `i`; `spans[len]` = after the last op.
    let spans = std::thread::scope(|s| {
        s.spawn(|| {
            let target = T::create(&pools, cfg.use_link_cache);
            set_plan(&pools, Some(&plan));
            let mut ctx = target.register();
            let mut spans = vec![plan.events()];
            for &op in &trace {
                target.apply(&mut ctx, op);
                spans.push(plan.events());
            }
            target.settle();
            set_plan(&pools, None);
            spans
        })
        .join()
        .expect("trace run panicked")
    });
    // The target is gone: what it wrote on the way out is the image
    // after completion.
    let total = plan.events();
    let mut images = images.lock().expect("image log poisoned");
    images.capture(&pools, u64::MAX);

    let mut cut = zeroed;
    let mut first = 0;
    let mut images_recovered = 0;
    let mut violations = Vec::new();
    for (last, diff) in &images.diffs {
        for &(p, w, v) in diff {
            cut[p][w] = v;
        }
        let last = (*last).min(total);
        // SAFETY: the trace's thread has been joined; no other thread
        // touches the pools.
        unsafe { crash_to_cut(&pools, &cut) };
        let histories = |k| vec![History::cut(&trace, &spans, k)];
        violations.extend(recover_and_validate::<T>(
            &pools,
            first..=last,
            histories,
            cfg.use_link_cache,
        ));
        images_recovered += 1;
        if last == total {
            break;
        }
        first = last + 1;
    }
    for v in &mut violations {
        v.seed = cfg.seed;
    }
    CrashReport {
        target: T::NAME,
        seed: cfg.seed,
        total_events: total,
        event_kinds: plan.kind_counts(),
        points_tested: total as usize + 1,
        images_recovered,
        violations,
    }
}

/// Recovers the crashed pools once, audits the survivor once
/// ([`CrashTarget::audit`]) and checks it at each crash point in
/// `points`: the oracle over `histories(k)`, and every audit fault. A
/// refused recovery, or a panic in recovery or a check, is a structural
/// violation at each of the points. Both drivers end here.
fn recover_and_validate<'a, T: CrashTarget>(
    pools: &[Arc<PmemPool>],
    points: RangeInclusive<u64>,
    histories: impl Fn(u64) -> Vec<History<'a>>,
    link_cache: bool,
) -> Vec<Violation> {
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let target = match T::recover(pools) {
            Ok((target, _report)) => target,
            Err(detail) => {
                return points.clone().map(|k| Violation::structural(k, &*detail)).collect()
            }
        };
        let recovered: BTreeMap<u64, u64> = target.snapshot().into_iter().collect();
        let faults = target.audit();
        let check = |k: u64| {
            let mut violations = validate(&histories(k), &recovered, link_cache, T::UPSERT);
            for v in &mut violations {
                v.crash_point = k;
            }
            violations.extend(faults.iter().map(|f| Violation::structural(k, f)));
            violations
        };
        points.clone().flat_map(check).collect()
    }));
    checked.unwrap_or_else(|panic| {
        let msg = (panic.downcast_ref::<&str>().copied())
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        points
            .map(|k| Violation::structural(k, format!("panic in recovery or its checks: {msg}")))
            .collect()
    })
}

/// Configuration of the multi-threaded quiesce-and-crash mode.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Workload seed.
    pub seed: u64,
    /// Worker threads (each owns a disjoint key range).
    pub threads: usize,
    /// Operations per worker.
    pub ops_per_thread: u64,
    /// Keys per worker's private range.
    pub keys_per_thread: u64,
    /// Size of each pool in MiB.
    pub pool_mb: usize,
    /// Attach a link cache (lets each key lose its last completed update;
    /// see [`crate::oracle`]).
    pub use_link_cache: bool,
}

impl TortureConfig {
    /// A small smoke-test configuration.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            threads: 4,
            ops_per_thread: 2_000,
            keys_per_thread: 300,
            pool_mb: 64,
            use_link_cache: false,
        }
    }
}

/// Outcome of a quiesce-and-crash run.
#[derive(Debug)]
pub struct TortureReport {
    /// Target name.
    pub target: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Event index the crash image was captured at (None: the plan never
    /// fired and the image was captured after completion).
    pub crash_event: Option<u64>,
    /// Every violation found after recovery.
    pub violations: Vec<Violation>,
}

impl TortureReport {
    /// Panics with a reproduction recipe if the audit failed — or if the
    /// run never actually crashed mid-flight (a no-crash audit proves
    /// nothing, so silent degradation is an error too).
    pub fn assert_clean(&self) {
        assert!(
            self.crash_event.is_some(),
            "crashtest[{}]: the crash plan never fired mid-run (workload too small?); \
             reproduce with CRASHTEST_SEED={}",
            self.target,
            self.seed
        );
        for v in &self.violations {
            eprintln!("crashtest[{}] torture: {v}", self.target);
        }
        assert!(
            self.violations.is_empty(),
            "crashtest[{}]: {} violation(s) at crash event {:?}; reproduce with CRASHTEST_SEED={}",
            self.target,
            self.violations.len(),
            self.crash_event,
            self.seed
        );
    }
}

/// A worker's progress, read by the crash hook: ops invoked and ops
/// completed so far. The worker stores each with `Release` and the hook
/// loads them with `Acquire`, so a completed op the hook counts had
/// fenced its writes before the cut, and an op whose write reached the
/// cut (through the shadow's commit gate) is counted as invoked.
#[derive(Default)]
struct Progress {
    invoked: AtomicUsize,
    completed: AtomicUsize,
}

/// Runs one worker's ops over its own key range, counting each op as
/// invoked before it starts and completed after it returns. Returns the
/// ops it ran.
fn torture_worker<T: CrashTarget>(
    target: &T,
    cfg: &TortureConfig,
    tid: u64,
    progress: &Progress,
) -> Vec<TraceOp> {
    let mut ctx = target.register();
    let base = 1 + tid * cfg.keys_per_thread;
    // `.max(1)`: xorshift state must never be zero, whatever the seed.
    let mut x = (cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid + 1)).max(1);
    let mut trace = Vec::with_capacity(cfg.ops_per_thread as usize);
    for i in 1..=cfg.ops_per_thread as usize {
        let r = xorshift(&mut x) % 100;
        let key = base + xorshift(&mut x) % cfg.keys_per_thread.max(1);
        let op = if r < 45 {
            TraceOp::Insert(key, xorshift(&mut x) & 0xFFFF)
        } else if r < 80 {
            TraceOp::Remove(key)
        } else {
            TraceOp::Get(key)
        };
        trace.push(op);
        progress.invoked.store(i, Ordering::Release);
        target.apply(&mut ctx, op);
        progress.completed.store(i, Ordering::Release);
    }
    // No final `drain_all`: peers are still running, and an unconditional
    // drain would free a retired bucket-array region out from under a
    // concurrent reader mid-resize. Every operation's `end_op` already
    // collects what the epochs allow.
    trace
}

/// Runs the workers to completion over a fresh target on `pools` under
/// `plan`, one per `progress` cell. Returns the target and each worker's
/// ops.
fn run_workers<T: CrashTarget>(
    cfg: &TortureConfig,
    pools: &[Arc<PmemPool>],
    plan: &Arc<CrashPlan>,
    progress: &[Progress],
) -> (T, Vec<Vec<TraceOp>>) {
    let target = T::create(pools, cfg.use_link_cache);
    set_plan(pools, Some(plan));
    let traces = std::thread::scope(|s| {
        let workers: Vec<_> = (progress.iter().enumerate())
            .map(|(t, p)| {
                let target = &target;
                s.spawn(move || torture_worker(target, cfg, t as u64, p))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("torture worker panicked")).collect()
    });
    set_plan(pools, None);
    (target, traces)
}

/// Multi-threaded quiesce-and-crash: workers hammer the structure while
/// a crash plan's hook acts at one seeded mid-run event index. There it
/// reads each worker's completed count, captures every pool's durable
/// image in one cut, then reads each worker's invoked count. Workers run
/// to completion (quiesce), the pools crash to the captured cut, and
/// recovery is checked by the same oracle as [`run_crash_points`], with one
/// history per worker: its ops, completed count (owed) and invoked count
/// (started).
///
/// The crash point is drawn from an estimate of the event total; since
/// the multi-threaded total is not deterministic, the run is retried
/// with a halved crash point if the hook never reached it. A report whose
/// `crash_event` is still `None` fails [`TortureReport::assert_clean`].
pub fn run_torture<T: CrashTarget>(cfg: &TortureConfig) -> TortureReport {
    // Phase 1: estimate the total event count for this workload so the
    // crash point can land mid-run (the interleaving is not
    // deterministic, but the magnitude is stable).
    let est_total = {
        let plan = CrashPlan::new(|_, _| {});
        let progress: Vec<Progress> = (0..cfg.threads).map(|_| Progress::default()).collect();
        run_workers::<T>(cfg, &new_pools(cfg.pool_mb, T::POOLS), &plan, &progress);
        plan.events()
    };

    // Phase 2: crash at a seeded point in the middle half of the run.
    // Halve the target and retry if the plan missed (the rerun emitted
    // fewer events than the estimate).
    let mut x = cfg.seed | 1;
    let mut crash_at = est_total / 4 + xorshift(&mut x) % (est_total / 2).max(1);
    loop {
        let report = torture_once::<T>(cfg, crash_at);
        if report.crash_event.is_some() || crash_at == 0 {
            return report;
        }
        crash_at /= 2;
    }
}

/// One quiesce-and-crash attempt at a fixed crash point (see
/// [`run_torture`]).
fn torture_once<T: CrashTarget>(cfg: &TortureConfig, crash_at: u64) -> TortureReport {
    let pools = new_pools(cfg.pool_mb, T::POOLS);
    let progress: Arc<Vec<Progress>> =
        Arc::new((0..cfg.threads).map(|_| Progress::default()).collect());
    type Captured = (Vec<usize>, Vec<usize>, Vec<Vec<u64>>);
    let captured: Arc<Mutex<Option<Captured>>> = Arc::new(Mutex::new(None));
    let plan = CrashPlan::new({
        let pools = pools.clone();
        let progress = Arc::clone(&progress);
        let captured = Arc::clone(&captured);
        move |k, _| {
            if k != crash_at {
                return;
            }
            // Completed before the cut began: owed. Invoked by the time it
            // ended: may have landed. Nothing later can be in the image.
            let owed = progress.iter().map(|p| p.completed.load(Ordering::Acquire)).collect();
            let cut = capture_cut(&pools);
            let started = progress.iter().map(|p| p.invoked.load(Ordering::Acquire)).collect();
            *captured.lock().expect("capture cell poisoned") = Some((owed, started, cut));
        }
    });
    let (target, traces) = run_workers::<T>(cfg, &pools, &plan, &progress);
    drop(target);
    let captured = captured.lock().expect("capture cell poisoned").take();
    let fired = captured.is_some();
    let (owed, started, cut) = captured.unwrap_or_else(|| {
        // The second run had fewer events than estimated: crash after
        // completion instead (everything owed).
        let done: Vec<usize> = traces.iter().map(Vec::len).collect();
        (done.clone(), done, capture_cut(&pools))
    });
    // SAFETY: all workers joined above; no other thread uses the pools.
    unsafe { crash_to_cut(&pools, &cut) };

    let histories: Vec<History<'_>> = (traces.iter().zip(owed).zip(started))
        .map(|((ops, owed), started)| History { ops, owed, started })
        .collect();
    let mut violations = recover_and_validate::<T>(
        &pools,
        crash_at..=crash_at,
        |_| histories.clone(),
        cfg.use_link_cache,
    );
    for v in &mut violations {
        v.seed = cfg.seed;
    }
    TortureReport {
        target: T::NAME,
        seed: cfg.seed,
        crash_event: fired.then_some(crash_at),
        violations,
    }
}
