//! Shared experiment harness for regenerating every table and figure of
//! the paper's evaluation (§6), plus the beyond-paper shard, skew and
//! elasticity sweeps — all closed-loop and in-process. One binary,
//! `bench_all`, runs the [`experiments`] registry (`--only <id,…>` for a
//! subset); DESIGN.md has the experiment index. How fast the *system* is
//! over a socket is the `benchmark/` package's job, not this crate's.
//!
//! The harness follows the paper's methodology:
//!
//! * structures are pre-filled to the target size, with keys drawn from a
//!   range of twice the size (so a 50/50 insert/remove mix holds the size
//!   steady);
//! * workers run a fixed-duration timed loop; throughput is
//!   operations/second summed over workers;
//! * reported numbers are medians of [`REPEATS`] repetitions (§6.1 uses
//!   the median of 5);
//! * NVRAM write latency defaults to the paper's 125 ns and is injected
//!   once per write-back batch ([`pmem::LatencyModel`]);
//! * request streams come from the [`workload`] crate — uniform keys by
//!   default (the paper's setting), with the `DIST`/`SKEW` knobs
//!   selecting zipfian, hotspot, or latest traffic for every
//!   workload-driven experiment (BENCHMARKS.md, "Workload model").
//!
//! Every experiment builds a structured [`report::ExperimentReport`]
//! through the [`experiments`] registry; the text `bench_all` prints and
//! the `BENCH_results.json` it writes are two renderings of the same
//! report. BENCHMARKS.md at the repository root documents the
//! methodology, every knob, and the JSON schema.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use linkcache::LinkCache;
use logbased::{LogDirectory, RedoLog};
use logfree::LinkOps;
use nvalloc::{AptStats, MemMode, NvDomain, ThreadCtx};
use pmem::{FlushStats, LatencyModel, Mode, PmemPool, PoolBuilder};
pub use workload::Xorshift;
use workload::{KeyDist, KeySampler, MixOp, MixSpec};

/// Repetitions per configuration (paper: median of 5). Override with the
/// `REPEATS` environment variable.
pub const REPEATS: usize = 3;

/// Default timed-phase duration per repetition. Override with
/// `MEASURE_MS`.
pub const MEASURE_MS: u64 = 200;

/// Reads an environment knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Whether full-scale (paper-sized, up to 4M elements) runs are enabled
/// (`FULL=1`). Default keeps every harness under a few minutes.
pub fn full_scale() -> bool {
    env_u64("FULL", 0) == 1
}

/// All knobs of one evaluation run, resolved once (from the environment
/// via [`RunConfig::from_env`], or constructed directly by tests) and
/// passed explicitly to every experiment so a run is reproducible from
/// its recorded knob values alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Repetitions per configuration; the median is reported (`REPEATS`).
    pub repeats: usize,
    /// Timed-phase duration per repetition, ms (`MEASURE_MS`).
    pub measure_ms: u64,
    /// Paper-sized element counts (`FULL=1`).
    pub full: bool,
    /// Smoke scale (`SMOKE=1`): structure sizes capped at 1024 and
    /// request counts shrunk so the whole registry finishes in seconds.
    /// Used by the CI `bench-report` job and the schema-shape tests.
    pub smoke: bool,
    /// Default injected NVRAM write latency, ns (`NVRAM_NS`; the paper
    /// uses 125). Figure 6 sweeps its own latencies regardless.
    pub nvram_ns: u64,
    /// Pre-crash workload duration for recovery experiments, ms
    /// (`CRASH_WORK_MS`).
    pub crash_work_ms: u64,
    /// memtier requests per thread for Figure 11 (`MEMTIER_OPS`).
    pub memtier_ops: u64,
    /// Largest shard count the `fig12_shards` sweep reaches (`SHARDS`;
    /// powers of two from 1 up to this value, default 8).
    pub shards: u64,
    /// The key distribution every workload-driven experiment draws from
    /// (`DIST`, alias `SKEW`; default uniform — the paper's setting).
    /// `fig13_skew` sweeps its own distributions regardless.
    pub dist: KeyDist,
}

impl RunConfig {
    /// Resolves every knob from the environment (see BENCHMARKS.md).
    pub fn from_env() -> Self {
        let smoke = env_u64("SMOKE", 0) == 1;
        Self {
            repeats: env_u64("REPEATS", REPEATS as u64).max(1) as usize,
            measure_ms: env_u64("MEASURE_MS", MEASURE_MS),
            full: full_scale(),
            smoke,
            nvram_ns: env_u64("NVRAM_NS", 125),
            crash_work_ms: env_u64("CRASH_WORK_MS", if smoke { 20 } else { 100 }),
            memtier_ops: env_u64("MEMTIER_OPS", if smoke { 20_000 } else { 200_000 }),
            // Clamped: a shard needs its own pool, so triple digits is
            // already beyond any sane sweep.
            shards: env_u64("SHARDS", 8).clamp(1, 1024),
            dist: env_dist(),
        }
    }

    /// The shard counts the `fig12_shards` experiment sweeps: powers of
    /// two from 1 up to the `SHARDS` knob (default `{1, 2, 4, 8}`).
    pub fn shard_counts(&self) -> Vec<usize> {
        let mut counts = Vec::new();
        let mut n = 1u64;
        while n <= self.shards {
            counts.push(n as usize);
            let Some(next) = n.checked_mul(2) else { break };
            n = next;
        }
        counts
    }

    /// A deliberately tiny configuration for tests: smoke scale, one
    /// repetition, millisecond timed phases. Fast even in debug builds.
    pub fn smoke_test() -> Self {
        Self {
            repeats: 1,
            measure_ms: 5,
            full: false,
            smoke: true,
            nvram_ns: 125,
            crash_work_ms: 5,
            memtier_ops: 2_000,
            shards: 2,
            dist: KeyDist::Uniform,
        }
    }

    /// Largest structure size experiments may use at this scale
    /// (`u64::MAX` when uncapped).
    pub fn size_cap(&self) -> u64 {
        if self.smoke {
            1024
        } else {
            u64::MAX
        }
    }

    /// Keeps only the sizes within [`RunConfig::size_cap`] (always keeps
    /// the smallest so no experiment ends up empty).
    pub fn cap_sizes(&self, mut sizes: Vec<u64>) -> Vec<u64> {
        let cap = self.size_cap();
        sizes.sort_unstable();
        let first = sizes.first().copied();
        sizes.retain(|&s| s <= cap);
        if sizes.is_empty() {
            sizes.extend(first);
        }
        sizes
    }

    /// The knob values to record in `BENCH_results.json`, stringified.
    pub fn knobs(&self) -> Vec<(String, String)> {
        vec![
            ("REPEATS".into(), self.repeats.to_string()),
            ("MEASURE_MS".into(), self.measure_ms.to_string()),
            ("FULL".into(), (self.full as u64).to_string()),
            ("SMOKE".into(), (self.smoke as u64).to_string()),
            ("NVRAM_NS".into(), self.nvram_ns.to_string()),
            ("CRASH_WORK_MS".into(), self.crash_work_ms.to_string()),
            ("MEMTIER_OPS".into(), self.memtier_ops.to_string()),
            ("SHARDS".into(), self.shards.to_string()),
            ("DIST".into(), self.dist.label()),
        ]
    }
}

/// Resolves the key-distribution knob: `DIST` first, the `SKEW` alias
/// second, uniform otherwise. A malformed spec aborts the run — a knob
/// typo must not silently measure the wrong workload.
fn env_dist() -> KeyDist {
    let spec = std::env::var("DIST").or_else(|_| std::env::var("SKEW"));
    match spec {
        Ok(s) => KeyDist::parse(&s).unwrap_or_else(|e| panic!("bad DIST/SKEW knob: {e}")),
        Err(_) => KeyDist::Uniform,
    }
}

/// The structures of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsKind {
    /// Harris / lazy linked list.
    LinkedList,
    /// Hash table (one list per bucket).
    HashTable,
    /// Skip list.
    SkipList,
    /// External BST.
    Bst,
}

impl DsKind {
    /// Display name used in harness output.
    pub fn name(&self) -> &'static str {
        match self {
            DsKind::LinkedList => "linked-list",
            DsKind::HashTable => "hash-table",
            DsKind::SkipList => "skip-list",
            DsKind::Bst => "bst",
        }
    }

    /// The element counts Figure 5 sweeps for this structure at the
    /// given scale (`FULL` extends to 4M elements, `SMOKE` caps at 1024).
    pub fn fig5_sizes(&self, cfg: &RunConfig) -> Vec<u64> {
        let sizes = match self {
            DsKind::LinkedList => {
                if cfg.full {
                    vec![32, 128, 4096, 65_536]
                } else {
                    vec![32, 128, 4096, 16_384]
                }
            }
            _ => {
                if cfg.full {
                    vec![128, 4096, 65_536, 4_194_304]
                } else {
                    vec![128, 4096, 65_536]
                }
            }
        };
        cfg.cap_sizes(sizes)
    }
}

/// Per-thread state handed to workers.
pub struct Worker {
    /// The allocation/epoch context.
    pub ctx: ThreadCtx,
    /// Redo log (log-based structures only).
    pub log: Option<RedoLog>,
}

/// Uniform set interface over all durable structures under test.
pub trait SetDs: Sync + std::any::Any {
    /// Inserts `k -> v`; true if newly inserted.
    fn insert(&self, w: &mut Worker, k: u64, v: u64) -> bool;
    /// Removes `k`.
    fn remove(&self, w: &mut Worker, k: u64) -> Option<u64>;
    /// Looks up `k`.
    fn get(&self, w: &mut Worker, k: u64) -> Option<u64>;
    /// Registers a worker's context in `domain`, the structure's own.
    fn register(&self, domain: &Arc<NvDomain>) -> ThreadCtx;
    /// Downcast support (bulk-load fast paths in the harness).
    fn as_any(&self) -> &dyn std::any::Any;
}

macro_rules! impl_logfree {
    ($t:ty) => {
        impl SetDs for $t {
            fn insert(&self, w: &mut Worker, k: u64, v: u64) -> bool {
                <$t>::insert(self, &mut w.ctx, k, v).expect("pool sized for workload")
            }
            fn remove(&self, w: &mut Worker, k: u64) -> Option<u64> {
                <$t>::remove(self, &mut w.ctx, k)
            }
            fn get(&self, w: &mut Worker, k: u64) -> Option<u64> {
                <$t>::get(self, &mut w.ctx, k)
            }
            fn register(&self, domain: &Arc<NvDomain>) -> ThreadCtx {
                self.ops().register(domain)
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
    };
}

impl_logfree!(logfree::LinkedList);
impl_logfree!(logfree::HashTable);
impl_logfree!(logfree::SkipList);
impl_logfree!(logfree::Bst);

macro_rules! impl_logbased {
    ($t:ty) => {
        impl SetDs for $t {
            fn insert(&self, w: &mut Worker, k: u64, v: u64) -> bool {
                let log = w.log.as_mut().expect("log-based worker has a redo log");
                <$t>::insert(self, &mut w.ctx, log, k, v).expect("pool sized for workload")
            }
            fn remove(&self, w: &mut Worker, k: u64) -> Option<u64> {
                let log = w.log.as_mut().expect("log-based worker has a redo log");
                <$t>::remove(self, &mut w.ctx, log, k)
            }
            fn get(&self, w: &mut Worker, k: u64) -> Option<u64> {
                <$t>::get(self, &mut w.ctx, k)
            }
            fn register(&self, domain: &Arc<NvDomain>) -> ThreadCtx {
                domain.register()
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
    };
}

impl_logbased!(logbased::LazyList);
impl_logbased!(logbased::LazyHashTable);
impl_logbased!(logbased::LockSkipList);
impl_logbased!(logbased::BstTk);

/// A constructed system under test: pool + domain + structure (+ log
/// directory for the baselines).
pub struct Instance {
    /// The backing pool.
    pub pool: Arc<PmemPool>,
    /// The allocation domain.
    pub domain: Arc<NvDomain>,
    /// The structure under test.
    pub ds: Box<dyn SetDs>,
    /// Present for log-based baselines.
    pub logdir: Option<Arc<LogDirectory>>,
    /// Memory mode workers should run with.
    pub mem_mode: MemMode,
}

impl Instance {
    /// Creates a per-thread worker.
    pub fn worker(&self) -> Worker {
        let mut ctx = self.ds.register(&self.domain);
        ctx.set_mem_mode(self.mem_mode);
        let log = self.logdir.as_ref().map(|d| d.open(ctx.tid()));
        Worker { ctx, log }
    }
}

/// Which implementation family to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Log-free with link-and-persist only.
    LogFree,
    /// Log-free with the link cache enabled.
    LogFreeLc,
    /// Lock-based with redo logging (and intent-logged memory
    /// management).
    LogBased,
    /// Lock-based with redo logging but NV-epochs memory management
    /// (Figure 8's "identical memory management" configuration).
    LogBasedNvMem,
}

/// Pool size heuristic for `size` elements (with slack for churn).
pub fn pool_bytes(size: u64) -> usize {
    let per_elem = 512u64; // node + slab + skiplist towers + slack
    ((size * per_elem).max(64 << 20) as usize) + (64 << 20)
}

/// Builds an instance of `kind`/`flavor` over a pool in `mode` with the
/// given latency.
pub fn build(
    kind: DsKind,
    flavor: Flavor,
    size: u64,
    mode: Mode,
    latency: LatencyModel,
) -> Instance {
    let pool = PoolBuilder::new(pool_bytes(size)).mode(mode).latency(latency).build();
    let domain = NvDomain::create(Arc::clone(&pool));
    let buckets = (size.max(64) as usize).next_power_of_two();
    match flavor {
        Flavor::LogFree | Flavor::LogFreeLc => {
            let lc = (flavor == Flavor::LogFreeLc && mode != Mode::Volatile).then(|| {
                Arc::new(LinkCache::with_default_size(Arc::clone(&pool), logfree::marked::DIRTY))
            });
            let mk_ops = || LinkOps::new(Arc::clone(&pool), lc.clone());
            let mut ctx = domain.register();
            let ds: Box<dyn SetDs> = match kind {
                DsKind::LinkedList => Box::new(logfree::LinkedList::create(&domain, 1, mk_ops())),
                DsKind::HashTable => Box::new(
                    logfree::HashTable::create(&domain, 1, buckets, mk_ops())
                        .expect("pool sized for bucket array"),
                ),
                DsKind::SkipList => Box::new(
                    logfree::SkipList::create(&domain, &mut ctx, 1, mk_ops())
                        .expect("pool sized for head"),
                ),
                DsKind::Bst => Box::new(
                    logfree::Bst::create(&domain, &mut ctx, 1, mk_ops())
                        .expect("pool sized for sentinels"),
                ),
            };
            Instance { pool, domain, ds, logdir: None, mem_mode: MemMode::NvEpochs }
        }
        Flavor::LogBased | Flavor::LogBasedNvMem => {
            let logdir = Arc::new(LogDirectory::create(&domain, 0).expect("log directory"));
            let mut ctx = domain.register();
            let ds: Box<dyn SetDs> = match kind {
                DsKind::LinkedList => {
                    Box::new(logbased::LazyList::create(&domain, &mut ctx, 1).expect("create"))
                }
                DsKind::HashTable => Box::new(
                    logbased::LazyHashTable::create(&domain, &mut ctx, 1, buckets).expect("create"),
                ),
                DsKind::SkipList => {
                    Box::new(logbased::LockSkipList::create(&domain, &mut ctx, 1).expect("create"))
                }
                DsKind::Bst => {
                    Box::new(logbased::BstTk::create(&domain, &mut ctx, 1).expect("create"))
                }
            };
            let mem_mode = if flavor == Flavor::LogBased && mode != Mode::Volatile {
                MemMode::IntentLog
            } else {
                MemMode::NvEpochs
            };
            Instance { pool, domain, ds, logdir: Some(logdir), mem_mode }
        }
    }
}

// The RNG and all request generation live in the `workload` crate
// (re-exported `Xorshift` above); the harness only drives streams.

/// Pre-fills `inst` with `size` elements (every other key of the
/// `2 * size` range, the steady-state convention).
pub fn prefill(inst: &Instance, size: u64) {
    let mut w = inst.worker();
    // Sorted even keys: O(n) for the linked list via bulk load where
    // available, O(n log n) otherwise.
    if size == 0 {
        return;
    }
    let items: Vec<(u64, u64)> = (0..size).map(|i| (2 * i + 2, i)).collect();
    // Bulk-load fast path for the log-free linked list (bench prefill
    // would otherwise be O(n^2)).
    if let Some(ll) = as_linkedlist(&*inst.ds) {
        ll.bulk_load_sorted(&mut w.ctx, &items).expect("pool sized");
        return;
    }
    if let Some(ll) = as_lazylist(&*inst.ds) {
        ll.bulk_load_sorted(&mut w.ctx, &items).expect("pool sized");
        return;
    }
    // Insert in random order: sorted insertion would degenerate the
    // external BST into a list (the paper prefills with random keys).
    let mut items = items;
    let mut rng = Xorshift::new(0xF1F1);
    for i in (1..items.len()).rev() {
        let j = rng.bounded(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    for &(k, v) in &items {
        inst.ds.insert(&mut w, k, v);
    }
    w.ctx.drain_all();
}

fn as_linkedlist(ds: &dyn SetDs) -> Option<&logfree::LinkedList> {
    ds.as_any().downcast_ref()
}

fn as_lazylist(ds: &dyn SetDs) -> Option<&logbased::LazyList> {
    ds.as_any().downcast_ref()
}

/// Outcome of a timed run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Total operations completed.
    pub ops: u64,
    /// Timed duration.
    pub elapsed: Duration,
    /// Aggregated APT counters over all workers.
    pub apt: AptStats,
    /// Aggregated durable-write traffic over all workers during the
    /// timed phase (excludes prefill and post-run drains).
    pub flush: FlushStats,
}

impl RunStats {
    /// Operations per second (0.0 for an empty or zero-duration run —
    /// never NaN, so medians and JSON stay well-defined).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if self.ops == 0 || secs <= 0.0 {
            return 0.0;
        }
        self.ops as f64 / secs
    }
}

/// Runs a mixed workload: `update_pct` percent updates (half inserts,
/// half removes) and the rest lookups, keys drawn from `[1, 2 * size]`
/// according to `dist` (see [`workload::KeyDist`]).
pub fn run_mixed(
    inst: &Instance,
    threads: usize,
    duration: Duration,
    size: u64,
    update_pct: u32,
    dist: KeyDist,
    seed: u64,
) -> RunStats {
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let apt = atomic_cells::<4>();
    let flush = atomic_cells::<3>();
    let key_range = (2 * size).max(2);
    let spec = MixSpec { key_range, update_pct, seed, dist };
    // One sampler for all threads: zipfian construction is O(key_range)
    // (the zeta sum) and the sampler itself is `Copy`.
    let sampler = KeySampler::new(dist, key_range);
    let elapsed = std::thread::scope(|s| {
        for t in 0..threads {
            let stop = &stop;
            let total_ops = &total_ops;
            let barrier = &barrier;
            let apt = &apt;
            let flush = &flush;
            let mut w = inst.worker();
            let ds = &*inst.ds;
            s.spawn(move || {
                let mut stream = spec.stream_with(sampler, t);
                barrier.wait();
                let mut ops = 0u64;
                let before_apt = w.ctx.apt_stats();
                let before_flush = w.ctx.flusher.stats();
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..32 {
                        match stream.next().expect("infinite stream") {
                            MixOp::Insert(k, v) => {
                                ds.insert(&mut w, k, v);
                            }
                            MixOp::Remove(k) => {
                                ds.remove(&mut w, k);
                            }
                            MixOp::Get(k) => {
                                ds.get(&mut w, k);
                            }
                        }
                        ops += 1;
                    }
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
                let a = w.ctx.apt_stats();
                apt[0].fetch_add(a.alloc_hits - before_apt.alloc_hits, Ordering::Relaxed);
                apt[1].fetch_add(a.alloc_misses - before_apt.alloc_misses, Ordering::Relaxed);
                apt[2].fetch_add(a.unlink_hits - before_apt.unlink_hits, Ordering::Relaxed);
                apt[3].fetch_add(a.unlink_misses - before_apt.unlink_misses, Ordering::Relaxed);
                let f = w.ctx.flusher.stats().diff(before_flush);
                flush[0].fetch_add(f.clwbs, Ordering::Relaxed);
                flush[1].fetch_add(f.fences, Ordering::Relaxed);
                flush[2].fetch_add(f.sync_batches, Ordering::Relaxed);
                // Second rendezvous: elapsed is measured once every
                // worker has banked its counters (workers notice the
                // stop flag only every 32 ops, so the tail past
                // `duration` must be inside the denominator), but
                // before the uncounted drain work below.
                barrier.wait();
                w.ctx.drain_all();
            });
        }
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        barrier.wait();
        start.elapsed()
    });
    RunStats {
        ops: total_ops.load(Ordering::Relaxed),
        elapsed,
        apt: AptStats {
            alloc_hits: apt[0].load(Ordering::Relaxed),
            alloc_misses: apt[1].load(Ordering::Relaxed),
            unlink_hits: apt[2].load(Ordering::Relaxed),
            unlink_misses: apt[3].load(Ordering::Relaxed),
            ..AptStats::default()
        },
        flush: FlushStats {
            clwbs: flush[0].load(Ordering::Relaxed),
            fences: flush[1].load(Ordering::Relaxed),
            sync_batches: flush[2].load(Ordering::Relaxed),
        },
    }
}

fn atomic_cells<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ops: u64, elapsed: Duration) -> RunStats {
        RunStats { ops, elapsed, apt: AptStats::default(), flush: FlushStats::default() }
    }

    #[test]
    fn throughput_of_empty_run_is_zero_not_nan() {
        assert_eq!(stats(0, Duration::ZERO).throughput(), 0.0);
        assert_eq!(stats(0, Duration::from_millis(100)).throughput(), 0.0);
        assert_eq!(stats(1000, Duration::ZERO).throughput(), 0.0);
    }

    #[test]
    fn throughput_of_real_run_is_positive() {
        let t = stats(1000, Duration::from_millis(500)).throughput();
        assert!((t - 2000.0).abs() < 1e-6, "throughput {t}");
    }

    #[test]
    fn knobs_record_the_distributions() {
        let mut cfg = RunConfig::smoke_test();
        cfg.dist = KeyDist::ZIPF_99;
        let knobs = cfg.knobs();
        let get = |name: &str| {
            knobs.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone()).expect("knob present")
        };
        assert_eq!(get("DIST"), "zipf-0.99");
    }
}

/// Outcome of [`measure`]: the median repetition plus enough context to
/// build a [`report::Measurement`] row.
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// Median throughput over the repeats (ops/s).
    pub median: f64,
    /// Per-repeat throughputs in execution order (ops/s).
    pub per_repeat: Vec<f64>,
    /// Durable-write traffic of the median repetition's timed phase.
    pub flush: FlushStats,
    /// APT counters of the median repetition's timed phase.
    pub apt: AptStats,
}

/// Measures one configuration `cfg.repeats` times (fresh instance and
/// prefill per repetition, as the paper's methodology requires) and
/// returns the median repetition's numbers.
pub fn measure(
    mk: impl Fn() -> Instance,
    threads: usize,
    size: u64,
    update_pct: u32,
    cfg: &RunConfig,
) -> MeasuredRun {
    let duration = Duration::from_millis(cfg.measure_ms);
    let mut runs: Vec<RunStats> = Vec::with_capacity(cfg.repeats);
    for rep in 0..cfg.repeats.max(1) {
        let inst = mk();
        prefill(&inst, size);
        runs.push(run_mixed(&inst, threads, duration, size, update_pct, cfg.dist, rep as u64 + 1));
    }
    let per_repeat: Vec<f64> = runs.iter().map(RunStats::throughput).collect();
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by(|&a, &b| per_repeat[a].partial_cmp(&per_repeat[b]).expect("finite throughput"));
    let median_idx = order[order.len() / 2];
    MeasuredRun {
        median: per_repeat[median_idx],
        per_repeat,
        flush: runs[median_idx].flush,
        apt: runs[median_idx].apt,
    }
}
