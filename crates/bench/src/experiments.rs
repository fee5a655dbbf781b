//! The experiment registry: every figure/table of the paper's §6
//! evaluation as a function from a [`RunConfig`] to a structured
//! [`ExperimentReport`].
//!
//! The `bench_all` binary runs [`registry`] — all of it, or the ids
//! named by `--only` — prints [`crate::report::render_text`] of each result and
//! serializes the reports into `BENCH_results.json`. Adding an
//! experiment means adding a function here and a row to [`registry`];
//! both renderings pick it up automatically.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nvalloc::{MemMode, NvDomain};
use nvmemcached::memtier::{run_cache, Request, RequestStream, RunResult, Workload};
use nvmemcached::{ClhtMemcached, NvMemcached, ShardedNvMemcached, VolatileMemcached};
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder, TABLE1};

use workload::KeyDist;

use crate::report::{ExperimentReport, Measurement};
use crate::{build, measure, prefill, run_mixed, DsKind, Flavor, MeasuredRun, RunConfig};

/// One registry entry: a stable id, a human title, and the experiment
/// function.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Stable id used in `BENCH_results.json` and `bench_all --only`.
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Runs the experiment at the given scale.
    pub run: fn(&RunConfig) -> ExperimentReport,
}

/// Every experiment of the evaluation, in paper order (Table 1, then
/// Figures 5–11), plus the beyond-paper shard sweep (`fig12_shards`),
/// skew sweep (`fig13_skew`), live-resize timeline (`fig15_resize`) and
/// live-reshard timeline (`fig16_reshard`).
pub fn registry() -> [ExperimentSpec; 13] {
    [
        ExperimentSpec {
            id: "table1",
            title: "latency cost model + simulator calibration",
            run: table1,
        },
        ExperimentSpec { id: "fig5", title: "log-free vs log-based update throughput", run: fig5 },
        ExperimentSpec { id: "fig6", title: "throughput ratio vs NVRAM write latency", run: fig6 },
        ExperimentSpec { id: "fig7", title: "durable vs volatile linked list", run: fig7 },
        ExperimentSpec {
            id: "fig8",
            title: "link-and-persist vs link-cache contributions",
            run: fig8,
        },
        ExperimentSpec { id: "fig9a", title: "active-page-table hit rates", run: fig9a },
        ExperimentSpec {
            id: "fig9b",
            title: "NV-epochs vs intent-logged memory management",
            run: fig9b,
        },
        ExperimentSpec { id: "fig10", title: "recovery time vs structure size", run: fig10 },
        ExperimentSpec {
            id: "fig11",
            title: "NV-Memcached vs Memcached vs memcached-clht",
            run: fig11,
        },
        ExperimentSpec {
            id: "fig12_shards",
            title: "sharded NV-Memcached throughput and recovery vs shard count",
            run: fig12_shards,
        },
        ExperimentSpec {
            id: "fig13_skew",
            title: "sharded NV-Memcached under skewed traffic (dist x shard sweep)",
            run: fig13_skew,
        },
        ExperimentSpec {
            id: "fig15_resize",
            title: "throughput timeline across a live 4x grow on the sharded cache",
            run: fig15_resize,
        },
        ExperimentSpec {
            id: "fig16_reshard",
            title: "throughput timeline across a live 2->4 reshard, plus imbalance before/after",
            run: fig16_reshard,
        },
    ]
}

/// The configuration a ratio row was measured under.
#[derive(Debug, Clone, Copy)]
struct RowCfg {
    kind: DsKind,
    threads: usize,
    size: u64,
    latency_ns: u64,
}

/// Builds the standard ratio row: subject system vs comparison system,
/// carrying the subject's per-repeat spread and durable-write traffic.
fn ratio_row(
    label: String,
    row: RowCfg,
    ours: MeasuredRun,
    base: MeasuredRun,
    paper_ratio: Option<f64>,
) -> Measurement {
    Measurement {
        structure: Some(row.kind.name().to_string()),
        threads: Some(row.threads as u64),
        size: Some(row.size),
        latency_ns: Some(row.latency_ns),
        median_throughput: Some(ours.median),
        repeat_throughputs: ours.per_repeat.clone(),
        baseline_throughput: Some(base.median),
        ratio: Some(ours.median / base.median.max(1e-9)),
        paper_ratio,
        flush: Some(ours.flush),
        ..Measurement::new(label)
    }
}

/// The log-free flavor the paper's system selects at this thread count:
/// the link cache is enabled single-threaded and turned off at high
/// thread counts (§6.2).
fn logfree_flavor(threads: usize) -> Flavor {
    if threads == 1 {
        Flavor::LogFreeLc
    } else {
        Flavor::LogFree
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: the background latency cost model, plus a calibration check
/// that the simulator's injected batch pause costs what the model says
/// and that N write-backs + 1 fence cost one batch, not N.
pub fn table1(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table1",
        "cache/DRAM/NVRAM (projected) latencies and simulator calibration",
        "rows: memory technology (read/write ns); calibration: model ns vs measured ns per sync",
    );
    for t in TABLE1 {
        report.measurements.push(
            Measurement::new(t.name)
                .metric("read_ns", t.read_ns as f64)
                .metric("write_ns", t.write_ns as f64),
        );
    }
    report.measurements.push(
        Measurement::new("paper default NVRAM write latency")
            .metric("write_ns", LatencyModel::PAPER_DEFAULT.write_ns as f64),
    );

    let iters: u32 = if cfg.smoke { 500 } else { 2_000 };
    for write_ns in [125u64, 1_250, 12_500] {
        let pool =
            PoolBuilder::new(1 << 20).mode(Mode::Perf).latency(LatencyModel::new(write_ns)).build();
        let mut f = pool.flusher();
        let a = pool.heap_start();
        for _ in 0..100 {
            f.clwb(a);
            f.fence();
        }
        let t = Instant::now();
        for _ in 0..iters {
            f.clwb(a);
            f.fence();
        }
        let per = t.elapsed().as_nanos() as u64 / iters as u64;
        report.measurements.push(
            Measurement {
                latency_ns: Some(write_ns),
                ..Measurement::new(format!("calibration model={write_ns}ns"))
            }
            .metric("measured_ns_per_sync", per as f64),
        );
    }

    let pool = PoolBuilder::new(1 << 20).mode(Mode::Perf).latency(LatencyModel::new(1_250)).build();
    let mut f = pool.flusher();
    let iters: u32 = if cfg.smoke { 250 } else { 1_000 };
    for batch in [1usize, 4, 16] {
        let t = Instant::now();
        for _ in 0..iters {
            for i in 0..batch {
                f.clwb(pool.heap_start() + 64 * i);
            }
            f.fence();
        }
        let per = t.elapsed().as_nanos() as u64 / iters as u64;
        report.measurements.push(
            Measurement::new(format!("batch of {batch} write-backs"))
                .metric("batch_size", batch as f64)
                .metric("measured_ns_per_sync", per as f64),
        );
    }
    // Cost-model rows run no workload: no distribution applies.
    report.fill_dist("n/a");
    report
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Paper-reported Figure 5 ratios, indexed by (structure, size, threads).
fn fig5_paper_ratio(kind: DsKind, size: u64, threads: usize) -> Option<f64> {
    let table: &[(u64, f64, f64)] = match kind {
        // (size, 1-thread ratio, 8-thread ratio)
        DsKind::SkipList => {
            &[(128, 2.22, 2.56), (4096, 5.88, 6.67), (65_536, 7.69, 8.33), (4_194_304, 10.0, 9.09)]
        }
        DsKind::LinkedList => {
            &[(32, 2.17, 1.56), (128, 1.85, 1.17), (4096, 1.43, 1.23), (65_536, 1.09, 1.05)]
        }
        DsKind::HashTable => {
            &[(128, 3.03, 1.92), (4096, 3.03, 2.04), (65_536, 2.27, 1.56), (4_194_304, 1.32, 1.18)]
        }
        DsKind::Bst => {
            &[(128, 2.13, 1.28), (4096, 1.69, 1.22), (65_536, 1.14, 1.05), (4_194_304, 1.11, 1.02)]
        }
    };
    table
        .iter()
        .find(|&&(s, _, _)| s == size)
        .map(|&(_, t1, t8)| if threads == 1 { t1 } else { t8 })
}

/// Figure 5: update throughput of the log-free structures relative to
/// the redo-log-based implementations, across sizes, at 1 and 8 threads.
/// Workload: 50% inserts / 50% removes of random keys (§6.2).
pub fn fig5(cfg: &RunConfig) -> ExperimentReport {
    let latency = LatencyModel::new(cfg.nvram_ns);
    let mut report = ExperimentReport::new(
        "fig5",
        "log-free vs log-based update throughput (50% insert / 50% remove)",
        "x: structure size per structure; y: throughput ratio log-free/log-based at 1 and 8 threads",
    );
    for kind in [DsKind::SkipList, DsKind::LinkedList, DsKind::HashTable, DsKind::Bst] {
        for size in kind.fig5_sizes(cfg) {
            for threads in [1usize, 8] {
                let flavor = logfree_flavor(threads);
                let ours = measure(
                    || build(kind, flavor, size, Mode::Perf, latency),
                    threads,
                    size,
                    100, // updates only: 50/50 insert/remove
                    cfg,
                );
                let base = measure(
                    || build(kind, Flavor::LogBased, size, Mode::Perf, latency),
                    threads,
                    size,
                    100,
                    cfg,
                );
                report.measurements.push(ratio_row(
                    format!("{} size={size} threads={threads}", kind.name()),
                    RowCfg { kind, threads, size, latency_ns: cfg.nvram_ns },
                    ours,
                    base,
                    fig5_paper_ratio(kind, size, threads),
                ));
            }
        }
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// Figure 6: throughput relative to the log-based implementation as
/// NVRAM write latency grows (125 ns → 12.5 µs). Linked list, 1024
/// elements — small enough that reads are served from cache, so the
/// sync-count ratio dominates (§6.2).
pub fn fig6(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig6",
        "throughput ratio vs NVRAM write latency (linked list, 1024 elements)",
        "x: injected NVRAM write latency (ns); y: throughput ratio log-free/log-based",
    );
    let size = 1024u64.min(cfg.size_cap());
    let paper: &[(u64, f64, f64)] = &[(125, 1.20, 1.13), (1_250, 2.15, 1.81), (12_500, 4.79, 4.12)];
    for &(ns, p1, p8) in paper {
        let latency = LatencyModel::new(ns);
        for (threads, paper) in [(1usize, p1), (8usize, p8)] {
            let ours = measure(
                || build(DsKind::LinkedList, logfree_flavor(threads), size, Mode::Perf, latency),
                threads,
                size,
                100,
                cfg,
            );
            let base = measure(
                || build(DsKind::LinkedList, Flavor::LogBased, size, Mode::Perf, latency),
                threads,
                size,
                100,
                cfg,
            );
            report.measurements.push(ratio_row(
                format!("latency={ns}ns threads={threads}"),
                RowCfg { kind: DsKind::LinkedList, threads, size, latency_ns: ns },
                ours,
                base,
                Some(paper),
            ));
        }
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Figure 7: the durable linked list relative to an NVRAM-oblivious
/// (volatile) implementation. The durability overhead is constant per
/// operation, so the ratio approaches 1 as traversal dominates (§6.2).
pub fn fig7(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig7",
        "durable vs volatile (NVRAM-oblivious) linked list",
        "x: list size; y: throughput ratio durable/volatile at 1 and 8 threads",
    );
    let paper: &[(u64, f64, f64)] =
        &[(32, 0.28, 0.37), (128, 0.47, 0.52), (4096, 0.65, 0.81), (65_536, 0.83, 0.86)];
    let latency = LatencyModel::PAPER_DEFAULT;
    for &(size, p1, p8) in paper {
        if size > cfg.size_cap() {
            continue;
        }
        for (threads, paper) in [(1usize, p1), (8usize, p8)] {
            let durable = measure(
                || build(DsKind::LinkedList, logfree_flavor(threads), size, Mode::Perf, latency),
                threads,
                size,
                100,
                cfg,
            );
            let volatile = measure(
                || {
                    build(
                        DsKind::LinkedList,
                        Flavor::LogFree,
                        size,
                        Mode::Volatile,
                        LatencyModel::ZERO,
                    )
                },
                threads,
                size,
                100,
                cfg,
            );
            report.measurements.push(ratio_row(
                format!("size={size} threads={threads}"),
                RowCfg { kind: DsKind::LinkedList, threads, size, latency_ns: latency.write_ns },
                durable,
                volatile,
                Some(paper),
            ));
        }
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Figure 8: isolating the contribution of link-and-persist (LP) and the
/// link cache (LC). Both log-free variants normalised to the log-based
/// implementation, all using identical (NV-epochs) memory management;
/// 1024-element structures, 100% updates (§6.3).
pub fn fig8(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig8",
        "link-and-persist (LP) vs link cache (LC), identical memory management",
        "rows: structure x threads; y: throughput normalised to log-based (NV-epochs everywhere)",
    );
    let size = 1024u64.min(cfg.size_cap());
    let latency = LatencyModel::PAPER_DEFAULT;
    // (kind, threads, paper LP ratio, paper LC ratio)
    let paper: &[(DsKind, usize, f64, f64)] = &[
        (DsKind::HashTable, 1, 1.90, 2.73),
        (DsKind::HashTable, 8, 1.61, 1.63),
        (DsKind::SkipList, 1, 9.90, 10.64),
        (DsKind::SkipList, 8, 8.44, 7.74),
        (DsKind::LinkedList, 1, 1.17, 1.19),
        (DsKind::LinkedList, 8, 1.04, 1.05),
        (DsKind::Bst, 1, 1.49, 1.49),
        (DsKind::Bst, 8, 1.02, 0.96),
    ];
    for &(kind, threads, p_lp, p_lc) in paper {
        let base = measure(
            || build(kind, Flavor::LogBasedNvMem, size, Mode::Perf, latency),
            threads,
            size,
            100,
            cfg,
        );
        let lp = measure(
            || build(kind, Flavor::LogFree, size, Mode::Perf, latency),
            threads,
            size,
            100,
            cfg,
        );
        let lc = measure(
            || build(kind, Flavor::LogFreeLc, size, Mode::Perf, latency),
            threads,
            size,
            100,
            cfg,
        );
        let row = RowCfg { kind, threads, size, latency_ns: latency.write_ns };
        report.measurements.push(ratio_row(
            format!("{} threads={threads} LP", kind.name()),
            row,
            lp,
            base.clone(),
            Some(p_lp),
        ));
        report.measurements.push(ratio_row(
            format!("{} threads={threads} LC", kind.name()),
            row,
            lc,
            base,
            Some(p_lc),
        ));
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 9a
// ---------------------------------------------------------------------------

/// Figure 9a: active page table hit rates for allocations (inserts) and
/// deallocations (deletes) as the structure grows. Skip list, 4 KiB
/// pages, trim threshold 16 (§6.3). The paper reports near-100% insert
/// hit rates at all sizes, with delete hit rates declining past ~1M
/// nodes.
pub fn fig9a(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig9a",
        "APT hit rates (skip list, 4 KiB pages, trim at 16)",
        "x: structure size; y: insert (allocation) and delete (unlink) APT hit rates",
    );
    let mut sizes: Vec<u64> = vec![1_024, 16_384, 65_536, 262_144];
    if cfg.full {
        sizes.push(1_048_576);
        sizes.push(4_194_304);
    }
    // Hit rates depend on reclamation churn accumulated over the run, so
    // this experiment uses twice the standard timed phase (the historical
    // default: 400 ms against the global 200 ms). Documented in
    // BENCHMARKS.md.
    let ms = cfg.measure_ms * 2;
    for size in cfg.cap_sizes(sizes) {
        let inst = build(DsKind::SkipList, Flavor::LogFree, size, Mode::Perf, LatencyModel::ZERO);
        prefill(&inst, size);
        let stats = run_mixed(&inst, 4, Duration::from_millis(ms), size, 100, cfg.dist, 7);
        report.measurements.push(
            Measurement {
                structure: Some(DsKind::SkipList.name().to_string()),
                threads: Some(4),
                size: Some(size),
                median_throughput: Some(stats.throughput()),
                repeat_throughputs: vec![stats.throughput()],
                flush: Some(stats.flush),
                ..Measurement::new(format!("skip-list size={size}"))
            }
            .apt_metrics(&stats.apt),
        );
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 9b
// ---------------------------------------------------------------------------

/// Paper-reported Figure 9b ratios (NV-epochs over intent logging).
fn fig9b_paper_ratio(kind: DsKind, size: u64) -> Option<f64> {
    let table: &[(u64, f64)] = match kind {
        DsKind::HashTable => &[(128, 1.52), (4096, 1.46), (65_536, 1.02), (4_194_304, 0.90)],
        DsKind::Bst => &[(128, 1.61), (4096, 1.38), (65_536, 1.03), (4_194_304, 1.10)],
        DsKind::SkipList => &[(128, 3.89), (4096, 3.18), (65_536, 2.00), (4_194_304, 1.37)],
        DsKind::LinkedList => &[(32, 1.45), (128, 1.31), (4096, 1.07), (65_536, 1.01)],
    };
    table.iter().find(|&&(s, _)| s == size).map(|&(_, r)| r)
}

/// Figure 9b: throughput improvement attributable to NV-epochs alone —
/// the same log-free structure with NV-epochs memory management versus
/// traditional per-operation intent logging (§5.1, §6.3); 4 threads.
pub fn fig9b(cfg: &RunConfig) -> ExperimentReport {
    let latency = LatencyModel::new(cfg.nvram_ns);
    let mut report = ExperimentReport::new(
        "fig9b",
        "throughput improvement due to NV-epochs (vs per-op intent logging)",
        "x: structure size per structure; y: throughput ratio NV-epochs/intent-log at 4 threads",
    );
    for kind in [DsKind::HashTable, DsKind::Bst, DsKind::SkipList, DsKind::LinkedList] {
        for size in kind.fig5_sizes(cfg) {
            let nv = measure(
                || build(kind, Flavor::LogFree, size, Mode::Perf, latency),
                4,
                size,
                100,
                cfg,
            );
            let logged = measure(
                || {
                    let mut inst = build(kind, Flavor::LogFree, size, Mode::Perf, latency);
                    inst.mem_mode = MemMode::IntentLog;
                    inst
                },
                4,
                size,
                100,
                cfg,
            );
            report.measurements.push(ratio_row(
                format!("{} size={size}", kind.name()),
                RowCfg { kind, threads: 4, size, latency_ns: cfg.nvram_ns },
                nv,
                logged,
                fig9b_paper_ratio(kind, size),
            ));
        }
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// Crashes one structure mid-workload and times its recovery (§6.4):
/// bring the structure to a consistent state + free
/// allocated-but-unreachable nodes.
fn fig10_measure(kind: DsKind, size: u64, cfg: &RunConfig) -> (Duration, u64, u64) {
    let inst = build(kind, Flavor::LogFree, size, Mode::CrashSim, LatencyModel::ZERO);
    prefill(&inst, size);
    // Touch the structure so active pages and in-flight deletions exist.
    let _ = run_mixed(&inst, 2, Duration::from_millis(cfg.crash_work_ms), size, 100, cfg.dist, 3);
    let pool = Arc::clone(&inst.pool);
    drop(inst);
    // SAFETY: all workers have been joined by run_mixed.
    unsafe { pool.simulate_crash().expect("crash-sim pool") };

    let t = Instant::now();
    let domain = NvDomain::attach(Arc::clone(&pool));
    let ops = logfree::LinkOps::new(Arc::clone(&pool), None);
    let report = match kind {
        DsKind::LinkedList => logfree::LinkedList::restart(&domain, 1, ops).map(|r| r.1),
        DsKind::HashTable => logfree::HashTable::restart(&domain, 1, ops).map(|r| r.1),
        DsKind::SkipList => logfree::SkipList::restart(&domain, 1, ops).map(|r| r.1),
        DsKind::Bst => logfree::Bst::restart(&domain, 1, ops).map(|r| r.1),
    }
    .expect("an intact structure");
    (t.elapsed(), report.unlinked, report.heap.leaks_freed)
}

/// Figure 10: data structure recovery times as a function of size —
/// stop updates at an arbitrary point, drop everything not durably
/// written back, then time recovery + leak reclamation (§6.4). The
/// paper reports < 5 ms for hash table / BST / skip list even at 4M
/// elements, and ~16 ms for a 64K-element linked list (linear search, so
/// mark-and-sweep-style recovery).
pub fn fig10(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig10",
        "recovery time vs structure size",
        "x: structure size; y: recovery time (ns), with fix-up and leak counts",
    );
    for kind in [DsKind::HashTable, DsKind::Bst, DsKind::SkipList, DsKind::LinkedList] {
        let mut sizes: Vec<u64> = match kind {
            DsKind::LinkedList => vec![32, 128, 4096, 65_536],
            _ => vec![128, 4096, 65_536],
        };
        if cfg.full && kind != DsKind::LinkedList {
            sizes.push(4_194_304);
        }
        for size in cfg.cap_sizes(sizes) {
            let (dur, fixups, leaks) = fig10_measure(kind, size, cfg);
            report.measurements.push(
                Measurement {
                    structure: Some(kind.name().to_string()),
                    size: Some(size),
                    ..Measurement::new(format!("{} size={size}", kind.name()))
                }
                .metric("recovery_ns", dur.as_nanos() as f64)
                .metric("fixups", fixups as f64)
                .metric("leaks_freed", leaks as f64),
            );
        }
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

const FIG11_THREADS: usize = 4; // both server and client default to 4 (§6.5)

/// Create-time bucket count for the durable caches in every cache
/// experiment. Deliberately a small fixed table, **not** sized to the
/// key range: since the incremental-resize work the capacity knob is
/// gone — the caches grow themselves (4x lazy rehashes) as the warm-up
/// fills them, which is exactly how a long-running production cache
/// reaches its steady-state geometry. The volatile CLHT model keeps its
/// create-time sizing (stock CLHT resizes internally; modeling that is
/// out of scope for a baseline that exists for throughput comparison).
const CREATE_BUCKETS: usize = 1024;

fn fig11_pool_bytes(key_range: u64) -> usize {
    ((key_range * 256).max(64 << 20) as usize) + (64 << 20)
}

/// Runs one memtier timed phase `repeats` times over the same warmed
/// cache and returns the median repetition plus every per-repeat
/// throughput. Short in-process runs are scheduling-noisy; the median
/// keeps the fig11/fig12 rows comparable between two records.
fn median_memtier(
    repeats: usize,
    mut run: impl FnMut() -> RunResult,
) -> (RunResult, usize, Vec<f64>) {
    let runs: Vec<RunResult> = (0..repeats.max(1)).map(|_| run()).collect();
    let throughputs: Vec<f64> = runs.iter().map(RunResult::throughput).collect();
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by(|&a, &b| throughputs[a].partial_cmp(&throughputs[b]).expect("finite throughput"));
    let median = order[order.len() / 2];
    (runs[median], median, throughputs)
}

/// Figure 11: NV-Memcached versus volatile Memcached and memcached-clht.
/// Left plot: throughput under a 1:4 set:get mix across key ranges — the
/// paper reports *no notable drop* between the three systems. Right
/// plot: warm-up time of the volatile systems versus NV-Memcached's
/// recovery time — up to three orders of magnitude faster (§6.5).
pub fn fig11(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig11",
        "NV-Memcached vs Memcached vs memcached-clht (1:4 set:get)",
        "x: key range; y: requests/s per system; metrics: get hit rate, warm-up vs recovery ms",
    );
    let mut ranges: Vec<u64> = vec![1_000, 10_000, 100_000];
    if cfg.full {
        ranges.push(1_000_000);
    }
    if cfg.smoke {
        ranges.truncate(1);
    }
    let ops = cfg.memtier_ops;
    for &range in &ranges {
        let wl = Workload::paper(range, 42).with_dist(cfg.dist);

        // --- stock memcached model ---
        let v = VolatileMemcached::new();
        let t = Instant::now();
        for k in wl.warmup_keys() {
            v.set(k, k);
        }
        let warm_v = t.elapsed();
        let (r_v, _, reps_v) =
            median_memtier(cfg.repeats, || run_cache(&v, FIG11_THREADS, ops, wl));
        report.measurements.push(
            Measurement {
                structure: Some("memcached".to_string()),
                threads: Some(FIG11_THREADS as u64),
                size: Some(range),
                median_throughput: Some(r_v.throughput()),
                repeat_throughputs: reps_v,
                ..Measurement::new(format!("memcached range={range}"))
            }
            .metric("get_hit_rate", r_v.hit_rate())
            .metric("warmup_ms", warm_v.as_secs_f64() * 1e3),
        );

        // --- memcached-clht model ---
        let pool = PoolBuilder::new(fig11_pool_bytes(range)).mode(Mode::Volatile).build();
        let c = ClhtMemcached::create(pool, range as usize).expect("pool sized");
        let t = Instant::now();
        {
            let mut ctx = c.register();
            for k in wl.warmup_keys() {
                c.set(&mut ctx, k, k).expect("pool sized");
            }
        }
        let warm_c = t.elapsed();
        let (r_c, _, reps_c) =
            median_memtier(cfg.repeats, || run_cache(&c, FIG11_THREADS, ops, wl));
        report.measurements.push(
            Measurement {
                structure: Some("memcached-clht".to_string()),
                threads: Some(FIG11_THREADS as u64),
                size: Some(range),
                median_throughput: Some(r_c.throughput()),
                repeat_throughputs: reps_c,
                ..Measurement::new(format!("memcached-clht range={range}"))
            }
            .metric("get_hit_rate", r_c.hit_rate())
            .metric("warmup_ms", warm_c.as_secs_f64() * 1e3),
        );

        // --- NV-Memcached ---
        let pool = PoolBuilder::new(fig11_pool_bytes(range))
            .mode(Mode::CrashSim)
            .latency(LatencyModel::ZERO)
            .build();
        let mc = NvMemcached::create(Arc::clone(&pool), CREATE_BUCKETS, usize::MAX / 2, true)
            .expect("pool sized");
        {
            let mut ctx = mc.register();
            for k in wl.warmup_keys() {
                mc.set(&mut ctx, k, k).expect("pool sized");
            }
        }
        // Durable-write traffic per repetition, via pool-level snapshot
        // pairs (warm-up's flushers have all dropped by now; each timed
        // phase joins its workers, dropping theirs).
        let mut flushes = Vec::with_capacity(cfg.repeats);
        let (r_n, median_rep, reps_n) = median_memtier(cfg.repeats, || {
            let flush_before = pool.flush_stats();
            let r = run_cache(&mc, FIG11_THREADS, ops, wl);
            flushes.push(pool.flush_stats().diff(flush_before));
            r
        });
        let flush_run = flushes[median_rep];
        // Crash it and time recovery.
        drop(mc);
        // SAFETY: all workers joined by run_cache.
        unsafe { pool.simulate_crash().expect("crash-sim pool") };
        let t = Instant::now();
        let (mc2, _report) = NvMemcached::recover(Arc::clone(&pool), usize::MAX / 2).unwrap();
        let recover_n = t.elapsed();
        let _ = mc2.len();
        report.measurements.push(
            Measurement {
                structure: Some("nv-memcached".to_string()),
                threads: Some(FIG11_THREADS as u64),
                size: Some(range),
                median_throughput: Some(r_n.throughput()),
                repeat_throughputs: reps_n,
                flush: Some(flush_run),
                ..Measurement::new(format!("nv-memcached range={range}"))
            }
            .metric("get_hit_rate", r_n.hit_rate())
            .metric("recovery_ms", recover_n.as_secs_f64() * 1e3),
        );
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 12 (beyond the paper): shard sweep
// ---------------------------------------------------------------------------

/// Per-shard pool size: the key range splits across shards, with a floor
/// so tiny shards still fit their bucket regions and churn slack.
fn fig12_pool_bytes(key_range: u64, n_shards: usize) -> usize {
    ((key_range * 320 / n_shards as u64).max(16 << 20) as usize) + (16 << 20)
}

fn fig12_pools(key_range: u64, n_shards: usize) -> Vec<Arc<PmemPool>> {
    (0..n_shards)
        .map(|_| {
            PoolBuilder::new(fig12_pool_bytes(key_range, n_shards))
                .mode(Mode::CrashSim)
                .latency(LatencyModel::ZERO)
                .build()
        })
        .collect()
}

/// Figure 12 (beyond the paper): the sharded NV-Memcached under the same
/// 1:4 set:get mix as Figure 11, sweeping the shard count. Each shard
/// owns its own pool/domain/table/eviction clock, so throughput should rise
/// with the shard count while single-shard behavior matches Figure 11's
/// NV-Memcached; recovery is one thread per shard, so recovery time
/// should *fall* as shards shrink. Medians over `REPEATS` fresh
/// cache+warm-up builds per shard count.
pub fn fig12_shards(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig12_shards",
        "sharded NV-Memcached: throughput and parallel recovery vs shard count (1:4 set:get)",
        "x: shard count; y: requests/s and recovery ms; shard=1 equals the unsharded cache",
    );
    // The key range is NOT smoke-capped: labels stay identical across
    // scales, so two records line up row for row (request counts shrink
    // instead).
    let range: u64 = 100_000;
    let ops = cfg.memtier_ops;
    let wl = Workload::paper(range, 42).with_dist(cfg.dist);
    for n_shards in cfg.shard_counts() {
        // Fresh pools + cache + warm-up per repetition (the paper's
        // fresh-instance methodology); each repetition also crashes and
        // times the parallel recovery.
        let mut extras = Vec::with_capacity(cfg.repeats);
        let (r, median_rep, throughputs) = median_memtier(cfg.repeats, || {
            let pools = fig12_pools(range, n_shards);
            let mc = ShardedNvMemcached::create(&pools, CREATE_BUCKETS, usize::MAX / 2, true)
                .expect("pools sized");
            {
                let mut ctx = mc.register();
                for k in wl.warmup_keys() {
                    mc.set(&mut ctx, k, k).expect("pools sized");
                }
            }
            let flush_before = mc.flush_stats();
            let r = run_cache(&mc, FIG11_THREADS, ops, wl);
            let flush_run = mc.flush_stats().diff(flush_before);
            // Crash every shard and time the parallel recovery.
            drop(mc);
            for pool in &pools {
                // SAFETY: all workers joined by run_cache.
                unsafe { pool.simulate_crash().expect("crash-sim pool") };
            }
            let t = Instant::now();
            let (mc2, _report) =
                ShardedNvMemcached::recover(&pools, usize::MAX / 2).expect("geometry recorded");
            let recovery = t.elapsed();
            let _ = mc2.len();
            extras.push((flush_run, recovery));
            r
        });
        let (flush_run, recovery) = extras[median_rep];
        report.measurements.push(
            Measurement {
                structure: Some("sharded-nv-memcached".to_string()),
                threads: Some(FIG11_THREADS as u64),
                size: Some(range),
                median_throughput: Some(r.throughput()),
                repeat_throughputs: throughputs,
                flush: Some(flush_run),
                ..Measurement::new(format!("shards={n_shards} range={range}"))
            }
            .metric("shards", n_shards as f64)
            .metric("get_hit_rate", r.hit_rate())
            .metric("recovery_ms", recovery.as_secs_f64() * 1e3),
        );
    }
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 13 (beyond the paper): skew sweep
// ---------------------------------------------------------------------------

/// Max/mean request imbalance over the per-shard tallies: 1.0 means
/// perfectly balanced routing, `n_shards` means every request landed on
/// one shard. An empty window reports 1.0 (balanced vacuously).
fn imbalance(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / counts.len() as f64;
    counts.iter().copied().max().unwrap_or(0) as f64 / mean
}

/// Figure 13 (beyond the paper): the sharded cache under *skewed*
/// traffic. The fixed Figure 11 workload (1:4 set:get, 100k key range)
/// swept across key distributions {uniform, zipf-0.99,
/// zipf-scrambled-0.99, hotspot-10/90} x shard counts {1, 4}, reporting
/// throughput, get hit rate, and the per-shard request imbalance
/// (max/mean over the new routing tallies). Skew is where sharding is
/// stressed hardest: the router hashes keys, so even zipf-hot keys
/// spread across shards, but each hot *key* still serializes on its
/// home shard — the imbalance metric makes that visible while the hash
/// keeps it bounded. The scrambled-zipf row decorrelates rank from key
/// id (hot keys scattered over the whole range instead of clustered at
/// small ids), matching how YCSB-style generators exercise hashing.
pub fn fig13_skew(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig13_skew",
        "sharded NV-Memcached under skewed traffic: throughput, hit rate, shard imbalance",
        "rows: distribution x shard count (fig11 workload, fixed 100k range); \
         y: requests/s, get hit rate, max/mean per-shard request imbalance",
    );
    // Fixed range across scales, like fig12: labels stay identical.
    let range: u64 = 100_000;
    let ops = cfg.memtier_ops;
    for dist in
        [KeyDist::Uniform, KeyDist::ZIPF_99, KeyDist::ZIPF_SCRAMBLED_99, KeyDist::HOTSPOT_10_90]
    {
        let wl = Workload::paper(range, 42).with_dist(dist);
        for n_shards in [1usize, 4] {
            // Fresh pools + cache + warm-up per repetition (the paper's
            // fresh-instance methodology); the shard tallies are reset
            // after warm-up so imbalance covers only the timed window.
            let mut extras = Vec::with_capacity(cfg.repeats);
            let (r, median_rep, throughputs) = median_memtier(cfg.repeats, || {
                let pools = fig12_pools(range, n_shards);
                let mc = ShardedNvMemcached::create(&pools, CREATE_BUCKETS, usize::MAX / 2, true)
                    .expect("pools sized");
                {
                    let mut ctx = mc.register();
                    for k in wl.warmup_keys() {
                        mc.set(&mut ctx, k, k).expect("pools sized");
                    }
                }
                mc.reset_shard_requests();
                let flush_before = mc.flush_stats();
                let r = run_cache(&mc, FIG11_THREADS, ops, wl);
                extras.push((mc.flush_stats().diff(flush_before), mc.shard_requests()));
                r
            });
            let (flush_run, shard_reqs) = &extras[median_rep];
            report.measurements.push(
                Measurement {
                    structure: Some("sharded-nv-memcached".to_string()),
                    threads: Some(FIG11_THREADS as u64),
                    size: Some(range),
                    median_throughput: Some(r.throughput()),
                    repeat_throughputs: throughputs,
                    flush: Some(*flush_run),
                    dist: Some(dist.label()),
                    ..Measurement::new(format!(
                        "dist={} shards={n_shards} range={range}",
                        dist.label()
                    ))
                }
                .metric("shards", n_shards as f64)
                .metric("get_hit_rate", r.hit_rate())
                .metric("shard_imbalance", imbalance(shard_reqs))
                .metric("shard_requests_max", shard_reqs.iter().copied().max().unwrap_or(0) as f64),
            );
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Windowed timeline across a live migration (Figures 15 and 16)
// ---------------------------------------------------------------------------

/// One sampling window: `(start, end, requests completed inside it)`.
type Window = (Instant, Instant, u64);

/// Runs the Figure 11 mix on [`FIG11_THREADS`] workers while sampling
/// completed requests in fixed wall-clock windows (half of
/// `measure_ms`, at least 10 ms). After two windows of steady state
/// `trigger` — the migration under test — starts on its own thread;
/// two windows after it returns (24 at most) the workers stop. Returns
/// the windows, the trigger's `(start, end)` span and its result.
fn windowed_timeline<T: Send>(
    mc: &ShardedNvMemcached,
    wl: Workload,
    measure_ms: u64,
    trigger: impl FnOnce() -> T + Send,
) -> (Vec<Window>, (Instant, Instant), T) {
    let window = Duration::from_millis((measure_ms / 2).max(10));
    let trigger_after = 2usize; // windows of steady state before the trigger
    let tail_windows = 2usize; // windows of steady state after it
    let max_windows = 24usize;

    let stop = AtomicBool::new(false);
    let ops: Vec<AtomicU64> = (0..FIG11_THREADS).map(|_| AtomicU64::new(0)).collect();
    let done: Mutex<Option<(Instant, Instant, T)>> = Mutex::new(None);
    let mut trigger = Some(trigger);
    let mut windows = Vec::new();
    std::thread::scope(|s| {
        let sampler = wl.sampler();
        for (t, ops) in ops.iter().enumerate() {
            let stop = &stop;
            let mut stream = RequestStream::with_sampler(&wl, sampler, t);
            s.spawn(move || {
                let mut ctx = mc.register();
                while !stop.load(Ordering::Relaxed) {
                    match stream.next().expect("infinite stream") {
                        Request::Set(k, v) => {
                            mc.set(&mut ctx, k, v).expect("pools sized");
                        }
                        Request::Get(k) => {
                            let _ = mc.get(&mut ctx, k);
                        }
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let total = || ops.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>();
        let mut migrator = None;
        let mut last = total();
        let mut windows_after_done = 0usize;
        for i in 0..max_windows {
            if i == trigger_after {
                let trigger = trigger.take().expect("triggered once");
                let done = &done;
                migrator = Some(s.spawn(move || {
                    let t0 = Instant::now();
                    let out = trigger();
                    *done.lock().expect("span cell") = Some((t0, Instant::now(), out));
                }));
            }
            let w0 = Instant::now();
            std::thread::sleep(window);
            let now = total();
            windows.push((w0, Instant::now(), now - last));
            last = now;
            if done.lock().expect("span cell").is_some() {
                windows_after_done += 1;
                if windows_after_done > tail_windows {
                    break;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        migrator.expect("trigger_after < max_windows").join().expect("migration thread panicked");
    });
    let (t0, t1, out) = done.into_inner().expect("span cell").expect("migrator records its span");
    (windows, (t0, t1), out)
}

/// One `window=NN` row per sampling window; `during_key` is 1 on every
/// window overlapping the migration span.
fn window_rows<'a>(
    windows: &'a [Window],
    (t0, t1): (Instant, Instant),
    range: u64,
    during_key: &'a str,
) -> impl Iterator<Item = Measurement> + 'a {
    let run_start = windows.first().expect("at least one window").0;
    windows.iter().enumerate().map(move |(i, &(w0, w1, n))| {
        let secs = (w1 - w0).as_secs_f64();
        let during = w0 < t1 && t0 < w1;
        Measurement {
            structure: Some("sharded-nv-memcached".to_string()),
            threads: Some(FIG11_THREADS as u64),
            size: Some(range),
            median_throughput: Some(n as f64 / secs),
            repeat_throughputs: vec![n as f64 / secs],
            ..Measurement::new(format!("window={i:02}"))
        }
        .metric("t_ms", (w0 - run_start).as_secs_f64() * 1e3)
        .metric("window_ms", secs * 1e3)
        .metric(during_key, u64::from(during) as f64)
    })
}

// ---------------------------------------------------------------------------
// Figure 15 (beyond the paper): live resize timeline
// ---------------------------------------------------------------------------

/// Figure 15 (beyond the paper): the sharded cache across a **live 4x
/// grow**. Workers hammer the Figure 11 mix while a separate thread
/// triggers `grow(4)` and drives the migration to completion; completed
/// requests are sampled in fixed wall-clock windows, and every window
/// overlapping the `[grow start, migration done]` interval is marked
/// `during_resize`. The claim under test is the tentpole's: migration is
/// incremental and lock-free, so throughput *dips but never hits zero* —
/// there is no stop-the-world rehash. Before/after rows record the
/// bucket count and load factor the grow moved between.
pub fn fig15_resize(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig15_resize",
        "live 4x grow on the sharded cache: per-window throughput + load factor",
        "rows: before/after geometry + wall-clock windows (fig11 workload, fixed 100k range); \
         y: requests/s per window; during_resize=1 marks windows overlapping the grow",
    );
    // Fixed range across scales, like fig12/fig13: labels stay identical.
    let range: u64 = 100_000;
    // Two shards, not four: each shard's migration is longer, so the
    // resize interval reliably spans sampling windows.
    let n_shards = 2usize;
    let wl = Workload::paper(range, 42).with_dist(cfg.dist);
    let pools = fig12_pools(range, n_shards);
    let mc = ShardedNvMemcached::create(&pools, CREATE_BUCKETS, usize::MAX / 2, true)
        .expect("pools sized");
    {
        let mut ctx = mc.register();
        for k in wl.warmup_keys() {
            mc.set(&mut ctx, k, k).expect("pools sized");
        }
    }
    let before_buckets: usize = mc.shards().iter().map(NvMemcached::capacity_hint).sum();
    let before_items = mc.len();

    let (windows, span, ()) = windowed_timeline(&mc, wl, cfg.measure_ms, || {
        let mut ctx = mc.register();
        mc.grow(&mut ctx, 4).expect("pools sized for the new arrays");
        mc.finish_resize(&mut ctx).expect("pools sized");
    });
    let after_buckets: usize = mc.shards().iter().map(NvMemcached::capacity_hint).sum();
    let after_items = mc.len();

    report.measurements.push(
        Measurement {
            structure: Some("sharded-nv-memcached".to_string()),
            size: Some(range),
            ..Measurement::new("before grow")
        }
        .metric("buckets", before_buckets as f64)
        .metric("items", before_items as f64)
        .metric("load_factor", before_items as f64 / before_buckets as f64)
        .metric("shards", n_shards as f64),
    );
    report.measurements.extend(
        window_rows(&windows, span, range, "during_resize")
            .map(|m| m.metric("shards", n_shards as f64)),
    );
    report.measurements.push(
        Measurement {
            structure: Some("sharded-nv-memcached".to_string()),
            size: Some(range),
            ..Measurement::new("after grow")
        }
        .metric("buckets", after_buckets as f64)
        .metric("items", after_items as f64)
        .metric("load_factor", after_items as f64 / after_buckets as f64)
        .metric("resize_ms", (span.1 - span.0).as_secs_f64() * 1e3)
        .metric("shards", n_shards as f64),
    );
    report.fill_dist(&cfg.dist.label());
    report
}

// ---------------------------------------------------------------------------
// Figure 16 (beyond the paper): live reshard timeline
// ---------------------------------------------------------------------------

/// Figure 16 (beyond the paper): the sharded cache across a **live 2→4
/// reshard**. Workers hammer the Figure 11 mix while a separate thread
/// runs the whole reshard — format four fresh target pools, durably
/// commit the `[OLD][NEW][0][VERSION]` record, drain every old bucket
/// into its keys' new homes, retire the old pools — and completed
/// requests are sampled in fixed wall-clock windows, with every window
/// overlapping `[reshard start, swap done]` marked `during_reshard`. The
/// claim under test: migration is incremental (one bucket at a time,
/// never a global pause), so throughput *dips but never hits zero*.
///
/// Before/after rows carry the fig13-style max/mean request imbalance
/// over a fixed-request window — resharding 2→4 must not degrade
/// balance.
pub fn fig16_reshard(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig16_reshard",
        "live 2→4 reshard on the sharded cache: per-window throughput + imbalance",
        "rows: before/after imbalance + wall-clock windows (fig11 workload, fixed 100k range); \
         y: requests/s per window; during_reshard=1 marks windows overlapping the migration",
    );
    // Fixed range across scales, like fig12–fig15: labels stay identical.
    let range: u64 = 100_000;
    let ops = cfg.memtier_ops;
    let wl = Workload::paper(range, 42).with_dist(cfg.dist);
    let pools = fig12_pools(range, 2);
    let mc = ShardedNvMemcached::create(&pools, CREATE_BUCKETS, usize::MAX / 2, true)
        .expect("pools sized");
    {
        let mut ctx = mc.register();
        for k in wl.warmup_keys() {
            mc.set(&mut ctx, k, k).expect("pools sized");
        }
    }
    // Phase A: fixed-request window on the old topology — the
    // imbalance baseline the reshard must not degrade.
    mc.reset_shard_requests();
    let before = run_cache(&mc, FIG11_THREADS, ops, wl);
    let before_imbalance = imbalance(&mc.shard_requests());
    report.measurements.push(
        Measurement {
            structure: Some("sharded-nv-memcached".to_string()),
            threads: Some(FIG11_THREADS as u64),
            size: Some(range),
            median_throughput: Some(before.throughput()),
            repeat_throughputs: vec![before.throughput()],
            ..Measurement::new("before reshard")
        }
        .metric("shards", 2.0)
        .metric("topology_version", mc.version() as f64)
        .metric("get_hit_rate", before.hit_rate())
        .metric("shard_imbalance", before_imbalance),
    );

    // Phase B: windowed timeline across the live migration. The target
    // pools are provisioned before the workers start: zeroing four
    // CrashSim arenas under a saturated machine takes seconds and is
    // the operator's job, not the migration's — the measured span must
    // cover exactly `reshard()`.
    let new_pools = fig12_pools(range, 4);
    let (windows, span, stats) = windowed_timeline(&mc, wl, cfg.measure_ms, || {
        mc.reshard(&new_pools, CREATE_BUCKETS).expect("fresh target pools")
    });
    report.measurements.extend(window_rows(&windows, span, range, "during_reshard"));

    // Phase C: fixed-request window on the new topology.
    mc.reset_shard_requests();
    let after = run_cache(&mc, FIG11_THREADS, ops, wl);
    let after_imbalance = imbalance(&mc.shard_requests());
    report.measurements.push(
        Measurement {
            structure: Some("sharded-nv-memcached".to_string()),
            threads: Some(FIG11_THREADS as u64),
            size: Some(range),
            median_throughput: Some(after.throughput()),
            repeat_throughputs: vec![after.throughput()],
            ..Measurement::new("after reshard")
        }
        .metric("shards", mc.n_shards() as f64)
        .metric("topology_version", mc.version() as f64)
        .metric("get_hit_rate", after.hit_rate())
        .metric("shard_imbalance", after_imbalance)
        .metric("reshard_ms", (span.1 - span.0).as_secs_f64() * 1e3)
        .metric("keys_moved", stats.keys_moved as f64),
    );
    report.fill_dist(&cfg.dist.label());
    report
}
