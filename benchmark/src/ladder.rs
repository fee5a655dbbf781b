//! The traced run: the workload's request stream replayed down a
//! ladder of entry points, one rung per layer, measured from outside by
//! timing calls into public functions.
//!
//! ```text
//! client      open loop over TCP           -> client.*, net.*
//! session     Session::input, no socket    -> session.*
//! protocol    Parser::feed/next_command    -> protocol.*
//! nvmemcached ShardedNvMemcached::get/set  -> nvmemcached.*, evict.*, pmem.*_per_*, nvalloc.*_rate
//! logfree     HashTable::get/insert/remove -> logfree.*
//! nvalloc     ThreadCtx::alloc/retire      -> nvalloc.alloc_ns, nvalloc.free_ns
//! pmem        Flusher::persist             -> pmem.persist_ns
//! ```
//!
//! Every rung below the client is single-threaded and starts from a
//! freshly built cache, so its counts repeat exactly for a seed. A
//! layer's self time is its rung minus the rung below, per request:
//! `net.residual_us` = client p50 − session rung, and
//! `session.format_ns_per_req` = session rung − parse − store op.
//! Workloads that are not open-loop themselves (`store_*`, `restart`)
//! are replayed at `wire_get`'s rate, one request per write.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcache::LinkCache;
use logfree::{HashTable, LinkOps};
use nvalloc::NvDomain;
use nvmemcached::ShardedNvMemcached;
use pmem::{FlushStats, LatencyModel, Mode, PmemPool, PoolBuilder};
use server::{Parser, Session};

use crate::gen::{lanes_for, Kind, Lane, Mix, Op, Plan, Spec};
use crate::hist::{median, Histogram};
use crate::loadgen::{closed_loop, WindowStats, Windows};
use crate::matcher::Matcher;
use crate::rig::{self, Image, Rig, NVRAM_WRITE_NS, SHARDS};
use crate::trace::Spans;
use crate::workloads::{
    drive, exec, fill_over_wire, hang_up, metric, plan_for, serve, take_down, Metric, Outcome,
    Shape, Workload, FILL_DEPTH, PLAIN_WIRE,
};

/// Share of `--seconds` the client rung's open loop runs for.
const CLIENT_SHARE: f64 = 0.3;

/// Calls timed by each fixed-size calibration (allocator, persist).
const CALIBRATION_CALLS: usize = 200_000;

/// Items in the table when `logfree.grow4x_ms` grows it. The issue
/// asked for 200 000; an eager `grow(4)` + `finish_resize` is steeply
/// super-linear on this code (0.04 s at 25 000 items, 0.5 s at 50 000,
/// 12.6 s at 100 000, 36 s at 200 000 on the 2-core box), so the
/// benchmark measures where the cliff begins and still fits its budget.
const GROW_AT_ITEMS: u64 = 50_000;

/// Restarts from the same image whose median is `restart.recovery_ms`.
const TIMED_RESTARTS: usize = 7;

/// The live-cut probe writes for this long and cuts halfway.
const PROBE: Duration = Duration::from_secs(2);

/// The traced run of `w`: every per-layer metric, and the spans in
/// `<out_dir>/trace-<workload>.jsonl`.
pub fn run(w: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::on(4);
    let lanes = rig::lanes();
    let windows = Windows::over(seconds * CLIENT_SHARE);
    let shape = if let Shape::Wire { .. } = w.shape { w.shape } else { PLAIN_WIRE };
    let built = Instant::now();
    let (plan, streams) = plan_for(shape, lanes_for(&w.spec, seed, lanes), seed, windows);
    let requests = plan.ops.len() as f64;
    let mut m =
        vec![metric("loadgen.ns_per_req", built.elapsed().as_nanos() as f64 / requests, "ns")];

    let client_p50_us = client_rung(w, seed, &plan, windows, &mut spans, &mut out, &mut m);
    let session_ns =
        middle_of_three(&mut spans, &mut out, |&ns| ns, |s, o| session_rung(w, seed, &plan, s, o));
    let parse_ns = middle_of_three(&mut spans, &mut out, |&ns| ns, |s, _| protocol_rung(&plan, s));
    // The untraced twin of the store rung: the same calls with no
    // clock, no span and no counter reads. Run before and after the
    // traced passes; the faster one is the base of `trace.overhead_pct`.
    let bare = || {
        let rig = rig::build(&w.spec, seed, Mode::Perf, true);
        let mut ctx = rig.cache.register();
        let t = Instant::now();
        for op in &plan.ops {
            black_box(exec(&rig.cache, &mut ctx, op));
        }
        requests / t.elapsed().as_secs_f64()
    };
    let bare_before = bare();
    let (store, rig) = middle_of_three(
        &mut spans,
        &mut out,
        |(store, _): &(StoreRung, Rig)| store.op_ns_per_req,
        |s, o| {
            let rig = rig::build(&w.spec, seed, Mode::Perf, true);
            (store_rung(&rig.cache, &plan.ops, w.spec.miss_ok(), s, o), rig)
        },
    );
    let bare_ops_per_s = bare_before.max(bare());
    let without_link_cache = {
        let rig = rig::build(&w.spec, seed, Mode::Perf, false);
        store_rung(
            &rig.cache,
            &plan.ops,
            w.spec.miss_ok(),
            &mut Spans::off(),
            &mut Outcome::default(),
        )
    };

    let sets = store.set_ns.count().max(1) as f64;
    let gets = store.get_ns.count().max(1) as f64;
    let set_ns_mean = store.set_total_ns / sets;
    m.extend([
        metric("net.residual_us", client_p50_us - session_ns / 1e3, "us"),
        metric("session.input_ns_per_req", session_ns, "ns"),
        metric("session.format_ns_per_req", session_ns - parse_ns - store.op_ns_per_req, "ns"),
        metric("protocol.parse_ns_per_req", parse_ns, "ns"),
        metric("protocol.bytes_per_req", plan.bytes.len() as f64 / requests, "B"),
        metric("nvmemcached.op_ns_per_req", store.op_ns_per_req, "ns"),
        metric("nvmemcached.get_ns_p50", store.get_ns.quantile(0.5).unwrap_or(0.0), "ns"),
        metric("nvmemcached.get_ns_p99", store.get_ns.quantile(0.99).unwrap_or(0.0), "ns"),
        metric("nvmemcached.set_ns_p50", store.set_ns.quantile(0.5).unwrap_or(0.0), "ns"),
        metric("nvmemcached.set_ns_p99", store.set_ns.quantile(0.99).unwrap_or(0.0), "ns"),
        metric("nvmemcached.get_hit_rate", store.hits as f64 / gets, "ratio"),
        metric("nvmemcached.shard_imbalance", shard_imbalance(&rig.cache), "ratio"),
        metric("evict.evictions_per_set", evictions_per_set(w, seed, &plan.ops), "count"),
        metric("evict.len_over_capacity", rig.cache.len() as f64 / w.spec.capacity as f64, "ratio"),
        metric("pmem.fences_per_set", store.on_sets.fences as f64 / sets, "count"),
        metric("pmem.clwbs_per_set", store.on_sets.clwbs as f64 / sets, "count"),
        metric("pmem.sync_batches_per_set", store.on_sets.sync_batches as f64 / sets, "count"),
        metric("pmem.fences_per_get", store.on_gets.fences as f64 / gets, "count"),
        metric(
            "pmem.fence_wait_share",
            store.on_sets.sync_batches as f64 / sets * NVRAM_WRITE_NS as f64 / set_ns_mean.max(1.0),
            "ratio",
        ),
        metric(
            "linkcache.fences_saved_share",
            1.0 - store.on_sets.sync_batches as f64
                / without_link_cache.on_sets.sync_batches.max(1) as f64,
            "ratio",
        ),
        metric("nvalloc.tlab_hit_rate", store.tlab_hit_rate, "ratio"),
        metric("nvalloc.apt_alloc_hit_rate", store.apt_alloc_hit_rate, "ratio"),
        metric("trace.overhead_pct", (1.0 - store.ops_per_s / bare_ops_per_s) * 100.0, "%"),
    ]);
    logfree_rung(&w.spec, seed, &plan.ops, &mut m);
    allocator_and_persist_calibration(&mut m);
    restart_rung(w, seed, rig, streams, &mut out, &mut m);

    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let path = out_dir.join(format!("trace-{}.jsonl", w.name));
    spans.write_jsonl(&path).expect("write the spans");
    m.push(metric("trace.spans", spans.len() as f64, "count"));
    out.metrics = m;
    out
}

/// Runs a single-threaded rung three times and keeps the run whose
/// `time` is the median: rungs are subtracted from each other, so one
/// pass's noise would show as a layer's self time. Spans and checks
/// come from the first run; the counts of all three are the same.
fn middle_of_three<T>(
    spans: &mut Spans,
    out: &mut Outcome,
    time: impl Fn(&T) -> f64,
    mut rung: impl FnMut(&mut Spans, &mut Outcome) -> T,
) -> T {
    let mut runs = vec![rung(spans, out)];
    runs.extend((0..2).map(|_| rung(&mut Spans::off(), &mut Outcome::default())));
    runs.sort_by(|a, b| time(a).total_cmp(&time(b)));
    runs.swap_remove(1)
}

/// The stream over TCP, open loop. Returns the client-side p50 in µs.
fn client_rung(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    windows: Windows,
    spans: &mut Spans,
    out: &mut Outcome,
    m: &mut Vec<Metric>,
) -> f64 {
    let rig = rig::build(&w.spec, seed, Mode::Perf, true);
    let (server, mut client) = serve(&rig.cache, rig::lanes());
    let (wire, cpu) = drive(&mut client, plan, windows, w.spec.miss_ok(), spans);
    out.attempted += wire.attempted;
    out.failed += wire.failed;
    let wire_bytes = (server.stats().bytes_read() + server.stats().bytes_written()) as f64;
    hang_up(server, client);

    let mut all = WindowStats::default();
    wire.windows.iter().for_each(|w| all.absorb(w));
    let p50s: Vec<f64> = wire.windows.iter().map(|w| w.latency.quantile_us(0.5)).collect();
    m.extend([
        metric("client.p50_us", median(&p50s), "us"),
        metric("client.p90_us", all.latency.quantile_us(0.9), "us"),
        metric("client.p99_us", all.latency.quantile_us(0.99), "us"),
        metric("client.p999_us", all.latency.quantile_us(0.999), "us"),
        metric("client.max_us", all.latency.max() as f64 / 1e3, "us"),
        metric("client.samples", all.latency.count() as f64, "count"),
        metric("client.achieved_ratio", all.achieved_ratio(), "ratio"),
        metric("client.send_lag_p99_us", all.send_lag.quantile_us(0.99), "us"),
        metric("client.late_send_share", all.late_send_share(), "ratio"),
        metric("client.max_in_flight", wire.max_in_flight as f64, "count"),
        metric("net.bytes_per_req", wire_bytes / wire.attempted.max(1) as f64, "B"),
        metric(
            "net.server_cpu_us_per_req",
            cpu.iter().sum::<f64>() / 1e3 / all.completed.max(1) as f64,
            "us",
        ),
    ]);
    median(&p50s)
}

/// The same bytes through `Session::input`, one call per `write` the
/// client made, every reply checked. Mean nanoseconds per request.
fn session_rung(w: &Workload, seed: u64, plan: &Plan, spans: &mut Spans, out: &mut Outcome) -> f64 {
    let rig = rig::build(&w.spec, seed, Mode::Perf, true);
    let mut ctx = rig.cache.register();
    let mut session = Session::new(&rig.cache);
    let mut replies = Matcher::default();
    let start = Instant::now();
    let mut busy_ns = 0;
    for unit in &plan.units {
        let t0 = start.elapsed().as_nanos() as u64;
        session.input(&plan.bytes[unit.bytes.0..unit.bytes.1], &mut ctx);
        let t1 = start.elapsed().as_nanos() as u64;
        busy_ns += t1 - t0;
        spans.record("session.input", unit.first_op, "client.request", t0, t1);
        replies.feed(session.output());
        session.clear_output();
        for op in &plan.ops[unit.first_op..unit.first_op + unit.n_ops] {
            out.attempted += 1;
            let ok = replies.next(op.kind).is_some_and(|r| op.accepts(r, w.spec.miss_ok()));
            out.failed += u64::from(!ok);
        }
    }
    busy_ns as f64 / plan.ops.len() as f64
}

/// The same bytes through the parser alone. Mean ns per request.
fn protocol_rung(plan: &Plan, spans: &mut Spans) -> f64 {
    let mut parser = Parser::new();
    let start = Instant::now();
    let mut busy_ns = 0;
    for unit in &plan.units {
        let t0 = start.elapsed().as_nanos() as u64;
        parser.feed(&plan.bytes[unit.bytes.0..unit.bytes.1]);
        while let Ok(Some(command)) = parser.next_command() {
            black_box(command);
        }
        let t1 = start.elapsed().as_nanos() as u64;
        busy_ns += t1 - t0;
        spans.record("protocol.parse", unit.first_op, "session.input", t0, t1);
    }
    busy_ns as f64 / plan.ops.len() as f64
}

/// What the store rung measured: per-call times and, around each call,
/// the write-back counters of the benchmark's own contexts.
#[derive(Default)]
struct StoreRung {
    get_ns: Histogram,
    set_ns: Histogram,
    set_total_ns: f64,
    op_ns_per_req: f64,
    ops_per_s: f64,
    hits: u64,
    on_gets: FlushStats,
    on_sets: FlushStats,
    tlab_hit_rate: f64,
    apt_alloc_hit_rate: f64,
}

/// The requests as direct `get`/`set` calls, one span per call.
fn store_rung(
    cache: &ShardedNvMemcached,
    ops: &[Op],
    miss_ok: bool,
    spans: &mut Spans,
    out: &mut Outcome,
) -> StoreRung {
    let mut ctx = cache.register();
    let mut r = StoreRung::default();
    let flushed = |ctx: &mut nvmemcached::ShardedCtx| {
        let mut total = FlushStats::default();
        (0..SHARDS).for_each(|s| total.merge(ctx.shard_ctx(s).flusher.stats()));
        total
    };
    let start = Instant::now();
    let mut busy_ns = 0;
    for (id, op) in ops.iter().enumerate() {
        let before = flushed(&mut ctx);
        let t0 = start.elapsed().as_nanos() as u64;
        let reply = exec(cache, &mut ctx, op);
        let t1 = start.elapsed().as_nanos() as u64;
        let during = flushed(&mut ctx).diff(before);
        busy_ns += t1 - t0;
        match op.kind {
            Kind::Get => {
                spans.record("nvmemcached.get", id, "session.input", t0, t1);
                r.get_ns.record(t1 - t0);
                r.on_gets.merge(during);
                r.hits += u64::from(matches!(reply, crate::gen::Reply::Hit { .. }));
            }
            Kind::Set => {
                spans.record("nvmemcached.set", id, "session.input", t0, t1);
                r.set_ns.record(t1 - t0);
                r.set_total_ns += (t1 - t0) as f64;
                r.on_sets.merge(during);
            }
        }
        out.attempted += 1;
        out.failed += u64::from(!op.accepts(reply, miss_ok));
    }
    r.ops_per_s = ops.len() as f64 / start.elapsed().as_secs_f64();
    r.op_ns_per_req = busy_ns as f64 / ops.len() as f64;
    let (mut tlab, mut apt) = ((0, 0), (0, 0));
    for s in 0..SHARDS {
        let a = ctx.shard_ctx(s).apt_stats();
        tlab = (tlab.0 + a.tlab_hits, tlab.1 + a.tlab_hits + a.tlab_misses);
        apt = (apt.0 + a.alloc_hits, apt.1 + a.alloc_hits + a.alloc_misses);
    }
    r.tlab_hit_rate = tlab.0 as f64 / tlab.1.max(1) as f64;
    r.apt_alloc_hit_rate = apt.0 as f64 / apt.1.max(1) as f64;
    r
}

/// Largest shard's share of the routed requests over the mean share.
/// Tallies reach the cache when a context drops, so this reads them
/// after the store rung's context is gone.
fn shard_imbalance(cache: &ShardedNvMemcached) -> f64 {
    let per_shard = cache.shard_requests();
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
}

/// Evictions per `set`, counted from outside: a `set` of an absent key
/// that does not grow the cache evicted one. Only a cache smaller than
/// its key space evicts; the replay (and its extra lookups) is skipped
/// otherwise.
fn evictions_per_set(w: &Workload, seed: u64, ops: &[Op]) -> f64 {
    if !w.spec.miss_ok() {
        return 0.0;
    }
    let rig = rig::build(&w.spec, seed, Mode::Perf, true);
    let mut ctx = rig.cache.register();
    let (mut sets, mut evicted) = (0u64, 0i64);
    for op in ops {
        if op.kind == Kind::Set {
            let absent = rig.cache.get(&mut ctx, op.key).is_none();
            let before = rig.cache.len() as i64;
            exec(&rig.cache, &mut ctx, op);
            evicted += before + i64::from(absent) - rig.cache.len() as i64;
            sets += 1;
        } else {
            exec(&rig.cache, &mut ctx, op);
        }
    }
    evicted as f64 / sets.max(1) as f64
}

fn perf_pool(bytes: usize) -> Arc<PmemPool> {
    PoolBuilder::new(bytes).mode(Mode::Perf).latency(LatencyModel::new(NVRAM_WRITE_NS)).build()
}

/// One `HashTable` (link cache on, as in the cache) over one pool.
fn new_table(domain: &Arc<NvDomain>, buckets: u64) -> HashTable {
    let pool = domain.pool();
    let cache = Arc::new(LinkCache::with_default_size(Arc::clone(pool), logfree::marked::DIRTY));
    let ops = LinkOps::new(Arc::clone(pool), Some(cache));
    HashTable::create(domain, nvmemcached::NVMC_ROOT, buckets as usize, ops).expect("pool sized")
}

/// The requests as `HashTable` calls on one pool: a `get` is a lookup,
/// a `set` is what the cache makes of it (insert; if the key exists,
/// remove and insert again). Mean time per primitive, and the time to
/// grow a table of [`GROW_AT_ITEMS`] items fourfold.
fn logfree_rung(spec: &Spec, seed: u64, ops: &[Op], m: &mut Vec<Metric>) {
    // Four items per bucket, about what auto-grow leaves the cache at.
    let items = spec.keys.min(spec.capacity as u64);
    let domain = NvDomain::create(perf_pool(64 << 20));
    let table = new_table(&domain, (items / 4).next_power_of_two());
    let mut ctx = domain.register();
    for key in 1..=spec.prefill {
        table.insert(&mut ctx, key, crate::gen::prefill_value(seed, key)).expect("pool sized");
    }
    // (total ns, calls) for lookup, insert, remove.
    let mut cost = [(0u64, 0u64); 3];
    let mut timed = |which: usize, call: &mut dyn FnMut()| {
        let t = Instant::now();
        call();
        cost[which].0 += t.elapsed().as_nanos() as u64;
        cost[which].1 += 1;
    };
    for op in ops {
        match op.kind {
            Kind::Get => timed(0, &mut || {
                black_box(table.get(&mut ctx, op.key));
            }),
            Kind::Set => {
                let mut stored = false;
                while !stored {
                    timed(1, &mut || {
                        stored = table.insert(&mut ctx, op.key, op.value).expect("pool sized")
                    });
                    if !stored {
                        timed(2, &mut || {
                            black_box(table.remove(&mut ctx, op.key));
                        });
                    }
                }
            }
        }
    }
    let mean = |(ns, calls): (u64, u64)| ns as f64 / calls.max(1) as f64;
    m.push(metric("logfree.lookup_ns", mean(cost[0]), "ns"));
    m.push(metric("logfree.insert_ns", mean(cost[1]), "ns"));
    m.push(metric("logfree.remove_ns", mean(cost[2]), "ns"));
    drop((ctx, table));

    let domain = NvDomain::create(perf_pool(64 << 20));
    let growing = new_table(&domain, GROW_AT_ITEMS / 8);
    let mut ctx = domain.register();
    for key in 1..=GROW_AT_ITEMS {
        growing.insert(&mut ctx, key, key).expect("pool sized");
    }
    let t = Instant::now();
    growing.grow(&mut ctx, 4).expect("pool sized");
    growing.finish_resize(&mut ctx).expect("pool sized");
    m.push(metric("logfree.grow4x_ms", t.elapsed().as_secs_f64() * 1e3, "ms"));
}

/// Calibrations that do not depend on the workload: a 32-byte `alloc`,
/// a `retire` with its epoch bookkeeping and collection, and one
/// `persist` (≈ the simulated write latency plus the call).
fn allocator_and_persist_calibration(m: &mut Vec<Metric>) {
    let pool = perf_pool(64 << 20);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let per_call = |t: Instant| t.elapsed().as_nanos() as f64 / CALIBRATION_CALLS as f64;
    let t = Instant::now();
    let nodes: Vec<usize> =
        (0..CALIBRATION_CALLS).map(|_| ctx.alloc(32).expect("pool sized")).collect();
    m.push(metric("nvalloc.alloc_ns", per_call(t), "ns"));
    let t = Instant::now();
    for &node in &nodes {
        ctx.begin_op();
        ctx.retire(node);
        ctx.end_op();
    }
    m.push(metric("nvalloc.free_ns", per_call(t), "ns"));
    let mut flusher = pool.flusher();
    let word = pool.heap_start();
    let t = Instant::now();
    (0..CALIBRATION_CALLS).for_each(|_| flusher.persist(word, 8));
    m.push(metric("pmem.persist_ns", per_call(t), "ns"));
}

/// Takes the store rung's cache down and restarts it from its image
/// [`TIMED_RESTARTS`] times; `restart` instead does so with its real
/// fill and its crash image, then runs the live-cut probe on the
/// recovered cache.
fn restart_rung(
    w: &Workload,
    seed: u64,
    store_rig: Rig,
    streams: Vec<Lane>,
    out: &mut Outcome,
    m: &mut Vec<Metric>,
) {
    let is_restart = matches!(w.shape, Shape::Restart);
    let (rig, streams) =
        if is_restart { fill_over_wire(w, seed, rig::lanes(), out) } else { (store_rig, streams) };
    let down = take_down(rig, &w.spec, &streams, TIMED_RESTARTS, out);
    let (checked, lost) =
        if is_restart { live_cut_probe(w, seed, down.cache, down.pools, out) } else { (0, 0) };
    m.extend([
        metric("nvalloc.recover_pages_scanned", down.report.pages_scanned as f64, "count"),
        metric("nvalloc.recover_slots_scanned", down.report.slots_scanned as f64, "count"),
        metric("nvalloc.recover_leaks_freed", down.report.leaks_freed as f64, "count"),
        metric("restart.recovery_ms", median(&down.recover_ms), "ms"),
        metric("restart.items_recovered", down.items as f64, "count"),
        metric("restart.acked_checked", checked as f64, "count"),
        metric("restart.acked_lost", lost as f64, "count"),
    ]);
}

/// Serves the recovered cache again, overwrites every key once (closed
/// loop, fresh values) for [`PROBE`], captures the crash image of all
/// pools halfway *while the server is live*, restarts from that cut and
/// counts the writes acknowledged before the capture began that the
/// recovered cache does not hold. Reported, not failed: acknowledgements
/// are not durable yet (the link cache buffers them).
fn live_cut_probe(
    w: &Workload,
    seed: u64,
    cache: ShardedNvMemcached,
    pools: Vec<Arc<PmemPool>>,
    out: &mut Outcome,
) -> (u64, u64) {
    let cache = Arc::new(cache);
    let lanes = rig::lanes();
    let (server, mut client) = serve(&cache, lanes);
    let overwrite = Spec { mix: Mix::Fill { overwrites: 0 }, ..w.spec };
    let mut streams = lanes_for(&overwrite, seed ^ 0xC07, lanes);
    let began = Instant::now();
    let (run, cut_began, image) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            closed_loop(&mut client, &mut streams, FILL_DEPTH, Some(began + PROBE), true)
        });
        std::thread::sleep(PROBE / 2);
        let cut_began = Instant::now();
        let image = Image::crash_cut(&pools);
        (writer.join().expect("probe writer panicked"), cut_began, image)
    });
    out.attempted += run.attempted;
    out.failed += run.failed;
    hang_up(server, client);
    let Ok(cache) = Arc::try_unwrap(cache) else { panic!("the cache is still shared") };
    drop(cache);
    let (cache, ..) = rig::restart(&image, &pools, w.spec.capacity);
    let mut ctx = cache.register();
    let before_cut = run.acked.iter().filter(|a| a.at < cut_began);
    let (mut checked, mut lost) = (0, 0);
    for acked in before_cut {
        checked += 1;
        lost += u64::from(cache.get(&mut ctx, acked.op.key) != Some(acked.op.value));
    }
    (checked, lost)
}
