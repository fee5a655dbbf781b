//! The five workloads and the untraced run that yields the end-to-end
//! metrics. README.md says why each workload exists; the table below is
//! what each sends.
//!
//! Every run has the same skeleton: set up (several times; the median
//! is `setup_s`), the timed phase (a warm-up and five windows; a metric
//! is the median of its five window values), take the cache down,
//! restart it from its image and check the recovered contents against
//! what the generator last stored. (`restart` does the last two before
//! its timed phase, which reads the recovered cache back.)

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvalloc::RecoveryReport;
use nvmemcached::{ShardedCtx, ShardedNvMemcached};
use pmem::{Mode, PmemPool};
use server::Server;
use workload::KeyDist;

use crate::gen::{lanes_for, Kind, Lane, Mix, Op, Plan, Reply, Spec};
use crate::hist::{median, Histogram};
use crate::loadgen::{closed_loop, open_loop, Client, OpenLoopRun, Windows};
use crate::proc;
use crate::rig::{self, Image, Rig};
use crate::trace::Spans;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Requests per closed-loop batch (`restart`'s fill).
pub const FILL_DEPTH: usize = 16;

/// Calls per timed block of an in-process workload.
const BLOCK: usize = 32;

/// An open-loop window is generator-limited, hence invalid, beyond
/// these; a run needs this many valid windows of its five.
const MAX_LATE_SEND_SHARE: f64 = 0.02;
const MIN_ACHIEVED_RATIO: f64 = 0.99;
const MIN_VALID_WINDOWS: usize = 3;

/// How often a wire workload's timed phase is measured before an
/// invalid run is final.
const WIRE_ATTEMPTS: usize = 3;

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Open loop over TCP: Poisson `units_per_s`, each unit one `write`
    /// of `ops_per_unit` requests.
    Wire { units_per_s: f64, ops_per_unit: usize },
    /// Closed loop in process: one thread per lane calling the cache.
    Store,
    /// Fill over the wire, shut down, restart from the crash image.
    Restart,
}

pub struct Workload {
    pub name: &'static str,
    pub spec: Spec,
    pub shape: Shape,
}

const UNBOUNDED: usize = usize::MAX / 2;

/// The open loop `restart` reads its keys back with, and every traced
/// run replays its stream with: `wire_get`'s rate, one request a write.
pub const PLAIN_WIRE: Shape = Shape::Wire { units_per_s: 40_000.0, ops_per_unit: 1 };

pub const ALL: [Workload; 5] = [
    Workload {
        name: "wire_get",
        spec: Spec {
            keys: 100_000,
            prefill: 100_000,
            capacity: UNBOUNDED,
            dist: KeyDist::ZIPF_SCRAMBLED_99,
            mix: Mix::Random { set_pct: 5 },
        },
        shape: PLAIN_WIRE,
    },
    Workload {
        name: "wire_set_burst",
        spec: Spec {
            keys: 100_000,
            prefill: 100_000,
            capacity: UNBOUNDED,
            dist: KeyDist::Uniform,
            mix: Mix::Burst,
        },
        shape: Shape::Wire { units_per_s: 2_500.0, ops_per_unit: crate::gen::BURST },
    },
    Workload {
        name: "store_read",
        spec: Spec {
            keys: 100_000,
            prefill: 100_000,
            capacity: UNBOUNDED,
            dist: KeyDist::ZIPF_SCRAMBLED_99,
            mix: Mix::Random { set_pct: 5 },
        },
        shape: Shape::Store,
    },
    Workload {
        name: "store_churn",
        spec: Spec {
            keys: 1_000_000,
            prefill: 200_000,
            capacity: 200_000,
            dist: KeyDist::Uniform,
            mix: Mix::Random { set_pct: 50 },
        },
        shape: Shape::Store,
    },
    Workload {
        name: "restart",
        spec: Spec {
            keys: 1_000_000,
            prefill: 0,
            capacity: UNBOUNDED,
            dist: KeyDist::Uniform,
            mix: Mix::Fill { overwrites: 100_000 },
        },
        shape: Shape::Restart,
    },
];

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports: its metrics, how many checked operations it
/// attempted and how many failed, and why it is invalid if it is.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub invalid: Option<String>,
}

/// The three metrics the timed phase yields.
pub struct Timed {
    pub p50_us: f64,
    pub cpu_us_per_req: f64,
    pub ops_per_s: f64,
}

/// The untraced run of `w`: every end-to-end metric.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let lanes = rig::lanes();
    let (timed, setup_s, heap) = match w.shape {
        Shape::Wire { .. } => {
            let ((rig, server, mut client), setup_s) = set_up(
                || {
                    let rig = rig::build(&w.spec, seed, Mode::Perf, true);
                    let (server, client) = serve(&rig.cache, lanes);
                    (rig, server, client)
                },
                |(rig, server, client)| {
                    hang_up(server, client);
                    drop(rig);
                },
            );
            let streams = lanes_for(&w.spec, seed, lanes);
            let (timed, streams) = measure_wire(
                w.shape,
                streams,
                seed,
                seconds,
                &mut client,
                w.spec.miss_ok(),
                &mut out,
            );
            hang_up(server, client);
            (timed, setup_s, take_down(rig, &w.spec, &streams, 1, &mut out).heap_bytes_per_item)
        }
        Shape::Store => {
            let windows = Windows::over(seconds);
            let (rig, setup_s) = set_up(|| rig::build(&w.spec, seed, Mode::Perf, true), drop);
            let streams = lanes_for(&w.spec, seed, lanes);
            let (threads, cpu) = run_store(&rig.cache, streams, windows, w.spec.miss_ok());
            let timed = store_metrics(&threads, &cpu, windows, &mut out);
            let streams: Vec<Lane> = threads.into_iter().map(|t| t.stream).collect();
            (timed, setup_s, take_down(rig, &w.spec, &streams, 1, &mut out).heap_bytes_per_item)
        }
        Shape::Restart => {
            // Set-up is everything before the restart: the fill over
            // the wire and the graceful shutdown included.
            let ((rig, streams), setup_s) =
                set_up(|| fill_over_wire(w, seed, lanes, &mut out), drop);
            let down = take_down(rig, &w.spec, &streams, 1, &mut out);
            // The timed phase is what the recovered server is like to
            // use: every key read back over the wire, open loop, each
            // value checked again.
            let cache = Arc::new(down.cache);
            let (server, mut client) = serve(&cache, lanes);
            let readers = streams
                .into_iter()
                .map(|s| s.restyle(KeyDist::Uniform, Mix::Random { set_pct: 0 }))
                .collect();
            let (timed, _) =
                measure_wire(PLAIN_WIRE, readers, seed, seconds, &mut client, false, &mut out);
            hang_up(server, client);
            (timed, setup_s, down.heap_bytes_per_item)
        }
    };
    out.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_us", timed.p50_us, "us"),
        metric("server_cpu_us_per_req", timed.cpu_us_per_req, "us"),
        metric("ops_per_s", timed.ops_per_s, "1/s"),
        metric("heap_bytes_per_item", heap, "B"),
        metric("peak_rss_mb", proc::peak_rss_mib(), "MiB"),
    ];
    out
}

/// Sets up [`SETUPS`] times, tearing all but the last down again, and
/// returns the last with the median set-up time in seconds.
pub fn set_up<T>(mut build: impl FnMut() -> T, mut tear_down: impl FnMut(T)) -> (T, f64) {
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let built = build();
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() == SETUPS {
            return (built, median(&secs));
        }
        tear_down(built);
    }
}

/// Starts the server on `cache` and connects one client lane each.
pub fn serve(cache: &Arc<ShardedNvMemcached>, lanes: usize) -> (Server, Client) {
    proc::pin(proc::SERVER_CPU);
    let server = Server::start_local(Arc::clone(cache)).expect("bind a loopback port");
    proc::unpin();
    let client = Client::connect(server.local_addr(), lanes).expect("connect over loopback");
    (server, client)
}

/// Closes the connections, then shuts the server down gracefully (its
/// workers join and the cache is quiesced).
pub fn hang_up(server: Server, client: Client) {
    drop(client);
    drop(server.shutdown());
}

/// The open-loop plan of `shape` over `windows`.
pub fn plan_for(
    shape: Shape,
    streams: Vec<Lane>,
    seed: u64,
    windows: Windows,
) -> (Plan, Vec<Lane>) {
    let Shape::Wire { units_per_s, ops_per_unit } = shape else {
        unreachable!("only wire shapes have an open-loop plan")
    };
    Plan::build(streams, seed, units_per_s, ops_per_unit, windows.total_ns())
}

/// The timed phase of a wire workload: the open loop over `seconds`.
/// A run the generator could not keep up with measured the generator;
/// it is said so on stderr and measured again, the streams carrying on
/// where they were, up to [`WIRE_ATTEMPTS`] times. Returns the streams
/// too: they hold what the cache must now contain.
fn measure_wire(
    shape: Shape,
    mut streams: Vec<Lane>,
    seed: u64,
    seconds: f64,
    client: &mut Client,
    miss_ok: bool,
    out: &mut Outcome,
) -> (Timed, Vec<Lane>) {
    let windows = Windows::over(seconds);
    let mut attempt = 1;
    loop {
        let (plan, carried_on) = plan_for(shape, streams, seed, windows);
        streams = carried_on;
        let (wire, cpu) = drive(client, &plan, windows, miss_ok, &mut Spans::off());
        let timed = wire_metrics(&wire, &cpu, windows, out);
        let Some(why) = out.invalid.take_if(|_| attempt < WIRE_ATTEMPTS) else {
            return (timed, streams);
        };
        eprintln!("attempt {attempt}: {why}");
        attempt += 1;
    }
}

/// Runs the open loop on a thread of its own and samples, at every
/// window boundary, the CPU time of all *other* threads. Returns the
/// run and the CPU nanoseconds per window.
pub fn drive(
    client: &mut Client,
    plan: &Plan,
    windows: Windows,
    miss_ok: bool,
    spans: &mut Spans,
) -> (OpenLoopRun, Vec<f64>) {
    let start = Instant::now() + Duration::from_millis(20);
    let (tid_tx, tid_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            proc::pin(proc::GENERATOR_CPU);
            tid_tx.send(proc::current_tid()).expect("driver waits for the id");
            open_loop(client, plan, windows, miss_ok, start, spans)
        });
        let tid = tid_rx.recv().expect("generator thread started");
        let cpu = cpu_per_window(start, windows, Some(tid));
        (generator.join().expect("generator thread panicked"), cpu)
    })
}

/// Sleeps from boundary to boundary of `windows` and returns the CPU
/// nanoseconds all threads but `skip` used in each.
fn cpu_per_window(start: Instant, windows: Windows, skip: Option<u32>) -> Vec<f64> {
    let marks: Vec<u64> = (0..=windows.n as u64)
        .map(|w| {
            let boundary = start + Duration::from_nanos(windows.warmup_ns + w * windows.window_ns);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            proc::cpu_ns_except(skip)
        })
        .collect();
    marks.windows(2).map(|m| (m[1] - m[0]) as f64).collect()
}

/// The timed metrics of an open-loop run: the median over its valid
/// windows. A window in which the generator ran late or fell behind
/// measured the generator, not the server, and is left out; with fewer
/// than [`MIN_VALID_WINDOWS`] left the whole run is invalid.
fn wire_metrics(wire: &OpenLoopRun, cpu: &[f64], windows: Windows, out: &mut Outcome) -> Timed {
    out.attempted += wire.attempted;
    out.failed += wire.failed;
    let valid: Vec<usize> = (0..windows.n)
        .filter(|&w| {
            wire.windows[w].late_send_share() <= MAX_LATE_SEND_SHARE
                && wire.windows[w].achieved_ratio() >= MIN_ACHIEVED_RATIO
        })
        .collect();
    if valid.len() < MIN_VALID_WINDOWS {
        let shares: Vec<String> = wire
            .windows
            .iter()
            .map(|w| format!("{:.3}/{:.3}", w.late_send_share(), w.achieved_ratio()))
            .collect();
        out.invalid = Some(format!(
            "generator-limited: late_send_share/achieved_ratio per window {shares:?} \
             (limits {MAX_LATE_SEND_SHARE}/{MIN_ACHIEVED_RATIO}, {MIN_VALID_WINDOWS} windows must pass)"
        ));
    }
    Timed {
        p50_us: median_over(&valid, |w| wire.windows[w].latency.quantile_us(0.5)),
        cpu_us_per_req: median_over(&valid, |w| {
            cpu[w] / 1e3 / wire.windows[w].completed.max(1) as f64
        }),
        ops_per_s: median_over(&valid, |w| wire.windows[w].completed as f64 / windows.window_s()),
    }
}

/// The median of `value(w)` over the windows `ws`.
fn median_over(ws: &[usize], value: impl Fn(usize) -> f64) -> f64 {
    median(&ws.iter().map(|&w| value(w)).collect::<Vec<_>>())
}

/// One calling thread of an in-process workload.
pub struct StoreThread {
    pub stream: Lane,
    /// Duration of each timed block of [`BLOCK`] calls, per window.
    block_ns: Vec<Histogram>,
    ops: Vec<u64>,
    attempted: u64,
    failed: u64,
}

/// Calls the cache as the server's session layer would.
pub fn exec(cache: &ShardedNvMemcached, ctx: &mut ShardedCtx, op: &Op) -> Reply {
    match op.kind {
        Kind::Get => match cache.get(ctx, op.key) {
            Some(value) => Reply::Hit { key: op.key, value },
            None => Reply::Miss,
        },
        Kind::Set => match cache.set(ctx, op.key, op.value) {
            Ok(()) => Reply::Stored,
            Err(_) => Reply::Other,
        },
    }
}

/// The closed loop: one thread per stream generates [`BLOCK`] requests,
/// then times the [`BLOCK`] calls, until the last window ends.
fn run_store(
    cache: &ShardedNvMemcached,
    streams: Vec<Lane>,
    windows: Windows,
    miss_ok: bool,
) -> (Vec<StoreThread>, Vec<f64>) {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let threads: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| {
                s.spawn(move || {
                    proc::pin(i);
                    let mut t = StoreThread {
                        stream,
                        block_ns: vec![Histogram::default(); windows.n],
                        ops: vec![0; windows.n],
                        attempted: 0,
                        failed: 0,
                    };
                    let mut ctx = cache.register();
                    let mut block = [Op { kind: Kind::Get, key: 1, value: 0 }; BLOCK];
                    while Instant::now() < start {
                        std::hint::spin_loop();
                    }
                    loop {
                        block.fill_with(|| t.stream.next().expect("endless stream"));
                        let t0 = start.elapsed().as_nanos() as u64;
                        for op in &block {
                            let reply = exec(cache, &mut ctx, op);
                            t.failed += u64::from(!op.accepts(reply, miss_ok));
                        }
                        let t1 = start.elapsed().as_nanos() as u64;
                        t.attempted += BLOCK as u64;
                        if let Some(w) = windows.of(t1) {
                            t.block_ns[w].record(t1 - t0);
                            t.ops[w] += BLOCK as u64;
                        } else if t1 >= windows.total_ns() {
                            return t;
                        }
                    }
                })
            })
            .collect();
        let cpu = cpu_per_window(start, windows, None);
        (threads.into_iter().map(|t| t.join().expect("store thread panicked")).collect(), cpu)
    })
}

fn store_metrics(
    threads: &[StoreThread],
    cpu: &[f64],
    windows: Windows,
    out: &mut Outcome,
) -> Timed {
    out.attempted += threads.iter().map(|t| t.attempted).sum::<u64>();
    out.failed += threads.iter().map(|t| t.failed).sum::<u64>();
    let ops = |w: usize| threads.iter().map(|t| t.ops[w]).sum::<u64>().max(1) as f64;
    let all: Vec<usize> = (0..windows.n).collect();
    Timed {
        p50_us: median_over(&all, |w| {
            let mut blocks = Histogram::default();
            threads.iter().for_each(|t| blocks.merge(&t.block_ns[w]));
            blocks.quantile_us(0.5) / BLOCK as f64
        }),
        cpu_us_per_req: median_over(&all, |w| cpu[w] / 1e3 / ops(w)),
        ops_per_s: median_over(&all, |w| ops(w) / windows.window_s()),
    }
}

/// `restart`'s set-up: `CrashSim` pools, the server, every key stored
/// once and a tenth of them again, closed loop over the wire; then a
/// graceful shutdown. The streams hold what was acknowledged.
pub fn fill_over_wire(
    w: &Workload,
    seed: u64,
    lanes: usize,
    out: &mut Outcome,
) -> (Rig, Vec<Lane>) {
    let rig = rig::build(&w.spec, seed, Mode::CrashSim, true);
    let (server, mut client) = serve(&rig.cache, lanes);
    let mut streams = lanes_for(&w.spec, seed, lanes);
    let fill = closed_loop(&mut client, &mut streams, FILL_DEPTH, None, false);
    out.attempted += fill.attempted;
    out.failed += fill.failed;
    hang_up(server, client);
    (rig, streams)
}

/// What [`take_down`] found.
pub struct TakenDown {
    /// Heap bytes per item just before the shutdown.
    pub heap_bytes_per_item: f64,
    /// Time of each `recover`, in ms.
    pub recover_ms: Vec<f64>,
    /// The allocator's report and the item count of the last restart.
    pub report: RecoveryReport,
    pub items: usize,
    /// The last recovered cache and its pools, for whoever goes on.
    pub cache: ShardedNvMemcached,
    pub pools: Vec<Arc<PmemPool>>,
}

/// Takes the quiescent cache down and restarts it from its image
/// `restarts` times. The first recovered cache is checked against the
/// streams' model.
pub fn take_down(
    rig: Rig,
    spec: &Spec,
    streams: &[Lane],
    restarts: usize,
    out: &mut Outcome,
) -> TakenDown {
    let Rig { pools, cache } = rig;
    cache.quiesce();
    let heap_bytes_per_item = rig::heap_bytes_per_item(&cache);
    let used = rig::pool_bytes_used(&cache);
    let Ok(cache) = Arc::try_unwrap(cache) else { panic!("the cache is still shared") };
    drop(cache);
    let image = Image::capture(&pools, &used);
    let mut recover_ms = Vec::new();
    loop {
        let (cache, report, ms) = rig::restart(&image, &pools, spec.capacity);
        if recover_ms.is_empty() {
            check_contents(&cache, streams, spec.miss_ok(), out);
        }
        recover_ms.push(ms);
        if recover_ms.len() == restarts {
            let items = cache.len();
            return TakenDown { heap_bytes_per_item, recover_ms, report, items, cache, pools };
        }
    }
}

/// Every key the generator stored must read back with its last value;
/// where the cache evicts, a key may be gone but never stale.
fn check_contents(cache: &ShardedNvMemcached, streams: &[Lane], miss_ok: bool, out: &mut Outcome) {
    let mut ctx = cache.register();
    for (key, value) in streams.iter().flat_map(Lane::model) {
        let op = Op { kind: Kind::Get, key, value };
        out.attempted += 1;
        out.failed += u64::from(!op.accepts(exec(cache, &mut ctx, &op), miss_ok));
    }
}
