//! End-to-end open-loop client tests over a real server: the
//! multiplexed (epoll) driver must account for every request and offer
//! the same schedule whatever its thread count.

use std::sync::Arc;
use std::time::Duration;

use bench::openloop::{run_open_loop, OpenLoopConfig};
use nvmemcached::memtier::Workload;
use nvmemcached::sharded::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PoolBuilder};
use server::Server;

fn serve(shards: usize) -> (Server, u64) {
    const RANGE: u64 = 2_000;
    let pools: Vec<_> = (0..shards)
        .map(|_| {
            PoolBuilder::new(32 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect();
    let cache =
        Arc::new(ShardedNvMemcached::create(&pools, 1024, 100_000, true).expect("pool sized"));
    {
        let mut ctx = cache.register();
        for k in Workload::paper(RANGE, 42).warmup_keys() {
            cache.set(&mut ctx, k, k).expect("pool sized");
        }
    }
    (Server::start_local(cache).expect("bind loopback"), RANGE)
}

fn cfg(server: &Server, range: u64, conns: usize, client_threads: usize) -> OpenLoopConfig {
    OpenLoopConfig {
        addr: server.local_addr(),
        connections: conns,
        offered_rps: 4_000.0,
        duration: Duration::from_millis(150),
        workload: Workload::paper(range, 42),
        seed: 1914,
        client_threads,
    }
}

/// The multiplexed driver against the event-driven server: many more
/// connections than either server workers or client threads, full
/// schedule drained, every request accounted for exactly once.
#[test]
fn multiplexed_client_drains_the_full_schedule() {
    let (server, range) = serve(2);
    let conns = 16;
    let r = run_open_loop(&cfg(&server, range, conns, 2)).expect("open-loop run");

    // The schedule is fixed: ceil(per-conn rate x duration) per conn.
    let per_conn = (4_000.0 / conns as f64 * 0.150_f64).ceil() as u64;
    assert_eq!(r.sent, per_conn * conns as u64, "every scheduled request completed");
    assert_eq!(r.latency.count(), r.sent, "one latency sample per request");
    assert_eq!(r.sets + r.hits + r.misses, r.sent, "every request classified");
    assert!(r.sets > 0, "the 1:4 mix sent sets");
    assert!(r.hits > 0, "warmed cache produced hits");
    assert!(r.hit_rate() > 0.5, "hit rate {}", r.hit_rate());
    assert!(r.achieved_rps() > 0.0);
    assert!(r.latency.percentile(50.0) > 0);
    server.shutdown();
}

/// Thread-count independence: every connection's arrival schedule and
/// request stream are seeded by its global index, so the number of
/// client threads changes *who waits*, never *what is offered* — same
/// request counts, same set/get split. (Hits vs misses may trade places:
/// a `get` racing another connection's `set` of the same cold key.)
#[test]
fn client_thread_count_does_not_change_the_offered_load() {
    let (server_a, range) = serve(2);
    let one = run_open_loop(&cfg(&server_a, range, 8, 1)).expect("1-thread run");
    server_a.shutdown();

    let (server_b, range) = serve(2);
    let four = run_open_loop(&cfg(&server_b, range, 8, 4)).expect("4-thread run");
    server_b.shutdown();

    assert_eq!(one.sent, four.sent);
    assert_eq!(one.sets, four.sets);
    assert_eq!(one.hits + one.misses, four.hits + four.misses);
}

/// Set-up failures surface as an error before any worker is spawned
/// (a worker failing ahead of the start barrier would park the rest),
/// and `client_threads = 0` is clamped to one worker, not zero.
#[test]
fn setup_errors_return_and_zero_threads_is_clamped() {
    let (server, range) = serve(1);
    let r = run_open_loop(&cfg(&server, range, 2, 0)).expect("clamped to one thread");
    assert!(r.sent > 0, "a zero-thread config must not report an empty run");
    let dead = cfg(&server, range, 8, 4);
    server.shutdown();
    // The listener is closed: every connect is refused.
    assert!(run_open_loop(&dead).is_err());
}
