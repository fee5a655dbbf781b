//! The operator's walkthrough: boot the TCP server on a durable
//! sharded cache, drive it with a small closed-loop client, then change
//! the topology underneath the live traffic — a 4x bucket-array grow and
//! a 2→4 shard reshard — reading `stats reshard` and the table's `stats`
//! lines along the way, and finally restart-as-recovery from the new
//! pools alone.
//!
//! The driver here only keeps the server busy and checks every reply;
//! what a request *costs* (latency percentiles, CPU per request) is the
//! `benchmark/` package's business.
//!
//! ```sh
//! cargo run --release --example operate_cache
//! ```
//!
//! README "Operating the cache" narrates this file section by section.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvram_logfree::nvmemcached::memtier::{Request, RequestStream, Workload};
use nvram_logfree::prelude::*;
use server::{Server, ServerConfig};

const KEY_RANGE: u64 = 50_000;
const BUCKETS: usize = 1024;

fn fresh_pools(n: usize) -> Vec<Arc<PmemPool>> {
    (0..n).map(|_| PoolBuilder::new(64 << 20).mode(Mode::CrashSim).build()).collect()
}

/// One ASCII command over its own connection; returns the lines up to
/// and including `END` — exactly what `printf 'stats reshard\r\n' | nc`
/// would show.
fn ask(addr: SocketAddr, cmd: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream.write_all(format!("{cmd}\r\n").as_bytes()).expect("send command");
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.expect("well-formed response line");
        let done = line == "END";
        lines.push(line);
        if done {
            break;
        }
    }
    lines
}

/// The table's lines of `stats`: heap bytes in use, bucket count, array
/// bytes and whether a resize is in flight, each summed over shards.
fn print_hash_stats(addr: SocketAddr) {
    let table_line = |l: &&String| l.starts_with("STAT hash_") || l.starts_with("STAT bytes ");
    for line in ask(addr, "stats").iter().filter(table_line) {
        println!("  {line}");
    }
}

/// Closed loop, std only: 4 connections, each sent a burst of 16
/// pipelined requests and then read dry, round after round for 500 ms.
/// Every reply is checked; prints the achieved requests/s.
fn drive(addr: SocketAddr, label: &str, workload: Workload) {
    const CONNECTIONS: usize = 4;
    const BURST: usize = 16;
    let mut conns: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let stream = TcpStream::connect(addr).expect("server is listening");
            stream.set_nodelay(true).expect("loopback socket");
            (BufReader::new(stream), RequestStream::new(&workload, c))
        })
        .collect();
    let (start, mut done, mut line) = (Instant::now(), 0u64, String::new());
    while start.elapsed() < Duration::from_millis(500) {
        for (reader, requests) in &mut conns {
            let mut burst = String::new();
            for request in requests.by_ref().take(BURST) {
                match request {
                    Request::Set(k, v) => {
                        let data = v.to_string();
                        burst.push_str(&format!("set {k} 0 0 {}\r\n{data}\r\n", data.len()));
                    }
                    Request::Get(k) => burst.push_str(&format!("get {k}\r\n")),
                }
            }
            reader.get_mut().write_all(burst.as_bytes()).expect("send burst");
        }
        for (reader, _) in &mut conns {
            // One reply per request; each ends with a `STORED` or `END` line.
            let mut replies = 0;
            while replies < BURST {
                line.clear();
                assert_ne!(reader.read_line(&mut line).expect("read reply"), 0, "server hung up");
                assert!(!line.contains("ERROR"), "[{label}] server said {line:?}");
                replies += matches!(line.trim_end(), "STORED" | "END") as usize;
            }
            done += BURST as u64;
        }
    }
    let rps = done as f64 / start.elapsed().as_secs_f64();
    println!("[{label}] {done} requests over {CONNECTIONS} connections, {rps:.0} requests/s");
}

fn main() {
    // Boot: two durable shard pools behind the memcached ASCII protocol.
    let old_pools = fresh_pools(2);
    let cache = Arc::new(
        ShardedNvMemcached::create(&old_pools, BUCKETS, 1 << 20, true).expect("pools sized"),
    );
    let workload = Workload::paper(KEY_RANGE, 7);
    {
        let mut ctx = cache.register();
        for k in workload.warmup_keys() {
            cache.set(&mut ctx, k, k).expect("pools sized");
        }
    }
    // Default config: the epoll event loop multiplexes every connection
    // over one worker per shard.
    let server = Server::start(Arc::clone(&cache), ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    println!("serving {} items on {addr}", cache.len());

    // Steady state under load, then the topology stats.
    drive(addr, "steady state", workload);
    for line in ask(addr, "stats reshard") {
        println!("  {line}");
    }
    // The pools hold the capacity, so the table was built for it.
    print_hash_stats(addr);

    // Live grow: 4x the bucket arrays while the server keeps serving.
    {
        let mut ctx = cache.register();
        cache.grow(&mut ctx, 4).expect("pool room for the new arrays");
        cache.finish_resize(&mut ctx).expect("pools sized");
    }
    drive(addr, "after 4x grow", workload);
    print_hash_stats(addr);

    // Live reshard: commit the 2→4 migration, read its progress over
    // the wire, then drain it while the client hammers.
    let new_pools = fresh_pools(4);
    cache.reshard_start(&new_pools, BUCKETS).expect("fresh target pools");
    println!("mid-flight:");
    for line in ask(addr, "stats reshard") {
        println!("  {line}");
    }
    std::thread::scope(|s| {
        let cache = &cache;
        s.spawn(move || while !cache.reshard_step().expect("target pools sized") {});
        drive(addr, "during reshard", workload);
    });
    println!("after reshard:");
    for line in ask(addr, "stats reshard") {
        println!("  {line}");
    }

    // Planned shutdown: drain connections, quiesce every shard pool.
    let cache = server.shutdown();
    let items = cache.len();
    drop(cache);

    // Restart-as-recovery from the four new pools alone — the retired
    // originals are no longer needed once the reshard committed.
    for pool in &new_pools {
        // SAFETY: the server is shut down; no thread touches the pools.
        unsafe { pool.simulate_crash().expect("crash-sim pool") };
    }
    let (cache, report) = ShardedNvMemcached::recover(&new_pools, 1 << 20).expect("clean topology");
    assert_eq!(cache.len(), items, "every completed item survived the restart");
    println!(
        "recovered {} items on {} shards (topology v{}), {} leak(s) freed",
        cache.len(),
        cache.n_shards(),
        cache.version(),
        report.leaks_freed
    );
    let server = Server::start_local(Arc::new(cache)).expect("bind loopback");
    drive(server.local_addr(), "after recovery", workload);
    server.shutdown();
}
