//! End-to-end socket tests: a real client speaking the ASCII protocol
//! to a real server over loopback TCP.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use nvmemcached::sharded::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PoolBuilder};
use server::{Server, ServerConfig};

fn cache(shards: usize) -> Arc<ShardedNvMemcached> {
    let pools: Vec<_> = (0..shards)
        .map(|_| {
            PoolBuilder::new(16 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect();
    Arc::new(ShardedNvMemcached::create(&pools, 1024, 10_000, true).expect("pool sized"))
}

/// Reads one `\r\n`-terminated line (without the terminator).
fn read_line(r: &mut impl BufRead) -> String {
    let mut s = String::new();
    r.read_line(&mut s).expect("line");
    assert!(s.ends_with("\r\n"), "unterminated line {s:?}");
    s.truncate(s.len() - 2);
    s
}

#[test]
fn set_get_delete_round_trip() {
    let server = Server::start_local(cache(4)).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;

    w.write_all(b"set 42 0 0 5\r\n31337\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "STORED");

    w.write_all(b"get 42 43\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "VALUE 42 0 5");
    assert_eq!(read_line(&mut reader), "31337");
    assert_eq!(read_line(&mut reader), "END");

    w.write_all(b"add 42 0 0 1\r\n9\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "NOT_STORED");
    w.write_all(b"replace 42 0 0 1\r\n9\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "STORED");

    w.write_all(b"delete 42\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "DELETED");
    w.write_all(b"delete 42\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "NOT_FOUND");

    w.write_all(b"get 42\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "END");

    let cache = server.shutdown();
    assert!(cache.is_empty());
}

#[test]
fn pipelined_burst_answers_in_order() {
    let server = Server::start_local(cache(2)).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;

    // One write, many commands: noreply sets interleaved with gets.
    let mut burst = Vec::new();
    for k in 1..=20u64 {
        burst.extend_from_slice(
            format!("set {k} 0 0 {} noreply\r\n{}\r\n", (k * 7).to_string().len(), k * 7)
                .as_bytes(),
        );
    }
    burst.extend_from_slice(b"get 5\r\nget 20\r\nquit\r\n");
    w.write_all(&burst).unwrap();

    assert_eq!(read_line(&mut reader), "VALUE 5 0 2");
    assert_eq!(read_line(&mut reader), "35");
    assert_eq!(read_line(&mut reader), "END");
    assert_eq!(read_line(&mut reader), "VALUE 20 0 3");
    assert_eq!(read_line(&mut reader), "140");
    assert_eq!(read_line(&mut reader), "END");
    // quit: server closes without a response.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "unexpected trailing bytes {rest:?}");

    server.shutdown();
}

#[test]
fn protocol_errors_keep_or_close_the_connection_appropriately() {
    let server = Server::start_local(cache(1)).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;

    w.write_all(b"bogus\r\nget 1\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "ERROR");
    assert_eq!(read_line(&mut reader), "END");

    // Framing loss: error line, then EOF.
    w.write_all(b"set 1 0 0 2\r\n12junk\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "CLIENT_ERROR bad data chunk");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty());

    // The server keeps accepting fresh connections afterwards.
    let stream = TcpStream::connect(server.local_addr()).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    w.write_all(b"version\r\n").unwrap();
    assert!(read_line(&mut reader).starts_with("VERSION "));

    server.shutdown();
}

#[test]
fn concurrent_connections_share_the_cache() {
    let server =
        Server::start(cache(4), ServerConfig { workers: Some(8), ..ServerConfig::default() })
            .expect("bind loopback");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut w = stream;
                for i in 0..50u64 {
                    let key = t * 1000 + i + 1;
                    let val = key * 3;
                    let data = val.to_string();
                    w.write_all(format!("set {key} 0 0 {}\r\n{data}\r\n", data.len()).as_bytes())
                        .unwrap();
                    assert_eq!(read_line(&mut reader), "STORED");
                    w.write_all(format!("get {key}\r\n").as_bytes()).unwrap();
                    assert_eq!(read_line(&mut reader), format!("VALUE {key} 0 {}", data.len()));
                    assert_eq!(read_line(&mut reader), data);
                    assert_eq!(read_line(&mut reader), "END");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let cache = server.shutdown();
    assert_eq!(cache.len(), 8 * 50);
    // Tallies flushed by the dropped per-connection sessions.
    assert_eq!(cache.shard_requests().iter().sum::<u64>(), 8 * 50 * 2);
}

/// Connections ≫ workers: 64 sockets opened from one thread are
/// multiplexed over 2 readiness loops, every one with a pipelined
/// `set`+`get` burst in flight before the first reply is read.
#[test]
fn many_connections_are_multiplexed_over_few_workers() {
    const CONNECTIONS: u64 = 64;
    const BURST: u64 = 8;
    let server =
        Server::start(cache(4), ServerConfig { workers: Some(2), ..ServerConfig::default() })
            .expect("bind loopback");
    let keys = |c: u64| (1..=BURST).map(move |i| c * 100 + i);

    let mut conns: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            let mut burst = String::new();
            for key in keys(c) {
                let data = (key * 3).to_string();
                burst.push_str(&format!("set {key} 0 0 {}\r\n{data}\r\n", data.len()));
            }
            for key in keys(c) {
                burst.push_str(&format!("get {key}\r\n"));
            }
            stream.write_all(burst.as_bytes()).expect("send burst");
            BufReader::new(stream)
        })
        .collect();
    for (c, reader) in conns.iter_mut().enumerate() {
        for _ in keys(c as u64) {
            assert_eq!(read_line(reader), "STORED");
        }
        for key in keys(c as u64) {
            let data = (key * 3).to_string();
            assert_eq!(read_line(reader), format!("VALUE {key} 0 {}", data.len()));
            assert_eq!(read_line(reader), data);
            assert_eq!(read_line(reader), "END");
        }
    }

    // All 64 connections are still open: shutdown must not wait on them.
    let cache = server.shutdown();
    assert_eq!(cache.len() as u64, CONNECTIONS * BURST);
    assert_eq!(cache.shard_requests().iter().sum::<u64>(), CONNECTIONS * BURST * 2);
}

#[test]
fn server_keeps_serving_during_live_grow() {
    // Small bucket arrays so the grow has real migration work to do
    // while the clients hammer it.
    let pools: Vec<_> = (0..2)
        .map(|_| {
            PoolBuilder::new(32 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect();
    let cache =
        Arc::new(ShardedNvMemcached::create(&pools, 64, 1_000_000, true).expect("pool sized"));
    let server =
        Server::start(Arc::clone(&cache), ServerConfig { workers: Some(2), ..Default::default() })
            .expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;

    for k in 1..=400u64 {
        let data = (k * 7).to_string();
        w.write_all(format!("set {k} 0 0 {}\r\n{data}\r\n", data.len()).as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), "STORED");
    }

    // Grow every shard 4x from a direct (in-process) connection while
    // the TCP client keeps reading and writing mid-migration.
    let grower = std::thread::spawn({
        let cache = Arc::clone(&cache);
        move || {
            let mut ctx = cache.register();
            assert_eq!(cache.grow(&mut ctx, 4).expect("pool sized"), 2, "both shards started");
            cache.finish_resize(&mut ctx).expect("pool sized");
            // No drain_all here: clients are live, reclamation stays
            // deferred until their epochs pass.
        }
    });
    for k in 1..=400u64 {
        let data = (k * 7).to_string();
        w.write_all(format!("get {k}\r\n").as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), format!("VALUE {k} 0 {}", data.len()));
        assert_eq!(read_line(&mut reader), data);
        assert_eq!(read_line(&mut reader), "END");
    }
    for k in 401..=500u64 {
        let data = (k * 7).to_string();
        w.write_all(format!("set {k} 0 0 {}\r\n{data}\r\n", data.len()).as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), "STORED");
    }
    grower.join().expect("grower thread");

    // Post-grow: everything is still there, over TCP.
    for k in 1..=500u64 {
        let data = (k * 7).to_string();
        w.write_all(format!("get {k}\r\n").as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), format!("VALUE {k} 0 {}", data.len()));
        assert_eq!(read_line(&mut reader), data);
        assert_eq!(read_line(&mut reader), "END");
    }
    drop((w, reader));
    let cache = server.shutdown();
    assert!(!cache.resize_in_flight());
    for shard in cache.shards().iter() {
        assert_eq!(shard.capacity_hint(), 256, "4x grow from 64 buckets");
    }
    assert_eq!(cache.len(), 500);
}

#[test]
fn server_keeps_serving_during_live_reshard() {
    let pools: Vec<_> = (0..2)
        .map(|_| {
            PoolBuilder::new(32 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect();
    let cache =
        Arc::new(ShardedNvMemcached::create(&pools, 64, 1_000_000, true).expect("pool sized"));
    let server =
        Server::start(Arc::clone(&cache), ServerConfig { workers: Some(2), ..Default::default() })
            .expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;

    for k in 1..=400u64 {
        let data = (k * 7).to_string();
        w.write_all(format!("set {k} 0 0 {}\r\n{data}\r\n", data.len()).as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), "STORED");
    }

    // Start a live 2→4 reshard from the admin side; the TCP client
    // keeps reading, writing and polling `stats reshard` while the
    // migration is stepped along between its requests.
    let new_pools: Vec<_> = (0..4)
        .map(|_| {
            PoolBuilder::new(32 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect();
    cache.reshard_start(&new_pools, 64).expect("fresh target pools");

    w.write_all(b"stats reshard\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "STAT topology_version 1");
    assert_eq!(read_line(&mut reader), "STAT shards 2");
    assert_eq!(read_line(&mut reader), "STAT reshard_in_flight 1");
    assert_eq!(read_line(&mut reader), "STAT reshard_from 2");
    assert_eq!(read_line(&mut reader), "STAT reshard_to 4");
    assert_eq!(read_line(&mut reader), "STAT reshard_cursor 0");
    assert_eq!(read_line(&mut reader), "STAT reshard_target_version 2");
    assert_eq!(read_line(&mut reader), "END");

    // Serve traffic with the migration mid-flight: one drained shard.
    assert!(!cache.reshard_step().expect("pool sized"), "first of two shards drained");
    for k in 1..=400u64 {
        let data = (k * 7).to_string();
        w.write_all(format!("get {k}\r\n").as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), format!("VALUE {k} 0 {}", data.len()));
        assert_eq!(read_line(&mut reader), data);
        assert_eq!(read_line(&mut reader), "END");
    }
    for k in 401..=500u64 {
        let data = (k * 7).to_string();
        w.write_all(format!("set {k} 0 0 {}\r\n{data}\r\n", data.len()).as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), "STORED");
    }
    while !cache.reshard_step().expect("pool sized") {}

    w.write_all(b"stats reshard\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "STAT topology_version 2");
    assert_eq!(read_line(&mut reader), "STAT shards 4");
    assert_eq!(read_line(&mut reader), "STAT reshard_in_flight 0");
    assert_eq!(read_line(&mut reader), "END");

    // Post-reshard: everything is still there, over TCP.
    for k in 1..=500u64 {
        let data = (k * 7).to_string();
        w.write_all(format!("get {k}\r\n").as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), format!("VALUE {k} 0 {}", data.len()));
        assert_eq!(read_line(&mut reader), data);
        assert_eq!(read_line(&mut reader), "END");
    }
    drop((w, reader));
    let cache = server.shutdown();
    assert_eq!(cache.n_shards(), 4);
    assert_eq!(cache.len(), 500);
    for (i, shard) in cache.shards().iter().enumerate() {
        for (k, _) in shard.snapshot() {
            assert_eq!(cache.shard_of(k), i, "key {k} in wrong shard after live reshard");
        }
    }
}

#[test]
fn stats_reshard_arguments_are_validated() {
    let server = Server::start_local(cache(2)).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    w.write_all(b"stats bogus\r\nstats reshard\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "ERROR");
    assert_eq!(read_line(&mut reader), "STAT topology_version 1");
    assert_eq!(read_line(&mut reader), "STAT shards 2");
    assert_eq!(read_line(&mut reader), "STAT reshard_in_flight 0");
    assert_eq!(read_line(&mut reader), "END");
    server.shutdown();
}

#[test]
fn stats_report_shard_topology() {
    let server = Server::start_local(cache(3)).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    w.write_all(b"stats\r\n").unwrap();
    assert_eq!(read_line(&mut reader), "STAT shards 3");
    assert_eq!(read_line(&mut reader), "STAT curr_items 0");
    assert_eq!(read_line(&mut reader), "STAT evictions 0");
    assert_eq!(read_line(&mut reader), "STAT linkcache_adds 0");
    assert_eq!(read_line(&mut reader), "STAT linkcache_fallbacks 0");
    assert_eq!(read_line(&mut reader), "STAT linkcache_flushes 0");
    assert_eq!(read_line(&mut reader), "STAT linkcache_links_flushed 0");
    assert_eq!(read_line(&mut reader), "STAT curr_connections 1");
    assert_eq!(read_line(&mut reader), "STAT total_connections 1");
    // The request itself ("stats\r\n", 7 bytes) was read before the
    // counters were rendered.
    assert_eq!(read_line(&mut reader), "STAT bytes_read 7");
    assert!(read_line(&mut reader).starts_with("STAT bytes_written "));
    assert_eq!(read_line(&mut reader), "END");
    server.shutdown();
}

/// Reads `stats` over `r`/`w` and returns the named counter's value.
fn stat_counter(w: &mut TcpStream, r: &mut impl BufRead, name: &str) -> u64 {
    w.write_all(b"stats\r\n").unwrap();
    let mut found = None;
    loop {
        let line = read_line(r);
        if line == "END" {
            return found.unwrap_or_else(|| panic!("stats response lacked {name}"));
        }
        if let Some(v) = line.strip_prefix(&format!("STAT {name} ")) {
            found = Some(v.parse().expect("numeric counter"));
        }
    }
}

#[test]
fn stats_counters_move_with_traffic() {
    let server = Server::start_local(cache(2)).expect("bind loopback");
    let addr = server.local_addr();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;

    let conns0 = stat_counter(&mut w, &mut reader, "curr_connections");
    let accepts0 = stat_counter(&mut w, &mut reader, "total_connections");
    let read0 = stat_counter(&mut w, &mut reader, "bytes_read");
    let written0 = stat_counter(&mut w, &mut reader, "bytes_written");
    assert_eq!(conns0, 1);
    assert_eq!(accepts0, 1);
    assert!(read0 > 0 && written0 > 0);

    // A second connection does a round trip and disconnects: accepts
    // advance past curr_connections, bytes advance on both directions.
    {
        let s2 = TcpStream::connect(addr).expect("connect");
        let mut r2 = BufReader::new(s2.try_clone().expect("clone"));
        let mut w2 = s2;
        w2.write_all(b"set 7 0 0 2\r\n77\r\n").unwrap();
        assert_eq!(read_line(&mut r2), "STORED");
        w2.write_all(b"quit\r\n").unwrap();
        let mut rest = Vec::new();
        r2.read_to_end(&mut rest).expect("eof");
    }

    // The second connection's teardown is asynchronous to this client;
    // poll until the server observes the close.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while stat_counter(&mut w, &mut reader, "curr_connections") != 1 {
        assert!(std::time::Instant::now() < deadline, "close never observed");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(stat_counter(&mut w, &mut reader, "total_connections"), 2);
    assert!(stat_counter(&mut w, &mut reader, "bytes_read") > read0);
    assert!(stat_counter(&mut w, &mut reader, "bytes_written") > written0);

    let cache = server.shutdown();
    assert_eq!(cache.len(), 1);
}

#[test]
fn stats_count_every_eviction() {
    let pools: Vec<_> = (0..2)
        .map(|_| {
            PoolBuilder::new(16 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect();
    // 10 items per shard; 100 new keys overflow both shards.
    let cache = Arc::new(ShardedNvMemcached::create(&pools, 64, 20, true).expect("pool sized"));
    let server = Server::start_local(cache).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    let mut per_shard = [0u64; 2];
    for k in 1..=100u64 {
        w.write_all(format!("set {k} 0 0 1\r\n1\r\n").as_bytes()).unwrap();
        assert_eq!(read_line(&mut reader), "STORED");
        per_shard[nvmemcached::sharded::shard_of(k, 2)] += 1;
    }
    // One connection is one thread: each shard evicts down to exactly
    // its capacity.
    let expect: u64 = per_shard.iter().map(|&n| n.saturating_sub(10)).sum();
    assert_eq!(stat_counter(&mut w, &mut reader, "evictions"), expect);
    assert_eq!(stat_counter(&mut w, &mut reader, "curr_items"), 20);
    drop((w, reader));
    let cache = server.shutdown();
    assert_eq!(cache.evictions() + cache.len() as u64, 100);
}

#[test]
fn write_path_counters_move_under_sets() {
    let server = Server::start_local(cache(2)).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    // 500 new keys over 2 shards x 32 link-cache buckets of 6 entries:
    // every link is deposited, and the buckets fill and flush many times.
    let mut burst = Vec::new();
    for key in 1..=500u32 {
        write!(burst, "set {key} 0 0 1\r\n1\r\n").unwrap();
    }
    w.write_all(&burst).unwrap();
    for _ in 0..500 {
        assert_eq!(read_line(&mut reader), "STORED");
    }
    assert_eq!(stat_counter(&mut w, &mut reader, "curr_items"), 500);
    let adds = stat_counter(&mut w, &mut reader, "linkcache_adds");
    let flushes = stat_counter(&mut w, &mut reader, "linkcache_flushes");
    let flushed = stat_counter(&mut w, &mut reader, "linkcache_links_flushed");
    assert!(adds >= 500, "each new key deposits its link: {adds}");
    assert!(flushes > 0 && flushed >= flushes, "full buckets flushed: {flushes} / {flushed}");
    assert!(stat_counter(&mut w, &mut reader, "linkcache_fallbacks") < adds / 20);

    // Overwrites deposit links too, and leave the item count alone.
    w.write_all(&burst).unwrap();
    for _ in 0..500 {
        assert_eq!(read_line(&mut reader), "STORED");
    }
    assert!(stat_counter(&mut w, &mut reader, "linkcache_adds") >= adds + 500);
    assert_eq!(stat_counter(&mut w, &mut reader, "curr_items"), 500);
    server.shutdown();
}

/// Dropping a `Server` without `shutdown()` stops its workers: they
/// see the wake pipe's EOF, leave their loops and release their clones
/// of the cache (instead of spinning on the forever-readable pipe).
#[test]
fn dropped_server_stops_its_workers() {
    let cache = cache(2);
    let server = Server::start_local(Arc::clone(&cache)).expect("bind loopback");
    assert!(Arc::strong_count(&cache) > 1, "workers hold the cache while serving");
    drop(server);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while Arc::strong_count(&cache) > 1 {
        assert!(std::time::Instant::now() < deadline, "workers still running after drop");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Backpressure end-to-end: a client that pipelines a response volume
/// far beyond the socket buffers *without reading* must neither wedge
/// the worker (other connections stay live) nor lose bytes once it
/// finally drains. write_cap forces the partial-write/EPOLLOUT path on
/// every flush.
#[test]
fn slow_client_backpressure_neither_wedges_nor_drops() {
    let server = Server::start(
        cache(2),
        ServerConfig { workers: Some(1), write_cap: Some(1024), ..ServerConfig::default() },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let slow = TcpStream::connect(addr).expect("connect");
    let mut slow_w = slow.try_clone().expect("clone");
    // Store one fat-ish value, then pipeline thousands of gets for it
    // in one burst. The responses (~36 bytes each) total ~1.4 MB —
    // far beyond socket buffering — while this client reads nothing.
    let mut burst = b"set 1 0 0 18\r\n123456789012345678\r\n".to_vec();
    const GETS: usize = 40_000;
    for _ in 0..GETS {
        burst.extend_from_slice(b"get 1\r\n");
    }
    let writer = std::thread::spawn(move || slow_w.write_all(&burst).map(|()| slow_w));

    // Same (sole) worker: a second connection keeps getting served
    // while the slow one is parked on backpressure.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let live = TcpStream::connect(addr).expect("connect");
    let mut live_r = BufReader::new(live.try_clone().expect("clone"));
    let mut live_w = live;
    for _ in 0..5 {
        live_w.write_all(b"version\r\n").unwrap();
        assert!(read_line(&mut live_r).starts_with("VERSION "));
    }

    // Now drain the slow client completely: every response must arrive
    // intact and in order.
    let mut slow_r = BufReader::new(slow);
    assert_eq!(read_line(&mut slow_r), "STORED");
    for i in 0..GETS {
        assert_eq!(read_line(&mut slow_r), "VALUE 1 0 18", "get #{i}");
        assert_eq!(read_line(&mut slow_r), "123456789012345678", "get #{i}");
        assert_eq!(read_line(&mut slow_r), "END", "get #{i}");
    }
    let slow_w = writer.join().expect("writer thread").expect("burst written");
    drop((slow_w, slow_r));
    server.shutdown();
}
