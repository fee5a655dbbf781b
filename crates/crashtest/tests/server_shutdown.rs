//! Server-shutdown crash coverage: every `STORED`/`DELETED` the TCP
//! server acknowledged must survive a power loss *at any point after*
//! graceful shutdown.
//!
//! The durability contract of the server layer is that
//! `Server::shutdown` joins every worker and quiesces the cache's
//! epochs before returning — from that moment on, the durable image is
//! complete. This test drives real clients over loopback TCP, records
//! exactly which responses were acknowledged on the wire, shuts the
//! server down, then *crashes the pools* (restores the shadow image a
//! real power loss would leave) and recovers a fresh
//! [`ShardedNvMemcached`] from them. Every acknowledged write must be
//! visible in the recovered cache.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use nvmemcached::sharded::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
use server::{Server, ServerConfig};

fn pools(n: usize) -> Vec<Arc<PmemPool>> {
    (0..n)
        .map(|_| {
            PoolBuilder::new(16 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect()
}

fn read_line(r: &mut impl BufRead) -> String {
    let mut s = String::new();
    r.read_line(&mut s).expect("line");
    assert!(s.ends_with("\r\n"), "unterminated line {s:?}");
    s.truncate(s.len() - 2);
    s
}

#[test]
fn acknowledged_writes_survive_crash_after_graceful_shutdown() {
    const CLIENTS: u64 = 4;
    const OPS: u64 = 120;
    let pools = pools(2);
    let cache =
        Arc::new(ShardedNvMemcached::create(&pools, 1024, 100_000, true).expect("pools sized"));
    let server = Server::start(
        Arc::clone(&cache),
        ServerConfig { workers: Some(CLIENTS as usize), ..ServerConfig::default() },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Disjoint key spaces per client, so the last acknowledged state of
    // every key is known without cross-thread ordering questions. Each
    // client interleaves sets, overwrites and deletes; only responses
    // actually read off the wire count as acknowledged.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut w = stream;
                let mut acked: HashMap<u64, Option<u64>> = HashMap::new();
                for i in 0..OPS {
                    let key = t * 10_000 + i % 40 + 1;
                    if i % 7 == 6 {
                        w.write_all(format!("delete {key}\r\n").as_bytes()).unwrap();
                        let resp = read_line(&mut reader);
                        assert!(resp == "DELETED" || resp == "NOT_FOUND", "{resp}");
                        acked.insert(key, None);
                    } else {
                        let val = t * 1_000_000 + i;
                        let data = val.to_string();
                        w.write_all(
                            format!("set {key} 0 0 {}\r\n{data}\r\n", data.len()).as_bytes(),
                        )
                        .unwrap();
                        assert_eq!(read_line(&mut reader), "STORED");
                        acked.insert(key, Some(val));
                    }
                }
                acked
            })
        })
        .collect();
    let mut expected: HashMap<u64, Option<u64>> = HashMap::new();
    for h in handles {
        expected.extend(h.join().expect("client thread"));
    }

    // Graceful shutdown: workers joined, epochs quiesced. The returned
    // Arc is the last live handle; dropping it releases the pools.
    let cache = server.shutdown();
    drop(cache);

    // Power loss after shutdown: revert every pool to exactly what a
    // crash would leave durable, then recover from the images.
    for pool in &pools {
        // SAFETY: no live cache references the pools (dropped above).
        unsafe { pool.simulate_crash().expect("crash-sim pool") };
    }
    let (recovered, _report) =
        ShardedNvMemcached::recover(&pools, 100_000).expect("geometry recorded");

    let mut ctx = recovered.register();
    for (&key, &want) in &expected {
        assert_eq!(
            recovered.get(&mut ctx, key),
            want,
            "key {key}: acknowledged state lost across shutdown + crash + recovery"
        );
    }
    let live = expected.values().filter(|v| v.is_some()).count();
    assert_eq!(recovered.len(), live, "recovered item count != acknowledged live keys");
}
