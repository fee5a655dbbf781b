//! NV-Memcached session (§6.5): a durable object cache whose restart is a
//! recovery, not a cold re-population.
//!
//! ```sh
//! cargo run --release --example kv_cache
//! ```

use std::sync::Arc;
use std::time::Instant;

use nvram_logfree::nvmemcached::memtier::{run_threads, ReqOutcome, Request, Workload};
use nvram_logfree::nvmemcached::NvMemcached;
use nvram_logfree::prelude::*;

fn main() {
    let key_range = 50_000u64;
    let pool = PoolBuilder::new(256 << 20).mode(Mode::CrashSim).build();
    let cache = NvMemcached::create(Arc::clone(&pool), key_range as usize, 1 << 20, true)
        .expect("pool large enough");

    // Warm up half the key range, as memtier does.
    let workload = Workload::paper(key_range, 7);
    let t = Instant::now();
    {
        let mut ctx = cache.register();
        for k in workload.warmup_keys() {
            cache.set(&mut ctx, k, k).expect("pool sized");
        }
    }
    println!("warm-up of {} items took {:?}", key_range / 2, t.elapsed());

    // Serve a 1:4 set:get mix on 4 threads.
    let result = run_threads(4, 100_000, workload, |_tid| {
        let mut ctx = cache.register();
        let cache = &cache;
        move |req| match req {
            Request::Set(k, v) => {
                cache.set(&mut ctx, k, v).expect("pool sized");
                ReqOutcome::Set
            }
            Request::Get(k) => {
                if cache.get(&mut ctx, k).is_some() {
                    ReqOutcome::Hit
                } else {
                    ReqOutcome::Miss
                }
            }
        }
    });
    println!(
        "served {} requests at {:.0} ops/s ({} items cached, {:.0}% get hit rate)",
        result.requests,
        result.throughput(),
        cache.len(),
        100.0 * result.hit_rate()
    );

    // Power failure.
    drop(cache);
    // SAFETY: all workers joined.
    unsafe { pool.simulate_crash().expect("crash-sim pool") };
    println!("-- power failure --");

    // Recovery instead of a cold start: milliseconds instead of a full
    // re-population (Figure 11's right-hand plot).
    let t = Instant::now();
    let (cache, report) = NvMemcached::recover(Arc::clone(&pool), 1 << 20)
        .expect("intact geometry, with room to finish any resize");
    println!(
        "recovered {} items in {:?} ({} leaked items freed)",
        cache.len(),
        t.elapsed(),
        report.leaks_freed
    );

    let mut ctx = cache.register();
    let hits = (1..=1000u64).filter(|&k| cache.get(&mut ctx, k).is_some()).count();
    println!("spot check: {hits}/1000 of the first keys still present");
    println!("(a handful of the very last sets may be absent: their links were");
    println!(" still in the link cache when power failed — the deferred-durability");
    println!(" window of §4.1; no *read* ever observed them, so consistency holds)");
}
