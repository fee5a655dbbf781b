//! Quickstart: a durable hash table that survives a power failure.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use nvram_logfree::prelude::*;

fn main() {
    // 1. Simulated NVRAM with crash simulation (in production this would
    //    be a DAX-mapped persistent-memory file).
    let pool = PoolBuilder::new(64 << 20).mode(Mode::CrashSim).build();

    // 2. An allocation domain (NV-epochs) and a durable, lock-free hash
    //    table anchored at root slot 1.
    let domain = NvDomain::create(Arc::clone(&pool));
    let table = HashTable::create(&domain, 1, 4096, LinkOps::new(Arc::clone(&pool), None))
        .expect("pool large enough");

    // 3. Ordinary concurrent-map usage. Every completed update is durable
    //    when the call returns — no logging involved.
    let mut ctx = domain.register();
    for k in 1..=1000u64 {
        table.insert(&mut ctx, k, k * k).unwrap();
    }
    for k in 1..=500u64 {
        table.remove(&mut ctx, k);
    }
    println!("before crash: get(750) = {:?}", table.get(&mut ctx, 750));
    drop(ctx);

    // 4. Power failure! Everything not durably written back is lost.
    // SAFETY: no other thread is using the pool.
    unsafe { pool.simulate_crash().expect("crash-sim pool") };
    println!("-- power failure --");

    // 5. Reboot: re-attach, repair in milliseconds, and keep serving.
    let domain = NvDomain::attach(Arc::clone(&pool));
    let table = HashTable::attach(&domain, 1, LinkOps::new(Arc::clone(&pool), None));
    let mut flusher = pool.flusher();
    let (dirty, unlinked, live) = table.recover(&mut flusher);
    let report = domain.recover_leaks(|addr| table.contains_node_at(addr));
    println!(
        "recovered {live} keys: {dirty} dirty links cleaned, {unlinked} deletions completed, \
         {} leaked nodes freed ({} slots checked)",
        report.leaks_freed, report.slots_scanned
    );

    let mut ctx = domain.register();
    assert_eq!(table.get(&mut ctx, 750), Some(750 * 750));
    assert_eq!(table.get(&mut ctx, 250), None, "removed before the crash");
    table.insert(&mut ctx, 250, 1).unwrap();
    println!("after recovery: get(750) = {:?}", table.get(&mut ctx, 750));
    println!("ok: all operations completed before the crash are reflected");
}
