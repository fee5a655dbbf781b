//! Simulated NVRAM costs resident memory only where it was written.
//!
//! A single test, so this binary is its own process and nothing else
//! moves its RSS while it measures.
#![cfg(target_os = "linux")]

use std::sync::atomic::Ordering;

use pmem::{LatencyModel, Mode, PoolBuilder};

/// A `kB` field of `/proc/self/status`, such as `VmRSS` or `VmHWM`.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{field} unparsable in {line:?}: {e}"))
}

#[test]
fn a_crash_cycle_costs_memory_only_where_the_pool_was_written() {
    const POOL: usize = 128 << 20;
    const WRITTEN: usize = 1 << 20;
    const BOUND_KIB: u64 = 16 << 10;

    let before = status_kib("VmRSS");
    let pool = PoolBuilder::new(POOL).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
    let mut f = pool.flusher();
    let start = pool.heap_start();
    let mut words = (start..start + WRITTEN).step_by(8);
    for addr in words.clone() {
        pool.atomic_u64(addr).store(addr as u64, Ordering::Relaxed);
    }
    f.persist(start, WRITTEN);
    let img = pool.capture_crash_image().expect("crash-sim pool");
    // SAFETY: this thread is the pool's only user.
    unsafe { pool.crash_to_image(&img).expect("crash-sim pool") };
    // SAFETY: as above.
    unsafe { pool.simulate_crash().expect("crash-sim pool") };
    assert!(words.all(|a| pool.atomic_u64(a).load(Ordering::Relaxed) == a as u64));

    // The high-water mark bounds the growth at every step above, not
    // just at the end, and the crash image is still alive here.
    let grown = status_kib("VmHWM").saturating_sub(before);
    assert!(
        grown < BOUND_KIB,
        "a {POOL}-byte CrashSim pool with {WRITTEN} bytes written grew RSS by {grown} KiB; \
         pool, shadow and crash image should each cost about what was written"
    );
    drop(img);
}
