//! The fixed configuration every run uses (the flush policy, stated
//! once) and the steps every workload shares: build the cache, take it
//! down, restart it from an image.
//!
//! 2 shards, default `ServerConfig` (event loop, one worker per shard),
//! 1024 buckets at creation with auto-grow, link cache on, `Mode::Perf`
//! with a 125 ns write latency for every timed run (the paper's §6.1
//! method); `Mode::CrashSim`, same latency, only where a crash image is
//! needed. Server and load generator share one process and talk over
//! loopback TCP.

use std::sync::Arc;
use std::time::Instant;

use nvalloc::RecoveryReport;
use nvmemcached::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};

use crate::gen::{prefill_value, Spec};

pub const SHARDS: usize = 2;
pub const CREATE_BUCKETS: usize = 1024;
pub const NVRAM_WRITE_NS: u64 = 125;

/// Pool bytes per item the cache may hold, and the floor per shard.
/// An item costs ~50 B of heap at steady state; the rest is slack for
/// outgrown bucket arrays and nodes waiting for their epoch.
const POOL_BYTES_PER_ITEM: u64 = 160;
const POOL_FLOOR: u64 = 32 << 20;

/// Load-generating threads (in-process workloads) or connections (wire
/// workloads): 2, or 1 on a single-core box.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

pub struct Rig {
    pub pools: Vec<Arc<PmemPool>>,
    pub cache: Arc<ShardedNvMemcached>,
}

/// Builds the pools and the cache for `spec` and stores the prefill
/// keys; any auto-grow the prefill starts is finished before returning.
/// `link_cache` is on everywhere but in the rung that measures what it
/// saves.
pub fn build(spec: &Spec, seed: u64, mode: Mode, link_cache: bool) -> Rig {
    let items = spec.keys.min(spec.capacity as u64);
    let bytes = (items * POOL_BYTES_PER_ITEM / SHARDS as u64).max(POOL_FLOOR);
    let pools: Vec<_> = (0..SHARDS)
        .map(|_| {
            PoolBuilder::new(bytes as usize)
                .mode(mode)
                .latency(LatencyModel::new(NVRAM_WRITE_NS))
                .build()
        })
        .collect();
    let cache = ShardedNvMemcached::create(&pools, CREATE_BUCKETS, spec.capacity, link_cache)
        .expect("pool sized for the workload");
    let mut ctx = cache.register();
    for key in 1..=spec.prefill {
        cache.set(&mut ctx, key, prefill_value(seed, key)).expect("pool sized for the workload");
    }
    cache.finish_resize(&mut ctx).expect("pool sized for the workload");
    drop(ctx);
    Rig { pools, cache: Arc::new(cache) }
}

/// Heap bytes in use (durable bump pointer minus the first data page,
/// summed over shards) per item the cache holds.
pub fn heap_bytes_per_item(cache: &ShardedNvMemcached) -> f64 {
    let heap: usize = cache
        .shards()
        .iter()
        .map(|s| s.domain().heap().bump() - nvalloc::heap::data_start(s.domain().pool()))
        .sum();
    heap as f64 / cache.len().max(1) as f64
}

/// Bytes of each shard's pool in use, from the pool's start to the
/// heap's bump pointer: what [`Image::capture`] has to copy.
pub fn pool_bytes_used(cache: &ShardedNvMemcached) -> Vec<usize> {
    cache.shards().iter().map(|s| s.domain().heap().bump() - s.domain().pool().start()).collect()
}

/// What the pools would hold after a restart.
pub enum Image {
    /// `Mode::CrashSim`: the shadow image — only what a fence committed.
    Crash(Vec<Vec<u64>>),
    /// `Mode::Perf` has no shadow; after a clean shutdown the working
    /// memory up to the heap's bump pointer *is* the image.
    Clean(Vec<Vec<u8>>),
}

impl Image {
    /// Captures the image of quiescent pools; `used` is what
    /// [`pool_bytes_used`] said while the cache still existed. The
    /// caller must have dropped the cache (and every context) since, so
    /// the allocator's parked state is in the image and nothing writes
    /// during the copy.
    pub fn capture(pools: &[Arc<PmemPool>], used: &[usize]) -> Image {
        if pools[0].mode() == Mode::CrashSim {
            return Image::crash_cut(pools);
        }
        Image::Clean(
            pools
                .iter()
                .zip(used)
                .map(|(p, &used)| {
                    assert!(used <= p.len());
                    // SAFETY: `[start, start + used)` lies inside the
                    // pool and no thread is writing it (see above).
                    unsafe { std::slice::from_raw_parts(p.as_mut_ptr(p.start()), used) }.to_vec()
                })
                .collect(),
        )
    }

    /// The durable image of `CrashSim` pools right now; safe while the
    /// server is running (each pool's cut is atomic per fence batch).
    pub fn crash_cut(pools: &[Arc<PmemPool>]) -> Image {
        Image::Crash(
            pools.iter().map(|p| p.capture_crash_image().expect("CrashSim pool")).collect(),
        )
    }

    /// Puts the image back, as a power cycle would. No cache or context
    /// may exist over the pools.
    pub fn restore(&self, pools: &[Arc<PmemPool>]) {
        match self {
            Image::Crash(snaps) => {
                for (pool, snap) in pools.iter().zip(snaps) {
                    // SAFETY: the caller holds the only handles to the
                    // pools; no thread is accessing them.
                    unsafe { pool.crash_to_image(snap) }.expect("CrashSim pool");
                }
            }
            Image::Clean(snaps) => {
                for (pool, snap) in pools.iter().zip(snaps) {
                    // SAFETY: `snap` was copied from the start of this
                    // very pool, so it fits; nothing else accesses it.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            snap.as_ptr(),
                            pool.as_mut_ptr(pool.start()),
                            snap.len(),
                        );
                    }
                }
            }
        }
    }
}

/// One timed restart: restore `image`, then `recover`. Returns the
/// recovered cache, the allocator's report and the `recover` time.
pub fn restart(
    image: &Image,
    pools: &[Arc<PmemPool>],
    capacity: usize,
) -> (ShardedNvMemcached, RecoveryReport, f64) {
    image.restore(pools);
    let t = Instant::now();
    let (cache, report) =
        ShardedNvMemcached::recover(pools, capacity).expect("geometry written at creation");
    (cache, report, t.elapsed().as_secs_f64() * 1e3)
}
