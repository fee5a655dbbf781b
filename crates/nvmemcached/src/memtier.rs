//! memtier_benchmark-style workload driver (§6.5).
//!
//! Mirrors the paper's methodology: a mix of `get` and `set` operations
//! over a configurable key range, a configurable set:get ratio (the
//! paper uses 1:4), and a warm-up phase that populates half the key
//! range before the timed run. In-process rather than over the network —
//! see the crate docs for why that preserves the comparison.
//!
//! Request *generation* lives in the [`workload`] crate: [`Workload`] is
//! a re-export of [`workload::TrafficSpec`] (so skewed distributions —
//! zipfian, hotspot, latest — are available via
//! [`TrafficSpec::with_dist`]), and
//! [`RequestStream`] is a thin adapter mapping the engine's
//! [`workload::CacheOp`]s onto this module's [`Request`]s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use workload::{CacheOp, CacheStream, KeySampler, TrafficSpec};

/// The shape of a cache workload (re-exported traffic engine spec; the
/// paper's uniform 1:4 configuration is [`Workload::paper`]).
pub type Workload = TrafficSpec;

/// A single cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `set key value`.
    Set(u64, u64),
    /// `get key`.
    Get(u64),
}

/// Deterministic per-thread request generator: an adapter over the
/// traffic engine's [`CacheStream`] (the modeled value *size* of a `set`
/// is dropped here — the in-process caches store fixed-width `u64`
/// values).
pub struct RequestStream {
    inner: CacheStream,
}

impl RequestStream {
    /// The request stream of worker `thread` under `workload`.
    pub fn new(workload: &Workload, thread: usize) -> Self {
        Self { inner: workload.stream(thread) }
    }

    /// The same stream over a pre-built sampler
    /// ([`workload::TrafficSpec::sampler`]) — zipfian/latest sampler
    /// construction is O(key_range), so drivers spawning many workers
    /// build it once ([`run_threads`] does).
    pub fn with_sampler(workload: &Workload, sampler: KeySampler, thread: usize) -> Self {
        Self { inner: workload.stream_with(sampler, thread) }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    #[inline]
    fn next(&mut self) -> Option<Request> {
        Some(match self.inner.next().expect("infinite stream") {
            CacheOp::Set { key, value } => Request::Set(key, value),
            CacheOp::Get { key } => Request::Get(key),
        })
    }
}

/// What the cache did with one request, as observed by the worker that
/// executed it. Returned by the worker closure so [`run_threads`] can
/// aggregate the hit/miss profile of the run (memtier_benchmark reports
/// exactly these counters next to throughput).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOutcome {
    /// A `set` was executed.
    Set,
    /// A `get` found the key.
    Hit,
    /// A `get` missed.
    Miss,
}

/// Result of a timed run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Total requests executed.
    pub requests: u64,
    /// Wall-clock duration of the timed phase.
    pub elapsed: Duration,
    /// `set` requests executed.
    pub sets: u64,
    /// `get` requests that found their key.
    pub hits: u64,
    /// `get` requests that missed.
    pub misses: u64,
}

impl RunResult {
    /// Requests per second (0.0 for an empty or zero-duration run —
    /// never NaN, so medians and JSON stay well-defined).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if self.requests == 0 || secs <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / secs
    }

    /// `get` requests executed (hits + misses).
    pub fn gets(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of `get` requests that found their key (0.0 when the
    /// run issued no gets — never NaN).
    pub fn hit_rate(&self) -> f64 {
        if self.gets() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.gets() as f64
    }
}

/// A cache the memtier driver can run against: per-worker connection
/// state plus one entry point executing a request and reporting what the
/// cache did with it.
///
/// Implemented by every system under test ([`crate::NvMemcached`],
/// [`crate::ClhtMemcached`], [`crate::VolatileMemcached`], and the
/// sharded [`crate::ShardedNvMemcached`]) so one driver —
/// [`run_cache`] — produces the same [`RunResult`] counters for all of
/// them.
pub trait MemtierCache: Sync {
    /// Per-worker connection state (thread contexts and the like),
    /// created before the timed window opens.
    type Conn: Send;

    /// Creates one worker's connection (e.g. registers its thread
    /// contexts).
    fn connect(&self) -> Self::Conn;

    /// Executes one request and reports its outcome.
    fn exec(&self, conn: &mut Self::Conn, req: Request) -> ReqOutcome;
}

/// Maps one request onto a cache's set/get entry points and classifies
/// the outcome — the shared body of every [`MemtierCache::exec`]
/// implementation, so the counter semantics cannot drift between
/// systems.
pub fn exec_kv<C>(
    conn: &mut C,
    req: Request,
    set: impl FnOnce(&mut C, u64, u64),
    get: impl FnOnce(&mut C, u64) -> bool,
) -> ReqOutcome {
    match req {
        Request::Set(k, v) => {
            set(conn, k, v);
            ReqOutcome::Set
        }
        Request::Get(k) => {
            if get(conn, k) {
                ReqOutcome::Hit
            } else {
                ReqOutcome::Miss
            }
        }
    }
}

/// Runs the timed workload against any [`MemtierCache`]: `ops_per_thread`
/// requests on each of `threads` workers, aggregated into one
/// [`RunResult`]. Thin wrapper over [`run_threads`].
pub fn run_cache<C: MemtierCache>(
    cache: &C,
    threads: usize,
    ops_per_thread: u64,
    workload: Workload,
) -> RunResult {
    run_threads(threads, ops_per_thread, workload, |_t| {
        let mut conn = cache.connect();
        move |req| cache.exec(&mut conn, req)
    })
}

/// Runs `ops_per_thread` requests on each of `threads` workers.
/// `make_worker(tid)` returns the per-thread closure executing one
/// request (capturing the system under test and its thread context) and
/// reporting what the cache did with it ([`ReqOutcome`]), from which the
/// run's hit/miss counters are aggregated.
///
/// Worker construction (e.g. thread-context registration) happens
/// *before* a start barrier and the timed window opens after it, so the
/// reported throughput covers only request execution — systems with
/// expensive per-thread setup are not penalised relative to those
/// without.
pub fn run_threads<W, F>(
    threads: usize,
    ops_per_thread: u64,
    workload: Workload,
    make_worker: F,
) -> RunResult
where
    F: Fn(usize) -> W + Sync,
    W: FnMut(Request) -> ReqOutcome + Send,
{
    let sets = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let barrier = std::sync::Barrier::new(threads + 1);
    let elapsed = std::thread::scope(|s| {
        let sampler = workload.sampler();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut worker = make_worker(t);
                let mut stream = RequestStream::with_sampler(&workload, sampler, t);
                let (sets, hits, misses) = (&sets, &hits, &misses);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let (mut ls, mut lh, mut lm) = (0u64, 0u64, 0u64);
                    for _ in 0..ops_per_thread {
                        match worker(stream.next().expect("infinite stream")) {
                            ReqOutcome::Set => ls += 1,
                            ReqOutcome::Hit => lh += 1,
                            ReqOutcome::Miss => lm += 1,
                        }
                    }
                    sets.fetch_add(ls, Ordering::Relaxed);
                    hits.fetch_add(lh, Ordering::Relaxed);
                    misses.fetch_add(lm, Ordering::Relaxed);
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
        start.elapsed()
    });
    RunResult {
        requests: threads as u64 * ops_per_thread,
        elapsed,
        sets: sets.load(Ordering::Relaxed),
        hits: hits.load(Ordering::Relaxed),
        misses: misses.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_approximately_one_to_four() {
        let w = Workload::paper(1000, 42);
        let mut sets = 0;
        let mut gets = 0;
        for req in RequestStream::new(&w, 0).take(100_000) {
            match req {
                Request::Set(..) => sets += 1,
                Request::Get(_) => gets += 1,
            }
        }
        let frac = sets as f64 / (sets + gets) as f64;
        assert!((0.18..0.22).contains(&frac), "set fraction {frac}");
    }

    #[test]
    fn keys_stay_in_range() {
        let w = Workload::paper(100, 7);
        for req in RequestStream::new(&w, 3).take(10_000) {
            let k = match req {
                Request::Set(k, _) => k,
                Request::Get(k) => k,
            };
            assert!((1..=100).contains(&k));
        }
    }

    #[test]
    fn streams_are_deterministic_per_thread() {
        let w = Workload::paper(100, 7);
        let a: Vec<_> = RequestStream::new(&w, 1).take(100).collect();
        let b: Vec<_> = RequestStream::new(&w, 1).take(100).collect();
        let c: Vec<_> = RequestStream::new(&w, 2).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn warmup_covers_half_range() {
        let w = Workload::paper(1000, 1);
        let keys: Vec<_> = w.warmup_keys().collect();
        assert_eq!(keys.len(), 500);
        assert_eq!(keys[0], 1);
        assert_eq!(*keys.last().unwrap(), 500);
    }

    #[test]
    fn run_threads_counts_requests() {
        let w = Workload::paper(50, 3);
        let counter = std::sync::atomic::AtomicU64::new(0);
        let r = run_threads(4, 1000, w, |_t| {
            let c = &counter;
            move |req| {
                c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                match req {
                    Request::Set(..) => ReqOutcome::Set,
                    Request::Get(_) => ReqOutcome::Hit,
                }
            }
        });
        assert_eq!(r.requests, 4000);
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 4000);
        assert!(r.throughput() > 0.0);
        assert_eq!(r.sets + r.hits + r.misses, 4000, "every request has an outcome");
        assert_eq!(r.gets(), r.hits, "this worker never reported a miss");
    }

    #[test]
    fn hit_and_miss_counters_aggregate() {
        // Workers report a hit for even keys and a miss for odd keys; the
        // aggregated counters must reflect exactly that split.
        let w = Workload::paper(100, 11);
        let r = run_threads(2, 5_000, w, |_t| {
            move |req| match req {
                Request::Set(..) => ReqOutcome::Set,
                Request::Get(k) => {
                    if k % 2 == 0 {
                        ReqOutcome::Hit
                    } else {
                        ReqOutcome::Miss
                    }
                }
            }
        });
        assert_eq!(r.sets + r.gets(), 10_000);
        assert!(r.hits > 0 && r.misses > 0);
        assert!((0.4..0.6).contains(&r.hit_rate()), "hit rate {}", r.hit_rate());
    }

    #[test]
    fn hit_rate_of_getless_run_is_zero() {
        let w = Workload { set_fraction: 1.0, ..Workload::paper(10, 1) };
        let r = run_threads(1, 100, w, |_t| |_req| ReqOutcome::Set);
        assert_eq!(r.gets(), 0);
        assert_eq!(r.hit_rate(), 0.0);
    }

    #[test]
    fn zero_request_run_has_zero_throughput_and_hit_rate() {
        let r = RunResult { requests: 0, elapsed: Duration::ZERO, sets: 0, hits: 0, misses: 0 };
        assert_eq!(r.throughput(), 0.0, "no NaN from 0/0");
        assert_eq!(r.hit_rate(), 0.0);
        // Zero-duration but non-empty (a degenerate clock) is also 0.0.
        let r = RunResult { requests: 10, elapsed: Duration::ZERO, sets: 0, hits: 5, misses: 5 };
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.hit_rate(), 0.5);
    }

    #[test]
    fn skewed_workloads_flow_through_the_driver() {
        use workload::KeyDist;
        let w = Workload::paper(1000, 9).with_dist(KeyDist::ZIPF_99);
        let mut hot = 0u64;
        let n = 50_000;
        for req in RequestStream::new(&w, 0).take(n) {
            let k = match req {
                Request::Set(k, _) => k,
                Request::Get(k) => k,
            };
            assert!((1..=1000).contains(&k));
            if k <= 10 {
                hot += 1;
            }
        }
        // Zipf-0.99 mass of the top 10 of 1000 keys is ~0.39; uniform
        // would put ~1% there.
        assert!(hot as f64 / n as f64 > 0.3, "zipfian skew visible through the adapter");
    }
}
