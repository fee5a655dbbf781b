//! **Sharded NV-Memcached**: N independent [`NvMemcached`] shards behind
//! a routing function, with a **live reshard** that changes N without
//! downtime.
//!
//! Real memcached deployments scale by partitioning; the durable cache
//! partitions the same way. Each shard owns its *own* [`PmemPool`],
//! [`nvalloc::NvDomain`], hash table and eviction clock, so shards share
//! no memory, no locks and no durable state — the only cross-shard
//! coupling is the routing function ([`shard_of`]). That
//! independence buys three things:
//!
//! * **Throughput**: heap page lists, epoch vectors, eviction hands
//!   and (in crash-sim mode) shadow word arrays are no longer contended
//!   across the whole cache. Within a shard, each thread batches its
//!   item count and sweeps its share of the hand in a slot of its own
//!   (the private `evict` module).
//! * **Parallel recovery**: after a crash every shard repairs its table
//!   and reclaims its leaks on its own thread
//!   ([`ShardedNvMemcached::recover`]), and the per-shard
//!   [`RecoveryReport`]s are merged into one aggregate.
//! * **Fault isolation**: a crash mid-operation can leave in-flight state
//!   in at most the shard the operation routed to; every other shard
//!   recovers exactly its completed history. The crashtest subsystem
//!   enumerates crash points over the sharded cache to validate exactly
//!   this invariant (see `crashtest::ShardedTarget`).
//!
//! # Durable geometry
//!
//! Each shard's pool records `(cache_id, version, shard_count,
//! shard_index)` in root slot [`SHARD_GEOMETRY_ROOT`], durably written at
//! creation (the cache id ties every pool to the `create` call that
//! formatted it; the version stamps which *topology generation* the pool
//! belongs to). [`ShardedNvMemcached::recover`] validates the recorded
//! geometry against the pools it is given *before* touching any data —
//! opening with the wrong pool count, pools mixed in from a different
//! cache, or pools in the wrong order fails with a [`GeometryError`]
//! instead of serving scrambled routing.
//!
//! # Elastic topology
//!
//! [`ShardedNvMemcached::reshard`] migrates the cache from its N current
//! shards to N' freshly formatted shard pools *while continuing to serve
//! traffic*. It is the hash table's resize one level up: each old bucket
//! is drained — claimed, copied into its keys' new home shards, then
//! detached to a durable sentinel — by the table's own bucket drain. One
//! commit record (root slot [`crate::reshard::RESHARD_STATE_ROOT`] of old
//! pool 0) says a reshard is owed, the sentinels say how far it got, and
//! `recover()` rolls a half-migrated topology forward to the new version.
//! In flight, a write drains its key's old bucket and then writes the new
//! home; a read tries the old shard and follows a `Moved` outcome to the
//! new one. See [`crate::reshard`] for the details.
//!
//! `ShardedNvMemcached` over a single shard is behaviorally identical to
//! a standalone [`NvMemcached`] (the shard *is* an `NvMemcached`; with
//! `n = 1` routing is constant), which keeps single-system paper
//! comparisons honest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use linkcache::LinkCacheStats;
use logfree::hash::{Lookup, Put, PutMode, Removed};
use nvalloc::{OutOfMemory, RecoveryReport, ThreadCtx};
use parking_lot::Mutex;
use pmem::{FlushStats, PmemPool};

use crate::memtier::{MemtierCache, ReqOutcome, Request};
use crate::reshard::{self, Flight};
use crate::NvMemcached;

/// Root-directory slot recording the shard geometry word in every shard
/// pool (distinct from [`crate::NVMC_ROOT`], which anchors the shard's
/// hash table).
pub const SHARD_GEOMETRY_ROOT: usize = 9;

/// Maximum shard count a geometry word can record (12-bit field).
pub const MAX_SHARDS: usize = (1 << 12) - 1;

/// Maximum topology version a geometry word can record (16-bit field).
pub(crate) const MAX_VERSION: u32 = u16::MAX as u32;

/// Routes `key` to a shard index in `0..n_shards`.
///
/// Uses the splitmix64 finalizer — deliberately *not* the murmur3
/// `fmix64` whose low bits pick a key's bucket in the per-shard hash
/// table. With one function for both, `shard_of(k, 2)` would equal bit 0
/// of every bucket index in its shard and half of each shard's buckets
/// would stay empty. With two unrelated mixers one shard's keys fill as
/// many buckets as a uniform hash, `n·(1 − e^(−N/n))` (the 499 467
/// shard-0 keys of `1..=1_000_000` occupy 223 245 of 262 144 buckets).
#[inline]
pub fn shard_of(key: u64, n_shards: usize) -> usize {
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % n_shards.max(1) as u64) as usize
}

/// Why a set of pools was rejected by [`ShardedNvMemcached::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// No pools were given.
    NoPools,
    /// The pool at `position` has no shard geometry recorded (it never
    /// belonged to a sharded cache, or the record was never made
    /// durable).
    NotSharded {
        /// Index of the offending pool in the given slice.
        position: usize,
    },
    /// The pool at `position` records a different shard count than the
    /// number of same-version pools given.
    ShardCount {
        /// Index of the offending pool in the given slice.
        position: usize,
        /// The shard count durably recorded in that pool.
        recorded: u32,
        /// The number of same-version pools actually given.
        given: usize,
    },
    /// The pool at `position` records a different shard index — the
    /// pools belong to this geometry but were passed in the wrong order
    /// (routing would scramble).
    ShardIndex {
        /// Index of the offending pool in the given slice.
        position: usize,
        /// The shard index durably recorded in that pool.
        recorded: u32,
    },
    /// The pool at `position` records a different cache id than pool 0 —
    /// the pools come from two different sharded caches whose layouts
    /// merely happen to match (mixing them would silently serve a
    /// frankenstein key space).
    CacheMismatch {
        /// Index of the offending pool in the given slice.
        position: usize,
        /// Cache id recorded in pool 0.
        expected: u32,
        /// Cache id recorded in this pool.
        found: u32,
    },
    /// The pools span more than two topology versions, or two versions
    /// that are not adjacent — no single reshard connects them, so no
    /// roll-forward is possible.
    VersionSkew {
        /// Lowest version seen.
        lo: u32,
        /// Highest version seen.
        hi: u32,
    },
    /// Pools of two adjacent versions were given, but the old group's
    /// reshard state word is absent: the reshard to `version` never
    /// committed, so the newer pools hold no owed data. Recover with the
    /// old-version pools only.
    Uncommitted {
        /// Version of the never-committed topology.
        version: u32,
    },
    /// The durable reshard state word does not describe the given pools
    /// (torn write, bits outside its fields, or pools mixed in from a
    /// different reshard). The fields are the word as recorded.
    TornReshard {
        /// Old shard count recorded in the state word.
        old: u32,
        /// New shard count recorded in the state word.
        new: u32,
        /// Target topology version recorded in the state word.
        version: u32,
    },
    /// A committed reshard to `version` is recorded, but the pools of
    /// that topology were not given — the data (partially or fully)
    /// lives in the absent pools, so these pools alone are not the
    /// authoritative cache.
    MissingShards {
        /// Target version of the committed reshard.
        version: u32,
        /// Shard count of the absent topology.
        expected: u32,
    },
    /// Rolling a committed reshard forward ran out of space in the
    /// target pools while draining old shard `old_shard`. Every bucket
    /// drained before it keeps its sentinel; the one that failed stays
    /// whole in its old shard.
    TargetFull {
        /// Index of the old shard whose drain could not finish.
        old_shard: usize,
    },
    /// Shard `shard`'s pool has no room to finish the bucket-array
    /// resize a crash caught in flight (the drain copies every node of
    /// the buckets it has not moved yet).
    ResizeFull {
        /// Index of the shard in its topology.
        shard: usize,
    },
    /// Shard `shard`'s hash-table geometry is torn: its header or a
    /// bucket array it references cannot be trusted, so recovery refuses
    /// the pool instead of walking wild pointers.
    TornTable {
        /// Index of the shard in its topology.
        shard: usize,
        /// What the table's recovery found.
        error: logfree::GeometryError,
    },
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GeometryError::NoPools => write!(f, "no shard pools given"),
            GeometryError::NotSharded { position } => {
                write!(f, "pool {position} has no shard geometry recorded")
            }
            GeometryError::ShardCount { position, recorded, given } => write!(
                f,
                "pool {position} records {recorded} shard(s) but {given} pool(s) were given"
            ),
            GeometryError::ShardIndex { position, recorded } => write!(
                f,
                "pool at position {position} records shard index {recorded} (pools out of order)"
            ),
            GeometryError::CacheMismatch { position, expected, found } => write!(
                f,
                "pool {position} records cache id {found:#x} but pool 0 records {expected:#x} \
                 (pools from different sharded caches)"
            ),
            GeometryError::VersionSkew { lo, hi } => write!(
                f,
                "pools span topology versions {lo}..={hi}, which no single reshard connects"
            ),
            GeometryError::Uncommitted { version } => write!(
                f,
                "pools of version {version} were formatted but the reshard never committed; \
                 recover with the old-version pools only"
            ),
            GeometryError::TornReshard { old, new, version } => write!(
                f,
                "reshard state word [old={old} new={new} version={version}] \
                 does not describe the given pools (torn topology)"
            ),
            GeometryError::MissingShards { version, expected } => write!(
                f,
                "a committed reshard to version {version} ({expected} shard(s)) is recorded \
                 but those pools were not given"
            ),
            GeometryError::TargetFull { old_shard } => {
                write!(f, "the target pools filled up while rolling old shard {old_shard} forward")
            }
            GeometryError::ResizeFull { shard } => {
                write!(f, "shard {shard}'s pool has no room to finish its interrupted resize")
            }
            GeometryError::TornTable { shard, error } => write!(f, "shard {shard}: {error}"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Geometry word layout:
/// `[cache_id:24][version:16][shard_count:12][shard_index:12]`.
/// The cache id ties a pool to the `create` call that formatted it, so
/// pools from two different caches with the same `(count, index)` layout
/// cannot be mixed; ids are never zero, so a valid word is never zero.
/// The version stamps the topology generation the pool belongs to
/// (`create` writes 1; each committed reshard formats its new pools with
/// the next version).
pub(crate) fn pack_geometry(cache_id: u32, version: u32, count: usize, index: usize) -> u64 {
    assert!(count <= MAX_SHARDS, "shard count {count} exceeds the geometry word");
    assert!(version <= MAX_VERSION, "topology version {version} exceeds the geometry word");
    assert!(cache_id < (1 << 24) && cache_id != 0, "cache id out of range");
    ((cache_id as u64) << 40) | ((version as u64) << 24) | ((count as u64) << 12) | index as u64
}

/// `(cache_id, version, count, index)` from a geometry word.
pub(crate) fn unpack_geometry(word: u64) -> (u32, u32, u32, u32) {
    (
        (word >> 40) as u32,
        ((word >> 24) & 0xFFFF) as u32,
        ((word >> 12) & 0xFFF) as u32,
        (word & 0xFFF) as u32,
    )
}

/// A fresh (non-zero, process-unique, time-salted) 24-bit cache id.
fn fresh_cache_id() -> u32 {
    use std::sync::atomic::AtomicU32;
    static NEXT: AtomicU32 = AtomicU32::new(1);
    let salt = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed) as u64;
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut x = nanos ^ (salt << 32) ^ salt;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((((x >> 32) ^ x) as u32) & ((1 << 24) - 1)).max(1)
}

/// One shard's aggregated request tally, padded to its own cache line
/// (same discipline as the epoch vector's padding in `nvalloc`). These
/// are touched only when a connection drops — the hot path counts into
/// plain per-connection `u64`s ([`ShardedCtx`]), so the tally adds no
/// shared-memory traffic to the requests being measured.
#[repr(align(128))]
pub(crate) struct ShardTally(pub(crate) AtomicU64);

pub(crate) fn new_tallies(n: usize) -> Arc<[ShardTally]> {
    (0..n).map(|_| ShardTally(AtomicU64::new(0))).collect()
}

/// One immutable topology generation: the serving shards, their request
/// tallies, and (while a reshard is migrating) the in-flight target. A
/// new `Arc<Topology>` is published for every change; connections pin the
/// generation they registered against ([`ShardedCtx`]), so retiring old
/// shards is epoch-safe — the old generation's memory is dropped only
/// when the last connection that could still route into it refreshes or
/// disconnects.
pub(crate) struct Topology {
    pub(crate) version: u32,
    pub(crate) shards: Arc<[NvMemcached]>,
    /// Volatile per-shard request tally (every routed `set`/`get`/
    /// `delete`/`add`/`replace`), the basis of the skew experiments'
    /// imbalance metric. Accumulated per connection and flushed when the
    /// connection drops. Not persisted; recovery starts from zero.
    pub(crate) requests: Arc<[ShardTally]>,
    pub(crate) flight: Option<Arc<Flight>>,
}

impl Topology {
    /// The serving shards followed by the in-flight target shards, if any.
    fn all_shards(&self) -> impl Iterator<Item = &NvMemcached> {
        self.shards.iter().chain(self.flight.iter().flat_map(|f| f.new_shards.iter()))
    }
}

/// The durable cache, partitioned into independent shards.
pub struct ShardedNvMemcached {
    pub(crate) topology: Mutex<Arc<Topology>>,
    /// Bumped on every topology change (reshard start / completion);
    /// connections compare it against their pinned generation and
    /// re-register when stale. One relaxed-load-free `Acquire` read per
    /// operation.
    pub(crate) gen: AtomicU64,
    pub(crate) cache_id: u32,
    pub(crate) capacity: usize,
    pub(crate) use_link_cache: bool,
}

impl std::fmt::Debug for ShardedNvMemcached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let top = self.topology();
        f.debug_struct("ShardedNvMemcached")
            .field("n_shards", &top.shards.len())
            .field("version", &top.version)
            .field("reshard_in_flight", &top.flight.is_some())
            .field("len", &self.len())
            .finish()
    }
}

/// Per-worker operation state: one [`ThreadCtx`] per shard (each shard is
/// its own allocation domain), plus this connection's plain request
/// tallies — counted without any shared-memory traffic and flushed into
/// the cache-wide counters when the connection drops. Create via
/// [`ShardedNvMemcached::register`].
///
/// The context *pins* the topology generation it registered against.
/// Operations detect a topology change (reshard start or completion) with
/// one atomic load and transparently re-register; a context that never
/// runs another operation keeps the old generation's shards alive until
/// it is dropped, which is exactly what makes old-shard retirement safe
/// against concurrent readers.
pub struct ShardedCtx {
    pub(crate) top: Arc<Topology>,
    pub(crate) gen: u64,
    pub(crate) ctxs: Box<[ThreadCtx]>,
    /// Contexts for the in-flight target shards (empty when no reshard is
    /// migrating).
    pub(crate) new_ctxs: Box<[ThreadCtx]>,
    pub(crate) tallies: Box<[u64]>,
    pub(crate) new_tallies: Box<[u64]>,
    /// One shard's keys of a [`ShardedNvMemcached::prefetch`], reused.
    pub(crate) routed: Vec<u64>,
}

/// A key's shard in a pinned topology: old (the serving shards) or, mid-
/// reshard, new (the flight's target shards).
#[derive(Clone, Copy)]
enum Home {
    Old(usize),
    New(usize),
}

impl Drop for ShardedCtx {
    fn drop(&mut self) {
        self.flush_tallies();
    }
}

impl ShardedCtx {
    /// The context registered with shard `i` of the pinned topology (for
    /// direct shard access in tests and recovery tooling).
    pub fn shard_ctx(&mut self, i: usize) -> &mut ThreadCtx {
        &mut self.ctxs[i]
    }

    /// Drains every shard context's deferred reclamation. Only safe when
    /// no other worker is running operations (shutdown/tests).
    pub fn drain_all(&mut self) {
        for ctx in self.ctxs.iter_mut().chain(self.new_ctxs.iter_mut()) {
            ctx.drain_all();
        }
    }

    /// Where a write of `key` goes in the pinned topology: its shard,
    /// or, mid-reshard, its new home once its old bucket has drained there
    /// — so a key never lives in two places.
    fn write_home(&mut self, key: u64) -> Result<Home, OutOfMemory> {
        let top = &*self.top;
        let s = shard_of(key, top.shards.len());
        let Some(f) = top.flight.as_deref() else {
            return Ok(Home::Old(s));
        };
        let old = &top.shards[s];
        let b = old.table.bucket_of(key);
        reshard::drain_bucket(old, &mut self.ctxs[s], &f.new_shards, &mut self.new_ctxs, b)?;
        Ok(Home::New(shard_of(key, f.new_shards.len())))
    }

    /// The shard at `home` and this context's `ThreadCtx` for it; counts
    /// the request.
    fn at(&mut self, home: Home) -> (&NvMemcached, &mut ThreadCtx) {
        match home {
            Home::Old(s) => {
                self.tallies[s] += 1;
                (&self.top.shards[s], &mut self.ctxs[s])
            }
            Home::New(d) => {
                self.new_tallies[d] += 1;
                let f = self.top.flight.as_deref().expect("a new home exists only mid-reshard");
                (&f.new_shards[d], &mut self.new_ctxs[d])
            }
        }
    }

    /// Flushes this context's request tallies into the pinned
    /// topology's shared counters. Runs automatically on drop; a
    /// long-lived context multiplexing many connections (the
    /// event-driven server's per-worker context) calls it at each
    /// connection close so `shard_requests` stays live.
    pub fn flush_tallies(&mut self) {
        for (tally, shared) in self.tallies.iter_mut().zip(self.top.requests.iter()) {
            if *tally > 0 {
                shared.0.fetch_add(*tally, Ordering::Relaxed);
                *tally = 0;
            }
        }
        if let Some(f) = &self.top.flight {
            for (tally, shared) in self.new_tallies.iter_mut().zip(f.new_requests.iter()) {
                if *tally > 0 {
                    shared.0.fetch_add(*tally, Ordering::Relaxed);
                    *tally = 0;
                }
            }
        }
    }
}

impl ShardedNvMemcached {
    /// Creates a fresh sharded cache: one shard per pool, splitting the
    /// soft `capacity` evenly, and durably records the shard geometry in
    /// every pool. `n_buckets` is each shard's floor: a shard whose pool
    /// holds its share of `capacity` starts with enough buckets for it
    /// ([`NvMemcached::create`]).
    pub fn create(
        pools: &[Arc<PmemPool>],
        n_buckets: usize,
        capacity: usize,
        use_link_cache: bool,
    ) -> Result<Self, OutOfMemory> {
        assert!(!pools.is_empty(), "a sharded cache needs at least one pool");
        assert!(pools.len() <= MAX_SHARDS, "at most {MAX_SHARDS} shards");
        let n = pools.len();
        let cache_id = fresh_cache_id();
        let per_shard_capacity = capacity.div_ceil(n);
        let mut shards = Vec::with_capacity(n);
        for (i, pool) in pools.iter().enumerate() {
            let shard = NvMemcached::create(
                Arc::clone(pool),
                n_buckets,
                per_shard_capacity,
                use_link_cache,
            )?;
            let mut flusher = pool.flusher();
            pool.set_root(SHARD_GEOMETRY_ROOT, pack_geometry(cache_id, 1, n, i), &mut flusher);
            shards.push(shard);
        }
        Ok(Self::assemble(shards, 1, cache_id, capacity, use_link_cache))
    }

    pub(crate) fn assemble(
        shards: Vec<NvMemcached>,
        version: u32,
        cache_id: u32,
        capacity: usize,
        use_link_cache: bool,
    ) -> Self {
        let requests = new_tallies(shards.len());
        let topology = Topology { version, shards: shards.into(), requests, flight: None };
        Self {
            topology: Mutex::new(Arc::new(topology)),
            gen: AtomicU64::new(0),
            cache_id,
            capacity,
            use_link_cache,
        }
    }

    /// The current topology (cheap Arc clone under a short mutex).
    pub(crate) fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.lock())
    }

    /// Validates the durable shard geometry of `pools` as one coherent
    /// single-version topology, without recovering anything: every pool
    /// must record this exact `(count, position)` layout. Mid-reshard
    /// pool sets (two adjacent versions) are handled by
    /// [`ShardedNvMemcached::recover`] instead.
    pub fn validate_geometry(pools: &[Arc<PmemPool>]) -> Result<(), GeometryError> {
        if pools.is_empty() {
            return Err(GeometryError::NoPools);
        }
        let mut expected: Option<(u32, u32)> = None;
        for (position, pool) in pools.iter().enumerate() {
            let word = pool.root(SHARD_GEOMETRY_ROOT);
            if word == 0 {
                return Err(GeometryError::NotSharded { position });
            }
            let (cache_id, version, count, index) = unpack_geometry(word);
            let (eid, eversion) = *expected.get_or_insert((cache_id, version));
            if cache_id != eid {
                return Err(GeometryError::CacheMismatch {
                    position,
                    expected: eid,
                    found: cache_id,
                });
            }
            if version != eversion {
                let (lo, hi) = (version.min(eversion), version.max(eversion));
                return Err(GeometryError::VersionSkew { lo, hi });
            }
            if count as usize != pools.len() {
                return Err(GeometryError::ShardCount {
                    position,
                    recorded: count,
                    given: pools.len(),
                });
            }
            if index as usize != position {
                return Err(GeometryError::ShardIndex { position, recorded: index });
            }
        }
        Ok(())
    }

    /// Re-attaches to a crashed sharded cache: validates the recorded
    /// geometry against `pools`, then recovers every shard **in
    /// parallel** (one thread per shard — each repairs its table and
    /// reclaims its leaks independently) and merges the per-shard
    /// [`RecoveryReport`]s into one aggregate.
    ///
    /// If the pools span **two adjacent topology versions** — a crash hit
    /// mid-reshard — the committed reshard state word of the old group is
    /// validated ([`GeometryError::TornReshard`] on mismatch,
    /// [`GeometryError::Uncommitted`] if the reshard never committed) and
    /// the migration is **rolled forward**: every shard recovers first,
    /// then every old bucket that lacks its sentinel is drained into the
    /// new topology by the live driver's code (a copy a crash left in its
    /// new home stays; it holds the old value). The returned cache serves
    /// the new topology at a single consistent version.
    pub fn recover(
        pools: &[Arc<PmemPool>],
        capacity: usize,
    ) -> Result<(Self, RecoveryReport), GeometryError> {
        reshard::recover_versioned(pools, capacity)
    }

    /// Recovers every pool of one already-validated single-version group
    /// in parallel. Shared by the plain and the roll-forward recovery
    /// paths.
    pub(crate) fn recover_group(
        pools: &[Arc<PmemPool>],
        capacity: usize,
    ) -> Result<(Vec<NvMemcached>, RecoveryReport), GeometryError> {
        let per_shard_capacity = capacity.div_ceil(pools.len().max(1));
        let recovered: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = pools
                .iter()
                .map(|pool| {
                    let pool = Arc::clone(pool);
                    s.spawn(move || NvMemcached::recover(pool, per_shard_capacity))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard recovery panicked")).collect()
        });
        let mut report = RecoveryReport::default();
        let mut shards = Vec::with_capacity(recovered.len());
        for (i, r) in recovered.into_iter().enumerate() {
            let (shard, shard_report) = r.map_err(|error| match error {
                logfree::GeometryError::ResizeFull => GeometryError::ResizeFull { shard: i },
                error => GeometryError::TornTable { shard: i, error },
            })?;
            report.merge(shard_report);
            shards.push(shard);
        }
        Ok((shards, report))
    }

    /// Number of serving shards (the new count once a reshard completes).
    pub fn n_shards(&self) -> usize {
        self.topology().shards.len()
    }

    /// Current topology version (1 at `create`; +1 per completed
    /// reshard).
    pub fn version(&self) -> u32 {
        self.topology().version
    }

    /// The serving shards themselves (crashtest oracles address them
    /// directly). An `Arc` snapshot: a concurrent reshard completion
    /// cannot free shards out from under the caller.
    pub fn shards(&self) -> Arc<[NvMemcached]> {
        Arc::clone(&self.topology().shards)
    }

    /// The shard `key` routes to in the current topology.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.n_shards())
    }

    /// Requests routed to each shard of the current topology since
    /// creation/recovery/reshard completion (or the last
    /// [`ShardedNvMemcached::reset_shard_requests`]). Volatile
    /// observability only — skewed traffic shows up as imbalance here.
    /// Connections flush their tallies on drop, so read this after the
    /// worker connections of interest have been dropped (a joined run's
    /// workers always have).
    pub fn shard_requests(&self) -> Vec<u64> {
        self.topology().requests.iter().map(|c| c.0.load(Ordering::Relaxed)).collect()
    }

    /// Zeroes the per-shard request tallies (e.g. after warm-up, so a
    /// timed window measures only its own traffic). Live connections'
    /// unflushed counts are not affected — reset while no connection
    /// holds unflushed tallies.
    pub fn reset_shard_requests(&self) {
        let top = self.topology();
        for c in top.requests.iter() {
            c.0.store(0, Ordering::Relaxed);
        }
        if let Some(f) = &top.flight {
            for c in f.new_requests.iter() {
                c.0.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Registers the calling worker thread with every shard of the
    /// current topology (and, mid-reshard, with every target shard).
    pub fn register(&self) -> ShardedCtx {
        // Read the generation *before* snapshotting the topology: if a
        // change lands between the two loads the pinned gen is stale and
        // the first operation re-registers — never the reverse.
        let gen = self.gen.load(Ordering::Acquire);
        let top = self.topology();
        let ctxs: Box<[ThreadCtx]> = top.shards.iter().map(NvMemcached::register).collect();
        let tallies = vec![0; top.shards.len()].into_boxed_slice();
        let (new_ctxs, new_tallies) = match &top.flight {
            Some(f) => (
                f.new_shards.iter().map(NvMemcached::register).collect(),
                vec![0; f.new_shards.len()].into_boxed_slice(),
            ),
            None => (Box::from([]), Box::from([])),
        };
        ShardedCtx { top, gen, ctxs, new_ctxs, tallies, new_tallies, routed: Vec::new() }
    }

    /// Re-registers `ctx` if the topology changed since it was pinned.
    #[inline]
    fn refresh(&self, ctx: &mut ShardedCtx) {
        if ctx.gen != self.gen.load(Ordering::Acquire) {
            *ctx = self.register();
        }
    }

    /// Total (approximate) item count over all shards (old and, mid-
    /// reshard, new).
    pub fn len(&self) -> usize {
        self.topology().all_shards().map(NvMemcached::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `key -> value` (memcached `set`: upsert) in the key's shard
    /// (mid-reshard, its new home).
    pub fn set(&self, ctx: &mut ShardedCtx, key: u64, value: u64) -> Result<(), OutOfMemory> {
        self.put(ctx, key, value, PutMode::Upsert).map(drop)
    }

    /// Memcached `add`: stores only if the key is absent.
    pub fn add(&self, ctx: &mut ShardedCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        Ok(self.put(ctx, key, value, PutMode::IfAbsent)? == Put::Inserted)
    }

    /// Memcached `replace`: stores only if the key is present.
    pub fn replace(&self, ctx: &mut ShardedCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        Ok(self.put(ctx, key, value, PutMode::IfPresent)?.replaced().is_some())
    }

    /// The write path of `set`, `add` and `replace`. A `Moved` outcome
    /// means `ctx`'s topology is stale (a reshard drained the bucket): it
    /// re-registers and writes again.
    fn put(
        &self,
        ctx: &mut ShardedCtx,
        key: u64,
        value: u64,
        mode: PutMode,
    ) -> Result<Put, OutOfMemory> {
        self.refresh(ctx);
        loop {
            let home = ctx.write_home(key)?;
            let (shard, sctx) = ctx.at(home);
            match shard.put(sctx, key, value, mode)? {
                Put::Moved => *ctx = self.register(),
                done => return Ok(done),
            }
        }
    }

    /// Fetches `key` (memcached `get`). Lock-free even mid-reshard: the
    /// old shard answers until its bucket has drained, and its `Moved`
    /// sends the read to the new home.
    pub fn get(&self, ctx: &mut ShardedCtx, key: u64) -> Option<u64> {
        self.refresh(ctx);
        loop {
            let (shard, sctx) = ctx.at(Home::Old(shard_of(key, ctx.top.shards.len())));
            let mut r = shard.lookup(sctx, key);
            if let (Lookup::Moved, Some(f)) = (r, ctx.top.flight.as_deref()) {
                let (shard, sctx) = ctx.at(Home::New(shard_of(key, f.new_shards.len())));
                r = shard.lookup(sctx, key);
            }
            match r {
                Lookup::Found(v, _) => return Some(v),
                Lookup::Absent => return None,
                Lookup::Moved => *ctx = self.register(),
            }
        }
    }

    /// Warms the cache lines that operations on `keys` will walk first:
    /// each key's bucket word and first nodes in its shard
    /// ([`logfree::HashTable::prefetch`]). A hint for a batch of
    /// requests about to run: it writes nothing, counts no request and
    /// changes no result. Mid-reshard it warms the old shards, which a
    /// `get` reads first.
    pub fn prefetch(&self, ctx: &mut ShardedCtx, keys: &[u64]) {
        self.refresh(ctx);
        let n = ctx.top.shards.len();
        for s in 0..n {
            ctx.routed.clear();
            ctx.routed.extend(keys.iter().filter(|&&k| shard_of(k, n) == s));
            if !ctx.routed.is_empty() {
                ctx.top.shards[s].prefetch(&mut ctx.ctxs[s], &ctx.routed);
            }
        }
    }

    /// Deletes `key` (memcached `delete`) from the key's shard (mid-
    /// reshard, its new home).
    pub fn delete(&self, ctx: &mut ShardedCtx, key: u64) -> Option<u64> {
        self.refresh(ctx);
        loop {
            // A delete frees memory rather than consuming it: if a full
            // target stops the drain, the bucket is still whole in its
            // old shard, and the key goes from there.
            let home = ctx
                .write_home(key)
                .unwrap_or_else(|_| Home::Old(shard_of(key, ctx.top.shards.len())));
            let (shard, sctx) = ctx.at(home);
            match shard.take(sctx, key) {
                Removed::Yes(v) => return Some(v),
                Removed::No => return None,
                Removed::Moved => *ctx = self.register(),
            }
        }
    }

    /// Starts an incremental grow of every shard's bucket array by
    /// `factor` (see [`NvMemcached::grow`]). Each shard migrates
    /// independently and lazily; operations keep serving throughout.
    /// Returns how many shards actually started a resize (a shard
    /// already mid-resize refuses and counts as not started). Applies to
    /// the current topology's serving shards.
    pub fn grow(&self, ctx: &mut ShardedCtx, factor: usize) -> Result<usize, OutOfMemory> {
        self.refresh(ctx);
        let top = Arc::clone(&ctx.top);
        let mut started = 0;
        for (i, shard) in top.shards.iter().enumerate() {
            if shard.grow(&mut ctx.ctxs[i], factor)? {
                started += 1;
            }
        }
        Ok(started)
    }

    /// Drives every shard's in-flight resize to completion.
    pub fn finish_resize(&self, ctx: &mut ShardedCtx) -> Result<(), OutOfMemory> {
        self.refresh(ctx);
        let top = Arc::clone(&ctx.top);
        for (i, shard) in top.shards.iter().enumerate() {
            shard.finish_resize(&mut ctx.ctxs[i])?;
        }
        Ok(())
    }

    /// Whether any shard has a (bucket-array) resize in flight.
    pub fn resize_in_flight(&self) -> bool {
        self.topology().shards.iter().any(NvMemcached::resize_in_flight)
    }

    /// Durability barrier over every shard (flushes link-cache residue),
    /// including mid-reshard target shards.
    pub fn quiesce(&self) {
        for shard in self.topology().all_shards() {
            let mut flusher = shard.domain().pool().flusher();
            shard.quiesce(&mut flusher);
        }
    }

    /// Merged lifetime [`FlushStats`] over every shard pool (same
    /// snapshot-pair discipline as [`PmemPool::flush_stats`]), including
    /// mid-reshard target shards.
    pub fn flush_stats(&self) -> FlushStats {
        let mut total = FlushStats::default();
        for shard in self.topology().all_shards() {
            total.merge(shard.domain().pool().flush_stats());
        }
        total
    }

    /// Link-cache counters summed over every shard, including mid-reshard
    /// target shards (all zero when the cache runs without link caches).
    pub fn link_cache_stats(&self) -> LinkCacheStats {
        let mut total = LinkCacheStats::default();
        for shard in self.topology().all_shards() {
            total.merge(shard.link_cache_stats());
        }
        total
    }

    /// Evictions summed over every shard of the current topology
    /// (mid-reshard target shards included; a completed reshard starts
    /// the count again from its new shards).
    pub fn evictions(&self) -> u64 {
        self.topology().all_shards().map(NvMemcached::evictions).sum()
    }

    /// Quiescent snapshot of every shard's live pairs (order
    /// unspecified). Mid-reshard the union of old and new homes is
    /// returned; only quiescent states are meaningful (a key mid-
    /// migration can transiently appear twice).
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.topology().all_shards().flat_map(NvMemcached::snapshot).collect()
    }

    /// The image audit of a quiescent cache: [`NvMemcached::audit`] over
    /// every serving shard, each key in the shard it routes to, and no
    /// reshard in flight.
    pub fn audit(&self) -> Vec<String> {
        let top = self.topology();
        let n = top.shards.len();
        let shards = top.shards.iter().enumerate();
        let mut faults: Vec<_> =
            shards.flat_map(|(i, s)| s.audit(|k| shard_of(k, n) == i)).collect();
        if top.flight.is_some() {
            faults.push("a reshard is still in flight".into());
        }
        faults
    }
}

impl MemtierCache for ShardedNvMemcached {
    type Conn = ShardedCtx;

    fn connect(&self) -> ShardedCtx {
        self.register()
    }

    fn exec(&self, ctx: &mut ShardedCtx, req: Request) -> ReqOutcome {
        crate::memtier::exec_kv(
            ctx,
            req,
            |c, k, v| self.set(c, k, v).expect("pool sized for workload"),
            |c, k| self.get(c, k).is_some(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{LatencyModel, Mode, PoolBuilder};

    fn pools(n: usize, mode: Mode) -> Vec<Arc<PmemPool>> {
        (0..n)
            .map(|_| PoolBuilder::new(16 << 20).mode(mode).latency(LatencyModel::ZERO).build())
            .collect()
    }

    #[test]
    fn routing_is_total_and_stable() {
        for n in [1usize, 2, 4, 8] {
            for key in 1..=1000u64 {
                let s = shard_of(key, n);
                assert!(s < n);
                assert_eq!(s, shard_of(key, n), "routing is deterministic");
            }
        }
        // Keys spread over every shard (no degenerate routing).
        let mut seen = [false; 8];
        for key in 1..=1000u64 {
            seen[shard_of(key, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 shards receive keys");
    }

    #[test]
    fn set_get_delete_route_consistently() {
        let pools = pools(4, Mode::Perf);
        let mc = ShardedNvMemcached::create(&pools, 64, 10_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=200u64 {
            mc.set(&mut ctx, k, k * 3).unwrap();
        }
        for k in 1..=200u64 {
            assert_eq!(mc.get(&mut ctx, k), Some(k * 3));
        }
        assert_eq!(mc.len(), 200);
        for k in 1..=100u64 {
            assert_eq!(mc.delete(&mut ctx, k), Some(k * 3));
        }
        assert_eq!(mc.len(), 100);
        // Every shard holds only keys that route to it.
        for (i, shard) in mc.shards().iter().enumerate() {
            for (k, _) in shard.snapshot() {
                assert_eq!(mc.shard_of(k), i, "key {k} stored in wrong shard {i}");
            }
        }
    }

    #[test]
    fn add_and_replace_route() {
        let pools = pools(2, Mode::Perf);
        let mc = ShardedNvMemcached::create(&pools, 64, 1000, false).unwrap();
        let mut ctx = mc.register();
        assert!(mc.add(&mut ctx, 5, 50).unwrap());
        assert!(!mc.add(&mut ctx, 5, 51).unwrap());
        assert!(mc.replace(&mut ctx, 5, 52).unwrap());
        assert!(!mc.replace(&mut ctx, 6, 60).unwrap());
        assert_eq!(mc.get(&mut ctx, 5), Some(52));
        assert_eq!(mc.len(), 1);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let pools = pools(4, Mode::Perf);
        let mc = ShardedNvMemcached::create(&pools, 64, 100, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=1000u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        // Soft capacity: ceil(100/4) = 25 per shard, 100 total (+ race
        // slack; single-threaded here, so exact).
        assert!(mc.len() <= 100, "soft capacity respected (len = {})", mc.len());
        for shard in mc.shards().iter() {
            assert!(shard.len() <= 25, "per-shard capacity respected");
        }
    }

    #[test]
    fn concurrent_inserts_keep_exact_accounting() {
        const THREADS: u64 = 4;
        const KEYS: u64 = 2000;
        let pools = pools(2, Mode::Perf);
        let mc = ShardedNvMemcached::create(&pools, 1024, 1000, false).unwrap();
        let ctxs: Vec<ShardedCtx> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let mc = &mc;
                    s.spawn(move || {
                        let mut ctx = mc.register();
                        for k in t * KEYS + 1..=(t + 1) * KEYS {
                            assert!(mc.add(&mut ctx, k, k).unwrap(), "key {k} is distinct");
                            mc.replace(&mut ctx, k, k + 1).unwrap();
                        }
                        ctx
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for mut ctx in ctxs {
            ctx.drain_all();
        }
        assert_eq!(mc.audit(), Vec::<String>::new(), "leaked or misrouted nodes");
        let mut ctx = mc.register();
        let snap = mc.snapshot();
        assert_eq!(mc.evictions() + mc.len() as u64, THREADS * KEYS);
        assert_eq!(snap.len(), mc.len());
        for (k, v) in snap {
            assert_eq!(v, k + 1, "key {k} holds its last value");
            assert_eq!(mc.get(&mut ctx, k), Some(k + 1));
        }
    }

    #[test]
    fn recovering_a_full_image_is_an_error() {
        // A crash caught a resize whose drain had moved only some buckets
        // when the pool filled up: finishing it needs a copy of every node
        // left in the old array, and the pool has no room for them. The
        // table starts with 65 pages of nodes, whatever a node's slot size,
        // so the pool fills before the drain is done.
        let keys = 65 * nvalloc::slots_in_class(crate::evict::NODE_CLASS) as u64;
        let pool =
            PoolBuilder::new(1320 << 10).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
        {
            let mc =
                ShardedNvMemcached::create(&[Arc::clone(&pool)], 1 << 14, 1 << 30, false).unwrap();
            let mut ctx = mc.register();
            for k in 1..=keys {
                mc.set(&mut ctx, k, k).unwrap();
            }
            assert_eq!(mc.grow(&mut ctx, 2).unwrap(), 1);
            let mut k = keys;
            while mc.set(&mut ctx, k + 1, k + 1).is_ok() {
                k += 1;
            }
            assert!(mc.resize_in_flight(), "the pool filled before the resize finished");
        }
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
        let err = ShardedNvMemcached::recover(&[pool], 1 << 30).unwrap_err();
        assert_eq!(err, GeometryError::ResizeFull { shard: 0 });
    }

    #[test]
    fn shards_are_presized_for_their_share_of_capacity() {
        for (n, capacity, expect) in [
            (4, 100, 64),
            (4, 10_000, 1024),
            (3, 10_000, 1024),
            (2, 200_000, 1 << 15),
            (2, usize::MAX / 2, 64),
        ] {
            let mc =
                ShardedNvMemcached::create(&pools(n, Mode::Perf), 64, capacity, false).unwrap();
            for shard in mc.shards().iter() {
                assert_eq!(shard.capacity_hint(), expect, "{capacity} over {n} shards");
            }
        }
    }

    #[test]
    fn live_grow_keeps_serving_across_shards() {
        let pools = pools(4, Mode::Perf);
        let mc = ShardedNvMemcached::create(&pools, 64, usize::MAX / 2, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=1000u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        assert_eq!(mc.grow(&mut ctx, 4).unwrap(), 4, "all 4 shards started a resize");
        assert!(mc.resize_in_flight());
        // Every operation keeps serving mid-migration.
        for k in 1..=1000u64 {
            assert_eq!(mc.get(&mut ctx, k), Some(k), "key {k} readable during grow");
        }
        for k in 1001..=1200u64 {
            mc.set(&mut ctx, k, k).unwrap();
        }
        mc.finish_resize(&mut ctx).unwrap();
        assert!(!mc.resize_in_flight());
        for k in 1..=1200u64 {
            assert_eq!(mc.get(&mut ctx, k), Some(k), "key {k} survived the grow");
        }
        for shard in mc.shards().iter() {
            assert_eq!(shard.capacity_hint(), 256, "4x grow from 64 buckets");
        }
    }

    #[test]
    fn completed_sets_survive_crash_and_recover_in_parallel() {
        let pools = pools(4, Mode::CrashSim);
        {
            let mc = ShardedNvMemcached::create(&pools, 64, 100_000, false).unwrap();
            let mut ctx = mc.register();
            for k in 1..=400u64 {
                mc.set(&mut ctx, k, k * 2).unwrap();
            }
            for k in 1..=100u64 {
                mc.delete(&mut ctx, k);
            }
        }
        for pool in &pools {
            // SAFETY: no threads are running.
            unsafe { pool.simulate_crash().unwrap() };
        }
        let (mc2, report) = ShardedNvMemcached::recover(&pools, 100_000).unwrap();
        assert!(!report.used_full_scan);
        assert_eq!(mc2.version(), 1);
        let mut ctx = mc2.register();
        for k in 1..=100u64 {
            assert_eq!(mc2.get(&mut ctx, k), None, "deleted key {k} stayed deleted");
        }
        for k in 101..=400u64 {
            assert_eq!(mc2.get(&mut ctx, k), Some(k * 2), "key {k} recovered");
        }
        assert_eq!(mc2.len(), 300);
        // The recovered cache keeps serving.
        mc2.set(&mut ctx, 9999, 1).unwrap();
        assert_eq!(mc2.get(&mut ctx, 9999), Some(1));
    }

    #[test]
    fn shard_request_counters_match_routing() {
        let pools = pools(4, Mode::Perf);
        let mc = ShardedNvMemcached::create(&pools, 64, 10_000, false).unwrap();
        let mut expect = [0u64; 4];
        {
            let mut ctx = mc.register();
            for k in 1..=500u64 {
                mc.set(&mut ctx, k, k).unwrap();
                expect[mc.shard_of(k)] += 1;
            }
            for k in 1..=250u64 {
                mc.get(&mut ctx, k);
                expect[mc.shard_of(k)] += 1;
            }
            mc.delete(&mut ctx, 7);
            expect[mc.shard_of(7)] += 1;
            // Tallies are per-connection until the connection drops.
            assert_eq!(mc.shard_requests(), vec![0; 4]);
        }
        assert_eq!(mc.shard_requests(), expect.to_vec());
        assert_eq!(mc.shard_requests().iter().sum::<u64>(), 751);
        // A second connection's traffic accumulates on top.
        {
            let mut ctx = mc.register();
            mc.get(&mut ctx, 1);
        }
        assert_eq!(mc.shard_requests().iter().sum::<u64>(), 752);
        mc.reset_shard_requests();
        assert_eq!(mc.shard_requests(), vec![0; 4]);
    }

    #[test]
    fn geometry_pack_round_trips() {
        for (id, version, count, index) in [
            (1u32, 1u32, 1usize, 0usize),
            (0x5E_AD0E, 7, 8, 7),
            (7, 65_535, 4095, 42),
            // All 24 id bits set: the widened field reaches the word's top bit.
            (0xFF_FFFF, 1, 2, 1),
        ] {
            let (rid, v, c, i) = unpack_geometry(pack_geometry(id, version, count, index));
            assert_eq!((rid, v, c as usize, i as usize), (id, version, count, index));
        }
    }

    #[test]
    fn cache_ids_are_nonzero_and_distinct() {
        let a = fresh_cache_id();
        let b = fresh_cache_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert!(a < (1 << 24) && b < (1 << 24), "ids fit the 24-bit geometry field");
        assert_ne!(a, b, "two create calls in one process get distinct ids");
    }
}
