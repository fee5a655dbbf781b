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
//! traffic*. The migration reuses the copy-then-delete discipline of
//! `logfree::hash::resize` one level up — keys are copied into their new
//! home shard and then deleted from the old one, a durable per-shard
//! **cursor** in the reshard state word (root slot
//! [`crate::reshard::RESHARD_STATE_ROOT`] of old pool 0) records which
//! old shards are fully drained, and `recover()` rolls a half-migrated
//! topology forward to the new version. See [`crate::reshard`] for the
//! state machine and the routing rules in flight.
//!
//! `ShardedNvMemcached` over a single shard is behaviorally identical to
//! a standalone [`NvMemcached`] (the shard *is* an `NvMemcached`; with
//! `n = 1` routing is constant), which keeps single-system paper
//! comparisons honest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use linkcache::LinkCacheStats;
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
    /// (torn write, or pools mixed in from a different reshard). The
    /// fields are the word as recorded.
    TornReshard {
        /// Old shard count recorded in the state word.
        old: u32,
        /// New shard count recorded in the state word.
        new: u32,
        /// Migration cursor recorded in the state word.
        cursor: u32,
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
    /// target pools while draining old shard `old_shard`. The durable
    /// cursor still records every old shard drained before it.
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
            GeometryError::TornReshard { old, new, cursor, version } => write!(
                f,
                "reshard state word [old={old} new={new} cursor={cursor} version={version}] \
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
    /// Creates a fresh sharded cache: one shard per pool, each with
    /// `n_buckets` buckets, splitting the soft `capacity` evenly, and
    /// durably records the shard geometry in every pool.
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
    /// then the remaining old shards are drained into the new topology
    /// (keys already copied win by the *new-wins* rule, so a torn copy
    /// can never resurrect a stale value), the durable cursor advancing
    /// shard by shard exactly as in the live path. The returned cache
    /// serves the new topology at a single consistent version.
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
            let (shard, shard_report) =
                r.map_err(|OutOfMemory| GeometryError::ResizeFull { shard: i })?;
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
        ShardedCtx { top, gen, ctxs, new_ctxs, tallies, new_tallies }
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

    /// Straggler guard: decides whether an operation that just ran
    /// against `ctx`'s pinned topology is allowed to linearize, or must
    /// be redone against the current topology.
    ///
    /// An operation can pass [`Self::refresh`] just before
    /// [`Self::reshard_start`] / finalize bumps the generation and then
    /// run against the previous topology with no stripe lock — so a
    /// write can land in an old shard *after* the migration driver's
    /// all-stripes re-verification, stranding it where no reader or
    /// recovery will look. The `SeqCst` fence here pairs with the fence
    /// at the top of every drain pass (Dekker-style): if this re-check
    /// still reads the pinned generation, the drain's re-verification is
    /// guaranteed to observe the op's effects (and will re-migrate
    /// them); if it reads a newer generation, the caller redoes the op
    /// under the current routing rules, which purge any stranded copy
    /// under the key's stripe lock. Either way nothing is lost.
    #[inline]
    fn gen_settled(&self, ctx: &ShardedCtx) -> bool {
        std::sync::atomic::fence(Ordering::SeqCst);
        ctx.gen == self.gen.load(Ordering::Acquire)
    }

    /// Stores `key -> value` (memcached `set`: upsert) in the routed
    /// shard. Mid-reshard, lands in the key's *final* home and clears any
    /// old copy, so the migration driver can never re-copy a stale value
    /// over it.
    pub fn set(&self, ctx: &mut ShardedCtx, key: u64, value: u64) -> Result<(), OutOfMemory> {
        self.refresh(ctx);
        loop {
            self.set_once(ctx, key, value)?;
            if self.gen_settled(ctx) {
                return Ok(());
            }
            *ctx = self.register();
        }
    }

    fn set_once(&self, ctx: &mut ShardedCtx, key: u64, value: u64) -> Result<(), OutOfMemory> {
        let top = &*ctx.top;
        let s = shard_of(key, top.shards.len());
        let Some(f) = top.flight.as_deref() else {
            ctx.tallies[s] += 1;
            return top.shards[s].set(&mut ctx.ctxs[s], key, value);
        };
        let d = shard_of(key, f.new_shards.len());
        let _g = f.stripes[reshard::stripe_of(key)].lock();
        let c = f.cursor.load(Ordering::Acquire);
        if s < c {
            // The old home is normally empty past the cursor, but a
            // straggler redo (see `gen_settled`) may find its own
            // stranded copy there — clear it first. Crash between the
            // two: both homes hold a value and recovery's new-wins rule
            // keeps the new one, which is a previously-acknowledged
            // state (this op is still in flight).
            top.shards[s].delete(&mut ctx.ctxs[s], key);
            ctx.new_tallies[d] += 1;
            f.new_shards[d].set(&mut ctx.new_ctxs[d], key, value)
        } else if s > c {
            ctx.tallies[s] += 1;
            top.shards[s].set(&mut ctx.ctxs[s], key, value)
        } else {
            // The shard being drained: write the new home first, then
            // clear the old copy. A crash between the two leaves both
            // copies; recovery's new-wins rule keeps this (acknowledged)
            // value and discards the stale old one.
            ctx.tallies[s] += 1;
            f.new_shards[d].set(&mut ctx.new_ctxs[d], key, value)?;
            top.shards[s].delete(&mut ctx.ctxs[s], key);
            Ok(())
        }
    }

    /// Fetches `key` (memcached `get`) from the routed shard. Lock-free
    /// even mid-reshard: for a not-yet-drained shard the old home is
    /// checked first — migration copies to the new home *before* deleting
    /// the old copy, so an old-side miss means the key is in its new home
    /// or genuinely absent.
    pub fn get(&self, ctx: &mut ShardedCtx, key: u64) -> Option<u64> {
        self.refresh(ctx);
        loop {
            let v = self.get_once(ctx, key);
            if self.gen_settled(ctx) {
                return v;
            }
            *ctx = self.register();
        }
    }

    fn get_once(&self, ctx: &mut ShardedCtx, key: u64) -> Option<u64> {
        let top = &*ctx.top;
        let s = shard_of(key, top.shards.len());
        let Some(f) = top.flight.as_deref() else {
            ctx.tallies[s] += 1;
            return top.shards[s].get(&mut ctx.ctxs[s], key);
        };
        let d = shard_of(key, f.new_shards.len());
        if s < f.cursor.load(Ordering::Acquire) {
            ctx.new_tallies[d] += 1;
            f.new_shards[d].get(&mut ctx.new_ctxs[d], key)
        } else {
            ctx.tallies[s] += 1;
            let old = top.shards[s].get(&mut ctx.ctxs[s], key);
            match old {
                Some(v) => Some(v),
                None => f.new_shards[d].get(&mut ctx.new_ctxs[d], key),
            }
        }
    }

    /// Deletes `key` (memcached `delete`) from the routed shard. Mid-
    /// reshard both homes are cleared, old side first: if a crash image
    /// holds both copies, recovery keeps the *new* one, so the old copy
    /// must die first or a torn delete could resurrect a stale value.
    pub fn delete(&self, ctx: &mut ShardedCtx, key: u64) -> Option<u64> {
        self.refresh(ctx);
        loop {
            let v = self.delete_once(ctx, key);
            if self.gen_settled(ctx) {
                return v;
            }
            *ctx = self.register();
        }
    }

    fn delete_once(&self, ctx: &mut ShardedCtx, key: u64) -> Option<u64> {
        let top = &*ctx.top;
        let s = shard_of(key, top.shards.len());
        let Some(f) = top.flight.as_deref() else {
            ctx.tallies[s] += 1;
            return top.shards[s].delete(&mut ctx.ctxs[s], key);
        };
        let d = shard_of(key, f.new_shards.len());
        let _g = f.stripes[reshard::stripe_of(key)].lock();
        let c = f.cursor.load(Ordering::Acquire);
        if s < c {
            // Old-home purge first (stranded straggler copies; see
            // `gen_settled`) — the old copy must die before the new one
            // so a crash image can never resurrect it via new-wins.
            let old_v = top.shards[s].delete(&mut ctx.ctxs[s], key);
            ctx.new_tallies[d] += 1;
            f.new_shards[d].delete(&mut ctx.new_ctxs[d], key).or(old_v)
        } else if s > c {
            ctx.tallies[s] += 1;
            top.shards[s].delete(&mut ctx.ctxs[s], key)
        } else {
            ctx.tallies[s] += 1;
            let old_v = top.shards[s].delete(&mut ctx.ctxs[s], key);
            let new_v = f.new_shards[d].delete(&mut ctx.new_ctxs[d], key);
            new_v.or(old_v)
        }
    }

    /// Memcached `add`: stores only if the key is absent (in either home,
    /// mid-reshard).
    pub fn add(&self, ctx: &mut ShardedCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        self.refresh(ctx);
        let r = self.add_once(ctx, key, value)?;
        if !r || self.gen_settled(ctx) {
            return Ok(r);
        }
        // The winning store may be stranded in a superseded topology
        // (see `gen_settled`); the key is ours, so re-assert it as an
        // upsert under the current routing rules.
        *ctx = self.register();
        loop {
            self.set_once(ctx, key, value)?;
            if self.gen_settled(ctx) {
                return Ok(true);
            }
            *ctx = self.register();
        }
    }

    fn add_once(&self, ctx: &mut ShardedCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        let top = &*ctx.top;
        let s = shard_of(key, top.shards.len());
        let Some(f) = top.flight.as_deref() else {
            ctx.tallies[s] += 1;
            return top.shards[s].add(&mut ctx.ctxs[s], key, value);
        };
        let d = shard_of(key, f.new_shards.len());
        let _g = f.stripes[reshard::stripe_of(key)].lock();
        let c = f.cursor.load(Ordering::Acquire);
        if s < c {
            ctx.new_tallies[d] += 1;
            f.new_shards[d].add(&mut ctx.new_ctxs[d], key, value)
        } else if s > c {
            ctx.tallies[s] += 1;
            top.shards[s].add(&mut ctx.ctxs[s], key, value)
        } else {
            ctx.tallies[s] += 1;
            if top.shards[s].get(&mut ctx.ctxs[s], key).is_some() {
                return Ok(false);
            }
            f.new_shards[d].add(&mut ctx.new_ctxs[d], key, value)
        }
    }

    /// Memcached `replace`: stores only if the key is present (in either
    /// home, mid-reshard; a replace of an old-home key migrates it).
    pub fn replace(&self, ctx: &mut ShardedCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        self.refresh(ctx);
        let r = self.replace_once(ctx, key, value)?;
        if !r || self.gen_settled(ctx) {
            return Ok(r);
        }
        // Same stranding repair as `add`: the store happened, so
        // re-assert it as an upsert under the current routing rules.
        *ctx = self.register();
        loop {
            self.set_once(ctx, key, value)?;
            if self.gen_settled(ctx) {
                return Ok(true);
            }
            *ctx = self.register();
        }
    }

    fn replace_once(
        &self,
        ctx: &mut ShardedCtx,
        key: u64,
        value: u64,
    ) -> Result<bool, OutOfMemory> {
        let top = &*ctx.top;
        let s = shard_of(key, top.shards.len());
        let Some(f) = top.flight.as_deref() else {
            ctx.tallies[s] += 1;
            return top.shards[s].replace(&mut ctx.ctxs[s], key, value);
        };
        let d = shard_of(key, f.new_shards.len());
        let _g = f.stripes[reshard::stripe_of(key)].lock();
        let c = f.cursor.load(Ordering::Acquire);
        if s < c {
            ctx.new_tallies[d] += 1;
            f.new_shards[d].replace(&mut ctx.new_ctxs[d], key, value)
        } else if s > c {
            ctx.tallies[s] += 1;
            top.shards[s].replace(&mut ctx.ctxs[s], key, value)
        } else {
            ctx.tallies[s] += 1;
            if f.new_shards[d].replace(&mut ctx.new_ctxs[d], key, value)? {
                return Ok(true);
            }
            if top.shards[s].get(&mut ctx.ctxs[s], key).is_some() {
                f.new_shards[d].set(&mut ctx.new_ctxs[d], key, value)?;
                top.shards[s].delete(&mut ctx.ctxs[s], key);
                return Ok(true);
            }
            Ok(false)
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
        for shard in mc.shards().iter() {
            let leaked = shard.domain().count_unreachable(|a| shard.contains_node_at(a));
            assert_eq!(leaked, 0, "leaked nodes");
        }
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
        // left in the old array, and the pool has no room for them.
        let pool =
            PoolBuilder::new(1320 << 10).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
        {
            let mc =
                ShardedNvMemcached::create(&[Arc::clone(&pool)], 1 << 14, 1 << 30, false).unwrap();
            let mut ctx = mc.register();
            for k in 1..=4096u64 {
                mc.set(&mut ctx, k, k).unwrap();
            }
            assert_eq!(mc.grow(&mut ctx, 2).unwrap(), 1);
            let mut k = 4096u64;
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
    fn live_grow_keeps_serving_across_shards() {
        let pools = pools(4, Mode::Perf);
        let mc = ShardedNvMemcached::create(&pools, 64, 1_000_000, false).unwrap();
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
