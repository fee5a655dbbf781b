//! The [`CrashTarget`] abstraction: everything the drivers need to crash
//! and recover a structure, implemented for all four log-free structures
//! and NV-Memcached.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use linkcache::LinkCache;
use logfree::{marked::DIRTY, Bst, HashTable, LinkOps, LinkedList, SkipList};
use nvalloc::{NvDomain, RecoveryReport, ThreadCtx};
use nvmemcached::NvMemcached;
use pmem::PmemPool;

use crate::oracle::{OracleConfig, Violation};
use crate::trace::TraceOp;

/// Root-directory slot used by the structure targets.
pub const CRASHTEST_ROOT: usize = 1;

/// Hash-table bucket count used by the table-based targets (small, so
/// short traces still produce per-bucket chains).
pub const N_BUCKETS: usize = 16;

/// A structure the crash-point drivers can create, exercise, crash and
/// recover.
///
/// `create` and `recover` own the whole lifecycle (domains + structure +
/// post-crash repair) so the drivers stay generic; `recover` must run the
/// structure's `recover` pass *and* [`NvDomain::recover_leaks`] on every
/// domain it serves from.
pub trait CrashTarget: Sized + Send + Sync {
    /// Display name for reports.
    const NAME: &'static str;
    /// Whether [`TraceOp::Insert`] replaces an existing value (upsert).
    const UPSERT: bool = false;
    /// Pools the target spans. The drivers install one shared crash plan
    /// on all of them and capture all their images in one cut.
    const POOLS: usize = 1;

    /// A worker thread's operation context.
    type Ctx;

    /// Creates a fresh instance (formats the domains) over `pools`
    /// ([`Self::POOLS`] of them).
    fn create(pools: &[Arc<PmemPool>], use_link_cache: bool) -> Self;

    /// Registers a worker thread.
    fn register(&self) -> Self::Ctx;

    /// Applies one trace operation; returns whether it changed the
    /// structure (insert stored / remove removed), for the
    /// multi-threaded audit log.
    fn apply(&self, ctx: &mut Self::Ctx, op: TraceOp) -> bool;

    /// Work that runs after the last trace operation, under the crash
    /// plan but outside every op span (e.g. driving a reshard to
    /// completion).
    fn settle(&self) {}

    /// Re-attaches after a crash, repairs the structure, and reclaims
    /// leaks. `Err` describes why recovery refused the image.
    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String>;

    /// Quiescent snapshot of live `(key, value)` pairs.
    fn snapshot(&self) -> Vec<(u64, u64)>;

    /// §5.5 leak audit: allocated-but-unreachable slots left after
    /// recovery, over every domain the target serves from.
    fn leaked(&self) -> u64;

    /// Target-specific audit after every recovery (e.g. bucket routing
    /// and resize quiescence for the hash table, per-shard oracles for
    /// the sharded cache), given the trace, its op spans, the crash
    /// point and the oracle configuration. The torture driver, whose
    /// multi-threaded history has no single order, passes an empty
    /// trace.
    fn post_recovery_check(
        &self,
        _trace: &[TraceOp],
        _spans: &[u64],
        _k: u64,
        _oracle: OracleConfig,
    ) -> Vec<Violation> {
        Vec::new()
    }
}

fn make_ops(pool: &Arc<PmemPool>, use_link_cache: bool) -> LinkOps {
    let lc =
        use_link_cache.then(|| Arc::new(LinkCache::with_default_size(Arc::clone(pool), DIRTY)));
    LinkOps::new(Arc::clone(pool), lc)
}

/// Generates the structure targets that share their shape. `$store` is
/// what a [`TraceOp::Insert`] does — `insert`, or `upsert` when `$upsert`
/// is true — and returns whether it changed the structure.
macro_rules! structure_target {
    ($target:ident, $name:literal, $structure:ident, $upsert:literal, $store:expr, $create:expr) => {
        /// Crash-target wrapper (domain + structure).
        pub struct $target {
            domain: Arc<NvDomain>,
            ds: $structure,
        }

        impl CrashTarget for $target {
            const NAME: &'static str = $name;
            const UPSERT: bool = $upsert;
            type Ctx = ThreadCtx;

            fn create(pools: &[Arc<PmemPool>], use_link_cache: bool) -> Self {
                let domain = NvDomain::create(Arc::clone(&pools[0]));
                let ops = make_ops(&pools[0], use_link_cache);
                #[allow(clippy::redundant_closure_call)]
                let ds = ($create)(&domain, ops);
                Self { domain, ds }
            }

            fn register(&self) -> ThreadCtx {
                self.domain.register()
            }

            fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) -> bool {
                match op {
                    TraceOp::Insert(k, v) =>
                    {
                        #[allow(clippy::redundant_closure_call)]
                        ($store)(&self.ds, ctx, k, v).expect("pool sized for trace")
                    }
                    TraceOp::Remove(k) => self.ds.remove(ctx, k).is_some(),
                    TraceOp::Get(k) => {
                        let _ = self.ds.get(ctx, k);
                        false
                    }
                }
            }

            fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
                let pool = &pools[0];
                let domain = NvDomain::attach(Arc::clone(pool));
                let ds = $structure::attach(&domain, CRASHTEST_ROOT, make_ops(pool, false));
                let mut flusher = pool.flusher();
                ds.recover(&mut flusher);
                let report = domain.recover_leaks(|addr| ds.contains_node_at(addr));
                Ok((Self { domain, ds }, report))
            }

            fn snapshot(&self) -> Vec<(u64, u64)> {
                self.ds.snapshot()
            }

            fn leaked(&self) -> u64 {
                self.domain.count_unreachable(|addr| self.ds.contains_node_at(addr))
            }
        }
    };
}

structure_target!(
    ListTarget,
    "LinkedList",
    LinkedList,
    false,
    |ds: &LinkedList, ctx: &mut ThreadCtx, k, v| ds.insert(ctx, k, v),
    |domain: &Arc<NvDomain>, ops| LinkedList::create(domain, CRASHTEST_ROOT, ops)
);

structure_target!(
    ListUpsertTarget,
    "LinkedList+upsert",
    LinkedList,
    true,
    |ds: &LinkedList, ctx: &mut ThreadCtx, k, v| ds.upsert(ctx, k, v).map(|_| true),
    |domain: &Arc<NvDomain>, ops| LinkedList::create(domain, CRASHTEST_ROOT, ops)
);

structure_target!(
    SkipTarget,
    "SkipList",
    SkipList,
    false,
    |ds: &SkipList, ctx: &mut ThreadCtx, k, v| ds.insert(ctx, k, v),
    |domain: &Arc<NvDomain>, ops| {
        let mut ctx = domain.register();
        SkipList::create(domain, &mut ctx, CRASHTEST_ROOT, ops).expect("pool sized for skip list")
    }
);

structure_target!(
    BstTarget,
    "Bst",
    Bst,
    false,
    |ds: &Bst, ctx: &mut ThreadCtx, k, v| ds.insert(ctx, k, v),
    |domain: &Arc<NvDomain>, ops| {
        let mut ctx = domain.register();
        Bst::create(domain, &mut ctx, CRASHTEST_ROOT, ops).expect("pool sized for bst")
    }
);

/// Trace-op index at which a growing hash target ([`ResizeTarget`])
/// kicks off a 4x grow (modulo [`RESIZE_GROW_EVERY`]). Early enough that
/// the default 64-op trace covers publish, migration *and* commit crash
/// points in one pass.
pub const RESIZE_GROW_AT: u64 = 20;
/// Grow period in ops: a long (torture) run keeps starting fresh grows,
/// a short exhaustive trace sees exactly one.
pub const RESIZE_GROW_EVERY: u64 = 2_500;

/// The hash table; `UPSERT` picks whether a [`TraceOp::Insert`] is
/// `insert` or `upsert`. Hand-written rather than macro-generated: its
/// recovery is resize-aware and its post-recovery check audits bucket
/// routing, neither of which the other structures have.
///
/// With `GROW` the trace triggers an incremental 4x grow mid-run, so
/// the exhaustive driver enumerates a crash at every clwb, fence,
/// link-publish and resize-state event of a live migration — and the
/// torture driver races worker threads against repeated grows. With
/// `UPSERT` as well, replacements land in chains that are being drained.
pub struct HashTargetOf<const UPSERT: bool, const GROW: bool> {
    domain: Arc<NvDomain>,
    ds: HashTable,
    ops_applied: AtomicU64,
    /// The keys recovery counted (0 for a fresh table).
    live: usize,
}

/// The hash table under set semantics (`insert` refuses a present key).
pub type HashTarget = HashTargetOf<false, false>;
/// The hash table under upsert semantics (`upsert` replaces in one step).
pub type HashUpsertTarget = HashTargetOf<true, false>;
/// The resizing table under set semantics.
pub type ResizeTarget = HashTargetOf<false, true>;
/// The resizing table under upsert semantics.
pub type ResizeUpsertTarget = HashTargetOf<true, true>;

impl<const UPSERT: bool, const GROW: bool> HashTargetOf<UPSERT, GROW> {
    /// The underlying table (mutation tests flip its fault-injection
    /// knobs).
    pub fn table(&self) -> &HashTable {
        &self.ds
    }
}

impl<const UPSERT: bool, const GROW: bool> CrashTarget for HashTargetOf<UPSERT, GROW> {
    const NAME: &'static str = match (GROW, UPSERT) {
        (false, false) => "HashTable",
        (false, true) => "HashTable+upsert",
        (true, false) => "HashTable+resize",
        (true, true) => "HashTable+resize+upsert",
    };
    const UPSERT: bool = UPSERT;
    type Ctx = ThreadCtx;

    fn create(pools: &[Arc<PmemPool>], use_link_cache: bool) -> Self {
        let domain = NvDomain::create(Arc::clone(&pools[0]));
        let ops = make_ops(&pools[0], use_link_cache);
        let ds = HashTable::create(&domain, CRASHTEST_ROOT, N_BUCKETS, ops)
            .expect("pool sized for table");
        Self { domain, ds, ops_applied: AtomicU64::new(0), live: 0 }
    }

    fn register(&self) -> ThreadCtx {
        self.domain.register()
    }

    fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) -> bool {
        let n = self.ops_applied.fetch_add(1, Ordering::Relaxed);
        if GROW && n % RESIZE_GROW_EVERY == RESIZE_GROW_AT {
            // Best effort: a grow already in flight refuses, and OOM just
            // leaves the table denser — neither may fail the trace.
            let _ = self.ds.grow(ctx, 4);
        }
        match op {
            TraceOp::Insert(k, v) if UPSERT => {
                self.ds.upsert(ctx, k, v).expect("pool sized for trace");
                true
            }
            TraceOp::Insert(k, v) => self.ds.insert(ctx, k, v).expect("pool sized for trace"),
            TraceOp::Remove(k) => self.ds.remove(ctx, k).is_some(),
            TraceOp::Get(k) => {
                let _ = self.ds.get(ctx, k);
                false
            }
        }
    }

    /// The full resize-aware hash-table recovery sequence: attach, repair
    /// the chains, reclaim leaks (with the both-arrays reachability
    /// oracle, *before* any allocation), then roll any in-flight resize
    /// forward and sweep bucket-array regions orphaned by a crash between
    /// allocate-and-publish.
    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let pool = &pools[0];
        let domain = NvDomain::attach(Arc::clone(pool));
        let ds = HashTable::attach(&domain, CRASHTEST_ROOT, make_ops(pool, false));
        let mut flusher = pool.flusher();
        let (_, _, live) = ds.recover(&mut flusher);
        let report = domain.recover_leaks(|addr| ds.contains_node_at(addr));
        let mut ctx = domain.register();
        ds.finish_resize(&mut ctx).expect("pool sized to finish the resize");
        ctx.drain_all();
        ds.sweep_orphan_regions(&mut ctx);
        drop(ctx);
        Ok((Self { domain, ds, ops_applied: AtomicU64::new(0), live: live as usize }, report))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.ds.snapshot()
    }

    fn leaked(&self) -> u64 {
        self.domain.count_unreachable(|addr| self.ds.contains_node_at(addr))
    }

    /// The resize must be quiescent, recovery must have counted each key
    /// once (a key mid-move included), and every live node must hash to
    /// the bucket chain it sits in.
    fn post_recovery_check(
        &self,
        _: &[TraceOp],
        _: &[u64],
        k: u64,
        _: OracleConfig,
    ) -> Vec<Violation> {
        let held = self.ds.snapshot().len();
        let detail = if self.ds.resize_in_flight() {
            "resize still in flight after recovery".to_string()
        } else if self.live != held {
            format!("recovery counted {} key(s), the table holds {held}", self.live)
        } else {
            match self.ds.check_routing() {
                0 => return Vec::new(),
                misrouted => format!("{misrouted} live node(s) in the wrong bucket after recovery"),
            }
        };
        vec![Violation::structural(k, detail)]
    }
}

/// NV-Memcached as a crash target. `Insert` maps to `set` (upsert),
/// `Remove` to `delete`. Capacity is effectively unbounded so eviction
/// never perturbs the oracle.
pub struct MemcachedTarget {
    mc: NvMemcached,
}

/// Soft capacity far above any trace size: eviction must never fire.
pub(crate) const MC_CAPACITY: usize = 1 << 30;

impl CrashTarget for MemcachedTarget {
    const NAME: &'static str = "NvMemcached";
    const UPSERT: bool = true;
    type Ctx = ThreadCtx;

    fn create(pools: &[Arc<PmemPool>], use_link_cache: bool) -> Self {
        let mc = NvMemcached::create(Arc::clone(&pools[0]), N_BUCKETS, MC_CAPACITY, use_link_cache)
            .expect("pool sized for cache");
        Self { mc }
    }

    fn register(&self) -> ThreadCtx {
        self.mc.register()
    }

    fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) -> bool {
        match op {
            TraceOp::Insert(k, v) => {
                self.mc.set(ctx, k, v).expect("pool sized for trace");
                true
            }
            TraceOp::Remove(k) => self.mc.delete(ctx, k).is_some(),
            TraceOp::Get(k) => {
                let _ = self.mc.get(ctx, k);
                false
            }
        }
    }

    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let (mc, report) = NvMemcached::recover(Arc::clone(&pools[0]), MC_CAPACITY)
            .map_err(|e| format!("recovery: {e}"))?;
        Ok((Self { mc }, report))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.mc.snapshot()
    }

    fn leaked(&self) -> u64 {
        self.mc.domain().count_unreachable(|addr| self.mc.contains_node_at(addr))
    }

    fn post_recovery_check(
        &self,
        _: &[TraceOp],
        _: &[u64],
        k: u64,
        _: OracleConfig,
    ) -> Vec<Violation> {
        let mut found = Vec::new();
        if self.mc.resize_in_flight() {
            found.push(Violation::structural(k, "cache resize still in flight after recovery"));
        }
        let (counted, held) = (self.mc.len(), self.mc.snapshot().len());
        if counted != held {
            let detail = format!("recovered item count {counted}, the table holds {held}");
            found.push(Violation::structural(k, detail));
        }
        found
    }
}
