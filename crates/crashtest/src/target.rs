//! The [`CrashTarget`] abstraction: everything the drivers need to crash
//! and recover a structure, implemented for all four log-free structures
//! and NV-Memcached (the log-based baselines are in [`crate::baseline`]).
//!
//! A target applies operations and reports what survived; it does not
//! judge them. The drivers check every recovered key against the oracle
//! and run one image audit ([`CrashTarget::audit`], which hands every
//! domain's walk to [`logfree::audit`]) for every target alike. Only the
//! checks that depend on which recovery path ran stay in a target's
//! [`CrashTarget::recover`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use linkcache::LinkCache;
use logfree::{marked::DIRTY, Bst, HashTable, LinkOps, LinkedList, SkipList};
use nvalloc::{NvDomain, RecoveryReport, ThreadCtx};
use nvmemcached::NvMemcached;
use pmem::PmemPool;

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
/// structure's `restart` (repair, then the leak scan of §5.5) on every
/// domain it serves from.
pub trait CrashTarget: Sized + Send + Sync {
    /// Display name for reports.
    const NAME: &'static str;
    /// Whether [`TraceOp::Insert`] replaces an existing value (upsert).
    const UPSERT: bool = false;
    /// Pools the target spans. The drivers install one shared crash plan
    /// on all of them and crash them as one, all their images in one cut.
    const POOLS: usize = 1;

    /// A worker thread's operation context.
    type Ctx;

    /// Creates a fresh instance (formats the domains) over `pools`
    /// ([`Self::POOLS`] of them).
    fn create(pools: &[Arc<PmemPool>], use_link_cache: bool) -> Self;

    /// Registers a worker thread.
    fn register(&self) -> Self::Ctx;

    /// Applies one trace operation.
    fn apply(&self, ctx: &mut Self::Ctx, op: TraceOp);

    /// Work that runs after the last trace operation, under the crash
    /// plan but outside every op span (e.g. driving a reshard to
    /// completion).
    fn settle(&self) {}

    /// Re-attaches after a crash, repairs the structure, and reclaims
    /// leaks. `Err` describes why recovery refused the image, or how the
    /// recovered state disagrees with the path recovery took.
    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String>;

    /// Quiescent snapshot of live `(key, value)` pairs.
    fn snapshot(&self) -> Vec<(u64, u64)>;

    /// The image audit of the recovered target: [`logfree::audit`] over
    /// every domain it serves from, with the state of any migration. One
    /// line per fault.
    fn audit(&self) -> Vec<String>;
}

fn make_ops(pool: &Arc<PmemPool>, use_link_cache: bool) -> LinkOps {
    let lc =
        use_link_cache.then(|| Arc::new(LinkCache::with_default_size(Arc::clone(pool), DIRTY)));
    LinkOps::new(Arc::clone(pool), lc)
}

/// Generates the structure targets that share their shape. `$store` is
/// the method a [`TraceOp::Insert`] calls: `insert`, or `upsert` when
/// `$upsert` is true. Recovery is the structure's `restart`, which may
/// refuse the image.
macro_rules! structure_target {
    (
        $target:ident,
        $name:literal,
        $structure:ident,
        $upsert:literal,
        $store:ident,
        $create:expr
    ) => {
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
                self.ds.ops().register(&self.domain)
            }

            fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) {
                match op {
                    TraceOp::Insert(k, v) => {
                        _ = self.ds.$store(ctx, k, v).expect("pool sized for trace")
                    }
                    TraceOp::Remove(k) => _ = self.ds.remove(ctx, k),
                    TraceOp::Get(k) => _ = self.ds.get(ctx, k),
                }
            }

            /// `restart`, which must count each key once.
            fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
                let pool = &pools[0];
                let domain = NvDomain::attach(Arc::clone(pool));
                let (ds, report) =
                    $structure::restart(&domain, CRASHTEST_ROOT, make_ops(pool, false))
                        .map_err(|e| format!("recovery: {e}"))?;
                counted_once(report.live, ds.snapshot().len())?;
                Ok((Self { domain, ds }, report.heap))
            }

            fn snapshot(&self) -> Vec<(u64, u64)> {
                self.ds.snapshot()
            }

            fn audit(&self) -> Vec<String> {
                logfree::audit(&self.domain, |visit| self.ds.walk(visit), |_| true)
            }
        }
    };
}

structure_target!(
    ListTarget,
    "LinkedList",
    LinkedList,
    false,
    insert,
    |domain: &Arc<NvDomain>, ops| LinkedList::create(domain, CRASHTEST_ROOT, ops)
);

structure_target!(
    ListUpsertTarget,
    "LinkedList+upsert",
    LinkedList,
    true,
    upsert,
    |domain: &Arc<NvDomain>, ops| LinkedList::create(domain, CRASHTEST_ROOT, ops)
);

structure_target!(
    SkipTarget,
    "SkipList",
    SkipList,
    false,
    insert,
    |domain: &Arc<NvDomain>, ops| {
        let mut ctx = domain.register();
        SkipList::create(domain, &mut ctx, CRASHTEST_ROOT, ops).expect("pool sized for skip list")
    }
);

structure_target!(BstTarget, "Bst", Bst, false, insert, |domain: &Arc<NvDomain>, ops| {
    let mut ctx = domain.register();
    Bst::create(domain, &mut ctx, CRASHTEST_ROOT, ops).expect("pool sized for bst")
});

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
/// recovery is resize-aware ([`HashTable::restart`]) and a trace may grow
/// it.
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
        Self { domain, ds, ops_applied: AtomicU64::new(0) }
    }

    fn register(&self) -> ThreadCtx {
        self.ds.ops().register(&self.domain)
    }

    fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) {
        let n = self.ops_applied.fetch_add(1, Ordering::Relaxed);
        if GROW && n % RESIZE_GROW_EVERY == RESIZE_GROW_AT {
            // Best effort: a grow already in flight refuses, and OOM just
            // leaves the table denser — neither may fail the trace.
            let _ = self.ds.grow(ctx, 4);
        }
        match op {
            TraceOp::Insert(k, v) if UPSERT => _ = self.ds.upsert(ctx, k, v).expect("pool sized"),
            TraceOp::Insert(k, v) => _ = self.ds.insert(ctx, k, v).expect("pool sized"),
            TraceOp::Remove(k) => _ = self.ds.remove(ctx, k),
            TraceOp::Get(k) => _ = self.ds.get(ctx, k),
        }
    }

    /// [`HashTable::restart`], which must count each key once (a key
    /// mid-move included).
    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let pool = &pools[0];
        let domain = NvDomain::attach(Arc::clone(pool));
        let (ds, report) = HashTable::restart(&domain, CRASHTEST_ROOT, make_ops(pool, false))
            .map_err(|e| format!("recovery: {e}"))?;
        counted_once(report.live, ds.snapshot().len())?;
        Ok((Self { domain, ds, ops_applied: AtomicU64::new(0) }, report.heap))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.ds.snapshot()
    }

    fn audit(&self) -> Vec<String> {
        self.ds.audit(&self.domain, |_| true)
    }
}

/// Whether recovery counted each key the structure holds once.
pub(crate) fn counted_once(counted: usize, held: usize) -> Result<(), String> {
    if counted == held {
        return Ok(());
    }
    Err(format!("recovery counted {counted} key(s), the structure holds {held}"))
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

    fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) {
        match op {
            TraceOp::Insert(k, v) => self.mc.set(ctx, k, v).expect("pool sized for trace"),
            TraceOp::Remove(k) => _ = self.mc.delete(ctx, k),
            TraceOp::Get(k) => _ = self.mc.get(ctx, k),
        }
    }

    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let (mc, report) = NvMemcached::recover(Arc::clone(&pools[0]), MC_CAPACITY)
            .map_err(|e| format!("recovery: {e}"))?;
        counted_once(mc.len(), mc.snapshot().len())?;
        Ok((Self { mc }, report))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.mc.snapshot()
    }

    fn audit(&self) -> Vec<String> {
        self.mc.audit(|_| true)
    }
}
