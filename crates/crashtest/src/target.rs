//! The [`CrashTarget`] abstraction: everything the drivers need to crash
//! and recover a structure, implemented for all four log-free structures
//! and NV-Memcached.

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
/// `create` and `recover` own the whole lifecycle (domain + structure +
/// post-crash repair) so the drivers stay generic; `recover` must run the
/// structure's `recover` pass *and* [`NvDomain::recover_leaks`].
pub trait CrashTarget: Sized + Send + Sync {
    /// Display name for reports.
    const NAME: &'static str;
    /// Whether [`TraceOp::Insert`] replaces an existing value (upsert).
    const UPSERT: bool = false;

    /// Creates a fresh instance (formats the domain) over `pool`.
    fn create(pool: &Arc<PmemPool>, use_link_cache: bool) -> Self;

    /// The allocation domain (drivers register worker threads here).
    fn domain(&self) -> &Arc<NvDomain>;

    /// Applies one trace operation; returns whether it changed the
    /// structure (insert stored / remove removed), for the
    /// multi-threaded audit log.
    fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) -> bool;

    /// Re-attaches after a crash, repairs the structure, and reclaims
    /// leaks.
    fn recover(pool: &Arc<PmemPool>) -> (Self, RecoveryReport);

    /// Quiescent snapshot of live `(key, value)` pairs.
    fn snapshot(&self) -> Vec<(u64, u64)>;

    /// §5.5 reachability oracle for the leak audit.
    fn reachable(&self, addr: usize) -> bool;

    /// Target-specific structural invariant, audited after every
    /// recovery (e.g. bucket routing and resize quiescence for the hash
    /// table). `None` means healthy; `Some(detail)` becomes a violation.
    fn post_recovery_check(&self) -> Option<String> {
        None
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

            fn create(pool: &Arc<PmemPool>, use_link_cache: bool) -> Self {
                let domain = NvDomain::create(Arc::clone(pool));
                let ops = make_ops(pool, use_link_cache);
                #[allow(clippy::redundant_closure_call)]
                let ds = ($create)(&domain, ops);
                Self { domain, ds }
            }

            fn domain(&self) -> &Arc<NvDomain> {
                &self.domain
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

            fn recover(pool: &Arc<PmemPool>) -> (Self, RecoveryReport) {
                let domain = NvDomain::attach(Arc::clone(pool));
                let ds = $structure::attach(&domain, CRASHTEST_ROOT, make_ops(pool, false));
                let mut flusher = pool.flusher();
                ds.recover(&mut flusher);
                let report = domain.recover_leaks(|addr| ds.contains_node_at(addr));
                (Self { domain, ds }, report)
            }

            fn snapshot(&self) -> Vec<(u64, u64)> {
                self.ds.snapshot()
            }

            fn reachable(&self, addr: usize) -> bool {
                self.ds.contains_node_at(addr)
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

/// Applies one trace op to a hash table (shared by the hash-flavoured
/// targets); `upsert` picks what a [`TraceOp::Insert`] does.
fn apply_hash(ds: &HashTable, ctx: &mut ThreadCtx, op: TraceOp, upsert: bool) -> bool {
    match op {
        TraceOp::Insert(k, v) if upsert => {
            ds.upsert(ctx, k, v).expect("pool sized for trace");
            true
        }
        TraceOp::Insert(k, v) => ds.insert(ctx, k, v).expect("pool sized for trace"),
        TraceOp::Remove(k) => ds.remove(ctx, k).is_some(),
        TraceOp::Get(k) => {
            let _ = ds.get(ctx, k);
            false
        }
    }
}

/// The full resize-aware hash-table recovery sequence: attach, repair
/// the chains, reclaim leaks (with the both-arrays reachability oracle,
/// *before* any allocation), then roll any in-flight resize forward and
/// sweep bucket-array regions orphaned by a crash between
/// allocate-and-publish.
fn recover_hash(pool: &Arc<PmemPool>) -> (Arc<NvDomain>, HashTable, RecoveryReport) {
    let domain = NvDomain::attach(Arc::clone(pool));
    let ds = HashTable::attach(&domain, CRASHTEST_ROOT, make_ops(pool, false));
    let mut flusher = pool.flusher();
    ds.recover(&mut flusher);
    let report = domain.recover_leaks(|addr| ds.contains_node_at(addr));
    let mut ctx = domain.register();
    ds.finish_resize(&mut ctx).expect("pool sized to finish the resize");
    ctx.drain_all();
    ds.sweep_orphan_regions(&mut ctx);
    drop(ctx);
    (domain, ds, report)
}

/// Post-recovery structural audit shared by the hash-flavoured targets:
/// the resize must be quiescent and every live node must hash to the
/// bucket chain it sits in.
fn check_hash(ds: &HashTable) -> Option<String> {
    if ds.resize_in_flight() {
        return Some("resize still in flight after recovery".into());
    }
    let misrouted = ds.check_routing();
    (misrouted != 0).then(|| format!("{misrouted} live node(s) in the wrong bucket after recovery"))
}

/// The hash table; `UPSERT` picks whether a [`TraceOp::Insert`] is
/// `insert` or `upsert`. Hand-written rather than macro-generated: its
/// recovery is resize-aware and its post-recovery check audits bucket
/// routing, neither of which the other structures have.
pub struct HashTargetOf<const UPSERT: bool> {
    domain: Arc<NvDomain>,
    ds: HashTable,
}

/// The hash table under set semantics (`insert` refuses a present key).
pub type HashTarget = HashTargetOf<false>;
/// The hash table under upsert semantics (`upsert` replaces in one step).
pub type HashUpsertTarget = HashTargetOf<true>;

impl<const UPSERT: bool> HashTargetOf<UPSERT> {
    /// The underlying table (mutation tests flip its fault-injection
    /// knobs).
    pub fn table(&self) -> &HashTable {
        &self.ds
    }
}

impl<const UPSERT: bool> CrashTarget for HashTargetOf<UPSERT> {
    const NAME: &'static str = if UPSERT { "HashTable+upsert" } else { "HashTable" };
    const UPSERT: bool = UPSERT;

    fn create(pool: &Arc<PmemPool>, use_link_cache: bool) -> Self {
        let domain = NvDomain::create(Arc::clone(pool));
        let ops = make_ops(pool, use_link_cache);
        let ds = HashTable::create(&domain, CRASHTEST_ROOT, N_BUCKETS, ops)
            .expect("pool sized for table");
        Self { domain, ds }
    }

    fn domain(&self) -> &Arc<NvDomain> {
        &self.domain
    }

    fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) -> bool {
        apply_hash(&self.ds, ctx, op, UPSERT)
    }

    fn recover(pool: &Arc<PmemPool>) -> (Self, RecoveryReport) {
        let (domain, ds, report) = recover_hash(pool);
        (Self { domain, ds }, report)
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.ds.snapshot()
    }

    fn reachable(&self, addr: usize) -> bool {
        self.ds.contains_node_at(addr)
    }

    fn post_recovery_check(&self) -> Option<String> {
        check_hash(&self.ds)
    }
}

/// Trace-op index at which [`ResizeTarget`] kicks off a 4x grow (modulo
/// [`RESIZE_GROW_EVERY`]). Early enough that the default 64-op trace
/// covers publish, migration *and* commit crash points in one pass.
pub const RESIZE_GROW_AT: u64 = 20;
/// Grow period in ops: a long (torture) run keeps starting fresh grows,
/// a short exhaustive trace sees exactly one.
pub const RESIZE_GROW_EVERY: u64 = 2_500;

/// A hash table whose trace triggers an incremental 4x grow mid-run, so
/// the exhaustive driver enumerates a crash at every clwb, fence,
/// link-publish and resize-state event of a live migration — and the
/// torture driver races worker threads against repeated grows. `UPSERT`
/// as for [`HashTargetOf`]: with it, replacements land in chains that
/// are being drained.
pub struct ResizeTargetOf<const UPSERT: bool> {
    domain: Arc<NvDomain>,
    ds: HashTable,
    ops_applied: std::sync::atomic::AtomicU64,
}

/// The resizing table under set semantics.
pub type ResizeTarget = ResizeTargetOf<false>;
/// The resizing table under upsert semantics.
pub type ResizeUpsertTarget = ResizeTargetOf<true>;

impl<const UPSERT: bool> ResizeTargetOf<UPSERT> {
    /// The underlying table (mutation tests flip its fault-injection
    /// knobs).
    pub fn table(&self) -> &HashTable {
        &self.ds
    }
}

impl<const UPSERT: bool> CrashTarget for ResizeTargetOf<UPSERT> {
    const NAME: &'static str = if UPSERT { "HashTable+resize+upsert" } else { "HashTable+resize" };
    const UPSERT: bool = UPSERT;

    fn create(pool: &Arc<PmemPool>, use_link_cache: bool) -> Self {
        let domain = NvDomain::create(Arc::clone(pool));
        let ops = make_ops(pool, use_link_cache);
        let ds = HashTable::create(&domain, CRASHTEST_ROOT, N_BUCKETS, ops)
            .expect("pool sized for table");
        Self { domain, ds, ops_applied: std::sync::atomic::AtomicU64::new(0) }
    }

    fn domain(&self) -> &Arc<NvDomain> {
        &self.domain
    }

    fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) -> bool {
        let n = self.ops_applied.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if n % RESIZE_GROW_EVERY == RESIZE_GROW_AT {
            // Best effort: a grow already in flight refuses, and OOM just
            // leaves the table denser — neither may fail the trace.
            let _ = self.ds.grow(ctx, 4);
        }
        apply_hash(&self.ds, ctx, op, UPSERT)
    }

    fn recover(pool: &Arc<PmemPool>) -> (Self, RecoveryReport) {
        let (domain, ds, report) = recover_hash(pool);
        (Self { domain, ds, ops_applied: std::sync::atomic::AtomicU64::new(0) }, report)
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.ds.snapshot()
    }

    fn reachable(&self, addr: usize) -> bool {
        self.ds.contains_node_at(addr)
    }

    fn post_recovery_check(&self) -> Option<String> {
        check_hash(&self.ds)
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

    fn create(pool: &Arc<PmemPool>, use_link_cache: bool) -> Self {
        let mc = NvMemcached::create(Arc::clone(pool), N_BUCKETS, MC_CAPACITY, use_link_cache)
            .expect("pool sized for cache");
        Self { mc }
    }

    fn domain(&self) -> &Arc<NvDomain> {
        self.mc.domain()
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

    fn recover(pool: &Arc<PmemPool>) -> (Self, RecoveryReport) {
        let (mc, report) = NvMemcached::recover(Arc::clone(pool), MC_CAPACITY);
        (Self { mc }, report)
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.mc.snapshot()
    }

    fn reachable(&self, addr: usize) -> bool {
        self.mc.contains_node_at(addr)
    }

    fn post_recovery_check(&self) -> Option<String> {
        self.mc
            .resize_in_flight()
            .then(|| "cache resize still in flight after recovery".to_string())
    }
}
