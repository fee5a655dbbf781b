//! Acceptance tests of the crashtest subsystem itself: exhaustive
//! crash-point enumeration over every target, the event taxonomy and
//! repeatability of a run, the premise that the durable image changes
//! only at fences, the multi-threaded quiesce-and-crash smoke, and —
//! most importantly — the mutation tests proving a deliberately-omitted
//! flush, and a recovered image the audit must reject, are *caught* (a
//! harness that cannot fail proves nothing).

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crashtest::{
    gen_trace, run_crash_points, run_torture, seed_from_env, BstTarget, CrashConfig, CrashTarget,
    HashTarget, HashUpsertTarget, ListTarget, ListUpsertTarget, MemcachedTarget, OpMix,
    ReshardTarget, ResizeTarget, ResizeUpsertTarget, ShardedTarget, SkipTarget, TortureConfig,
    TraceOp,
};
use logfree::marked::{addr_of, DIRTY};
use logfree::Reached;
use nvalloc::{page_of, NvDomain, PageHeader, RecoveryReport, ThreadCtx};
use pmem::{CrashEvent, CrashPlan, Mode, PmemPool, PoolBuilder};

fn cfg() -> CrashConfig {
    CrashConfig::small(seed_from_env())
}

/// [`cfg`] with a link cache attached, which lets each key lose its last
/// completed update.
fn cached_cfg() -> CrashConfig {
    CrashConfig { use_link_cache: true, ..cfg() }
}

#[test]
fn linked_list_survives_every_crash_point() {
    run_crash_points::<ListTarget>(&cfg()).assert_clean();
}

#[test]
fn hash_table_survives_every_crash_point() {
    run_crash_points::<HashTarget>(&cfg()).assert_clean();
}

#[test]
fn skip_list_survives_every_crash_point() {
    run_crash_points::<SkipTarget>(&cfg()).assert_clean();
}

#[test]
fn bst_survives_every_crash_point() {
    run_crash_points::<BstTarget>(&cfg()).assert_clean();
}

#[test]
fn nv_memcached_survives_every_crash_point() {
    run_crash_points::<MemcachedTarget>(&cfg()).assert_clean();
}

#[test]
fn resize_in_flight_survives_every_crash_point() {
    // The tentpole guarantee: a 4x grow fires mid-trace, so the
    // enumeration crashes the table at every clwb/fence/link-publish/
    // resize-state event of a live migration — publish of the new
    // array, each bucket drain's copy write-backs, destination publish
    // and detach, the CUR swing and the commit. Every point must recover to the oracle
    // state with zero leaks, correct routing and no resize left in
    // flight (recovery rolls it forward).
    let report = run_crash_points::<ResizeTarget>(&cfg());
    let resize_events = report.event_kinds[CrashEvent::ResizeState as usize];
    assert!(resize_events > 0, "the trace produced no resize-state crash points");
    report.assert_clean();
}

// ---------------------------------------------------------------------
// The upsert enumeration: every `Insert` of the trace is an upsert, so
// about half of them replace a present key. The oracle admits the old
// value or the new one for the operation in flight and nothing else — in
// particular no image in which a key that was stored and never deleted is
// missing.
// ---------------------------------------------------------------------

#[test]
fn list_upsert_survives_every_crash_point() {
    run_crash_points::<ListUpsertTarget>(&cfg()).assert_clean();
}

#[test]
fn hash_upsert_survives_every_crash_point() {
    run_crash_points::<HashUpsertTarget>(&cfg()).assert_clean();
}

#[test]
fn upserts_racing_a_resize_survive_every_crash_point() {
    // Replacements land in chains a 4x grow is draining: the replaced
    // node may be next in line for the migrator's claim, and its
    // replacement must be what gets copied.
    let report = run_crash_points::<ResizeUpsertTarget>(&cfg());
    let resize_events = report.event_kinds[CrashEvent::ResizeState as usize];
    assert!(resize_events > 0, "the trace produced no resize-state crash points");
    report.assert_clean();
}

#[test]
fn upserts_with_link_cache_survive_every_crash_point() {
    // With a link cache the oracle's window opens just before each key's
    // last completed update and nothing earlier, so a completed
    // overwrite may recover as the old value but never as a missing key.
    // (The live reshard has its own test below, so CI's reshard job runs
    // it.)
    let c = cached_cfg();
    run_crash_points::<ListUpsertTarget>(&c).assert_clean();
    run_crash_points::<HashUpsertTarget>(&c).assert_clean();
    run_crash_points::<ResizeUpsertTarget>(&c).assert_clean();
    run_crash_points::<MemcachedTarget>(&c).assert_clean();
    run_crash_points::<ShardedTarget<4>>(&c).assert_clean();
}

#[test]
fn resize_trace_covers_every_event_kind() {
    let report = run_crash_points::<ResizeTarget>(&cfg());
    use CrashEvent::*;
    for kind in [Clwb, Fence, LinkPublish, ResizeState] {
        assert!(report.event_kinds[kind as usize] > 0, "no {kind:?} events in the resize trace");
    }
}

#[test]
fn sharded_nv_memcached_survives_every_crash_point() {
    // 4 shards: the crash lands in one shard's event stream while the
    // others hold committed state — the oracle over the merged snapshot,
    // the routing containment check and the leak audit over every shard
    // all must pass at every global crash point.
    run_crash_points::<ShardedTarget<4>>(&cfg()).assert_clean();
}

#[test]
fn sharded_routing_with_odd_shard_count_survives() {
    // A non-power-of-two shard count exercises the modulo router.
    let mut c = cfg();
    c.trace_len = 32;
    run_crash_points::<ShardedTarget<3>>(&c).assert_clean();
}

#[test]
fn live_reshard_survives_every_crash_point() {
    // The elastic-topology guarantee: a 2→4 reshard starts a third of
    // the way through the trace and is driven to completion alongside
    // it, so the enumeration crashes the cache at every event of the
    // whole migration — target-pool formatting, the durable
    // `[OLD][NEW][0][VERSION]` commit record, every drained bucket's
    // claim, copies, links and detach, the final swap. Every point must
    // recover (union roll-forward after the commit, old-pools fallback
    // before it) to the global oracle state with routing containment and
    // zero leaks.
    let report = run_crash_points::<ReshardTarget>(&cfg());
    let reshard_events = report.event_kinds[CrashEvent::ReshardState as usize];
    assert!(reshard_events > 0, "the schedule produced no reshard-state crash points");
    report.assert_clean();
}

#[test]
fn live_reshard_with_link_cache_survives_every_crash_point() {
    // The same reshard with link caches on every pool. A drain's copies are linked with
    // link-and-persist, bypassing the target's cache, and are durable
    // before the old bucket's sentinel: no crash image holds the
    // sentinel without the copies.
    run_crash_points::<ReshardTarget>(&cached_cfg()).assert_clean();
}

#[test]
fn reshard_trace_writes_one_state_word() {
    let report = run_crash_points::<ReshardTarget>(&cfg());
    // The state word is written once, at commit: the drained buckets'
    // sentinels record the progress.
    assert_eq!(
        report.event_kinds[CrashEvent::ReshardState as usize],
        1,
        "one commit record and nothing else"
    );
}

#[test]
fn sharded_trace_writes_no_migration_word() {
    // A sharded cache built at its final size never migrates: no resize
    // or reshard word is written.
    let report = run_crash_points::<ShardedTarget<4>>(&cfg());
    use CrashEvent::*;
    for kind in [Clwb, Fence, LinkPublish] {
        assert!(report.event_kinds[kind as usize] > 0, "no {kind:?} events recorded");
    }
    for kind in [ResizeState, ReshardState] {
        assert_eq!(report.event_kinds[kind as usize], 0, "unexpected {kind:?} events");
    }
}

#[test]
fn hash_table_with_link_cache_survives_every_crash_point() {
    run_crash_points::<HashTarget>(&cached_cfg()).assert_clean();
}

#[test]
fn skip_list_trace_emits_every_structure_event() {
    let c = cfg();
    let report = run_crash_points::<SkipTarget>(&c);
    assert!(report.total_events > c.trace_len as u64, "update-heavy trace produces events");
    // The taxonomy is populated: all three structure-level kinds occur.
    use CrashEvent::*;
    for kind in [Clwb, Fence, LinkPublish] {
        assert!(report.event_kinds[kind as usize] > 0, "no {kind:?} events recorded");
    }
}

#[test]
fn skip_list_enumeration_repeats_in_one_process() {
    // Each run gets a fresh thread, so the thread-local tower heights
    // start over and a second run in the same process sees the same
    // events.
    let a = run_crash_points::<SkipTarget>(&cfg());
    let b = run_crash_points::<SkipTarget>(&cfg());
    assert_eq!(a.total_events, b.total_events, "event totals must repeat exactly");
    assert_eq!(a.event_kinds, b.event_kinds, "the event taxonomy must repeat exactly");
    assert_eq!(a.images_recovered, b.images_recovered, "the durable images must repeat");
}

#[test]
fn durable_image_changes_only_across_fences() {
    // The premise of the one-run enumeration: between two fences every
    // crash point sees the same durable image. Hash the image before
    // every event of the list trace; it may differ from the previous
    // event's only when that event was a fence.
    use std::hash::{Hash, Hasher};
    let c = cfg();
    let pools = vec![PoolBuilder::new(c.pool_mb << 20).mode(Mode::CrashSim).build()];
    let target = ListTarget::create(&pools, false);
    let events: Arc<std::sync::Mutex<Vec<(CrashEvent, u64)>>> = Arc::default();
    let plan = CrashPlan::new({
        let (pool, events) = (Arc::clone(&pools[0]), Arc::clone(&events));
        move |_, kind| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            pool.capture_crash_image().expect("crash-sim pool").hash(&mut h);
            events.lock().unwrap().push((kind, h.finish()));
        }
    });
    pools[0].install_crash_plan(Arc::clone(&plan));
    let mut ctx = target.register();
    for op in gen_trace(c.seed, c.trace_len, c.key_range, c.mix) {
        target.apply(&mut ctx, op);
    }
    pools[0].clear_crash_plan();
    let events = events.lock().unwrap();
    let mut changes = 0;
    for (i, w) in events.windows(2).enumerate() {
        if w[0].1 != w[1].1 {
            assert_eq!(w[0].0, CrashEvent::Fence, "the image changed after event {i}, not a fence");
            changes += 1;
        }
    }
    assert!(changes > 0, "the trace never changed the durable image");
}

#[test]
fn torture_quiesce_and_crash_skiplist() {
    run_torture::<SkipTarget>(&TortureConfig::small(seed_from_env())).assert_clean();
}

#[test]
fn torture_quiesce_and_crash_hash_table() {
    run_torture::<HashTarget>(&TortureConfig::small(seed_from_env())).assert_clean();
}

/// Six workers of 4 000 ops over 400 keys each.
fn large_torture() -> TortureConfig {
    TortureConfig {
        threads: 6,
        ops_per_thread: 4_000,
        keys_per_thread: 400,
        ..TortureConfig::small(seed_from_env())
    }
}

#[test]
fn torture_quiesce_and_crash_bst() {
    run_torture::<BstTarget>(&large_torture()).assert_clean();
}

#[test]
fn torture_quiesce_and_crash_linked_list() {
    run_torture::<ListTarget>(&large_torture()).assert_clean();
}

#[test]
fn torture_quiesce_and_crash_racing_resizes() {
    // 4 workers hammer the table while the shared op counter keeps
    // starting fresh 4x grows (every RESIZE_GROW_EVERY ops), so the
    // mid-run crash lands with high probability inside a migration
    // raced by concurrent inserts/removes.
    run_torture::<ResizeTarget>(&TortureConfig::small(seed_from_env())).assert_clean();
}

#[test]
fn torture_quiesce_and_crash_sharded_cache() {
    run_torture::<ShardedTarget<4>>(&TortureConfig::small(seed_from_env())).assert_clean();
}

/// [`TortureConfig::small`] with a link cache on every pool.
fn cached_torture() -> TortureConfig {
    TortureConfig { use_link_cache: true, ..TortureConfig::small(seed_from_env()) }
}

#[test]
fn torture_quiesce_and_crash_hash_table_with_link_cache() {
    run_torture::<HashTarget>(&cached_torture()).assert_clean();
}

#[test]
fn torture_quiesce_and_crash_sharded_cache_with_link_cache() {
    run_torture::<ShardedTarget<4>>(&cached_torture()).assert_clean();
}

// ---------------------------------------------------------------------
// Mutation test: a structure whose insert deliberately omits the flush
// of the published head link. The harness must flag it.
// ---------------------------------------------------------------------

const KEY_OFF: usize = 0;
const VAL_OFF: usize = 8;
const NEXT_OFF: usize = 16;
const NODE_SIZE: usize = 24;
const ROOT: usize = 1;

/// A push-front linked list with correct volatile semantics but a broken
/// durability story: node contents are persisted, the head link is
/// published with a plain store and **never written back**.
struct BrokenChain {
    domain: Arc<NvDomain>,
    head_link: usize,
}

impl BrokenChain {
    fn pool(&self) -> &Arc<PmemPool> {
        self.domain.pool()
    }

    fn load(&self, addr: usize) -> u64 {
        self.pool().atomic_u64(addr).load(Ordering::Acquire)
    }

    fn walk(&self) -> Vec<usize> {
        let pool = self.pool();
        let mut out = Vec::new();
        let mut curr = pool.atomic_u64(self.head_link).load(Ordering::Acquire) as usize;
        while curr != 0 {
            out.push(curr);
            curr = pool.atomic_u64(curr + NEXT_OFF).load(Ordering::Acquire) as usize;
        }
        out
    }
}

impl CrashTarget for BrokenChain {
    const NAME: &'static str = "BrokenChain";
    type Ctx = ThreadCtx;

    fn create(pools: &[Arc<PmemPool>], _use_link_cache: bool) -> Self {
        let pool = &pools[0];
        let domain = NvDomain::create(Arc::clone(pool));
        let head_link = pool.start() + ROOT * 8;
        let mut flusher = pool.flusher();
        pool.atomic_u64(head_link).store(0, Ordering::Release);
        flusher.persist(head_link, 8);
        Self { domain, head_link }
    }

    fn register(&self) -> ThreadCtx {
        self.domain.register()
    }

    fn apply(&self, ctx: &mut ThreadCtx, op: TraceOp) {
        let TraceOp::Insert(key, value) = op else {
            panic!("the mutation trace is insert-only");
        };
        let pool = Arc::clone(self.pool());
        ctx.begin_op();
        let head = pool.atomic_u64(self.head_link).load(Ordering::Acquire);
        let exists = self
            .walk()
            .iter()
            .any(|&n| pool.atomic_u64(n + KEY_OFF).load(Ordering::Acquire) == key);
        if !exists {
            let node = ctx.alloc(NODE_SIZE).expect("pool sized");
            pool.atomic_u64(node + KEY_OFF).store(key, Ordering::Relaxed);
            pool.atomic_u64(node + VAL_OFF).store(value, Ordering::Relaxed);
            pool.atomic_u64(node + NEXT_OFF).store(head, Ordering::Release);
            ctx.flusher.clwb_range(node, NODE_SIZE);
            ctx.flusher.fence();
            // THE BUG: the head link is published but never written back;
            // a crash at any later point silently forgets the insert.
            pool.atomic_u64(self.head_link).store(node as u64, Ordering::Release);
        }
        ctx.end_op();
    }

    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let pool = &pools[0];
        let domain = NvDomain::attach(Arc::clone(pool));
        let head_link = pool.start() + ROOT * 8;
        let chain = Self { domain, head_link };
        let live: std::collections::HashSet<usize> = chain.walk().into_iter().collect();
        let report = chain.domain.recover_leaks(|addr| live.contains(&addr));
        Ok((chain, report))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.walk().into_iter().map(|n| (self.load(n + KEY_OFF), self.load(n + VAL_OFF))).collect()
    }

    /// A push-front chain admits any key order, and its links are plain
    /// addresses.
    fn audit(&self) -> Vec<String> {
        let reached = |addr: usize| Reached {
            addr,
            key: self.load(addr + KEY_OFF),
            value: self.load(addr + VAL_OFF),
            link: addr as u64,
            keys: 0..=u64::MAX,
            deleted: false,
            bucket: (0, 1),
        };
        let walk = |visit: &mut dyn FnMut(Reached)| {
            self.walk().into_iter().for_each(|n| visit(reached(n)))
        };
        logfree::audit(&self.domain, walk, |_| true)
    }
}

#[test]
fn omitted_flush_is_caught() {
    let mut c = cfg();
    c.trace_len = 16;
    c.mix = OpMix { insert_pct: 100, remove_pct: 0 };
    let report = run_crash_points::<BrokenChain>(&c);
    assert!(
        !report.violations.is_empty(),
        "the harness failed to flag a deliberately-omitted flush"
    );
    // Specifically: a completed insert was lost (key-level violation, not
    // just a leak report).
    assert!(
        report.violations.iter().any(|v| v.key != 0 && v.got.is_none()),
        "expected lost completed inserts, got: {:?}",
        report.violations
    );
}

// ---------------------------------------------------------------------
// Mutation test for the upsert: a table that publishes a replacement
// node without writing it back or fencing first. The one link update
// that retires the old node also makes the new one reachable, so if it
// reaches the durable image before the node does, recovery follows it
// into a slot that holds nothing (or a dead node's contents): the key is
// gone or wrong, and so is everything chained behind it.
// ---------------------------------------------------------------------

/// A fault injected into a healthy target when it is created, or into
/// the image its product recovery returns. Otherwise the recovered
/// instance is the healthy target, as after a real restart.
trait Sabotage: Send + Sync {
    type Target: CrashTarget;
    const NAME: &'static str;
    fn arm(_target: &Self::Target) {}
    fn after_recovery(_target: &Self::Target) {}
}

/// `S::Target` with `S`'s fault armed.
struct Broken<S: Sabotage>(S::Target);

impl<S: Sabotage> CrashTarget for Broken<S> {
    const NAME: &'static str = S::NAME;
    const UPSERT: bool = S::Target::UPSERT;
    const POOLS: usize = S::Target::POOLS;
    type Ctx = <S::Target as CrashTarget>::Ctx;

    fn create(pools: &[Arc<PmemPool>], use_link_cache: bool) -> Self {
        let target = S::Target::create(pools, use_link_cache);
        S::arm(&target);
        Self(target)
    }

    fn register(&self) -> Self::Ctx {
        self.0.register()
    }

    fn apply(&self, ctx: &mut Self::Ctx, op: TraceOp) {
        self.0.apply(ctx, op)
    }

    fn settle(&self) {
        self.0.settle()
    }

    fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
        let (target, report) = S::Target::recover(pools)?;
        S::after_recovery(&target);
        Ok((Self(target), report))
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.0.snapshot()
    }

    fn audit(&self) -> Vec<String> {
        self.0.audit()
    }
}

/// The replacement's write-back and pre-link fence suppressed.
struct UnpersistedReplacement;

impl Sabotage for UnpersistedReplacement {
    type Target = HashUpsertTarget;
    const NAME: &'static str = "BrokenUpsert";

    fn arm(target: &HashUpsertTarget) {
        target.table().ops().set_omit_replacement_persist(true);
    }
}

type BrokenUpsert = Broken<UnpersistedReplacement>;

#[test]
fn replacement_published_before_it_is_durable_is_caught() {
    // Upserts only, over few keys: nearly every operation is a
    // replacement, and first inserts keep their (unbroken) ordering.
    let mut c = cfg();
    c.trace_len = 32;
    c.key_range = 6;
    c.mix = OpMix { insert_pct: 100, remove_pct: 0 };
    let report = run_crash_points::<BrokenUpsert>(&c);
    assert!(
        report.violations.iter().any(|v| v.key != 0 && v.allowed.iter().all(Option::is_some)),
        "expected a stored, never-deleted key to recover missing or wrong, got: {:?}",
        report.violations
    );
    // The same trace with the ordering intact is clean, so the violations
    // above are the mutation's.
    run_crash_points::<HashUpsertTarget>(&c).assert_clean();
}

// ---------------------------------------------------------------------
// Mutation test for the resize word: a table whose resize-state updates
// (NEW/CUR) are stored but never written back. The enumeration
// must flag it — either as lost completed updates (the durable header
// never learns about the new array, so migrated keys vanish) or as a
// recovery-time geometry rejection (the stale durable CUR points at a
// bucket array whose region reclamation already zeroed).
// ---------------------------------------------------------------------

/// The resize-word write-backs suppressed.
struct UnflushedResizeWords;

impl Sabotage for UnflushedResizeWords {
    type Target = ResizeTarget;
    const NAME: &'static str = "BrokenResize";

    fn arm(target: &ResizeTarget) {
        target.table().set_omit_resize_word_flush(true);
    }
}

type BrokenResize = Broken<UnflushedResizeWords>;

#[test]
fn omitted_resize_word_flush_is_caught() {
    // A torn-geometry image can also make recovery refuse the pool
    // outright (a `GeometryError` for the zeroed stale array);
    // `run_crash_points` reports the refusal as a violation, which counts
    // as detection.
    let report = run_crash_points::<BrokenResize>(&cfg());
    assert!(report.event_kinds[CrashEvent::ResizeState as usize] > 0, "the grow never fired");
    assert!(
        report.violations.iter().all(|v| !v.detail.starts_with("panic in recovery")),
        "a torn geometry must be refused, not panicked on"
    );
    assert!(
        !report.violations.is_empty(),
        "the harness failed to flag deliberately-omitted resize-word flushes \
         ({} points tested)",
        report.points_tested
    );
    // Crash after completion: the migration certainly ran.
    assert!(
        report.violations.iter().any(|v| v.crash_point == report.total_events),
        "a full trace past an unflushed grow must lose its migrated keys"
    );
}

// ---------------------------------------------------------------------
// Mutation tests for the image audit: after the product's recovery, the
// image is damaged in a way no key's value shows — a reachable node's
// slot freed (the next allocation would overwrite a live node), or a
// link left DIRTY. The oracle passes both; the audit must name the node
// and what is wrong.
// ---------------------------------------------------------------------

/// The first node a walk of `target`'s table reaches, if any; with
/// `successor`, the first whose `next` word links another node.
fn first_node(target: &HashTarget, successor: bool) -> Option<usize> {
    let pool = target.table().ops().pool();
    let mut found = None;
    target.table().walk(|r| {
        let next = pool.atomic_u64(r.addr + logfree::list::NEXT_OFF).load(Ordering::Acquire);
        if found.is_none() && (!successor || addr_of(next) != 0) {
            found = Some(r.addr);
        }
    });
    found
}

/// The nodes each audit mutation damaged, across the run's images.
static FREED: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());
static DIRTIED: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());

/// The slot of the first reachable node freed after recovery.
struct FreedReachableSlot;

impl Sabotage for FreedReachableSlot {
    type Target = HashTarget;
    const NAME: &'static str = "FreedReachableSlot";

    fn after_recovery(target: &HashTarget) {
        let Some(node) = first_node(target, false) else { return };
        let pool = target.table().ops().pool();
        let page = page_of(node);
        let class = PageHeader::read_class(pool, page).expect("a node sits in a data page");
        PageHeader::clear(pool, page, class, PageHeader::slot_index(node, class));
        FREED.lock().unwrap().insert(node);
    }
}

/// The first link from one node to another re-marked DIRTY after
/// recovery; the audit names the node it reaches.
struct DirtyLinkLeft;

impl Sabotage for DirtyLinkLeft {
    type Target = HashTarget;
    const NAME: &'static str = "DirtyLinkLeft";

    fn after_recovery(target: &HashTarget) {
        let Some(node) = first_node(target, true) else { return };
        let next = target.table().ops().pool().atomic_u64(node + logfree::list::NEXT_OFF);
        let succ = addr_of(next.fetch_or(DIRTY, Ordering::AcqRel));
        DIRTIED.lock().unwrap().insert(succ);
    }
}

/// Asserts that `report` holds a violation that names one of the
/// `damaged` nodes and says `what` about it.
fn assert_names_damage(
    report: &crashtest::CrashReport,
    damaged: &Mutex<BTreeSet<usize>>,
    what: &str,
) {
    let damaged = damaged.lock().unwrap();
    assert!(!damaged.is_empty(), "the mutation never found a node to damage");
    let named = |d: &str| {
        damaged.iter().any(|n| d.starts_with(&format!("node {n:#x} "))) && d.contains(what)
    };
    assert!(
        report.violations.iter().any(|v| named(&v.detail)),
        "expected a damaged node that {what}, got: {:?}",
        report.violations
    );
}

#[test]
fn freed_reachable_slot_is_caught() {
    let report = run_crash_points::<Broken<FreedReachableSlot>>(&cfg());
    assert_names_damage(&report, &FREED, "is reached but not allocated");
}

#[test]
fn dirty_link_left_after_recovery_is_caught() {
    let report = run_crash_points::<Broken<DirtyLinkLeft>>(&cfg());
    assert_names_damage(&report, &DIRTIED, "is reached through a DIRTY link");
}
