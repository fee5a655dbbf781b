//! Edge-case tests: empty-structure recovery, recovery idempotence,
//! sentinel boundaries, mark coexistence, and crash-during-recovery.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use logfree::{marked, Bst, HashTable, LinkOps, LinkedList, Reached, RestartReport, SkipList};
use nvalloc::{NvDomain, ThreadCtx};
use pmem::{CrashEvent, CrashPlan, Mode, PmemPool, PoolBuilder};

const ROOT: usize = 3;

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::CrashSim).build()
}

/// Formats a domain over a fresh pool, lets `create` build one empty
/// structure in it, crashes, and re-attaches the domain.
fn crashed_with(create: impl FnOnce(&Arc<NvDomain>, &mut ThreadCtx, LinkOps)) -> Arc<NvDomain> {
    let pool = crash_pool(4);
    {
        let domain = NvDomain::create(Arc::clone(&pool));
        let mut ctx = domain.register();
        create(&domain, &mut ctx, LinkOps::new(Arc::clone(&pool), None));
    }
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    NvDomain::attach(pool)
}

/// The empty restart's counts, and its audit.
fn clean_and_empty(
    domain: &NvDomain,
    r: RestartReport,
    walk: impl FnOnce(&mut dyn FnMut(Reached)),
) {
    assert_eq!((r.dirty_cleared, r.unlinked, r.live), (0, 0, 0));
    assert_eq!(logfree::audit(domain, walk, |_| true), Vec::<String>::new());
}

#[test]
fn empty_structures_recover_cleanly() {
    // One pool per structure: a domain holds one structure, whose leak
    // scan frees whatever that structure does not reach. Nothing is
    // inserted; fresh operations still work after the restart.
    let ops = |d: &Arc<NvDomain>| LinkOps::new(Arc::clone(d.pool()), None);
    let domain = crashed_with(|d, _, ops| _ = LinkedList::create(d, ROOT, ops));
    let (ll, r) = LinkedList::restart(&domain, ROOT, ops(&domain)).unwrap();
    clean_and_empty(&domain, r, |v| ll.walk(v));
    assert!(ll.snapshot().is_empty());
    assert!(ll.insert(&mut domain.register(), 1, 1).unwrap());

    let domain = crashed_with(|d, _, ops| _ = HashTable::create(d, ROOT, 16, ops).unwrap());
    let (ht, r) = HashTable::restart(&domain, ROOT, ops(&domain)).unwrap();
    clean_and_empty(&domain, r, |v| ht.walk(v));
    assert!(ht.snapshot().is_empty());
    assert!(ht.insert(&mut domain.register(), 1, 1).unwrap());

    let domain = crashed_with(|d, ctx, ops| _ = SkipList::create(d, ctx, ROOT, ops).unwrap());
    let (sl, r) = SkipList::restart(&domain, ROOT, ops(&domain)).unwrap();
    clean_and_empty(&domain, r, |v| sl.walk(v));
    assert!(sl.snapshot().is_empty());
    assert!(sl.insert(&mut domain.register(), 1, 1).unwrap());

    let domain = crashed_with(|d, ctx, ops| _ = Bst::create(d, ctx, ROOT, ops).unwrap());
    let (bst, r) = Bst::restart(&domain, ROOT, ops(&domain)).unwrap();
    clean_and_empty(&domain, r, |v| bst.walk(v));
    assert!(bst.snapshot().is_empty());
    assert!(bst.insert(&mut domain.register(), 1, 1).unwrap());
}

/// A crashed 32-bucket table that held `1..=n` and then lost every key
/// `removed` selects.
fn crashed_table(n: u64, removed: impl Fn(u64) -> bool) -> Arc<PmemPool> {
    let pool = crash_pool(8);
    {
        let domain = NvDomain::create(Arc::clone(&pool));
        let ht =
            HashTable::create(&domain, ROOT, 32, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        let mut ctx = domain.register();
        for k in 1..=n {
            ht.insert(&mut ctx, k, k).unwrap();
        }
        for k in (1..=n).filter(|&k| removed(k)) {
            ht.remove(&mut ctx, k);
        }
    }
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    pool
}

fn restart_table(pool: &Arc<PmemPool>) -> (Arc<NvDomain>, HashTable, RestartReport) {
    let domain = NvDomain::attach(Arc::clone(pool));
    let (ht, report) = HashTable::restart(&domain, ROOT, LinkOps::new(Arc::clone(pool), None))
        .expect("intact geometry");
    (domain, ht, report)
}

#[test]
fn recovery_is_idempotent() {
    // Running the full recovery pipeline twice must be a no-op the
    // second time: a crash *during* recovery is survivable by simply
    // recovering again.
    let pool = crashed_table(200, |k| k % 2 == 1);
    // First recovery.
    let (_, ht, r1) = restart_table(&pool);
    let snap1 = {
        let mut s = ht.snapshot();
        s.sort_unstable();
        s
    };
    // Crash again immediately (mid-"restart"), recover again.
    drop(ht);
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let (_, ht, r2) = restart_table(&pool);
    let snap2 = {
        let mut s = ht.snapshot();
        s.sort_unstable();
        s
    };
    assert_eq!(snap1, snap2, "second recovery changes nothing");
    assert_eq!(r2.dirty_cleared, 0, "first recovery durably cleared all marks");
    assert_eq!(r2.unlinked, 0);
    assert_eq!(r2.live, snap2.len(), "recovery counts the live keys");
    assert_eq!(r2.heap.leaks_freed, 0, "first recovery freed all leaks (r1 freed {r1:?})");
}

#[test]
fn crash_between_recover_and_leak_scan_is_safe() {
    // Recovery is crash-safe at every step: a crash at any fence of a
    // restart (between the structural fixup and the leak scan among
    // them) only costs recovery work, never correctness.
    let pool = crashed_table(100, |k| k <= 50);
    let crashed = pool.capture_crash_image().unwrap();
    for fence in 0.. {
        // SAFETY (both): no threads running.
        unsafe { pool.crash_to_image(&crashed).unwrap() };
        let image = Arc::new(Mutex::new(None));
        let plan = {
            let (image, pool, seen) = (Arc::clone(&image), Arc::clone(&pool), AtomicUsize::new(0));
            CrashPlan::new(move |_, event| {
                if event == CrashEvent::Fence && seen.fetch_add(1, Ordering::Relaxed) == fence {
                    *image.lock().unwrap() = Some(pool.capture_crash_image().unwrap());
                }
            })
        };
        pool.install_crash_plan(plan);
        drop(restart_table(&pool));
        pool.clear_crash_plan();
        let Some(image) = image.lock().unwrap().take() else {
            assert!(fence > 2, "a restart fences its repair and its leak scan");
            break;
        };
        unsafe { pool.crash_to_image(&image).unwrap() };
        let (domain, ht, _) = restart_table(&pool);
        let mut ctx = domain.register();
        for k in 1..=50u64 {
            assert_eq!(ht.get(&mut ctx, k), None, "crash at fence {fence}");
        }
        for k in 51..=100u64 {
            assert_eq!(ht.get(&mut ctx, k), Some(k), "crash at fence {fence}");
        }
        drop(ctx);
        assert_eq!(ht.audit(&domain, |_| true), Vec::<String>::new(), "crash at fence {fence}");
    }
}

#[test]
fn key_boundaries_are_respected() {
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let ll = LinkedList::create(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
    let bst =
        Bst::create(&domain, &mut ctx, ROOT + 1, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    // Extremes of the allowed ranges round-trip.
    assert!(ll.insert(&mut ctx, logfree::MIN_KEY, 1).unwrap());
    assert!(ll.insert(&mut ctx, logfree::MAX_KEY, 2).unwrap());
    assert_eq!(ll.get(&mut ctx, logfree::MIN_KEY), Some(1));
    assert_eq!(ll.get(&mut ctx, logfree::MAX_KEY), Some(2));
    assert!(bst.insert(&mut ctx, 0, 3).unwrap());
    assert!(bst.insert(&mut ctx, logfree::bst::MAX_BST_KEY, 4).unwrap());
    assert_eq!(bst.get(&mut ctx, 0), Some(3));
    assert_eq!(bst.get(&mut ctx, logfree::bst::MAX_BST_KEY), Some(4));
    assert_eq!(bst.remove(&mut ctx, logfree::bst::MAX_BST_KEY), Some(4));
}

#[test]
fn dirty_marked_anchor_recovers() {
    // A crash can persist a link together with its DIRTY mark (the mark
    // removal is never flushed). Recovery must treat the marked word as
    // durable and clean it — including on the anchor link itself.
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let ll = LinkedList::create(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
    let mut ctx = domain.register();
    ll.insert(&mut ctx, 42, 420).unwrap();
    // Manually re-mark the anchor and persist the marked word, emulating
    // the worst-case crash window.
    let anchor = pool.start() + ROOT * 8;
    let w = pool.atomic_u64(anchor).load(Ordering::Acquire);
    pool.atomic_u64(anchor).store(w | marked::DIRTY, Ordering::Release);
    ctx.flusher.persist(anchor, 8);
    drop(ctx);
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain = NvDomain::attach(Arc::clone(&pool));
    let (ll, report) =
        LinkedList::restart(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    assert!(report.dirty_cleared >= 1, "anchor mark cleared");
    let mut ctx = domain.register();
    assert_eq!(ll.get(&mut ctx, 42), Some(420));
}

#[test]
fn skiplist_survives_crash_with_garbage_towers() {
    // Tower links are index-only and never fenced: corrupt them all and
    // verify recovery rebuilds a fully working index from level 0.
    let pool = crash_pool(32);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let sl =
        SkipList::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    for k in 1..=500u64 {
        sl.insert(&mut ctx, k, k).unwrap();
    }
    drop(ctx);
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain = NvDomain::attach(Arc::clone(&pool));
    let (sl, _) = SkipList::restart(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let mut ctx = domain.register();
    for k in 1..=500u64 {
        assert_eq!(sl.get(&mut ctx, k), Some(k), "index lookup after rebuild");
    }
    // Index must be structurally usable for updates too.
    for k in 1..=500u64 {
        assert_eq!(sl.remove(&mut ctx, k), Some(k));
    }
    assert!(sl.snapshot().is_empty());
}

#[test]
fn bst_helping_insert_completes_stuck_delete() {
    // An insert that collides with a flagged edge must help the delete
    // finish (NM helping): emulate by flagging an edge manually through
    // remove's injection path being "interrupted" — here simply
    // interleaved single-threaded via two contexts.
    let pool = PoolBuilder::new(32 << 20).mode(Mode::Perf).build();
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let bst = Bst::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    for k in [50u64, 30, 70, 20, 40] {
        bst.insert(&mut ctx, k, k).unwrap();
    }
    // A full remove (injection + cleanup) followed by inserts around the
    // same region exercises the helping paths; correctness is covered by
    // the concurrent tests, this pins the sequential behaviour.
    assert_eq!(bst.remove(&mut ctx, 30), Some(30));
    assert!(bst.insert(&mut ctx, 30, 31).unwrap());
    assert!(bst.insert(&mut ctx, 25, 25).unwrap());
    assert_eq!(bst.get(&mut ctx, 30), Some(31));
    assert_eq!(bst.get(&mut ctx, 25), Some(25));
    assert_eq!(bst.snapshot(), vec![(20, 20), (25, 25), (30, 31), (40, 40), (50, 50), (70, 70)]);
}

#[test]
fn hash_table_bucket_count_rounds_to_power_of_two() {
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let ht = HashTable::create(&domain, ROOT, 100, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    assert_eq!(ht.capacity_hint(), 128);
}

#[test]
fn values_are_preserved_not_overwritten_by_failed_insert() {
    let pool = crash_pool(16);
    let domain = NvDomain::create(Arc::clone(&pool));
    let mut ctx = domain.register();
    let sl =
        SkipList::create(&domain, &mut ctx, ROOT, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    assert!(sl.insert(&mut ctx, 5, 100).unwrap());
    assert!(!sl.insert(&mut ctx, 5, 200).unwrap());
    assert_eq!(sl.get(&mut ctx, 5), Some(100), "set semantics: no overwrite");
}
