//! Edge-case tests: empty-structure recovery, recovery idempotence,
//! sentinel boundaries, mark coexistence, and crash-during-recovery.

use std::sync::Arc;

use logfree::{marked, Bst, HashTable, LinkOps, LinkedList, SkipList};
use nvalloc::NvDomain;
use pmem::{Mode, PmemPool, PoolBuilder};

const ROOT: usize = 3;

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::CrashSim).build()
}

#[test]
fn empty_structures_recover_cleanly() {
    let pool = crash_pool(16);
    {
        let domain = NvDomain::create(Arc::clone(&pool));
        let mut ctx = domain.register();
        let _ll = LinkedList::create(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
        let _ht = HashTable::create(&domain, ROOT + 1, 16, LinkOps::new(Arc::clone(&pool), None))
            .unwrap();
        let _sl =
            SkipList::create(&domain, &mut ctx, ROOT + 2, LinkOps::new(Arc::clone(&pool), None))
                .unwrap();
        let _bst = Bst::create(&domain, &mut ctx, ROOT + 3, LinkOps::new(Arc::clone(&pool), None))
            .unwrap();
        // Intentionally nothing inserted.
    }
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain = NvDomain::attach(Arc::clone(&pool));
    let ll = LinkedList::attach(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
    let ht = HashTable::attach(&domain, ROOT + 1, LinkOps::new(Arc::clone(&pool), None));
    let sl = SkipList::attach(&domain, ROOT + 2, LinkOps::new(Arc::clone(&pool), None));
    let bst = Bst::attach(&domain, ROOT + 3, LinkOps::new(Arc::clone(&pool), None));
    let mut f = pool.flusher();
    assert_eq!(ll.recover(&mut f), (0, 0));
    assert_eq!(ht.recover(&mut f), (0, 0, 0));
    sl.recover(&mut f);
    bst.recover(&mut f);
    let mut reached = std::collections::HashSet::new();
    sl.walk(|r| _ = reached.insert(r.addr));
    bst.walk(|r| _ = reached.insert(r.addr));
    domain.recover_leaks(|a| reached.contains(&a) || ht.contains_node_at(a));
    assert!(ll.snapshot().is_empty());
    assert!(ht.snapshot().is_empty());
    assert!(sl.snapshot().is_empty());
    assert!(bst.snapshot().is_empty());
    // Fresh operations still work after recovering an empty image.
    let mut ctx = domain.register();
    assert!(ll.insert(&mut ctx, 1, 1).unwrap());
    assert!(ht.insert(&mut ctx, 1, 1).unwrap());
    assert!(sl.insert(&mut ctx, 1, 1).unwrap());
    assert!(bst.insert(&mut ctx, 1, 1).unwrap());
}

#[test]
fn recovery_is_idempotent() {
    // Running the full recovery pipeline twice must be a no-op the
    // second time: a crash *during* recovery is survivable by simply
    // recovering again.
    let pool = crash_pool(32);
    {
        let domain = NvDomain::create(Arc::clone(&pool));
        let ht =
            HashTable::create(&domain, ROOT, 32, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        let mut ctx = domain.register();
        for k in 1..=200u64 {
            ht.insert(&mut ctx, k, k).unwrap();
        }
        for k in (1..=200u64).step_by(2) {
            ht.remove(&mut ctx, k);
        }
    }
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    // First recovery.
    let domain = NvDomain::attach(Arc::clone(&pool));
    let ht = HashTable::attach(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
    let mut f = pool.flusher();
    ht.recover(&mut f);
    let r1 = domain.recover_leaks(|a| ht.contains_node_at(a));
    let snap1 = {
        let mut s = ht.snapshot();
        s.sort_unstable();
        s
    };
    // Crash again immediately (mid-"restart"), recover again.
    drop(ht);
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain = NvDomain::attach(Arc::clone(&pool));
    let ht = HashTable::attach(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
    let mut f = pool.flusher();
    let (dirty2, unlinked2, live2) = ht.recover(&mut f);
    let r2 = domain.recover_leaks(|a| ht.contains_node_at(a));
    let snap2 = {
        let mut s = ht.snapshot();
        s.sort_unstable();
        s
    };
    assert_eq!(snap1, snap2, "second recovery changes nothing");
    assert_eq!(dirty2, 0, "first recovery durably cleared all marks");
    assert_eq!(unlinked2, 0);
    assert_eq!(live2 as usize, snap2.len(), "recovery counts the live keys");
    assert_eq!(r2.leaks_freed, 0, "first recovery freed all leaks (r1 freed {})", r1.leaks_freed);
}

#[test]
fn crash_between_recover_and_leak_scan_is_safe() {
    // The two recovery phases are independently crash-safe: a crash
    // after the structural fixup but before the leak scan only costs
    // recovery work, never correctness.
    let pool = crash_pool(32);
    {
        let domain = NvDomain::create(Arc::clone(&pool));
        let ht =
            HashTable::create(&domain, ROOT, 32, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        let mut ctx = domain.register();
        for k in 1..=100u64 {
            ht.insert(&mut ctx, k, k).unwrap();
        }
        for k in 1..=50u64 {
            ht.remove(&mut ctx, k);
        }
    }
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    {
        let domain = NvDomain::attach(Arc::clone(&pool));
        let ht = HashTable::attach(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
        let mut f = pool.flusher();
        ht.recover(&mut f);
        // No recover_leaks: crash here.
        drop(domain);
    }
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain = NvDomain::attach(Arc::clone(&pool));
    let ht = HashTable::attach(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
    let mut f = pool.flusher();
    ht.recover(&mut f);
    domain.recover_leaks(|a| ht.contains_node_at(a));
    let mut ctx = domain.register();
    for k in 1..=50u64 {
        assert_eq!(ht.get(&mut ctx, k), None);
    }
    for k in 51..=100u64 {
        assert_eq!(ht.get(&mut ctx, k), Some(k));
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
    let w = pool.atomic_u64(anchor).load(std::sync::atomic::Ordering::Acquire);
    pool.atomic_u64(anchor).store(w | marked::DIRTY, std::sync::atomic::Ordering::Release);
    ctx.flusher.persist(anchor, 8);
    drop(ctx);
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain = NvDomain::attach(Arc::clone(&pool));
    let ll = LinkedList::attach(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
    let mut f = pool.flusher();
    let (dirty, _) = ll.recover(&mut f);
    assert!(dirty >= 1, "anchor mark cleared");
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
    let sl = SkipList::attach(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
    let mut f = pool.flusher();
    sl.recover(&mut f);
    domain.recover_leaks(|a| sl.contains_node_at(a));
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
    assert_eq!(ht.n_buckets(), 128);
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
