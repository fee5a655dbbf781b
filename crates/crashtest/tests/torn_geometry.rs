//! Recovery fixtures for torn resize-header states — the edges of the
//! resize state machine that the random crash enumeration cannot pin
//! deterministically:
//!
//! * **committed-pending** (`CUR == NEW != 0`): the crash landed between
//!   the CUR swing and the NEW clear. Recovery must *roll forward* —
//!   accept the image, clear NEW, and serve the fully migrated table.
//! * **corrupt NEW**: the durable NEW word points at garbage (a torn or
//!   foreign write). `restart` must *cleanly reject* the pool with a
//!   [`GeometryError`] instead of walking wild pointers, and a sharded
//!   cache must refuse the whole set of pools, naming the shard.
//! * **a chain that loops**: a node links back to its predecessor. The
//!   repair of a hash bucket, a list and a skip list's level 0 must end
//!   with [`GeometryError::Cycle`] instead of walking forever.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use logfree::hash::{H_CUR, H_NEW};
use logfree::list::NEXT_OFF;
use logfree::marked::addr_of;
use logfree::skiplist::TOWER_OFF;
use logfree::{GeometryError, HashTable, LinkOps, LinkedList, SkipList};
use nvalloc::NvDomain;
use nvmemcached::{ShardedNvMemcached, NVMC_ROOT};
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};

const ROOT: usize = 1;

fn crashsim_pool() -> Arc<PmemPool> {
    PoolBuilder::new(16 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
}

/// Builds a 16-bucket table, fills it with `1..=n` (value `k * 7`), and
/// runs one full 4x grow so the image is steady at 64 buckets.
fn grown_table(pool: &Arc<PmemPool>, n: u64) -> Arc<NvDomain> {
    let domain = NvDomain::create(Arc::clone(pool));
    let ops = LinkOps::new(Arc::clone(pool), None);
    let ht = HashTable::create(&domain, ROOT, 16, ops).unwrap();
    let mut ctx = domain.register();
    for k in 1..=n {
        ht.insert(&mut ctx, k, k * 7).unwrap();
    }
    ht.grow(&mut ctx, 4).unwrap();
    ht.finish_resize(&mut ctx).unwrap();
    ctx.drain_all();
    domain
}

/// Durably overwrites word `off` of the header of the table at root
/// slot `root` with `value`.
fn forge_header_word(pool: &Arc<PmemPool>, root: usize, off: usize, value: u64) {
    let hdr = pool.root(root) as usize;
    let mut flusher = pool.flusher();
    pool.atomic_u64(hdr + off).store(value, Ordering::Release);
    flusher.persist(hdr + off, 8);
}

#[test]
fn committed_pending_header_rolls_forward() {
    let pool = crashsim_pool();
    {
        let domain = grown_table(&pool, 100);
        // Forge the committed-pending state the crash enumeration can
        // only hit probabilistically: CUR already swung to the new
        // array, NEW not yet cleared.
        let hdr = pool.root(ROOT) as usize;
        let cur = pool.atomic_u64(hdr + H_CUR).load(Ordering::Acquire);
        forge_header_word(&pool, ROOT, H_NEW, cur);
        drop(domain);
    }
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };

    let domain = NvDomain::attach(Arc::clone(&pool));
    let (ht, report) = HashTable::restart(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None))
        .expect("committed-pending geometry is valid, not torn");

    assert!(!ht.resize_in_flight(), "roll-forward clears the pending commit");
    assert_eq!(ht.capacity_hint(), 64);
    let mut snap = ht.snapshot();
    snap.sort_unstable();
    let expect: Vec<_> = (1..=100u64).map(|k| (k, k * 7)).collect();
    assert_eq!(snap, expect, "no key lost in roll-forward (leaks: {report:?})");
    assert_eq!(report.live, 100);
    // Routing, leaks and dangling links, all in one audit.
    assert_eq!(ht.audit(&domain, |_| true), Vec::<String>::new());
    let mut ctx = domain.register();

    // The rolled-forward table keeps serving.
    assert!(ht.insert(&mut ctx, 9999, 1).unwrap());
    assert_eq!(ht.get(&mut ctx, 9999), Some(1));
}

#[test]
fn corrupt_new_array_is_cleanly_rejected() {
    let pool = crashsim_pool();
    {
        let domain = grown_table(&pool, 50);
        // Forge a NEW word pointing far outside the pool — a torn write
        // or a foreign root. Low mark bits must stay clear so the word
        // parses as an address, not as an in-flight dirty update.
        forge_header_word(&pool, ROOT, H_NEW, u64::MAX << 3);
        drop(domain);
    }
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };

    let domain = NvDomain::attach(Arc::clone(&pool));
    let err = HashTable::restart(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None))
        .expect_err("a wild NEW pointer must not be walked");
    assert!(
        matches!(err, GeometryError::BadArray { .. }),
        "expected BadArray for the forged NEW word, got {err:?}"
    );
}

#[test]
fn new_array_with_bogus_bucket_count_is_cleanly_rejected() {
    let pool = crashsim_pool();
    {
        let domain = grown_table(&pool, 50);
        // Point NEW *inside* the current array: in bounds, but the word
        // read as `n_buckets` is a bucket link (an address, far from a
        // plausible power-of-two count) or zero.
        let hdr = pool.root(ROOT) as usize;
        let cur = pool.atomic_u64(hdr + H_CUR).load(Ordering::Acquire);
        forge_header_word(&pool, ROOT, H_NEW, cur + 8);
        drop(domain);
    }
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };

    let domain = NvDomain::attach(Arc::clone(&pool));
    let err = HashTable::restart(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None))
        .expect_err("a mis-aimed NEW pointer must not be accepted");
    assert!(matches!(err, GeometryError::BadArray { .. }), "got {err:?}");
}

#[test]
fn torn_shard_table_is_refused_naming_the_shard() {
    let pools: Vec<_> = (0..2).map(|_| crashsim_pool()).collect();
    {
        let mc = ShardedNvMemcached::create(&pools, 64, 100_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=200 {
            mc.set(&mut ctx, k, k * 7).unwrap();
        }
        // Shard 1's table publishes a NEW array far outside its pool.
        forge_header_word(&pools[1], NVMC_ROOT, H_NEW, u64::MAX << 3);
    }
    for pool in &pools {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let err = ShardedNvMemcached::recover(&pools, 100_000)
        .expect_err("a torn shard table must be refused, not served or panicked on");
    assert!(
        matches!(
            err,
            nvmemcached::GeometryError::TornTable {
                shard: 1,
                error: GeometryError::BadArray { .. }
            }
        ),
        "got {err:?}"
    );
    assert!(err.to_string().starts_with("shard 1: "), "{err}");
}

/// Durably links the node whose link word is at `link` back to `to`.
fn forge_link(pool: &Arc<PmemPool>, link: usize, to: usize) {
    let mut flusher = pool.flusher();
    pool.atomic_u64(link).store(to as u64, Ordering::Release);
    flusher.persist(link, 8);
}

/// Forges a two-node cycle in the first bucket of the table at root slot
/// `root` whose chain holds two nodes: the second links back to the
/// first. Returns the bucket word's address.
fn forge_bucket_cycle(pool: &Arc<PmemPool>, root: usize) -> usize {
    let load = |addr: usize| pool.atomic_u64(addr).load(Ordering::Acquire);
    let cur = addr_of(load(pool.root(root) as usize + H_CUR));
    let bucket = (0..load(cur) as usize)
        .map(|b| cur + 8 + 8 * b)
        .find(|&at| {
            let first = addr_of(load(at));
            first != 0 && addr_of(load(first + NEXT_OFF)) != 0
        })
        .expect("a bucket with two nodes");
    let first = addr_of(load(bucket));
    let second = addr_of(load(first + NEXT_OFF));
    forge_link(pool, second + NEXT_OFF, first);
    bucket
}

#[test]
fn bucket_cycle_is_refused_not_walked_forever() {
    let pool = crashsim_pool();
    let bucket = {
        let _domain = grown_table(&pool, 300);
        forge_bucket_cycle(&pool, ROOT)
    };
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };

    let domain = NvDomain::attach(Arc::clone(&pool));
    let err = HashTable::restart(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None))
        .expect_err("a looping chain must be refused");
    assert_eq!(err, GeometryError::Cycle { at: bucket });
}

#[test]
fn shard_with_a_bucket_cycle_is_refused_naming_the_shard() {
    let pools: Vec<_> = (0..2).map(|_| crashsim_pool()).collect();
    {
        let mc = ShardedNvMemcached::create(&pools, 64, 100_000, false).unwrap();
        let mut ctx = mc.register();
        for k in 1..=2000 {
            mc.set(&mut ctx, k, k * 7).unwrap();
        }
        forge_bucket_cycle(&pools[1], NVMC_ROOT);
    }
    for pool in &pools {
        // SAFETY: no threads are running.
        unsafe { pool.simulate_crash().unwrap() };
    }
    let err = ShardedNvMemcached::recover(&pools, 100_000)
        .expect_err("a shard whose chain loops must be refused, not served or hung on");
    assert!(
        matches!(
            err,
            nvmemcached::GeometryError::TornTable { shard: 1, error: GeometryError::Cycle { .. } }
        ),
        "got {err:?}"
    );
}

#[test]
fn list_cycle_is_refused_not_walked_forever() {
    let pool = crashsim_pool();
    let head = {
        let domain = NvDomain::create(Arc::clone(&pool));
        let list = LinkedList::create(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None));
        let mut ctx = domain.register();
        for k in 1..=10 {
            list.insert(&mut ctx, k, k).unwrap();
        }
        let mut nodes = Vec::new();
        list.walk(|r| nodes.push(r.addr));
        forge_link(&pool, nodes[1] + NEXT_OFF, nodes[0]);
        pool.start() + ROOT * 8
    };
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };

    let domain = NvDomain::attach(Arc::clone(&pool));
    let err = LinkedList::restart(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None))
        .err()
        .expect("a looping list must be refused");
    assert_eq!(err, GeometryError::Cycle { at: head });
}

#[test]
fn skip_list_level_zero_cycle_is_refused_not_walked_forever() {
    let pool = crashsim_pool();
    {
        let domain = NvDomain::create(Arc::clone(&pool));
        let mut ctx = domain.register();
        let ops = LinkOps::new(Arc::clone(&pool), None);
        let sl = SkipList::create(&domain, &mut ctx, ROOT, ops).unwrap();
        for k in 1..=10 {
            sl.insert(&mut ctx, k, k).unwrap();
        }
        // The walk visits the head, then level 0 in key order.
        let mut nodes = Vec::new();
        sl.walk(|r| nodes.push(r.addr));
        forge_link(&pool, nodes[2] + TOWER_OFF, nodes[1]);
    }
    // SAFETY: no threads are running.
    unsafe { pool.simulate_crash().unwrap() };

    let domain = NvDomain::attach(Arc::clone(&pool));
    let err = SkipList::restart(&domain, ROOT, LinkOps::new(Arc::clone(&pool), None))
        .err()
        .expect("a looping level 0 must be refused");
    assert!(matches!(err, GeometryError::Cycle { .. }), "got {err:?}");
}
