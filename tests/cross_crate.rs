//! Cross-crate integration tests: two structures side by side,
//! concurrent torture with a mid-run crash image, and whole-stack
//! recovery. The tortures run on `crashtest::run_torture`, which checks
//! every key each worker touched against its full history.

use std::collections::BTreeMap;
use std::sync::Arc;

use crashtest::{run_torture, seed_from_env, HashTarget, SkipTarget, TortureConfig};
use nvram_logfree::prelude::*;
use rand::prelude::*;

fn crash_pool(mb: usize) -> Arc<PmemPool> {
    PoolBuilder::new(mb << 20).mode(Mode::CrashSim).build()
}

#[test]
fn two_structures_recover_together_from_their_own_pools() {
    // A domain holds one structure: its restart frees whatever that
    // structure does not reach.
    let (ht_pool, ll_pool) = (crash_pool(32), crash_pool(32));
    let ht_domain = NvDomain::create(Arc::clone(&ht_pool));
    let ll_domain = NvDomain::create(Arc::clone(&ll_pool));
    let ht =
        HashTable::create(&ht_domain, 1, 64, LinkOps::new(Arc::clone(&ht_pool), None)).unwrap();
    let ll = LinkedList::create(&ll_domain, 1, LinkOps::new(Arc::clone(&ll_pool), None));
    let (mut ht_ctx, mut ll_ctx) = (ht_domain.register(), ll_domain.register());
    for k in 1..=200u64 {
        ht.insert(&mut ht_ctx, k, k).unwrap();
        ll.insert(&mut ll_ctx, k, k + 1).unwrap();
    }
    for k in (1..=200u64).step_by(2) {
        ht.remove(&mut ht_ctx, k);
        ll.remove(&mut ll_ctx, k);
    }
    drop((ht_ctx, ll_ctx));
    // SAFETY: no threads running.
    unsafe { ht_pool.simulate_crash().unwrap() };
    // SAFETY: no threads running.
    unsafe { ll_pool.simulate_crash().unwrap() };

    let ht_domain = NvDomain::attach(Arc::clone(&ht_pool));
    let ll_domain = NvDomain::attach(Arc::clone(&ll_pool));
    let (ht, _) =
        HashTable::restart(&ht_domain, 1, LinkOps::new(Arc::clone(&ht_pool), None)).unwrap();
    let (ll, _) =
        LinkedList::restart(&ll_domain, 1, LinkOps::new(Arc::clone(&ll_pool), None)).unwrap();
    assert_eq!(ht.audit(&ht_domain, |_| true), Vec::<String>::new());
    assert_eq!(
        nvram_logfree::logfree::audit(&ll_domain, |v| ll.walk(v), |_| true),
        Vec::<String>::new()
    );

    let (mut ht_ctx, mut ll_ctx) = (ht_domain.register(), ll_domain.register());
    for k in 1..=200u64 {
        let expect_present = k % 2 == 0;
        assert_eq!(ht.get(&mut ht_ctx, k).is_some(), expect_present, "ht key {k}");
        assert_eq!(ll.get(&mut ll_ctx, k).is_some(), expect_present, "ll key {k}");
    }
}

/// Six workers of 4 000 updates over 400 private keys each, in a 256 MiB
/// pool, crashed mid-run.
fn cross_crate_torture() -> TortureConfig {
    TortureConfig {
        threads: 6,
        ops_per_thread: 4_000,
        keys_per_thread: 400,
        pool_mb: 256,
        ..TortureConfig::small(seed_from_env())
    }
}

#[test]
fn torture_hash_table() {
    run_torture::<HashTarget>(&cross_crate_torture()).assert_clean();
}

#[test]
fn torture_skip_list() {
    run_torture::<SkipTarget>(&cross_crate_torture()).assert_clean();
}

#[test]
fn repeated_crashes_accumulate_no_corruption() {
    // Crash, recover, keep working, crash again — five times over.
    let pool = crash_pool(64);
    let mut oracle = BTreeMap::new();
    {
        let domain = NvDomain::create(Arc::clone(&pool));
        let _ = HashTable::create(&domain, 1, 256, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..5 {
        let domain = NvDomain::attach(Arc::clone(&pool));
        let (ht, _) =
            HashTable::restart(&domain, 1, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        let mut snap = ht.snapshot();
        snap.sort_unstable();
        assert_eq!(
            snap,
            oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
            "state after crash {round}"
        );
        let mut ctx = domain.register();
        for _ in 0..500 {
            let k = rng.gen_range(1..300u64);
            if rng.gen_bool(0.6) {
                let ours = ht.insert(&mut ctx, k, round).unwrap();
                assert_eq!(ours, !oracle.contains_key(&k));
                if ours {
                    // Set semantics: a failed insert does not overwrite.
                    oracle.insert(k, round);
                }
            } else {
                assert_eq!(ht.remove(&mut ctx, k), oracle.remove(&k));
            }
        }
        drop(ctx);
        // SAFETY: no threads running.
        unsafe { pool.simulate_crash().unwrap() };
    }
}

#[test]
fn link_cache_quiesce_then_crash_loses_nothing() {
    let pool = crash_pool(64);
    let domain = NvDomain::create(Arc::clone(&pool));
    let lc = Arc::new(LinkCache::with_default_size(
        Arc::clone(&pool),
        nvram_logfree::logfree::marked::DIRTY,
    ));
    let ht = HashTable::create(&domain, 1, 256, LinkOps::new(Arc::clone(&pool), Some(lc))).unwrap();
    let mut ctx = domain.register();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(123);
    for _ in 0..3000 {
        let k = rng.gen_range(1..400u64);
        if rng.gen_bool(0.5) {
            ht.insert(&mut ctx, k, k).unwrap();
            oracle.insert(k, k);
        } else {
            ht.remove(&mut ctx, k);
            oracle.remove(&k);
        }
    }
    ht.ops().flush_link_cache(&mut ctx.flusher);
    drop(ctx);
    // SAFETY: no threads running.
    unsafe { pool.simulate_crash().unwrap() };
    let domain = NvDomain::attach(Arc::clone(&pool));
    let (ht, _) = HashTable::restart(&domain, 1, LinkOps::new(Arc::clone(&pool), None)).unwrap();
    let mut snap = ht.snapshot();
    snap.sort_unstable();
    assert_eq!(snap, oracle.into_iter().collect::<Vec<_>>());
}
