//! Exhaustive crash-point enumeration at the allocator level: a fixed
//! alloc/retire script runs once to count every persist-relevant event
//! (clwbs, fences), then replays once per event index with a crash there.
//! With no data structure on top, *nothing* is reachable — so recovery
//! must reclaim every durably-allocated slot at every index, proving the
//! APT alone bounds the leak scan (no page with durable bits escapes the
//! scan set).

use std::sync::Arc;

use nvalloc::NvDomain;
use pmem::{CrashPlan, Mode, PmemPool, PoolBuilder};

fn new_pool() -> Arc<PmemPool> {
    PoolBuilder::new(2 << 20).mode(Mode::CrashSim).build()
}

/// A deterministic single-threaded script exercising every allocator
/// transition: page acquisition in two size classes, retires with
/// generation seals, immediate deallocs, and the context drop.
fn run_script(pool: &Arc<PmemPool>, plan: &Arc<CrashPlan>) {
    let domain = NvDomain::create(Arc::clone(pool));
    pool.install_crash_plan(Arc::clone(plan));
    let mut ctx = domain.register();
    let mut live: Vec<usize> = Vec::new();
    for round in 0..4usize {
        ctx.begin_op();
        for i in 0..9usize {
            let size = if (round + i) % 2 == 0 { 64 } else { 256 };
            live.push(ctx.alloc(size).unwrap());
        }
        if round % 2 == 1 {
            for _ in 0..6 {
                let a = live.swap_remove(live.len() / 2);
                ctx.retire(a);
            }
            // Seal explicitly (GENERATION_SIZE is never reached here) so
            // the retired slots are collected, and their frees become
            // crash points, while the script still runs.
            ctx.seal_generation();
        }
        if round == 2 {
            let a = live.pop().unwrap();
            ctx.dealloc_unlinked(a);
        }
        ctx.end_op();
    }
    ctx.drain_all();
    drop(ctx);
    pool.clear_crash_plan();
}

#[test]
fn every_slot_is_reclaimed_after_crash_at_every_event_index() {
    // Phase 1: count.
    let pool = new_pool();
    let count_plan = CrashPlan::new(|_, _| {});
    run_script(&pool, &count_plan);
    let total = count_plan.events();
    assert!(total > 0, "script must generate crash points");

    // Phase 2: crash at every index (plus the post-completion point).
    for k in 0..=total {
        let pool = new_pool();
        let image: Arc<std::sync::Mutex<Option<Vec<u64>>>> = Arc::new(std::sync::Mutex::new(None));
        let plan = CrashPlan::new({
            let pool = Arc::clone(&pool);
            let image = Arc::clone(&image);
            move |i, _| {
                if i == k {
                    *image.lock().unwrap() = Some(pool.capture_crash_image().expect("crash-sim"));
                }
            }
        });
        run_script(&pool, &plan);
        let img = image.lock().unwrap().take();
        if k < total {
            assert!(img.is_some(), "replay diverged from the count phase at index {k}");
        }
        let img = img.unwrap_or_else(|| pool.capture_crash_image().expect("crash-sim"));
        // SAFETY: the script has finished; no other thread uses the pool.
        unsafe { pool.crash_to_image(&img).expect("crash-sim") };

        let domain = NvDomain::attach(Arc::clone(&pool));
        let report = domain.recover_leaks(|_| false);
        let leaked = domain.audit(&Default::default());
        assert_eq!(
            leaked,
            [],
            "crash at event {k}/{total}: slot(s) escaped the bounded leak scan \
             (recovered {} from {} pages)",
            report.leaks_freed,
            report.pages_scanned
        );
    }
}
