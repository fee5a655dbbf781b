//! Durable-linearizability torture test, now a thin driver over the
//! `crashtest` subsystem: concurrent updaters on a skip list, a crash
//! plan that fires at a seeded persist-event index mid-run (recording
//! each worker's completed and invoked op counts around one durable-image
//! cut), then recovery and a check of every recovered key against its
//! worker's history: every operation that *completed* before the cut is
//! reflected, the ones in flight landed whole or not at all, and nothing
//! else is there.
//!
//! ```sh
//! cargo run --release --example crash_torture
//! CRASHTEST_SEED=7 cargo run --release --example crash_torture
//! ```

use crashtest::{run_torture, seed_from_env, SkipTarget, TortureConfig};

fn main() {
    let cfg = TortureConfig {
        seed: seed_from_env(),
        threads: 4,
        ops_per_thread: 5_000,
        keys_per_thread: 500,
        pool_mb: 256,
        use_link_cache: false,
    };
    let report = run_torture::<SkipTarget>(&cfg);
    println!(
        "{} threads x {} ops: {} violations (crash at event {:?})",
        cfg.threads,
        cfg.ops_per_thread,
        report.violations.len(),
        report.crash_event,
    );
    report.assert_clean();
    println!("ok: recovered state reflects every completed operation (seed {})", report.seed);
}
