//! Durable-linearizability torture test, now a thin driver over the
//! `crashtest` subsystem: concurrent updaters on a skip list, a crash
//! plan that fires at a seeded persist-event index mid-run (capturing
//! the audit horizon and the durable image in one cut), then recovery
//! and a full audit that every operation which *completed* before the
//! capture is reflected in the recovered structure.
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
    };
    let report = run_torture::<SkipTarget>(&cfg);
    println!(
        "audited {} keys across {} threads: {} violations (crash at event {:?}, \
         {} leaked nodes freed, {} unreachable after recovery)",
        report.audited,
        cfg.threads,
        report.violations,
        report.crash_event,
        report.leaks_freed,
        report.leaked_after_recovery,
    );
    report.assert_clean();
    println!("ok: recovered state reflects every completed operation (seed {})", report.seed);
}
