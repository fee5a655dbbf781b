//! The four log-based baselines of the paper's evaluation (§6.2) as
//! crash targets, in fig5's `LogBased` configuration: redo-logged updates
//! and intent-logged memory management ([`MemMode::IntentLog`]). Recovery
//! is the baseline's `restart`.

use std::sync::Arc;

use logbased::{BstTk, LazyHashTable, LazyList, LockSkipList, LogDirectory, RedoLog};
use nvalloc::{MemMode, NvDomain, RecoveryReport, ThreadCtx};
use pmem::PmemPool;

use crate::target::{CrashTarget, CRASHTEST_ROOT, N_BUCKETS};
use crate::trace::TraceOp;

/// Root-directory slot of a baseline's redo-log directory.
pub const LOG_ROOT: usize = 0;

/// Generates one baseline target; `$arg`s follow the root slot in
/// `$structure::create`.
macro_rules! baseline_target {
    ($target:ident, $name:literal, $structure:ident $(, $arg:expr)*) => {
        /// Crash-target wrapper (domain + log directory + baseline).
        pub struct $target {
            domain: Arc<NvDomain>,
            logs: LogDirectory,
            ds: $structure,
        }

        impl CrashTarget for $target {
            const NAME: &'static str = $name;
            type Ctx = (ThreadCtx, RedoLog);

            fn create(pools: &[Arc<PmemPool>], _use_link_cache: bool) -> Self {
                let domain = NvDomain::create(Arc::clone(&pools[0]));
                let logs = LogDirectory::create(&domain, LOG_ROOT).expect("pool sized for logs");
                let mut ctx = domain.register();
                let ds = $structure::create(&domain, &mut ctx, CRASHTEST_ROOT $(, $arg)*)
                    .expect("pool sized for the baseline");
                Self { domain, logs, ds }
            }

            fn register(&self) -> Self::Ctx {
                let mut ctx = self.domain.register();
                ctx.set_mem_mode(MemMode::IntentLog);
                let log = self.logs.open(ctx.tid());
                (ctx, log)
            }

            fn apply(&self, (ctx, log): &mut Self::Ctx, op: TraceOp) {
                match op {
                    TraceOp::Insert(k, v) => {
                        _ = self.ds.insert(ctx, log, k, v).expect("pool sized for trace")
                    }
                    TraceOp::Remove(k) => _ = self.ds.remove(ctx, log, k),
                    TraceOp::Get(k) => _ = self.ds.get(ctx, k),
                }
            }

            fn recover(pools: &[Arc<PmemPool>]) -> Result<(Self, RecoveryReport), String> {
                let domain = NvDomain::attach(Arc::clone(&pools[0]));
                let (ds, logs, report) = $structure::restart(&domain, LOG_ROOT, CRASHTEST_ROOT);
                Ok((Self { domain, logs, ds }, report))
            }

            fn snapshot(&self) -> Vec<(u64, u64)> {
                self.ds.snapshot()
            }

            /// No faults: a baseline has no `walk` for
            /// [`logfree::audit`] to check against the heap, so only the
            /// recovered keys are checked.
            fn audit(&self) -> Vec<String> {
                Vec::new()
            }
        }
    };
}

baseline_target!(LazyListTarget, "LazyList", LazyList);
baseline_target!(LazyHashTarget, "LazyHashTable", LazyHashTable, N_BUCKETS);
baseline_target!(LockSkipTarget, "LockSkipList", LockSkipList);
baseline_target!(BstTkTarget, "BstTk", BstTk);
