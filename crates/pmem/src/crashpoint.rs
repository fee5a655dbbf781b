//! Systematic crash-point injection: the [`CrashPlan`] hook.
//!
//! The shadow-image simulator makes missing-flush bugs deterministic, but
//! on its own it is only exercised at hand-picked moments. A `CrashPlan`
//! turns "crash anywhere" into an *enumerable* test dimension: it is a
//! counter consulted at every persist-relevant event —
//!
//! * [`CrashEvent::Clwb`] — a cache-line write-back is scheduled,
//! * [`CrashEvent::Fence`] — a fence is about to drain its batch,
//! * [`CrashEvent::LinkPublish`] — a state-changing link CAS is about to
//!   be attempted (emitted by the data-structure layer),
//!
//! and the plan's hook runs with each event's index *before the event
//! takes effect*. A hook that captures the durable image
//! ([`crate::PmemPool::capture_crash_image`]) at event `k` sees exactly
//! what a power failure at that instant would have left behind.
//!
//! Only a fence changes the durable image: [`crate::Flusher::fence`]
//! notes its event, handing the hook the lines it is about to commit,
//! and then commits them, and no other path writes the shadow. So every
//! crash point between two fences sees the same image, and the hook
//! knows what each fence changes without looking at the rest of the
//! pool: the batch's lines, whose working-memory content at that moment
//! is what the commit copies (when the hook runs on the only thread that
//! writes the pool). One run of a trace therefore enumerates every crash
//! point: keep a running image, apply each fence's batch to it, and the
//! images plus the op boundaries of that run give the cut and the
//! history at every `k` (the `crashtest` crate's driver). A hook that
//! acts at one `k` only crashes once.
//!
//! The plan is installed on the pool ([`crate::PmemPool::install_crash_plan`])
//! and snapshotted by each [`crate::Flusher`] at creation, so the check on
//! the hot path is a single `Option` test — zero-cost for every pool that
//! never installs a plan (i.e. all production and benchmark paths). A
//! flusher made before a plan was installed, or after it was cleared,
//! commits without noting anything: a hook that keeps a running image
//! must see every flusher of the run made under some plan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kinds of persist-relevant events a [`CrashPlan`] is consulted at.
///
/// The taxonomy matters for coverage, not for the image: the durable
/// image only changes at fences, but the *oracle horizon* (which
/// operations had completed) changes at every event, so crash points
/// between fences still exercise distinct durability obligations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashEvent {
    /// A cache-line write-back was scheduled ([`crate::Flusher::clwb`]).
    Clwb = 0,
    /// A fence is about to drain its outstanding write-backs
    /// ([`crate::Flusher::fence`]). Crashing *at* this event means the
    /// batch never became durable.
    Fence = 1,
    /// A state-changing link CAS (link-and-persist or link-cache publish)
    /// is about to be attempted. Emitted by the data-structure layer via
    /// [`crate::Flusher::note_crash_event`].
    LinkPublish = 2,
    /// A hash-table resize word (new-array publish or commit) is about
    /// to be durably updated.
    /// Emitted by the data-structure layer via
    /// [`crate::Flusher::note_crash_event`]; crashing here exercises
    /// recovery of a half-migrated table.
    ResizeState = 3,
    /// A sharded-cache reshard's commit record (`[OLD][NEW][0][VERSION]`,
    /// written once per reshard) is about to be durably written. Emitted
    /// by the cache layer via [`crate::Flusher::note_crash_event`];
    /// crashing here exercises recovery on either side of the commit.
    ReshardState = 4,
}

/// Number of distinct [`CrashEvent`] kinds.
pub const N_EVENT_KINDS: usize = 5;

/// A plan's hook: `hook(k, kind, lines)` runs before event `k`. For a
/// [`CrashEvent::Fence`], `lines` are the addresses of the cache lines
/// the fence is about to commit to the durable image, ascending and each
/// once (empty for a fence with nothing to commit, and outside
/// [`crate::Mode::CrashSim`]); for every other event they are empty.
/// The addresses are absolute, so a hook shared by several pools can
/// tell which pool a line belongs to ([`crate::PmemPool::contains`]).
pub type Hook = dyn Fn(u64, CrashEvent, &[usize]) + Send + Sync;

/// A deterministic crash-point schedule: a global event counter and a
/// hook that runs before every event with the event's index, its kind
/// and, for a fence, its batch.
///
/// Shared between all flushers of a pool (the counter is atomic, so the
/// multi-threaded quiesce-and-crash mode assigns each event a unique
/// index; in single-threaded mode the sequence is fully deterministic).
/// The hook runs on the thread that emits the event, concurrently with
/// other threads' events.
pub struct CrashPlan {
    next: AtomicU64,
    hook: Box<Hook>,
    kind_counts: [AtomicU64; N_EVENT_KINDS],
}

impl CrashPlan {
    /// A plan that runs `hook(k, kind, lines)` immediately *before*
    /// event number `k` (0-based) takes effect (see [`Hook`]). A plan
    /// that only counts passes a hook that does nothing.
    pub fn new(hook: impl Fn(u64, CrashEvent, &[usize]) + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Self {
            next: AtomicU64::new(0),
            hook: Box::new(hook),
            kind_counts: Default::default(),
        })
    }

    /// Records one event and runs the hook on it, with no lines.
    ///
    /// Called from the flusher hot path only when a plan is installed.
    pub fn note(&self, kind: CrashEvent) {
        self.note_lines(kind, &[]);
    }

    /// Records a fence about to commit `lines` (ascending, each once) and
    /// runs the hook on it.
    pub(crate) fn note_fence(&self, lines: &[usize]) {
        self.note_lines(CrashEvent::Fence, lines);
    }

    fn note_lines(&self, kind: CrashEvent, lines: &[usize]) {
        self.kind_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        let k = self.next.fetch_add(1, Ordering::AcqRel);
        (self.hook)(k, kind, lines);
    }

    /// Total events recorded so far.
    pub fn events(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Events recorded of one kind (taxonomy reporting).
    pub fn kind_count(&self, kind: CrashEvent) -> u64 {
        self.kind_counts[kind as usize].load(Ordering::Relaxed)
    }

    /// Events recorded of every kind, indexed by `CrashEvent as usize`.
    pub fn kind_counts(&self) -> [u64; N_EVENT_KINDS] {
        std::array::from_fn(|i| self.kind_counts[i].load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for CrashPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashPlan")
            .field("events", &self.events())
            .field("kind_counts", &self.kind_counts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn fires_exactly_once_at_target() {
        // A hook that acts at one index only is a one-shot crash (the
        // torture driver's use).
        let seen: Arc<Mutex<Vec<(u64, CrashEvent)>>> = Arc::default();
        let plan = CrashPlan::new({
            let seen = Arc::clone(&seen);
            move |k, kind, _| {
                if k == 3 {
                    seen.lock().unwrap().push((k, kind));
                }
            }
        });
        for i in 0..10 {
            plan.note(if i == 3 { CrashEvent::Fence } else { CrashEvent::Clwb });
            // The hook runs before event 3 "takes effect": after the
            // fourth note the counter reads 4 and the hook has run once.
            assert_eq!(seen.lock().unwrap().len(), usize::from(i >= 3));
        }
        assert_eq!(*seen.lock().unwrap(), [(3, CrashEvent::Fence)]);
        assert_eq!(plan.events(), 10);
    }

    #[test]
    fn kind_counts_tracked() {
        let plan = CrashPlan::new(|_, _, _| {});
        plan.note(CrashEvent::Clwb);
        plan.note(CrashEvent::Clwb);
        plan.note(CrashEvent::Fence);
        plan.note(CrashEvent::LinkPublish);
        plan.note(CrashEvent::ResizeState);
        plan.note(CrashEvent::ResizeState);
        plan.note(CrashEvent::ResizeState);
        plan.note(CrashEvent::ReshardState);
        plan.note(CrashEvent::ReshardState);
        plan.note(CrashEvent::ReshardState);
        plan.note(CrashEvent::ReshardState);
        assert_eq!(plan.kind_count(CrashEvent::Clwb), 2);
        assert_eq!(plan.kind_count(CrashEvent::Fence), 1);
        assert_eq!(plan.kind_count(CrashEvent::LinkPublish), 1);
        assert_eq!(plan.kind_count(CrashEvent::ResizeState), 3);
        assert_eq!(plan.kind_count(CrashEvent::ReshardState), 4);
        assert_eq!(plan.kind_counts(), [2, 1, 1, 3, 4]);
    }

    #[test]
    fn unique_indices_across_threads() {
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let plan = CrashPlan::new({
            let seen = Arc::clone(&seen);
            move |k, _, _| seen.lock().unwrap().push(k)
        });
        std::thread::scope(|s| {
            for _ in 0..4 {
                let plan = Arc::clone(&plan);
                s.spawn(move || {
                    for _ in 0..250 {
                        plan.note(CrashEvent::Clwb);
                    }
                });
            }
        });
        assert_eq!(plan.events(), 1000);
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_unstable();
        assert!(seen.into_iter().eq(0..1000), "every index is handed to the hook once");
    }
}
