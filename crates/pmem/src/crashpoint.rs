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
//! and when the counter reaches the plan's target the plan's one-shot
//! hook runs *before the event takes effect*. The hook typically captures
//! the durable image ([`crate::PmemPool::capture_crash_image`]): the image
//! then reflects exactly the events that preceded the crash point, which
//! is what a power failure at that instant would have left behind.
//!
//! Two phases make enumeration possible:
//!
//! 1. **Count**: run an operation trace to completion with a
//!    [`CrashPlan::count_only`] plan; [`CrashPlan::events`] is the total
//!    number of crash points.
//! 2. **Replay**: re-run the trace once per crash point `k` with
//!    [`CrashPlan::fire_at`]`(k, hook)`, then restore the captured image,
//!    recover, and validate against an operation oracle.
//!
//! The hook is installed on the pool ([`crate::PmemPool::install_crash_plan`])
//! and snapshotted by each [`crate::Flusher`] at creation, so the check on
//! the hot path is a single `Option` test — zero-cost for every pool that
//! never installs a plan (i.e. all production and benchmark paths).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// A hash-table resize-in-progress word (new-array publish, commit,
    /// or clear) is about to be durably updated.
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

/// One-shot callback run when the plan's target event is reached.
pub type CrashHook = Box<dyn FnOnce() + Send>;

/// A deterministic crash-point schedule: a global event counter plus an
/// optional target index at which a one-shot hook fires.
///
/// Shared between all flushers of a pool (the counter is atomic, so the
/// multi-threaded quiesce-and-crash mode assigns each event a unique
/// index; in single-threaded mode the sequence is fully deterministic).
pub struct CrashPlan {
    next: AtomicU64,
    target: u64,
    fired: AtomicBool,
    hook: Mutex<Option<CrashHook>>,
    kind_counts: [AtomicU64; N_EVENT_KINDS],
}

impl CrashPlan {
    /// A plan that only counts events (phase 1 of enumeration). Never
    /// fires.
    pub fn count_only() -> Arc<Self> {
        Arc::new(Self {
            next: AtomicU64::new(0),
            target: u64::MAX,
            fired: AtomicBool::new(false),
            hook: Mutex::new(None),
            kind_counts: Default::default(),
        })
    }

    /// A plan that runs `hook` exactly once, immediately *before* event
    /// number `target` (0-based) takes effect.
    pub fn fire_at(target: u64, hook: CrashHook) -> Arc<Self> {
        Arc::new(Self {
            next: AtomicU64::new(0),
            target,
            fired: AtomicBool::new(false),
            hook: Mutex::new(Some(hook)),
            kind_counts: Default::default(),
        })
    }

    /// Records one event; runs the hook if this is the target event.
    ///
    /// Called from the flusher hot path only when a plan is installed.
    pub fn note(&self, kind: CrashEvent) {
        self.kind_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        let idx = self.next.fetch_add(1, Ordering::AcqRel);
        if idx == self.target {
            if let Some(hook) = self.hook.lock().expect("crash-plan hook poisoned").take() {
                hook();
            }
            self.fired.store(true, Ordering::Release);
        }
    }

    /// Total events recorded so far.
    pub fn events(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// The event index this plan fires at (`u64::MAX` for count-only).
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Whether the hook has run.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
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
            .field("target", &self.target)
            .field("fired", &self.fired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_only_never_fires() {
        let plan = CrashPlan::count_only();
        for _ in 0..100 {
            plan.note(CrashEvent::Clwb);
        }
        assert_eq!(plan.events(), 100);
        assert!(!plan.fired());
    }

    #[test]
    fn fires_exactly_once_at_target() {
        use std::sync::atomic::AtomicU32;
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        let plan = CrashPlan::fire_at(
            3,
            Box::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        for i in 0..10 {
            plan.note(CrashEvent::Fence);
            // The hook runs before event 3 "takes effect": after the
            // fourth note the counter reads 4 and the hook has run once.
            if i >= 3 {
                assert!(plan.fired());
            }
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(plan.events(), 10);
    }

    #[test]
    fn kind_counts_tracked() {
        let plan = CrashPlan::count_only();
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
        let plan = CrashPlan::fire_at(500, Box::new(|| {}));
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
        assert!(plan.fired());
    }
}
