//! The crash oracle: what each key may hold after a crash.
//!
//! The property is durable linearizability (Izraelevitz, Mendes and
//! Scott, DISC 2016): after a crash, each key holds the state left by
//! some prefix of its history, and that prefix includes every operation
//! that completed before the crash and may include the ones in flight. A
//! map is P-compositional (Horn and Kroening, FORTE 2015), so the check
//! runs one key at a time.
//!
//! A [`History`] is one thread's operations plus two counts taken at the
//! crash cut: `owed`, the ops completed before it, and `started`, the ops
//! invoked by the time it ended. The drivers give every thread a disjoint
//! key range, so each key's history is one thread's and sequential. A
//! recovered key must hold its model state after some prefix `j` of its
//! thread's ops with `lo <= j <= started`:
//!
//! * `lo` is `owed`: every completed update is durably owed;
//! * with a link cache, `lo` is the index of the key's last op before
//!   `owed`. Every op scans its key before modifying it, which flushes the
//!   key's earlier links (§4.1), so only that last op's link may still sit
//!   in the volatile cache;
//! * a key in no history is foreign and must be absent.
//!
//! The one window covers the in-flight op (its pre-state or its
//! post-state, nothing else: an upsert over a present key never passes
//! through absent), ops not yet started (no trace of them) and the link
//! cache's lost last update.

use std::collections::{BTreeMap, BTreeSet};

use crate::trace::TraceOp;

/// One thread's operations and where the crash cut fell in them.
#[derive(Debug, Clone, Copy)]
pub struct History<'a> {
    /// The thread's operations, in program order.
    pub ops: &'a [TraceOp],
    /// Ops completed before the cut: their effects are owed.
    pub owed: usize,
    /// Ops invoked before the cut ended: the rest left no trace.
    pub started: usize,
}

impl<'a> History<'a> {
    /// A single-threaded trace crashed at event `k`. `spans[i]` is the
    /// event count before op `i` and `spans[ops.len()]` the total, so op
    /// `i` completed if `spans[i + 1] <= k` and started if `spans[i] <= k`.
    pub fn cut(ops: &'a [TraceOp], spans: &[u64], k: u64) -> Self {
        assert_eq!(spans.len(), ops.len() + 1, "one span boundary per op plus the total");
        let owed = spans[1..].iter().take_while(|&&s| s <= k).count();
        let started = spans[..ops.len()].iter().take_while(|&&s| s <= k).count();
        Self { ops, owed, started }
    }
}

/// One durability violation found at a crash point.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The `(trace seed, event index)` reproduction pair (the seed is
    /// stamped by the driver).
    pub seed: u64,
    /// Crash point (event index) at which the violation was observed.
    pub crash_point: u64,
    /// Offending key (0 for structural violations such as leaks).
    pub key: u64,
    /// What the recovered structure reported for the key.
    pub got: Option<u64>,
    /// The states the oracle would have accepted.
    pub allowed: Vec<Option<u64>>,
    /// Human-readable context.
    pub detail: String,
}

impl Violation {
    /// A violation of the recovered structure as a whole (a leak, a
    /// refused recovery, a resize left in flight) rather than of one
    /// key's state.
    pub fn structural(crash_point: u64, detail: impl Into<String>) -> Self {
        Self { seed: 0, crash_point, key: 0, got: None, allowed: vec![], detail: detail.into() }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash point (seed={}, event={}) key {}: recovered {:?}, allowed {:?} — {}",
            self.seed, self.crash_point, self.key, self.got, self.allowed, self.detail
        )
    }
}

/// Checks every recovered key against the window of its own history (see
/// module docs). `upsert` makes `Insert` replace a present value. Returns
/// every violation found, with `crash_point` left for the driver to stamp.
pub fn validate(
    histories: &[History<'_>],
    recovered: &BTreeMap<u64, u64>,
    link_cache: bool,
    upsert: bool,
) -> Vec<Violation> {
    // Per key: the history that owns it and the states its window admits
    // so far. The last entry is always the key's current model state.
    let mut windows: BTreeMap<u64, (usize, Vec<Option<u64>>)> = BTreeMap::new();
    for (t, h) in histories.iter().enumerate() {
        for (i, op) in h.ops[..h.started].iter().enumerate() {
            let (owner, window) = windows.entry(op.key()).or_insert_with(|| (t, vec![None]));
            assert_eq!(*owner, t, "key {} appears in two histories", op.key());
            let pre = window[window.len() - 1];
            let post = match *op {
                TraceOp::Insert(_, v) if upsert || pre.is_none() => Some(v),
                TraceOp::Remove(_) => None,
                _ => pre,
            };
            if i < h.owed {
                // Owed: the window restarts after this op, or just before
                // it with a link cache.
                *window = if link_cache { vec![pre] } else { Vec::new() };
            }
            window.push(post);
        }
    }

    let keys: BTreeSet<u64> = windows.keys().chain(recovered.keys()).copied().collect();
    let mut violations = Vec::new();
    for key in keys {
        let got = recovered.get(&key).copied();
        let (allowed, detail) = match windows.get(&key) {
            Some((t, window)) => {
                let h = &histories[*t];
                (
                    window.clone(),
                    format!("history {t}: {} op(s) owed, {} started", h.owed, h.started),
                )
            }
            None => (vec![None], "foreign key: in no history".to_string()),
        };
        if !allowed.contains(&got) {
            violations.push(Violation { seed: 0, crash_point: 0, key, got, allowed, detail });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp::*;

    /// One single-threaded trace crashed at event `k`, without a link
    /// cache.
    fn strict(
        ops: &[TraceOp],
        spans: &[u64],
        k: u64,
        recovered: &BTreeMap<u64, u64>,
        upsert: bool,
    ) -> Vec<Violation> {
        validate(&[History::cut(ops, spans, k)], recovered, false, upsert)
    }

    #[test]
    fn completed_prefix_must_match_exactly() {
        let ops = [Insert(1, 10), Insert(2, 20), Remove(1)];
        let spans = [0, 4, 8, 12];
        // Crash after everything: {2: 20} is the only valid state.
        let good: BTreeMap<u64, u64> = [(2, 20)].into();
        assert!(strict(&ops, &spans, 12, &good, false).is_empty());
        // A lost completed insert is a violation.
        let bad: BTreeMap<u64, u64> = BTreeMap::new();
        assert!(!strict(&ops, &spans, 12, &bad, false).is_empty());
        // A completed remove resurfacing is a violation.
        let bad: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into();
        assert!(!strict(&ops, &spans, 12, &bad, false).is_empty());
    }

    #[test]
    fn in_flight_op_is_atomic() {
        let ops = [Insert(1, 10), Insert(2, 20)];
        let spans = [0, 4, 9];
        // Crash mid-insert of key 2: present or absent both fine...
        let pre: BTreeMap<u64, u64> = [(1, 10)].into();
        let post: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into();
        assert!(strict(&ops, &spans, 6, &pre, false).is_empty());
        assert!(strict(&ops, &spans, 6, &post, false).is_empty());
        // ...a corrupt value is not.
        let corrupt: BTreeMap<u64, u64> = [(1, 10), (2, 999)].into();
        assert!(!strict(&ops, &spans, 6, &corrupt, false).is_empty());
        // ...and losing the *completed* key 1 is not.
        let lost: BTreeMap<u64, u64> = [(2, 20)].into();
        assert!(!strict(&ops, &spans, 6, &lost, false).is_empty());
    }

    #[test]
    fn foreign_keys_are_corruption() {
        let ops = [Insert(1, 10)];
        let spans = [0, 4];
        let bad: BTreeMap<u64, u64> = [(1, 10), (77, 1)].into();
        let v = strict(&ops, &spans, 4, &bad, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].key, 77);
    }

    #[test]
    fn relaxed_tolerates_only_the_last_update_per_key() {
        let ops = [Insert(1, 10), Remove(1)];
        let spans = [0, 4, 8];
        let cached =
            |m: &BTreeMap<u64, u64>| validate(&[History::cut(&ops, &spans, 8)], m, true, false);
        // The completed remove may still sit in the link cache: key 1 may
        // survive with its pre-remove value...
        let stale: BTreeMap<u64, u64> = [(1, 10)].into();
        assert!(cached(&stale).is_empty());
        // ...but a never-stored value is still corruption.
        let corrupt: BTreeMap<u64, u64> = [(1, 9)].into();
        assert!(!cached(&corrupt).is_empty());
        // Without a link cache the stale survivor is rejected.
        assert!(!strict(&ops, &spans, 8, &stale, false).is_empty());
    }

    #[test]
    fn upsert_in_flight_never_passes_through_absent() {
        let ops = [Insert(1, 10), Insert(1, 11)];
        let spans = [0, 4, 9];
        for img in [vec![(1u64, 10u64)], vec![(1, 11)]] {
            let m: BTreeMap<u64, u64> = img.into_iter().collect();
            assert!(strict(&ops, &spans, 6, &m, true).is_empty(), "{m:?}");
        }
        // The key was stored and never deleted: an image without it is a
        // lost acknowledged write, in flight or not.
        assert!(!strict(&ops, &spans, 6, &BTreeMap::new(), true).is_empty());
        // Set semantics would reject the replacement value mid-flight...
        let m: BTreeMap<u64, u64> = [(1, 11)].into();
        assert!(!strict(&ops, &spans, 6, &m, false).is_empty());
    }

    #[test]
    fn unstarted_ops_must_leave_no_trace() {
        let ops = [Insert(1, 10), Insert(2, 20)];
        let spans = [0, 4, 9];
        // Crash before op 1 started any event: key 2 must be absent.
        let m: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into();
        assert!(!strict(&ops, &spans, 3, &m, false).is_empty());
    }

    #[test]
    fn a_key_in_no_history_is_flagged_across_threads() {
        let (a, b) = ([Insert(1, 10)], [Insert(2, 20), Remove(2)]);
        let histories =
            [History { ops: &a, owed: 1, started: 1 }, History { ops: &b, owed: 1, started: 2 }];
        let ok: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into();
        assert!(validate(&histories, &ok, false, false).is_empty());
        // Key 3 belongs to neither thread.
        let bad: BTreeMap<u64, u64> = [(1, 10), (3, 30)].into();
        let v = validate(&histories, &bad, false, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].key, v[0].got), (3, Some(30)));
    }

    #[test]
    fn a_never_written_value_on_a_key_in_flight_is_flagged() {
        // Key 1 is touched again after the owed prefix: its remove is in
        // flight, so the key may be present or absent, but only with the
        // value it was given.
        let ops = [Insert(1, 10), Insert(2, 20), Remove(1)];
        let histories = [History { ops: &ops, owed: 1, started: 3 }];
        for img in [vec![(1u64, 10u64)], vec![(2, 20)], vec![(1, 10), (2, 20)]] {
            let m: BTreeMap<u64, u64> = img.into_iter().collect();
            assert!(validate(&histories, &m, false, false).is_empty(), "{m:?}");
        }
        let bad: BTreeMap<u64, u64> = [(1, 99), (2, 20)].into();
        let v = validate(&histories, &bad, false, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].key, v[0].got), (1, Some(99)));
    }

    #[test]
    fn a_window_admits_exactly_the_states_after_its_prefixes() {
        let ops = [Insert(1, 10), Remove(1), Insert(1, 11)];
        let histories = [History { ops: &ops, owed: 0, started: 3 }];
        for got in [None, Some(10), Some(11)] {
            let m: BTreeMap<u64, u64> = got.map(|v| (1, v)).into_iter().collect();
            assert!(validate(&histories, &m, false, false).is_empty(), "{got:?}");
        }
        let v = validate(&histories, &[(1, 12)].into(), false, false);
        assert_eq!(v.len(), 1, "{v:?}");
        let allowed: BTreeSet<Option<u64>> = v[0].allowed.iter().copied().collect();
        assert_eq!(allowed, [None, Some(10), Some(11)].into());
    }
}
