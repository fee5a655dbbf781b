//! The operation oracle: what must (and may) survive a crash at event
//! index `k`.
//!
//! The driver records, during the count phase, the event-counter value at
//! every operation boundary (`spans[i]` = events before op `i` started;
//! `spans[n]` = total). A crash at event `k` therefore partitions the
//! trace into
//!
//! * **completed** operations — every op `i` with `spans[i + 1] <= k`
//!   returned before the crash; its effects are durably owed,
//! * at most one **in-flight** operation (single-threaded traces) — the
//!   op `m` with `spans[m] <= k < spans[m + 1]`; it must be *atomic*:
//!   its key is in the pre-state or the post-state, never anything else
//!   (an upsert over a present key is one link update, so there is no
//!   image in which the key is missing),
//! * **unstarted** operations — no trace of them may exist.
//!
//! Two strictness levels:
//!
//! * **Strict** (no link cache): the recovered state must equal the
//!   completed-prefix state exactly, modulo the in-flight key.
//! * **Cache-relaxed** (link cache attached): a completed update whose
//!   link still sits in the volatile link cache is lost by a crash (§4.1
//!   defers its durability to the next dependent operation). Because
//!   every operation scans its own key *before* modifying, at most the
//!   **last** operation per key can be cached — so each key may also
//!   legitimately hold its state from just before that last operation,
//!   and nothing older or foreign.

use std::collections::BTreeMap;

use crate::trace::TraceOp;

/// How the oracle interprets the trace for a given target.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// `Insert` is an upsert (atomically replaces an existing value), as
    /// in `NvMemcached::set`.
    pub upsert: bool,
    /// Cache-relaxed validation (see module docs).
    pub relaxed: bool,
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

/// Applies `op` to `state`, returning `(key, pre_state)` —
/// the model of a *completed* operation.
fn apply_model(state: &mut BTreeMap<u64, u64>, op: &TraceOp, upsert: bool) -> (u64, Option<u64>) {
    match *op {
        TraceOp::Insert(k, v) => {
            let pre = state.get(&k).copied();
            if upsert || pre.is_none() {
                state.insert(k, v);
            }
            (k, pre)
        }
        TraceOp::Remove(k) => (k, state.remove(&k)),
        TraceOp::Get(k) => (k, state.get(&k).copied()),
    }
}

/// The states the in-flight operation's key may legitimately hold.
fn in_flight_allowed(op: &TraceOp, pre: Option<u64>, upsert: bool) -> Vec<Option<u64>> {
    match *op {
        TraceOp::Insert(_, v) => {
            if pre.is_some() && !upsert {
                vec![pre] // failed insert: no change permitted
            } else {
                vec![pre, Some(v)]
            }
        }
        TraceOp::Remove(_) => {
            if pre.is_some() {
                vec![pre, None]
            } else {
                vec![pre]
            }
        }
        TraceOp::Get(_) => vec![pre],
    }
}

/// Validates the recovered key/value map against the oracle for a crash
/// at event `k`. Returns every violation found (empty = consistent).
pub fn validate(
    ops: &[TraceOp],
    spans: &[u64],
    k: u64,
    recovered: &BTreeMap<u64, u64>,
    cfg: OracleConfig,
) -> Vec<Violation> {
    assert_eq!(spans.len(), ops.len() + 1, "one span boundary per op plus the total");
    let completed = (0..ops.len()).take_while(|&i| spans[i + 1] <= k).count();

    let mut state: BTreeMap<u64, u64> = BTreeMap::new();
    // Cache-relaxed: per key, the set of additionally tolerated states
    // (the pre-state of the last completed op on that key).
    let mut relaxed_extra: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    for op in &ops[..completed] {
        let (key, pre) = apply_model(&mut state, op, cfg.upsert);
        if cfg.relaxed {
            // Each op scans its key before modifying, so every *earlier*
            // update to this key is durable; only this op's own update
            // (if any) may still be cached — tolerate its pre-state.
            let post = state.get(&key).copied();
            if post != pre {
                relaxed_extra.insert(key, pre);
            } else {
                relaxed_extra.remove(&key);
            }
        }
    }

    let in_flight = (completed < ops.len() && spans[completed] <= k).then(|| &ops[completed]);

    // Per-key allowed states.
    let mut allowed: BTreeMap<u64, Vec<Option<u64>>> = BTreeMap::new();
    let mut note = |key: u64, s: Option<u64>| {
        let v = allowed.entry(key).or_default();
        if !v.contains(&s) {
            v.push(s);
        }
    };
    for op in &ops[..completed] {
        note(op.key(), state.get(&op.key()).copied());
    }
    if cfg.relaxed {
        for (&key, &pre) in &relaxed_extra {
            note(key, pre);
        }
    }
    if let Some(op) = in_flight {
        for s in in_flight_allowed(op, state.get(&op.key()).copied(), cfg.upsert) {
            note(op.key(), s);
        }
    }

    // Every key any op touched, plus every recovered key (foreign keys
    // must be flagged as corruption).
    let mut keys: Vec<u64> =
        ops.iter().map(|op| op.key()).chain(recovered.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();

    let mut violations = Vec::new();
    for key in keys {
        let got = recovered.get(&key).copied();
        let accept = allowed.get(&key).cloned().unwrap_or_else(|| vec![None]);
        if !accept.contains(&got) {
            violations.push(Violation {
                seed: 0,
                crash_point: k,
                key,
                got,
                allowed: accept,
                detail: format!(
                    "{} ops completed before the crash{}",
                    completed,
                    if in_flight.is_some() { ", one in flight" } else { "" }
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp::*;

    fn strict() -> OracleConfig {
        OracleConfig { upsert: false, relaxed: false }
    }

    #[test]
    fn completed_prefix_must_match_exactly() {
        let ops = [Insert(1, 10), Insert(2, 20), Remove(1)];
        let spans = [0, 4, 8, 12];
        // Crash after everything: {2: 20} is the only valid state.
        let good: BTreeMap<u64, u64> = [(2, 20)].into();
        assert!(validate(&ops, &spans, 12, &good, strict()).is_empty());
        // A lost completed insert is a violation.
        let bad: BTreeMap<u64, u64> = BTreeMap::new();
        assert!(!validate(&ops, &spans, 12, &bad, strict()).is_empty());
        // A completed remove resurfacing is a violation.
        let bad: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into();
        assert!(!validate(&ops, &spans, 12, &bad, strict()).is_empty());
    }

    #[test]
    fn in_flight_op_is_atomic() {
        let ops = [Insert(1, 10), Insert(2, 20)];
        let spans = [0, 4, 9];
        // Crash mid-insert of key 2: present or absent both fine...
        let pre: BTreeMap<u64, u64> = [(1, 10)].into();
        let post: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into();
        assert!(validate(&ops, &spans, 6, &pre, strict()).is_empty());
        assert!(validate(&ops, &spans, 6, &post, strict()).is_empty());
        // ...a corrupt value is not.
        let corrupt: BTreeMap<u64, u64> = [(1, 10), (2, 999)].into();
        assert!(!validate(&ops, &spans, 6, &corrupt, strict()).is_empty());
        // ...and losing the *completed* key 1 is not.
        let lost: BTreeMap<u64, u64> = [(2, 20)].into();
        assert!(!validate(&ops, &spans, 6, &lost, strict()).is_empty());
    }

    #[test]
    fn foreign_keys_are_corruption() {
        let ops = [Insert(1, 10)];
        let spans = [0, 4];
        let bad: BTreeMap<u64, u64> = [(1, 10), (77, 1)].into();
        let v = validate(&ops, &spans, 4, &bad, strict());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].key, 77);
    }

    #[test]
    fn relaxed_tolerates_only_the_last_update_per_key() {
        let ops = [Insert(1, 10), Remove(1)];
        let spans = [0, 4, 8];
        let cfg = OracleConfig { upsert: false, relaxed: true };
        // The completed remove may still sit in the link cache: key 1 may
        // survive with its pre-remove value...
        let stale: BTreeMap<u64, u64> = [(1, 10)].into();
        assert!(validate(&ops, &spans, 8, &stale, cfg).is_empty());
        // ...but a never-stored value is still corruption.
        let corrupt: BTreeMap<u64, u64> = [(1, 9)].into();
        assert!(!validate(&ops, &spans, 8, &corrupt, cfg).is_empty());
        // Strict mode rejects the stale survivor.
        assert!(!validate(&ops, &spans, 8, &stale, strict()).is_empty());
    }

    #[test]
    fn upsert_in_flight_never_passes_through_absent() {
        let ops = [Insert(1, 10), Insert(1, 11)];
        let spans = [0, 4, 9];
        let cfg = OracleConfig { upsert: true, relaxed: false };
        for img in [vec![(1u64, 10u64)], vec![(1, 11)]] {
            let m: BTreeMap<u64, u64> = img.into_iter().collect();
            assert!(validate(&ops, &spans, 6, &m, cfg).is_empty(), "{m:?}");
        }
        // The key was stored and never deleted: an image without it is a
        // lost acknowledged write, in flight or not.
        assert!(!validate(&ops, &spans, 6, &BTreeMap::new(), cfg).is_empty());
        // Set semantics would reject the replacement value mid-flight...
        let m: BTreeMap<u64, u64> = [(1, 11)].into();
        assert!(!validate(&ops, &spans, 6, &m, strict()).is_empty());
    }

    #[test]
    fn unstarted_ops_must_leave_no_trace() {
        let ops = [Insert(1, 10), Insert(2, 20)];
        let spans = [0, 4, 9];
        // Crash before op 1 started any event: key 2 must be absent.
        let m: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into();
        assert!(!validate(&ops, &spans, 3, &m, strict()).is_empty());
    }
}
