//! Deterministic operation traces.

/// One operation of a trace. `Insert` is an upsert for targets whose
/// natural store operation replaces (`NvMemcached::set`); the oracle
/// accounts for the difference via [`crate::CrashTarget::UPSERT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Insert (or upsert) `key -> value`.
    Insert(u64, u64),
    /// Remove `key`.
    Remove(u64),
    /// Look up `key`.
    Get(u64),
}

impl TraceOp {
    /// The key this operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            TraceOp::Insert(k, _) | TraceOp::Remove(k) | TraceOp::Get(k) => k,
        }
    }
}

/// Operation mix in percent; the remainder up to 100 are lookups.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Percentage of inserts.
    pub insert_pct: u32,
    /// Percentage of removes.
    pub remove_pct: u32,
}

impl Default for OpMix {
    /// 45% insert / 35% remove / 20% get: update-heavy, so most crash
    /// points interrupt a durability obligation.
    fn default() -> Self {
        Self { insert_pct: 45, remove_pct: 35 }
    }
}

#[inline]
pub(crate) fn xorshift(x: &mut u64) -> u64 {
    let mut v = *x;
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    *x = v;
    v
}

/// Generates a deterministic trace of `len` operations over keys
/// `1..=key_range` from `seed`.
pub fn gen_trace(seed: u64, len: usize, key_range: u64, mix: OpMix) -> Vec<TraceOp> {
    assert!(key_range >= 1, "key range must be non-empty");
    assert!(mix.insert_pct + mix.remove_pct <= 100, "op mix over 100%");
    // Scramble so adjacent seeds diverge; xorshift state must be non-zero.
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            let r = xorshift(&mut x) % 100;
            let key = (xorshift(&mut x) % key_range) + 1;
            if r < mix.insert_pct as u64 {
                TraceOp::Insert(key, xorshift(&mut x) & 0xFFFF)
            } else if r < (mix.insert_pct + mix.remove_pct) as u64 {
                TraceOp::Remove(key)
            } else {
                TraceOp::Get(key)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_in_range() {
        let a = gen_trace(42, 200, 16, OpMix::default());
        let b = gen_trace(42, 200, 16, OpMix::default());
        let c = gen_trace(43, 200, 16, OpMix::default());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|op| (1..=16).contains(&op.key())));
    }

    #[test]
    fn mix_is_respected() {
        let t = gen_trace(7, 10_000, 64, OpMix { insert_pct: 100, remove_pct: 0 });
        assert!(t.iter().all(|op| matches!(op, TraceOp::Insert(..))));
        let t = gen_trace(7, 10_000, 64, OpMix { insert_pct: 0, remove_pct: 100 });
        assert!(t.iter().all(|op| matches!(op, TraceOp::Remove(_))));
    }
}
