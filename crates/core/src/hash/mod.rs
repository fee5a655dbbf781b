//! Durable lock-free hash table: one Harris linked list per bucket (§3),
//! exactly as in the paper's evaluation — extended with **non-blocking
//! incremental resize** (the paper sizes its table per experiment; a
//! long-running cache cannot).
//!
//! The module is split in two:
//!
//! * [`table`] — steady-state operations and the resize-aware routing
//!   loop (which array does a key live in right now?),
//! * [`resize`] — the grow/drain/commit state machine and its recovery
//!   roll-forward.
//!
//! # Durable layout
//!
//! The root slot points at a small **header region** of two words:
//!
//! ```text
//! +0   CUR     data address of the current bucket-array region
//! +8   NEW     0 = steady state; == CUR = committed, cleanup pending;
//!              otherwise the in-flight destination array
//! ```
//!
//! Each bucket-array region is self-describing:
//! `[n_buckets: u64][bucket link words ...]`.
//!
//! `CUR` and `NEW` are updated with the link-and-persist discipline
//! (store `value | DIRTY`, write back, fence, clear), each update
//! preceded by a [`pmem::CrashEvent::ResizeState`] crash event so the
//! crashtest subsystem can enumerate a crash at every resize-state
//! transition. Nothing else records a migration's progress: each drained
//! bucket carries its own durable sentinel, so commit and recovery check
//! every bucket instead of trusting a cursor. The helping sweep's cursor
//! is a DRAM word on [`HashTable`] that starts at 0 after a crash.
//!
//! # Resize state machine
//!
//! ```text
//!   steady (CUR=A, NEW=0)
//!      │  grow(): alloc array B, publish NEW←B
//!      ▼
//!   migrating (CUR=A, NEW=B)       every insert/remove drains the
//!      │                           bucket it touches + helps the sweep
//!      │  all A-buckets drained and sentineled
//!      ▼
//!   committed (CUR=B, NEW=B)
//!      │  NEW←0; retire region A under epochs
//!      ▼
//!   steady (CUR=B, NEW=0)
//! ```
//!
//! A bucket is drained whole, under three fences however long its chain
//! is. The drainer **claims** every live node by tagging its `next` word
//! ([`crate::marked::TAG`]) — a claimed node can be neither removed nor
//! replaced — and **copies** each one into its destination chain,
//! insert-if-absent: the copies are written back under one fence, then
//! spliced into the chains with batched link-and-persist under one more.
//! Finally it **detaches** the old chain by swinging the old head to the
//! `TAG` sentinel (one fence), which makes every later list operation on
//! it report "moved" so the caller re-routes. Each bucket is therefore
//! durably in one of three states: old chain only; old chain plus some or
//! all of its copies in the destination (the same keys with the same
//! values); destination only. Recovery simply re-runs the drain, which
//! keeps the copies a crash left and adds the missing ones.
//!
//! # Draining out into other tables
//!
//! The same claim → copy → detach moves a bucket out of the table
//! altogether ([`HashTable::drain_out`]): a live reshard of the sharded
//! cache sends each key to another table, in another pool. The copies are
//! written back and linked under one fence each *per destination pool*,
//! and the detach follows them, so no crash image loses a key. A bucket
//! drained out stays a sentinel for good: [`HashTable::put`],
//! [`HashTable::take`] and [`HashTable::lookup`] report
//! [`Put::Moved`] / [`Removed::Moved`] / [`Lookup::Moved`] there, and the
//! caller goes to the key's new home. A table that has drained out
//! refuses to grow.

pub mod resize;
pub mod table;

pub use crate::list::{Lookup, Put, PutMode, Removed};
pub use table::{GeometryError, HashTable};

/// Byte offset of the CUR header word (see the module docs). Public so
/// crash-recovery fixtures can forge torn header states.
pub const H_CUR: usize = 0;
/// Byte offset of the NEW header word.
pub const H_NEW: usize = 8;
/// Header region payload size.
pub(crate) const HDR_BYTES: usize = 16;

/// Bucket index of `key` in an array of `n` buckets (power of two): the
/// low bits of murmur3's `fmix64` finalizer.
///
/// Every output bit depends on every key bit, so N dense integer keys
/// fill `n·(1 − e^(−N/n))` buckets the way random keys do, and a walk is
/// as long as the load factor says.
///
/// Taking the *low* bits gives the prefix property the resize drain
/// relies on: `bucket_index(k, f·n) % n == bucket_index(k, n)`, so old
/// bucket `b`'s keys land in destinations `b + j·n`. The mixer must
/// differ from the shard router's splitmix64: with the same function, a
/// 2-shard cache's bucket indices would all share their shard's parity.
#[inline]
pub(crate) fn bucket_index(key: u64, n: usize) -> usize {
    let mut h = key;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h as usize & (n - 1)
}

/// Address of bucket `b`'s link word in the array region at `arr`.
#[inline]
pub(crate) fn bucket_link_at(arr: usize, b: usize) -> usize {
    arr + 8 + b * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// `shard_of(key, n)` of `nvmemcached::sharded`, copied here (that
    /// crate depends on this one): splitmix64's finalizer, mod `n`.
    fn shard_of(key: u64, n: u64) -> u64 {
        let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x % n
    }

    /// Places `keys` into `n` buckets and checks that they occupy as
    /// many buckets as a uniform hash would and that no chain is long.
    fn check_spread(keys: &[u64], n: usize, what: &str) {
        let mut chains = vec![0u32; n];
        for &k in keys {
            chains[bucket_index(k, n)] += 1;
        }
        let load = keys.len() as f64 / n as f64;
        let occupied = chains.iter().filter(|&&c| c > 0).count();
        let expected = n as f64 * (1.0 - (-load).exp());
        assert!(
            occupied as f64 >= 0.95 * expected,
            "{what}: {} keys occupy {occupied} of {n} buckets, uniform fills {expected:.0}",
            keys.len()
        );
        let longest = *chains.iter().max().unwrap();
        assert!(
            f64::from(longest) <= 3.0 * load + 8.0,
            "{what}: longest chain {longest} at load factor {load:.2}"
        );
    }

    #[test]
    fn dense_keys_fill_buckets_like_a_uniform_hash() {
        let dense: Vec<u64> = (1..=500_000).collect();
        // One shard's keys of a 2-shard cache filled with 1..=1 M.
        let shard: Vec<u64> = (1..=1_000_000).filter(|&k| shard_of(k, 2) == 0).collect();
        for n in [1 << 16, 1 << 18] {
            check_spread(&dense, n, "1..=500 000");
            check_spread(&shard, n, "shard 0 of 1..=1 M");
        }
    }

    #[test]
    fn a_larger_array_refines_a_smaller_one() {
        // The resize drain sends old bucket b's keys to b + j·old_n.
        let mut rng = StdRng::seed_from_u64(30);
        for _ in 0..10_000 {
            let key = rng.next_u64();
            for shift in 0..=20 {
                let n = 1usize << shift;
                for f in [2, 4] {
                    assert_eq!(bucket_index(key, f * n) % n, bucket_index(key, n), "key {key:#x}");
                }
            }
        }
    }

    #[test]
    fn bucket_index_is_murmur3_fmix64() {
        // The log-based baseline's `LazyHashTable` copies the mixer and
        // pins the same values, so both tables walk the same chains.
        for (key, h) in [
            (0, 0u64),
            (1, 0xB456_BCFC_34C2_CB2C),
            (42, 0x8108_7960_8E42_59CC),
            (u64::MAX, 0x64B5_720B_4B82_5F21),
        ] {
            assert_eq!(bucket_index(key, 1 << 30), h as usize & ((1 << 30) - 1));
        }
    }
}
