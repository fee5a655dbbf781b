//! Marked pointer words.
//!
//! Every link in a log-free structure is a 64-bit word holding a node
//! address plus up to three low-order mark bits (every slab class is a
//! multiple of 8 B and slots start at a line boundary, so nodes sit at
//! 8-byte-aligned addresses and the low 3 bits of a real address are
//! always zero):
//!
//! * [`DELETED`] (bit 0) — the Harris logical-deletion mark on a node's
//!   `next` pointer; in the Natarajan–Mittal BST this is the edge *flag*.
//! * [`DIRTY`] (bit 1) — the link-and-persist mark (§3): the link's new
//!   value may not have reached NVRAM yet. Set atomically together with
//!   the link change; cleared (without needing persistence) once the link
//!   has been written back.
//! * [`TAG`] (bit 2) — the Natarajan–Mittal edge *tag* used during
//!   deletion cleanup. The hash table reuses this bit during an
//!   incremental resize: on a bucket's head word it is the durable
//!   "drained into the new array" sentinel, and on a node's `next` word
//!   it is the bucket drainer's claim — a plain, unpersisted CAS that
//!   freezes the word until the whole chain is detached (see
//!   `core::hash`).

/// Logical-deletion mark (Harris) / edge flag (Natarajan–Mittal).
pub const DELETED: u64 = 1;
/// Link-and-persist "possibly not durable yet" mark (§3).
pub const DIRTY: u64 = 1 << 1;
/// Natarajan–Mittal edge tag; the hash table's drained-bucket sentinel
/// (on a head word) and resize claim (on a node's `next` word).
pub const TAG: u64 = 1 << 2;
/// All mark bits.
pub const MARKS: u64 = DELETED | DIRTY | TAG;
/// Address bits.
pub const ADDR: u64 = !MARKS;

/// Extracts the node address from a link word.
#[inline]
pub fn addr_of(word: u64) -> usize {
    (word & ADDR) as usize
}

/// Whether the link carries the logical-deletion mark / flag.
#[inline]
pub fn is_deleted(word: u64) -> bool {
    word & DELETED != 0
}

/// Whether the link carries the dirty (not-yet-durable) mark.
#[inline]
pub fn is_dirty(word: u64) -> bool {
    word & DIRTY != 0
}

/// Whether the link carries the Natarajan–Mittal tag.
#[inline]
pub fn is_tagged(word: u64) -> bool {
    word & TAG != 0
}

/// The word with the dirty mark removed (the logical value of the link).
#[inline]
pub fn clean(word: u64) -> u64 {
    word & !DIRTY
}

/// The word stripped of all marks (a bare address).
#[inline]
pub fn bare(word: u64) -> u64 {
    word & ADDR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_are_distinct_low_bits() {
        assert_eq!(DELETED & DIRTY, 0);
        assert_eq!(DELETED & TAG, 0);
        assert_eq!(DIRTY & TAG, 0);
        assert_eq!(MARKS, 0b111);
    }

    #[test]
    fn addr_round_trips_through_marks() {
        let a = 0xdead_bee0u64; // 64-aligned-ish (low 3 bits clear)
        assert_eq!(addr_of(a | DELETED | DIRTY | TAG), a as usize);
        assert_eq!(bare(a | MARKS), a);
    }

    #[test]
    fn clean_removes_only_dirty() {
        let w = 0x1000u64 | DELETED | DIRTY;
        assert_eq!(clean(w), 0x1000 | DELETED);
        assert!(is_deleted(clean(w)));
        assert!(!is_dirty(clean(w)));
    }

    #[test]
    fn predicates() {
        assert!(is_deleted(DELETED));
        assert!(is_dirty(DIRTY));
        assert!(is_tagged(TAG));
        assert!(!is_deleted(DIRTY | TAG));
    }
}
