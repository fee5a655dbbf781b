//! One quiescent walk per structure, and the image audit built on it.
//!
//! Every structure's `walk` visits each node its root reaches — both
//! bucket arrays of a table mid-resize, every level of a skip list, every
//! edge of the tree — and hands the visitor a [`Reached`]. `snapshot` is a
//! filter over the walk, and [`audit`] checks the walk against the heap
//! both ways (§5.5): what a root reaches is allocated, and what is
//! allocated is reached.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use nvalloc::NvDomain;

use crate::hash::bucket_index;
use crate::marked::is_dirty;

/// A node a quiescent walk reaches. A walk visits each node once; a node
/// met again (a cycle, or a tail two chains share) is visited again and
/// not followed, so a walk ends on any image and [`audit`] sees the repeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reached {
    /// The node's address.
    pub addr: usize,
    /// Its key (a routing key for a tree's internal node).
    pub key: u64,
    /// Its value.
    pub value: u64,
    /// The raw link word that reached it, marks included.
    pub link: u64,
    /// The keys its path admits: above its predecessor's in a chain,
    /// within its ancestors' routing bounds in a tree.
    pub keys: RangeInclusive<u64>,
    /// Logically deleted: a chain node's own mark, a tree leaf's flagged
    /// edge.
    pub deleted: bool,
    /// The table chain it hangs in: bucket index and that array's bucket
    /// count; `(0, 1)` outside a table.
    pub bucket: (usize, usize),
}

/// Audits a quiescent image of one domain. `walk` visits every node the
/// domain's roots reach, and `home(key)` says whether a key belongs in
/// this domain (a shard's routing). The audit checks:
///
/// 1. every reached node starts an allocated slot, and
/// 2. every allocated slot holds a live reached node
///    ([`NvDomain::audit`]);
/// 3. every node is reached once, within its path's key range, in its
///    home bucket and shard, through a link with no `DIRTY` mark.
///
/// Returns one line per fault, each naming the node or slot.
pub fn audit(
    domain: &NvDomain,
    walk: impl FnOnce(&mut dyn FnMut(Reached)),
    home: impl Fn(u64) -> bool,
) -> Vec<String> {
    let mut faults = Vec::new();
    let mut reached = BTreeMap::new();
    walk(&mut |r: Reached| {
        let mut fault = |what: String| {
            faults.push(format!("node {:#x} (key {}) {what}", r.addr, r.key));
        };
        if reached.insert(r.addr, !r.deleted).is_some() {
            fault("is reached twice: a cycle or a shared tail".into());
        }
        if is_dirty(r.link) {
            fault(format!("is reached through a DIRTY link {:#x}", r.link));
        }
        if !r.keys.contains(&r.key) {
            fault(format!("breaks key order: its path admits {:?}", r.keys));
        }
        let (b, n) = r.bucket;
        if bucket_index(r.key, n) != b {
            fault(format!("sits in bucket {b} of {n}, its home is {}", bucket_index(r.key, n)));
        }
        if !home(r.key) {
            fault("sits outside its home shard".into());
        }
    });
    faults.extend(domain.audit(&reached).iter().map(ToString::to_string));
    faults
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use nvalloc::NvDomain;
    use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};

    use super::*;
    use crate::list::{KEY_OFF, NEXT_OFF};
    use crate::{Bst, HashTable, LinkOps, LinkedList};

    fn domain() -> (Arc<PmemPool>, Arc<NvDomain>) {
        let pool =
            PoolBuilder::new(4 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build();
        let domain = NvDomain::create(Arc::clone(&pool));
        (pool, domain)
    }

    fn mentions(faults: &[String], what: &str) -> bool {
        faults.iter().any(|f| f.contains(what))
    }

    #[test]
    fn a_cycle_ends_the_walk_and_fails_the_audit() {
        let (pool, domain) = domain();
        let list = LinkedList::create(&domain, 1, LinkOps::new(Arc::clone(&pool), None));
        let mut ctx = domain.register();
        for k in 1..=3 {
            list.insert(&mut ctx, k, k).unwrap();
        }
        assert_eq!(audit(&domain, |v| list.walk(v), |_| true), Vec::<String>::new());
        let mut nodes = Vec::new();
        list.walk(|r| nodes.push(r.addr));
        pool.atomic_u64(nodes[2] + NEXT_OFF).store(nodes[0] as u64, Ordering::Release);
        let faults = audit(&domain, |v| list.walk(v), |_| true);
        assert!(mentions(&faults, "is reached twice"), "{faults:?}");
        assert!(mentions(&faults, "breaks key order"), "{faults:?}");
    }

    #[test]
    fn a_key_outside_its_bucket_or_shard_fails_the_audit() {
        let (pool, domain) = domain();
        let ht = HashTable::create(&domain, 1, 16, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        let mut ctx = domain.register();
        ht.insert(&mut ctx, 1, 1).unwrap();
        assert_eq!(ht.audit(&domain, |_| true), Vec::<String>::new());
        let mut node = 0;
        ht.walk(|r| node = r.addr);
        let stray = (2..).find(|&k| bucket_index(k, 16) != bucket_index(1, 16)).unwrap();
        pool.atomic_u64(node + KEY_OFF).store(stray, Ordering::Release);
        let faults = ht.audit(&domain, |k| k != stray);
        assert!(mentions(&faults, "its home is"), "{faults:?}");
        assert!(mentions(&faults, "outside its home shard"), "{faults:?}");
    }

    #[test]
    fn a_leaf_outside_its_routing_bounds_fails_the_audit() {
        let (pool, domain) = domain();
        let mut ctx = domain.register();
        let bst = Bst::create(&domain, &mut ctx, 1, LinkOps::new(Arc::clone(&pool), None)).unwrap();
        for k in 1..=10 {
            bst.insert(&mut ctx, k, k).unwrap();
        }
        assert_eq!(audit(&domain, |v| bst.walk(v), |_| true), Vec::<String>::new());
        // Key 1 is the smallest, so only a leaf holds it; a tree node,
        // like a list node, keeps its key at offset 0.
        let mut leaf = 0;
        bst.walk(|r| {
            if r.key == 1 {
                leaf = r.addr;
            }
        });
        pool.atomic_u64(leaf + KEY_OFF).store(1000, Ordering::Release);
        let faults = audit(&domain, |v| bst.walk(v), |_| true);
        assert!(mentions(&faults, "(key 1000) breaks key order"), "{faults:?}");
    }
}
