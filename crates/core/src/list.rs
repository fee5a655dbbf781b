//! Durable lock-free linked list — Harris's algorithm (DISC 2001) with the
//! paper's link-and-persist durability rules (§3).
//!
//! The list is sorted by key and models a set of `(u64 key, u64 value)`
//! pairs. Its anchor is a single persistent link word (for the standalone
//! [`LinkedList`], a root-directory slot; for the hash table, a bucket
//! word), so the same core — the free functions in this module — backs
//! both structures.
//!
//! # Node layout (one 24-byte slot, eight to three cache lines)
//!
//! ```text
//! +0   key    u64   (immutable after init; recovery reads it, §5.5)
//! +8   value  u64
//! +16  next   u64   address | DELETED | DIRTY marks
//! ```
//!
//! # Durability rules implemented (§3, "Correctness")
//!
//! 1. An update's changes are durable before it returns: every
//!    state-changing CAS goes through [`LinkOps::link_cas`]
//!    (link-and-persist or link cache).
//! 2. Operations make the edges they depend on durable before
//!    deciding/modifying: dirty links encountered at decision points are
//!    helped via [`LinkOps::ensure_durable`], and a dirty link can never
//!    be overwritten because CASes expect the *clean* word.
//! 3. With a link cache, every operation scans its own key — and updates
//!    also their predecessor's key — **before** making changes, so all
//!    prior cached updates it depends on become durable first (§4.2).

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nvalloc::{class_of, slots_in_class, NvDomain, OutOfMemory, ThreadCtx, PAGE_SIZE};
use pmem::Flusher;

use crate::marked::{addr_of, bare, clean, is_deleted, is_dirty, is_tagged, DELETED};
use crate::ops::{CasOutcome, LinkOps};
use crate::walk::Reached;
use crate::{GeometryError, RestartReport};

/// Byte offset of the key field.
pub const KEY_OFF: usize = 0;
/// Byte offset of the value field.
pub const VAL_OFF: usize = 8;
/// Byte offset of the next-link field.
pub const NEXT_OFF: usize = 16;
/// Bytes a list node occupies: exactly one slot of the allocator's
/// smallest class. Two of every eight such slots span two cache lines,
/// so a node is written back with `clwb_range`, never one `clwb`.
pub const NODE_SIZE: usize = 24;

/// Smallest key a caller may use (0 is reserved as "no predecessor").
pub const MIN_KEY: u64 = 1;
/// Largest key a caller may use.
pub const MAX_KEY: u64 = u64::MAX - 1;

#[inline]
pub(crate) fn key_at(ops: &LinkOps, node: usize) -> u64 {
    ops.pool().atomic_u64(node + KEY_OFF).load(Ordering::Acquire)
}

#[inline]
pub(crate) fn value_at(ops: &LinkOps, node: usize) -> u64 {
    ops.pool().atomic_u64(node + VAL_OFF).load(Ordering::Acquire)
}

#[inline]
pub(crate) fn next_addr(node: usize) -> usize {
    node + NEXT_OFF
}

/// What a put may do with its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutMode {
    /// Link the pair only if the key is absent (`insert`).
    IfAbsent,
    /// Link the pair if the key is absent, replace its value if present.
    Upsert,
    /// Replace the value only if the key is present.
    IfPresent,
}

/// Outcome of a put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Put {
    /// The key was absent and is now linked in.
    Inserted,
    /// The key was present; its node was replaced. Carries the old value.
    Replaced(u64),
    /// Nothing changed: the key is present under [`PutMode::IfAbsent`] or
    /// absent under [`PutMode::IfPresent`].
    Unchanged,
    /// The chain's anchor carries the drained sentinel
    /// ([`crate::marked::TAG`]), or the node to replace is claimed by a
    /// drain. Within a hash table the caller re-routes; a table returns it
    /// only for a bucket drained out into other tables
    /// ([`crate::HashTable::drain_out`]), where the key now lives.
    Moved,
}

impl Put {
    /// The value a replacement displaced, if this was one.
    pub fn replaced(self) -> Option<u64> {
        match self {
            Put::Replaced(old) => Some(old),
            _ => None,
        }
    }
}

/// Outcome of a remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Removed {
    /// The key was removed; carries its value.
    Yes(u64),
    /// The key was absent.
    No,
    /// The anchor carries the drained sentinel, or the target node is
    /// claimed by a drain (its `next` word is tagged); see [`Put::Moved`].
    Moved,
}

/// Outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The key is present; carries its value and its node's address.
    Found(u64, usize),
    /// The key is absent from this chain.
    Absent,
    /// The anchor carries the drained sentinel; see [`Put::Moved`].
    Moved,
}

impl Removed {
    /// The removed value, if this was a removal.
    pub fn value(self) -> Option<u64> {
        match self {
            Removed::Yes(v) => Some(v),
            _ => None,
        }
    }
}

impl Lookup {
    /// The value found, if any.
    pub fn value(self) -> Option<u64> {
        match self {
            Lookup::Found(v, _) => Some(v),
            _ => None,
        }
    }
}

/// Outcome of the parse phase: the link to CAS and the candidate node.
pub(crate) struct Found {
    /// Address of the link word whose value is `curr` (or 0).
    pub pred_link: usize,
    /// Key of the predecessor node (None when `pred_link` is the anchor).
    pub pred_key: Option<u64>,
    /// First node with key >= target, or 0.
    pub curr: usize,
    /// `curr`'s key (valid when `curr != 0`).
    pub curr_key: u64,
    /// The anchor carried the drained sentinel, or a drain's claim on a
    /// predecessor blocks the walk; the other fields are meaningless and
    /// the caller must re-route.
    pub migrated: bool,
}

/// Harris search with durable cleanup: finds the first node with
/// key >= `key`, physically unlinking logically deleted nodes on the way
/// (each unlink is itself a durable link update, and the unlinker retires
/// the node). On return, the adjacent edges are durable (§3 rule 2).
pub(crate) fn search(ops: &LinkOps, ctx: &mut ThreadCtx, head_link: usize, key: u64) -> Found {
    'retry: loop {
        let hw = ops.load(head_link);
        if is_tagged(hw) {
            // The chain's anchor carries the migrated sentinel: the bucket
            // was drained into a new array. Help persist the sentinel and
            // bail out — the caller re-routes.
            ops.ensure_durable(head_link, hw, &mut ctx.flusher);
            return Found {
                pred_link: head_link,
                pred_key: None,
                curr: 0,
                curr_key: 0,
                migrated: true,
            };
        }
        let mut pred_link = head_link;
        let mut pred_key: Option<u64> = None;
        let mut curr = addr_of(hw);
        loop {
            if curr == 0 {
                finalize(ops, ctx, pred_link, 0);
                return Found { pred_link, pred_key, curr: 0, curr_key: 0, migrated: false };
            }
            let next_w = ops.load(next_addr(curr));
            if is_deleted(next_w) {
                // curr is logically deleted: complete the removal. The
                // deletion mark we act on must be durable first, and so
                // must the link we are about to modify.
                let next_w = ops.ensure_durable(next_addr(curr), next_w, &mut ctx.flusher);
                let observed = ops.load(pred_link);
                let observed = ops.ensure_durable(pred_link, observed, &mut ctx.flusher);
                if is_tagged(observed) {
                    // Claimed by a drain: only its detach can drop `curr`.
                    return Found { pred_link, pred_key, curr: 0, curr_key: 0, migrated: true };
                }
                if bare(observed) != curr as u64 || is_deleted(observed) {
                    continue 'retry;
                }
                match ops.link_cas(
                    key_at(ops, curr),
                    pred_link,
                    curr as u64,
                    bare(next_w),
                    &mut ctx.flusher,
                ) {
                    CasOutcome::Ok => {
                        ctx.retire(curr);
                        curr = addr_of(next_w);
                        continue;
                    }
                    CasOutcome::Retry => continue 'retry,
                }
            }
            let ck = key_at(ops, curr);
            if ck >= key {
                finalize(ops, ctx, pred_link, curr);
                return Found { pred_link, pred_key, curr, curr_key: ck, migrated: false };
            }
            pred_link = next_addr(curr);
            pred_key = Some(ck);
            curr = addr_of(next_w);
        }
    }
}

/// Makes the edges adjacent to the parse result durable (§3 rule 2).
fn finalize(ops: &LinkOps, ctx: &mut ThreadCtx, pred_link: usize, curr: usize) {
    if !ops.durable() {
        return;
    }
    let w = ops.load(pred_link);
    ops.ensure_durable(pred_link, w, &mut ctx.flusher);
    if curr != 0 {
        let w = ops.load(next_addr(curr));
        ops.ensure_durable(next_addr(curr), w, &mut ctx.flusher);
    }
}

/// Physical unlink of the logically deleted `node` (key `key`): swings
/// `pred_link` from it to `to`. On failure a search (ours or anyone's)
/// completes the unlink — the successful unlinker retires.
fn unlink(
    ops: &LinkOps,
    ctx: &mut ThreadCtx,
    head_link: usize,
    key: u64,
    pred_link: usize,
    node: usize,
    to: u64,
) {
    match ops.link_cas(key, pred_link, node as u64, to, &mut ctx.flusher) {
        CasOutcome::Ok => ctx.retire(node),
        CasOutcome::Retry => {
            let _ = search(ops, ctx, head_link, key);
        }
    }
}

/// Allocates a node holding `(key, value)` whose `next` word is `next`.
/// Not durable yet: the caller writes it back and fences before linking
/// it (§5.5).
pub(crate) fn alloc_node(
    ops: &LinkOps,
    ctx: &mut ThreadCtx,
    key: u64,
    value: u64,
    next: u64,
) -> Result<usize, OutOfMemory> {
    let node = ctx.alloc(NODE_SIZE)?;
    let pool = ops.pool();
    pool.atomic_u64(node + KEY_OFF).store(key, Ordering::Relaxed);
    pool.atomic_u64(node + VAL_OFF).store(value, Ordering::Relaxed);
    pool.atomic_u64(node + NEXT_OFF).store(next, Ordering::Release);
    Ok(node)
}

/// [`alloc_node`], then makes the node's contents and the allocator
/// metadata durable before it can become reachable (§5.5). `persist` is
/// false only under the crashtest mutation switch.
fn new_node(
    ops: &LinkOps,
    ctx: &mut ThreadCtx,
    key: u64,
    value: u64,
    next: u64,
    persist: bool,
) -> Result<usize, OutOfMemory> {
    let node = alloc_node(ops, ctx, key, value, next)?;
    if persist {
        ops.persist_node(node, NODE_SIZE, &mut ctx.flusher);
        ops.pre_link_fence(&mut ctx.flusher);
    }
    Ok(node)
}

/// Core insert / upsert / replace into the list anchored at `head_link`,
/// one search per attempt.
///
/// A **replacement** never unlinks before it links. The new node `N` is
/// created with `next` = the old node `O`'s successor, and one
/// `link_cas` on `O`'s own `next` word takes it from `succ` to
/// `N | DELETED`. That word is at once Harris's logical delete of `O` and
/// the link that makes `N` reachable, so at every instant — and in every
/// crash image — the key holds the old value or the new one, never
/// neither. The physical unlink `pred: O → N` follows; any [`search`]
/// completes it, [`recover_chain`] rolls it forward, and whoever unlinks
/// retires `O`. The CAS expects `O`'s clean, undeleted, untagged word: a
/// racing remover or replacer makes it retry, a bucket migrator's claim
/// ([`crate::marked::TAG`]) makes it re-route like [`remove`].
///
/// `guard` runs after an *absence* decision and before the node is
/// linked. The hash table passes a geometry re-check: an absence observed
/// in a chain is only actionable while that chain is still where the key
/// routes (a concurrent resize may have moved the key to another array
/// after the search walked past its gap). A `false` guard aborts with
/// [`Put::Moved`] without allocating. A replacement needs no guard:
/// its CAS succeeds only on a node no migrator has claimed, which is
/// still the key's one authoritative copy.
pub(crate) fn put(
    ops: &LinkOps,
    ctx: &mut ThreadCtx,
    head_link: usize,
    key: u64,
    value: u64,
    mode: PutMode,
    mut guard: impl FnMut(&mut Flusher) -> bool,
) -> Result<Put, OutOfMemory> {
    debug_assert!((MIN_KEY..=MAX_KEY).contains(&key), "key out of range");
    loop {
        let f = search(ops, ctx, head_link, key);
        if f.migrated {
            return Ok(Put::Moved);
        }
        // Durable-dependency scans (§4.2): the decision depends on the
        // state around `key` and the link being modified belongs to the
        // predecessor. Done before our own update so it stays cached.
        ops.scan(key, &mut ctx.flusher);
        let present = f.curr != 0 && f.curr_key == key;
        let allowed = match mode {
            PutMode::IfAbsent => !present,
            PutMode::Upsert => true,
            PutMode::IfPresent => present,
        };
        if !allowed {
            return Ok(Put::Unchanged);
        }
        if let Some(pk) = f.pred_key {
            ops.scan(pk, &mut ctx.flusher);
        }
        if !present {
            if !guard(&mut ctx.flusher) {
                return Ok(Put::Moved);
            }
            let node = new_node(ops, ctx, key, value, f.curr as u64, true)?;
            match ops.link_cas(key, f.pred_link, f.curr as u64, node as u64, &mut ctx.flusher) {
                CasOutcome::Ok => return Ok(Put::Inserted),
                CasOutcome::Retry => ctx.dealloc_unlinked(node),
            }
            if is_tagged(ops.load(f.pred_link)) {
                // The predecessor is claimed by a drain; re-route.
                return Ok(Put::Moved);
            }
            continue;
        }
        let old = f.curr;
        let next_w = ops.load(next_addr(old));
        let next_w = ops.ensure_durable(next_addr(old), next_w, &mut ctx.flusher);
        if is_deleted(next_w) {
            // A racing remover or replacer won; the next search unlinks
            // the ghost and finds what is there now.
            continue;
        }
        if is_tagged(next_w) {
            // Claimed by a bucket migrator: its copy in the destination
            // array may already exist, so a replacement here would be
            // lost to it. Re-route through the table.
            return Ok(Put::Moved);
        }
        let node = new_node(ops, ctx, key, value, next_w, !ops.omits_replacement_persist())?;
        match ops.link_cas(key, next_addr(old), next_w, node as u64 | DELETED, &mut ctx.flusher) {
            CasOutcome::Retry => ctx.dealloc_unlinked(node),
            CasOutcome::Ok => {
                let old_value = value_at(ops, old);
                unlink(ops, ctx, head_link, key, f.pred_link, old, node as u64);
                return Ok(Put::Replaced(old_value));
            }
        }
    }
}

/// Core remove. With `at`, the key's node is removed only if it is the
/// node at that address (the address test of `contains_node_at`): a
/// caller that read `key` out of a slot never removes a node that took
/// the key's place since.
pub(crate) fn remove(
    ops: &LinkOps,
    ctx: &mut ThreadCtx,
    head_link: usize,
    key: u64,
    at: Option<usize>,
) -> Removed {
    loop {
        let f = search(ops, ctx, head_link, key);
        if f.migrated {
            return Removed::Moved;
        }
        ops.scan(key, &mut ctx.flusher);
        if f.curr == 0 || f.curr_key != key || at.is_some_and(|a| a != f.curr) {
            return Removed::No;
        }
        if let Some(pk) = f.pred_key {
            ops.scan(pk, &mut ctx.flusher);
        }
        let next_w = ops.load(next_addr(f.curr));
        let next_w = ops.ensure_durable(next_addr(f.curr), next_w, &mut ctx.flusher);
        if is_deleted(next_w) {
            // Racing remover won; let the next search clean up, then the
            // key will be gone.
            continue;
        }
        if is_tagged(next_w) {
            // The node is claimed by a bucket migrator: its copy to the
            // destination array may already exist, so deleting it here
            // would resurrect the key. Re-route through the table.
            return Removed::Moved;
        }
        // Logical deletion: the linearization point, made durable by
        // link-and-persist / the link cache.
        match ops.link_cas(key, next_addr(f.curr), next_w, next_w | DELETED, &mut ctx.flusher) {
            CasOutcome::Retry => continue,
            CasOutcome::Ok => {
                let val = value_at(ops, f.curr);
                unlink(ops, ctx, head_link, key, f.pred_link, f.curr, bare(next_w));
                return Removed::Yes(val);
            }
        }
    }
}

/// Core read-only lookup. Does not unlink, but helps persist the edges it
/// depends on and performs the link-cache scan before returning (§4.2).
pub(crate) fn get(ops: &LinkOps, ctx: &mut ThreadCtx, head_link: usize, key: u64) -> Lookup {
    let hw = ops.load(head_link);
    if is_tagged(hw) {
        ops.ensure_durable(head_link, hw, &mut ctx.flusher);
        ops.scan(key, &mut ctx.flusher);
        return Lookup::Moved;
    }
    let mut prev_link = head_link;
    let mut curr = addr_of(hw);
    let mut result = Lookup::Absent;
    while curr != 0 {
        let w = ops.load(next_addr(curr));
        let ck = key_at(ops, curr);
        if ck > key {
            break;
        }
        if ck == key {
            if !is_deleted(w) {
                // Present: its adjacent edges must be durable before we
                // report it (§3 rule 2).
                if ops.durable() {
                    let pw = ops.load(prev_link);
                    ops.ensure_durable(prev_link, pw, &mut ctx.flusher);
                    ops.ensure_durable(next_addr(curr), w, &mut ctx.flusher);
                }
                result = Lookup::Found(value_at(ops, curr), curr);
                break;
            }
            // Marked ghost: the absence we report relies on the deletion
            // mark — make it durable (§3: "durably unreachable").
            ops.ensure_durable(next_addr(curr), w, &mut ctx.flusher);
        }
        prev_link = next_addr(curr);
        curr = addr_of(w);
    }
    ops.scan(key, &mut ctx.flusher);
    result
}

/// The step budget of a recovery walk: as many steps as the heap has
/// slots for list nodes, the smallest nodes there are. A chain of
/// distinct nodes is never longer, and neither is a tree's walk.
#[inline]
pub(crate) fn step_budget(ops: &LinkOps) -> usize {
    const NODE_SLOTS: usize = slots_in_class(class_of(NODE_SIZE));
    let pool = ops.pool();
    (pool.heap_end() - nvalloc::heap::data_start(pool)) / PAGE_SIZE * NODE_SLOTS
}

/// A bounded walk along one chain: the anchor word links the first node,
/// and each node's `next` word at `next_off` links the one after it,
/// read when the walk steps past the node (so a walk follows what the
/// caller wrote there). It takes at most [`step_budget`] steps: a walk
/// that runs out has met a node twice, stops, and [`Chain::end`] reports
/// [`GeometryError::Cycle`].
pub(crate) struct Chain<'a> {
    ops: &'a LinkOps,
    /// The anchor's address, which a cycle reports.
    at: usize,
    next_off: usize,
    /// The raw word, marks included, that linked the current node.
    pub(crate) word: u64,
    /// The current node; 0 before the first step and at the chain's end.
    node: usize,
    left: usize,
}

impl<'a> Chain<'a> {
    /// The chain whose anchor at `at` holds `word`.
    #[inline]
    pub(crate) fn new(ops: &'a LinkOps, at: usize, word: u64, next_off: usize) -> Self {
        Self { ops, at, next_off, word, node: 0, left: step_budget(ops) }
    }

    /// How a finished walk ended: at the chain's end, or
    /// [`GeometryError::Cycle`] if it ran out of steps.
    #[inline]
    pub(crate) fn end(&self) -> Result<(), GeometryError> {
        match self.node {
            0 => Ok(()),
            _ => Err(GeometryError::Cycle { at: self.at }),
        }
    }
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.node != 0 {
            self.word = self.ops.load(self.node + self.next_off);
        }
        self.node = addr_of(self.word);
        if self.node == 0 || self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.node)
    }
}

/// Quiescent post-crash fixup of the chain anchored at `head_link`, whose
/// nodes keep their `next` word at `next_off` (a skip list's level 0
/// too): clears leftover dirty marks and completes the unlink of
/// logically deleted nodes (their slots are then reclaimed by the leak
/// scan). Returns `(dirty_cleared, unlinked, live)`, or
/// [`GeometryError::Cycle`] for a chain that loops.
pub(crate) fn recover_chain(
    ops: &LinkOps,
    head_link: usize,
    next_off: usize,
    flusher: &mut Flusher,
) -> Result<(u64, u64, u64), GeometryError> {
    let pool = ops.pool();
    let (mut dirty_cleared, mut unlinked, mut live) = (0, 0, 0);
    // Clean the anchor itself.
    let hw = ops.load(head_link);
    if is_dirty(hw) {
        pool.atomic_u64(head_link).store(clean(hw), Ordering::Release);
        flusher.clwb(head_link);
        dirty_cleared += 1;
    }
    let mut pred_link = head_link;
    let mut chain = Chain::new(ops, head_link, hw, next_off);
    for curr in chain.by_ref() {
        let mut w = ops.load(curr + next_off);
        if is_dirty(w) {
            w = clean(w);
            pool.atomic_u64(curr + next_off).store(w, Ordering::Release);
            flusher.clwb(curr + next_off);
            dirty_cleared += 1;
        }
        if is_deleted(w) {
            // Complete the durable deletion: bypass the node.
            pool.atomic_u64(pred_link).store(bare(w), Ordering::Release);
            flusher.clwb(pred_link);
            unlinked += 1;
        } else {
            live += 1;
            pred_link = curr + next_off;
        }
    }
    chain.end()?;
    flusher.fence();
    Ok((dirty_cleared, unlinked, live))
}

/// §5.5 first-approach oracle over the chain anchored at `head_link`:
/// whether the node at exactly `addr` is linked there and live. A key
/// search plus address identity. It runs after [`recover_chain`]
/// accepted the chain, so its step budget only backs that up: a walk
/// that spends it reports the node unlinked.
pub(crate) fn chain_contains(ops: &LinkOps, head_link: usize, addr: usize) -> bool {
    let key = key_at(ops, addr);
    for curr in Chain::new(ops, head_link, ops.load(head_link), NEXT_OFF) {
        if curr == addr {
            return !is_deleted(ops.load(next_addr(curr)));
        }
        if key_at(ops, curr) > key {
            return false;
        }
    }
    false
}

/// Quiescent walk of the chain anchored at `head_link`, in chain order
/// (see [`Reached`]): each node's key range starts above its
/// predecessor's. `seen` holds the nodes already visited by this walk,
/// across chains: a node met again is visited again and not followed.
pub(crate) fn walk_chain(
    ops: &LinkOps,
    head_link: usize,
    bucket: (usize, usize),
    seen: &mut HashSet<usize>,
    visit: &mut impl FnMut(Reached),
) {
    let mut chain = Chain::new(ops, head_link, ops.load(head_link), NEXT_OFF);
    let mut min = MIN_KEY;
    while let Some(node) = chain.next() {
        let key = key_at(ops, node);
        let deleted = is_deleted(ops.load(next_addr(node)));
        let (value, link) = (value_at(ops, node), chain.word);
        visit(Reached { addr: node, key, value, link, keys: min..=MAX_KEY, deleted, bucket });
        if !seen.insert(node) {
            return;
        }
        min = key.saturating_add(1);
    }
}

/// The standalone durable linked list. Anchored in a root-directory slot
/// so it can be re-attached after a crash.
pub struct LinkedList {
    ops: LinkOps,
    head_link: usize,
}

impl LinkedList {
    /// Creates an empty list whose anchor is root slot `root_idx`.
    pub fn create(domain: &NvDomain, root_idx: usize, ops: LinkOps) -> Self {
        let pool = domain.pool();
        let mut flusher = pool.flusher();
        let head_link = pool.start() + root_idx * 8;
        pool.atomic_u64(head_link).store(0, Ordering::Release);
        flusher.persist(head_link, 8);
        Self { ops, head_link }
    }

    /// Brings the list at root slot `root_idx` of a crashed image back to
    /// service (§5.5): clears leftover `DIRTY` marks, completes pending
    /// unlinks, then frees every allocated node the chain does not reach,
    /// found by one walk into a set (§5.5's second approach: a search per
    /// slot would make the scan quadratic). A chain that loops is
    /// [`GeometryError::Cycle`], and nothing is freed.
    pub fn restart(
        domain: &Arc<NvDomain>,
        root_idx: usize,
        ops: LinkOps,
    ) -> Result<(Self, RestartReport), GeometryError> {
        let list = Self { ops, head_link: domain.pool().start() + root_idx * 8 };
        let (dirty_cleared, unlinked, live) =
            recover_chain(&list.ops, list.head_link, NEXT_OFF, &mut domain.pool().flusher())?;
        let mut reached = HashSet::new();
        list.walk(|r| {
            if !r.deleted {
                reached.insert(r.addr);
            }
        });
        let heap = domain.recover_leaks(|addr| reached.contains(&addr));
        Ok((list, RestartReport { heap, dirty_cleared, unlinked, live: live as usize }))
    }

    /// The persistence engine (for tests and instrumentation).
    pub fn ops(&self) -> &LinkOps {
        &self.ops
    }

    fn put(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: u64,
        mode: PutMode,
    ) -> Result<Put, OutOfMemory> {
        ctx.begin_op();
        let r = put(&self.ops, ctx, self.head_link, key, value, mode, |_| true);
        ctx.end_op();
        let r = r?;
        assert_ne!(r, Put::Moved, "a standalone list anchor is never migrated");
        Ok(r)
    }

    /// Inserts `key -> value`; returns `Ok(false)` if the key existed.
    pub fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        Ok(self.put(ctx, key, value, PutMode::IfAbsent)? == Put::Inserted)
    }

    /// Stores `key -> value` whether or not the key exists, in one atomic
    /// durable step (see the module's core `put`); returns the value it
    /// replaced, if any.
    pub fn upsert(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, OutOfMemory> {
        Ok(self.put(ctx, key, value, PutMode::Upsert)?.replaced())
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = remove(&self.ops, ctx, self.head_link, key, None);
        ctx.end_op();
        match r {
            Removed::Yes(v) => Some(v),
            Removed::No => None,
            Removed::Moved => unreachable!("a standalone list anchor is never migrated"),
        }
    }

    /// Looks up `key`.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = get(&self.ops, ctx, self.head_link, key);
        ctx.end_op();
        match r {
            Lookup::Found(v, _) => Some(v),
            Lookup::Absent => None,
            Lookup::Moved => unreachable!("a standalone list anchor is never migrated"),
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        self.get(ctx, key).is_some()
    }

    /// Visits every node the list reaches, in key order (see
    /// [`Reached`]; quiescent).
    pub fn walk(&self, mut visit: impl FnMut(Reached)) {
        walk_chain(&self.ops, self.head_link, (0, 1), &mut HashSet::new(), &mut visit);
    }

    /// Quiescent snapshot of live pairs in key order (test support).
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        self.walk(|r| v.extend((!r.deleted).then_some((r.key, r.value))));
        v
    }

    /// Quiescent bulk load of strictly ascending `(key, value)` pairs
    /// into an empty list; one fence at the end makes everything durable.
    /// Used to pre-fill large experiment instances in O(n).
    pub fn bulk_load_sorted(
        &self,
        ctx: &mut ThreadCtx,
        items: &[(u64, u64)],
    ) -> Result<(), OutOfMemory> {
        debug_assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "items must be sorted");
        debug_assert_eq!(self.ops.load(self.head_link), 0, "bulk load requires empty list");
        let pool = self.ops.pool();
        ctx.begin_op();
        let mut prev_link = self.head_link;
        for &(key, value) in items {
            let node = alloc_node(&self.ops, ctx, key, value, 0)?;
            pool.atomic_u64(prev_link).store(node as u64, Ordering::Release);
            ctx.flusher.clwb_range(node, NODE_SIZE);
            ctx.flusher.clwb(prev_link);
            prev_link = node + NEXT_OFF;
        }
        ctx.flusher.fence();
        ctx.end_op();
        Ok(())
    }
}

// SAFETY: all shared state lives in the pool and is accessed atomically;
// the struct itself only holds an address and the (Sync) engine.
unsafe impl Send for LinkedList {}
// SAFETY: see above.
unsafe impl Sync for LinkedList {}
