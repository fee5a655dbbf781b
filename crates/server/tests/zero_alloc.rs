//! A warm session answers a pipelined read of `get` hits without one
//! heap allocation: the parser keeps each `get`'s keys in a buffer it
//! reuses, the session reuses its command batch and output, and the
//! shard routing of the batch prefetch reuses its own buffer.
//!
//! A counting global allocator counts the allocations the test's own
//! thread makes while the flag is up; the harness's other threads are
//! not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nvmemcached::sharded::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PoolBuilder};
use server::Session;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is passed straight to `System`; the counting only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_warm_session_answers_sixteen_pipelined_gets_without_allocating() {
    let pools: Vec<_> = (0..2)
        .map(|_| PoolBuilder::new(16 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build())
        .collect();
    let cache = ShardedNvMemcached::create(&pools, 64, 10_000, true).unwrap();
    let mut ctx = cache.register();
    for k in 1..=16 {
        cache.set(&mut ctx, k, k * 1000).unwrap();
    }
    let read: String = (1..=16).map(|k| format!("get {k}\r\n")).collect();
    let want: String = (1..=16)
        .map(|k| format!("VALUE {k} 0 {}\r\n{}\r\nEND\r\n", (k * 1000).to_string().len(), k * 1000))
        .collect();
    let mut session = Session::new(&cache);
    for _ in 0..3 {
        assert!(session.input(read.as_bytes(), &mut ctx));
        assert_eq!(std::str::from_utf8(session.output()).unwrap(), want);
        session.clear_output();
    }
    let boxed = allocations(|| drop(std::hint::black_box(Box::new(1u64))));
    assert_eq!(boxed, 1, "the counter sees this thread's allocations");
    let n = allocations(|| assert!(session.input(read.as_bytes(), &mut ctx)));
    assert_eq!(std::str::from_utf8(session.output()).unwrap(), want);
    assert_eq!(n, 0, "heap allocations in one warm Session::input of 16 gets");
}
