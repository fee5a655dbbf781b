//! Simulated byte-addressable non-volatile memory (NVRAM).
//!
//! This crate is the substrate on which the log-free data structures of
//! David et al., *Log-Free Concurrent Data Structures* (USENIX ATC 2018),
//! are built. Real NVRAM with DRAM-like latency (and the `clwb`
//! instruction) was not available to the paper's authors either; they
//! simulate `clwb` by storing normally and then pausing for the projected
//! NVRAM write latency, once per *batch* of write-backs (§6.1). This crate
//! reproduces that methodology and adds a crash-simulation mode used by the
//! durability tests.
//!
//! # Model
//!
//! A [`PmemPool`] is a fixed-size region of memory with a stable base
//! address. Threads write to it with ordinary stores (through raw pointers
//! or the [`pool::PmemPool::atomic_u64`] view). Durability is controlled by
//! a per-thread [`Flusher`]:
//!
//! * [`Flusher::clwb`] schedules a cache-line write-back. Like the hardware
//!   instruction it is *asynchronous*: the line is guaranteed durable only
//!   after a subsequent [`Flusher::fence`].
//! * [`Flusher::fence`] drains all write-backs issued by this thread since
//!   the previous fence. In `Perf` mode this injects one latency pause per
//!   batch — the paper's cost model for batched `clwb`s. In `CrashSim` mode
//!   it also commits the affected lines to a durable *shadow image*.
//!
//! A simulated crash ([`pool::PmemPool::simulate_crash`]) discards every
//! store that was not committed by a fence, by restoring the working memory
//! from the shadow image. This is *stricter* than real hardware: a real
//! cache may evict (and thus persist) a dirty line that was never flushed,
//! whereas the simulator never does. Strictness is the adversarial choice —
//! it makes missing-flush bugs deterministic instead of latent.
//!
//! # Memory footprint
//!
//! Like a DAX mapping, a pool reserves its whole address range when it is
//! created, but a page becomes resident only when it is first written. The
//! shadow image and every captured crash image follow the same rule: they
//! start as zero pages from the allocator's `calloc` path and are written
//! only where the durable image is nonzero or differs. On glibc this holds
//! for pools of 32 MiB or more, which it maps directly; a smaller pool may
//! be memset by `calloc` and is then resident from creation.
//!
//! # Modes
//!
//! * [`Mode::Volatile`] — all durability calls are no-ops (used for the
//!   NVRAM-oblivious baselines of the paper's Figure 7).
//! * [`Mode::Perf`] — latency injection only, no shadow (Figures 5–9, 11).
//! * [`Mode::CrashSim`] — shadow image + line tracking (Figure 10 and all
//!   durability/recovery tests).

pub mod crashpoint;
pub mod flusher;
pub mod latency;
pub mod pool;
pub mod shadow;

pub use crashpoint::{CrashEvent, CrashPlan};
pub use flusher::{FlushStats, Flusher};
pub use latency::{LatencyModel, TechLatency, TABLE1};
pub use pool::{Mode, PmemPool, PoolBuilder};

/// Size of a cache line in bytes. All durability tracking is done at this
/// granularity, matching the granularity of `clwb`.
pub const CACHE_LINE: usize = 64;

/// Number of named persistent roots stored in the pool's root directory.
pub const NUM_ROOTS: usize = 64;

/// Returns the address of the first byte of the cache line containing
/// `addr`.
#[inline]
pub fn line_of(addr: usize) -> usize {
    addr & !(CACHE_LINE - 1)
}

/// Rounds `n` up to the next multiple of `align` (a power of two).
#[inline]
pub fn align_up(n: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (n + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_masks_low_bits() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(130), 128);
    }

    #[test]
    fn align_up_rounds() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 8), 72);
    }
}
