//! **The traffic engine**: one versioned, dependency-free workload layer
//! driving every harness in the workspace.
//!
//! The paper's evaluation (§6) drives all four durable structures and
//! NV-Memcached with uniform keys only; real cache traffic is heavily
//! skewed, and skew is exactly where per-shard designs and batched
//! flushes are stressed hardest. This crate makes the traffic model a
//! first-class layer instead of ad-hoc per-harness RNG loops:
//!
//! * [`KeyDist`] — uniform, zipfian (Gray et al. approximation with
//!   precomputed zeta), hotspot N%/M%, and latest key distributions,
//!   parseable from the `DIST`/`SKEW` knob strings and stably labeled
//!   for JSON reports.
//! * [`KeySampler`] — a distribution bound to a key range, `Copy`, with
//!   O(1) draws after a one-time O(range) setup.
//! * [`TrafficSpec`] / [`CacheStream`] — memtier-style set/get streams
//!   (the cache layer's workload; `nvmemcached::memtier` re-exports
//!   [`TrafficSpec`] as `Workload`).
//! * [`MixSpec`] / [`MixStream`] — insert/remove/lookup streams (the
//!   set-structure layer's workload, `bench::run_mixed`).
//! * [`Xorshift`] — the single RNG under all of it, with Lemire's
//!   multiply-shift rejection for bias-free bounded draws.
//! * [`FreqCheck`] — a statistical self-check: observed per-bucket
//!   frequency vectors vs closed-form expectations, with a chi-square
//!   distance.
//!
//! Every stream is a pure function of `(spec, thread, index)`: no global
//! state, no wall clock, so any recorded run replays exactly from its
//! knob values. See BENCHMARKS.md ("Workload model") for the knob
//! strings and DESIGN.md for where the layer sits in the crate DAG.

#![warn(missing_docs)]

mod check;
mod dist;
mod rng;
mod stream;

pub use check::{chi_square, FreqCheck};
pub use dist::{bucket_of, KeyDist, KeySampler};
pub use rng::Xorshift;
pub use stream::{
    CacheOp, CacheStream, MixOp, MixSpec, MixStream, TrafficSpec, PAPER_SET_FRACTION,
};
