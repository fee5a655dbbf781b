//! **Figure 14 (beyond the paper)**: open-loop request latency over
//! real loopback TCP.
//!
//! Every other throughput row in the registry is closed-loop and
//! in-process: the driver calls the cache as a library and only issues
//! a request after the previous one returns, so server stalls quietly
//! *reduce offered load* instead of showing up as the queueing delay a
//! real client population would experience (coordinated omission).
//! This experiment closes that blind spot: the sharded NV-Memcached is
//! served over the memcached ASCII protocol by `crates/server`, and an
//! open-loop client (`bench::openloop`) drives it at a fixed Poisson
//! offered load, measuring every latency from the request's *scheduled*
//! send time into a log-bucketed histogram.
//!
//! Axes: rows — offered load x connections x shard count over the fixed
//! Figure 11 workload (1:4 set:get, 10k key range); y — achieved
//! requests/s (`median_throughput`) and CO-free latency percentiles
//! (`latency.p50_ns` / `p99_ns` / `p999_ns`). Both sides run
//! event-driven: the server multiplexes the `{4, 16, 64}` (+256 under
//! `FULL=1`) connection sweep over workers = shard count, and the
//! client drives it with at most 4 multiplexed threads. The `LOAD_RPS`
//! and `CONNS` knobs pin a single load / connection count for manual
//! sweeps; `MEASURE_MS` sets the arrival-schedule length.
//!
//! Thin wrapper over [`bench::experiments::fig14_latency`].

fn main() {
    let cfg = bench::RunConfig::from_env();
    let report = bench::experiments::fig14_latency(&cfg);
    print!("{}", bench::report::render_text(&report));
}
