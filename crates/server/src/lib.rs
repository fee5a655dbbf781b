//! **NV-Memcached over the wire**: a memcached ASCII-protocol TCP
//! front-end for [`nvmemcached::sharded::ShardedNvMemcached`].
//!
//! Until this crate, the paper's Memcached comparison (§6.5) ran
//! *in-process* — the `nvmemcached::memtier` harness calls the cache as
//! a library, which measures the data structures but not the system: no
//! kernel socket path, no request parsing, no response serialization,
//! and (because the driver is closed-loop) no view of queueing delay at
//! all. This crate supplies the missing front-end; the `benchmark/`
//! package's load generator supplies the missing measurement.
//!
//! Three layers, each testable without the one below:
//!
//! * [`protocol`] — an incremental parser for the memcached ASCII
//!   dialect (pure bytes-in/commands-out; tolerates arbitrary
//!   fragmentation and pipelining).
//! * [`session`] — one connection's command execution against the
//!   shared cache, batching responses per input burst; contexts are
//!   passed in per call, so one worker's context set can serve many
//!   multiplexed sessions.
//! * [`net`] — the TCP server: thread-per-core epoll readiness loops
//!   (over the private raw-syscall `sys` shim) multiplexing non-blocking
//!   connections with write backpressure, and a graceful shutdown
//!   that quiesces every shard pool before handing the cache back.
//!
//! ```no_run
//! use std::sync::Arc;
//! use pmem::{Mode, PoolBuilder};
//! use nvmemcached::sharded::ShardedNvMemcached;
//! use server::Server;
//!
//! let pools: Vec<_> =
//!     (0..4).map(|_| PoolBuilder::new(64 << 20).mode(Mode::CrashSim).build()).collect();
//! let cache = Arc::new(ShardedNvMemcached::create(&pools, 4096, 100_000, true).unwrap());
//! let server = Server::start_local(Arc::clone(&cache)).unwrap();
//! println!("serving on {}", server.local_addr());
//! // ... drive memcached clients at it ...
//! let cache = server.shutdown(); // quiesced: pools are now safe to drop
//! # drop(cache);
//! ```

#![warn(missing_docs)]

pub mod net;
pub mod protocol;
pub mod session;
mod sys;

pub use net::{Server, ServerConfig, ServerStats};
pub use protocol::{Command, Parser};
pub use session::Session;
