//! One client connection's request/response state machine, decoupled
//! from the transport **and** from thread ownership.
//!
//! A [`Session`] owns a [`Parser`] and a write-batch buffer: the server
//! (or a test) pushes whatever bytes the transport produced through
//! [`Session::input`], and every complete pipelined command in them is
//! executed immediately, its response appended to the batch. The
//! transport then flushes [`Session::output`] — in one write when the
//! client keeps up, in as many partial writes as backpressure dictates
//! when it does not (the consumed prefix is tracked by the caller; see
//! `net.rs`).
//!
//! The session does **not** own a [`ShardedCtx`]: per-shard contexts
//! are a property of the *serving thread*, not the connection, so the
//! event-driven server creates one context set per worker and passes it
//! to every session it multiplexes. The blocking fallback (and the
//! tests) simply register one context per connection and pass that.
//!
//! Because the session is transport-free, the proptest suite can drive
//! it directly: the same byte stream, however fragmented, must produce
//! byte-identical output.

use std::io::Write;
use std::sync::Arc;

use nvmemcached::sharded::{ShardedCtx, ShardedNvMemcached};

use crate::net::ServerStats;
use crate::protocol::{Command, Fatal, Parser};

/// A connection's protocol state bound to the shared cache.
pub struct Session<'a> {
    cache: &'a ShardedNvMemcached,
    parser: Parser,
    out: Vec<u8>,
    open: bool,
    /// Server-wide observability counters surfaced by `stats`; absent
    /// when the session is driven without a server (tests, tools).
    stats: Option<Arc<ServerStats>>,
}

impl<'a> Session<'a> {
    /// Opens a session over `cache`.
    pub fn new(cache: &'a ShardedNvMemcached) -> Self {
        Self { cache, parser: Parser::new(), out: Vec::new(), open: true, stats: None }
    }

    /// Opens a session that reports the server's connection and byte
    /// counters in its `stats` response.
    pub fn with_stats(cache: &'a ShardedNvMemcached, stats: Arc<ServerStats>) -> Self {
        Self { stats: Some(stats), ..Self::new(cache) }
    }

    /// Feeds transport bytes, executing every complete command against
    /// `ctx` and appending the batched responses to [`Session::output`].
    /// Returns `false` once the connection should be closed after
    /// flushing the output (`quit`, or an unrecoverable protocol error).
    pub fn input(&mut self, bytes: &[u8], ctx: &mut ShardedCtx) -> bool {
        if !self.open {
            return false;
        }
        self.parser.feed(bytes);
        loop {
            match self.parser.next_command() {
                Ok(Some(cmd)) => {
                    if !self.exec(cmd, ctx) {
                        self.open = false;
                        break;
                    }
                }
                Ok(None) => break,
                Err(Fatal(line)) => {
                    self.line(line);
                    self.open = false;
                    break;
                }
            }
        }
        self.open
    }

    /// The accumulated response batch. The transport flushes as much as
    /// the socket accepts and reports the consumed prefix back through
    /// [`Session::consume_output`]; tests flush everything and call
    /// [`Session::clear_output`].
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Discards the whole flushed batch.
    pub fn clear_output(&mut self) {
        self.out.clear();
    }

    /// Discards the flushed `n`-byte prefix of the batch, keeping the
    /// unsent remainder for the next writable window (partial-write
    /// backpressure).
    pub fn consume_output(&mut self, n: usize) {
        self.out.drain(..n);
    }

    /// Whether the connection is still open.
    pub fn is_open(&self) -> bool {
        self.open
    }

    fn line(&mut self, s: &str) {
        self.out.extend_from_slice(s.as_bytes());
        self.out.extend_from_slice(b"\r\n");
    }

    /// Executes one command; `false` means close after flushing.
    fn exec(&mut self, cmd: Command, ctx: &mut ShardedCtx) -> bool {
        match cmd {
            Command::Set { key, value, noreply } => {
                let r = self.cache.set(ctx, key, value);
                if !noreply {
                    match r {
                        Ok(()) => self.line("STORED"),
                        Err(_) => self.line("SERVER_ERROR out of memory storing object"),
                    }
                }
            }
            Command::Add { key, value, noreply } => {
                let r = self.cache.add(ctx, key, value);
                if !noreply {
                    match r {
                        Ok(true) => self.line("STORED"),
                        Ok(false) => self.line("NOT_STORED"),
                        Err(_) => self.line("SERVER_ERROR out of memory storing object"),
                    }
                }
            }
            Command::Replace { key, value, noreply } => {
                let r = self.cache.replace(ctx, key, value);
                if !noreply {
                    match r {
                        Ok(true) => self.line("STORED"),
                        Ok(false) => self.line("NOT_STORED"),
                        Err(_) => self.line("SERVER_ERROR out of memory storing object"),
                    }
                }
            }
            Command::Get { keys } => {
                for key in keys {
                    if let Some(value) = self.cache.get(ctx, key) {
                        let data = value.to_string();
                        let _ = write!(self.out, "VALUE {key} 0 {}\r\n{data}\r\n", data.len());
                    }
                }
                self.line("END");
            }
            Command::Delete { key, noreply } => {
                let hit = self.cache.delete(ctx, key).is_some();
                if !noreply {
                    self.line(if hit { "DELETED" } else { "NOT_FOUND" });
                }
            }
            Command::Stats => {
                self.line(&format!("STAT shards {}", self.cache.n_shards()));
                self.line(&format!("STAT curr_items {}", self.cache.len()));
                self.line(&format!("STAT evictions {}", self.cache.evictions()));
                let lc = self.cache.link_cache_stats();
                self.line(&format!("STAT linkcache_adds {}", lc.adds));
                self.line(&format!("STAT linkcache_fallbacks {}", lc.fallbacks));
                self.line(&format!("STAT linkcache_flushes {}", lc.flushes));
                self.line(&format!("STAT linkcache_links_flushed {}", lc.links_flushed));
                if let Some(stats) = self.stats.clone() {
                    self.line(&format!("STAT curr_connections {}", stats.conns()));
                    self.line(&format!("STAT total_connections {}", stats.accepts()));
                    self.line(&format!("STAT bytes_read {}", stats.bytes_read()));
                    self.line(&format!("STAT bytes_written {}", stats.bytes_written()));
                }
                self.line("END");
            }
            Command::StatsReshard => {
                let top = self.cache.topology_stats();
                self.line(&format!("STAT topology_version {}", top.version));
                self.line(&format!("STAT shards {}", top.n_shards));
                match top.reshard {
                    None => self.line("STAT reshard_in_flight 0"),
                    Some(p) => {
                        self.line("STAT reshard_in_flight 1");
                        self.line(&format!("STAT reshard_from {}", p.from));
                        self.line(&format!("STAT reshard_to {}", p.to));
                        self.line(&format!("STAT reshard_cursor {}", p.cursor));
                        self.line(&format!("STAT reshard_target_version {}", p.version));
                    }
                }
                self.line("END");
            }
            Command::Version => {
                self.line(concat!("VERSION nvram-logfree/", env!("CARGO_PKG_VERSION")));
            }
            Command::Quit => return false,
            Command::Bad { line, noreply } => {
                if !noreply {
                    self.line(line);
                }
            }
        }
        true
    }
}
