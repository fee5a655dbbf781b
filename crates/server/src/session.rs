//! One client connection's request/response state machine, decoupled
//! from the transport **and** from thread ownership.
//!
//! A [`Session`] owns a [`Parser`], a command batch and a write-batch
//! buffer: the server (or a test) pushes whatever bytes the transport
//! produced through [`Session::input`], which parses every complete
//! pipelined command in them into the batch, warms the cache lines the
//! batch's keys will walk ([`ShardedNvMemcached::prefetch`]) and then
//! executes the commands in order, each response appended to the
//! output. The transport then flushes [`Session::output`] — in one write
//! when the client keeps up, in as many partial writes as backpressure
//! dictates when it does not (the consumed prefix is tracked by the
//! caller; see `net.rs`).
//!
//! The session does **not** own a [`ShardedCtx`]: per-shard contexts
//! are a property of the *serving thread*, not the connection, so the
//! event-driven server creates one context set per worker and passes it
//! to every session it multiplexes. The tests simply register one
//! context per connection and pass that.
//!
//! Because the session is transport-free, the proptest suite can drive
//! it directly: the same byte stream, however fragmented, must produce
//! byte-identical output.

use std::sync::Arc;

use nvmemcached::sharded::{ShardedCtx, ShardedNvMemcached};

use crate::net::ServerStats;
use crate::protocol::{Command, Fatal, Parser};

/// A connection's protocol state bound to the shared cache.
pub struct Session<'a> {
    cache: &'a ShardedNvMemcached,
    parser: Parser,
    /// The commands of one [`Session::input`], reused across calls.
    batch: Vec<Command>,
    out: Vec<u8>,
    open: bool,
    /// Server-wide observability counters surfaced by `stats`; absent
    /// when the session is driven without a server (tests, tools).
    stats: Option<Arc<ServerStats>>,
}

impl<'a> Session<'a> {
    /// Opens a session over `cache`.
    pub fn new(cache: &'a ShardedNvMemcached) -> Self {
        Self {
            cache,
            parser: Parser::new(),
            batch: Vec::new(),
            out: Vec::new(),
            open: true,
            stats: None,
        }
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
    ///
    /// The commands are parsed first, up to a `quit` or a framing error.
    /// When they name more than one key, their chains are prefetched
    /// together, so the cache misses of a pipelined burst overlap instead
    /// of following one another. Then they run in order; the responses
    /// are the same as if each ran as soon as it was parsed.
    pub fn input(&mut self, bytes: &[u8], ctx: &mut ShardedCtx) -> bool {
        if !self.open {
            return false;
        }
        self.parser.feed(bytes);
        let fatal = loop {
            match self.parser.next_command() {
                Ok(Some(cmd)) => {
                    let quit = matches!(cmd, Command::Quit);
                    self.batch.push(cmd);
                    if quit {
                        break None;
                    }
                }
                Ok(None) => break None,
                Err(Fatal(line)) => break Some(line),
            }
        };
        if self.parser.keys().len() > 1 {
            self.cache.prefetch(ctx, self.parser.keys());
        }
        let mut batch = std::mem::take(&mut self.batch);
        for cmd in batch.drain(..) {
            if !self.exec(cmd, ctx) {
                self.open = false;
                break;
            }
        }
        self.batch = batch;
        if let Some(line) = fatal {
            self.line(line);
            self.open = false;
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
                for i in keys {
                    let key = self.parser.keys()[i];
                    if let Some(value) = self.cache.get(ctx, key) {
                        let (mut buf, mut dbuf) = ([0; 20], [0; 20]);
                        let data = decimal(value, &mut dbuf);
                        self.out.extend_from_slice(b"VALUE ");
                        self.out.extend_from_slice(decimal(key, &mut buf));
                        self.out.extend_from_slice(b" 0 ");
                        self.out.extend_from_slice(decimal(data.len() as u64, &mut buf));
                        self.out.extend_from_slice(b"\r\n");
                        self.out.extend_from_slice(data);
                        self.out.extend_from_slice(b"\r\n");
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
                // Heap pages in use, summed over shards: `bytes /
                // curr_items` is the pool's cost of an item.
                let shards = self.cache.shards();
                let bytes: usize = shards.iter().map(|s| s.heap_bytes()).sum();
                self.line(&format!("STAT bytes {bytes}"));
                self.line(&format!("STAT evictions {}", self.cache.evictions()));
                // Bucket arrays summed over shards, the new array's size
                // while a resize is in flight (as memcached reports it).
                let buckets: usize = shards.iter().map(|s| s.capacity_hint()).sum();
                let expanding = shards.iter().any(|s| s.resize_in_flight());
                self.line(&format!("STAT hash_buckets {buckets}"));
                self.line(&format!("STAT hash_bytes {}", buckets * 8));
                self.line(&format!("STAT hash_is_expanding {}", u8::from(expanding)));
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

/// `n` in decimal, rendered into the tail of `buf` (20 digits hold
/// `u64::MAX`).
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{LatencyModel, Mode, PoolBuilder};

    #[test]
    fn sentinel_key_is_refused_and_the_session_keeps_serving() {
        let pool = PoolBuilder::new(16 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build();
        let cache = ShardedNvMemcached::create(&[pool], 64, 1000, false).unwrap();
        let mut ctx = cache.register();
        let mut session = Session::new(&cache);
        // u64::MAX is the table's tail sentinel; the largest key is one less.
        let input = b"set 18446744073709551615 0 0 1\r\n1\r\nget 18446744073709551615\r\n\
                      set 18446744073709551614 0 0 1\r\n2\r\nget 18446744073709551614\r\n";
        assert!(session.input(input, &mut ctx));
        let bad = "CLIENT_ERROR key must be a decimal u64 in [1, 2^64 - 1)\r\n";
        let served = "STORED\r\nVALUE 18446744073709551614 0 1\r\n2\r\nEND\r\n";
        assert_eq!(std::str::from_utf8(session.output()).unwrap(), format!("{bad}{bad}{served}"));
        assert_eq!(cache.len(), 1);
    }

    fn two_shard_cache() -> ShardedNvMemcached {
        let pools: Vec<_> = (0..2)
            .map(|_| {
                PoolBuilder::new(16 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build()
            })
            .collect();
        ShardedNvMemcached::create(&pools, 64, 1000, true).unwrap()
    }

    #[test]
    fn a_set_after_quit_in_the_same_read_never_reaches_the_cache() {
        let cache = two_shard_cache();
        let mut ctx = cache.register();
        let mut session = Session::new(&cache);
        let input = b"set 1 0 0 1\r\n5\r\nget 1 2\r\nquit\r\nset 2 0 0 1\r\n6\r\nget 2\r\n";
        assert!(!session.input(input, &mut ctx));
        assert_eq!(session.output(), b"STORED\r\nVALUE 1 0 1\r\n5\r\nEND\r\n");
        assert_eq!(cache.get(&mut ctx, 2), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_framing_error_is_answered_after_the_commands_before_it() {
        let cache = two_shard_cache();
        let mut ctx = cache.register();
        let mut session = Session::new(&cache);
        let input = b"set 1 0 0 1\r\n5\r\nget 1 3\r\nset 2 0 0 2\r\n123456\r\nset 3 0 0 1\r\n7\r\n";
        assert!(!session.input(input, &mut ctx));
        let want = "STORED\r\nVALUE 1 0 1\r\n5\r\nEND\r\nCLIENT_ERROR bad data chunk\r\n";
        assert_eq!(std::str::from_utf8(session.output()).unwrap(), want);
        assert!(!session.is_open());
        assert_eq!(cache.len(), 1, "nothing after the error runs");
        session.clear_output();
        assert!(!session.input(b"get 1\r\n", &mut ctx));
        assert!(session.output().is_empty(), "a closed session answers nothing");
    }

    #[test]
    fn a_read_across_both_shards_answers_as_commands_one_at_a_time() {
        let mut commands = Vec::new();
        for k in 1..=40u64 {
            commands.push(format!("set {k} 0 0 {}\r\n{}\r\n", (k * 11).to_string().len(), k * 11));
        }
        commands.push("get 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 99\r\n".into());
        for k in (1..=40u64).step_by(3) {
            commands.push(format!("delete {k}\r\n"));
            commands.push(format!("get {k} {}\r\n", k + 1));
            commands.push(format!("add {k} 0 0 1\r\n{}\r\n", k % 10));
        }
        commands.push("gets 40 39 38 37 36 35 34 33 32 31 30 29 28 27 26 25\r\n".into());
        let whole: String = commands.concat();
        let (batched, single) = (two_shard_cache(), two_shard_cache());
        let shards: std::collections::HashSet<_> = (1..=40).map(|k| batched.shard_of(k)).collect();
        assert_eq!(shards.len(), 2, "the keys span both shards");

        let mut ctx = batched.register();
        let mut session = Session::new(&batched);
        assert!(session.input(whole.as_bytes(), &mut ctx));
        let mut one_ctx = single.register();
        let mut one = Session::new(&single);
        for command in &commands {
            assert!(one.input(command.as_bytes(), &mut one_ctx));
        }
        assert_eq!(session.output(), one.output());
        let mut snap = (batched.snapshot(), single.snapshot());
        snap.0.sort_unstable();
        snap.1.sort_unstable();
        assert_eq!(snap.0, snap.1);
    }

    #[test]
    fn get_replies_match_the_formatted_reply() {
        let pool = PoolBuilder::new(16 << 20).mode(Mode::Perf).latency(LatencyModel::ZERO).build();
        let cache = ShardedNvMemcached::create(&[pool], 64, 1000, false).unwrap();
        let mut ctx = cache.register();
        let mut session = Session::new(&cache);
        let values = [0, 9, u64::MAX].into_iter().chain((0..20).map(|e| 10u64.pow(e)));
        for (key, value) in (1u64..).zip(values) {
            let data = value.to_string();
            let set = format!("set {key} 0 0 {}\r\n{data}\r\nget {key}\r\n", data.len());
            session.clear_output();
            assert!(session.input(set.as_bytes(), &mut ctx));
            let want = format!("STORED\r\nVALUE {key} 0 {}\r\n{data}\r\nEND\r\n", data.len());
            assert_eq!(std::str::from_utf8(session.output()).unwrap(), want, "value {value}");
        }
    }
}
