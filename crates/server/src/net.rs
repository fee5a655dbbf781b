//! The TCP front-end: a thread-per-core **event-driven readiness loop**
//! multiplexing many non-blocking connections per worker.
//!
//! # Threading model
//!
//! `N` worker threads (default: one per shard — shards are the unit of
//! parallelism everywhere else in the system) each own one
//! `sys::Epoll` instance and serve *many* connections concurrently:
//!
//! * The shared **listener** is registered in every worker's epoll set
//!   (with `EPOLLEXCLUSIVE` where the kernel supports it, so one
//!   connection wakes one worker, not all of them); accepted sockets
//!   are made non-blocking and stay with the accepting worker for
//!   their lifetime — no cross-worker handoff, no shared connection
//!   state.
//! * Each worker registers **one set of per-shard
//!   [`nvalloc::ThreadCtx`]s** ([`ShardedCtx`]) and reuses it for every
//!   session it multiplexes. Contexts scale with *cores*, not
//!   *connections* — 256 connections on a 4-shard server cost 4 worker
//!   context sets, not 256.
//! * The [`Session`] state machine is readiness-agnostic by
//!   construction (responses are a function of the cumulative byte
//!   stream, never the fragmentation), so incremental reads slot in
//!   unchanged. The **write path** has real backpressure: a partial
//!   write parks the unsent output in the session's batch buffer,
//!   arms `EPOLLOUT`, and resumes when the socket drains; a connection
//!   with more than [`HIGH_WATER`] parked bytes stops being *read*
//!   until the client catches up, bounding per-connection memory.
//! * **Shutdown** is a self-pipe wakeup: each worker has the read end
//!   of a `UnixStream` pair in its epoll set and leaves its loop when
//!   that end turns readable. [`Server::shutdown`] drops the write
//!   ends (EOF is readable) and joins; dropping a `Server` without
//!   calling it stops the workers the same way, unjoined.
//!
//! Once every worker has joined, the cache is
//! [quiesced](ShardedNvMemcached::quiesce) — a durability barrier over
//! every shard pool — before the `Arc` is handed back, so a caller
//! that immediately drops (or crash-captures) the pools observes a
//! clean durable image.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use nvmemcached::sharded::{ShardedCtx, ShardedNvMemcached};

use crate::session::Session;
use crate::sys::{self, Epoll, EpollEvent};

/// A connection whose parked (unflushable) output exceeds this stops
/// being read until the client drains it — per-connection memory stays
/// bounded no matter how fast requests are pipelined at a slow reader.
pub const HIGH_WATER: usize = 64 * 1024;

/// Volatile server-wide observability counters, reported over the wire
/// by the `stats` command and readable in-process via
/// [`Server::stats`]. Never persisted; a restart starts from zero.
#[derive(Debug, Default)]
pub struct ServerStats {
    conns: AtomicU64,
    accepts: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl ServerStats {
    /// Connections currently open.
    pub fn conns(&self) -> u64 {
        self.conns.load(Ordering::Relaxed)
    }

    /// Connections accepted over the server's lifetime.
    pub fn accepts(&self) -> u64 {
        self.accepts.load(Ordering::Relaxed)
    }

    /// Request bytes read off sockets.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Response bytes written to sockets.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    fn on_accept(&self) {
        self.accepts.fetch_add(1, Ordering::Relaxed);
        self.conns.fetch_add(1, Ordering::Relaxed);
    }

    fn on_close(&self) {
        self.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Tuning for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an ephemeral port; read the
    /// actual one back from [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Worker threads. `None` pins one worker per shard.
    pub workers: Option<usize>,
    /// Test instrumentation: cap every socket read at this many bytes,
    /// forcing the readiness loop through maximal fragmentation.
    /// `None` in production.
    pub read_cap: Option<usize>,
    /// Test instrumentation: cap every socket write at this many
    /// bytes, forcing partial writes and the `EPOLLOUT` backpressure
    /// path. `None` in production.
    pub write_cap: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: None,
            read_cap: None,
            write_cap: None,
        }
    }
}

/// A running server: join handles plus the shutdown plumbing.
pub struct Server {
    cache: Arc<ShardedNvMemcached>,
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    workers: Vec<JoinHandle<()>>,
    /// Write ends of the workers' self-pipes. Dropping them is the stop
    /// signal: each worker's read end turns readable at EOF.
    wakers: Vec<UnixStream>,
}

impl Server {
    /// Binds and starts serving `cache` with the default config on an
    /// ephemeral loopback port.
    pub fn start_local(cache: Arc<ShardedNvMemcached>) -> std::io::Result<Server> {
        Self::start(cache, ServerConfig::default())
    }

    /// Binds `cfg.addr` and spawns the worker threads.
    pub fn start(cache: Arc<ShardedNvMemcached>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let n_workers = cfg.workers.unwrap_or_else(|| cache.n_shards()).max(1);
        let mut workers = Vec::with_capacity(n_workers);
        let mut wakers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let listener = listener.try_clone()?;
            let cache = Arc::clone(&cache);
            let stats = Arc::clone(&stats);
            // All registration that can fail happens here, so a
            // misconfigured host errors out of `start` instead of
            // dying silently on a worker thread.
            listener.set_nonblocking(true)?;
            let ep = Epoll::create()?;
            let fd = listener.as_raw_fd();
            if ep.add(fd, sys::EPOLLIN | sys::EPOLLEXCLUSIVE, TOKEN_LISTENER).is_err() {
                // Pre-4.5 kernels reject EPOLLEXCLUSIVE; plain
                // level-triggered wakeups merely herd harder.
                ep.add(fd, sys::EPOLLIN, TOKEN_LISTENER)?;
            }
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            ep.add(wake_rx.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;
            wakers.push(wake_tx);
            let caps = (cfg.read_cap, cfg.write_cap);
            workers.push(std::thread::spawn(move || {
                event_worker(ep, listener, wake_rx, &cache, &stats, caps);
            }));
        }
        Ok(Server { cache, addr, stats, workers, wakers })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's volatile observability counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Graceful shutdown: stop accepting, wake and drain the workers,
    /// quiesce the cache (durability barrier over every shard pool),
    /// and hand the cache back for post-shutdown use (snapshotting,
    /// recovery drills, pool teardown).
    pub fn shutdown(mut self) -> Arc<ShardedNvMemcached> {
        self.wakers.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.cache.quiesce();
        Arc::clone(&self.cache)
    }
}

// ---------------------------------------------------------------------------
// Event-driven worker
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// One multiplexed connection: its socket, protocol state, and the
/// epoll interest currently registered for it.
struct Conn<'a> {
    stream: TcpStream,
    session: Session<'a>,
    interest: u32,
}

impl Conn<'_> {
    /// The interest this connection *should* have: readable while the
    /// session is open and the parked output is under the high-water
    /// mark; writable while any output is parked.
    fn wanted_interest(&self) -> u32 {
        let mut want = 0;
        if self.session.is_open() && self.session.output().len() < HIGH_WATER {
            want |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if !self.session.output().is_empty() {
            want |= sys::EPOLLOUT;
        }
        want
    }

    /// Finished: nothing left to flush and the session is closed.
    fn done(&self) -> bool {
        !self.session.is_open() && self.session.output().is_empty()
    }
}

/// The readiness loop: one epoll instance, one `ShardedCtx`, many
/// connections.
fn event_worker(
    ep: Epoll,
    listener: TcpListener,
    // Held, never read: closing it would deregister the stop signal.
    _wake_rx: UnixStream,
    cache: &ShardedNvMemcached,
    stats: &Arc<ServerStats>,
    (read_cap, write_cap): (Option<usize>, Option<usize>),
) {
    let mut ctx = cache.register();
    let mut conns: HashMap<u64, Conn<'_>> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events = [EpollEvent::default(); 64];
    let mut rbuf = [0u8; 16 * 1024];

    let mut stop = false;
    while !stop {
        let Ok(n) = ep.wait(&mut events, -1) else { break };
        for ev in &events[..n] {
            match ev.token() {
                TOKEN_LISTENER => {
                    accept_ready(&ep, &listener, cache, stats, &mut conns, &mut next_token);
                }
                // The write end was dropped (`shutdown`, or the
                // `Server` itself): finish this batch, then leave.
                TOKEN_WAKE => stop = true,
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        // A later event for a connection an earlier
                        // event in this same batch already closed.
                        continue;
                    };
                    let caps = (read_cap, write_cap);
                    if serve_ready(conn, ev.events(), &mut ctx, stats, &mut rbuf, caps) {
                        update_interest(&ep, conn, token);
                    } else if let Some(conn) = conns.remove(&token) {
                        close_conn(conn, &mut ctx, stats);
                    }
                }
            }
        }
    }
    // Graceful exit: one best-effort non-blocking flush per connection,
    // then close. (Dropping the sockets deregisters them from epoll.)
    for (_, mut conn) in conns.drain() {
        let _ = flush_session(&mut conn.stream, &mut conn.session, stats, write_cap);
        close_conn(conn, &mut ctx, stats);
    }
}

/// Accepts every pending connection (the listener is level-triggered
/// and non-blocking: drain until `WouldBlock`).
fn accept_ready<'a>(
    ep: &Epoll,
    listener: &TcpListener,
    cache: &'a ShardedNvMemcached,
    stats: &Arc<ServerStats>,
    conns: &mut HashMap<u64, Conn<'a>>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                let conn = Conn {
                    stream,
                    session: Session::with_stats(cache, Arc::clone(stats)),
                    interest: sys::EPOLLIN | sys::EPOLLRDHUP,
                };
                if ep.add(conn.stream.as_raw_fd(), conn.interest, token).is_ok() {
                    stats.on_accept();
                    conns.insert(token, conn);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Transient accept errors (e.g. the peer reset before the
            // handshake finished) don't take the worker down.
            Err(_) => return,
        }
    }
}

/// Handles one readiness notification for one connection. Returns
/// `false` when the connection must be closed.
fn serve_ready(
    conn: &mut Conn<'_>,
    events: u32,
    ctx: &mut ShardedCtx,
    stats: &ServerStats,
    rbuf: &mut [u8],
    (read_cap, write_cap): (Option<usize>, Option<usize>),
) -> bool {
    if events & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
        return false;
    }
    // Writable first: freeing parked output may re-enable reading.
    if events & sys::EPOLLOUT != 0 || !conn.session.output().is_empty() {
        match flush_session(&mut conn.stream, &mut conn.session, stats, write_cap) {
            Ok(_) => {}
            Err(_) => return false,
        }
    }
    if events & sys::EPOLLIN != 0 && conn.session.is_open() {
        let cap = read_cap.unwrap_or(rbuf.len()).clamp(1, rbuf.len());
        loop {
            match conn.stream.read(&mut rbuf[..cap]) {
                Ok(0) => return false, // EOF: peer closed
                Ok(n) => {
                    stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                    let keep_open = conn.session.input(&rbuf[..n], ctx);
                    // Optimistic flush: most responses fit the socket
                    // buffer and never need EPOLLOUT at all.
                    if flush_session(&mut conn.stream, &mut conn.session, stats, write_cap).is_err()
                    {
                        return false;
                    }
                    // A short read drained the socket: whatever arrives
                    // later is reported again (level-triggered), so
                    // skip the read that would only say `WouldBlock`.
                    if !keep_open || n < cap {
                        break;
                    }
                    // Backpressure: a slow reader pipelining requests
                    // must not grow the parked batch without bound.
                    if conn.session.output().len() >= HIGH_WATER {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
    !conn.done()
}

/// Re-registers the connection when its wanted interest changed (e.g.
/// parked output now needs `EPOLLOUT`, or draining it re-enabled
/// `EPOLLIN`).
fn update_interest(ep: &Epoll, conn: &mut Conn<'_>, token: u64) {
    let want = conn.wanted_interest();
    if want != conn.interest {
        conn.interest = want;
        let _ = ep.modify(conn.stream.as_raw_fd(), want, token);
    }
}

/// Closes a connection: the socket drop deregisters it from epoll; the
/// worker context's per-connection request tallies are published so
/// `shard_requests` stays live while the worker keeps running.
fn close_conn(conn: Conn<'_>, ctx: &mut ShardedCtx, stats: &ServerStats) {
    drop(conn);
    ctx.flush_tallies();
    stats.on_close();
}

/// Flushes as much of the session's parked output as the socket
/// accepts, consuming exactly the written prefix. `Ok(true)` = fully
/// drained, `Ok(false)` = the socket pushed back (arm `EPOLLOUT`).
fn flush_session(
    stream: &mut TcpStream,
    session: &mut Session<'_>,
    stats: &ServerStats,
    write_cap: Option<usize>,
) -> std::io::Result<bool> {
    let mut written = 0;
    let r = flush_pending(stream, session.output(), &mut written, write_cap);
    stats.bytes_written.fetch_add(written as u64, Ordering::Relaxed);
    session.consume_output(written);
    match r {
        Ok(FlushProgress::Done) => Ok(true),
        Ok(FlushProgress::Blocked) => Ok(false),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Short-write-safe flushing
// ---------------------------------------------------------------------------

/// Outcome of [`flush_pending`]: either the buffer fully drained, or
/// the sink pushed back mid-buffer and the caller must retry later
/// from the updated `written` cursor.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FlushProgress {
    /// Everything after the initial cursor was written.
    Done,
    /// The sink returned `WouldBlock`; `written` marks the resume
    /// point. Nothing was lost.
    Blocked,
}

/// Writes `buf[*written..]` to `w`, advancing `written` past every
/// accepted byte. Short writes loop, `Interrupted` retries,
/// `WouldBlock` parks ([`FlushProgress::Blocked`]) — a slow client is
/// never an error and never loses bytes. `cap` (test instrumentation)
/// bounds each individual write call.
pub(crate) fn flush_pending(
    w: &mut impl Write,
    buf: &[u8],
    written: &mut usize,
    cap: Option<usize>,
) -> std::io::Result<FlushProgress> {
    while *written < buf.len() {
        let end = cap.map_or(buf.len(), |c| (*written + c.max(1)).min(buf.len()));
        match w.write(&buf[*written..end]) {
            Ok(0) => return Err(std::io::Error::new(ErrorKind::WriteZero, "socket wrote zero")),
            Ok(n) => *written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(FlushProgress::Blocked),
            Err(e) => return Err(e),
        }
    }
    Ok(FlushProgress::Done)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that accepts at most `cap` bytes per call and returns
    /// `WouldBlock` at scripted points — the slow-client socket in
    /// miniature.
    struct CappedSink {
        accepted: Vec<u8>,
        cap: usize,
        /// After this many successful writes, the next call blocks
        /// once.
        block_after: Option<usize>,
        writes: usize,
    }

    impl Write for CappedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.block_after == Some(self.writes) {
                self.block_after = None;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.writes += 1;
            let n = buf.len().min(self.cap);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_drain_without_losing_bytes() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut sink = CappedSink { accepted: Vec::new(), cap: 7, block_after: None, writes: 0 };
        let mut written = 0;
        let r = flush_pending(&mut sink, &payload, &mut written, None).expect("no error");
        assert_eq!(r, FlushProgress::Done);
        assert_eq!(written, payload.len());
        assert_eq!(sink.accepted, payload, "every byte arrived, in order");
    }

    #[test]
    fn would_block_parks_and_resumes_exactly_where_it_stopped() {
        let payload: Vec<u8> = (0..200u8).collect();
        let mut sink =
            CappedSink { accepted: Vec::new(), cap: 16, block_after: Some(3), writes: 0 };
        let mut written = 0;
        // First attempt: 3 writes of 16 land, then the sink blocks.
        let r = flush_pending(&mut sink, &payload, &mut written, None).expect("no error");
        assert_eq!(r, FlushProgress::Blocked);
        assert_eq!(written, 48, "cursor marks the resume point");
        assert_eq!(sink.accepted, &payload[..48], "nothing dropped, nothing duplicated");
        // Resume from the cursor: the remainder drains.
        let r = flush_pending(&mut sink, &payload, &mut written, None).expect("no error");
        assert_eq!(r, FlushProgress::Done);
        assert_eq!(sink.accepted, payload);
    }

    #[test]
    fn write_cap_bounds_each_call_without_changing_the_outcome() {
        let payload: Vec<u8> = (0..100u8).collect();
        let mut sink = CappedSink { accepted: Vec::new(), cap: 1024, block_after: None, writes: 0 };
        let mut written = 0;
        let r = flush_pending(&mut sink, &payload, &mut written, Some(3)).expect("no error");
        assert_eq!(r, FlushProgress::Done);
        assert_eq!(sink.accepted, payload);
        assert!(sink.writes >= 34, "the cap forced many small writes, got {}", sink.writes);
    }

    #[test]
    fn zero_length_write_is_an_error_not_a_spin() {
        struct ZeroSink;
        impl Write for ZeroSink {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut written = 0;
        let err = flush_pending(&mut ZeroSink, b"abc", &mut written, None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn empty_buffer_is_instantly_done() {
        let mut sink = CappedSink { accepted: Vec::new(), cap: 1, block_after: None, writes: 0 };
        let mut written = 0;
        let r = flush_pending(&mut sink, b"", &mut written, None).expect("no error");
        assert_eq!(r, FlushProgress::Done);
        assert_eq!(sink.writes, 0);
    }
}
