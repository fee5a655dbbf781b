//! Open-loop (Poisson-arrival) memcached client — the
//! coordinated-omission-free load generator behind `fig14_latency`.
//!
//! A *closed-loop* driver (like [`nvmemcached::memtier::run_threads`])
//! only issues a request after the previous one returns, so whenever
//! the server stalls the driver politely stops offering load — the
//! stall shows up as slightly lower throughput instead of as the
//! thousands of delayed requests a real client population would have
//! experienced. That is coordinated omission, and it can hide
//! multi-millisecond tail pauses entirely.
//!
//! This driver is open-loop in the wrk2 style:
//!
//! * each connection draws a Poisson arrival schedule (exponential
//!   inter-arrival gaps at its share of the offered rate) **anchored
//!   once** at the run start and never re-anchored;
//! * every latency sample is measured from the request's *scheduled*
//!   send time, not the actual write: if the connection falls behind
//!   (server stall, queueing), the wait is charged to every request
//!   that should already have been sent;
//! * samples land in a log-bucketed [`Histogram`], so p50/p99/p999
//!   come out with bounded relative error and no raw-sample storage.
//!
//! One connection keeps at most one request outstanding (pipelining
//! would batch server work and blur per-request latency); offered load
//! scales by adding connections, exactly like a memtier/wrk2 rig.
//! Request content comes from the same [`Workload`] engine as every
//! in-process experiment, so wire and in-process rows are comparable.
//!
//! # One thread, many connections
//!
//! [`OpenLoopConfig::client_threads`] worker threads each own an epoll
//! instance and **multiplex** their share of the connections — 256
//! connections driven by 4 client threads — so the client rig stops
//! needing one OS thread per simulated client well before the server
//! does. Each connection's arrival schedule and request stream are
//! seeded by its *global* index, so the thread count changes only who
//! does the waiting, not what load is offered.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nvmemcached::memtier::{Request, RequestStream, Workload};
use server::sys::{self, Epoll, EpollEvent};
use workload::Xorshift;

use crate::hist::Histogram;

/// One open-loop run's parameters.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent connections.
    pub connections: usize,
    /// Total offered load, requests/second, split evenly across
    /// connections.
    pub offered_rps: f64,
    /// Length of the arrival schedule. The run drains every scheduled
    /// request, so wall-clock time exceeds this when the server cannot
    /// keep up — that excess *is* the queueing signal.
    pub duration: Duration,
    /// Request generator (key range, distribution, set:get mix, seed).
    pub workload: Workload,
    /// Arrival-schedule seed (decorrelated from the workload's own
    /// request stream).
    pub seed: u64,
    /// Client worker threads, each multiplexing
    /// `connections / client_threads` non-blocking connections over
    /// epoll. Clamped to `1..=connections`.
    pub client_threads: usize,
}

/// Merged outcome of an open-loop run.
#[derive(Debug)]
pub struct OpenLoopResult {
    /// The configured offered load, requests/second.
    pub offered_rps: f64,
    /// Requests actually sent (the full schedule).
    pub sent: u64,
    /// Longest per-connection wall-clock time from anchor to last
    /// response.
    pub elapsed: Duration,
    /// `set` requests sent.
    pub sets: u64,
    /// `get` requests that found their key.
    pub hits: u64,
    /// `get` requests that missed.
    pub misses: u64,
    /// Latency from *scheduled* send to response completion, ns.
    pub latency: Histogram,
}

impl OpenLoopResult {
    /// Requests per second actually completed (0.0 when empty — never
    /// NaN).
    pub fn achieved_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if self.sent == 0 || secs <= 0.0 {
            return 0.0;
        }
        self.sent as f64 / secs
    }

    /// Fraction of `get`s that hit (0.0 when no gets — never NaN).
    pub fn hit_rate(&self) -> f64 {
        let gets = self.hits + self.misses;
        if gets == 0 {
            return 0.0;
        }
        self.hits as f64 / gets as f64
    }
}

/// Per-connection tallies, merged by [`run_open_loop`].
struct ConnResult {
    sent: u64,
    sets: u64,
    hits: u64,
    misses: u64,
    elapsed: Duration,
    latency: Histogram,
}

/// Runs the full open-loop schedule and merges every connection's
/// histogram. Fails on the first transport error (a latency experiment
/// with silently dropped connections would be measuring a different
/// offered load than it reports).
pub fn run_open_loop(cfg: &OpenLoopConfig) -> std::io::Result<OpenLoopResult> {
    let conns = cfg.connections.max(1);
    let per_conn_rate = (cfg.offered_rps / conns as f64).max(1e-9);
    let per_conn_n = (per_conn_rate * cfg.duration.as_secs_f64()).ceil().max(1.0) as u64;

    let threads = cfg.client_threads.clamp(1, conns);

    // Every step that can fail runs here, before any worker exists: a
    // worker erroring out ahead of the barrier would park the others
    // forever.
    let mut rigs = Vec::with_capacity(threads);
    for t in 0..threads {
        let ep = Epoll::create()?;
        let mut mine = Vec::new();
        // Worker t multiplexes global connections t, t+threads,
        // t+2·threads, …
        for (slot, c) in (t..conns).step_by(threads).enumerate() {
            let stream = TcpStream::connect(cfg.addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            ep.add(stream.as_raw_fd(), sys::EPOLLIN, slot as u64)?;
            mine.push(MuxConn::new(stream, cfg, c, per_conn_n));
        }
        rigs.push((ep, mine));
    }
    let barrier = Barrier::new(threads);
    let results: Vec<std::io::Result<Vec<ConnResult>>> = std::thread::scope(|s| {
        let handles: Vec<_> = rigs
            .into_iter()
            .map(|(ep, mine)| {
                let barrier = &barrier;
                s.spawn(move || drive_multiplexed(ep, mine, per_conn_rate, barrier))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("open-loop worker panicked")).collect()
    });

    let mut out = OpenLoopResult {
        offered_rps: cfg.offered_rps,
        sent: 0,
        elapsed: Duration::ZERO,
        sets: 0,
        hits: 0,
        misses: 0,
        latency: Histogram::new(),
    };
    for worker in results {
        for r in worker? {
            out.sent += r.sent;
            out.sets += r.sets;
            out.hits += r.hits;
            out.misses += r.misses;
            out.elapsed = out.elapsed.max(r.elapsed);
            out.latency.merge(&r.latency);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Multiplexed driver: many connections per worker thread, over epoll
// ---------------------------------------------------------------------------

/// What the in-flight request is waiting for (one outstanding per
/// connection, so this is the whole response-parser state).
enum Await {
    /// A `set` is out; next line must be `STORED`.
    Stored,
    /// A `get` is out; status lines (`VALUE`/`END`) are arriving.
    GetStatus { hit: bool },
    /// Inside a `get` response: the next line is the data block.
    GetData,
}

/// One multiplexed connection's full state.
struct MuxConn {
    stream: TcpStream,
    requests: RequestStream,
    arrivals: Xorshift,
    /// Requests not yet sent (the fixed schedule).
    remaining: u64,
    /// Cumulative schedule offset from the anchor.
    offset: Duration,
    /// When the next request is due (`None` while one is in flight or
    /// after the schedule is exhausted).
    next_due: Option<Instant>,
    /// The in-flight request's scheduled send time and parser state.
    in_flight: Option<(Instant, Await)>,
    /// Unsent request bytes (socket pushed back; `EPOLLOUT` armed).
    out: Vec<u8>,
    /// Received-but-unparsed response bytes.
    inbuf: Vec<u8>,
    /// Whether `EPOLLOUT` is currently registered.
    wants_out: bool,
    r: ConnResult,
    done: bool,
}

impl MuxConn {
    /// Connection `conn` (global index) with its full schedule of `n`
    /// requests still to send.
    fn new(stream: TcpStream, cfg: &OpenLoopConfig, conn: usize, n: u64) -> Self {
        Self {
            stream,
            requests: RequestStream::new(&cfg.workload, conn),
            // The arrival process must not perturb (or replay) the
            // request stream, so it draws from its own decorrelated rng.
            arrivals: Xorshift::for_thread(cfg.seed ^ 0x6f70_656e_6c6f_6f70, conn),
            remaining: n,
            offset: Duration::ZERO,
            next_due: None,
            in_flight: None,
            out: Vec::new(),
            inbuf: Vec::new(),
            wants_out: false,
            r: ConnResult {
                sent: 0,
                sets: 0,
                hits: 0,
                misses: 0,
                elapsed: Duration::ZERO,
                latency: Histogram::new(),
            },
            done: false,
        }
    }

    /// Draws the next exponential gap and schedules the next arrival.
    /// Called exactly once per request (at anchor time for the first,
    /// immediately after each send for the rest) — the arrival process
    /// never depends on responses; only the *release* of a due send is
    /// gated on the previous response (one outstanding), with the wait
    /// charged CO-free to the schedule.
    fn schedule_next(&mut self, rate: f64, anchor: Instant) {
        if self.remaining == 0 {
            self.next_due = None;
            return;
        }
        // Exponential gap: -ln(1 - u) / rate. `unit()` is in [0, 1),
        // so the log argument is in (0, 1] and the gap is finite.
        let gap = -(1.0 - self.arrivals.unit()).ln() / rate;
        self.offset += Duration::from_secs_f64(gap);
        self.next_due = Some(anchor + self.offset);
    }
}

/// Drives one worker's connections (registered in `ep` by slot):
/// sends released by schedule time, responses parsed incrementally as
/// they arrive.
fn drive_multiplexed(
    ep: Epoll,
    mut conns: Vec<MuxConn>,
    rate: f64,
    barrier: &Barrier,
) -> std::io::Result<Vec<ConnResult>> {
    // Wait for the other workers so every connection's schedule
    // anchors together.
    barrier.wait();
    let anchor = Instant::now();
    for conn in &mut conns {
        conn.schedule_next(rate, anchor);
    }

    let mut events = [EpollEvent::default(); 64];
    let mut rbuf = [0u8; 16 * 1024];
    let mut line = String::new();
    while !conns.iter().all(|c| c.done) {
        // Release every due send, then find the earliest *releasable*
        // pending one (a due-but-in-flight connection waits on its
        // response, which epoll delivers, not on the clock).
        let now = Instant::now();
        let mut earliest: Option<Instant> = None;
        for (slot, conn) in conns.iter_mut().enumerate() {
            if conn.in_flight.is_none() {
                if let Some(due) = conn.next_due {
                    if due <= now {
                        send_request(conn, &ep, slot as u64)?;
                        conn.schedule_next(rate, anchor);
                    } else {
                        earliest = Some(earliest.map_or(due, |e| e.min(due)));
                    }
                }
            }
        }
        // Sleep in epoll until the next scheduled send (rounded *down*
        // to epoll's millisecond grain: overshooting would charge the
        // rounding into every CO-free latency sample; undershooting
        // merely re-polls — sub-millisecond waits spin through
        // epoll_wait(0), exactly like wrk2's send loop). With no send
        // pending, park until response bytes arrive.
        let timeout = match earliest {
            Some(due) => due.saturating_duration_since(Instant::now()).as_millis() as i32,
            None if conns.iter().any(|c| !c.done) => -1,
            None => 0,
        };
        let nev = ep.wait(&mut events, timeout)?;
        for ev in &events[..nev] {
            let slot = ev.token() as usize;
            if ev.events() & sys::EPOLLOUT != 0 {
                flush_out(&mut conns[slot], &ep, ev.token())?;
            }
            if ev.events() & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                read_responses(&mut conns[slot], &mut rbuf, &mut line, anchor)?;
            }
        }
    }
    Ok(conns.into_iter().map(|c| c.r).collect())
}

/// Renders and (non-blockingly) sends one request; unsent bytes park in
/// `conn.out` with `EPOLLOUT` armed.
fn send_request(conn: &mut MuxConn, ep: &Epoll, token: u64) -> std::io::Result<()> {
    let scheduled = conn.next_due.expect("due send");
    let req = conn.requests.next().expect("infinite stream");
    debug_assert!(conn.out.is_empty(), "one outstanding request per connection");
    match req {
        Request::Set(key, value) => {
            let data = value.to_string();
            write!(conn.out, "set {key} 0 0 {}\r\n{data}\r\n", data.len())?;
            conn.in_flight = Some((scheduled, Await::Stored));
        }
        Request::Get(key) => {
            write!(conn.out, "get {key}\r\n")?;
            conn.in_flight = Some((scheduled, Await::GetStatus { hit: false }));
        }
    }
    conn.remaining -= 1;
    flush_out(conn, ep, token)
}

/// Writes as much parked output as the socket accepts, keeping the
/// `EPOLLOUT` registration in sync with whether any remains.
fn flush_out(conn: &mut MuxConn, ep: &Epoll, token: u64) -> std::io::Result<()> {
    let mut written = 0;
    let res = loop {
        if written >= conn.out.len() {
            break Ok(());
        }
        match conn.stream.write(&conn.out[written..]) {
            Ok(0) => {
                break Err(std::io::Error::new(ErrorKind::WriteZero, "socket wrote zero"));
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    conn.out.drain(..written);
    res?;
    let want_out = !conn.out.is_empty();
    if want_out != conn.wants_out {
        conn.wants_out = want_out;
        let interest = sys::EPOLLIN | if want_out { sys::EPOLLOUT } else { 0 };
        ep.modify(conn.stream.as_raw_fd(), interest, token)?;
    }
    Ok(())
}

/// Drains the socket and parses every complete response line, closing
/// out in-flight requests as their terminators arrive.
fn read_responses(
    conn: &mut MuxConn,
    rbuf: &mut [u8],
    line: &mut String,
    anchor: Instant,
) -> std::io::Result<()> {
    loop {
        match conn.stream.read(rbuf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            Ok(n) => conn.inbuf.extend_from_slice(&rbuf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    // Parse complete `\r\n` lines; a partial line stays buffered.
    let mut consumed = 0;
    while let Some(rel) = find_crlf(&conn.inbuf[consumed..]) {
        line.clear();
        line.push_str(
            std::str::from_utf8(&conn.inbuf[consumed..consumed + rel])
                .map_err(|_| proto_err("<non-utf8>"))?,
        );
        consumed += rel + 2;
        let Some((scheduled, state)) = conn.in_flight.take() else {
            return Err(proto_err(line));
        };
        match state {
            Await::Stored => {
                if line != "STORED" {
                    return Err(proto_err(line));
                }
                conn.r.sets += 1;
                complete_request(conn, scheduled, anchor);
            }
            Await::GetStatus { hit } => {
                if line == "END" {
                    if hit {
                        conn.r.hits += 1;
                    } else {
                        conn.r.misses += 1;
                    }
                    complete_request(conn, scheduled, anchor);
                } else if line.starts_with("VALUE ") {
                    conn.in_flight = Some((scheduled, Await::GetData));
                } else {
                    return Err(proto_err(line));
                }
            }
            Await::GetData => {
                // The data block is a single digits-only line.
                conn.in_flight = Some((scheduled, Await::GetStatus { hit: true }));
            }
        }
    }
    conn.inbuf.drain(..consumed);
    Ok(())
}

/// Records the CO-free latency sample for a completed request; the
/// last response of the schedule closes the connection's books.
fn complete_request(conn: &mut MuxConn, scheduled: Instant, anchor: Instant) {
    let lat = Instant::now().saturating_duration_since(scheduled);
    conn.r.latency.record(lat.as_nanos().min(u128::from(u64::MAX)) as u64);
    conn.r.sent += 1;
    if conn.remaining == 0 {
        conn.r.elapsed = anchor.elapsed();
        conn.done = true;
    }
}

/// Byte offset of the first `\r\n` in `buf`, if any.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn proto_err(line: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, format!("unexpected server response {line:?}"))
}
