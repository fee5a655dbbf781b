//! The load generator: connections, an open loop and a closed loop.
//!
//! The open loop sends each unit of a pre-generated [`Plan`] when it is
//! due, whatever is still outstanding, and times every request from its
//! *scheduled* send — a stall charges the requests it delays. It never
//! sleeps: one thread busy-polls non-blocking sockets, because a
//! generator parked in the kernel wakes late and books its own
//! lateness as server latency. How late it sent is part of the result.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gen::{Lane, Op, Plan, Unit};
use crate::hist::Histogram;
use crate::matcher::Matcher;
use crate::trace::Spans;

/// A send this long after its scheduled time counts as late.
pub const LATE_NS: u64 = 100_000;

/// How long after the schedule ends a request may still be answered.
const DRAIN: Duration = Duration::from_secs(2);

/// One connection per lane.
pub struct Client {
    streams: Vec<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr, lanes: usize) -> std::io::Result<Client> {
        let streams = (0..lanes)
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Client { streams })
    }

    fn set_nonblocking(&self, on: bool) {
        for s in &self.streams {
            s.set_nonblocking(on).expect("socket mode");
        }
    }
}

/// The timed part of a run: a warm-up, then `n` equal windows. A
/// request belongs to the window its scheduled send falls in.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub warmup_ns: u64,
    pub window_ns: u64,
    pub n: usize,
}

impl Windows {
    /// `seconds` of measuring: a tenth to warm up, the rest in five
    /// windows.
    pub fn over(seconds: f64) -> Windows {
        let total = (seconds * 1e9) as u64;
        Windows { warmup_ns: total / 10, window_ns: total * 9 / 50, n: 5 }
    }

    pub fn total_ns(&self) -> u64 {
        self.warmup_ns + self.window_ns * self.n as u64
    }

    /// The window a request scheduled at `at_ns` belongs to.
    pub fn of(&self, at_ns: u64) -> Option<usize> {
        let w = (at_ns.checked_sub(self.warmup_ns)? / self.window_ns) as usize;
        (w < self.n).then_some(w)
    }

    pub fn window_s(&self) -> f64 {
        self.window_ns as f64 / 1e9
    }
}

/// What one window of an open-loop run saw.
#[derive(Clone, Default)]
pub struct WindowStats {
    /// Scheduled send to reply parsed, per request.
    pub latency: Histogram,
    /// Actual send minus scheduled send, per `write`.
    pub send_lag: Histogram,
    pub late_sends: u64,
    /// Requests scheduled and requests answered.
    pub scheduled: u64,
    pub completed: u64,
}

impl WindowStats {
    /// Share of this window's `write`s that left more than
    /// [`LATE_NS`] after their scheduled time.
    pub fn late_send_share(&self) -> f64 {
        self.late_sends as f64 / self.send_lag.count().max(1) as f64
    }

    pub fn achieved_ratio(&self) -> f64 {
        self.completed as f64 / self.scheduled.max(1) as f64
    }

    pub fn absorb(&mut self, other: &WindowStats) {
        self.latency.merge(&other.latency);
        self.send_lag.merge(&other.send_lag);
        self.late_sends += other.late_sends;
        self.scheduled += other.scheduled;
        self.completed += other.completed;
    }
}

/// What one open-loop run saw: its windows and, over all of them, the
/// deepest backlog.
pub struct OpenLoopRun {
    pub windows: Vec<WindowStats>,
    pub max_in_flight: u64,
    /// Every request of the plan, warm-up included.
    pub attempted: u64,
    /// Wrong or error replies, plus requests never answered.
    pub failed: u64,
}

struct LaneState {
    matcher: Matcher,
    /// Units sent and not fully answered, oldest first, and how many
    /// replies the oldest has had.
    in_flight: VecDeque<usize>,
    answered_in_front: usize,
    /// Bytes a full socket buffer refused, to be sent first.
    backlog: Vec<u8>,
}

/// Runs `plan` against `client`, starting the schedule at `start`.
/// Spans of the first requests go to `spans` (see [`Spans`]).
pub fn open_loop(
    client: &mut Client,
    plan: &Plan,
    windows: Windows,
    miss_ok: bool,
    start: Instant,
    spans: &mut Spans,
) -> OpenLoopRun {
    client.set_nonblocking(true);
    let mut run = OpenLoopRun {
        windows: vec![WindowStats::default(); windows.n],
        max_in_flight: 0,
        attempted: plan.ops.len() as u64,
        failed: 0,
    };
    let mut lanes: Vec<LaneState> = (0..client.streams.len())
        .map(|_| LaneState {
            matcher: Matcher::default(),
            in_flight: VecDeque::new(),
            answered_in_front: 0,
            backlog: Vec::new(),
        })
        .collect();
    let mut next_unit = 0;
    let mut in_flight = 0u64;
    let mut rbuf = vec![0u8; 64 << 10];
    let deadline = windows.total_ns() + DRAIN.as_nanos() as u64;
    let mut broken = false;

    while Instant::now() < start {
        std::hint::spin_loop();
    }
    'run: loop {
        let mut now = start.elapsed().as_nanos() as u64;
        while let Some(unit) = plan.units.get(next_unit).filter(|u| u.at_ns <= now) {
            if let Some(w) = windows.of(unit.at_ns) {
                let (lag, window) = (now - unit.at_ns, &mut run.windows[w]);
                window.scheduled += unit.n_ops as u64;
                window.send_lag.record(lag);
                window.late_sends += u64::from(lag > LATE_NS);
            }
            let lane = &mut lanes[unit.lane];
            let bytes = &plan.bytes[unit.bytes.0..unit.bytes.1];
            let stream = &mut client.streams[unit.lane];
            let wrote = if lane.backlog.is_empty() { try_write(stream, bytes) } else { Ok(0) };
            match wrote {
                Ok(n) => lane.backlog.extend_from_slice(&bytes[n..]),
                Err(_) => {
                    broken = true;
                    break 'run;
                }
            }
            lane.in_flight.push_back(next_unit);
            in_flight += unit.n_ops as u64;
            run.max_in_flight = run.max_in_flight.max(in_flight);
            next_unit += 1;
            now = start.elapsed().as_nanos() as u64;
        }
        for (lane, stream) in lanes.iter_mut().zip(&mut client.streams) {
            if !lane.backlog.is_empty() {
                match try_write(stream, &lane.backlog) {
                    Ok(n) => drop(lane.backlog.drain(..n)),
                    Err(_) => {
                        broken = true;
                        break 'run;
                    }
                }
            }
            if lane.in_flight.is_empty() {
                continue;
            }
            match stream.read(&mut rbuf) {
                Ok(0) => {
                    broken = true;
                    break 'run;
                }
                Ok(n) => lane.matcher.feed(&rbuf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(_) => {
                    broken = true;
                    break 'run;
                }
            }
            let now = start.elapsed().as_nanos() as u64;
            while let Some(&u) = lane.in_flight.front() {
                let unit: &Unit = &plan.units[u];
                let id = unit.first_op + lane.answered_in_front;
                let op: &Op = &plan.ops[id];
                let Some(reply) = lane.matcher.next(op.kind) else { break };
                in_flight -= 1;
                run.failed += u64::from(!op.accepts(reply, miss_ok));
                if let Some(w) = windows.of(unit.at_ns) {
                    run.windows[w].latency.record(now - unit.at_ns);
                    run.windows[w].completed += 1;
                }
                spans.record("client.request", id, "", unit.at_ns, now);
                lane.answered_in_front += 1;
                if lane.answered_in_front == unit.n_ops {
                    lane.in_flight.pop_front();
                    lane.answered_in_front = 0;
                }
            }
        }
        if next_unit == plan.units.len() && in_flight == 0 {
            break;
        }
        if now > deadline {
            break;
        }
    }
    // Never answered: in flight at the deadline, or never sent because
    // the connection broke.
    let unsent: u64 = plan.units[next_unit..].iter().map(|u| u.n_ops as u64).sum();
    run.failed += in_flight + if broken { unsent } else { 0 };
    client.set_nonblocking(false);
    run
}

/// A non-blocking write: how many bytes the socket took (0 when full).
fn try_write(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    match stream.write(bytes) {
        Ok(n) => Ok(n),
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(0),
        Err(e) => Err(e),
    }
}

/// One acknowledged request of a closed-loop run.
pub struct Acked {
    pub op: Op,
    pub at: Instant,
}

pub struct ClosedLoopRun {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctly acknowledged request with the time its reply
    /// was read; only kept when asked for.
    pub acked: Vec<Acked>,
}

/// Closed loop: each lane keeps `depth` requests in flight — one write
/// of `depth` requests, then all their replies — until its stream ends
/// or `until` passes. One thread serves the lanes in turn.
pub fn closed_loop(
    client: &mut Client,
    streams: &mut [Lane],
    depth: usize,
    until: Option<Instant>,
    keep_acked: bool,
) -> ClosedLoopRun {
    let mut run = ClosedLoopRun { attempted: 0, failed: 0, acked: Vec::new() };
    let mut matchers: Vec<Matcher> = streams.iter().map(|_| Matcher::default()).collect();
    let mut batches: Vec<Vec<Op>> = streams.iter().map(|_| Vec::with_capacity(depth)).collect();
    let mut bytes = Vec::new();
    let mut rbuf = vec![0u8; 64 << 10];
    loop {
        if until.is_some_and(|t| Instant::now() >= t) {
            return run;
        }
        for ((stream, lane), batch) in
            client.streams.iter_mut().zip(streams.iter_mut()).zip(&mut batches)
        {
            batch.clear();
            bytes.clear();
            batch.extend(std::iter::from_fn(|| lane.next()).take(depth));
            batch.iter().for_each(|op| op.render(&mut bytes));
            run.attempted += batch.len() as u64;
            if stream.write_all(&bytes).is_err() {
                run.failed += batch.len() as u64;
                batch.clear();
            }
        }
        if batches.iter().all(Vec::is_empty) {
            return run;
        }
        for ((stream, matcher), batch) in client.streams.iter_mut().zip(&mut matchers).zip(&batches)
        {
            let mut answered = 0;
            while answered < batch.len() {
                match stream.read(&mut rbuf) {
                    Ok(n) if n > 0 => matcher.feed(&rbuf[..n]),
                    _ => {
                        run.failed += (batch.len() - answered) as u64;
                        return run;
                    }
                }
                let at = Instant::now();
                while answered < batch.len() {
                    let op = batch[answered];
                    let Some(reply) = matcher.next(op.kind) else { break };
                    answered += 1;
                    if !op.accepts(reply, false) {
                        run.failed += 1;
                    } else if keep_acked {
                        run.acked.push(Acked { op, at });
                    }
                }
            }
        }
    }
}
