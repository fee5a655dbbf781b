//! The seeded request generator: what every workload sends, its wire
//! bytes and its arrival schedule. A pure function of `(spec, seed)`:
//! no clock, no global state, so a seed names one exact request stream.
//!
//! The key space is cut into *lanes* (a connection or a thread): key
//! `k` belongs to lane `(k - 1) % lanes` and only that lane ever sends
//! requests for it. A lane is served in order, so the value a `get`
//! must return is known when the request is generated — the last value
//! the same lane `set` — and no request can fail by racing another.

use workload::{KeyDist, KeySampler, Xorshift};

/// Values are `VALUE_BASE + [0, 9 * VALUE_BASE)`: always ten decimal
/// digits, so a request's size depends only on its key.
pub const VALUE_BASE: u64 = 1_000_000_000;

/// Requests per pipelined burst (`Mix::Burst`).
pub const BURST: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
}

/// One request. For a `Set`, `value` is what to store; for a `Get` it
/// is what a hit must return (0: the key was never written).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub key: u64,
    pub value: u64,
}

/// What the server answered, reduced to what correctness depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    Stored,
    Miss,
    Hit {
        key: u64,
        value: u64,
    },
    /// `SERVER_ERROR`, a malformed block, anything else.
    Other,
}

impl Op {
    /// Whether `reply` is a correct answer to this request. A miss is
    /// correct only for a key that was never written or where the
    /// workload overflows the cache (`miss_ok`).
    pub fn accepts(&self, reply: Reply, miss_ok: bool) -> bool {
        match (self.kind, reply) {
            (Kind::Set, Reply::Stored) => true,
            (Kind::Get, Reply::Miss) => miss_ok || self.value == 0,
            (Kind::Get, Reply::Hit { key, value }) => key == self.key && value == self.value,
            _ => false,
        }
    }

    /// Appends the request's wire form.
    pub fn render(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        match self.kind {
            Kind::Get => write!(out, "get {}\r\n", self.key),
            Kind::Set => write!(out, "set {} 0 0 10\r\n{}\r\n", self.key, self.value),
        }
        .expect("writing to a Vec cannot fail");
    }
}

/// How a lane chooses the kind of its next request.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// Independent draws, a `set` with probability `set_pct` / 100.
    Random { set_pct: u64 },
    /// Bursts of [`BURST`]: half `set`, half `get`, shuffled per burst.
    Burst,
    /// Every key once in shuffled order, then `overwrites` more sets of
    /// uniformly drawn keys; the stream then ends.
    Fill { overwrites: u64 },
}

/// A workload's request stream and the cache it runs against.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Keys are `1..=keys`.
    pub keys: u64,
    /// Keys `1..=prefill` are stored (with [`prefill_value`]) in set-up.
    pub prefill: u64,
    /// Item capacity of the cache; beyond it, sets evict.
    pub capacity: usize,
    pub dist: KeyDist,
    pub mix: Mix,
}

impl Spec {
    /// Whether a `get` of a written key may miss (the cache evicts).
    pub fn miss_ok(&self) -> bool {
        (self.capacity as u64) < self.keys
    }
}

/// The value set-up stores under `key`.
pub fn prefill_value(seed: u64, key: u64) -> u64 {
    VALUE_BASE + Xorshift::for_thread(seed ^ 0x5EED, key as usize).bounded(9 * VALUE_BASE)
}

/// One lane's request stream, with the value it last set per key.
pub struct Lane {
    lane: u64,
    lanes: u64,
    rng: Xorshift,
    sampler: KeySampler,
    mix: Mix,
    /// `last[r]` is the last value set for this lane's `r`-th key.
    last: Vec<u64>,
    issued: u64,
    burst: [Kind; BURST],
    /// `Mix::Fill`: the shuffled order of this lane's keys.
    order: Vec<u32>,
}

impl Lane {
    pub fn new(spec: &Spec, seed: u64, lane: usize, lanes: usize) -> Self {
        let (lane, lanes) = (lane as u64, lanes as u64);
        assert!(spec.keys.is_multiple_of(lanes), "the key space must split evenly into lanes");
        let owned = spec.keys / lanes;
        let mut rng = Xorshift::for_thread(seed, lane as usize);
        let key_of = |r: u64| r * lanes + lane + 1;
        let last = (0..owned)
            .map(|r| if key_of(r) <= spec.prefill { prefill_value(seed, key_of(r)) } else { 0 })
            .collect();
        let mut order = Vec::new();
        if let Mix::Fill { .. } = spec.mix {
            order = (0..owned as u32).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.bounded(i as u64 + 1) as usize);
            }
        }
        let mut burst = [Kind::Get; BURST];
        burst[..BURST / 2].fill(Kind::Set);
        Self {
            lane,
            lanes,
            rng,
            sampler: KeySampler::new(spec.dist, owned),
            mix: spec.mix,
            last,
            issued: 0,
            burst,
            order,
        }
    }

    /// The next request, or `None` once a `Fill` stream is exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Op> {
        let i = self.issued;
        let (kind, rank) = match self.mix {
            Mix::Random { set_pct } => {
                let rank = self.sampler.sample(&mut self.rng, i) - 1;
                let kind = if self.rng.bounded(100) < set_pct { Kind::Set } else { Kind::Get };
                (kind, rank)
            }
            Mix::Burst => {
                let at = i as usize % BURST;
                if at == 0 {
                    for j in (1..BURST).rev() {
                        self.burst.swap(j, self.rng.bounded(j as u64 + 1) as usize);
                    }
                }
                (self.burst[at], self.sampler.sample(&mut self.rng, i) - 1)
            }
            Mix::Fill { overwrites } => {
                let own = self.order.len() as u64;
                if i < own {
                    (Kind::Set, self.order[i as usize] as u64)
                } else if i < own + overwrites / self.lanes {
                    (Kind::Set, self.rng.bounded(own))
                } else {
                    return None;
                }
            }
        };
        self.issued += 1;
        let key = rank * self.lanes + self.lane + 1;
        let slot = &mut self.last[rank as usize];
        if kind == Kind::Set {
            *slot = VALUE_BASE + self.rng.bounded(9 * VALUE_BASE);
        }
        Some(Op { kind, key, value: *slot })
    }

    /// Keeps the keys and their last values, changes what is sent next:
    /// how a finished `Fill` becomes the stream that reads it back.
    pub fn restyle(self, dist: KeyDist, mix: Mix) -> Lane {
        let sampler = KeySampler::new(dist, self.last.len() as u64);
        Lane { sampler, mix, issued: 0, ..self }
    }

    /// Every key of this lane that has a value, with that value: what
    /// the cache must hold (or, with eviction, may hold) after the run.
    pub fn model(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.last
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(r, &v)| (r as u64 * self.lanes + self.lane + 1, v))
    }
}

/// One stream per lane.
pub fn lanes_for(spec: &Spec, seed: u64, lanes: usize) -> Vec<Lane> {
    (0..lanes).map(|l| Lane::new(spec, seed, l, lanes)).collect()
}

/// Poisson arrivals at `rate_per_s` over `duration_ns`: nanosecond
/// offsets from the start of the schedule, ascending.
pub fn arrivals(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = Xorshift::for_thread(seed, 0xA771);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((duration_ns as f64 / mean_gap_ns * 1.02) as usize + 16);
    loop {
        at += -(1.0 - rng.unit()).ln() * mean_gap_ns;
        if at >= duration_ns as f64 {
            return out;
        }
        out.push(at as u64);
    }
}

/// One `write`: `n_ops` requests of one lane, due at `at_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unit {
    pub at_ns: u64,
    pub lane: usize,
    /// Range of the unit's bytes in [`Plan::bytes`].
    pub bytes: (usize, usize),
    /// Index of the unit's first request in [`Plan::ops`].
    pub first_op: usize,
    pub n_ops: usize,
}

/// A fully generated open-loop run: every request, its bytes and when
/// it is due. Generated before the clock starts, so the generator's
/// timed loop only copies bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct Plan {
    pub units: Vec<Unit>,
    pub ops: Vec<Op>,
    pub bytes: Vec<u8>,
}

impl Plan {
    /// Units arrive at `units_per_s`, go to lanes round-robin and carry
    /// `ops_per_unit` requests each. A `Fill` stream that runs dry ends
    /// the plan early.
    pub fn build(
        mut streams: Vec<Lane>,
        seed: u64,
        units_per_s: f64,
        ops_per_unit: usize,
        duration_ns: u64,
    ) -> (Plan, Vec<Lane>) {
        let lanes = streams.len();
        let mut plan = Plan { units: Vec::new(), ops: Vec::new(), bytes: Vec::new() };
        'units: for (i, at_ns) in arrivals(seed, units_per_s, duration_ns).into_iter().enumerate() {
            let lane = i % lanes;
            let (first_op, first_byte) = (plan.ops.len(), plan.bytes.len());
            for _ in 0..ops_per_unit {
                let Some(op) = streams[lane].next() else {
                    plan.ops.truncate(first_op);
                    plan.bytes.truncate(first_byte);
                    break 'units;
                };
                op.render(&mut plan.bytes);
                plan.ops.push(op);
            }
            plan.units.push(Unit {
                at_ns,
                lane,
                bytes: (first_byte, plan.bytes.len()),
                first_op,
                n_ops: ops_per_unit,
            });
        }
        (plan, streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mix: Mix) -> Spec {
        Spec { keys: 1000, prefill: 1000, capacity: 1 << 20, dist: KeyDist::ZIPF_SCRAMBLED_99, mix }
    }

    #[test]
    fn same_seed_gives_byte_identical_stream_and_schedule() {
        for mix in [Mix::Random { set_pct: 5 }, Mix::Burst, Mix::Fill { overwrites: 100 }] {
            let per = if matches!(mix, Mix::Burst) { BURST } else { 1 };
            let build =
                |seed| Plan::build(lanes_for(&spec(mix), seed, 2), seed, 50_000.0, per, 20_000_000);
            let ((a, _), (b, _)) = (build(42), build(42));
            assert!(a.units.len() > 500);
            assert_eq!(a, b);
            let (c, _) = build(43);
            assert_ne!(a.bytes, c.bytes);
            assert_ne!(
                a.units.iter().map(|u| u.at_ns).collect::<Vec<_>>(),
                c.units.iter().map(|u| u.at_ns).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn arrivals_are_ascending_and_close_to_the_rate() {
        let a = arrivals(1, 40_000.0, 1_000_000_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((a.len() as f64 - 40_000.0).abs() < 1_000.0, "{} arrivals", a.len());
    }

    #[test]
    fn a_lane_sends_only_its_own_keys_and_expects_its_own_last_set() {
        let spec = spec(Mix::Random { set_pct: 30 });
        for lane in 0..2 {
            let mut stream = Lane::new(&spec, 9, lane, 2);
            let mut model = std::collections::HashMap::new();
            for _ in 0..20_000 {
                let op = stream.next().unwrap();
                assert_eq!((op.key - 1) % 2, lane as u64);
                assert!((VALUE_BASE..10 * VALUE_BASE).contains(&op.value));
                match op.kind {
                    Kind::Set => {
                        model.insert(op.key, op.value);
                    }
                    Kind::Get => {
                        let want = model.get(&op.key).copied();
                        assert_eq!(op.value, want.unwrap_or(prefill_value(9, op.key)));
                    }
                }
            }
            for (k, v) in stream.model() {
                assert_eq!(v, model.get(&k).copied().unwrap_or(prefill_value(9, k)));
            }
        }
    }

    #[test]
    fn a_burst_is_half_sets_and_a_fill_touches_every_key_once_first() {
        let mut burst = Lane::new(&spec(Mix::Burst), 3, 0, 1);
        for _ in 0..50 {
            let sets = (0..BURST).filter(|_| burst.next().unwrap().kind == Kind::Set).count();
            assert_eq!(sets, BURST / 2);
        }
        let fill_spec = Spec { prefill: 0, ..spec(Mix::Fill { overwrites: 10 }) };
        let mut fill = Lane::new(&fill_spec, 3, 1, 2);
        let mut keys: Vec<u64> = (0..500).map(|_| fill.next().unwrap().key).collect();
        keys.sort_unstable();
        assert_eq!(keys, (1..=500).map(|r| r * 2).collect::<Vec<_>>());
        assert_eq!((0..).map_while(|_| fill.next()).count(), 5);
        assert_eq!(fill.model().count(), 500);
        let model: Vec<_> = fill.model().collect();
        let mut reader = fill.restyle(KeyDist::Uniform, Mix::Random { set_pct: 0 });
        for _ in 0..2000 {
            let op = reader.next().unwrap();
            assert_eq!(op.kind, Kind::Get);
            assert!(model.contains(&(op.key, op.value)));
        }
    }

    #[test]
    fn accepts_only_what_the_protocol_allows() {
        let get = Op { kind: Kind::Get, key: 7, value: 5 };
        assert!(get.accepts(Reply::Hit { key: 7, value: 5 }, false));
        assert!(!get.accepts(Reply::Hit { key: 7, value: 6 }, true));
        assert!(!get.accepts(Reply::Hit { key: 8, value: 5 }, true));
        assert!(!get.accepts(Reply::Miss, false));
        assert!(get.accepts(Reply::Miss, true));
        assert!(Op { value: 0, ..get }.accepts(Reply::Miss, false));
        assert!(!Op { value: 0, ..get }.accepts(Reply::Hit { key: 7, value: 1 }, true));
        let set = Op { kind: Kind::Set, ..get };
        assert!(set.accepts(Reply::Stored, false));
        assert!(!set.accepts(Reply::Other, true) && !set.accepts(Reply::Miss, true));
    }
}
