//! Structured experiment reports and their machine-readable rendering.
//!
//! Every experiment of the registry builds an [`ExperimentReport`]
//! instead of printing free-form text; the human-readable tables
//! `bench_all` shows are produced by [`render_text`] *from the same
//! report* it serializes into `BENCH_results.json`. One source of truth,
//! two renderings.
//!
//! The serialization layer is a deliberately dependency-free JSON value
//! type ([`Json`]) with an escape-correct writer and a full parser, so
//! reports can be written and the `benchmark/` package's
//! `out/results.json` re-read ([`history_line`], `bench_all --record`)
//! without adding any crate the build environment does not already have.
//!
//! See `BENCHMARKS.md` at the repository root for the schema with an
//! annotated example and the measurement methodology.

use std::fmt::Write as _;

use nvalloc::AptStats;
use pmem::FlushStats;

/// Version stamp written into every `BENCH_results.json`. Bump when the
/// schema changes shape (documented in BENCHMARKS.md).
///
/// v3: the per-row `latency` object of v2 and the two knobs that steered
/// the retired socket sweep are gone (BENCHMARKS.md "Retired A/Bs").
pub const SCHEMA_VERSION: u64 = 3;

// ---------------------------------------------------------------------------
// JSON value type: writer + parser
// ---------------------------------------------------------------------------

/// A JSON document, as produced by the report serializer and by
/// [`Json::parse`].
///
/// Object member order is preserved (reports render deterministically);
/// numbers are `f64`, which is exact for every counter below 2^53 —
/// far beyond anything a bench run produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced when serializing a non-finite float).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key → value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes without any whitespace.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(members) => write_seq(out, indent, '{', '}', members.len(), |out, i, ind| {
                write_string(out, &members[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                members[i].1.write(out, ind);
            }),
        }
    }

    /// Parses a JSON document. Exactly one top-level value is accepted
    /// (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

/// JSON numbers must be finite; NaN/inf degrade to `null` (documented in
/// BENCHMARKS.md — consumers treat them as "not measured").
fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Rust's shortest-roundtrip Display for f64 is valid JSON (it
        // never produces exponents for this value range, and always
        // round-trips through the parser bit-exactly).
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            push_indent(out, d);
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        push_indent(out, d);
    }
    out.push(close);
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..2 * depth {
        out.push(' ');
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { pos: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.eat(b'\\').is_err() || self.eat(b'u').is_err() {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slicing
                    // at char boundaries is safe via the chars iterator).
                    let rest = &self.bytes[self.pos..];
                    // SAFETY-free route: find char length from the lead byte.
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { pos: start, msg: format!("invalid number '{text}'") })
    }
}

fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Report model
// ---------------------------------------------------------------------------

/// One measured configuration of one experiment: a row of a paper figure.
///
/// Only `label` is mandatory; every other field is present when the
/// experiment measures it and omitted from the JSON otherwise. Labels are
/// stable across runs at the same scale, so two records line up on
/// `(experiment id, label)`.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Stable row identifier, e.g. `"skip-list size=4096 threads=8"`.
    pub label: String,
    /// Structure under test (`"skip-list"`, …) where applicable.
    pub structure: Option<String>,
    /// Worker thread count.
    pub threads: Option<u64>,
    /// Structure size (elements) or key range.
    pub size: Option<u64>,
    /// Injected NVRAM write latency (ns) of this configuration.
    pub latency_ns: Option<u64>,
    /// Key-distribution label of the workload this row ran under
    /// (`"uniform"`, `"zipf-0.99"`, …; `"n/a"` for cost-model rows with
    /// no workload). Every serialized row carries it — the CI
    /// JSON-validation step asserts so.
    pub dist: Option<String>,
    /// Median throughput (ops/s) over the repeats.
    pub median_throughput: Option<f64>,
    /// Per-repeat throughputs (ops/s), in execution order.
    pub repeat_throughputs: Vec<f64>,
    /// Median throughput (ops/s) of the comparison system, when the row
    /// is a ratio.
    pub baseline_throughput: Option<f64>,
    /// `median_throughput / baseline_throughput`.
    pub ratio: Option<f64>,
    /// The ratio the paper reports for this configuration.
    pub paper_ratio: Option<f64>,
    /// Durable-write traffic of the subject system's median repetition.
    pub flush: Option<FlushStats>,
    /// Experiment-specific scalars (APT hit rates, recovery times, cache
    /// hit rates, …), serialized as a `metrics` object.
    pub metrics: Vec<(String, f64)>,
}

impl Measurement {
    /// Starts a measurement with the given stable label.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), ..Self::default() }
    }

    /// Appends a named scalar metric.
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Records APT hit rates as metrics (Figure 9a's quantities).
    pub fn apt_metrics(self, apt: &AptStats) -> Self {
        self.metric("apt_alloc_hit_rate", apt.alloc_hit_rate())
            .metric("apt_unlink_hit_rate", apt.unlink_hit_rate())
    }

    fn to_json(&self) -> Json {
        let mut m = vec![("label".into(), Json::Str(self.label.clone()))];
        fn opt_num(m: &mut Vec<(String, Json)>, key: &str, v: Option<f64>) {
            if let Some(v) = v {
                m.push((key.into(), Json::Num(v)));
            }
        }
        opt_num(&mut m, "threads", self.threads.map(|v| v as f64));
        opt_num(&mut m, "size", self.size.map(|v| v as f64));
        opt_num(&mut m, "latency_ns", self.latency_ns.map(|v| v as f64));
        // Serialized unconditionally: a row that somehow skipped the
        // fill still records *that* ("n/a") rather than omitting the key.
        m.push(("dist".into(), Json::Str(self.dist.clone().unwrap_or_else(|| "n/a".into()))));
        opt_num(&mut m, "median_throughput", self.median_throughput);
        opt_num(&mut m, "baseline_throughput", self.baseline_throughput);
        opt_num(&mut m, "ratio", self.ratio);
        opt_num(&mut m, "paper_ratio", self.paper_ratio);
        if let Some(s) = &self.structure {
            m.insert(1, ("structure".into(), Json::Str(s.clone())));
        }
        if !self.repeat_throughputs.is_empty() {
            m.push((
                "repeat_throughputs".into(),
                Json::Arr(self.repeat_throughputs.iter().map(|&t| Json::Num(t)).collect()),
            ));
        }
        if let Some(f) = self.flush {
            m.push((
                "flush".into(),
                Json::Obj(vec![
                    ("clwbs".into(), Json::Num(f.clwbs as f64)),
                    ("fences".into(), Json::Num(f.fences as f64)),
                    ("sync_batches".into(), Json::Num(f.sync_batches as f64)),
                ]),
            ));
        }
        if !self.metrics.is_empty() {
            m.push((
                "metrics".into(),
                Json::Obj(self.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
            ));
        }
        Json::Obj(m)
    }
}

/// The structured result of one experiment (one paper figure/table).
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Registry id, e.g. `"fig5"`.
    pub id: String,
    /// Human title of the experiment.
    pub title: String,
    /// What the figure's axes are — x, y, and normalization.
    pub axes: String,
    /// The measured rows.
    pub measurements: Vec<Measurement>,
}

impl ExperimentReport {
    /// Starts an empty report.
    pub fn new(id: &str, title: &str, axes: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            axes: axes.to_string(),
            measurements: Vec::new(),
        }
    }

    /// Records workload provenance on every measurement: sets the
    /// key-distribution field on rows that have not set one row-locally
    /// and — for non-default distributions — appends ` dist=<label>` to
    /// their labels, so a skewed run's rows are never mistaken for
    /// default ones when two records are lined up on `(id, label)`.
    pub fn fill_dist(&mut self, dist_label: &str) {
        for m in &mut self.measurements {
            if m.dist.is_none() {
                m.dist = Some(dist_label.to_string());
                if dist_label != "uniform" && dist_label != "n/a" {
                    m.label = format!("{} dist={dist_label}", m.label);
                }
            }
        }
    }

    /// The JSON object for this experiment.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            ("axes".into(), Json::Str(self.axes.clone())),
            (
                "measurements".into(),
                Json::Arr(self.measurements.iter().map(|m| m.to_json()).collect()),
            ),
        ])
    }
}

/// The whole `BENCH_results.json` document: provenance + knob values +
/// one report per experiment.
#[derive(Debug, Clone)]
pub struct BenchResults {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// `git rev-parse --short HEAD` of the tree that produced the run
    /// (or `"unknown"` outside a git checkout).
    pub git_rev: String,
    /// Milliseconds since the Unix epoch at collection time.
    pub unix_time_ms: u64,
    /// The knob values the run was collected under (stringified).
    pub knobs: Vec<(String, String)>,
    /// One report per registry experiment, in registry order.
    pub reports: Vec<ExperimentReport>,
}

impl BenchResults {
    /// Assembles the document, stamping provenance (git revision and
    /// wall-clock time) from the environment.
    pub fn collect(knobs: Vec<(String, String)>, reports: Vec<ExperimentReport>) -> Self {
        let unix_time_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self { schema_version: SCHEMA_VERSION, git_rev: git_rev(), unix_time_ms, knobs, reports }
    }

    /// The full JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(self.schema_version as f64)),
            ("crate_version".into(), Json::Str(env!("CARGO_PKG_VERSION").to_string())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("unix_time_ms".into(), Json::Num(self.unix_time_ms as f64)),
            (
                "knobs".into(),
                Json::Obj(
                    self.knobs.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect(),
                ),
            ),
            ("experiments".into(), Json::Arr(self.reports.iter().map(|r| r.to_json()).collect())),
        ])
    }
}

/// Short git revision of the working tree, with a `-dirty` suffix when
/// uncommitted changes exist (so a record is never attributed to a
/// commit that lacks the code that produced it). `GIT_REV` env override
/// first; `"unknown"` when neither is available.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------------
// Human-readable rendering
// ---------------------------------------------------------------------------

/// Renders a report as the aligned text table `bench_all` prints.
/// This is a *view* of the report: nothing is measured here.
pub fn render_text(report: &ExperimentReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {}: {} ==", report.id, report.title);
    let _ = writeln!(out, "axes: {}", report.axes);
    for m in &report.measurements {
        let _ = write!(out, "{:<44}", m.label);
        if let Some(r) = m.ratio {
            let _ = write!(out, " {r:>8.2}x");
            match m.paper_ratio {
                Some(p) => {
                    let _ = write!(out, "  (paper ~{p:.2}x)");
                }
                None => {
                    let _ = write!(out, "  {:14}", "");
                }
            }
            if let (Some(ours), Some(base)) = (m.median_throughput, m.baseline_throughput) {
                let _ = write!(out, "  [ours {ours:>12.0} ops/s vs {base:>12.0}]");
            }
        } else if let Some(t) = m.median_throughput {
            let _ = write!(out, " {t:>14.0} ops/s");
        }
        for (k, v) in &m.metrics {
            let _ = write!(out, "  {k}={v:.4}");
        }
        let _ = writeln!(out);
    }
    out
}

// ---------------------------------------------------------------------------
// Per-PR history of the benchmark's end-to-end metrics
// ---------------------------------------------------------------------------

/// The workloads of `BENCHMARK.json`, in its order.
pub const HISTORY_WORKLOADS: [&str; 5] =
    ["wire_get", "wire_set_burst", "store_read", "store_churn", "restart"];

/// The end-to-end metrics of `BENCHMARK.json`, in its order.
pub const HISTORY_METRICS: [&str; 6] = [
    "setup_s",
    "p50_us",
    "server_cpu_us_per_req",
    "ops_per_s",
    "heap_bytes_per_item",
    "peak_rss_mb",
];

/// The fields of `results.json` copied into a history line as the host
/// stamp: what the run was asked for and what it ran on.
const HISTORY_HOST_STAMP: [&str; 4] = ["seed", "seconds", "cpus", "nvram_write_ns"];

/// Builds one `BENCH_history.jsonl` line from a parsed
/// `benchmark/out/results.json`: the PR number, where the numbers came
/// from, the host stamp, and
/// `workloads.<w>.end_to_end.metrics.<m>.value` for every workload ×
/// end-to-end metric of `BENCHMARK.json`. A document missing any of the
/// 30 numbers (or carrying a non-finite one) is refused — a history
/// line with holes would read as a trajectory and be none.
pub fn history_line(results: &Json, pr: u64, source: &str, git_rev: &str) -> Result<Json, String> {
    let mut line = vec![
        ("pr".to_string(), Json::Num(pr as f64)),
        ("source".to_string(), Json::Str(source.to_string())),
        ("git_rev".to_string(), Json::Str(git_rev.to_string())),
    ];
    for key in HISTORY_HOST_STAMP {
        let v =
            results.get(key).and_then(Json::as_f64).ok_or_else(|| format!("no number `{key}`"))?;
        line.push((key.to_string(), Json::Num(v)));
    }
    let mut workloads = Vec::new();
    for w in HISTORY_WORKLOADS {
        let metrics = results
            .get("workloads")
            .and_then(|ws| ws.get(w)?.get("end_to_end")?.get("metrics"))
            .ok_or_else(|| format!("no `workloads.{w}.end_to_end.metrics`"))?;
        let mut row = Vec::new();
        for m in HISTORY_METRICS {
            let v = metrics
                .get(m)
                .and_then(|x| x.get("value")?.as_f64())
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("no finite `{w}.{m}.value`"))?;
            row.push((m.to_string(), Json::Num(v)));
        }
        workloads.push((w.to_string(), Json::Obj(row)));
    }
    line.push(("workloads".to_string(), Json::Obj(workloads)));
    Ok(Json::Obj(line))
}
