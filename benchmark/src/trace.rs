//! Spans of the traced run: one per call into a layer, kept in a
//! preallocated buffer and written out when the run ends.
//!
//! Every rung of the ladder replays the same requests, so a span's
//! `id` (the request's index in the stream) links the spans of one
//! request across rungs, and `parent` names the rung that would have
//! called this one in the assembled server. `start_ns`/`end_ns` count
//! from the start of that rung's replay. Only the first [`KEEP`]
//! requests of each rung are kept; the metrics use every call.

use std::io::{BufWriter, Write};
use std::path::Path;

/// Requests per rung whose spans are written out.
pub const KEEP: usize = 5_000;

struct Span {
    name: &'static str,
    parent: &'static str,
    id: usize,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
pub struct Spans {
    keep: usize,
    buf: Vec<Span>,
}

impl Spans {
    /// Tracing off: `record` does nothing.
    pub fn off() -> Spans {
        Spans::default()
    }

    /// Room for `rungs` rungs of [`KEEP`] spans each.
    pub fn on(rungs: usize) -> Spans {
        Spans { keep: KEEP, buf: Vec::with_capacity(rungs * KEEP) }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        id: usize,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if id < self.keep && self.buf.len() < self.buf.capacity() {
            self.buf.push(Span { name, parent, id, start_ns, end_ns });
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.buf {
            writeln!(
                out,
                r#"{{"name": "{}", "id": {}, "parent": "{}", "start_ns": {}, "end_ns": {}}}"#,
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
