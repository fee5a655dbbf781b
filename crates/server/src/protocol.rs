//! Incremental memcached ASCII-protocol parser.
//!
//! The parser is a pure byte-stream state machine, deliberately
//! decoupled from sockets: bytes go in via [`Parser::feed`] in whatever
//! fragments the transport produced, complete commands come out of
//! [`Parser::next_command`]. Every decision is a function of the *cumulative*
//! consumed stream, never of fragment boundaries, so feeding a request
//! stream one byte at a time yields exactly the same command sequence
//! (and therefore byte-identical responses) as feeding it whole — the
//! property the proptest suite pins down.
//!
//! # Dialect
//!
//! The cache stores `u64 -> u64`, so the wire dialect narrows the
//! memcached grammar accordingly (see `DESIGN.md`):
//!
//! * **Keys** are decimal `u64`s in `[1, u64::MAX]` (key 0 is reserved
//!   by the hash table's sentinel discipline).
//! * **Data blocks** are the decimal ASCII rendering of a `u64`; the
//!   `<bytes>` count frames the block exactly as in memcached, and a
//!   `get` returns the canonical rendering (leading zeros are not
//!   preserved).
//! * `flags` and `exptime` are accepted and ignored (`get` echoes
//!   flags 0); the cache has its own CLOCK eviction (a key read since
//!   the hand last passed its slot survives the pass), not per-item
//!   expiry.
//!
//! Verbs: `set`, `add`, `replace`, `get`/`gets` (multi-key), `delete`,
//! `stats`, `version`, `quit`, all with memcached's `noreply` and error
//! conventions (`ERROR` for unknown commands, `CLIENT_ERROR …` for bad
//! input, `SERVER_ERROR …` for cache-side failures).
//!
//! # Error recovery
//!
//! Like memcached, the parser distinguishes errors that leave the
//! framing intact (a bad key on an otherwise well-formed `set` still
//! has a trustworthy `<bytes>` count, so the data block is swallowed
//! and the error deferred — [`Command::Bad`]) from errors that lose it
//! (a data block not terminated by `\r\n` means the byte stream can no
//! longer be re-synchronized — [`Fatal`], after which the connection
//! must close).

/// Commands longer than this (bytes, excluding the data block) are
/// rejected — bounds per-connection buffering and caps multi-`get`
/// fan-out.
pub const MAX_LINE: usize = 1024;

/// Data blocks longer than this are rejected outright. A valid block
/// (decimal `u64`) is at most 20 bytes; the slack merely lets oversized
/// *well-framed* payloads fail politely with their framing preserved.
pub const MAX_DATA: usize = 16 * 1024;

/// One parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `set <key> <flags> <exptime> <bytes> [noreply]` + data: upsert.
    Set {
        /// The key.
        key: u64,
        /// The decoded data block.
        value: u64,
        /// Suppress the response line.
        noreply: bool,
    },
    /// `add`: store only if absent.
    Add {
        /// The key.
        key: u64,
        /// The decoded data block.
        value: u64,
        /// Suppress the response line.
        noreply: bool,
    },
    /// `replace`: store only if present.
    Replace {
        /// The key.
        key: u64,
        /// The decoded data block.
        value: u64,
        /// Suppress the response line.
        noreply: bool,
    },
    /// `get`/`gets` over one or more keys.
    Get {
        /// The keys, in request order.
        keys: Vec<u64>,
    },
    /// `delete <key> [noreply]`.
    Delete {
        /// The key.
        key: u64,
        /// Suppress the response line.
        noreply: bool,
    },
    /// `stats`: server observability counters.
    Stats,
    /// `stats reshard`: the serving topology and, mid-reshard, the
    /// migration's progress.
    StatsReshard,
    /// `version`.
    Version,
    /// `quit`: close the connection without a response.
    Quit,
    /// A recoverable protocol error: framing is intact, respond with
    /// `line` (unless the offending command said `noreply`) and keep
    /// reading.
    Bad {
        /// The error response line (without the trailing `\r\n`).
        line: &'static str,
        /// The offending command asked for silence.
        noreply: bool,
    },
}

/// An unrecoverable protocol error: the byte stream can no longer be
/// re-synchronized. Respond with the contained line, then close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fatal(pub &'static str);

const BAD_FORMAT: &str = "CLIENT_ERROR bad command line format";
const BAD_KEY: &str = "CLIENT_ERROR key must be a decimal u64 in [1, 2^64)";
const BAD_VALUE: &str = "CLIENT_ERROR value must be a decimal u64";

#[derive(Debug, Clone, Copy)]
enum Verb {
    Set,
    Add,
    Replace,
}

/// A storage command whose line has been parsed but whose data block
/// has not fully arrived. `err` defers line-level validation failures
/// until after the block is swallowed (framing first, diagnostics
/// second).
#[derive(Debug)]
struct PendingStore {
    verb: Verb,
    key: u64,
    nbytes: usize,
    noreply: bool,
    err: Option<&'static str>,
}

/// The incremental parser: a growable buffer plus the data-block
/// continuation state.
#[derive(Debug, Default)]
pub struct Parser {
    buf: Vec<u8>,
    pos: usize,
    pending: Option<PendingStore>,
    dead: bool,
}

impl Parser {
    /// A fresh parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends transport bytes. Fragmentation is irrelevant: only the
    /// cumulative stream matters.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.dead {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Extracts the next complete command, or `Ok(None)` when more
    /// bytes are needed. After an `Err` the parser is dead: further
    /// input is discarded and `next_command` keeps returning
    /// `Ok(None)`.
    pub fn next_command(&mut self) -> Result<Option<Command>, Fatal> {
        if self.dead {
            return Ok(None);
        }
        let r = self.advance();
        if r.is_err() {
            self.dead = true;
            self.buf.clear();
            self.pos = 0;
        } else {
            self.compact();
        }
        r
    }

    /// Reclaims the consumed prefix once it dominates the buffer.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    fn advance(&mut self) -> Result<Option<Command>, Fatal> {
        if let Some(p) = &self.pending {
            // Awaiting a data block: need the block plus its `\r\n`.
            let need = p.nbytes + 2;
            if self.buf.len() - self.pos < need {
                return Ok(None);
            }
            let start = self.pos;
            self.pos += need;
            let p = self.pending.take().expect("checked above");
            if &self.buf[start + p.nbytes..start + p.nbytes + 2] != b"\r\n" {
                return Err(Fatal("CLIENT_ERROR bad data chunk"));
            }
            if let Some(line) = p.err {
                return Ok(Some(Command::Bad { line, noreply: p.noreply }));
            }
            let Some(value) = parse_u64(&self.buf[start..start + p.nbytes]) else {
                return Ok(Some(Command::Bad { line: BAD_VALUE, noreply: p.noreply }));
            };
            return Ok(Some(match p.verb {
                Verb::Set => Command::Set { key: p.key, value, noreply: p.noreply },
                Verb::Add => Command::Add { key: p.key, value, noreply: p.noreply },
                Verb::Replace => Command::Replace { key: p.key, value, noreply: p.noreply },
            }));
        }

        // Command line: terminated by `\n` (optionally preceded by
        // `\r`, which memcached also tolerates for hand-typed input).
        let avail = &self.buf[self.pos..];
        let Some(nl) = avail.iter().take(MAX_LINE + 1).position(|&b| b == b'\n') else {
            if avail.len() > MAX_LINE {
                return Err(Fatal("CLIENT_ERROR line too long"));
            }
            return Ok(None);
        };
        let line_start = self.pos;
        self.pos += nl + 1;
        let mut line = &self.buf[line_start..line_start + nl];
        if let [head @ .., b'\r'] = line {
            line = head;
        }
        match parse_line(line) {
            Parsed::Cmd(c) => Ok(Some(c)),
            Parsed::Fatal(f) => Err(f),
            Parsed::Store(p) => {
                self.pending = Some(p);
                // The data block may already be buffered (pipelined
                // client): consume it in the same call.
                self.advance()
            }
        }
    }
}

enum Parsed {
    Cmd(Command),
    Store(PendingStore),
    Fatal(Fatal),
}

fn parse_line(line: &[u8]) -> Parsed {
    let bad = |line| Parsed::Cmd(Command::Bad { line, noreply: false });
    let Ok(text) = std::str::from_utf8(line) else {
        return bad("ERROR");
    };
    let mut it = text.split_ascii_whitespace();
    let Some(verb) = it.next() else {
        // Blank line.
        return bad("ERROR");
    };
    match verb {
        "set" | "add" | "replace" => {
            let verb = match verb {
                "set" => Verb::Set,
                "add" => Verb::Add,
                _ => Verb::Replace,
            };
            parse_store(verb, it)
        }
        "get" | "gets" => {
            let mut keys = Vec::new();
            for tok in it {
                let Some(key) = parse_key(tok) else {
                    return bad(BAD_KEY);
                };
                keys.push(key);
            }
            if keys.is_empty() {
                return bad("ERROR");
            }
            Parsed::Cmd(Command::Get { keys })
        }
        "delete" => {
            let Some(key_tok) = it.next() else {
                return bad("ERROR");
            };
            let noreply = match it.next() {
                None => false,
                Some("noreply") if it.next().is_none() => true,
                Some(_) => return bad(BAD_FORMAT),
            };
            let Some(key) = parse_key(key_tok) else {
                return Parsed::Cmd(Command::Bad { line: BAD_KEY, noreply });
            };
            Parsed::Cmd(Command::Delete { key, noreply })
        }
        "stats" => match it.next() {
            None => Parsed::Cmd(Command::Stats),
            Some("reshard") if it.next().is_none() => Parsed::Cmd(Command::StatsReshard),
            Some(_) => bad("ERROR"),
        },
        "version" => Parsed::Cmd(Command::Version),
        "quit" => Parsed::Cmd(Command::Quit),
        _ => bad("ERROR"),
    }
}

/// Parses the tail of a storage command line. The `<bytes>` count is
/// validated *first*: without it the data block cannot be skipped and
/// the command degrades to a plain `ERROR` (the next line is treated as
/// a fresh command, exactly like memcached). Every other field failure
/// is deferred past the swallow.
fn parse_store<'t>(verb: Verb, mut it: impl Iterator<Item = &'t str>) -> Parsed {
    let (key_tok, flags, exptime) = (it.next(), it.next(), it.next());
    let Some(nbytes) = it.next().and_then(|t| t.parse::<usize>().ok()) else {
        return Parsed::Cmd(Command::Bad { line: "ERROR", noreply: false });
    };
    if nbytes > MAX_DATA {
        return Parsed::Fatal(Fatal("CLIENT_ERROR object too large for cache"));
    }
    let mut err = None;
    let noreply = match it.next() {
        None => false,
        Some("noreply") if it.next().is_none() => true,
        Some(_) => {
            err = Some(BAD_FORMAT);
            false
        }
    };
    if flags.and_then(|t| t.parse::<u64>().ok()).is_none()
        || exptime.and_then(|t| t.parse::<i64>().ok()).is_none()
    {
        err = Some(BAD_FORMAT);
    }
    let key = match key_tok.and_then(parse_key) {
        Some(k) => k,
        None => {
            err = Some(BAD_KEY);
            0
        }
    };
    Parsed::Store(PendingStore { verb, key, nbytes, noreply, err })
}

/// Decimal `u64`, rejecting empty input, non-digits and overflow.
fn parse_u64(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() || bytes.len() > 20 || !bytes.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

/// A key token: decimal `u64`, excluding the reserved key 0.
fn parse_key(tok: &str) -> Option<u64> {
    match parse_u64(tok.as_bytes()) {
        Some(0) | None => None,
        k => k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `input` fed whole, collecting commands until exhaustion.
    fn parse_all(input: &[u8]) -> (Vec<Command>, Option<Fatal>) {
        let mut p = Parser::new();
        p.feed(input);
        let mut cmds = Vec::new();
        loop {
            match p.next_command() {
                Ok(Some(c)) => cmds.push(c),
                Ok(None) => return (cmds, None),
                Err(f) => return (cmds, Some(f)),
            }
        }
    }

    #[test]
    fn basic_commands_parse() {
        let (cmds, fatal) = parse_all(
            b"set 7 0 0 2\r\n42\r\nget 7 8\r\ndelete 7 noreply\r\nadd 9 1 0 1\r\n5\r\n\
              replace 9 0 0 1 noreply\r\n6\r\nversion\r\nstats\r\nquit\r\n",
        );
        assert_eq!(fatal, None);
        assert_eq!(
            cmds,
            vec![
                Command::Set { key: 7, value: 42, noreply: false },
                Command::Get { keys: vec![7, 8] },
                Command::Delete { key: 7, noreply: true },
                Command::Add { key: 9, value: 5, noreply: false },
                Command::Replace { key: 9, value: 6, noreply: true },
                Command::Version,
                Command::Stats,
                Command::Quit,
            ]
        );
    }

    #[test]
    fn fragmentation_is_invisible() {
        let input = b"set 123 0 0 3\r\n456\r\nget 123\r\n";
        let (whole, _) = parse_all(input);
        for step in 1..input.len() {
            let mut p = Parser::new();
            let mut cmds = Vec::new();
            for chunk in input.chunks(step) {
                p.feed(chunk);
                while let Ok(Some(c)) = p.next_command() {
                    cmds.push(c);
                }
            }
            assert_eq!(cmds, whole, "chunk size {step}");
        }
    }

    #[test]
    fn bad_key_swallows_data_block() {
        // The malformed set still consumes its 3-byte block, so the
        // following get parses cleanly.
        let (cmds, fatal) = parse_all(b"set frog 0 0 3\r\nxyz\r\nget 1\r\n");
        assert_eq!(fatal, None);
        assert_eq!(cmds.len(), 2);
        assert!(matches!(cmds[0], Command::Bad { line, noreply: false } if line == BAD_KEY));
        assert_eq!(cmds[1], Command::Get { keys: vec![1] });
    }

    #[test]
    fn unparseable_bytes_count_degrades_to_error() {
        let (cmds, fatal) = parse_all(b"set 1 0 0 banana\r\nget 2\r\n");
        assert_eq!(fatal, None);
        assert!(matches!(cmds[0], Command::Bad { line: "ERROR", .. }));
        assert_eq!(cmds[1], Command::Get { keys: vec![2] });
    }

    #[test]
    fn bad_data_chunk_is_fatal() {
        let (cmds, fatal) = parse_all(b"set 1 0 0 2\r\n12345\r\n");
        assert!(cmds.is_empty());
        assert_eq!(fatal, Some(Fatal("CLIENT_ERROR bad data chunk")));
    }

    #[test]
    fn dead_parser_ignores_further_input() {
        let mut p = Parser::new();
        p.feed(b"set 1 0 0 2\r\nxx!\r\n");
        assert!(p.next_command().is_err());
        p.feed(b"get 1\r\n");
        assert_eq!(p.next_command(), Ok(None));
    }

    #[test]
    fn overlong_line_is_fatal_even_with_late_newline() {
        let mut long = vec![b'g'; MAX_LINE + 10];
        long.extend_from_slice(b"\r\n");
        let (_, fatal) = parse_all(&long);
        assert_eq!(fatal, Some(Fatal("CLIENT_ERROR line too long")));
        // And without any newline at all.
        let (_, fatal) = parse_all(&vec![b'x'; MAX_LINE + 1]);
        assert_eq!(fatal, Some(Fatal("CLIENT_ERROR line too long")));
    }

    #[test]
    fn key_zero_and_overflow_are_rejected() {
        let (cmds, _) =
            parse_all(b"get 0\r\nget 18446744073709551616\r\nget 18446744073709551615\r\n");
        assert!(matches!(cmds[0], Command::Bad { .. }));
        assert!(matches!(cmds[1], Command::Bad { .. }));
        assert_eq!(cmds[2], Command::Get { keys: vec![u64::MAX] });
    }

    #[test]
    fn noreply_suppression_is_carried_through_deferred_errors() {
        let (cmds, _) = parse_all(b"set 0 0 0 1 noreply\r\nx\r\n");
        assert!(matches!(cmds[0], Command::Bad { noreply: true, .. }));
    }

    #[test]
    fn value_validation_happens_after_framing() {
        let (cmds, fatal) = parse_all(b"set 5 0 0 3\r\nx2z\r\nget 5\r\n");
        assert_eq!(fatal, None);
        assert!(matches!(cmds[0], Command::Bad { line, .. } if line == BAD_VALUE));
        assert_eq!(cmds[1], Command::Get { keys: vec![5] });
    }

    #[test]
    fn oversized_object_is_fatal() {
        let (_, fatal) = parse_all(format!("set 1 0 0 {}\r\n", MAX_DATA + 1).as_bytes());
        assert_eq!(fatal, Some(Fatal("CLIENT_ERROR object too large for cache")));
    }

    #[test]
    fn blank_and_unknown_lines_error_and_recover() {
        let (cmds, fatal) = parse_all(b"\r\nfrobnicate 1 2\r\nget 3\r\n");
        assert_eq!(fatal, None);
        assert!(matches!(cmds[0], Command::Bad { line: "ERROR", .. }));
        assert!(matches!(cmds[1], Command::Bad { line: "ERROR", .. }));
        assert_eq!(cmds[2], Command::Get { keys: vec![3] });
    }
}
