//! Incremental reader of one connection's response stream.
//!
//! The server answers a connection's requests in order, so responses
//! are matched first-in first-out: the caller names the kind of the
//! oldest unanswered request and gets its [`Reply`] once every byte of
//! it has arrived, however the transport cut the stream.

use crate::gen::{Kind, Reply};

#[derive(Default)]
pub struct Matcher {
    buf: Vec<u8>,
    pos: usize,
}

impl Matcher {
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 1 << 16 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The reply to the oldest unanswered request, of kind `kind`, or
    /// `None` while it is incomplete.
    pub fn next(&mut self, kind: Kind) -> Option<Reply> {
        let (line, after) = self.line_at(self.pos)?;
        let reply = match kind {
            Kind::Set if line == b"STORED" => Reply::Stored,
            Kind::Get if line == b"END" => Reply::Miss,
            Kind::Get if line.starts_with(b"VALUE ") => {
                // VALUE <key> <flags> <bytes>\r\n<data>\r\nEND\r\n
                let Some((key, len)) = parse_value_header(line) else {
                    self.pos = after;
                    return Some(Reply::Other);
                };
                let data_end = after + len;
                let (end_line, end) = self.line_at(data_end + 2)?;
                let data = &self.buf[after..data_end];
                let framed = &self.buf[data_end..data_end + 2] == b"\r\n" && end_line == b"END";
                let reply = match parse_u64(data) {
                    Some(value) if framed => Reply::Hit { key, value },
                    _ => Reply::Other,
                };
                self.pos = end;
                return Some(reply);
            }
            _ => Reply::Other,
        };
        self.pos = after;
        Some(reply)
    }

    /// The `\r\n`-terminated line starting at `from` and the offset
    /// just past its terminator, if all of it has arrived.
    fn line_at(&self, from: usize) -> Option<(&[u8], usize)> {
        let rest = self.buf.get(from..)?;
        let nl = rest.windows(2).position(|w| w == b"\r\n")?;
        Some((&rest[..nl], from + nl + 2))
    }
}

fn parse_value_header(line: &[u8]) -> Option<(u64, usize)> {
    let mut fields = line.split(|&b| b == b' ').skip(1);
    let key = parse_u64(fields.next()?)?;
    let _flags = fields.next()?;
    // A u64 renders in at most 20 digits; a longer block is not ours.
    let len = parse_u64(fields.next()?).filter(|&n| n <= 20)? as usize;
    Some((key, len))
}

fn parse_u64(digits: &[u8]) -> Option<u64> {
    std::str::from_utf8(digits).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &[u8] = b"STORED\r\nVALUE 17 0 10\r\n1234567890\r\nEND\r\nEND\r\n\
        SERVER_ERROR out of memory storing object\r\nVALUE 3 0 1\r\n7\r\nEND\r\nSTORED\r\n";
    const KINDS: [Kind; 6] = [Kind::Set, Kind::Get, Kind::Get, Kind::Set, Kind::Get, Kind::Set];

    fn expected() -> Vec<Reply> {
        vec![
            Reply::Stored,
            Reply::Hit { key: 17, value: 1_234_567_890 },
            Reply::Miss,
            Reply::Other,
            Reply::Hit { key: 3, value: 7 },
            Reply::Stored,
        ]
    }

    fn drain(m: &mut Matcher, next: &mut usize, out: &mut Vec<Reply>) {
        while *next < KINDS.len() {
            let Some(r) = m.next(KINDS[*next]) else { break };
            out.push(r);
            *next += 1;
        }
    }

    #[test]
    fn matches_hits_misses_and_errors_in_order() {
        let (mut m, mut next, mut out) = (Matcher::default(), 0, Vec::new());
        m.feed(STREAM);
        drain(&mut m, &mut next, &mut out);
        assert_eq!(out, expected());
        assert_eq!(m.next(Kind::Get), None);
    }

    #[test]
    fn a_split_at_every_byte_boundary_changes_nothing() {
        for cut in 0..=STREAM.len() {
            let (mut m, mut next, mut out) = (Matcher::default(), 0, Vec::new());
            for part in [&STREAM[..cut], &STREAM[cut..]] {
                m.feed(part);
                drain(&mut m, &mut next, &mut out);
            }
            assert_eq!(out, expected(), "cut at {cut}");
        }
        let (mut m, mut next, mut out) = (Matcher::default(), 0, Vec::new());
        for byte in STREAM {
            m.feed(std::slice::from_ref(byte));
            drain(&mut m, &mut next, &mut out);
        }
        assert_eq!(out, expected());
    }

    #[test]
    fn a_reply_of_the_wrong_kind_or_shape_is_other() {
        let mut m = Matcher::default();
        m.feed(b"END\r\nSTORED\r\nVALUE x 0 1\r\nVALUE 1 0 2\r\n7\r\nEND\r\nVALUE 1 0 2\r\n7");
        assert_eq!(m.next(Kind::Set), Some(Reply::Other));
        assert_eq!(m.next(Kind::Get), Some(Reply::Other));
        assert_eq!(m.next(Kind::Get), Some(Reply::Other));
        assert_eq!(m.next(Kind::Get), Some(Reply::Other));
        assert_eq!(m.next(Kind::Get), None);
    }
}
