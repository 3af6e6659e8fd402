//! The benchmark's own client for the server's line protocol.
//!
//! The load generator speaks to `nra_server::serve` over a raw
//! `TcpStream` and parses frames itself, so the client side of every
//! end-to-end number is the same code on every commit — a change to
//! `nra_server::Client` cannot move the numbers.
//!
//! Protocol (see `crates/server`): a request is one line; a response is
//! `ok <nrows> <ncols>`, then (when `ncols > 0`) one tab-separated header
//! line and `nrows` tab-separated data lines, then a lone `.`; or
//! `err <kind>: <message>` followed by a lone `.`. Tabs, newlines,
//! carriage returns and backslashes inside fields are backslash-escaped,
//! so a data row is always exactly one line and is counted, never
//! pattern-matched — a one-column row whose value is `.` is data.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    Ok {
        rows: usize,
        cols: usize,
        /// Order-independent digest of the data rows, when requested.
        digest: Option<u64>,
    },
    /// An `err` frame: `<kind>: <message>`, unescaped.
    Err(String),
}

/// FNV-1a over the row's fields, with a unit separator between fields so
/// `("ab", "c")` and `("a", "bc")` differ.
pub fn row_hash<'a>(fields: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for f in fields {
        f.bytes().for_each(&mut eat);
        eat(0x1f);
    }
    h
}

/// Fold a row hash into an order-independent digest.
pub fn fold_digest(digest: u64, row: u64) -> u64 {
    digest.wrapping_add(row)
}

/// Inverse of the server's field escaping; unknown escapes pass through.
pub fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn bad_frame(what: &str, line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response frame ({what}): {line:?}"),
    )
}

/// Read one line into `buf` (cleared first), without its newline.
fn read_line<R: BufRead>(r: &mut R, buf: &mut String) -> io::Result<()> {
    buf.clear();
    if r.read_line(buf)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-response",
        ));
    }
    if buf.ends_with('\n') {
        buf.pop();
    }
    Ok(())
}

/// Parse one response frame from `r`. `buf` is scratch space reused
/// across calls. Data rows are counted; they are unescaped and hashed
/// only when `want_digest` is set.
pub fn read_frame<R: BufRead>(r: &mut R, buf: &mut String, want_digest: bool) -> io::Result<Frame> {
    read_line(r, buf)?;
    if let Some(rest) = buf.strip_prefix("err ") {
        let message = unescape(rest);
        read_line(r, buf)?;
        if buf != "." {
            return Err(bad_frame("err terminator", buf));
        }
        return Ok(Frame::Err(message));
    }
    let (rows, cols) = buf
        .strip_prefix("ok ")
        .and_then(|s| s.split_once(' '))
        .and_then(|(n, c)| Some((n.parse::<usize>().ok()?, c.parse::<usize>().ok()?)))
        .ok_or_else(|| bad_frame("status line", buf))?;
    let mut digest = want_digest.then_some(0u64);
    if cols > 0 {
        read_line(r, buf)?; // header
        for _ in 0..rows {
            read_line(r, buf)?;
            if let Some(d) = &mut digest {
                let fields: Vec<String> = buf.split('\t').map(unescape).collect();
                if fields.len() != cols {
                    return Err(bad_frame("field count", buf));
                }
                *d = fold_digest(*d, row_hash(fields.iter().map(String::as_str)));
            }
        }
    }
    read_line(r, buf)?;
    if buf != "." {
        return Err(bad_frame("terminator", buf));
    }
    Ok(Frame::Ok { rows, cols, digest })
}

/// A closed-loop protocol client: one request, one framed response.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    buf: String,
    out: Vec<u8>,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            reader: BufReader::with_capacity(64 * 1024, stream),
            buf: String::new(),
            out: Vec::new(),
        })
    }

    /// Send one request line and read its response.
    pub fn request(&mut self, line: &str, want_digest: bool) -> io::Result<Frame> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.reader.get_mut().write_all(&self.out)?;
        read_frame(&mut self.reader, &mut self.buf, want_digest)
    }

    /// Send a `.command` that must answer `ok`.
    pub fn command(&mut self, line: &str) -> io::Result<()> {
        match self.request(line, false)? {
            Frame::Ok { .. } => Ok(()),
            Frame::Err(e) => Err(io::Error::other(format!("`{line}` refused: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &str, want_digest: bool) -> io::Result<Frame> {
        read_frame(
            &mut Cursor::new(bytes.as_bytes()),
            &mut String::new(),
            want_digest,
        )
    }

    #[test]
    fn ok_frame_counts_rows_and_consumes_terminator() {
        let mut cur = Cursor::new(b"ok 2 2\na\tb\n1\tx\n2\ty\n.\nok 0 0\n.\n".as_slice());
        let mut buf = String::new();
        assert_eq!(
            read_frame(&mut cur, &mut buf, false).unwrap(),
            Frame::Ok {
                rows: 2,
                cols: 2,
                digest: None
            }
        );
        // The next frame starts cleanly after the first one's `.`.
        assert_eq!(
            read_frame(&mut cur, &mut buf, false).unwrap(),
            Frame::Ok {
                rows: 0,
                cols: 0,
                digest: None
            }
        );
    }

    #[test]
    fn a_data_row_that_is_a_lone_dot_is_not_the_terminator() {
        let f = parse("ok 2 1\nv\n.\n.\n.\n", true).unwrap();
        let expect = fold_digest(row_hash(["."].into_iter()), row_hash(["."].into_iter()));
        assert_eq!(
            f,
            Frame::Ok {
                rows: 2,
                cols: 1,
                digest: Some(expect)
            }
        );
        // One row short: the terminator is consumed as data and EOF follows.
        assert!(parse("ok 2 1\nv\n.\n.\n", false).is_err());
    }

    #[test]
    fn escaped_tabs_stay_inside_their_field() {
        let f = parse("ok 1 2\na\tb\nx\\ty\tz\\\\n\n.\n", true).unwrap();
        let expect = row_hash(["x\ty", "z\\n"].into_iter());
        assert_eq!(
            f,
            Frame::Ok {
                rows: 1,
                cols: 2,
                digest: Some(expect)
            }
        );
        assert_eq!(unescape("a\\tb\\nc\\rd\\\\e\\x\\"), "a\tb\nc\rd\\e\\x\\");
    }

    #[test]
    fn digest_ignores_row_order_but_not_field_boundaries() {
        let a = parse("ok 2 1\nv\n1\n2\n.\n", true).unwrap();
        let b = parse("ok 2 1\nv\n2\n1\n.\n", true).unwrap();
        assert_eq!(a, b);
        assert_ne!(
            row_hash(["ab", "c"].into_iter()),
            row_hash(["a", "bc"].into_iter())
        );
    }

    #[test]
    fn err_frame_is_returned_unescaped() {
        assert_eq!(
            parse("err sql: bad\\ttoken\n.\n", false).unwrap(),
            Frame::Err("sql: bad\ttoken".into())
        );
        assert!(parse("err sql: x\nok 0 0\n", false).is_err());
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        for bad in ["", "hello\n.\n", "ok x 1\n.\n", "ok 1\n.\n", "ok 0 0\n..\n"] {
            assert!(parse(bad, false).is_err(), "{bad:?}");
        }
        // Wrong field count is caught when rows are decoded.
        assert!(parse("ok 1 2\na\tb\nonly\n.\n", true).is_err());
    }
}
