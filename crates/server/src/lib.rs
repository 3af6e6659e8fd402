//! A zero-dependency TCP front end for the nested relational engine.
//!
//! The server speaks a newline-delimited text protocol over
//! `std::net::TcpListener`, one OS thread and one [`nra::Session`] per
//! connection — the session carries the connection's default
//! [`QueryOptions`](nra::QueryOptions) and prepared statements, while
//! the shared [`Database`] behind it provides the catalog (concurrent
//! reads under its `RwLock`), the process-wide plan cache, and the
//! admission controller that bounds total concurrency.
//!
//! # Protocol
//!
//! Requests are single lines of at most 1 MiB (a longer one is answered
//! with an `err protocol:` frame and the connection closed). A line
//! starting with `.` is a command; anything else is executed as SQL:
//!
//! ```text
//! .ping                      liveness probe
//! .session                   one-row result with this connection's session id
//! .set <key> <value>         set a session default: engine,
//!                            timeout_ms, mem_limit
//!                            (value `off`/`auto` resets to the default);
//!                            `threads <n>` is accepted and ignored
//! .prepare <name> <sql>      validate + remember a statement
//! .exec <name>               run a prepared statement
//! .quit                      close the connection
//! select ...                 executed as SQL under the session defaults
//! ```
//!
//! Every response is one of:
//!
//! ```text
//! ok <nrows> <ncols>         success; if ncols > 0 a tab-separated
//! <header line>              header line and nrows tab-separated data
//! <data lines...>            lines follow (tabs/newlines/backslashes
//! .                          escaped); `.` terminates the response
//!
//! err <kind>: <message>      failure (kind = sql | storage | <engine
//! .                          error variant, e.g. admission, cancelled>)
//! ```
//!
//! The framing is identical for commands and SQL so clients need exactly
//! one parser ([`Client`] is that parser, used by the integration tests
//! and the benchmark's wire workloads).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nra::{Database, Engine, QueryOptions, Session};

/// How often a blocked reader wakes up — to check the shutdown flag on
/// the server side, or to re-poll the socket in [`Client`]. Bounds
/// shutdown latency; invisible on the wire otherwise.
const POLL: Duration = Duration::from_millis(100);

/// The longest request line the server buffers, newline excluded. A
/// longer line is answered with one `err protocol:` frame and the
/// connection is closed, so no client can grow server memory unbounded.
const MAX_LINE: usize = 1 << 20;

// ---------------------------------------------------------------------
// Wire format: escaping and response framing shared by server + client.
// ---------------------------------------------------------------------

/// Escapes what is written through it for the tab-separated wire
/// format, straight into the response buffer.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let special = |b: u8| matches!(b, b'\\' | b'\t' | b'\n' | b'\r');
        if !s.bytes().any(special) {
            self.0.push_str(s);
            return Ok(());
        }
        for c in s.chars() {
            match c {
                '\\' => self.0.push_str("\\\\"),
                '\t' => self.0.push_str("\\t"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// Encode an `ok` frame into `buf` (cleared first): status line, header,
/// one line per row, terminator — every field formatted and escaped in
/// place, no intermediate strings.
fn encode_table<D: fmt::Display>(buf: &mut String, columns: &[&str], rows: &[Vec<D>]) {
    use fmt::Write;
    buf.clear();
    // Writing into a `String` cannot fail.
    let _ = writeln!(buf, "ok {} {}", rows.len(), columns.len());
    if !columns.is_empty() {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                buf.push('\t');
            }
            let _ = Escaped(buf).write_str(column);
        }
        buf.push('\n');
        for row in rows {
            for (i, field) in row.iter().enumerate() {
                if i > 0 {
                    buf.push('\t');
                }
                let _ = write!(Escaped(buf), "{field}");
            }
            buf.push('\n');
        }
    }
    buf.push_str(".\n");
}

/// Inverse of [`Escaped`]; unknown escapes pass through verbatim.
fn unescape(field: &str) -> String {
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

/// A parsed `ok` response: column names plus stringified rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

/// Start serving `db` on `addr` (`127.0.0.1:0` picks an ephemeral
/// port). Returns immediately; the accept loop runs on a background
/// thread until [`ServerHandle::shutdown`].
pub fn serve(db: Database, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("nra-server-accept".into())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop.load(Ordering::SeqCst) {
                            // The wake-up connection from shutdown()
                            // (or a client racing it): drop and exit.
                            return;
                        }
                        let session = db.connect();
                        let stop = Arc::clone(&stop);
                        let spawned = std::thread::Builder::new()
                            .name("nra-server-conn".into())
                            .spawn(move || {
                                // Connection errors only affect that
                                // connection; the socket closing is the
                                // ordinary end of a conversation.
                                let _ = Connection::new(stream, session, stop).run();
                            });
                        // Reap the connections that ended, so the list
                        // holds live ones only. A thread the OS refuses
                        // drops this one connection (its socket closes
                        // with the closure) and the loop keeps accepting.
                        let mut conns = conns.lock().unwrap();
                        conns.retain(|h| !h.is_finished());
                        conns.extend(spawned);
                    }
                    Err(_) if stop.load(Ordering::SeqCst) => return,
                    Err(_) => continue,
                }
            })?
    };

    Ok(ServerHandle {
        addr: local_addr,
        stop,
        accept: Some(accept),
        conns,
    })
}

/// Handle to a running server: its address and a clean-shutdown switch.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (resolves the port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the accept loop, and join every connection
    /// thread. In-flight queries finish; blocked readers notice the
    /// flag within one `POLL` interval (100 ms).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle still stops the accept loop (connection
        // threads die with their sockets or at the next poll).
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// The per-connection session defaults, rebuilt into [`QueryOptions`]
/// after every `.set` (mirrors the CLI shell's knobs).
#[derive(Default)]
struct ConnConfig {
    engine: Option<Engine>,
    timeout_ms: Option<u64>,
    mem_limit: Option<u64>,
}

impl ConnConfig {
    fn options(&self) -> QueryOptions {
        let mut opts = QueryOptions::new();
        if let Some(engine) = self.engine {
            opts = opts.engine(engine);
        }
        if let Some(ms) = self.timeout_ms {
            opts = opts.timeout_ms(ms);
        }
        if let Some(bytes) = self.mem_limit {
            opts = opts.mem_limit_bytes(bytes);
        }
        opts
    }
}

struct Connection {
    stream: TcpStream,
    session: Session,
    config: ConnConfig,
    stop: Arc<AtomicBool>,
    /// Bytes received but not yet terminated by a newline.
    pending: Vec<u8>,
    /// The response being encoded; reused from one response to the next.
    out: String,
}

impl Connection {
    fn new(stream: TcpStream, session: Session, stop: Arc<AtomicBool>) -> Connection {
        Connection {
            stream,
            session,
            config: ConnConfig::default(),
            stop,
            pending: Vec::new(),
            out: String::new(),
        }
    }

    fn run(mut self) -> io::Result<()> {
        self.stream.set_read_timeout(Some(POLL))?;
        self.stream.set_nodelay(true).ok();
        loop {
            let line = match self.read_line() {
                Ok(Some(line)) => line,
                Ok(None) => return Ok(()), // EOF or shutdown
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    return self.err("protocol", &e.to_string());
                }
                Err(e) => return Err(e),
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == ".quit" {
                self.ok_empty()?;
                return Ok(());
            }
            self.handle(line)?;
        }
    }

    /// Read one newline-terminated line, polling the shutdown flag
    /// while blocked. `None` means the peer closed or we are shutting
    /// down; a line longer than [`MAX_LINE`] is an `InvalidData` error.
    fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            let newline = self.pending.iter().position(|&b| b == b'\n');
            if newline.unwrap_or(self.pending.len()) > MAX_LINE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("request line longer than {MAX_LINE} bytes"),
                ));
            }
            if let Some(pos) = newline {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop(); // the newline
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.stop.load(Ordering::SeqCst) {
                return Ok(None);
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(None),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn handle(&mut self, line: &str) -> io::Result<()> {
        if let Some(cmd) = line.strip_prefix('.') {
            let (name, args) = cmd.split_once(' ').unwrap_or((cmd, ""));
            let args = args.trim();
            match name {
                "ping" => self.ok_empty(),
                "session" => {
                    encode_table(&mut self.out, &["session"], &[vec![self.session.id()]]);
                    self.send()
                }
                "set" => match self.cmd_set(args) {
                    Ok(()) => self.ok_empty(),
                    Err(msg) => self.err("protocol", &msg),
                },
                "prepare" => match args.split_once(' ') {
                    Some((stmt, sql)) if !sql.trim().is_empty() => {
                        match self.session.prepare(stmt, sql.trim()) {
                            Ok(()) => self.ok_empty(),
                            Err(e) => self.err(e.variant_name(), &e.to_string()),
                        }
                    }
                    _ => self.err("protocol", ".prepare takes a name and a statement"),
                },
                "exec" => match self.session.execute_prepared(args) {
                    Ok(out) => self.ok_outcome(&out),
                    Err(e) => self.err(e.variant_name(), &e.to_string()),
                },
                other => self.err("protocol", &format!("unknown command `.{other}`")),
            }
        } else {
            match self.session.execute(line) {
                Ok(out) => self.ok_outcome(&out),
                Err(e) => self.err(e.variant_name(), &e.to_string()),
            }
        }
    }

    fn cmd_set(&mut self, args: &str) -> Result<(), String> {
        let (key, value) = args
            .split_once(' ')
            .map(|(k, v)| (k, v.trim()))
            .ok_or(".set takes a key and a value")?;
        let off = value.eq_ignore_ascii_case("off") || value.eq_ignore_ascii_case("auto");
        match key {
            "engine" => {
                self.config.engine = if off {
                    None
                } else {
                    Some(Engine::parse(value)?)
                }
            }
            // Accepted and ignored — execution is sequential per query —
            // but still validated. Removed together with the benchmark's
            // `nested_parallel` workload in the benchmark's own change.
            "threads" => {
                if !off {
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("threads takes a count, got `{value}`"))?;
                }
            }
            "timeout_ms" => {
                self.config.timeout_ms = if off {
                    None
                } else {
                    Some(
                        value
                            .parse()
                            .map_err(|_| format!("timeout_ms takes milliseconds, got `{value}`"))?,
                    )
                }
            }
            "mem_limit" => {
                self.config.mem_limit = if off {
                    None
                } else {
                    Some(
                        value
                            .parse()
                            .map_err(|_| format!("mem_limit takes bytes, got `{value}`"))?,
                    )
                }
            }
            other => {
                return Err(format!(
                    "unknown setting `{other}` (engine, threads, timeout_ms, mem_limit)"
                ))
            }
        }
        self.session.set_defaults(self.config.options());
        Ok(())
    }

    fn ok_empty(&mut self) -> io::Result<()> {
        self.stream.write_all(b"ok 0 0\n.\n")?;
        self.stream.flush()
    }

    fn ok_outcome(&mut self, out: &nra::QueryOutcome) -> io::Result<()> {
        let rel = &out.rows;
        encode_table(&mut self.out, &rel.schema().names(), rel.rows());
        self.send()
    }

    fn err(&mut self, kind: &str, message: &str) -> io::Result<()> {
        use fmt::Write;
        self.out.clear();
        let _ = write!(self.out, "err {kind}: ");
        let _ = Escaped(&mut self.out).write_str(message);
        self.out.push_str("\n.\n");
        self.send()
    }

    /// One `write_all` + `flush` per response.
    fn send(&mut self) -> io::Result<()> {
        self.stream.write_all(self.out.as_bytes())?;
        self.stream.flush()
    }
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

/// A synchronous protocol client: one request, one framed response.
/// Used by the integration tests and the benchmark's wire workloads; small
/// enough to reimplement from the protocol docs in any language.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // The same poll cadence the server uses: reads wake up at this
        // interval (and retry) instead of blocking indefinitely in one
        // syscall.
        stream.set_read_timeout(Some(POLL))?;
        Ok(Client {
            stream,
            pending: Vec::new(),
        })
    }

    /// Send one line (SQL or a `.command`) and parse the framed
    /// response. `Ok(Err(..))` is a server-side error (`err` frame);
    /// `Err(..)` is a transport failure.
    pub fn request(&mut self, line: &str) -> io::Result<Result<Response, String>> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;

        let status = self.read_line()?;
        if let Some(rest) = status.strip_prefix("err ") {
            // Drain the terminator.
            let term = self.read_line()?;
            debug_assert_eq!(term, ".");
            return Ok(Err(unescape(rest)));
        }
        let mut parts = status
            .strip_prefix("ok ")
            .ok_or_else(|| bad_frame(&status))?
            .split(' ');
        let nrows: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_frame(&status))?;
        let ncols: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_frame(&status))?;

        let mut columns = Vec::new();
        let mut rows = Vec::with_capacity(nrows);
        if ncols > 0 {
            columns = split_fields(&self.read_line()?);
            for _ in 0..nrows {
                rows.push(split_fields(&self.read_line()?));
            }
        }
        let term = self.read_line()?;
        if term != "." {
            return Err(bad_frame(&term));
        }
        Ok(Ok(Response { columns, rows }))
    }

    /// [`Client::request`] flattened: any failure becomes one error
    /// string (convenient in tests and the bench driver).
    pub fn query(&mut self, line: &str) -> Result<Response, String> {
        match self.request(line) {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(server)) => Err(server),
            Err(io) => Err(format!("transport: {io}")),
        }
    }

    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop();
                return Ok(String::from_utf8_lossy(&line).into_owned());
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn split_fields(line: &str) -> Vec<String> {
    line.split('\t').map(unescape).collect()
}

fn bad_frame(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response frame: {line:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra::storage::Value;

    /// The encoder this crate shipped before the single-buffer writer,
    /// kept as the byte-for-byte reference: one `String` per value, one
    /// per escaped field, one per joined row.
    fn escape(field: &str) -> String {
        let mut out = String::with_capacity(field.len());
        for c in field.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }

    fn ok_table(columns: &[&str], rows: &[Vec<String>]) -> String {
        let mut out = format!("ok {} {}\n", rows.len(), columns.len());
        if !columns.is_empty() {
            let header: Vec<String> = columns.iter().map(|c| escape(c)).collect();
            out.push_str(&header.join("\t"));
            out.push('\n');
            for row in rows {
                let fields: Vec<String> = row.iter().map(|f| escape(f)).collect();
                out.push_str(&fields.join("\t"));
                out.push('\n');
            }
        }
        out.push_str(".\n");
        out
    }

    #[test]
    fn escape_roundtrips() {
        use fmt::Write;
        for s in ["", "plain", "tab\there", "line\nbreak", "back\\slash\r"] {
            let mut wire = String::new();
            Escaped(&mut wire).write_str(s).unwrap();
            assert_eq!(wire, escape(s), "{s:?}");
            assert_eq!(unescape(&wire), s, "{s:?}");
        }
    }

    /// Finished connection threads are reaped at accept time: after 50
    /// sequential connect / query / close cycles the server holds at most
    /// the handles of the connections still closing. The connections are
    /// opened one at a time.
    #[test]
    fn accept_reaps_finished_connections() {
        let server = serve(Database::new(), "127.0.0.1:0").unwrap();
        for _ in 0..50 {
            let mut client = Client::connect(server.addr()).unwrap();
            client.query(".ping").unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let held = server.conns.lock().unwrap().len();
            if held <= 2 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{held} handles held");
            std::thread::sleep(Duration::from_millis(20));
            // Reaping happens at accept: knock once more.
            drop(TcpStream::connect(server.addr()).unwrap());
        }
        server.shutdown();
    }

    #[test]
    fn unknown_escapes_pass_through() {
        assert_eq!(unescape("\\x\\"), "\\x\\");
    }

    #[test]
    fn single_buffer_writer_matches_the_old_encoder_byte_for_byte() {
        let columns = ["t.plain", "t.tab\there", "back\\slash"];
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Null, Value::Decimal(-1205), Value::Date(9298)],
            vec![
                Value::str(""),
                Value::str("a\tb"),
                Value::str("line\nbreak"),
            ],
            vec![
                Value::str("cr\rhere"),
                Value::str("back\\slash"),
                Value::str("it's"),
            ],
            vec![Value::Int(-7), Value::Float(0.5), Value::Bool(true)],
            vec![
                Value::str("\\t literal"),
                Value::str("\u{e9}\t\u{4e16}"),
                Value::Int(0),
            ],
        ];
        let stringified: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        // A non-empty buffer must be overwritten, not appended to.
        let mut buf = "stale".to_string();
        encode_table(&mut buf, &columns, &rows);
        assert_eq!(buf, ok_table(&columns, &stringified));

        // Zero columns and zero rows frame the same way too.
        encode_table::<Value>(&mut buf, &[], &[]);
        assert_eq!(buf, ok_table(&[], &[]));
        encode_table::<Value>(&mut buf, &["only.header"], &[]);
        assert_eq!(buf, ok_table(&["only.header"], &[]));
        // `.session`: a bare integer renders as its decimal digits.
        encode_table(&mut buf, &["session"], &[vec![42u64]]);
        assert_eq!(buf, ok_table(&["session"], &[vec!["42".to_string()]]));
    }
}
