//! Span recording for the traced run.
//!
//! The benchmark records one span per boundary call from its own side of
//! each public entry point: it runs the same request once at each nesting
//! level (over the wire, through `Session::execute`, then the SQL and core
//! entry points directly) and parents the spans by construction. The
//! spans of one request therefore run one after another, not inside one
//! another; a layer's self time is its span's duration minus its
//! children's durations. Spans are kept in memory and written as JSONL
//! when the run ends. Spans inside the engine are a later change.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names, outermost first. A span's parent is fixed by its name.
pub const SPANS: [(&str, Option<&str>); 14] = [
    ("server.roundtrip", None),
    ("session.execute", Some("server.roundtrip")),
    ("sql.normalize", Some("session.execute")),
    ("sql.parse", Some("session.execute")),
    ("sql.bind", Some("session.execute")),
    ("core.execute", Some("session.execute")),
    ("core.plan", Some("core.execute")),
    ("core.unnest_join", Some("core.execute")),
    ("durable.insert", None),
    ("wal.append", Some("durable.insert")),
    ("storage.insert", Some("durable.insert")),
    ("durable.open", None),
    ("disk.load_snapshot", Some("durable.open")),
    ("wal.replay", Some("durable.open")),
];

fn parent_of(name: &str) -> Option<&'static str> {
    SPANS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("span `{name}` is not declared in trace.rs"))
        .1
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span buffer. One per client thread; merge at the end.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of a run share `epoch` so their timestamps compare.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Run `f` as span `name` of request `req`.
    pub fn span<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        debug_assert!(SPANS.iter().any(|(n, _)| *n == name), "{name}");
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            req,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Per-span-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the children's totals, per request, floored at zero
    /// (a child measured slower than its parent is noise, not negative
    /// work).
    pub self_ns: u64,
}

/// Every span with its self time: its duration minus the durations of the
/// spans of the same request whose parent it is, floored at zero.
fn with_self_ns(spans: &[Span]) -> Vec<(&Span, u64)> {
    let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(s);
    }
    let mut out = Vec::with_capacity(spans.len());
    for group in by_req.values() {
        for s in group {
            let children: u64 = group
                .iter()
                .filter(|c| parent_of(c.name) == Some(s.name))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            out.push((*s, (s.end_ns - s.start_ns).saturating_sub(children)));
        }
    }
    out
}

/// Totals per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotal> {
    let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    for (s, self_ns) in with_self_ns(spans) {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    totals
}

/// Sum of self times per request, in ns. When every child fits inside its
/// parent this is the request's root span.
pub fn self_sum_per_request(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut sums = BTreeMap::new();
    for (s, self_ns) in with_self_ns(spans) {
        *sums.entry(s.req).or_default() += self_ns;
    }
    sums
}

/// Sum of all self times over the sum of the root spans: 1.0 when every
/// child fits inside its parent, above it by however much children
/// measured separately overshoot.
pub fn self_sum_ratio(totals: &BTreeMap<&'static str, SpanTotal>) -> f64 {
    let roots: u64 = totals
        .iter()
        .filter(|(name, _)| parent_of(name).is_none())
        .map(|(_, t)| t.total_ns)
        .sum();
    let selfs: u64 = totals.values().map(|t| t.self_ns).sum();
    selfs as f64 / roots.max(1) as f64
}

/// Write spans as JSONL: `{req, span, parent, start_ns, end_ns}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = match parent_of(s.name) {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            w,
            "{{\"req\": {}, \"span\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_request() {
        let spans = [
            span(1, "server.roundtrip", 0, 100),
            span(1, "session.execute", 100, 180),
            span(1, "core.execute", 180, 230),
            span(1, "core.unnest_join", 230, 250),
            // A second request must not leak into the first one's sums.
            span(2, "server.roundtrip", 300, 310),
            span(2, "session.execute", 310, 330), // child overshoots parent
        ];
        let t = self_times(&spans);
        assert_eq!(t["server.roundtrip"].count, 2);
        assert_eq!(t["server.roundtrip"].total_ns, 110);
        // req 1: 100 - 80 = 20; req 2: 10 - 20 floors at 0.
        assert_eq!(t["server.roundtrip"].self_ns, 20);
        // req 1: 80 - 50 = 30; req 2: 20.
        assert_eq!(t["session.execute"].self_ns, 50);
        assert_eq!(t["core.execute"].self_ns, 30);
        assert_eq!(t["core.unnest_join"].self_ns, 20);
        // (20 + 50 + 30 + 20) / 110
        assert!((self_sum_ratio(&t) - 120.0 / 110.0).abs() < 1e-12);
        let per_request = self_sum_per_request(&spans);
        assert_eq!(per_request[&1], 100);
        assert_eq!(per_request[&2], 20);
    }

    #[test]
    fn every_declared_parent_is_itself_declared() {
        for (_, parent) in SPANS {
            if let Some(p) = parent {
                assert!(SPANS.iter().any(|(n, _)| n == &p), "{p}");
            }
        }
    }
}
