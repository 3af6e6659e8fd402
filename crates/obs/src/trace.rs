//! Query-lifecycle tracing: hierarchical spans with typed, structured
//! events, emitted through pluggable [`TraceSink`]s.
//!
//! Where the sibling profile collector ([`crate::Profile`]) answers *how
//! much* each operator did, tracing answers *what happened and why* across
//! the whole front-to-back pipeline: lex → parse → bind → block analysis →
//! strategy selection → rewrite → execute. The instrumented layers emit
//! [`TraceEvent`]s — `QueryStart`, `Parsed`, `Bound`, `StrategyChosen`
//! (with the planner's reason and the rejected alternatives),
//! `RewriteStep`, per-phase `PhaseStart`/`PhaseDone`, per-operator `Op`
//! (sharing the profile's qualified names, so traces and profiles
//! correlate), and `QueryEnd` — at a nesting depth maintained by the
//! thread-local tracer.
//!
//! Three sinks ship with the crate:
//!
//! * [`RingSink`] — an in-memory ring buffer, read back as a [`Trace`]
//!   (used by `Database::trace_query` and tests);
//! * [`StderrSink`] — a pretty indented tree on stderr (`NRA_TRACE=1`);
//! * [`JsonlSink`] — one JSON object per event appended to a file
//!   (`NRA_TRACE_FILE=path`).
//!
//! Like the profile collector, tracing is disabled by default and costs a
//! single thread-local check per potential event when off — event
//! construction is behind closures that never run while disabled.
//!
//! ```
//! use nra_obs::trace::{self, RingSink, TraceEvent};
//!
//! let (sink, handle) = RingSink::with_capacity(64);
//! trace::start(vec![Box::new(sink)]);
//! trace::emit(|| TraceEvent::QueryStart { sql: "select 1".into() });
//! {
//!     let mut ph = trace::phase(|| "parse".to_string());
//!     ph.set_rows(1);
//! }
//! trace::stop();
//! let t = handle.take();
//! assert_eq!(t.entries.len(), 3); // QueryStart, PhaseStart, PhaseDone
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use crate::json;

/// A typed event in the life of one query.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The query text enters the pipeline.
    QueryStart { sql: String },
    /// Lexing + parsing succeeded; `tokens` is the lexer's token count.
    Parsed { tokens: usize },
    /// Binding succeeded: block count and the linking operators in
    /// depth-first order (`LinkOp::describe` strings).
    Bound {
        blocks: usize,
        linking_ops: Vec<String>,
    },
    /// The planner picked a strategy for one query block, with the reason
    /// and every rejected alternative `(name, why it was rejected)`.
    StrategyChosen {
        block: usize,
        name: String,
        reason: String,
        alternatives: Vec<(String, String)>,
    },
    /// An algebraic rewrite was applied, shrinking (or reshaping) the
    /// operator tree from `nodes_before` to `nodes_after` nodes.
    RewriteStep {
        rule: String,
        nodes_before: usize,
        nodes_after: usize,
    },
    /// A pipeline phase (or execution scope, e.g. a query block `b2`)
    /// opened; subsequent events nest one level deeper until its
    /// `PhaseDone`.
    PhaseStart { phase: String },
    /// The matching phase closed, with its wall time and (when known) the
    /// rows it produced.
    PhaseDone {
        phase: String,
        wall_ns: u64,
        rows: Option<u64>,
    },
    /// The planner granted the executor a data-parallelism budget:
    /// `threads` workers over at most `partitions` hash/morsel partitions,
    /// with the reason for the choice (or for staying sequential).
    Parallelism {
        threads: usize,
        partitions: usize,
        reason: String,
    },
    /// One operator span finished (same qualified names as
    /// [`crate::Profile`], so traces and profiles correlate by name).
    Op {
        name: String,
        wall_ns: u64,
        rows_in: u64,
        rows_out: u64,
    },
    /// The resource governor intervened or reported: `action` is one of
    /// `cancelled`, `resource-exhausted`, `fault-injected`, or
    /// `mem-high-water` (the per-query memory high-water mark, emitted
    /// once at query end for every governed query); `detail` names the
    /// phase or fault site where it happened, or carries the byte count.
    Governor { action: String, detail: String },
    /// Per-query cardinality-feedback summary: over the `nodes` plan
    /// nodes with both an estimate and a measured actual, the maximum and
    /// mean Q-error (`max(est/act, act/est)`, scaled by 100 — a perfect
    /// plan scores 100/100).
    QErrorSummary {
        nodes: usize,
        max_x100: u64,
        mean_x100: u64,
    },
    /// The query finished with `rows` result tuples.
    QueryEnd { rows: u64, wall_ns: u64 },
}

impl TraceEvent {
    /// Snake-case discriminator used as the JSONL `event` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::QueryStart { .. } => "query_start",
            TraceEvent::Parsed { .. } => "parsed",
            TraceEvent::Bound { .. } => "bound",
            TraceEvent::StrategyChosen { .. } => "strategy_chosen",
            TraceEvent::RewriteStep { .. } => "rewrite_step",
            TraceEvent::PhaseStart { .. } => "phase_start",
            TraceEvent::PhaseDone { .. } => "phase_done",
            TraceEvent::Parallelism { .. } => "parallelism",
            TraceEvent::Op { .. } => "op",
            TraceEvent::Governor { .. } => "governor",
            TraceEvent::QErrorSummary { .. } => "qerror_summary",
            TraceEvent::QueryEnd { .. } => "query_end",
        }
    }

    /// One JSON object (no trailing newline) carrying the depth and every
    /// event field.
    pub fn to_json(&self, depth: usize) -> String {
        let mut out = format!("{{\"depth\": {depth}, \"event\": \"{}\"", self.kind());
        match self {
            TraceEvent::QueryStart { sql } => {
                out.push_str(", \"sql\": ");
                json::write_string(&mut out, sql);
            }
            TraceEvent::Parsed { tokens } => out.push_str(&format!(", \"tokens\": {tokens}")),
            TraceEvent::Bound {
                blocks,
                linking_ops,
            } => {
                out.push_str(&format!(", \"blocks\": {blocks}, \"linking_ops\": ["));
                for (i, op) in linking_ops.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    json::write_string(&mut out, op);
                }
                out.push(']');
            }
            TraceEvent::StrategyChosen {
                block,
                name,
                reason,
                alternatives,
            } => {
                out.push_str(&format!(", \"block\": {block}, \"name\": "));
                json::write_string(&mut out, name);
                out.push_str(", \"reason\": ");
                json::write_string(&mut out, reason);
                out.push_str(", \"alternatives\": [");
                for (i, (alt, why)) in alternatives.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"name\": ");
                    json::write_string(&mut out, alt);
                    out.push_str(", \"reason\": ");
                    json::write_string(&mut out, why);
                    out.push('}');
                }
                out.push(']');
            }
            TraceEvent::RewriteStep {
                rule,
                nodes_before,
                nodes_after,
            } => {
                out.push_str(", \"rule\": ");
                json::write_string(&mut out, rule);
                out.push_str(&format!(
                    ", \"nodes_before\": {nodes_before}, \"nodes_after\": {nodes_after}"
                ));
            }
            TraceEvent::PhaseStart { phase } => {
                out.push_str(", \"phase\": ");
                json::write_string(&mut out, phase);
            }
            TraceEvent::PhaseDone {
                phase,
                wall_ns,
                rows,
            } => {
                out.push_str(", \"phase\": ");
                json::write_string(&mut out, phase);
                out.push_str(&format!(", \"wall_ns\": {wall_ns}, \"rows\": "));
                match rows {
                    Some(n) => out.push_str(&n.to_string()),
                    None => out.push_str("null"),
                }
            }
            TraceEvent::Parallelism {
                threads,
                partitions,
                reason,
            } => {
                out.push_str(&format!(
                    ", \"threads\": {threads}, \"partitions\": {partitions}, \"reason\": "
                ));
                json::write_string(&mut out, reason);
            }
            TraceEvent::Op {
                name,
                wall_ns,
                rows_in,
                rows_out,
            } => {
                out.push_str(", \"name\": ");
                json::write_string(&mut out, name);
                out.push_str(&format!(
                    ", \"wall_ns\": {wall_ns}, \"rows_in\": {rows_in}, \"rows_out\": {rows_out}"
                ));
            }
            TraceEvent::Governor { action, detail } => {
                out.push_str(", \"action\": ");
                json::write_string(&mut out, action);
                out.push_str(", \"detail\": ");
                json::write_string(&mut out, detail);
            }
            TraceEvent::QErrorSummary {
                nodes,
                max_x100,
                mean_x100,
            } => {
                out.push_str(&format!(
                    ", \"nodes\": {nodes}, \"max_x100\": {max_x100}, \"mean_x100\": {mean_x100}"
                ));
            }
            TraceEvent::QueryEnd { rows, wall_ns } => {
                out.push_str(&format!(", \"rows\": {rows}, \"wall_ns\": {wall_ns}"));
            }
        }
        out.push('}');
        out
    }
}

/// Render nanoseconds human-readably (`421ns`, `3.1µs`, `12.4ms`, `1.73s`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::QueryStart { sql } => write!(f, "● query: {sql}"),
            TraceEvent::Parsed { tokens } => write!(f, "· parsed: {tokens} token(s)"),
            TraceEvent::Bound {
                blocks,
                linking_ops,
            } => {
                write!(f, "· bound: {blocks} block(s)")?;
                if !linking_ops.is_empty() {
                    write!(f, "; links: {}", linking_ops.join(", "))?;
                }
                Ok(())
            }
            TraceEvent::StrategyChosen {
                block,
                name,
                reason,
                alternatives,
            } => {
                write!(f, "· strategy[b{block}]: {name} — {reason}")?;
                for (alt, why) in alternatives {
                    write!(f, "; rejected {alt}: {why}")?;
                }
                Ok(())
            }
            TraceEvent::RewriteStep {
                rule,
                nodes_before,
                nodes_after,
            } => write!(
                f,
                "· rewrite {rule}: {nodes_before} → {nodes_after} node(s)"
            ),
            TraceEvent::PhaseStart { phase } => write!(f, "▶ {phase}"),
            TraceEvent::PhaseDone {
                phase,
                wall_ns,
                rows,
            } => {
                write!(f, "◀ {phase} done in {}", fmt_ns(*wall_ns))?;
                if let Some(n) = rows {
                    write!(f, ", rows={n}")?;
                }
                Ok(())
            }
            TraceEvent::Parallelism {
                threads,
                partitions,
                reason,
            } => write!(
                f,
                "· parallel: {threads} thread(s) × {partitions} partition(s) — {reason}"
            ),
            TraceEvent::Op {
                name,
                wall_ns,
                rows_in,
                rows_out,
            } => write!(
                f,
                "• op {name}: rows {rows_in}→{rows_out} in {}",
                fmt_ns(*wall_ns)
            ),
            TraceEvent::Governor { action, detail } => {
                write!(f, "⚠ governor: {action} at `{detail}`")
            }
            TraceEvent::QErrorSummary {
                nodes,
                max_x100,
                mean_x100,
            } => write!(
                f,
                "· q-error: {nodes} node(s), max ×{:.1}, mean ×{:.1}",
                *max_x100 as f64 / 100.0,
                *mean_x100 as f64 / 100.0
            ),
            TraceEvent::QueryEnd { rows, wall_ns } => {
                write!(f, "● done: {rows} row(s) in {}", fmt_ns(*wall_ns))
            }
        }
    }
}

/// Where trace events go. `depth` is the nesting level of the event in the
/// span tree (0 = top level).
pub trait TraceSink {
    fn emit(&mut self, depth: usize, event: &TraceEvent);
    /// Called when the tracer is stopped (flush buffered output).
    fn finish(&mut self) {}
}

/// One recorded event with its tree depth.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    pub depth: usize,
    pub event: TraceEvent,
}

/// A finished trace: the recorded entries in emission order (plus how many
/// were dropped if the ring overflowed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub entries: Vec<TraceEntry>,
    pub dropped: u64,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The events in order, without depths.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.entries.iter().map(|e| &e.event)
    }

    /// Wall time of the first completed phase with this name.
    pub fn phase_wall_ns(&self, name: &str) -> Option<u64> {
        self.events().find_map(|e| match e {
            TraceEvent::PhaseDone { phase, wall_ns, .. } if phase == name => Some(*wall_ns),
            _ => None,
        })
    }

    /// Every `StrategyChosen` event, in order.
    pub fn strategy_events(&self) -> Vec<&TraceEvent> {
        self.events()
            .filter(|e| matches!(e, TraceEvent::StrategyChosen { .. }))
            .collect()
    }

    /// Pretty indented tree (same layout as [`StderrSink`] prints live).
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            for _ in 0..entry.depth {
                out.push_str("  ");
            }
            out.push_str(&entry.event.to_string());
            out.push('\n');
        }
        if self.dropped > 0 {
            out.push_str(&format!("({} earlier event(s) dropped)\n", self.dropped));
        }
        out
    }

    /// JSONL: one event object per line, in order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&entry.event.to_json(entry.depth));
            out.push('\n');
        }
        out
    }
}

struct RingBuf {
    cap: usize,
    entries: VecDeque<TraceEntry>,
    dropped: u64,
}

/// In-memory ring-buffer sink. Create with [`RingSink::with_capacity`],
/// install the sink, and read the recorded [`Trace`] back through the
/// returned [`RingHandle`] after stopping the tracer.
pub struct RingSink {
    buf: Rc<RefCell<RingBuf>>,
}

/// Reader side of a [`RingSink`].
pub struct RingHandle {
    buf: Rc<RefCell<RingBuf>>,
}

impl RingSink {
    /// A ring of at most `cap` events (oldest dropped first).
    pub fn with_capacity(cap: usize) -> (RingSink, RingHandle) {
        let buf = Rc::new(RefCell::new(RingBuf {
            cap: cap.max(1),
            entries: VecDeque::new(),
            dropped: 0,
        }));
        (
            RingSink {
                buf: Rc::clone(&buf),
            },
            RingHandle { buf },
        )
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, depth: usize, event: &TraceEvent) {
        let mut buf = self.buf.borrow_mut();
        if buf.entries.len() == buf.cap {
            buf.entries.pop_front();
            buf.dropped += 1;
        }
        buf.entries.push_back(TraceEntry {
            depth,
            event: event.clone(),
        });
    }
}

impl RingHandle {
    /// Drain the recorded events into a [`Trace`].
    pub fn take(&self) -> Trace {
        let mut buf = self.buf.borrow_mut();
        let dropped = buf.dropped;
        buf.dropped = 0;
        Trace {
            entries: buf.entries.drain(..).collect(),
            dropped,
        }
    }

    /// Events currently buffered (without draining).
    pub fn len(&self) -> usize {
        self.buf.borrow().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Pretty indented tree on stderr, printed live as events arrive.
#[derive(Default)]
pub struct StderrSink;

impl TraceSink for StderrSink {
    fn emit(&mut self, depth: usize, event: &TraceEvent) {
        eprintln!("{:indent$}{event}", "", indent = depth * 2);
    }
}

/// JSON-lines file sink: one event object per line.
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Create (truncate) `path` for writing.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

impl TraceSink for JsonlSink {
    fn emit(&mut self, depth: usize, event: &TraceEvent) {
        let _ = writeln!(self.out, "{}", event.to_json(depth));
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

struct Tracer {
    depth: usize,
    sinks: Vec<Box<dyn TraceSink>>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Install sinks and start tracing on this thread (replacing any active
/// tracer; its sinks are finished first).
pub fn start(sinks: Vec<Box<dyn TraceSink>>) {
    stop();
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer { depth: 0, sinks });
    });
}

/// Stop tracing: finish (flush) and drop every installed sink.
pub fn stop() {
    let tracer = TRACER.with(|t| t.borrow_mut().take());
    if let Some(mut tracer) = tracer {
        for sink in &mut tracer.sinks {
            sink.finish();
        }
    }
}

/// Whether a tracer is installed on this thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Emit one event at the current depth. The closure only runs when
/// tracing is enabled, so disabled call sites pay a single thread-local
/// check and no event construction.
pub fn emit<F: FnOnce() -> TraceEvent>(f: F) {
    if !enabled() {
        return;
    }
    let event = f();
    TRACER.with(|t| {
        if let Some(tracer) = &mut *t.borrow_mut() {
            let depth = tracer.depth;
            for sink in &mut tracer.sinks {
                sink.emit(depth, &event);
            }
        }
    });
}

/// The mirror sinks a configuration asks for beside the in-memory ring:
/// a [`StderrSink`] when `stderr` (`NRA_TRACE`), plus a [`JsonlSink`]
/// on `file` (`NRA_TRACE_FILE`; an unwritable path is reported on
/// stderr and skipped).
pub fn mirror_sinks(stderr: bool, file: Option<&str>) -> Vec<Box<dyn TraceSink>> {
    let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
    if stderr {
        sinks.push(Box::new(StderrSink));
    }
    if let Some(path) = file {
        match JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => sinks.push(Box::new(sink)),
            Err(e) => eprintln!("NRA_TRACE_FILE: cannot open {path}: {e}"),
        }
    }
    sinks
}

/// An open phase: emitted `PhaseStart` and deepened the tree on creation;
/// emits `PhaseDone` with the measured wall time (and optional row count)
/// on drop. Inert when tracing is disabled at creation.
pub struct PhaseGuard {
    inner: Option<(String, Instant)>,
    rows: Option<u64>,
}

/// Open a phase. The name closure only runs when tracing is enabled.
pub fn phase<F: FnOnce() -> String>(name: F) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard {
            inner: None,
            rows: None,
        };
    }
    phase_str(name())
}

/// Open a phase with an already-built name.
pub fn phase_str(name: String) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard {
            inner: None,
            rows: None,
        };
    }
    emit(|| TraceEvent::PhaseStart {
        phase: name.clone(),
    });
    TRACER.with(|t| {
        if let Some(tracer) = &mut *t.borrow_mut() {
            tracer.depth += 1;
        }
    });
    PhaseGuard {
        inner: Some((name, Instant::now())),
        rows: None,
    }
}

impl PhaseGuard {
    /// Whether this phase is live (tracing was enabled at creation).
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a produced-row count to the closing `PhaseDone`.
    pub fn set_rows(&mut self, rows: u64) {
        if self.inner.is_some() {
            self.rows = Some(rows);
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.inner.take() {
            let wall_ns = start.elapsed().as_nanos() as u64;
            TRACER.with(|t| {
                if let Some(tracer) = &mut *t.borrow_mut() {
                    tracer.depth = tracer.depth.saturating_sub(1);
                }
            });
            let rows = self.rows;
            emit(|| TraceEvent::PhaseDone {
                phase: name,
                wall_ns,
                rows,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_is_inert() {
        assert!(!enabled());
        emit(|| unreachable!("event closure must not run when disabled"));
        let ph = phase(|| unreachable!("phase name must not run when disabled"));
        assert!(!ph.active());
        drop(ph);
        assert!(!enabled());
    }

    #[test]
    fn ring_records_nested_phases() {
        let (sink, handle) = RingSink::with_capacity(128);
        start(vec![Box::new(sink)]);
        emit(|| TraceEvent::QueryStart {
            sql: "select 1".into(),
        });
        {
            let mut outer = phase(|| "execute".to_string());
            outer.set_rows(7);
            let _inner = phase(|| "b2".to_string());
            emit(|| TraceEvent::Op {
                name: "b2/join".into(),
                wall_ns: 10,
                rows_in: 4,
                rows_out: 2,
            });
        }
        stop();
        let trace = handle.take();
        assert_eq!(trace.dropped, 0);
        let depths: Vec<usize> = trace.entries.iter().map(|e| e.depth).collect();
        // QueryStart(0), execute start(0), b2 start(1), op(2),
        // b2 done(1), execute done(0)
        assert_eq!(depths, vec![0, 0, 1, 2, 1, 0]);
        assert_eq!(trace.phase_wall_ns("execute").map(|ns| ns > 0), Some(true));
        match trace.entries.last().map(|e| &e.event) {
            Some(TraceEvent::PhaseDone { phase, rows, .. }) => {
                assert_eq!(phase, "execute");
                assert_eq!(*rows, Some(7));
            }
            other => panic!("unexpected tail event {other:?}"),
        }
        let tree = trace.render_tree();
        assert!(tree.contains("▶ execute"));
        assert!(tree.contains("    • op b2/join"));
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let (sink, handle) = RingSink::with_capacity(2);
        start(vec![Box::new(sink)]);
        for i in 0..5 {
            emit(|| TraceEvent::Parsed { tokens: i });
        }
        stop();
        let trace = handle.take();
        assert_eq!(trace.dropped, 3);
        assert_eq!(
            trace.events().collect::<Vec<_>>(),
            vec![
                &TraceEvent::Parsed { tokens: 3 },
                &TraceEvent::Parsed { tokens: 4 }
            ]
        );
        assert!(trace.render_tree().contains("3 earlier event(s) dropped"));
    }

    #[test]
    fn jsonl_escapes_and_roundtrips() {
        let event = TraceEvent::Op {
            name: "b2/nest[υ \"quoted\\name\"]".into(),
            wall_ns: 5,
            rows_in: 1,
            rows_out: 1,
        };
        let line = event.to_json(3);
        let parsed = crate::json::Json::parse(&line).unwrap();
        assert_eq!(parsed.get("depth").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("event").unwrap().as_str(), Some("op"));
        assert_eq!(
            parsed.get("name").unwrap().as_str(),
            Some("b2/nest[υ \"quoted\\name\"]")
        );
    }

    #[test]
    fn strategy_event_serializes_alternatives() {
        let event = TraceEvent::StrategyChosen {
            block: 2,
            name: "optimized".into(),
            reason: "linear chain".into(),
            alternatives: vec![("positive-rewrite".into(), "negative link `<> all`".into())],
        };
        let parsed = crate::json::Json::parse(&event.to_json(1)).unwrap();
        let alts = parsed.get("alternatives").unwrap().as_arr().unwrap();
        assert_eq!(alts.len(), 1);
        assert_eq!(
            alts[0].get("name").unwrap().as_str(),
            Some("positive-rewrite")
        );
        assert!(event.to_string().contains("rejected positive-rewrite"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(421), "421ns");
        assert_eq!(fmt_ns(3_100), "3.1µs");
        assert_eq!(fmt_ns(12_400_000), "12.4ms");
        assert_eq!(fmt_ns(1_730_000_000), "1.73s");
    }
}
