//! Query-lifecycle tracing: hierarchical spans with typed, structured
//! events.
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
//! armed tracer.
//!
//! A tracer is armed through [`crate::enter`] with
//! [`crate::Observers::trace`]. It records every event into an in-memory
//! ring, handed back as a [`Trace`] by [`crate::ObsGuard::finish`]; a
//! trace is read after the fact, as an indented tree
//! ([`Trace::render_tree`]) or as JSONL ([`Trace::to_jsonl`]).
//!
//! Like the profile collector, tracing is disabled by default and costs a
//! single flags check per potential event when off — event construction
//! is behind closures that never run while disabled.
//!
//! ```
//! use nra_obs::trace::{self, TraceEvent};
//!
//! let obs = nra_obs::enter(nra_obs::Observers { trace: true, ..Default::default() });
//! trace::emit(|| TraceEvent::QueryStart { sql: "select 1".into() });
//! {
//!     let mut ph = trace::phase(|| "parse".to_string());
//!     ph.set_rows(1);
//! }
//! let t = obs.finish().1.unwrap();
//! assert_eq!(t.entries.len(), 3); // QueryStart, PhaseStart, PhaseDone
//! ```

use std::collections::VecDeque;
use std::fmt;
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

/// One recorded event with its tree depth (0 = top level).
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

    /// Pretty indented tree, two spaces per level.
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

/// Events an armed tracer keeps in its in-memory ring (oldest dropped
/// first).
const RING_CAPACITY: usize = 4096;

/// An armed tracer (see [`crate::Observers::trace`]): the span-tree
/// depth and the in-memory ring.
#[derive(Default)]
pub(crate) struct Tracer {
    depth: usize,
    ring: VecDeque<TraceEntry>,
    dropped: u64,
}

impl Tracer {
    fn record(&mut self, event: TraceEvent) {
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEntry {
            depth: self.depth,
            event,
        });
    }

    /// Hand the ring back.
    pub(crate) fn finish(self) -> Trace {
        Trace {
            entries: self.ring.into(),
            dropped: self.dropped,
        }
    }
}

/// Whether a tracer is armed on this thread.
pub fn enabled() -> bool {
    crate::armed(crate::F_TRACE)
}

/// Emit one event at the current depth. The closure only runs when
/// tracing is enabled, so disabled call sites pay a single flags check
/// and no event construction.
pub fn emit<F: FnOnce() -> TraceEvent>(f: F) {
    if !enabled() {
        return;
    }
    let event = f();
    with_tracer(|tracer| tracer.record(event));
}

fn with_tracer(f: impl FnOnce(&mut Tracer)) {
    crate::with_armed(|a| a.tracer.as_mut().map(f));
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
    let name = name();
    emit(|| TraceEvent::PhaseStart {
        phase: name.clone(),
    });
    with_tracer(|tracer| tracer.depth += 1);
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
            with_tracer(|tracer| tracer.depth = tracer.depth.saturating_sub(1));
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
    use crate::tests::tracing;

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
        let obs = tracing();
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
        let trace = obs.finish().1.unwrap();
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
        let obs = tracing();
        for i in 0..RING_CAPACITY + 3 {
            emit(|| TraceEvent::Parsed { tokens: i });
        }
        let trace = obs.finish().1.unwrap();
        assert_eq!(trace.dropped, 3);
        assert_eq!(trace.entries.len(), RING_CAPACITY);
        assert_eq!(
            trace.events().next(),
            Some(&TraceEvent::Parsed { tokens: 3 })
        );
        assert_eq!(
            trace.events().last(),
            Some(&TraceEvent::Parsed {
                tokens: RING_CAPACITY + 2
            })
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
