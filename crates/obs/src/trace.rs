//! The query-lifecycle trace: a rendering of facts one query already
//! recorded, made once when it finishes.
//!
//! Where the profile ([`crate::Profile`]) answers *how much* each operator
//! did, the trace answers *what happened and why*: the statement, the
//! pipeline phases (parse → bind → plan → execute) with their wall times,
//! the planner's per-block strategy decisions with every rejected
//! alternative, the §4.2 rewrite the plan embodies, the operators under
//! the profile's qualified names, the Q-error summary, what the governor
//! did, and the end of the query. Nothing records into a trace while the
//! query runs: the query lifecycle fills a [`Trace`] from the query's
//! record, its profile and its plan, and a reader renders it as an
//! indented tree ([`Trace::render_tree`]) or as JSONL
//! ([`Trace::to_jsonl`]).
//!
//! ```
//! use nra_obs::trace::Trace;
//! use nra_obs::Phase;
//!
//! let trace = Trace {
//!     sql: "select 1".into(),
//!     phases: vec![Phase { name: "parse", wall_ns: 1_500, rows: Some(2) }],
//!     done: Some((1, 40_000)),
//!     ..Trace::default()
//! };
//! let tree = trace.render_tree();
//! assert!(tree.contains("◀ parse done in 1.5µs, rows=2"));
//! assert!(tree.ends_with("● done: 1 row(s) in 40.0µs\n"));
//! assert_eq!(trace.to_jsonl().lines().count(), 4);
//! ```

use std::fmt::Display;

use crate::{json, Decision, OpStats, Phase, RewriteStep};

/// The trace of one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The statement as submitted.
    pub sql: String,
    /// The plan came from the plan cache: no parse, bind or plan phase
    /// ran.
    pub plan_cache_hit: bool,
    /// The pipeline phases in the order they ran.
    pub phases: Vec<Phase>,
    /// The planner's decision log, one entry per block of every arm.
    pub strategies: Vec<Decision>,
    /// The §4.2 rewrites the plan embodies.
    pub rewrites: Vec<RewriteStep>,
    /// The operators, under the profile's qualified names.
    pub ops: Vec<(String, OpStats)>,
    /// Per-node Q-errors (×100; 100 is a perfect estimate).
    pub qerrors: Vec<u64>,
    /// What the governor did, `(action, detail)`: `cancelled`,
    /// `resource-exhausted` or `fault-injected` with the phase or site
    /// where it stopped the query, and `mem-high-water` with the byte
    /// count of every executed query.
    pub governor: Vec<(&'static str, String)>,
    /// Result rows and wall time of a query that finished; `None` when it
    /// failed.
    pub done: Option<(u64, u64)>,
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

/// The JSON fields of one line after its `depth` and `event`.
#[derive(Default)]
struct Fields(String);

impl Fields {
    fn str(mut self, key: &str, value: &str) -> Fields {
        self.0.push_str(&format!(", \"{key}\": "));
        json::write_string(&mut self.0, value);
        self
    }

    fn raw(mut self, key: &str, value: impl Display) -> Fields {
        self.0.push_str(&format!(", \"{key}\": {value}"));
        self
    }

    /// The fields as a JSON object of their own.
    fn object(self) -> String {
        format!("{{{}}}", self.0.strip_prefix(", ").unwrap_or_default())
    }
}

/// The rendered lines: `(depth, text, JSON object)`.
#[derive(Default)]
struct Lines(Vec<(usize, String, String)>);

impl Lines {
    fn push(&mut self, depth: usize, text: String, event: &str, fields: Fields) {
        let json = format!("{{\"depth\": {depth}, \"event\": \"{event}\"{}}}", fields.0);
        self.0.push((depth, text, json));
    }

    fn governor(&mut self, action: &str, detail: &str) {
        let fields = Fields::default().str("action", action);
        let text = format!("⚠ governor: {action} at `{detail}`");
        self.push(0, text, "governor", fields.str("detail", detail));
    }
}

impl Trace {
    /// Pretty indented tree, two spaces per level.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for (depth, text, _) in self.lines().0 {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&text);
            out.push('\n');
        }
        out
    }

    /// JSONL: one object per line of the tree, in order, each with its
    /// `depth` and `event` kind.
    pub fn to_jsonl(&self) -> String {
        (self.lines().0.into_iter())
            .map(|(_, _, json)| json + "\n")
            .collect()
    }

    fn lines(&self) -> Lines {
        let mut out = Lines::default();
        let sql = Fields::default().str("sql", &self.sql);
        out.push(0, format!("● query: {}", self.sql), "query_start", sql);
        if self.plan_cache_hit {
            out.governor("plan-cache", "hit");
        }
        for phase in &self.phases {
            let start = Fields::default().str("phase", phase.name);
            out.push(0, format!("▶ {}", phase.name), "phase_start", start);
            match phase.name {
                "plan" => self.decisions(&mut out, 1),
                "execute" => self.ops(&mut out, 1),
                _ => {}
            }
            let mut text = format!("◀ {} done in {}", phase.name, fmt_ns(phase.wall_ns));
            if let Some(n) = phase.rows {
                text.push_str(&format!(", rows={n}"));
            }
            let rows = phase.rows.map_or("null".to_string(), |n| n.to_string());
            let done = (Fields::default().str("phase", phase.name))
                .raw("wall_ns", phase.wall_ns)
                .raw("rows", rows);
            out.push(0, text, "phase_done", done);
        }
        let ran = |name| self.phases.iter().any(|p| p.name == name);
        if !ran("plan") {
            self.decisions(&mut out, 0);
        }
        if !ran("execute") {
            self.ops(&mut out, 0);
        }
        if let Some(max) = self.qerrors.iter().copied().max() {
            let nodes = self.qerrors.len();
            let mean = self.qerrors.iter().sum::<u64>() / nodes as u64;
            let text = format!(
                "· q-error: {nodes} node(s), max ×{:.1}, mean ×{:.1}",
                max as f64 / 100.0,
                mean as f64 / 100.0
            );
            let fields = (Fields::default().raw("nodes", nodes))
                .raw("max_x100", max)
                .raw("mean_x100", mean);
            out.push(0, text, "qerror_summary", fields);
        }
        for (action, detail) in &self.governor {
            out.governor(action, detail);
        }
        if let Some((rows, wall_ns)) = self.done {
            let text = format!("● done: {rows} row(s) in {}", fmt_ns(wall_ns));
            let fields = Fields::default().raw("rows", rows).raw("wall_ns", wall_ns);
            out.push(0, text, "query_end", fields);
        }
        out
    }

    fn decisions(&self, out: &mut Lines, depth: usize) {
        for c in &self.strategies {
            let mut text = format!("· strategy[b{}]: {} — {}", c.block, c.name, c.reason);
            let mut alternatives = Vec::new();
            for (alt, why) in &c.alternatives {
                text.push_str(&format!("; rejected {alt}: {why}"));
                alternatives.push(
                    Fields::default()
                        .str("name", alt)
                        .str("reason", why)
                        .object(),
                );
            }
            let fields = (Fields::default().raw("block", c.block))
                .str("name", &c.name)
                .str("reason", &c.reason)
                .raw("alternatives", format!("[{}]", alternatives.join(", ")));
            out.push(depth, text, "strategy_chosen", fields);
        }
        for r in &self.rewrites {
            let text = format!(
                "· rewrite {}: {} → {} node(s)",
                r.rule, r.nodes_before, r.nodes_after
            );
            let fields = (Fields::default().str("rule", r.rule))
                .raw("nodes_before", r.nodes_before)
                .raw("nodes_after", r.nodes_after);
            out.push(depth, text, "rewrite_step", fields);
        }
    }

    fn ops(&self, out: &mut Lines, depth: usize) {
        for (name, s) in &self.ops {
            let text = format!(
                "• op {name}: rows {}→{} in {}",
                s.rows_in,
                s.rows_out,
                fmt_ns(s.wall_ns)
            );
            let fields = (Fields::default().str("name", name))
                .raw("wall_ns", s.wall_ns)
                .raw("rows_in", s.rows_in)
                .raw("rows_out", s.rows_out);
            out.push(depth, text, "op", fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn jsonl_escapes_and_roundtrips() {
        let name = "b2/nest[υ \"quoted\\name\"]";
        let trace = Trace {
            sql: "select 'a\tb'".into(),
            ops: vec![(name.into(), OpStats::default())],
            ..Trace::default()
        };
        let jsonl = trace.to_jsonl();
        let lines: Vec<Json> = jsonl.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines[0].get("sql").unwrap().as_str(), Some("select 'a\tb'"));
        assert_eq!(lines[1].get("depth").unwrap().as_u64(), Some(0));
        assert_eq!(lines[1].get("event").unwrap().as_str(), Some("op"));
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some(name));
    }

    #[test]
    fn strategy_event_serializes_alternatives() {
        let trace = Trace {
            phases: vec![Phase {
                name: "plan",
                wall_ns: 5,
                rows: None,
            }],
            strategies: vec![Decision {
                block: 2,
                name: "optimized".into(),
                reason: "linear chain".into(),
                alternatives: vec![("positive-rewrite".into(), "negative link `<> all`".into())],
            }],
            ..Trace::default()
        };
        let jsonl = trace.to_jsonl();
        let line = jsonl
            .lines()
            .find(|l| l.contains("strategy_chosen"))
            .unwrap();
        let parsed = Json::parse(line).unwrap();
        assert_eq!(parsed.get("depth").unwrap().as_u64(), Some(1), "under plan");
        let alts = parsed.get("alternatives").unwrap().as_arr().unwrap();
        assert_eq!(alts.len(), 1);
        assert_eq!(
            alts[0].get("name").unwrap().as_str(),
            Some("positive-rewrite")
        );
        assert!(trace
            .render_tree()
            .contains("  · strategy[b2]: optimized — linear chain; rejected positive-rewrite"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(421), "421ns");
        assert_eq!(fmt_ns(3_100), "3.1µs");
        assert_eq!(fmt_ns(12_400_000), "12.4ms");
        assert_eq!(fmt_ns(1_730_000_000), "1.73s");
        let phase = |name| Phase {
            name,
            wall_ns: 3_100,
            rows: None,
        };
        let trace = Trace {
            phases: vec![phase("plan"), phase("execute")],
            ..Trace::default()
        };
        assert!(trace
            .render_tree()
            .contains("◀ plan done in 3.1µs\n▶ execute"));
    }
}
