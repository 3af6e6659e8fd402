//! EXPLAIN text, the one renderer of a [`PhysPlan`]: a line per operator
//! (σ and υ of a nest + link are two), its inputs indented below it.
//! `EXPLAIN ANALYZE` annotates a line from the profile entries and the
//! [`CardEstimates`] under its key: the operator's name in its block's
//! scope (`b{id}/join`, `…/nest`, `…/link`, `…/scan`; at the root `scan`,
//! `project` and the cascade's `nest[sort]`).

use std::fmt::Write;

use nra_engine::baseline;
use nra_obs::trace::fmt_ns;
use nra_obs::{OpStats, Profile};
use nra_sql::{BPred, BoundQuery, LinkOp, QueryBlock, SetOpKind};
use nra_storage::Catalog;

use super::{arm_label, block, edge, Node, PhysPlan, Step};
use crate::cardinality::{qerror_x100, CardEstimates};
use crate::compute::link_names;
use crate::planner::Engine;
use crate::tree_expr::{render_expr, render_link, render_pred};

/// Merge every profile entry named `key` exactly or with a `[kind]`
/// suffix (`b2/join` matches `b2/join[left_outer]`, `b2/nest` matches
/// `b2/nest[sort]`); `None` when no entry matches.
pub fn node_stats(profile: &Profile, key: &str) -> Option<OpStats> {
    let mut found = (profile.ops.iter()).filter(|(name, _)| claims(key, name));
    let mut stats = found.next()?.1.clone();
    found.for_each(|(_, more)| stats.merge(more));
    Some(stats)
}

fn claims(key: &str, name: &str) -> bool {
    (name.strip_prefix(key)).is_some_and(|rest| rest.is_empty() || rest.starts_with('['))
}

/// One operator line: its indentation, its text, and the profile key its
/// annotation reads (`None` for an uninstrumented operator).
type Line = (usize, String, Option<String>);

impl PhysPlan {
    /// The `EXPLAIN` text: a header line per arm naming what its builder
    /// planned (beside a nested-relational arm, what System A would run),
    /// then the plan.
    pub fn explain(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        for (i, arm) in self.arms.iter().enumerate() {
            if let Some(label) = self.label(i) {
                let _ = write!(out, "{label}: ");
            }
            let system_a = || baseline::describe(&arm.query, catalog);
            let _ = match arm.engine {
                Engine::NestedRelational(strategy) => writeln!(
                    out,
                    "nested relational: {}; baseline (System A): {}",
                    strategy.describe(),
                    system_a()
                ),
                Engine::Baseline => writeln!(out, "baseline (System A): {}", system_a()),
                Engine::Reference => writeln!(out, "reference: tuple-iteration oracle"),
            };
        }
        out + &self.render()
    }

    /// The plan as `EXPLAIN` prints it.
    pub fn render(&self) -> String {
        let line = |(depth, text, _): Line| format!("{}{text}\n", "  ".repeat(depth));
        self.lines().into_iter().map(line).collect()
    }

    /// The plan as `EXPLAIN ANALYZE` prints it: each line with its stats
    /// and `est=… act=… (×err)`, then any profile entry no line claims,
    /// then the result's `rows`, total operator time and simulated I/O.
    pub fn render_analyzed(&self, profile: &Profile, est: &CardEstimates, rows: u64) -> String {
        let lines = self.lines();
        let mut out = String::new();
        for (depth, text, key) in &lines {
            let note = (key.as_deref()).map_or(String::new(), |key| {
                annotate(node_stats(profile, key), est.get(key))
            });
            let _ = writeln!(out, "{}{text}{note}", "  ".repeat(*depth));
        }
        let claimed = |name: &str| {
            (lines.iter()).any(|(_, _, k)| k.as_deref().is_some_and(|k| claims(k, name)))
        };
        let outside: Vec<&str> = (profile.ops.iter())
            .map(|(name, _)| name.as_str())
            .filter(|name| !claimed(name))
            .collect();
        if !outside.is_empty() {
            let _ = writeln!(out, "-- outside the plan: {}", outside.join(", "));
        }
        let ms = profile.total_wall_ns() as f64 / 1e6;
        let _ = writeln!(out, "-- {rows} row(s); total operator time {ms:.3} ms");
        if let Some(io) = &profile.io {
            let _ = writeln!(
                out,
                "-- io: {} sequential page(s), {} random hit(s), {} random miss(es)",
                io.seq_pages, io.rand_hits, io.rand_misses
            );
        }
        out
    }

    fn lines(&self) -> Vec<Line> {
        let mut out = Vec::new();
        self.step_lines(&self.root, 0, &mut out);
        out
    }

    fn step_lines(&self, step: &Step, depth: usize, out: &mut Vec<Line>) {
        let (text, key, input) = match step {
            Step::Arm(i) => return self.arm_lines(*i, depth, out),
            Step::SetOp { left, arm, op, all } => {
                let symbol = match op {
                    SetOpKind::Union => "∪",
                    SetOpKind::Intersect => "∩",
                    SetOpKind::Except => "−",
                };
                let all = if *all { " all" } else { "" };
                let text = format!("{symbol} {}{all}", op.name());
                out.push((depth, text, Some(format!("{}/setop", arm_label(*arm)))));
                self.step_lines(left, depth + 1, out);
                return self.arm_lines(*arm, depth + 1, out);
            }
            Step::Sort { input, keys } => {
                let select = &self.arms[0].query.root.select;
                let keys: Vec<String> = (keys.iter())
                    .map(|&(i, desc)| format!("{}{}", select[i].0, if desc { " desc" } else { "" }))
                    .collect();
                (format!("sort by {}", keys.join(", ")), "sort", input)
            }
            Step::Limit { input, n } => (format!("limit {n}"), "limit", input),
        };
        out.push((depth, text, Some(key.to_string())));
        self.step_lines(input, depth + 1, out);
    }

    fn arm_lines(&self, i: usize, depth: usize, out: &mut Vec<Line>) {
        let arm = &self.arms[i];
        let mut lines = Lines {
            query: &arm.query,
            prefix: self.label(i).map_or(String::new(), |label| label + "/"),
            out,
        };
        lines.node(&arm.root, depth);
    }
}

/// The lines of one arm.
struct Lines<'a> {
    query: &'a BoundQuery,
    /// `a{n}/` for arm `n` of a compound statement, else empty.
    prefix: String,
    out: &'a mut Vec<Line>,
}

impl Lines<'_> {
    fn push(&mut self, depth: usize, text: impl Into<String>, key: Option<String>) {
        self.out.push((depth, text.into(), key));
    }

    /// The profile key of operator `op` run for block `id`.
    fn key(&self, id: usize, op: &str) -> Option<String> {
        let prefix = &self.prefix;
        Some(match id == self.query.root.id {
            true => format!("{prefix}{op}"),
            false => format!("{prefix}b{id}/{op}"),
        })
    }

    /// The profile key of operator `op` run at the root block.
    fn root_key(&self, op: &str) -> Option<String> {
        self.key(self.query.root.id, op)
    }

    fn node(&mut self, node: &Node, depth: usize) {
        let query = self.query;
        let inner = depth + 1;
        match node {
            Node::Scan { block: id } => self.scan(block(query, *id), depth),
            Node::OuterJoin {
                left, right, child, ..
            } => {
                let corr = conjunction(&block(query, *child).correlated_preds, None);
                self.push(depth, format!("⟕ {corr}"), self.key(*child, "join"));
                self.node(left, inner);
                self.node(right, inner);
            }
            Node::LinkColumns {
                input,
                child,
                outer,
                inner: linked,
            } => {
                let (parent, e) = edge(query, *child);
                let (o, i) = link_names(parent.id, e);
                let columns = [o.filter(|_| *outer), i.filter(|_| *linked)];
                let columns: Vec<String> = columns.into_iter().flatten().collect();
                self.push(depth, format!("ε {}", columns.join(", ")), None);
                self.node(input, inner);
            }
            Node::NestLink {
                input,
                child,
                pseudo,
                fused,
                ..
            } => {
                self.link(*child, *pseudo, depth);
                let pass = fused
                    .then_some(" (one pass with the σ)")
                    .unwrap_or_default();
                let text = format!("υ nest by prefix, keep T{child} columns{pass}");
                self.push(depth, text, self.key(*child, "nest"));
                self.node(input, inner);
            }
            Node::Cascade { input, levels } => {
                for level in levels {
                    self.link(level.child, level.pseudo, depth);
                }
                let rids: Vec<String> = levels.iter().map(|l| format!("T{}", l.parent)).collect();
                let rids = rids.join(", ");
                let text = format!("υ one sort by the {rids} rids; every σ in one group scan");
                self.push(depth, text, self.root_key("nest[sort]"));
                self.node(input, inner);
            }
            Node::NestProbe {
                parent,
                child,
                edge: id,
                keys,
                ..
            } => {
                self.link(*id, false, depth);
                let on: Vec<String> = keys.iter().map(|(p, c)| format!("{p} = {c}")).collect();
                let text = format!("υ nest T{id} below the join, probed on {}", on.join(" ∧ "));
                self.push(depth, text, self.key(*id, "nest"));
                self.node(parent, inner);
                self.node(child, inner);
            }
            Node::Shrink { input, child } => {
                let text = format!("π T{child} cut to what its outer block reads");
                self.push(depth, text, None);
                self.node(input, inner);
            }
            Node::SemijoinCascade => {
                self.push(depth, "π (root select)", self.root_key("project"));
                let root = &query.root;
                self.positive(root, root.children.len(), inner, &|l, d| l.scan(root, d));
            }
            Node::Project { input } => {
                self.push(depth, "π (root select)", self.root_key("project"));
                self.node(input, inner);
            }
            Node::Baseline => self.push(depth, "baseline (System A)", self.root_key("baseline")),
            Node::Reference => self.push(
                depth,
                "reference (tuple iteration)",
                self.root_key("reference"),
            ),
        }
    }

    /// `T_i`: the block's tables and local predicates.
    fn scan(&mut self, block: &QueryBlock, depth: usize) {
        let tables: Vec<&str> = block.tables.iter().map(|t| t.exposed.as_str()).collect();
        let mut text = format!("T{} = {}", block.id, tables.join(" × "));
        if !block.local_preds.is_empty() {
            let local: Vec<String> = block.local_preds.iter().map(render_pred).collect();
            let _ = write!(text, " | σ {}", local.join(" ∧ "));
        }
        self.push(depth, text, self.key(block.id, "scan"));
    }

    /// The linking selection of the edge into block `child`.
    fn link(&mut self, child: usize, pseudo: bool, depth: usize) {
        let sigma = if pseudo { "σ̄" } else { "σ" };
        let text = format!("{sigma} {}", render_link(edge(self.query, child).1));
        self.push(depth, text, self.key(child, "link"));
    }

    /// §4.2.5's cascade over `block`'s first `edges` subqueries applied to
    /// what `base` renders: a leaf subquery is semijoined; an inner one is
    /// joined, reduced by its own, and cut back to distinct outer rows.
    fn positive(
        &mut self,
        block: &QueryBlock,
        edges: usize,
        depth: usize,
        base: &dyn Fn(&mut Self, usize),
    ) {
        let Some(e) = edges.checked_sub(1).map(|i| &block.children[i]) else {
            return base(self, depth);
        };
        let child = &e.block;
        let link = match (e.link, &e.outer_expr, &e.inner_expr) {
            (LinkOp::Some(op), Some(a), Some(b)) => {
                Some(format!("{} {op} {}", render_expr(a), render_expr(b)))
            }
            _ => None,
        };
        let conds = conjunction(&child.correlated_preds, link);
        let join = |l: &mut Self, d: usize, op: &str| {
            l.push(d, format!("{op} {conds}"), l.key(child.id, "join"));
            l.positive(block, edges - 1, d + 1, base);
            l.scan(child, d + 1);
        };
        if child.children.is_empty() {
            return join(self, depth, "⋉");
        }
        self.push(depth, "δ back to the outer rows, each once", None);
        let joined = |l: &mut Self, d: usize| join(l, d, "⋈");
        self.positive(child, child.children.len(), depth + 1, &joined);
    }
}

/// `preds` (and an extra condition) as a join condition; no condition at
/// all is the paper's virtual Cartesian product.
fn conjunction(preds: &[BPred], extra: Option<String>) -> String {
    let conds: Vec<String> = preds.iter().map(render_pred).chain(extra).collect();
    match conds.is_empty() {
        true => "(uncorrelated: virtual Cartesian product)".to_string(),
        false => conds.join(" ∧ "),
    }
}

/// A plan line's annotation. The estimate renders last, `est=… act=…
/// (×Q-error)`, after the `rows=…, time` fields; a node the estimator
/// does not cover renders `est=?`, so coverage gaps show.
fn annotate(stats: Option<OpStats>, est: Option<u64>) -> String {
    let Some(s) = stats else {
        return "  (not executed)".to_string();
    };
    let act = s.rows_out;
    let counters = [
        (s.hash_entries > 0).then(|| format!("hash={}e/{}B", s.hash_entries, s.hash_bytes)),
        (s.nest_groups > 0).then(|| format!("groups={}", s.nest_groups)),
        (s.pass + s.fail + s.unknown > 0)
            .then(|| format!("pass={} fail={} unknown={}", s.pass, s.fail, s.unknown)),
        (s.padded > 0).then(|| format!("padded={}", s.padded)),
    ];
    let est = match est {
        Some(e) => format!(
            "est={e} act={act} (×{:.1})",
            qerror_x100(e, act) as f64 / 100.0
        ),
        None => format!("est=? act={act}"),
    };
    let parts: Vec<String> = [format!("rows={}→{act}", s.rows_in), fmt_ns(s.wall_ns)]
        .into_iter()
        .chain(counters.into_iter().flatten())
        .chain([est])
        .collect();
    format!("  ({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use nra_sql::parse_and_bind;
    use nra_storage::{Catalog, Column, ColumnType, Schema, Table};

    use super::*;
    use crate::plan::build;
    use crate::{Engine, Strategy};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols) in [
            ("r", ["a", "b", "c", "d"].as_slice()),
            ("s", &["e", "f", "g", "h", "i"]),
            ("t", &["j", "k", "l"]),
        ] {
            let schema = Schema::new(
                cols.iter()
                    .map(|c| Column::new(*c, ColumnType::Int))
                    .collect(),
            );
            cat.add_table(Table::new(name, schema)).unwrap();
        }
        cat
    }

    const QUERY_Q: &str = "select r.b, r.c, r.d from r \
         where r.a > 1 and r.b not in \
           (select s.e from s where s.f = 5 and r.d = s.g and s.h > all \
              (select t.j from t where t.k = r.c and t.l <> s.i))";

    fn original(sql: &str) -> PhysPlan {
        let bq = parse_and_bind(sql, &catalog()).unwrap();
        build(bq.into(), Engine::NestedRelational(Strategy::Original)).unwrap()
    }

    #[test]
    fn plan_renders_the_pipeline() {
        let plan = original(QUERY_Q).render();
        assert!(
            plan.contains("σ̄ s.h > ALL {s.e}") || plan.contains("σ̄ s.h > ALL"),
            "got:\n{plan}"
        );
        assert!(plan.contains("⟕ r.d = s.g"));
        assert!(plan.contains("υ nest by prefix"));
    }

    #[test]
    fn uncorrelated_edge_labelled_virtual_product() {
        let plan = original("select a from r where b in (select e from s)").render();
        assert!(plan.contains("virtual Cartesian product"), "got:\n{plan}");
    }

    /// Every profile entry is claimed by exactly the lines whose key it
    /// extends with a `[kind]` suffix; an entry no line claims is listed
    /// after the plan.
    #[test]
    fn analyzed_plan_lists_entries_outside_the_plan() {
        let plan = original("select a from r where b in (select e from s)");
        let mut profile = Profile::default();
        for name in [
            "project",
            "scan",
            "b2/scan",
            "b2/join[left_outer]",
            "b2/nest[sort]",
        ] {
            profile.ops.push((name.to_string(), OpStats::default()));
        }
        profile
            .ops
            .push(("b2/linked".to_string(), OpStats::default()));
        let text = plan.render_analyzed(&profile, &CardEstimates::default(), 0);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8, "{text}");
        assert!(lines[1].trim_start().starts_with("σ ") && lines[1].ends_with("(not executed)"));
        assert!(text.contains("⟕ (uncorrelated: virtual Cartesian product)  (rows=0→0, 0ns"));
        assert_eq!(lines[6], "-- outside the plan: b2/linked", "{text}");
    }
}
