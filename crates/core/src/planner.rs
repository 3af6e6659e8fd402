//! Strategy selection for the nested relational approach, with
//! trace-visible decision logging. The decision is made once, when a
//! plan is built ([`crate::plan::build`]); when query-lifecycle tracing is
//! active ([`nra_obs::trace`]), running the plan emits a `StrategyChosen`
//! event for every query block explaining why the chosen strategy applies
//! to it, and the root block's event names every alternative rejected at
//! plan time with its reason.

use nra_obs::trace::{self, TraceEvent};
use nra_sql::{BoundQuery, QueryBlock};

/// An execution strategy for the nested relational approach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Algorithm 1 with separate nest and linking-selection passes
    /// (the paper's "original nested relational approach").
    Original,
    /// Algorithm 1 with the fused one-pass nest+selection, upgraded to the
    /// single-sort pipelined cascade on linear queries (the paper's
    /// "optimized nested relational approach").
    Optimized,
    /// Bottom-up evaluation (§4.2.3); linear correlated queries only.
    BottomUp,
    /// Bottom-up with nest pushed below the joins (§4.2.4); linear
    /// correlated queries with equality correlation only.
    BottomUpPushdown,
    /// Semijoin rewrite (§4.2.5); all-positive queries only.
    PositiveRewrite,
    /// Pick automatically: positive rewrite when possible, then the
    /// push-down / bottom-up family, then the optimized cascade.
    Auto,
}

impl Strategy {
    /// The concrete strategies, in the order [`Strategy::Auto`] considers
    /// them (bottom-up is what push-down yields when an edge's correlation
    /// is not an equality; the original approach is never chosen).
    pub const ALL: [Strategy; 5] = [
        Strategy::PositiveRewrite,
        Strategy::BottomUpPushdown,
        Strategy::BottomUp,
        Strategy::Optimized,
        Strategy::Original,
    ];

    /// Stable kebab-case name (used in trace events and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Original => "original",
            Strategy::Optimized => "optimized",
            Strategy::BottomUp => "bottom-up",
            Strategy::BottomUpPushdown => "bottom-up-pushdown",
            Strategy::PositiveRewrite => "positive-rewrite",
            Strategy::Auto => "auto",
        }
    }

    /// What a plan of this strategy does, as `EXPLAIN`'s header names it.
    pub fn describe(self) -> &'static str {
        match self {
            Strategy::PositiveRewrite => "positive rewrite (semijoin cascade)",
            Strategy::BottomUpPushdown => "bottom-up with nest push-down",
            Strategy::BottomUp => "bottom-up",
            Strategy::Optimized => "single-sort pipelined cascade",
            Strategy::Original => "Algorithm 1 (two-pass)",
            Strategy::Auto => "automatic choice",
        }
    }
}

/// Which execution engine answers a query; each one's builder plans every
/// `SELECT` arm of a statement ([`crate::build`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's nested relational approach with the given strategy.
    NestedRelational(Strategy),
    /// The "System A"-style native plans (semijoin/antijoin cascades when
    /// licensed, nested iteration with index probes otherwise).
    Baseline,
    /// The brute-force tuple-iteration oracle.
    Reference,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::NestedRelational(Strategy::Auto)
    }
}

impl Engine {
    /// The strategy's name, `baseline` or `reference`.
    pub fn name(self) -> &'static str {
        match self {
            Engine::NestedRelational(strategy) => strategy.name(),
            Engine::Baseline => "baseline",
            Engine::Reference => "reference",
        }
    }
}

/// Why one query block is (or is not) served by the chosen strategy.
#[derive(Debug, Clone)]
pub struct BlockChoice {
    /// The block's id (the paper's `T_i` subscript).
    pub block: usize,
    /// Human-readable, non-empty justification.
    pub reason: String,
}

/// The planner's full, explainable decision: the chosen strategy, a
/// per-block justification, and the strategies it rejected with reasons.
#[derive(Debug, Clone)]
pub struct StrategyDecision {
    pub chosen: Strategy,
    pub blocks: Vec<BlockChoice>,
    /// `(rejected strategy, why)` in the order they were considered.
    pub rejected: Vec<(Strategy, String)>,
}

/// Resolve [`Strategy::Auto`] and record *why*: the builders' §4.2
/// applicability checks, in the order `Auto` tries them, each rejection
/// with its reason.
pub fn decide(query: &BoundQuery) -> StrategyDecision {
    let (chosen, rejected) = crate::plan::auto(query);
    StrategyDecision {
        chosen,
        blocks: block_reasons(query, chosen),
        rejected,
    }
}

/// Per-block justification for running `strategy` on `query` — a reason is
/// produced for *every* block, including forced (non-auto) strategies.
pub fn block_reasons(query: &BoundQuery, strategy: Strategy) -> Vec<BlockChoice> {
    let mut blocks = Vec::new();
    let linear = query.root.is_linear();
    query.root.visit(&mut |block: &QueryBlock, edge| {
        let reason = match (strategy, edge) {
            (Strategy::PositiveRewrite, None) => format!(
                "root of an all-positive query ({} blocks): §4.2.5 rewrites the whole \
                 tree into a cascade of (generalized) semijoins, multiplicity restored \
                 via synthesized rids",
                query.root.block_count()
            ),
            (Strategy::PositiveRewrite, Some(e)) => format!(
                "linked by positive `{}`: σ over υ degenerates to a semijoin, so no \
                 nested relation is ever materialized",
                e.link.describe()
            ),
            (Strategy::BottomUp | Strategy::BottomUpPushdown, None) => format!(
                "head of a linear correlated chain of {} blocks: inner blocks reduce \
                 bottom-up (§4.2.3) before joining upward",
                query.root.block_count()
            ),
            (Strategy::BottomUp | Strategy::BottomUpPushdown, Some(e)) => {
                // The push-down builder yields a bottom-up plan unless every
                // edge's correlation is an equality.
                format!(
                    "correlates only with its adjacent outer block b{}: reducible \
                     before the outer join{} [link `{}`]",
                    block.id - 1,
                    match strategy {
                        Strategy::BottomUpPushdown =>
                            "; equality correlation lets the nest commute past the join (§4.2.4)",
                        _ => "",
                    },
                    e.link.describe()
                )
            }
            (Strategy::Original, None) => format!(
                "Algorithm 1 (§4.1): top-down unnesting joins then bottom-up nest + \
                 linking selection, two passes per level ({} blocks)",
                query.root.block_count()
            ),
            (Strategy::Original, Some(e)) => format!(
                "attached by left outer join, then υ + {} computes `{}` over the \
                 nested set",
                if e.link.is_negative() {
                    "σ/σ̄"
                } else {
                    "σ"
                },
                e.link.describe()
            ),
            (Strategy::Optimized | Strategy::Auto, None) => {
                if !linear {
                    format!(
                        "tree query (block b{} nests {} subqueries): Algorithm 1 with \
                         the fused one-pass nest+selection (§4.2.2)",
                        block.id,
                        block.children.len()
                    )
                } else if query.root.block_count() == 1 {
                    "flat query: plain select/project, no nested processing needed".to_string()
                } else {
                    format!(
                        "linear chain of {} blocks: one physical sort by the rid chain, \
                         then a pipelined cascade of linking selections (§4.2.1–§4.2.2)",
                        query.root.block_count()
                    )
                }
            }
            (Strategy::Optimized | Strategy::Auto, Some(e)) => {
                if linear {
                    format!(
                        "cascade level {}: linking predicate `{}` folded during the \
                         single group scan — no per-level re-sort",
                        block.id - 1,
                        e.link.describe()
                    )
                } else {
                    format!(
                        "evaluated in Algorithm-1 order with nest and `{}` selection \
                         fused into one pass",
                        e.link.describe()
                    )
                }
            }
        };
        blocks.push(BlockChoice {
            block: block.id,
            reason,
        });
    });
    blocks
}

/// Emit one `StrategyChosen` trace event per block; the root block's
/// event carries the alternatives rejected at plan time. No-op when
/// tracing is off.
pub(crate) fn emit_decision(
    query: &BoundQuery,
    strategy: Strategy,
    rejected: &[(Strategy, String)],
    forced: bool,
) {
    if !trace::enabled() {
        return;
    }
    for (i, choice) in block_reasons(query, strategy).into_iter().enumerate() {
        let event = TraceEvent::StrategyChosen {
            block: choice.block,
            name: strategy.name().to_string(),
            reason: if forced {
                format!("forced by caller: {}", choice.reason)
            } else {
                choice.reason
            },
            alternatives: if i == 0 {
                (rejected.iter())
                    .map(|(s, why)| (s.name().to_string(), why.clone()))
                    .collect()
            } else {
                Vec::new()
            },
        };
        trace::emit(|| event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_sql::parse_and_bind;
    use nra_storage::{Catalog, Column, ColumnType, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols) in [("r", ["a", "b"]), ("s", ["x", "y"]), ("t", ["u", "v"])] {
            let mut tb = Table::new(
                name,
                Schema::new(cols.map(|c| Column::new(c, ColumnType::Int)).to_vec()),
            );
            tb.insert_many((0..8).map(|i| vec![Value::Int(i % 3), Value::Int(i % 5)]))
                .unwrap();
            cat.add_table(tb).unwrap();
        }
        cat
    }

    #[test]
    fn decide_explains_positive_rewrite() {
        let cat = catalog();
        let q = parse_and_bind("select a from r where a in (select x from s)", &cat).unwrap();
        let d = decide(&q);
        assert_eq!(d.chosen, Strategy::PositiveRewrite);
        assert_eq!(d.blocks.len(), 2);
        assert!(d.blocks.iter().all(|b| !b.reason.is_empty()));
        assert!(d.rejected.is_empty());
    }

    #[test]
    fn decide_rejects_positive_rewrite_with_reason() {
        let cat = catalog();
        let q = parse_and_bind("select a from r where a not in (select x from s)", &cat).unwrap();
        let d = decide(&q);
        assert_ne!(d.chosen, Strategy::PositiveRewrite);
        let (s, why) = &d.rejected[0];
        assert_eq!(*s, Strategy::PositiveRewrite);
        assert!(why.contains("<> all"), "reason names the operator: {why}");
    }

    #[test]
    fn decide_explains_every_block_of_a_tree_query() {
        let cat = catalog();
        let q = parse_and_bind(
            "select a from r where a not in (select x from s where s.y = r.b) \
             and b > all (select v from t where t.u = r.a)",
            &cat,
        )
        .unwrap();
        let d = decide(&q);
        assert_eq!(d.chosen, Strategy::Optimized);
        assert_eq!(d.blocks.len(), 3);
        for b in &d.blocks {
            assert!(!b.reason.is_empty(), "block {} missing reason", b.block);
        }
        // Both the positive rewrite and the bottom-up family were rejected.
        assert_eq!(d.rejected.len(), 2);
        assert!(d.rejected[1].1.contains("tree query"));
    }

    /// The plan `Auto` builds runs the strategy `decide` names, and
    /// records the same rejections.
    #[test]
    fn auto_strategy_matches_decide() {
        let cat = catalog();
        for sql in [
            "select a from r where a in (select x from s where s.y = r.b)",
            "select a from r where a not in (select x from s where s.y = r.b)",
            "select a from r where a not in (select x from s where s.y < r.b)",
            "select a from r",
        ] {
            let q = parse_and_bind(sql, &cat).unwrap();
            let d = decide(&q);
            let plan = crate::plan::build(q.into(), Engine::default()).unwrap();
            assert_eq!(plan.engine(), Engine::NestedRelational(d.chosen), "{sql}");
            let rejected = |r: &[(Strategy, String)]| r.iter().map(|(s, _)| *s).collect::<Vec<_>>();
            assert_eq!(rejected(&plan.rejected()), rejected(&d.rejected), "{sql}");
        }
    }
}
