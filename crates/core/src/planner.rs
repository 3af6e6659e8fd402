//! Strategy selection for the nested relational approach, with
//! trace-visible decision logging: when query-lifecycle tracing is active
//! ([`nra_obs::trace`]), [`execute`] emits a `StrategyChosen` event for
//! every query block explaining why the chosen strategy applies to it, and
//! (under [`Strategy::Auto`]) why each rejected alternative was passed
//! over.

use nra_engine::EngineError;
use nra_obs::trace::{self, TraceEvent};
use nra_sql::{BoundQuery, QueryBlock};
use nra_storage::{Catalog, Relation};

use crate::compute::{execute_original, execute_with_style, NestStyle};
use crate::optimize::{
    execute_bottom_up, execute_bottom_up_pushdown, execute_optimized, execute_positive_rewrite,
};

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
}

/// The strategy [`Strategy::Auto`] resolves to for a given query.
pub fn auto_strategy(query: &BoundQuery) -> Strategy {
    decide(query).chosen
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

/// Resolve [`Strategy::Auto`] and record *why*: the same checks as the
/// paper's §4.2 applicability conditions, each producing a reason string
/// whether it accepts or rejects.
pub fn decide(query: &BoundQuery) -> StrategyDecision {
    let links = query.link_ops();
    let multi_block = query.root.block_count() > 1;
    let mut rejected = Vec::new();

    // §4.2.5 — all-positive queries degenerate to semijoin cascades.
    if !multi_block {
        rejected.push((
            Strategy::PositiveRewrite,
            "flat query: no linking operators to rewrite".to_string(),
        ));
    } else if !query.all_links_positive() {
        let negative: Vec<String> = links
            .iter()
            .filter(|op| op.is_negative())
            .map(|op| format!("`{}`", op.describe()))
            .collect();
        rejected.push((
            Strategy::PositiveRewrite,
            format!(
                "negative linking operator(s) {} need NULL-aware set semantics a \
                 semijoin discards",
                negative.join(", ")
            ),
        ));
    } else {
        let chosen = Strategy::PositiveRewrite;
        return StrategyDecision {
            chosen,
            blocks: block_reasons(query, chosen),
            rejected,
        };
    }

    // §4.2.3/§4.2.4 — bottom-up for linear correlated queries.
    if query.is_linear_correlated() {
        let chosen = Strategy::BottomUpPushdown;
        return StrategyDecision {
            chosen,
            blocks: block_reasons(query, chosen),
            rejected,
        };
    }
    rejected.push((
        Strategy::BottomUpPushdown,
        if !query.root.is_linear() {
            "tree query: a block nests more than one subquery, so there is no \
             single chain to reduce bottom-up"
                .to_string()
        } else if !multi_block {
            "flat query: nothing to evaluate bottom-up".to_string()
        } else {
            "correlated predicates reference a non-adjacent outer block, so inner \
             blocks cannot be reduced before their ancestors"
                .to_string()
        },
    ));

    let chosen = Strategy::Optimized;
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
                let mut r = format!(
                    "correlates only with its adjacent outer block b{}: reducible \
                     before the outer join",
                    block.id - 1
                );
                if strategy == Strategy::BottomUpPushdown {
                    let all_eq = block
                        .correlated_preds
                        .iter()
                        .all(|p| matches!(p.as_column_cmp(), Some((_, nra_storage::CmpOp::Eq, _))));
                    if all_eq {
                        r.push_str(
                            "; equality correlation lets the nest commute past the join (§4.2.4)",
                        );
                    } else {
                        r.push_str("; non-equality correlation keeps the nest above the join");
                    }
                }
                r.push_str(&format!(" [link `{}`]", e.link.describe()));
                r
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

/// Emit one `StrategyChosen` trace event per block (the root block's event
/// carries the rejected alternatives). No-op when tracing is off.
fn emit_decision(decision: &StrategyDecision, forced: bool) {
    if !trace::enabled() {
        return;
    }
    let name = decision.chosen.name();
    for (i, choice) in decision.blocks.iter().enumerate() {
        let event = TraceEvent::StrategyChosen {
            block: choice.block,
            name: name.to_string(),
            reason: if forced {
                format!("forced by caller: {}", choice.reason)
            } else {
                choice.reason.clone()
            },
            alternatives: if i == 0 {
                decision
                    .rejected
                    .iter()
                    .map(|(s, why)| (s.name().to_string(), why.clone()))
                    .collect()
            } else {
                Vec::new()
            },
        };
        trace::emit(|| event);
    }
}

/// Execute a bound query with the given strategy.
pub fn execute(
    query: &BoundQuery,
    catalog: &Catalog,
    strategy: Strategy,
) -> Result<Relation, EngineError> {
    match strategy {
        Strategy::Original => {
            emit_forced(query, strategy);
            execute_original(query, catalog)
        }
        Strategy::Optimized => {
            emit_forced(query, strategy);
            execute_optimized(query, catalog)
        }
        Strategy::BottomUp => {
            emit_forced(query, strategy);
            execute_bottom_up(query, catalog)
        }
        Strategy::BottomUpPushdown => {
            emit_forced(query, strategy);
            match execute_bottom_up_pushdown(query, catalog) {
                Err(EngineError::Unsupported(why)) => {
                    emit_fallback(query, Strategy::BottomUp, &why);
                    execute_bottom_up(query, catalog)
                }
                other => other,
            }
        }
        Strategy::PositiveRewrite => {
            emit_forced(query, strategy);
            execute_positive_rewrite(query, catalog)
        }
        Strategy::Auto => {
            let decision = {
                let _plan = trace::phase(|| "plan".to_string());
                let decision = decide(query);
                emit_decision(&decision, false);
                decision
            };
            debug_assert_ne!(decision.chosen, Strategy::Auto);
            match execute_concrete(query, catalog, decision.chosen) {
                // The static checks in decide() are conservative but the
                // specialised executors may still bail (e.g. push-down on
                // non-equality correlation); fall back to the general
                // optimized path.
                Err(EngineError::Unsupported(why)) => {
                    emit_fallback(query, Strategy::Optimized, &why);
                    execute_optimized(query, catalog)
                }
                other => other,
            }
        }
    }
}

/// Dispatch without re-emitting decision events (the Auto path logged
/// them already).
fn execute_concrete(
    query: &BoundQuery,
    catalog: &Catalog,
    strategy: Strategy,
) -> Result<Relation, EngineError> {
    match strategy {
        Strategy::Original => execute_original(query, catalog),
        Strategy::Optimized => execute_optimized(query, catalog),
        Strategy::BottomUp => execute_bottom_up(query, catalog),
        Strategy::BottomUpPushdown => match execute_bottom_up_pushdown(query, catalog) {
            Err(EngineError::Unsupported(why)) => {
                emit_fallback(query, Strategy::BottomUp, &why);
                execute_bottom_up(query, catalog)
            }
            other => other,
        },
        Strategy::PositiveRewrite => execute_positive_rewrite(query, catalog),
        Strategy::Auto => unreachable!("auto resolves before dispatch"),
    }
}

fn emit_forced(query: &BoundQuery, strategy: Strategy) {
    if !trace::enabled() {
        return;
    }
    let _plan = trace::phase(|| "plan".to_string());
    let decision = StrategyDecision {
        chosen: strategy,
        blocks: block_reasons(query, strategy),
        rejected: Vec::new(),
    };
    emit_decision(&decision, true);
}

/// A specialised executor bailed at runtime; log the downgrade.
fn emit_fallback(query: &BoundQuery, to: Strategy, why: &str) {
    let root = query.root.id;
    trace::emit(|| TraceEvent::StrategyChosen {
        block: root,
        name: to.name().to_string(),
        reason: format!("runtime fallback: chosen strategy bailed ({why})"),
        alternatives: Vec::new(),
    });
}

/// Algorithm 1 with a chosen nest style — exposed for the processing-cost
/// ablation benchmarks.
pub fn execute_style(
    query: &BoundQuery,
    catalog: &Catalog,
    style: NestStyle,
) -> Result<Relation, EngineError> {
    execute_with_style(query, catalog, style)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_sql::parse_and_bind;
    use nra_storage::{Column, ColumnType, Schema, Table, Value};

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

    #[test]
    fn auto_strategy_matches_decide() {
        let cat = catalog();
        for sql in [
            "select a from r where a in (select x from s where s.y = r.b)",
            "select a from r where a not in (select x from s where s.y = r.b)",
            "select a from r",
        ] {
            let q = parse_and_bind(sql, &cat).unwrap();
            assert_eq!(auto_strategy(&q), decide(&q).chosen, "{sql}");
        }
    }
}
