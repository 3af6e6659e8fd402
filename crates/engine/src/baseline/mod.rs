//! The baseline: "System A"'s native strategies, as described in the
//! paper's Section 5.
//!
//! The commercial system the paper benchmarks against picks between two
//! plan families for non-aggregate subqueries:
//!
//! 1. **Set-oriented unnesting** into a cascade of semijoins/antijoins,
//!    bottom-up — possible when the query is linear correlated and every
//!    linking operator is positive or `NOT EXISTS`. An `ALL`/`NOT IN` link
//!    can only join this family when `NOT NULL` constraints on both the
//!    linking and linked attributes license the antijoin transform (the
//!    paper's Query 1 observation: with the constraint System A antijoins,
//!    without it — even if no NULL is actually present — it cannot).
//! 2. **Nested iteration** otherwise: for each outer tuple, re-evaluate the
//!    subquery, probing the inner table through an index on the equality
//!    correlated columns.
//!
//! [`choose`] reproduces that decision, [`execute`] runs the chosen plan.

pub mod nested_iter;
pub mod unnest;

use nra_sql::{BExpr, BoundQuery, LinkOp, QueryBlock, SubqueryEdge};
use nra_storage::{Catalog, Relation};

use crate::error::EngineError;

/// Which plan family the baseline optimizer picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineChoice {
    /// Bottom-up semijoin/antijoin cascade (set-oriented).
    SemiAntiCascade,
    /// Generalized semijoin unnesting for all-positive queries (handles
    /// non-adjacent correlation — the paper's Query 3c case).
    PositiveUnnest,
    /// Tuple-at-a-time nested iteration with index probes.
    NestedIteration,
}

/// Reproduce System A's plan choice for `query`.
pub fn choose(query: &BoundQuery, catalog: &Catalog) -> BaselineChoice {
    if query.is_linear_correlated() && all_edges_unnestable(&query.root, catalog) {
        BaselineChoice::SemiAntiCascade
    } else if query.all_links_positive() && query.root.block_count() > 1 {
        BaselineChoice::PositiveUnnest
    } else {
        BaselineChoice::NestedIteration
    }
}

fn all_edges_unnestable(block: &QueryBlock, catalog: &Catalog) -> bool {
    block.children.iter().all(|edge| {
        edge_unnestable(block, edge, catalog) && all_edges_unnestable(&edge.block, catalog)
    })
}

/// Is a single linking edge transformable to a semijoin/antijoin?
fn edge_unnestable(parent: &QueryBlock, edge: &SubqueryEdge, catalog: &Catalog) -> bool {
    match edge.link {
        // EXISTS / θ SOME / IN -> semijoin; NOT EXISTS -> antijoin. These
        // are null-safe (see `unnest`).
        LinkOp::Exists | LinkOp::NotExists | LinkOp::Some(_) => true,
        // ALL / NOT IN -> antijoin only when neither side can be NULL.
        LinkOp::All(_) => {
            expr_not_null(edge.outer_expr.as_ref(), parent, catalog)
                && expr_not_null(edge.inner_expr.as_ref(), &edge.block, catalog)
        }
        // Aggregate subqueries are evaluated by nested iteration in the
        // baseline (a Kim-style group-by rewrite is future work there; the
        // nested relational engine handles them natively).
        LinkOp::Agg { .. } => false,
    }
}

/// Conservative NULL-freedom: a non-null literal, or a column declared
/// `NOT NULL` on its base table.
fn expr_not_null(expr: Option<&BExpr>, block: &QueryBlock, catalog: &Catalog) -> bool {
    let Some(expr) = expr else { return false };
    match expr {
        BExpr::Lit(v) => !v.is_null(),
        BExpr::Col(qualified) => {
            let Some((qualifier, col)) = qualified.rsplit_once('.') else {
                return false;
            };
            let Some(bt) = block.tables.iter().find(|t| t.exposed == qualifier) else {
                return false;
            };
            let Ok(table) = catalog.table(&bt.table) else {
                return false;
            };
            match table.schema().resolve(col) {
                Ok(idx) => !table.schema().column(idx).nullable,
                Err(_) => false,
            }
        }
        BExpr::Arith { .. } => false,
    }
}

impl BaselineChoice {
    /// Stable kebab-case name (used in the trace's decision log).
    pub fn name(self) -> &'static str {
        match self {
            BaselineChoice::SemiAntiCascade => "semi-anti-cascade",
            BaselineChoice::PositiveUnnest => "positive-unnest",
            BaselineChoice::NestedIteration => "nested-iteration",
        }
    }
}

/// The baseline optimizer's decision for the trace's decision log:
/// `(name, reason, alternatives)`, the alternatives being the rejected
/// plan families with why System A's rules exclude them.
pub fn choice(query: &BoundQuery, catalog: &Catalog) -> (String, String, Vec<(String, String)>) {
    let choice = choose(query, catalog);
    let unnestable = all_edges_unnestable(&query.root, catalog);
    let mut alternatives = Vec::new();
    let reason = match choice {
        BaselineChoice::SemiAntiCascade => {
            "linear correlated query, every link transformable: bottom-up \
             semijoin/antijoin cascade (set-oriented unnesting)"
                .to_string()
        }
        BaselineChoice::PositiveUnnest => {
            alternatives.push((
                BaselineChoice::SemiAntiCascade.name().to_string(),
                if unnestable {
                    "correlation is not linear (adjacent-block only)".to_string()
                } else {
                    "an ALL/NOT IN edge lacks NOT NULL on both linking \
                     attributes, or an aggregate link blocks the antijoin"
                        .to_string()
                },
            ));
            "all linking operators positive: generalized semijoin unnesting \
             (tolerates non-adjacent correlation)"
                .to_string()
        }
        BaselineChoice::NestedIteration => {
            alternatives.push((
                BaselineChoice::SemiAntiCascade.name().to_string(),
                if query.is_linear_correlated() {
                    "an ALL/NOT IN edge lacks NOT NULL on both linking \
                     attributes, or an aggregate link blocks the antijoin"
                        .to_string()
                } else {
                    "query is not linear correlated".to_string()
                },
            ));
            alternatives.push((
                BaselineChoice::PositiveUnnest.name().to_string(),
                "a negative or aggregate linking operator rules out pure \
                 semijoin unnesting"
                    .to_string(),
            ));
            "no unnesting transform applies: tuple-at-a-time nested \
             iteration with index probes"
                .to_string()
        }
    };
    (format!("baseline/{}", choice.name()), reason, alternatives)
}

/// Execute `query` with the plan family System A would pick.
pub fn execute(query: &BoundQuery, catalog: &Catalog) -> Result<Relation, EngineError> {
    match choose(query, catalog) {
        BaselineChoice::SemiAntiCascade => unnest::execute(query, catalog),
        BaselineChoice::PositiveUnnest => unnest::execute_positive(query, catalog),
        BaselineChoice::NestedIteration => {
            let plan = nested_iter::NestedIterPlan::prepare(query, catalog)?;
            plan.run()
        }
    }
}

/// Human-readable description of the chosen plan (used by the experiment
/// harness to label series the way the paper labels System A's plans).
pub fn describe(query: &BoundQuery, catalog: &Catalog) -> String {
    match choose(query, catalog) {
        BaselineChoice::SemiAntiCascade => {
            let mut parts = Vec::new();
            let mut walk: &QueryBlock = &query.root;
            while let Some(edge) = walk.children.first() {
                parts.push(match edge.link {
                    LinkOp::Exists | LinkOp::Some(_) => "semijoin",
                    LinkOp::NotExists | LinkOp::All(_) => "antijoin",
                    LinkOp::Agg { .. } => unreachable!("gated by edge_unnestable"),
                });
                walk = &edge.block;
            }
            match parts.is_empty() {
                true => "plain scan and project (no subqueries)".to_string(),
                false => format!("bottom-up {}", parts.join(" + ")),
            }
        }
        BaselineChoice::PositiveUnnest => "generalized semijoin unnesting".to_string(),
        BaselineChoice::NestedIteration => "nested iteration with index probes".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_sql::parse_and_bind;
    use nra_storage::{Column, ColumnType, Schema, Table, Value};

    fn catalog(not_null_y: bool) -> Catalog {
        let mut cat = Catalog::new();
        let mut r = Table::new(
            "r",
            Schema::new(vec![
                Column::not_null("a", ColumnType::Int),
                Column::not_null("b", ColumnType::Int),
            ]),
        );
        r.insert_many(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ])
        .unwrap();
        cat.add_table(r).unwrap();
        let y = if not_null_y {
            Column::not_null("y", ColumnType::Int)
        } else {
            Column::new("y", ColumnType::Int)
        };
        let mut s = Table::new("s", Schema::new(vec![Column::new("x", ColumnType::Int), y]));
        s.insert_many(vec![vec![Value::Int(1), Value::Int(5)]])
            .unwrap();
        cat.add_table(s).unwrap();
        cat
    }

    #[test]
    fn all_link_needs_not_null_for_cascade() {
        let sql = "select a from r where b > all (select y from s where s.x = r.a)";
        let with = catalog(true);
        let without = catalog(false);
        let bq_with = parse_and_bind(sql, &with).unwrap();
        let bq_without = parse_and_bind(sql, &without).unwrap();
        assert_eq!(choose(&bq_with, &with), BaselineChoice::SemiAntiCascade);
        assert_eq!(
            choose(&bq_without, &without),
            BaselineChoice::NestedIteration,
            "dropping the constraint forces nested iteration even though no NULL exists"
        );
    }

    #[test]
    fn positive_links_always_cascade() {
        let sql = "select a from r where b > any (select y from s where s.x = r.a)";
        let cat = catalog(false);
        let bq = parse_and_bind(sql, &cat).unwrap();
        assert_eq!(choose(&bq, &cat), BaselineChoice::SemiAntiCascade);
        assert!(describe(&bq, &cat).contains("semijoin"));
    }

    #[test]
    fn non_adjacent_positive_correlation_unnests_generally() {
        // Inner-most block references r (two levels up): not linear
        // correlated, but all links are positive — System A still unnests
        // (the paper's Query 3c behavior).
        let sql = "select a from r where exists (select * from s where s.x = r.a \
                   and exists (select * from s s2 where s2.x = r.b))";
        let cat = catalog(true);
        let bq = parse_and_bind(sql, &cat).unwrap();
        assert_eq!(choose(&bq, &cat), BaselineChoice::PositiveUnnest);
        assert!(describe(&bq, &cat).contains("generalized semijoin"));
    }

    #[test]
    fn non_adjacent_negative_correlation_forces_iteration() {
        let sql = "select a from r where exists (select * from s where s.x = r.a \
                   and not exists (select * from s s2 where s2.x = r.b))";
        let cat = catalog(true);
        let bq = parse_and_bind(sql, &cat).unwrap();
        assert_eq!(choose(&bq, &cat), BaselineChoice::NestedIteration);
    }
}
