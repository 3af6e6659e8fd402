//! Bottom-up semijoin/antijoin cascade — System A's set-oriented plan for
//! linear correlated queries with unnestable linking operators.
//!
//! For each edge, deepest first:
//!
//! * `EXISTS` / `θ SOME` / `IN`  → semijoin of the parent with the reduced
//!   child on the correlated predicates (plus the linking comparison as a
//!   residual for `θ SOME`). Null-safe unconditionally: a `NULL` on either
//!   side of any condition simply fails to match, which is exactly the
//!   three-valued result (`FALSE`/`UNKNOWN` both reject).
//! * `NOT EXISTS` → antijoin, null-safe for the same reason.
//! * `A θ ALL`/`NOT IN` → antijoin on the *negated* comparison
//!   (`A θ̄ B`). Correct **only** when neither `A` nor `B` can be `NULL` —
//!   which is why [`super::choose`] gates this plan on the `NOT NULL`
//!   constraints, mirroring the paper's System A observation.

use nra_sql::{BPred, BoundQuery, LinkOp, QueryBlock};
use nra_storage::{Catalog, Relation};

use crate::error::EngineError;
use crate::ops::{join, JoinKind, JoinSpec};
use crate::planning::{block_base, project_select, split_join_conds};

/// Execute a linear correlated query bottom-up.
pub fn execute(query: &BoundQuery, catalog: &Catalog) -> Result<Relation, EngineError> {
    let reduced = reduce(&query.root, catalog)?;
    project_select(reduced, &query.root, catalog)
}

/// Reduce a block to the set of its tuples satisfying all linking
/// predicates, by reducing children first and then semi/antijoining.
fn reduce(block: &QueryBlock, catalog: &Catalog) -> Result<Relation, EngineError> {
    let mut rel = block_base(block, catalog, false)?;

    for edge in &block.children {
        let _sc = nra_obs::scope(|| format!("b{}", edge.block.id));
        let child = reduce(&edge.block, catalog)?;

        // Join conditions: the child's correlated predicates, plus the
        // linking comparison for quantified links.
        let mut conds: Vec<BPred> = edge.block.correlated_preds.clone();
        let (kind, negate_link) = match edge.link {
            LinkOp::Exists => (JoinKind::Semi, false),
            LinkOp::Some(_) => (JoinKind::Semi, false),
            LinkOp::NotExists => (JoinKind::Anti, false),
            LinkOp::All(_) => (JoinKind::Anti, true),
            LinkOp::Agg { .. } => {
                return Err(EngineError::unsupported(
                    "the semijoin/antijoin cascade does not evaluate aggregate links",
                ))
            }
        };
        match edge.link {
            LinkOp::Some(op) => conds.push(BPred::Cmp {
                left: edge.outer_expr.clone().expect("SOME has outer expr"),
                op,
                right: edge.inner_expr.clone().expect("SOME has inner expr"),
            }),
            LinkOp::All(op) => {
                debug_assert!(negate_link);
                conds.push(BPred::Cmp {
                    left: edge.outer_expr.clone().expect("ALL has outer expr"),
                    op: op.negate(),
                    right: edge.inner_expr.clone().expect("ALL has inner expr"),
                });
            }
            _ => {}
        }

        let split = split_join_conds(&conds, rel.schema(), child.schema())?;
        rel = join(&rel, &child, &JoinSpec::new(kind, split.eq, split.residual))?;
    }
    Ok(rel)
}

/// General positive unnesting: a query whose linking operators are all
/// positive (`EXISTS`, `θ SOME/ANY`, `IN`) unnests into a cascade of
/// (generalized) semijoins even when the correlation is non-adjacent —
/// ancestor columns are kept alongside while descending (inner join),
/// deeper blocks reduce further, and a distinct on the prefix restores
/// semijoin multiplicity exactly (each prefix row is unique thanks to a
/// synthesized row id per block). This is the plan family System A uses
/// for the paper's Query 3c.
pub fn execute_positive(query: &BoundQuery, catalog: &Catalog) -> Result<Relation, EngineError> {
    if !query.root.children.is_empty() && !query.link_ops().iter().all(|op| op.is_positive()) {
        return Err(EngineError::unsupported(
            "positive unnesting applies only when every linking operator is positive",
        ));
    }
    let rel = block_base(&query.root, catalog, true)?;
    let rel = reduce_positive(&query.root, rel, catalog)?;
    project_select(rel, &query.root, catalog)
}

fn reduce_positive(
    block: &QueryBlock,
    mut rel: Relation,
    catalog: &Catalog,
) -> Result<Relation, EngineError> {
    for edge in &block.children {
        let _sc = nra_obs::scope(|| format!("b{}", edge.block.id));
        let child = block_base(&edge.block, catalog, true)?;

        let mut conds: Vec<BPred> = edge.block.correlated_preds.clone();
        if let LinkOp::Some(op) = edge.link {
            conds.push(BPred::Cmp {
                left: edge.outer_expr.clone().expect("SOME has outer expr"),
                op,
                right: edge.inner_expr.clone().expect("SOME has inner expr"),
            });
        }

        let split = split_join_conds(&conds, rel.schema(), child.schema())?;
        if edge.block.children.is_empty() {
            rel = join(
                &rel,
                &child,
                &JoinSpec::new(JoinKind::Semi, split.eq, split.residual),
            )?;
        } else {
            let width = rel.schema().len();
            let joined = join(
                &rel,
                &child,
                &JoinSpec::new(JoinKind::Inner, split.eq, split.residual),
            )?;
            let reduced = reduce_positive(&edge.block, joined, catalog)?;
            let prefix: Vec<usize> = (0..width).collect();
            rel = reduced.project(&prefix).distinct();
        }
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use nra_sql::parse_and_bind;
    use nra_storage::{Column, ColumnType, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = Table::new(
            "r",
            Schema::new(vec![
                Column::not_null("a", ColumnType::Int),
                Column::not_null("b", ColumnType::Int),
            ]),
        );
        r.insert_many((0..20).map(|i| vec![Value::Int(i % 7), Value::Int(i)]))
            .unwrap();
        cat.add_table(r).unwrap();
        let mut s = Table::new(
            "s",
            Schema::new(vec![
                Column::not_null("x", ColumnType::Int),
                Column::not_null("y", ColumnType::Int),
            ]),
        );
        s.insert_many((0..15).map(|i| vec![Value::Int(i % 5), Value::Int(i * 2)]))
            .unwrap();
        cat.add_table(s).unwrap();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::not_null("u", ColumnType::Int),
                Column::not_null("v", ColumnType::Int),
            ]),
        );
        t.insert_many((0..12).map(|i| vec![Value::Int(i % 5), Value::Int(i * 3)]))
            .unwrap();
        cat.add_table(t).unwrap();
        cat
    }

    fn check(sql: &str) {
        let cat = catalog();
        let bq = parse_and_bind(sql, &cat).unwrap();
        let got = execute(&bq, &cat).unwrap();
        let want = reference::evaluate(&bq, &cat).unwrap();
        assert!(
            got.multiset_eq(&want),
            "cascade disagrees with oracle for {sql}\ngot:\n{got}\nwant:\n{want}"
        );
    }

    #[test]
    fn semijoin_matches_oracle_exists() {
        check("select a, b from r where exists (select * from s where s.x = r.a)");
    }

    #[test]
    fn antijoin_matches_oracle_not_exists() {
        check(
            "select a, b from r where not exists (select * from s where s.x = r.a and s.y > r.b)",
        );
    }

    #[test]
    fn some_link_with_comparison() {
        check("select a, b from r where b < some (select y from s where s.x = r.a)");
    }

    #[test]
    fn all_link_with_not_null_columns() {
        check("select a, b from r where b > all (select y from s where s.x = r.a)");
    }

    #[test]
    fn two_level_linear_cascade() {
        check(
            "select a, b from r where b > all (select y from s where s.x = r.a \
             and not exists (select * from t where t.u = s.x and t.v > s.y))",
        );
    }

    #[test]
    fn uncorrelated_subquery() {
        check("select a, b from r where a in (select x from s where y > 10)");
    }
}
