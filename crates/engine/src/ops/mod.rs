//! Physical operators over materialized relations.
//!
//! These are the flat building blocks that both the baseline ("System A")
//! plans and the nested relational approach compose. Joins live in
//! [`join`]; this module holds scans, filters, projections, sorting and the
//! Cartesian product.

pub mod join;
pub mod setops;

pub use join::{join, JoinKind, JoinSpec};
pub use setops::{difference, difference_all, intersect, intersect_all, union, union_all};

use nra_storage::{Relation, Table};

use crate::error::EngineError;
use crate::expr::CPred;

/// Scan a base table, exposing its columns qualified by `exposed`: a
/// full-width copy, every row rebuilt from the stored columns. Only the
/// reference evaluator (the oracle, which must not share the engine's
/// scan) and nested iteration's inner probe tables use it; query blocks go
/// through [`crate::planning::block_base`], which copies nothing it does
/// not carry.
pub fn scan(table: &Table, exposed: &str) -> Relation {
    Relation::with_rows(
        table.schema().qualified(exposed),
        table.rows().collect(), // copy-lint: allow (oracle scan)
    )
}

/// Keep only rows for which `pred` evaluates to `TRUE`, one row at a
/// time through [`CPred::accepts`]. The input is an intermediate relation
/// — rows, not stored lanes — so there is nothing to vectorize over, and
/// the oracle's filter shares no kernel with the engine's scan.
pub fn filter(rel: &Relation, pred: &CPred) -> Relation {
    let rows = (rel.rows().iter())
        .filter(|row| pred.accepts(row))
        .cloned()
        .collect();
    Relation::with_rows(rel.schema().clone(), rows)
}

/// Project onto named columns.
pub fn project(rel: &Relation, names: &[&str]) -> Result<Relation, EngineError> {
    let idx: Vec<usize> = names
        .iter()
        .map(|n| {
            rel.schema()
                .try_resolve(n)
                .ok_or_else(|| EngineError::Column((*n).to_string()))
        })
        .collect::<Result<_, _>>()?;
    Ok(rel.project(&idx))
}

/// Sort (stably) by the named columns, `NULL` first.
pub fn sort(rel: &mut Relation, names: &[&str]) -> Result<(), EngineError> {
    let idx: Vec<usize> = names
        .iter()
        .map(|n| {
            rel.schema()
                .try_resolve(n)
                .ok_or_else(|| EngineError::Column((*n).to_string()))
        })
        .collect::<Result<_, _>>()?;
    rel.sort_by_columns(&idx);
    Ok(())
}

/// Cartesian product (used only for non-correlated subqueries, where the
/// paper notes the product is "virtual"; tests use it directly).
pub fn cartesian(left: &Relation, right: &Relation) -> Relation {
    let schema = left.schema().concat(right.schema());
    let mut out = Relation::new(schema);
    for l in left.rows() {
        for r in right.rows() {
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            out.push_unchecked(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_sql::{BExpr, BPred};
    use nra_storage::{CmpOp, Column, ColumnType, Schema, Value};

    fn rel_ab() -> Relation {
        Relation::with_rows(
            Schema::new(vec![
                Column::new("t.a", ColumnType::Int),
                Column::new("t.b", ColumnType::Int),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Null],
                vec![Value::Null, Value::Int(30)],
            ],
        )
    }

    #[test]
    fn scan_qualifies_names() {
        let mut t = Table::new("base", Schema::new(vec![Column::new("x", ColumnType::Int)]));
        t.insert(vec![Value::Int(1)]).unwrap();
        let r = scan(&t, "b1");
        assert_eq!(r.schema().names(), vec!["b1.x"]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn filter_drops_unknown() {
        let rel = rel_ab();
        let pred = CPred::compile(
            &BPred::cmp(BExpr::col("t.a"), CmpOp::Ge, BExpr::Lit(Value::Int(1))),
            rel.schema(),
        )
        .unwrap();
        let out = filter(&rel, &pred);
        assert_eq!(out.len(), 2, "NULL row must not pass");
    }

    #[test]
    fn project_by_names() {
        let rel = rel_ab();
        let out = project(&rel, &["t.b"]).unwrap();
        assert_eq!(out.schema().names(), vec!["t.b"]);
        assert!(project(&rel, &["t.z"]).is_err());
    }

    #[test]
    fn sort_by_names() {
        let mut rel = rel_ab();
        sort(&mut rel, &["t.a"]).unwrap();
        assert!(rel.rows()[0][0].is_null());
    }

    #[test]
    fn cartesian_product() {
        let rel = rel_ab();
        let out = cartesian(&rel, &rel);
        assert_eq!(out.len(), 9);
        assert_eq!(out.schema().len(), 4);
    }
}
