//! Set operations: union, intersection, difference.
//!
//! The paper's Section 3 lists these among the standard operations the
//! nested relational algebra inherits (`∪`, `∩`, `−`); they complete the
//! algebra even though the subquery-processing pipeline itself leans on
//! joins and nest. Semantics are SQL's *set* semantics (`UNION` /
//! `INTERSECT` / `EXCEPT` without `ALL`): duplicates are eliminated, and
//! rows compare under grouping equality (`NULL` matches `NULL`, as SQL set
//! operations do — unlike `WHERE`-clause equality).

use nra_storage::{GroupKey, Relation};

use crate::error::EngineError;
use crate::vec::{FxHashMap, FxHashSet};

fn check_arity(left: &Relation, right: &Relation) -> Result<(), EngineError> {
    if left.schema().len() != right.schema().len() {
        return Err(EngineError::unsupported(format!(
            "set operation on incompatible arities ({} vs {})",
            left.schema().len(),
            right.schema().len()
        )));
    }
    Ok(())
}

fn all_cols(rel: &Relation) -> Vec<usize> {
    (0..rel.schema().len()).collect()
}

/// `left ∪ right` (set semantics, left schema kept).
pub fn union(left: &Relation, right: &Relation) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| "setop[union]".to_string());
    sp.rows_in(left.len() + right.len());
    check_arity(left, right)?;
    let cols = all_cols(left);
    let mut seen: FxHashSet<GroupKey> = FxHashSet::default();
    let mut out = Relation::new(left.schema().clone());
    for row in left.rows().iter().chain(right.rows()) {
        if seen.insert(GroupKey::from_tuple(row, &cols)) {
            out.push_unchecked(row.clone());
        }
    }
    sp.rows_out(out.len());
    Ok(out)
}

/// The first occurrence of every distinct `left` row whose membership in
/// `right` equals `keep_members` — `∩` with `true`, `−` with `false`.
fn filter_distinct(
    left: &Relation,
    right: &Relation,
    keep_members: bool,
) -> Result<Relation, EngineError> {
    check_arity(left, right)?;
    let cols = all_cols(left);
    let right_keys: FxHashSet<GroupKey> = right
        .rows()
        .iter()
        .map(|row| GroupKey::from_tuple(row, &cols))
        .collect();
    let mut emitted: FxHashSet<GroupKey> = FxHashSet::default();
    let mut out = Relation::new(left.schema().clone());
    for row in left.rows() {
        let key = GroupKey::from_tuple(row, &cols);
        if right_keys.contains(&key) == keep_members && emitted.insert(key) {
            out.push_unchecked(row.clone());
        }
    }
    Ok(out)
}

/// `left ∩ right` (set semantics).
pub fn intersect(left: &Relation, right: &Relation) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| "setop[intersect]".to_string());
    sp.rows_in(left.len() + right.len());
    let out = filter_distinct(left, right, true)?;
    sp.rows_out(out.len());
    Ok(out)
}

/// `left − right` (set semantics, SQL `EXCEPT`).
pub fn difference(left: &Relation, right: &Relation) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| "setop[difference]".to_string());
    sp.rows_in(left.len() + right.len());
    let out = filter_distinct(left, right, false)?;
    sp.rows_out(out.len());
    Ok(out)
}

/// `left ∪ right` with bag (multiset) semantics (`UNION ALL`).
pub fn union_all(left: &Relation, right: &Relation) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| "setop[union_all]".to_string());
    sp.rows_in(left.len() + right.len());
    check_arity(left, right)?;
    let mut out = left.clone();
    for row in right.rows() {
        out.push_unchecked(row.clone());
    }
    sp.rows_out(out.len());
    Ok(out)
}

/// `left ∩ right` with bag semantics (`INTERSECT ALL`): each row appears
/// `min(count_left, count_right)` times.
pub fn intersect_all(left: &Relation, right: &Relation) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| "setop[intersect_all]".to_string());
    sp.rows_in(left.len() + right.len());
    check_arity(left, right)?;
    let cols = all_cols(left);
    let mut counts: FxHashMap<GroupKey, usize> = FxHashMap::default();
    for row in right.rows() {
        *counts.entry(GroupKey::from_tuple(row, &cols)).or_insert(0) += 1;
    }
    let mut out = Relation::new(left.schema().clone());
    for row in left.rows() {
        if let Some(c) = counts.get_mut(&GroupKey::from_tuple(row, &cols)) {
            if *c > 0 {
                *c -= 1;
                out.push_unchecked(row.clone());
            }
        }
    }
    sp.rows_out(out.len());
    Ok(out)
}

/// `left − right` with bag semantics (`EXCEPT ALL`): each row appears
/// `max(0, count_left − count_right)` times.
pub fn difference_all(left: &Relation, right: &Relation) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| "setop[difference_all]".to_string());
    sp.rows_in(left.len() + right.len());
    check_arity(left, right)?;
    let cols = all_cols(left);
    let mut counts: FxHashMap<GroupKey, usize> = FxHashMap::default();
    for row in right.rows() {
        *counts.entry(GroupKey::from_tuple(row, &cols)).or_insert(0) += 1;
    }
    let mut out = Relation::new(left.schema().clone());
    for row in left.rows() {
        match counts.get_mut(&GroupKey::from_tuple(row, &cols)) {
            Some(c) if *c > 0 => *c -= 1,
            _ => out.push_unchecked(row.clone()),
        }
    }
    sp.rows_out(out.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::{relation, ColumnType, Value};

    fn a() -> Relation {
        relation!(
            [("x", ColumnType::Int)],
            [
                [Value::Int(1)],
                [Value::Int(1)],
                [Value::Int(2)],
                [Value::Null]
            ]
        )
    }

    fn b() -> Relation {
        relation!(
            [("y", ColumnType::Int)],
            [[Value::Int(2)], [Value::Int(3)], [Value::Null]]
        )
    }

    #[test]
    fn union_dedups_and_matches_nulls() {
        let out = union(&a(), &b()).unwrap();
        // {1, 2, NULL, 3}
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn intersect_set_semantics() {
        let out = intersect(&a(), &b()).unwrap();
        // {2, NULL} — SQL INTERSECT treats NULLs as equal.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn difference_set_semantics() {
        let out = difference(&a(), &b()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let out = union_all(&a(), &b()).unwrap();
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn intersect_all_counts_multiplicity() {
        let l = relation!(
            [("x", ColumnType::Int)],
            [[Value::Int(1)], [Value::Int(1)], [Value::Int(1)]]
        );
        let r = relation!([("x", ColumnType::Int)], [[Value::Int(1)], [Value::Int(1)]]);
        assert_eq!(intersect_all(&l, &r).unwrap().len(), 2);
    }

    #[test]
    fn difference_all_counts_multiplicity() {
        let l = relation!(
            [("x", ColumnType::Int)],
            [[Value::Int(1)], [Value::Int(1)], [Value::Int(1)]]
        );
        let r = relation!([("x", ColumnType::Int)], [[Value::Int(1)]]);
        assert_eq!(difference_all(&l, &r).unwrap().len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let two = relation!(
            [("x", ColumnType::Int), ("y", ColumnType::Int)],
            [[Value::Int(1), Value::Int(2)]]
        );
        assert!(union(&a(), &two).is_err());
        assert!(intersect(&a(), &two).is_err());
        assert!(difference(&a(), &two).is_err());
    }

    #[test]
    fn algebraic_identities() {
        // (A − B) ∪ (A ∩ B) = distinct(A)
        let l = a();
        let r = b();
        let rebuilt = union(&difference(&l, &r).unwrap(), &intersect(&l, &r).unwrap()).unwrap();
        assert!(rebuilt.multiset_eq(&l.distinct()));
    }
}
