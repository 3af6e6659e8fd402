//! The nest operator `υ_{N1,N2}` (paper Definition 3).
//!
//! `nest(r, N1, N2)` groups the flat relation `r` by the *nesting
//! attributes* `N1` and collects, per group, the set of `N2`-projections of
//! the group's tuples (the *nested attributes*). The definition carries an
//! implicit projection onto `N1 ∪ N2`.
//!
//! The paper's Section 5 implements nest by sorting ("like a group-by, the
//! two obvious options to implement nest are sorting and hashing"); both
//! are provided and produce the same multiset of nested tuples.
//!
//! Grouping semantics treat `NULL` like `GROUP BY` does: `NULL` keys group
//! together. This is deliberate — after the unnesting outer joins, padded
//! rows carry `NULL` primary keys and must land in their outer tuple's
//! group to mark it as (possibly) empty.

use nra_engine::vec::{self, FxHashMap};
use nra_engine::EngineError;
use nra_engine::{faultinject, governor};
use nra_storage::{GroupKey, Relation, Schema};

use crate::nested::{NestedRelation, NestedSchema, NestedTuple};

/// Resolve a list of column names against a flat schema.
fn resolve_all(schema: &Schema, names: &[&str]) -> Result<Vec<usize>, EngineError> {
    names
        .iter()
        .map(|n| {
            schema
                .try_resolve(n)
                .ok_or_else(|| EngineError::Column((*n).to_string()))
        })
        .collect()
}

/// Nest by column indices, hash-based grouping. Group order follows first
/// occurrence; member order follows input order.
pub fn nest_hash_idx(
    rel: &Relation,
    n1: &[usize],
    n2: &[usize],
    sub: &str,
) -> Result<NestedRelation, EngineError> {
    let mut sp = nra_obs::span(|| "nest[hash]".to_string());
    sp.rows_in(rel.len());
    // Group buffers hold one member per input row plus the key atoms;
    // charge them up front so a runaway nest trips the budget before the
    // buffers are built.
    governor::charge(
        "nest",
        governor::tuple_bytes(rel.len(), n1.len() + n2.len()),
    )?;
    let schema = NestedSchema {
        atoms: n1.iter().map(|&i| rel.schema().column(i).clone()).collect(),
        subs: vec![(
            sub.to_string(),
            NestedSchema {
                atoms: n2.iter().map(|&i| rel.schema().column(i).clone()).collect(),
                subs: vec![],
            },
        )],
    };
    let mut order: Vec<GroupKey> = Vec::new();
    let mut groups: FxHashMap<GroupKey, Vec<NestedTuple>> = FxHashMap::default();
    for (rid, row) in rel.rows().iter().enumerate() {
        governor::tick(rid, "nest-scan")?;
        let key = GroupKey::from_tuple(row, n1);
        let member = NestedTuple::flat(n2.iter().map(|&i| row[i].clone()).collect());
        match groups.get_mut(&key) {
            Some(g) => g.push(member),
            None => {
                groups.insert(key.clone(), vec![member]);
                order.push(key);
            }
        }
    }
    faultinject::hit(faultinject::NEST_FLUSH)?;
    let tuples: Vec<NestedTuple> = order
        .into_iter()
        .map(|key| {
            let set = groups
                .remove(&key)
                .expect("every key in `order` has one group");
            sp.group(set.len());
            NestedTuple {
                atoms: key.0,
                sets: vec![set],
            }
        })
        .collect();
    sp.rows_out(tuples.len());
    Ok(NestedRelation { schema, tuples })
}

/// Nest by column indices, sort-based grouping (physically reorders a copy
/// of the input). This is the implementation whose cost the paper's
/// "original approach" measures: one pass to sort/group, then the linking
/// selection in a second pass.
pub fn nest_sort_idx(
    rel: &Relation,
    n1: &[usize],
    n2: &[usize],
    sub: &str,
) -> Result<NestedRelation, EngineError> {
    let mut sp = nra_obs::span(|| "nest[sort]".to_string());
    sp.rows_in(rel.len());
    // The sort path materializes a full copy of the input plus the group
    // buffers; charge both before cloning.
    governor::charge(
        "nest",
        governor::tuple_bytes(rel.len(), rel.schema().len() + n2.len()),
    )?;
    let schema = NestedSchema {
        atoms: n1.iter().map(|&i| rel.schema().column(i).clone()).collect(),
        subs: vec![(
            sub.to_string(),
            NestedSchema {
                atoms: n2.iter().map(|&i| rel.schema().column(i).clone()).collect(),
                subs: vec![],
            },
        )],
    };
    let mut sorted = rel.clone();
    governor::checkpoint("sort")?;
    sorted.sort_by_columns(n1);
    let rows = sorted.rows();
    let bounds = vec::group_bounds(rows, n1, "nest-scan")?;
    faultinject::hit(faultinject::NEST_FLUSH)?;
    let tuples: Vec<NestedTuple> = bounds
        .iter()
        .map(|&(lo, hi)| {
            sp.group(hi - lo);
            let set: Vec<NestedTuple> = rows[lo..hi]
                .iter()
                .map(|r| NestedTuple::flat(n2.iter().map(|&i| r[i].clone()).collect()))
                .collect();
            NestedTuple {
                atoms: n1.iter().map(|&i| rows[lo][i].clone()).collect(),
                sets: vec![set],
            }
        })
        .collect();
    sp.rows_out(tuples.len());
    Ok(NestedRelation { schema, tuples })
}

/// Nest by column names (hash-based).
pub fn nest(
    rel: &Relation,
    n1: &[&str],
    n2: &[&str],
    sub: &str,
) -> Result<NestedRelation, EngineError> {
    let n1 = resolve_all(rel.schema(), n1)?;
    let n2 = resolve_all(rel.schema(), n2)?;
    nest_hash_idx(rel, &n1, &n2, sub)
}

/// Nest by column names (sort-based).
pub fn nest_sorted(
    rel: &Relation,
    n1: &[&str],
    n2: &[&str],
    sub: &str,
) -> Result<NestedRelation, EngineError> {
    let n1 = resolve_all(rel.schema(), n1)?;
    let n2 = resolve_all(rel.schema(), n2)?;
    nest_sort_idx(rel, &n1, &n2, sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::{relation, ColumnType, Value};

    fn sample() -> Relation {
        relation!(
            [
                ("r.a", ColumnType::Int),
                ("s.b", ColumnType::Int),
                ("s.k", ColumnType::Int)
            ],
            [
                [Value::Int(1), Value::Int(10), Value::Int(100)],
                [Value::Int(1), Value::Int(11), Value::Int(101)],
                [Value::Int(2), Value::Null, Value::Null],
                [Value::Null, Value::Int(13), Value::Int(103)],
            ]
        )
    }

    #[test]
    fn nest_groups_by_n1() {
        let n = nest(&sample(), &["r.a"], &["s.b", "s.k"], "s").unwrap();
        assert_eq!(n.len(), 3);
        let g1 = &n.tuples[0];
        assert_eq!(g1.atoms, vec![Value::Int(1)]);
        assert_eq!(g1.sets[0].len(), 2);
        // NULL group key forms its own group.
        let gn = &n.tuples[2];
        assert_eq!(gn.atoms, vec![Value::Null]);
        assert_eq!(gn.sets[0].len(), 1);
    }

    #[test]
    fn hash_and_sort_agree_as_multisets() {
        let rel = sample();
        let a = nest(&rel, &["r.a"], &["s.b"], "s").unwrap();
        let b = nest_sorted(&rel, &["r.a"], &["s.b"], "s").unwrap();
        assert_eq!(a.len(), b.len());
        // Compare via flatten (multiset of (a, b) pairs).
        let fa = a.flatten().unwrap();
        let fb = b.flatten().unwrap();
        assert!(fa.multiset_eq(&fb));
    }

    #[test]
    fn nest_then_unnest_restores_flat_relation() {
        let rel = sample();
        let nested = nest(&rel, &["r.a"], &["s.b", "s.k"], "s").unwrap();
        let back = nested.flatten().unwrap();
        assert!(
            back.multiset_eq(&rel),
            "υ is inverted by unnest when no empty sets exist"
        );
    }

    #[test]
    fn implicit_projection_to_n1_union_n2() {
        let n = nest(&sample(), &["r.a"], &["s.k"], "s").unwrap();
        assert_eq!(n.schema.atoms.len(), 1);
        assert_eq!(n.schema.subs[0].1.atoms.len(), 1);
        assert_eq!(n.schema.depth(), 1);
    }

    #[test]
    fn unknown_columns_error() {
        assert!(nest(&sample(), &["zzz"], &["s.b"], "s").is_err());
        assert!(nest(&sample(), &["r.a"], &["zzz"], "s").is_err());
    }

    #[test]
    fn empty_input_yields_empty_nested_relation() {
        let rel = Relation::new(sample().schema().clone());
        let n = nest(&rel, &["r.a"], &["s.b"], "s").unwrap();
        assert!(n.is_empty());
    }
}
