//! Pushing nest below an (outer) join — paper §4.2.4.
//!
//! When the nesting attribute is also the (equality) join attribute, nest
//! commutes with the join:
//!
//! ```text
//! υ_{B},{C}(R ⟕_{A=B} S)  ≡  R ⟕_{A=B} (υ_{B},{C} S)
//! ```
//!
//! Operationally (the paper's §4.2.4 example): group `S` by its join key
//! once, then attach each `R` tuple to its (possibly empty) group — the
//! large flat intermediate of the standard unnesting never materializes.
//! [`outer_join_nested`] implements the right-hand side; the equivalence
//! with nest-after-join is exercised by this module's tests and by the
//! property suite.

use nra_engine::vec::FxHashMap;
use nra_engine::EngineError;
use nra_engine::{faultinject, governor};
use nra_storage::{Column, GroupKey, Relation};

use crate::nested::{NestedRelation, NestedSchema, NestedTuple};

/// Compute `R ⟕_{A=B} (υ_{B'},{n2}(S))`: each left tuple paired with the
/// set of `n2`-projections of its matching right group (empty when no
/// match — the nested-relational analogue of outer-join padding, with no
/// padding tuple needed).
///
/// `left_key`/`right_key` are parallel column lists; `n2` names the right
/// columns collected into the set.
pub fn outer_join_nested(
    left: &Relation,
    right: &Relation,
    left_key: &[&str],
    right_key: &[&str],
    n2: &[&str],
    sub: &str,
) -> Result<NestedRelation, EngineError> {
    let resolve =
        |schema: &nra_storage::Schema, names: &[&str]| -> Result<Vec<usize>, EngineError> {
            names
                .iter()
                .map(|n| {
                    schema
                        .try_resolve(n)
                        .ok_or_else(|| EngineError::Column((*n).to_string()))
                })
                .collect()
        };
    let lk = resolve(left.schema(), left_key)?;
    let rk = resolve(right.schema(), right_key)?;
    let n2_idx = resolve(right.schema(), n2)?;

    // υ pushed down: group the right side by its key. The group map
    // holds (up to) one member per right row, the output one nested
    // tuple per left row — charge both against the query's budget
    // before the buffers are built.
    faultinject::hit(faultinject::NEST_FLUSH)?;
    governor::charge(
        "nest[pushdown]",
        governor::tuple_bytes(right.len(), n2_idx.len())
            + governor::tuple_bytes(left.len(), left.schema().len()),
    )?;
    let mut groups: FxHashMap<GroupKey, Vec<NestedTuple>> = FxHashMap::default();
    for (i, row) in right.rows().iter().enumerate() {
        governor::tick(i, "nest-build")?;
        if rk.iter().any(|&c| row[c].is_null()) {
            continue; // a NULL key never satisfies the equality join
        }
        groups
            .entry(GroupKey::from_tuple(row, &rk))
            .or_default()
            .push(NestedTuple::flat(
                n2_idx.iter().map(|&i| row[i].clone()).collect(),
            ));
    }

    let schema = NestedSchema {
        atoms: left.schema().columns().to_vec(),
        subs: vec![(
            sub.to_string(),
            NestedSchema {
                atoms: n2_idx
                    .iter()
                    .map(|&i| right.schema().column(i).clone())
                    .collect::<Vec<Column>>(),
                subs: vec![],
            },
        )],
    };
    let mut tuples = Vec::with_capacity(left.len());
    // Scratch probe key, reused across rows.
    let mut key = GroupKey(Vec::with_capacity(lk.len()));
    for (i, row) in left.rows().iter().enumerate() {
        governor::tick(i, "nest-attach")?;
        let set = if lk.iter().any(|&c| row[c].is_null()) {
            vec![]
        } else {
            key.refill(row, &lk);
            groups.get(&key).cloned().unwrap_or_default()
        };
        tuples.push(NestedTuple {
            atoms: row.clone(), // copy-lint: allow (borrowed input becomes nested tuples)
            sets: vec![set],
        });
    }
    Ok(NestedRelation { schema, tuples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linking::{LinkSelection, SetQuant};
    use crate::nest::nest;
    use nra_engine::{join, JoinSpec};
    use nra_storage::{relation, CmpOp, ColumnType, Value};

    fn r() -> Relation {
        relation!(
            [
                ("r.a", ColumnType::Int),
                ("r.d", ColumnType::Int),
                ("r.rid", ColumnType::Int)
            ],
            [
                [Value::Int(5), Value::Int(1), Value::Int(0)],
                [Value::Int(7), Value::Int(2), Value::Int(1)],
                [Value::Int(9), Value::Int(9), Value::Int(2)],
                [Value::Null, Value::Int(1), Value::Int(3)],
            ]
        )
    }

    fn s() -> Relation {
        relation!(
            [
                ("s.g", ColumnType::Int),
                ("s.e", ColumnType::Int),
                ("s.rid", ColumnType::Int)
            ],
            [
                [Value::Int(1), Value::Int(4), Value::Int(0)],
                [Value::Int(1), Value::Int(6), Value::Int(1)],
                [Value::Int(2), Value::Null, Value::Int(2)],
                [Value::Null, Value::Int(8), Value::Int(3)]
            ]
        )
    }

    /// Nest-after-join and join-after-nest must agree once the linking
    /// selection (which consults the marker) is applied and the sets are
    /// projected away.
    #[test]
    fn pushdown_equivalence_under_linking_selection() {
        let (r, s) = (r(), s());
        for (op, quant) in [
            (CmpOp::Gt, SetQuant::All),
            (CmpOp::Le, SetQuant::Some),
            (CmpOp::Ne, SetQuant::All),
            (CmpOp::Eq, SetQuant::Some),
        ] {
            // Standard: R ⟕ S, nest by R's columns, select with marker.
            let joined = join(&r, &s, &JoinSpec::left_outer(vec![(1, 0)])).unwrap();
            let nested = nest(&joined, &["r.a", "r.d", "r.rid"], &["s.e", "s.rid"], "sub").unwrap();
            let sel = LinkSelection::quant("r.a", op, quant, "s.e", Some("s.rid"));
            let standard = sel.select(&nested, "sub").unwrap().atoms_as_relation();

            // Pushed down: groups attached directly; no marker needed
            // because no padding tuple exists — emptiness is a real empty
            // set.
            let pushed =
                outer_join_nested(&r, &s, &["r.d"], &["s.g"], &["s.e", "s.rid"], "sub").unwrap();
            let sel_nomark = LinkSelection::quant("r.a", op, quant, "s.e", None);
            let via_pushdown = sel_nomark
                .select(&pushed, "sub")
                .unwrap()
                .atoms_as_relation();

            assert!(
                standard.multiset_eq(&via_pushdown),
                "push-down mismatch for {op:?} {quant:?}:\nstandard:\n{standard}\npushed:\n{via_pushdown}"
            );
        }
    }

    #[test]
    fn pushdown_equivalence_for_emptiness() {
        let (r, s) = (r(), s());
        let joined = join(&r, &s, &JoinSpec::left_outer(vec![(1, 0)])).unwrap();
        let nested = nest(&joined, &["r.a", "r.d", "r.rid"], &["s.e", "s.rid"], "sub").unwrap();
        let standard = LinkSelection::empty(Some("s.rid"))
            .select(&nested, "sub")
            .unwrap()
            .atoms_as_relation();
        let pushed =
            outer_join_nested(&r, &s, &["r.d"], &["s.g"], &["s.e", "s.rid"], "sub").unwrap();
        let via_pushdown = LinkSelection::empty(None)
            .select(&pushed, "sub")
            .unwrap()
            .atoms_as_relation();
        assert!(standard.multiset_eq(&via_pushdown));
        // r.d=9 has no partner and r.a=NULL's d=1 *does* have partners:
        // exactly one empty set.
        assert_eq!(via_pushdown.len(), 1);
    }

    #[test]
    fn null_join_keys_yield_empty_sets() {
        let left = relation!([("l.k", ColumnType::Int)], [[Value::Null], [Value::Int(1)]]);
        let right = relation!(
            [("r.k", ColumnType::Int), ("r.v", ColumnType::Int)],
            [
                [Value::Int(1), Value::Int(10)],
                [Value::Null, Value::Int(20)]
            ]
        );
        let out = outer_join_nested(&left, &right, &["l.k"], &["r.k"], &["r.v"], "sub").unwrap();
        assert!(
            out.tuples[0].sets[0].is_empty(),
            "NULL left key matches nothing"
        );
        assert_eq!(
            out.tuples[1].sets[0].len(),
            1,
            "NULL right key is not a member"
        );
    }

    #[test]
    fn unknown_column_errors() {
        let (r, s) = (r(), s());
        assert!(outer_join_nested(&r, &s, &["zz"], &["s.g"], &["s.e"], "x").is_err());
        assert!(outer_join_nested(&r, &s, &["r.d"], &["zz"], &["s.e"], "x").is_err());
        assert!(outer_join_nested(&r, &s, &["r.d"], &["s.g"], &["zz"], "x").is_err());
    }
}
