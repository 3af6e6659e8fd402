//! Bottom-up evaluation of linear correlated queries (paper §4.2.3).
//!
//! When every inner block is correlated only to its adjacent outer block,
//! the evaluation order can be flipped: reduce the innermost pair first,
//! then outer join the next block up against the *already reduced* child.
//! Only qualified tuples participate in further joins, so intermediates
//! stay small. Because the parent is attached by a fresh outer join at
//! each level, failing child tuples can simply be discarded (plain σ) —
//! the outer join re-creates the empty-set padding for parents that lose
//! all their members.
//!
//! `nest_probe` is the §4.2.4 variant's body: the nest pushed below the
//! join, so join, nest and linking selection collapse into one hash lookup
//! per parent tuple. The plans themselves are built in [`crate::plan`].

use nra_engine::vec::FxHashMap;
use nra_engine::{faultinject, governor, EngineError};
use nra_sql::SubqueryEdge;
use nra_storage::{GroupKey, Relation, Schema, Truth, Value};

use crate::compute::rid_column;
use crate::linking::{fold, LinkSelection, NULL};

/// Project a reduced child relation down to the columns its parent level
/// consumes.
pub(crate) fn shrink_child(child: &Relation, edge: &SubqueryEdge) -> Relation {
    let mut keep: Vec<usize> = Vec::new();
    let add = |name: &str, keep: &mut Vec<usize>| {
        if let Some(i) = child.schema().try_resolve(name) {
            if !keep.contains(&i) {
                keep.push(i);
            }
        }
    };
    for pred in &edge.block.correlated_preds {
        for col in pred.columns() {
            add(col, &mut keep);
        }
    }
    if let Some(expr) = &edge.inner_expr {
        for col in expr.columns() {
            add(col, &mut keep);
        }
    }
    add(&rid_column(edge.block.id), &mut keep);
    keep.sort_unstable();
    child.project(&keep)
}

/// The nest pushed below the join (§4.2.4): when the nesting attribute is
/// also the (equality) join attribute, nest commutes with the join,
///
/// ```text
/// σ(υ_{B},{C}(R ⟕_{A=B} S))  ≡  σ(R ⟕_{A=B} (υ_{B},{C} S))
/// ```
///
/// so instead of outer joining and then nesting by the parent, the reduced
/// `child` is nested (hash-grouped) by its equality correlation key once,
/// and each parent tuple of `rel` probes its group directly, keeping the
/// tuples whose (possibly empty) set satisfies `selection`. The large flat
/// intermediate of the standard unnesting never materializes. `keys` pairs
/// a parent column with a child column; the linking attribute is resolved
/// on `rel`, the linked one on `child`.
pub fn nest_probe(
    rel: Relation,
    child: Relation,
    keys: &[(String, String)],
    selection: &LinkSelection,
) -> Result<Relation, EngineError> {
    let resolve = |schema: &Schema, name: &str| {
        (schema.try_resolve(name)).ok_or_else(|| EngineError::Column(name.to_string()))
    };
    let parent_keys: Vec<usize> = (keys.iter())
        .map(|(p, _)| resolve(rel.schema(), p))
        .collect::<Result<_, _>>()?;
    let child_keys: Vec<usize> = (keys.iter())
        .map(|(_, c)| resolve(child.schema(), c))
        .collect::<Result<_, _>>()?;
    let (outer, inner) = selection.cond.columns();
    // `None` for `[NOT] EXISTS` and `COUNT(*)`, which only count members.
    let inner_idx = inner.map(|i| resolve(child.schema(), i)).transpose()?;

    // The group map holds one member value per child row plus the key
    // columns — charge it before the buffers are built.
    faultinject::hit(faultinject::NEST_FLUSH)?;
    governor::charge(
        "nest[hash]",
        governor::tuple_bytes(child.len(), 1 + child_keys.len()),
    )?;
    let mut groups: FxHashMap<GroupKey, Vec<Value>> = FxHashMap::default();
    {
        let mut sp = nra_obs::span(|| "nest[hash]".to_string());
        sp.rows_in(child.len());
        for (i, row) in child.rows().iter().enumerate() {
            governor::tick(i, "nest-build")?;
            if child_keys.iter().any(|&c| row[c].is_null()) {
                continue; // can never match an SQL equality
            }
            let v = inner_idx.map(|i| row[i].clone()).unwrap_or(Value::Null);
            groups
                .entry(GroupKey::from_tuple(row, &child_keys))
                .or_default()
                .push(v);
        }
        if sp.active() {
            let mut entries = 0usize;
            for g in groups.values() {
                sp.group(g.len());
                entries += g.len();
            }
            // ~16 bytes per stored member value plus the key columns.
            sp.hash_build(entries, entries * 16 + groups.len() * child_keys.len() * 16);
            sp.rows_out(groups.len());
        }
    }

    let outer_idx = outer.map(|o| resolve(rel.schema(), o)).transpose()?;

    // Probe: each parent tuple meets its (possibly empty) set.
    let mut sp = nra_obs::span(|| "link".to_string());
    sp.rows_in(rel.len());
    faultinject::hit(faultinject::LINKING_SCAN)?;
    governor::charge("link", governor::tuple_bytes(rel.len(), rel.schema().len()))?;
    let schema = rel.schema().clone();
    let mut out = Vec::new();
    // Scratch probe key, reused across rows.
    let mut key = GroupKey(Vec::with_capacity(parent_keys.len()));
    for (i, row) in rel.into_rows().into_iter().enumerate() {
        governor::tick(i, "linking-scan")?;
        // A NULL key matches nothing: an empty set, never probed.
        let members: &[Value] = if parent_keys.iter().any(|&c| row[c].is_null()) {
            &[]
        } else {
            key.refill(&row, &parent_keys);
            groups.get(&key).map_or(&[], Vec::as_slice)
        };
        let truth = fold(
            &selection.cond,
            outer_idx.map_or(&NULL, |o| &row[o]),
            members.iter(),
        );
        sp.outcome(truth);
        if truth == Truth::True {
            out.push(row);
        }
    }
    sp.rows_out(out.len());
    drop(sp);
    Ok(Relation::with_rows(schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linking::SetQuant;
    use crate::nest::nest;
    use crate::plan::{build, run};
    use crate::{Engine, Strategy};
    use nra_engine::{join, reference, JoinSpec};
    use nra_sql::parse_and_bind;
    use nra_storage::{relation, Catalog, CmpOp, Column, ColumnType, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = Table::new(
            "r",
            Schema::new(vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ]),
        );
        r.insert_many((0..28).map(|i| {
            vec![
                if i % 11 == 7 {
                    Value::Null
                } else {
                    Value::Int(i % 6)
                },
                Value::Int(i % 9),
            ]
        }))
        .unwrap();
        cat.add_table(r).unwrap();
        let mut s = Table::new(
            "s",
            Schema::new(vec![
                Column::new("x", ColumnType::Int),
                Column::new("y", ColumnType::Int),
            ]),
        );
        s.insert_many((0..20).map(|i| {
            vec![
                Value::Int(i % 5),
                if i % 6 == 1 {
                    Value::Null
                } else {
                    Value::Int(i % 8)
                },
            ]
        }))
        .unwrap();
        cat.add_table(s).unwrap();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("u", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ]),
        );
        t.insert_many((0..16).map(|i| vec![Value::Int(i % 5), Value::Int(i % 4)]))
            .unwrap();
        cat.add_table(t).unwrap();
        cat
    }

    fn check(sql: &str) {
        let cat = catalog();
        let bq = parse_and_bind(sql, &cat).unwrap();
        let want = reference::evaluate(&bq, &cat).unwrap();
        for strategy in [Strategy::BottomUp, Strategy::BottomUpPushdown] {
            let plan = build(bq.clone().into(), Engine::NestedRelational(strategy)).unwrap();
            assert_eq!(plan.engine(), Engine::NestedRelational(strategy), "{sql}");
            let got = run(&plan, &cat).unwrap();
            assert!(
                got.multiset_eq(&want),
                "{} != oracle for {sql}\ngot:\n{got}\nwant:\n{want}",
                strategy.name()
            );
        }
    }

    #[test]
    fn one_level_each_operator() {
        check("select a, b from r where b > all (select y from s where s.x = r.a)");
        check("select a, b from r where b not in (select y from s where s.x = r.a)");
        check("select a, b from r where b < some (select y from s where s.x = r.a)");
        check("select a, b from r where exists (select * from s where s.x = r.a)");
        check("select a, b from r where not exists (select * from s where s.x = r.a)");
    }

    #[test]
    fn two_level_mixed() {
        check(
            "select a, b from r where b > all (select y from s where s.x = r.a \
             and exists (select * from t where t.u = s.x))",
        );
    }

    #[test]
    fn two_level_negative() {
        check(
            "select a, b from r where b not in (select y from s where s.x = r.a \
             and s.y >= all (select v from t where t.u = s.x))",
        );
    }

    #[test]
    fn rejects_non_linear_correlated() {
        let cat = catalog();
        let bq = parse_and_bind(
            "select a from r where exists (select * from s where s.x = r.a \
             and exists (select * from t where t.u = r.a))",
            &cat,
        )
        .unwrap();
        for strategy in [Strategy::BottomUp, Strategy::BottomUpPushdown] {
            assert!(matches!(
                build(bq.clone().into(), Engine::NestedRelational(strategy)),
                Err(EngineError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn pushdown_rejects_non_equality_correlation() {
        let cat = catalog();
        let bq = parse_and_bind(
            "select a from r where exists (select * from s where s.x < r.a)",
            &cat,
        )
        .unwrap();
        // The push-down builder rejects the edge at plan time and yields
        // the bottom-up plan instead.
        let pushdown = Engine::NestedRelational(Strategy::BottomUpPushdown);
        let plan = build(bq.clone().into(), pushdown).unwrap();
        assert_eq!(plan.engine(), Engine::NestedRelational(Strategy::BottomUp));
        let (rejected, why) = &plan.decisions(&cat).0[0].alternatives[0];
        assert_eq!(rejected, Strategy::BottomUpPushdown.name());
        assert!(why.contains("not an equality"), "{why}");
        let want = reference::evaluate(&bq, &cat).unwrap();
        assert!(run(&plan, &cat).unwrap().multiset_eq(&want));
    }

    /// §4.2.4's example relations: `R(a, d)` correlated to `S(g, e)` on
    /// `r.d = s.g`, with NULLs in a linking value, a join key on each side
    /// and a linked value.
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

    /// Nest-after-join under `selection` (which consults the marker), as
    /// the relation of the passing `R` tuples.
    fn nest_after_join(selection: &LinkSelection) -> Relation {
        let joined = join(&r(), &s(), &JoinSpec::left_outer(vec![(1, 0)])).unwrap();
        let nested = nest(&joined, &["r.a", "r.d", "r.rid"], &["s.e", "s.rid"], "sub").unwrap();
        selection
            .select(&nested, "sub")
            .unwrap()
            .atoms_as_relation()
    }

    fn probe(selection: &LinkSelection) -> Relation {
        let keys = [("r.d".to_string(), "s.g".to_string())];
        nest_probe(r(), s(), &keys, selection).unwrap()
    }

    /// Nest-after-join and the probe of the pushed-down nest agree under
    /// every quantified linking selection.
    #[test]
    fn pushdown_equivalence_under_linking_selection() {
        for (op, quant) in [
            (CmpOp::Gt, SetQuant::All),
            (CmpOp::Le, SetQuant::Some),
            (CmpOp::Ne, SetQuant::All),
            (CmpOp::Eq, SetQuant::Some),
        ] {
            let standard = nest_after_join(&LinkSelection::quant(
                "r.a",
                op,
                quant,
                "s.e",
                Some("s.rid"),
            ));
            // No marker: a group holds no padding tuple, so emptiness is a
            // real empty set.
            let pushed = probe(&LinkSelection::quant("r.a", op, quant, "s.e", None));
            assert!(
                standard.multiset_eq(&pushed),
                "push-down mismatch for {op:?} {quant:?}:\nstandard:\n{standard}\npushed:\n{pushed}"
            );
        }
    }

    #[test]
    fn pushdown_equivalence_for_emptiness() {
        let standard = nest_after_join(&LinkSelection::empty(Some("s.rid")));
        let pushed = probe(&LinkSelection::empty(None));
        assert!(standard.multiset_eq(&pushed));
        // r.d=9 has no partner and r.a=NULL's d=1 *does* have partners:
        // exactly one empty set.
        assert_eq!(pushed.len(), 1);
    }

    /// A NULL parent key probes nothing (an empty set, so `= ALL` holds);
    /// a NULL child key is in no group (else 20 would fail `10 = ALL`).
    #[test]
    fn null_join_keys_yield_empty_sets() {
        let left = relation!(
            [("l.k", ColumnType::Int), ("l.a", ColumnType::Int)],
            [
                [Value::Null, Value::Int(5)],
                [Value::Int(1), Value::Int(10)]
            ]
        );
        let right = relation!(
            [("r.k", ColumnType::Int), ("r.v", ColumnType::Int)],
            [
                [Value::Int(1), Value::Int(10)],
                [Value::Null, Value::Int(20)]
            ]
        );
        let keys = [("l.k".to_string(), "r.k".to_string())];
        let all = LinkSelection::quant("l.a", CmpOp::Eq, SetQuant::All, "r.v", None);
        let out = nest_probe(left.clone(), right, &keys, &all).unwrap();
        assert!(out.multiset_eq(&left), "{out}");
    }

    #[test]
    fn unknown_column_errors() {
        let sel = LinkSelection::quant("r.a", CmpOp::Eq, SetQuant::Some, "s.e", None);
        let keys = |p: &str, c: &str| [(p.to_string(), c.to_string())];
        assert!(nest_probe(r(), s(), &keys("zz", "s.g"), &sel).is_err());
        assert!(nest_probe(r(), s(), &keys("r.d", "zz"), &sel).is_err());
        let bad = LinkSelection::quant("r.a", CmpOp::Eq, SetQuant::Some, "zz", None);
        assert!(nest_probe(r(), s(), &keys("r.d", "s.g"), &bad).is_err());
    }
}
