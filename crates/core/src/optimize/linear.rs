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

/// The nest pushed below the join (§4.2.4): instead of outer joining and
/// then nesting by the parent, the reduced `child` is nested
/// (hash-grouped) by its equality correlation key once, and each parent
/// tuple of `rel` probes its group directly, keeping the tuples whose
/// (possibly empty) set satisfies `selection`. `keys` pairs a parent
/// column with a child column; the linking attribute is resolved on
/// `rel`, the linked one on `child`.
pub(crate) fn nest_probe(
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
    use crate::plan::{build, run};
    use crate::Strategy;
    use nra_engine::reference;
    use nra_sql::parse_and_bind;
    use nra_storage::{Catalog, Column, ColumnType, Table};
    use std::sync::Arc;

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
            let plan = build(Arc::new(bq.clone()), strategy).unwrap();
            assert_eq!(plan.strategy(), strategy, "{sql}");
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
                build(Arc::new(bq.clone()), strategy),
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
        let plan = build(Arc::new(bq.clone()), Strategy::BottomUpPushdown).unwrap();
        assert_eq!(plan.strategy(), Strategy::BottomUp);
        let (rejected, why) = &plan.rejected()[0];
        assert_eq!(*rejected, Strategy::BottomUpPushdown);
        assert!(why.contains("not an equality"), "{why}");
        let want = reference::evaluate(&bq, &cat).unwrap();
        assert!(run(&plan, &cat).unwrap().multiset_eq(&want));
    }
}
