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

use nra_engine::planning::{project_select, split_join_conds};
use nra_engine::vec::FxHashMap;
use nra_engine::{faultinject, governor, join, EngineError, JoinKind, JoinSpec};
use nra_sql::{BoundQuery, LinkOp, QueryBlock, SubqueryEdge};
use nra_storage::{Catalog, GroupKey, Relation, Truth, Value};

use crate::compute::{edge_selection, prepare_base, resolve_link_columns, rid_column};
use crate::optimize::fused::{fused_nest_select, FusedLink};

fn chain(query: &BoundQuery) -> (Vec<&QueryBlock>, Vec<&SubqueryEdge>) {
    let mut blocks = vec![&query.root];
    let mut edges = Vec::new();
    let mut cur = &query.root;
    while let Some(edge) = cur.children.first() {
        edges.push(edge);
        blocks.push(&edge.block);
        cur = &edge.block;
    }
    (blocks, edges)
}

/// Bottom-up evaluation. Errors with `Unsupported` unless the query is
/// linear correlated.
pub fn execute_bottom_up(query: &BoundQuery, catalog: &Catalog) -> Result<Relation, EngineError> {
    if !query.is_linear_correlated() {
        return Err(EngineError::unsupported(
            "bottom-up evaluation requires a linear correlated query",
        ));
    }
    let (blocks, edges) = chain(query);
    let n = blocks.len();

    // reduced = the fully reduced relation of blocks k+1..n.
    let mut reduced: Option<Relation> = None;
    for k in (0..n).rev() {
        let mut rel = {
            let _sc = (k > 0).then(|| nra_obs::scope(|| format!("b{}", blocks[k].id)));
            prepare_base(blocks[k], catalog)?
        };
        if let Some(child) = reduced.take() {
            let edge = edges[k];
            let _sc = nra_obs::scope(|| format!("b{}", edge.block.id));
            // Shrink the child to the columns the level needs: correlated
            // attributes, the linked attribute, and the rid marker.
            let child = shrink_child(&child, edge)?;
            let split =
                split_join_conds(&edge.block.correlated_preds, rel.schema(), child.schema())?;
            let joined = join(
                &rel,
                &child,
                &JoinSpec::new(JoinKind::LeftOuter, split.eq, split.residual),
            )?;
            let (joined, outer, inner) = resolve_link_columns(joined, blocks[k], edge)?;
            // Nest by everything that is not the child's: the child's own
            // columns — including a materialized `__b{child}.lval` — form
            // the nested attributes.
            let n2 = crate::compute::owned_columns(joined.schema(), &edge.block);
            let n1: Vec<usize> = (0..joined.schema().len())
                .filter(|i| !n2.contains(i))
                .collect();
            let selection = edge_selection(edge, outer.as_deref(), inner.as_deref())?;
            let link = FusedLink::from_selection(&selection, joined.schema(), &n1)?;
            // Plain σ at every level: see the module docs.
            rel = fused_nest_select(joined, &n1, link, false, &[])?;
        }
        reduced = Some(rel);
    }
    project_select(
        reduced.expect("at least the root block"),
        &query.root,
        catalog,
    )
}

/// Project a reduced child relation down to the columns its parent level
/// consumes.
fn shrink_child(child: &Relation, edge: &SubqueryEdge) -> Result<Relation, EngineError> {
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
    Ok(child.project(&keep))
}

/// Bottom-up evaluation with the nest pushed below the join (§4.2.4):
/// instead of outer joining and then nesting by the parent, the child is
/// nested (hash-grouped) by its equality correlation key once, and each
/// parent tuple probes its group directly — join, nest and linking
/// selection collapse into one hash lookup per parent tuple.
///
/// Requires the query to be linear correlated with pure equality
/// correlated predicates; errors with `Unsupported` otherwise.
pub fn execute_bottom_up_pushdown(
    query: &BoundQuery,
    catalog: &Catalog,
) -> Result<Relation, EngineError> {
    if !query.is_linear_correlated() {
        return Err(EngineError::unsupported(
            "nest push-down requires a linear correlated query",
        ));
    }
    let (blocks, edges) = chain(query);
    let n = blocks.len();

    if n > 1 {
        // §4.2.4: the nest commutes below the join (same operator count,
        // but the nest now runs on the smaller, pre-join input).
        nra_obs::trace::emit(|| {
            let ops = crate::tree_expr::TreeExpr::build(query).op_count();
            nra_obs::trace::TraceEvent::RewriteStep {
                rule: "nest-past-join".to_string(),
                nodes_before: ops,
                nodes_after: ops,
            }
        });
    }

    let mut reduced: Option<Relation> = None;
    for k in (0..n).rev() {
        let mut rel = {
            let _sc = (k > 0).then(|| nra_obs::scope(|| format!("b{}", blocks[k].id)));
            prepare_base(blocks[k], catalog)?
        };
        if let Some(mut child) = reduced.take() {
            let edge = edges[k];
            let _sc = nra_obs::scope(|| format!("b{}", edge.block.id));
            let split =
                split_join_conds(&edge.block.correlated_preds, rel.schema(), child.schema())?;
            if split.residual.is_some() || split.eq.is_empty() {
                return Err(EngineError::unsupported(
                    "nest push-down requires equality correlated predicates \
                     (the nesting attribute must be the join attribute)",
                ));
            }
            // Materialize computed linking attributes: the outer one on the
            // parent, the inner (linked) one on the child.
            let outer = match &edge.outer_expr {
                None => None,
                Some(nra_sql::BExpr::Col(c)) => Some(c.clone()),
                Some(expr) => {
                    let name = crate::compute::oval_column(blocks[k].id, edge.block.id);
                    rel = crate::compute::append_computed(rel, &name, expr)?;
                    Some(name)
                }
            };
            let inner = match &edge.inner_expr {
                None => None,
                Some(nra_sql::BExpr::Col(c)) => Some(c.clone()),
                Some(expr) => {
                    let name = crate::compute::lval_column(edge.block.id);
                    child = crate::compute::append_computed(child, &name, expr)?;
                    Some(name)
                }
            };

            // υ pushed down: hash-group the child by the correlation key.
            let child_keys: Vec<usize> = split.eq.iter().map(|&(_, r)| r).collect();
            let parent_keys: Vec<usize> = split.eq.iter().map(|&(l, _)| l).collect();
            let inner_idx = match (edge.link, &inner) {
                (LinkOp::Exists | LinkOp::NotExists, _) => None,
                // COUNT(*) carries no linked attribute.
                (LinkOp::Agg { .. }, None) => None,
                (_, Some(name)) => Some(
                    child
                        .schema()
                        .try_resolve(name)
                        .ok_or_else(|| EngineError::Column(name.clone()))?,
                ),
                (_, None) => {
                    return Err(EngineError::unsupported(
                        "quantified link without a linked attribute",
                    ))
                }
            };
            // The group map holds one member value per child row plus the
            // key columns — charge it before the buffers are built.
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

            let outer_idx = outer
                .as_deref()
                .map(|o| {
                    rel.schema()
                        .try_resolve(o)
                        .ok_or_else(|| EngineError::Column(o.to_string()))
                })
                .transpose()?;

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
                let truth = match edge.link {
                    LinkOp::Exists => Truth::from_bool(!members.is_empty()),
                    LinkOp::NotExists => Truth::from_bool(members.is_empty()),
                    LinkOp::Agg { op, func } => {
                        let outer_val = &row[outer_idx.expect("outer")];
                        // For COUNT(*) the stored member values are NULL
                        // placeholders; `aggregate` counts rows for it.
                        let folded = nra_storage::aggregate(func, members.iter());
                        outer_val.sql_compare(op, &folded)
                    }
                    LinkOp::Some(op) => {
                        let outer_val = &row[outer_idx.expect("outer")];
                        let mut acc = Truth::False;
                        for m in members {
                            acc = acc.or(outer_val.sql_compare(op, m));
                            if acc == Truth::True {
                                break;
                            }
                        }
                        acc
                    }
                    LinkOp::All(op) => {
                        let outer_val = &row[outer_idx.expect("outer")];
                        let mut acc = Truth::True;
                        for m in members {
                            acc = acc.and(outer_val.sql_compare(op, m));
                            if acc == Truth::False {
                                break;
                            }
                        }
                        acc
                    }
                };
                sp.outcome(truth);
                if truth == Truth::True {
                    out.push(row);
                }
            }
            sp.rows_out(out.len());
            drop(sp);
            rel = Relation::with_rows(schema, out);
        }
        reduced = Some(rel);
    }
    project_select(
        reduced.expect("at least the root block"),
        &query.root,
        catalog,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_engine::reference;
    use nra_sql::parse_and_bind;
    use nra_storage::{Column, ColumnType, Schema, Table};

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
        let bu = execute_bottom_up(&bq, &cat).unwrap();
        assert!(
            bu.multiset_eq(&want),
            "bottom-up != oracle for {sql}\ngot:\n{bu}\nwant:\n{want}"
        );
        let pd = execute_bottom_up_pushdown(&bq, &cat).unwrap();
        assert!(
            pd.multiset_eq(&want),
            "push-down != oracle for {sql}\ngot:\n{pd}\nwant:\n{want}"
        );
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
        assert!(matches!(
            execute_bottom_up(&bq, &cat),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn pushdown_rejects_non_equality_correlation() {
        let cat = catalog();
        let bq = parse_and_bind(
            "select a from r where exists (select * from s where s.x < r.a)",
            &cat,
        )
        .unwrap();
        assert!(matches!(
            execute_bottom_up_pushdown(&bq, &cat),
            Err(EngineError::Unsupported(_))
        ));
        // ... but the general bottom-up handles it.
        let want = reference::evaluate(&bq, &cat).unwrap();
        let bu = execute_bottom_up(&bq, &cat).unwrap();
        assert!(bu.multiset_eq(&want));
    }
}
