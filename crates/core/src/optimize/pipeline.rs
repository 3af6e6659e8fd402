//! The optimized nested relational approach: one sort + a pipelined
//! cascade of linking selections (paper §4.2.1 + §4.2.2).
//!
//! Section 4.2.1 observes that along a linear chain of blocks, every nest
//! uses a *prefix* of the nesting attributes of the nest below it; all the
//! nesting can therefore be done with a single physical reordering — sort
//! the fully joined relation once by the chain of row ids — after which
//! every level's groups are contiguous. Section 4.2.2 adds pipelining: the
//! linking selection is evaluated while each group is being scanned.
//!
//! [`execute_optimized`] implements exactly that for linear queries (which
//! covers every experiment in the paper); non-linear (tree) queries fall
//! back to Algorithm 1 with the fused nest+selection operator, which keeps
//! the one-pass-per-level property but re-sorts between levels.

use nra_engine::planning::{project_select, split_join_conds};
use nra_engine::{faultinject, governor, join, EngineError, JoinKind, JoinSpec};
use nra_sql::{BoundQuery, QueryBlock, SubqueryEdge};
use nra_storage::{Catalog, Relation, Truth, Tuple, Value};

use crate::compute::{
    edge_modes, edge_selection, execute_with_style, owned_columns, prepare_base,
    resolve_link_columns, rid_column, NestStyle,
};
use crate::optimize::fused::FusedLink;

/// Execute with the optimized approach (single-sort pipelined cascade for
/// linear queries; fused Algorithm 1 otherwise).
pub fn execute_optimized(query: &BoundQuery, catalog: &Catalog) -> Result<Relation, EngineError> {
    if query.root.is_linear() {
        execute_linear_cascade(query, catalog)
    } else {
        execute_with_style(query, catalog, NestStyle::Fused)
    }
}

/// Phase 1 of the approach in isolation: the unnesting left outer joins of
/// a linear query, producing the flat intermediate result (the paper's
/// "intermediate result" whose size parameterises the §5.2 cost numbers).
/// Exposed so the benchmark harness can separate join cost from the
/// nest + linking-selection processing cost.
pub fn unnest_join_phase(query: &BoundQuery, catalog: &Catalog) -> Result<Relation, EngineError> {
    let (_, edges) = chain(query);
    let mut rel = prepare_base(&query.root, catalog)?;
    for edge in &edges {
        let _sc = nra_obs::scope(|| format!("b{}", edge.block.id));
        let child = prepare_base(&edge.block, catalog)?;
        let split = split_join_conds(&edge.block.correlated_preds, rel.schema(), child.schema())?;
        rel = join(
            &rel,
            &child,
            &JoinSpec::new(JoinKind::LeftOuter, split.eq, split.residual),
        )?;
    }
    Ok(rel)
}

/// The spine of a linear query: blocks from root to leaf with the edges
/// between them.
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

struct Level {
    /// Full-schema index of block k's row id.
    rid: usize,
    /// The link between block k and k+1.
    link: FusedLink,
    /// Full-schema indices of block k's own columns (σ̄ padding).
    pad: Vec<usize>,
    use_pseudo: bool,
    /// Precomputed qualified stats name for this level's linking selection
    /// (the cascade is a per-group hot path, so no span per group).
    obs_name: String,
}

/// Single-sort pipelined evaluation of a linear query.
pub fn execute_linear_cascade(
    query: &BoundQuery,
    catalog: &Catalog,
) -> Result<Relation, EngineError> {
    let (blocks, edges) = chain(query);

    if !edges.is_empty() {
        // §4.2.1: per-level υ + σ pairs collapse into one physical sort
        // plus per-level selections folded into the group scan.
        nra_obs::trace::emit(|| {
            let n = blocks.len();
            nra_obs::trace::TraceEvent::RewriteStep {
                rule: "single-sort-cascade".to_string(),
                nodes_before: crate::tree_expr::TreeExpr::build(query).op_count(),
                nodes_after: 2 + n + 2 * (n - 1),
            }
        });
    }

    // Phase 1 (top-down): the unnesting outer joins.
    let mut rel = unnest_join_phase(query, catalog)?;

    if edges.is_empty() {
        return project_select(rel, &query.root, catalog);
    }

    // Materialize computed linking attributes (no-ops when the linking
    // predicate compares bare columns).
    let mut link_cols = Vec::new();
    for (k, edge) in edges.iter().enumerate() {
        let (rel2, outer, inner) = resolve_link_columns(rel, blocks[k], edge)?;
        rel = rel2;
        link_cols.push((outer, inner));
    }

    // Phase 2: the single physical reordering — sort by the chain of rids.
    let rid_idx: Vec<usize> = blocks[..blocks.len() - 1]
        .iter()
        .map(|b| {
            rel.schema()
                .try_resolve(&rid_column(b.id))
                .ok_or_else(|| EngineError::Column(rid_column(b.id)))
        })
        .collect::<Result<_, _>>()?;
    {
        let mut sp = nra_obs::span(|| "nest[sort]".to_string());
        sp.rows_in(rel.len());
        governor::charge(
            "nest[sort]",
            governor::tuple_bytes(rel.len(), rel.schema().len()),
        )?;
        governor::checkpoint("sort")?;
        rel.sort_by_columns(&rid_idx);
    }

    // Phase 3 (bottom-up, pipelined): one scan evaluating every level.
    let modes = edge_modes(query);
    let mut levels = Vec::new();
    for (k, edge) in edges.iter().enumerate() {
        let (outer, inner) = &link_cols[k];
        let selection = edge_selection(edge, outer.as_deref(), inner.as_deref())?;
        let link = FusedLink::from_selection(&selection, rel.schema(), &[])?;
        levels.push(Level {
            rid: rid_idx[k],
            link,
            pad: owned_columns(rel.schema(), blocks[k]),
            use_pseudo: *modes.get(&edge.block.id).unwrap_or(&false),
            obs_name: format!("b{}/link", edge.block.id),
        });
    }

    faultinject::hit(faultinject::LINKING_SCAN)?;
    let schema = rel.schema().clone();
    let mut cascade = Cascade {
        rows: rel.into_rows(),
        levels: &levels,
    };
    let survivors = cascade.reduce(0, cascade.rows.len(), 0)?;
    let rows = survivors
        .into_iter()
        .map(|i| std::mem::take(&mut cascade.rows[i]))
        .collect();
    project_select(Relation::with_rows(schema, rows), &query.root, catalog)
}

/// The sorted intermediate, owned: σ̄ pads in place and the final
/// survivors are moved out, so no level copies a row.
struct Cascade<'a> {
    rows: Vec<Tuple>,
    levels: &'a [Level],
}

impl Cascade<'_> {
    /// Reduce the rows in `[lo, hi)` — which agree on the rids of blocks
    /// `0..k` — to the indices of the surviving block-`k` representative
    /// tuples.
    ///
    /// The range is scanned in subgroups of constant `rid_k`. A subgroup's
    /// members are its own rows at the deepest level, else the survivors of
    /// the recursive reduction one level down; the level-`k` linking
    /// predicate is folded over them, and the subgroup head survives (σ),
    /// is padded in place (σ̄), or is dropped. Padding a head only touches
    /// block `k`'s columns, which nothing below level `k` reads again.
    fn reduce(&mut self, lo: usize, hi: usize, k: usize) -> Result<Vec<usize>, EngineError> {
        let levels = self.levels;
        let lv = &levels[k];
        let deepest = k + 1 == levels.len();
        let mut out = Vec::new();
        let mut i = lo;
        let mut groups = 0usize;
        while i < hi {
            governor::tick(groups, "linking-scan")?;
            groups += 1;
            let mut j = i + 1;
            while j < hi && self.rows[j][lv.rid].group_eq(&self.rows[i][lv.rid]) {
                j += 1;
            }
            let (truth, members) = if deepest {
                let members = &self.rows[i..j];
                (lv.link.eval(members.iter().map(|m| m.as_slice())), j - i)
            } else {
                let members = self.reduce(i, j, k + 1)?;
                let rows = &self.rows;
                (
                    lv.link.eval(members.iter().map(|&m| rows[m].as_slice())),
                    members.len(),
                )
            };
            let is_padded = truth != Truth::True && lv.use_pseudo;
            nra_obs::record(&lv.obs_name, |s| {
                s.record_group(members);
                s.record_outcome(truth);
                if is_padded {
                    s.padded += 1;
                }
            });
            if is_padded {
                for &p in &lv.pad {
                    self.rows[i][p] = Value::Null;
                }
            }
            if truth == Truth::True || is_padded {
                out.push(i);
            }
            i = j;
        }
        nra_obs::record(&lv.obs_name, |s| {
            s.rows_in += (hi - lo) as u64;
            s.rows_out += out.len() as u64;
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::execute_original;
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
        r.insert_many((0..30).map(|i| {
            vec![
                if i % 9 == 8 {
                    Value::Null
                } else {
                    Value::Int(i % 6)
                },
                Value::Int(i % 13),
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
        s.insert_many((0..24).map(|i| {
            vec![
                Value::Int(i % 5),
                if i % 8 == 5 {
                    Value::Null
                } else {
                    Value::Int(i % 11)
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
        t.insert_many((0..18).map(|i| vec![Value::Int(i % 4), Value::Int(i % 7)]))
            .unwrap();
        cat.add_table(t).unwrap();
        cat
    }

    fn check(sql: &str) {
        let cat = catalog();
        let bq = parse_and_bind(sql, &cat).unwrap();
        let want = reference::evaluate(&bq, &cat).unwrap();
        let original = execute_original(&bq, &cat).unwrap();
        assert!(
            original.multiset_eq(&want),
            "original NR != oracle for {sql}\ngot:\n{original}\nwant:\n{want}"
        );
        let optimized = execute_optimized(&bq, &cat).unwrap();
        assert!(
            optimized.multiset_eq(&want),
            "optimized NR != oracle for {sql}\ngot:\n{optimized}\nwant:\n{want}"
        );
    }

    #[test]
    fn one_level_all() {
        check("select a, b from r where b > all (select y from s where s.x = r.a)");
    }

    #[test]
    fn one_level_not_in() {
        check("select a, b from r where b not in (select y from s where s.x = r.a)");
    }

    #[test]
    fn one_level_exists_and_not_exists() {
        check("select a, b from r where exists (select * from s where s.x = r.a and s.y > r.b)");
        check("select a, b from r where not exists (select * from s where s.x = r.a)");
    }

    #[test]
    fn two_level_negative_chain() {
        check(
            "select a, b from r where b not in (select y from s where s.x = r.a \
             and s.y > all (select v from t where t.u = s.x))",
        );
    }

    #[test]
    fn two_level_mixed_chain() {
        check(
            "select a, b from r where b < some (select y from s where s.x = r.a \
             and not exists (select * from t where t.u = s.x and t.v = s.y))",
        );
    }

    #[test]
    fn two_level_non_adjacent_correlation() {
        // The paper's Query Q shape: innermost block correlated to both
        // ancestors, with a non-equality correlated predicate.
        check(
            "select a, b from r where b not in (select y from s where r.b = s.x \
             and s.y > all (select v from t where t.u = r.a and t.v <> s.y))",
        );
    }

    #[test]
    fn tree_query_two_children() {
        check(
            "select a, b from r where b in (select y from s where s.x = r.a) \
             and b > all (select v from t where t.u = r.a)",
        );
    }

    #[test]
    fn tree_query_negative_then_positive() {
        check(
            "select a, b from r where not exists (select * from s where s.x = r.a) \
             and exists (select * from t where t.u = r.a)",
        );
    }

    #[test]
    fn uncorrelated_subquery_virtual_product() {
        check("select a, b from r where b > all (select y from s where s.x = 2)");
        check("select a, b from r where b in (select y from s)");
    }

    #[test]
    fn flat_query_passthrough() {
        check("select a, b from r where a = 3 and b > 2");
    }

    #[test]
    fn computed_linking_attribute() {
        check("select a, b from r where a + b > all (select y from s where s.x = r.a)");
    }

    #[test]
    fn computed_linked_attribute() {
        check("select a, b from r where b < some (select y + 1 from s where s.x = r.a)");
    }
}
