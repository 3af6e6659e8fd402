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
//! `cascade` is that group scan, the body of the plan's `Cascade` node
//! (linear queries, which cover every experiment in the paper); tree
//! queries are planned as Algorithm 1 with the fused nest+selection
//! operator, which keeps the one-pass-per-level property but re-sorts
//! between levels.

use nra_engine::{faultinject, governor, EngineError};
use nra_sql::BoundQuery;
use nra_storage::{Catalog, Relation, Truth, Tuple, Value};

use crate::compute::{owned_columns, rid_column};
use crate::optimize::fused::FusedLink;
use crate::plan::{self, CascadeLevel};

/// Phase 1 of the approach in isolation: the unnesting left outer joins of
/// a linear query, producing the flat intermediate result (the paper's
/// "intermediate result" whose size parameterises the §5.2 cost numbers).
/// Exposed so the benchmark harness can separate join cost from the
/// nest + linking-selection processing cost.
pub fn unnest_join_phase(query: &BoundQuery, catalog: &Catalog) -> Result<Relation, EngineError> {
    plan::eval(&plan::joins(query), query, catalog)
}

struct Level<'a> {
    /// Full-schema index of block k's row id.
    rid: usize,
    /// The link between block k and k+1.
    link: FusedLink<'a>,
    /// Full-schema indices of block k's own columns (σ̄ padding).
    pad: Vec<usize>,
    use_pseudo: bool,
    /// Precomputed qualified stats name for this level's linking selection
    /// (the cascade is a per-group hot path, so no span per group).
    obs_name: String,
}

/// The single-sort pipelined cascade over the fully joined `rel` of a
/// linear query (its computed linking columns already materialized).
pub(crate) fn cascade(
    mut rel: Relation,
    query: &BoundQuery,
    levels: &[CascadeLevel],
) -> Result<Relation, EngineError> {
    // The single physical reordering — sort by the chain of rids.
    let rid_idx: Vec<usize> = (levels.iter())
        .map(|lv| {
            let rid = rid_column(lv.parent);
            rel.schema()
                .try_resolve(&rid)
                .ok_or(EngineError::Column(rid))
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

    // Bottom-up, pipelined: one scan evaluating every level.
    let levels = (levels.iter().zip(rid_idx))
        .map(|(lv, rid)| {
            Ok(Level {
                rid,
                link: FusedLink::from_selection(&lv.selection, rel.schema())?,
                pad: owned_columns(rel.schema(), plan::block(query, lv.parent)),
                use_pseudo: lv.pseudo,
                obs_name: format!("b{}/link", lv.child),
            })
        })
        .collect::<Result<Vec<_>, EngineError>>()?;

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
    Ok(Relation::with_rows(schema, rows))
}

/// The sorted intermediate, owned: σ̄ pads in place and the final
/// survivors are moved out, so no level copies a row.
struct Cascade<'a> {
    rows: Vec<Tuple>,
    levels: &'a [Level<'a>],
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
    use crate::{execute, Strategy};
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
        let original = execute(&bq, &cat, Strategy::Original).unwrap();
        assert!(
            original.multiset_eq(&want),
            "original NR != oracle for {sql}\ngot:\n{original}\nwant:\n{want}"
        );
        let optimized = execute(&bq, &cat, Strategy::Optimized).unwrap();
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
