//! Nested iteration — System A's tuple-at-a-time plan.
//!
//! For each tuple of an outer block that passes its local predicates, the
//! subquery is re-evaluated: the inner table is accessed through a hash
//! index on the equality correlated columns (the paper: "lineitem is
//! accessed by index rowid"), residual predicates are applied, the inner
//! block's own subqueries are evaluated recursively, and finally the
//! linking operator is folded under three-valued logic.
//!
//! [`NestedIterPlan::prepare`] builds the per-block access structures
//! (scans, compiled predicates, probe indexes) once; [`NestedIterPlan::run`]
//! iterates. Benchmarks measure `run` so that index construction — which
//! System A amortizes across queries — is not charged to the query, exactly
//! as in the paper's setup where indexes pre-exist.

use nra_sql::{BoundQuery, LinkOp, QueryBlock, SubqueryEdge};
use nra_storage::index::HashIndex;
use nra_storage::{Catalog, GroupKey, Relation, Schema, Truth, Value};

use crate::error::EngineError;
use crate::expr::{CExpr, CPred};
use crate::ops;

/// A prepared nested-iteration plan.
pub struct NestedIterPlan {
    root_base: Relation,
    edges: Vec<IterEdge>,
    select: Vec<CExpr>,
    out_schema: Schema,
    distinct: bool,
    /// `(rows, cols)` of the root block's base tables, charged to the I/O
    /// simulator as sequential scans per run.
    root_io: Vec<(usize, usize)>,
}

struct IterBlock {
    /// The block's FROM product (unfiltered for probed blocks, local
    /// predicates pre-applied for full-scan blocks).
    base: Relation,
    access: Access,
    /// Residual predicates (local + non-probe correlated), compiled against
    /// `env ++ base`.
    residual: CPred,
    edges: Vec<IterEdge>,
    /// Disk geometry for the I/O simulator: base tables as `(name, rows,
    /// cols)`; probed blocks are single-table.
    io_tables: Vec<(String, usize, usize)>,
}

enum Access {
    /// Scan every base row.
    Full,
    /// Probe a hash index with keys computed from the environment.
    Probe {
        index: HashIndex,
        outer_keys: Vec<CExpr>,
    },
}

struct IterEdge {
    link: LinkOp,
    outer_expr: Option<CExpr>,
    inner_expr: Option<CExpr>,
    block: IterBlock,
    /// Precomputed stats name: `eval` runs once per outer tuple, so it
    /// records under a fixed qualified name instead of opening spans.
    obs_name: String,
}

impl NestedIterPlan {
    pub fn prepare(query: &BoundQuery, catalog: &Catalog) -> Result<NestedIterPlan, EngineError> {
        let root_base = crate::planning::block_base(&query.root, catalog, false)?;
        let mut edges = Vec::new();
        for child in &query.root.children {
            edges.push(IterEdge::build(child, catalog, root_base.schema())?);
        }
        let select: Vec<CExpr> = query
            .root
            .select
            .iter()
            .map(|(_, e)| CExpr::compile(e, root_base.schema()))
            .collect::<Result<_, _>>()?;
        let out_schema = Schema::new(
            query
                .root
                .select
                .iter()
                .zip(&select)
                .map(|((name, _), c)| match c.as_col() {
                    Some(i) => {
                        let col = root_base.schema().column(i);
                        nra_storage::Column {
                            name: name.clone(),
                            ty: col.ty,
                            nullable: col.nullable,
                        }
                    }
                    None => nra_storage::Column::new(name.clone(), nra_storage::ColumnType::Int),
                })
                .collect(),
        );
        let root_io = query
            .root
            .tables
            .iter()
            .map(|t| {
                let table = catalog.table(&t.table)?;
                Ok((table.len(), table.schema().len()))
            })
            .collect::<Result<_, EngineError>>()?;
        Ok(NestedIterPlan {
            root_base,
            edges,
            select,
            out_schema,
            distinct: query.root.distinct,
            root_io,
        })
    }

    pub fn run(&self) -> Result<Relation, EngineError> {
        let mut sp = nra_obs::span(|| "scan".to_string());
        sp.rows_in(self.root_base.len());
        // The outer block is read once, sequentially.
        for &(rows, cols) in &self.root_io {
            nra_storage::iosim::charge_seq_scan(rows, cols);
        }
        let mut out = Relation::new(self.out_schema.clone());
        'rows: for row in self.root_base.rows() {
            for edge in &self.edges {
                if edge.eval(row) != Truth::True {
                    continue 'rows;
                }
            }
            out.push_unchecked(self.select.iter().map(|e| e.eval(row)).collect());
        }
        let out = if self.distinct { out.distinct() } else { out };
        sp.rows_out(out.len());
        Ok(out)
    }
}

impl IterEdge {
    fn build(
        edge: &SubqueryEdge,
        catalog: &Catalog,
        env: &Schema,
    ) -> Result<IterEdge, EngineError> {
        let block = IterBlock::build(&edge.block, catalog, env)?;
        let outer_expr = edge
            .outer_expr
            .as_ref()
            .map(|e| CExpr::compile(e, env))
            .transpose()?;
        let inner_schema = env.concat(block.base.schema());
        let inner_expr = edge
            .inner_expr
            .as_ref()
            .map(|e| CExpr::compile(e, &inner_schema))
            .transpose()?;
        Ok(IterEdge {
            link: edge.link,
            outer_expr,
            inner_expr,
            block,
            obs_name: nra_obs::qualified(format!("b{}/link", edge.block.id)),
        })
    }

    /// Evaluate the linking predicate for one environment row, recording
    /// the probe and its 3VL outcome.
    fn eval(&self, env_row: &[Value]) -> Truth {
        let t = self.eval_inner(env_row);
        nra_obs::record(&self.obs_name, |s| {
            s.rows_in += 1;
            s.batches += 1;
            s.record_outcome(t);
            if t == Truth::True {
                s.rows_out += 1;
            }
        });
        t
    }

    fn eval_inner(&self, env_row: &[Value]) -> Truth {
        let outer_val = self.outer_expr.as_ref().map(|e| e.eval(env_row));

        let mut acc = match self.link {
            LinkOp::Exists | LinkOp::Some(_) => Truth::False,
            LinkOp::NotExists | LinkOp::All(_) | LinkOp::Agg { .. } => Truth::True,
        };
        // Aggregate links fold the whole candidate set; no early exit.
        let mut agg_values: Vec<Value> = Vec::new();

        let mut extended: Vec<Value> =
            Vec::with_capacity(env_row.len() + self.block.base.schema().len());

        let candidates: Candidates = match &self.block.access {
            Access::Full => {
                // Without an index, every evaluation of the subquery
                // re-reads the inner table(s).
                for (_, rows, cols) in &self.block.io_tables {
                    nra_storage::iosim::charge_seq_scan(*rows, *cols);
                }
                Candidates::All(self.block.base.len())
            }
            Access::Probe { index, outer_keys } => {
                let key = GroupKey(outer_keys.iter().map(|e| e.eval(env_row)).collect());
                let ids = index.probe(&key);
                if nra_storage::iosim::is_enabled() {
                    let (name, rows, cols) = &self.block.io_tables[0];
                    // One random index page, then one random page per
                    // matching row ("accessed by index rowid").
                    use std::hash::{Hash, Hasher};
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    key.hash(&mut h);
                    nra_storage::iosim::charge_index_probe(name, *rows, h.finish());
                    for &rid in ids {
                        nra_storage::iosim::charge_random_row(name, *cols, rid);
                    }
                }
                Candidates::Ids(ids)
            }
        };

        // Scope `consider` so its borrow of `agg_values` ends before the
        // aggregate fold below.
        let early = {
            let mut consider = |rid: usize, acc: &mut Truth| -> Option<Truth> {
                let inner_row = &self.block.base.rows()[rid];
                extended.clear();
                extended.extend(env_row.iter().cloned());
                extended.extend(inner_row.iter().cloned());
                if !self.block.residual.accepts(&extended) {
                    return None;
                }
                for child in &self.block.edges {
                    if child.eval(&extended) != Truth::True {
                        return None;
                    }
                }
                match self.link {
                    LinkOp::Exists => Some(Truth::True),
                    LinkOp::NotExists => Some(Truth::False),
                    LinkOp::Some(op) => {
                        let inner_val = self
                            .inner_expr
                            .as_ref()
                            .expect("SOME inner")
                            .eval(&extended);
                        let outer = outer_val.as_ref().expect("SOME outer");
                        *acc = acc.or(outer.sql_compare(op, &inner_val));
                        (*acc == Truth::True).then_some(Truth::True)
                    }
                    LinkOp::All(op) => {
                        let inner_val =
                            self.inner_expr.as_ref().expect("ALL inner").eval(&extended);
                        let outer = outer_val.as_ref().expect("ALL outer");
                        *acc = acc.and(outer.sql_compare(op, &inner_val));
                        (*acc == Truth::False).then_some(Truth::False)
                    }
                    LinkOp::Agg { .. } => {
                        agg_values.push(
                            self.inner_expr
                                .as_ref()
                                .map(|e| e.eval(&extended))
                                .unwrap_or(Value::Null),
                        );
                        None
                    }
                }
            };

            let mut early = None;
            match candidates {
                Candidates::All(n) => {
                    for rid in 0..n {
                        if let Some(t) = consider(rid, &mut acc) {
                            early = Some(t);
                            break;
                        }
                    }
                }
                Candidates::Ids(ids) => {
                    for &rid in ids {
                        if let Some(t) = consider(rid, &mut acc) {
                            early = Some(t);
                            break;
                        }
                    }
                }
            }
            early
        };
        if let Some(t) = early {
            return t;
        }
        if let LinkOp::Agg { op, func } = self.link {
            let folded = nra_storage::aggregate(func, agg_values.iter());
            let outer = outer_val.as_ref().expect("aggregate link has outer expr");
            return outer.sql_compare(op, &folded);
        }
        acc
    }
}

enum Candidates<'a> {
    All(usize),
    Ids(&'a [usize]),
}

impl IterBlock {
    fn build(
        block: &QueryBlock,
        catalog: &Catalog,
        env: &Schema,
    ) -> Result<IterBlock, EngineError> {
        // Single-table blocks with equality correlated predicates get an
        // index probe; everything else scans.
        let single_table = block.tables.len() == 1;

        // Materialize the FROM product, *without* local predicates when we
        // intend to probe (the index covers the raw table, as in System A;
        // local predicates are then applied residually per probe).
        let mut base: Option<Relation> = None;
        let mut io_tables = Vec::new();
        for t in &block.tables {
            let table = catalog.table(&t.table)?;
            io_tables.push((t.table.clone(), table.len(), table.schema().len()));
            let scanned = ops::scan(table, &t.exposed);
            base = Some(match base {
                None => scanned,
                Some(acc) => ops::cartesian(&acc, &scanned),
            });
        }
        let base = base.expect("binder guarantees at least one table");

        // Partition correlated predicates into probe keys and residuals.
        let mut probe_inner: Vec<usize> = Vec::new();
        let mut probe_outer: Vec<CExpr> = Vec::new();
        let mut residual_preds = Vec::new();
        for pred in &block.correlated_preds {
            if single_table {
                if let Some((a, op, b)) = pred.as_column_cmp() {
                    if op == nra_storage::CmpOp::Eq {
                        let (a_in, b_in) =
                            (base.schema().try_resolve(a), base.schema().try_resolve(b));
                        let (a_env, b_env) = (env.try_resolve(a), env.try_resolve(b));
                        match (a_in, a_env, b_in, b_env) {
                            (Some(i), None, None, Some(o)) => {
                                probe_inner.push(i);
                                probe_outer.push(CExpr::Col(o));
                                continue;
                            }
                            (None, Some(o), Some(i), None) => {
                                probe_inner.push(i);
                                probe_outer.push(CExpr::Col(o));
                                continue;
                            }
                            _ => {}
                        }
                    }
                }
            }
            residual_preds.push(pred.clone());
        }

        let env_and_base = env.concat(base.schema());
        let (access, base, residual) = if !probe_inner.is_empty() {
            let index = HashIndex::build(base.rows(), &probe_inner);
            // Local predicates are applied residually after the probe.
            let mut all = residual_preds;
            all.extend(block.local_preds.iter().cloned());
            let residual = CPred::compile_all(&all, &env_and_base)?;
            (
                Access::Probe {
                    index,
                    outer_keys: probe_outer,
                },
                base,
                residual,
            )
        } else {
            // Full scan: pre-apply local predicates; correlated residuals
            // stay per-row. Note the residual is compiled against
            // env ++ base before filtering (filtering does not change the
            // schema).
            let local = CPred::compile_all(&block.local_preds, base.schema())?;
            let filtered = ops::filter(&base, &local);
            let residual = CPred::compile_all(&residual_preds, &env_and_base)?;
            (Access::Full, filtered, residual)
        };

        let mut edges = Vec::new();
        let child_env = env.concat(base.schema());
        for child in &block.children {
            edges.push(IterEdge::build(child, catalog, &child_env)?);
        }
        Ok(IterBlock {
            base,
            access,
            residual,
            edges,
            io_tables,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use nra_sql::parse_and_bind;
    use nra_storage::{Column, ColumnType};

    /// Catalog with nullable columns and NULL data, where the antijoin
    /// transform would be wrong.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = Table::new(
            "r",
            Schema::new(vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ]),
        );
        r.insert_many((0..25).map(|i| {
            vec![
                if i % 6 == 5 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                },
                Value::Int(i),
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
        s.insert_many((0..18).map(|i| {
            vec![
                Value::Int(i % 5),
                if i % 7 == 3 {
                    Value::Null
                } else {
                    Value::Int(i * 2)
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
        t.insert_many((0..14).map(|i| vec![Value::Int(i % 5), Value::Int(i * 3 % 11)]))
            .unwrap();
        cat.add_table(t).unwrap();
        cat
    }

    use nra_storage::Table;

    fn check(sql: &str) {
        let cat = catalog();
        let bq = parse_and_bind(sql, &cat).unwrap();
        let plan = NestedIterPlan::prepare(&bq, &cat).unwrap();
        let got = plan.run().unwrap();
        let want = reference::evaluate(&bq, &cat).unwrap();
        assert!(
            got.multiset_eq(&want),
            "nested iteration disagrees with oracle for {sql}\ngot:\n{got}\nwant:\n{want}"
        );
    }

    #[test]
    fn all_link_with_nulls() {
        check("select a, b from r where b > all (select y from s where s.x = r.a)");
    }

    #[test]
    fn not_in_with_nulls() {
        check("select a, b from r where a not in (select y from s where s.x = r.a)");
    }

    #[test]
    fn exists_probed() {
        check("select a, b from r where exists (select * from s where s.x = r.a and s.y > 4)");
    }

    #[test]
    fn two_level_mixed() {
        check(
            "select a, b from r where b > all (select y from s where s.x = r.a \
             and exists (select * from t where t.u = s.x and t.v < s.y))",
        );
    }

    #[test]
    fn non_adjacent_correlation() {
        check(
            "select a, b from r where b > all (select y from s where s.x = r.a \
             and exists (select * from t where t.u = r.a and t.v <> s.x))",
        );
    }

    #[test]
    fn non_equality_correlation_scans() {
        check("select a, b from r where exists (select * from s where s.x < r.a)");
    }

    #[test]
    fn uncorrelated_all() {
        check("select a, b from r where b >= all (select y from s where s.x = 2)");
    }
}
