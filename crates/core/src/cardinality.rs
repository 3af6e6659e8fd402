//! Cardinality estimation for the Algorithm-1 pipeline.
//!
//! The planner annotates each operator node of the query tree with an
//! estimated output cardinality, derived from row counts and the
//! `ANALYZE`-gathered statistics in [`nra_storage::catalog`] (NDV and
//! null counts per column). Executors record actuals into the profile;
//! `EXPLAIN ANALYZE` renders both as `est=… act=… (×err)` and the
//! per-query Q-error summary feeds the calibration corpus the cost-based
//! strategy choice (ROADMAP item 4) consumes.
//!
//! Heuristics are the classic System-R defaults:
//!
//! * equality against a literal: `1/ndv` (0.1 without stats);
//! * equality between columns (join predicates): `1/max(ndv)`;
//! * inequality `<>`: the complement, 0.9;
//! * range comparisons: 1/3; `BETWEEN`: 1/4;
//! * `IS NULL`: the measured null fraction (0.1 without stats);
//! * conjunction multiplies, disjunction adds with the overlap correction,
//!   negation complements.
//!
//! Estimates use the same node keys as the plan renderer's lines
//! (`project`, `scan`, `b{id}/scan`, `b{id}/join`, `b{id}/nest`,
//! `b{id}/link`), so estimates and actuals join trivially.

use std::collections::BTreeMap;

use nra_sql::{BExpr, BPred, BoundQuery, QueryBlock};
use nra_storage::{Catalog, CmpOp, Truth};

use crate::compute::edge_modes;

/// Estimated output cardinality per plan-node key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CardEstimates {
    map: BTreeMap<String, u64>,
}

impl CardEstimates {
    pub fn get(&self, key: &str) -> Option<u64> {
        self.map.get(key).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub(crate) fn insert(&mut self, key: String, est: u64) {
        self.map.insert(key, est);
    }
}

/// The Q-error of an estimate against the measured actual, scaled by 100:
/// `max(est/act, act/est) × 100`, with both sides clamped to at least one
/// row so empty results stay finite. A perfect estimate scores 100.
pub fn qerror_x100(est: u64, act: u64) -> u64 {
    let est = est.max(1) as f64;
    let act = act.max(1) as f64;
    ((est / act).max(act / est) * 100.0).round() as u64
}

struct Estimator<'a> {
    query: &'a BoundQuery,
    catalog: &'a Catalog,
}

impl<'a> Estimator<'a> {
    /// Row count of the base table behind an exposed qualifier.
    fn table_rows(&self, block: &QueryBlock, exposed: &str) -> f64 {
        block
            .tables
            .iter()
            .find(|t| t.exposed == exposed)
            .and_then(|t| self.catalog.table(&t.table).ok())
            .map(|t| t.len() as f64)
            .unwrap_or(1.0)
    }

    /// Column statistics for a bound column name (`exposed.column`),
    /// searching every block of the query for the owning table.
    fn column_stats(&self, col: &str) -> Option<(nra_storage::ColumnStats, u64)> {
        let (qualifier, column) = col.rsplit_once('.')?;
        let mut found = None;
        self.query.root.visit(&mut |block, _| {
            if found.is_some() {
                return;
            }
            if let Some(bt) = block.tables.iter().find(|t| t.exposed == qualifier) {
                if let Ok(table) = self.catalog.table(&bt.table) {
                    if let Some(stats) = table.stats() {
                        if let Some(cs) = stats.column(column) {
                            found = Some((cs.clone(), stats.row_count));
                        }
                    }
                }
            }
        });
        found
    }

    fn ndv(&self, expr: &BExpr) -> Option<u64> {
        let col = expr.as_column()?;
        self.column_stats(col).map(|(cs, _)| cs.ndv.max(1))
    }

    /// Selectivity of one predicate, in `[0, 1]`.
    fn selectivity(&self, pred: &BPred) -> f64 {
        match pred {
            BPred::Cmp { left, op, right } => {
                let eq_sel = match (self.ndv(left), self.ndv(right)) {
                    (Some(l), Some(r)) => 1.0 / l.max(r) as f64,
                    (Some(n), None) | (None, Some(n)) => 1.0 / n as f64,
                    (None, None) => 0.1,
                };
                match op {
                    CmpOp::Eq => eq_sel,
                    CmpOp::Ne => 1.0 - eq_sel,
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 1.0 / 3.0,
                }
            }
            BPred::Between { negated, .. } => {
                if *negated {
                    0.75
                } else {
                    0.25
                }
            }
            BPred::IsNull { expr, negated } => {
                let frac = expr
                    .as_column()
                    .and_then(|c| self.column_stats(c))
                    .map(|(cs, rows)| cs.null_count as f64 / (rows.max(1)) as f64)
                    .unwrap_or(0.1);
                if *negated {
                    1.0 - frac
                } else {
                    frac
                }
            }
            BPred::InList { list, negated, .. } => {
                let eq = 0.1;
                let sel = (list.len() as f64 * eq).min(1.0);
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            BPred::And(a, b) => self.selectivity(a) * self.selectivity(b),
            BPred::Or(a, b) => {
                let (sa, sb) = (self.selectivity(a), self.selectivity(b));
                sa + sb - sa * sb
            }
            BPred::Not(p) => 1.0 - self.selectivity(p),
            BPred::Const(Truth::True) => 1.0,
            BPred::Const(_) => 0.0,
        }
    }

    /// Reduced-block cardinality: product of the block's base tables,
    /// scaled by its local predicates `Δ_i`.
    fn scan_est(&self, block: &QueryBlock) -> f64 {
        let mut rows: f64 = block
            .tables
            .iter()
            .map(|t| self.table_rows(block, &t.exposed))
            .product();
        for pred in &block.local_preds {
            rows *= self.selectivity(pred);
        }
        rows
    }

    /// Walk a block's edges in Algorithm-1 order, recording estimates for
    /// each operator, and return the block's output cardinality.
    fn block_est(
        &self,
        block: &QueryBlock,
        is_root: bool,
        modes: &std::collections::HashMap<usize, bool>,
        out: &mut BTreeMap<String, u64>,
    ) -> f64 {
        let scan = self.scan_est(block);
        let scan_key = if is_root {
            "scan".to_string()
        } else {
            format!("b{}/scan", block.id)
        };
        out.insert(scan_key, scan.round() as u64);

        let mut cur = scan;
        for edge in &block.children {
            let child = &edge.block;
            let inner = self.block_est(child, false, modes, out);

            // The unnesting left outer join: every outer tuple survives;
            // matches multiply by the correlated-predicate selectivity
            // (an empty C_ij is the virtual Cartesian product).
            let mut matches = cur * inner;
            for pred in &child.correlated_preds {
                matches *= self.selectivity(pred);
            }
            let join = matches.max(cur);
            out.insert(format!("b{}/join", child.id), join.round() as u64);

            // Nest rebuilds one nested tuple per outer prefix.
            out.insert(format!("b{}/nest", child.id), cur.round() as u64);

            // The linking selection: σ̄ pads instead of discarding, so its
            // cardinality is unchanged; the plain σ keeps an estimated
            // half (quantified predicates carry no usable NDV).
            let pseudo = *modes.get(&child.id).unwrap_or(&false);
            if !pseudo {
                cur = (cur / 2.0).max(1.0);
            }
            out.insert(format!("b{}/link", child.id), cur.round() as u64);
        }
        cur
    }
}

/// Estimate output cardinalities for every node of the Algorithm-1 plan
/// of `query`, keyed identically to the analyzed-plan renderer.
pub fn estimate(query: &BoundQuery, catalog: &Catalog) -> CardEstimates {
    let est = Estimator { query, catalog };
    let modes = edge_modes(query);
    let mut map = BTreeMap::new();
    let root = est.block_est(&query.root, true, &modes, &mut map);
    map.insert("project".to_string(), root.round().max(0.0) as u64);
    CardEstimates { map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_sql::parse_and_bind;
    use nra_storage::{Column, ColumnType, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = Table::new(
            "r",
            Schema::new(vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ]),
        );
        r.insert_many((0..100).map(|i| vec![Value::Int(i % 10), Value::Int(i)]))
            .unwrap();
        let mut s = Table::new(
            "s",
            Schema::new(vec![
                Column::new("e", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ]),
        );
        s.insert_many((0..40).map(|i| vec![Value::Int(i % 4), Value::Int(i)]))
            .unwrap();
        cat.add_table(r).unwrap();
        cat.add_table(s).unwrap();
        cat
    }

    #[test]
    fn qerror_basics() {
        assert_eq!(qerror_x100(10, 10), 100);
        assert_eq!(qerror_x100(20, 10), 200);
        assert_eq!(qerror_x100(10, 20), 200);
        assert_eq!(qerror_x100(0, 0), 100, "empty/empty clamps to 1/1");
        assert_eq!(qerror_x100(0, 5), 500);
    }

    #[test]
    fn estimates_cover_every_plan_node() {
        let cat = catalog();
        let q = parse_and_bind(
            "select a from r where b in (select f from s where s.e = r.a)",
            &cat,
        )
        .unwrap();
        let est = estimate(&q, &cat);
        for key in [
            "project", "scan", "b2/scan", "b2/join", "b2/nest", "b2/link",
        ] {
            assert!(est.get(key).is_some(), "missing {key}: {est:?}");
        }
        assert_eq!(est.get("scan"), Some(100), "no local preds on r");
        assert_eq!(est.get("b2/scan"), Some(40));
    }

    #[test]
    fn analyze_sharpens_equality_estimates() {
        let cat = catalog();
        let sql = "select a from r where a = 3";
        let q = parse_and_bind(sql, &cat).unwrap();
        let without = estimate(&q, &cat).get("scan").unwrap();
        assert_eq!(without, 10, "default 0.1 selectivity");
        cat.table("r").unwrap().analyze();
        let with = estimate(&q, &cat).get("scan").unwrap();
        assert_eq!(with, 10, "ndv(a)=10 gives 1/10 of 100 rows");
        // A higher-cardinality column sharpens further.
        let q2 = parse_and_bind("select a from r where b = 3", &cat).unwrap();
        assert_eq!(estimate(&q2, &cat).get("scan"), Some(1), "ndv(b)=100");
    }

    #[test]
    fn outer_join_preserves_outer_cardinality() {
        let cat = catalog();
        cat.table("r").unwrap().analyze();
        cat.table("s").unwrap().analyze();
        let q = parse_and_bind(
            "select a from r where b in (select f from s where s.e = r.a)",
            &cat,
        )
        .unwrap();
        let est = estimate(&q, &cat);
        assert!(
            est.get("b2/join").unwrap() >= est.get("scan").unwrap(),
            "left outer join keeps every outer tuple: {est:?}"
        );
    }
}
