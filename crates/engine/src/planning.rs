//! Shared planning helpers: splitting correlation conditions into hash-join
//! equality keys and residual predicates, the one block scan every
//! strategy shares, and the final projection.

use nra_sql::{BPred, BoundTable, QueryBlock};
use nra_storage::{
    Catalog, CmpOp, Column, ColumnStore, ColumnType, Relation, Schema, Table, Truth, Tuple, Value,
};

use crate::error::EngineError;
use crate::expr::{CExpr, CPred};
use crate::{ops, vec};

/// The outcome of splitting a conjunction of join conditions between a
/// `left` and `right` input.
#[derive(Debug, Clone)]
pub struct SplitConds {
    /// Equality pairs `(left column index, right column index)` usable as
    /// hash keys.
    pub eq: Vec<(usize, usize)>,
    /// Everything else, compiled against `left ++ right`.
    pub residual: Option<CPred>,
    /// How many conjuncts went into `residual`.
    pub residual_count: usize,
}

/// Split `preds` (conjuncts) into hashable equality pairs and a residual.
///
/// A conjunct `a = b` becomes a key pair when `a` resolves in exactly one
/// input and `b` in the other. All other conjuncts (non-equalities, complex
/// expressions, single-sided predicates) are compiled into the residual,
/// evaluated per candidate pair.
pub fn split_join_conds(
    preds: &[BPred],
    left: &Schema,
    right: &Schema,
) -> Result<SplitConds, EngineError> {
    let mut eq = Vec::new();
    let mut rest = Vec::new();
    for pred in preds {
        if let Some((a, op, b)) = pred.as_column_cmp() {
            if op == CmpOp::Eq {
                let (al, ar) = (left.try_resolve(a), right.try_resolve(a));
                let (bl, br) = (left.try_resolve(b), right.try_resolve(b));
                match (al, ar, bl, br) {
                    (Some(l), None, None, Some(r)) => {
                        eq.push((l, r));
                        continue;
                    }
                    (None, Some(r), Some(l), None) => {
                        eq.push((l, r));
                        continue;
                    }
                    _ => {}
                }
            }
        }
        rest.push(pred.clone());
    }
    let combined = left.concat(right);
    let residual_count = rest.len();
    let residual = if rest.is_empty() {
        None
    } else {
        Some(CPred::compile_all(&rest, &combined)?)
    };
    Ok(SplitConds {
        eq,
        residual,
        residual_count,
    })
}

/// The synthesized row-id column name for block `id`.
pub fn rid_column(id: usize) -> String {
    format!("__b{id}.rid")
}

/// The scan proper: evaluate `pred` on `table`'s stored lanes window by
/// window and build, for each selected row, one tuple of the `keep`
/// columns — with the stored row ordinal appended when `rid` is set.
fn scan_columns(table: &Table, pred: &CPred, keep: &[usize], rid: bool) -> Vec<Tuple> {
    let cols = pred.columns();
    let width = vec::batch_rows();
    let mut out: Vec<Tuple> = Vec::new();
    for start in (0..table.len()).step_by(width) {
        let batch = vec::ValueBatch::window(table, &cols, start, width.min(table.len() - start));
        for i in vec::select_rows(pred, &batch).iter() {
            let row = start + i;
            let mut tuple = Vec::with_capacity(keep.len() + usize::from(rid));
            tuple.extend(keep.iter().map(|&c| table.column(c).value(row)));
            if rid {
                tuple.push(Value::Int(row as i64));
            }
            out.push(tuple);
        }
    }
    out
}

/// Materialize a query block's base — the paper's first step,
/// `T_i = σ_{Δi}(R_i)`, as a *reduced* relation: the block's local
/// predicates are evaluated on the stored lanes in place, and only the
/// columns on the binder's carry list ([`BoundTable::carry`]: everything
/// the rest of the query compares) are copied out, in table order. With
/// `with_rid` the non-null `__b{id}.rid` column — the paper's carried
/// primary key, here the stored row ordinal — is appended in the same
/// pass, and the root's [`BoundTable::select_only`] columns stay in
/// storage for [`project_select`] to fetch by that rid; without it there
/// is nothing to fetch by, so they are copied along with the carry list.
///
/// A block with several `FROM` tables scans each table's carried and
/// local-predicate columns, filters the product row at a time, then
/// projects onto the carry lists; its rid is the survivor's ordinal.
///
/// [`BoundTable::carry`]: nra_sql::BoundTable::carry
/// [`BoundTable::select_only`]: nra_sql::BoundTable::select_only
pub fn block_base(
    block: &QueryBlock,
    catalog: &Catalog,
    with_rid: bool,
) -> Result<Relation, EngineError> {
    /// Open one `FROM` table: the stored table and its schema under the
    /// exposed qualifier.
    fn open<'c>(
        t: &BoundTable,
        catalog: &'c Catalog,
        sp: &mut nra_obs::Span,
    ) -> Result<(&'c Table, Schema), EngineError> {
        let table = catalog.table(&t.table)?;
        // Set-oriented plans read each base table once, sequentially —
        // whole pages, whatever the query carries out of them.
        nra_storage::iosim::charge_seq_scan(table.len(), table.schema().len());
        sp.rows_in(table.len());
        sp.batch();
        Ok((table, table.schema().qualified(&t.exposed)))
    }
    let mut sp = nra_obs::span(|| "scan".to_string());
    let project = |schema: &Schema, keep: &[usize]| -> Vec<Column> {
        keep.iter().map(|&i| schema.column(i).clone()).collect()
    };
    let (mut columns, rows) = if let [t] = block.tables.as_slice() {
        let (table, full) = open(t, catalog, &mut sp)?;
        let local = CPred::compile_all(&block.local_preds, &full)?;
        // Without a rid there is nothing to fetch late columns by.
        let merged: Vec<usize>;
        let keep = if with_rid || t.select_only.is_empty() {
            &t.carry
        } else {
            merged = {
                let mut all = [t.carry.as_slice(), &t.select_only].concat();
                all.sort_unstable();
                all
            };
            &merged
        };
        (
            project(&full, keep),
            scan_columns(table, &local, keep, with_rid),
        )
    } else {
        let local_cols: Vec<&str> = block.local_preds.iter().flat_map(BPred::columns).collect();
        let all = CPred::Const(Truth::True);
        let mut product: Option<Relation> = None;
        // Positions of the carried columns within the product.
        let mut keep = Vec::new();
        for t in &block.tables {
            let (table, full) = open(t, catalog, &mut sp)?;
            let wide: Vec<usize> = (0..full.len())
                .filter(|i| {
                    t.carry.contains(i) || local_cols.contains(&full.column(*i).name.as_str())
                })
                .collect();
            let offset = product.as_ref().map_or(0, |p| p.schema().len());
            keep.extend(
                (wide.iter().enumerate())
                    .filter(|(_, c)| t.carry.contains(c))
                    .map(|(pos, _)| offset + pos),
            );
            let scanned =
                Relation::with_rows(full.project(&wide), scan_columns(table, &all, &wide, false));
            product = Some(match product {
                None => scanned,
                Some(acc) => ops::cartesian(&acc, &scanned),
            });
        }
        let product = product.expect("binder guarantees at least one table");
        let local = CPred::compile_all(&block.local_preds, product.schema())?;
        let mut rows: Vec<Tuple> = Vec::new();
        for row in product.rows().iter().filter(|row| local.accepts(row)) {
            let mut tuple = Vec::with_capacity(keep.len() + usize::from(with_rid));
            tuple.extend(keep.iter().map(|&c| row[c].clone()));
            if with_rid {
                tuple.push(Value::Int(rows.len() as i64));
            }
            rows.push(tuple);
        }
        (project(product.schema(), &keep), rows)
    };
    if with_rid {
        columns.push(Column::not_null(rid_column(block.id), ColumnType::Int));
    }
    sp.rows_out(rows.len());
    Ok(Relation::with_rows(Schema::new(columns), rows))
}

/// Where one item of the `SELECT` list comes from.
enum SelectItem<'c> {
    /// A column of the reduced relation.
    Col(usize),
    /// A [`BoundTable::select_only`](nra_sql::BoundTable::select_only)
    /// column the scan left in storage, fetched at the row's rid.
    Late(&'c ColumnStore),
    Expr(CExpr),
}

/// Project a relation onto a block's `SELECT` list (supports computed
/// expressions), applying `DISTINCT` when requested. A bare select item
/// missing from `rel` is one the root's scan did not carry: it is read
/// from the base table at the row's `__b{root}.rid` (a NULL rid yields
/// NULL — a guard, not a path: the root block is never σ̄-padded). The
/// input is consumed: a select list of distinct bare columns moves its
/// values out of the rows instead of cloning them.
pub fn project_select(
    rel: Relation,
    root: &QueryBlock,
    catalog: &Catalog,
) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| "project".to_string());
    sp.rows_in(rel.len());
    let mut items = Vec::with_capacity(root.select.len());
    let mut columns = Vec::with_capacity(root.select.len());
    for (name, expr) in &root.select {
        let (item, ty) = match expr.as_column() {
            Some(col) => match (rel.schema().try_resolve(col), root.tables.as_slice()) {
                (Some(i), _) => (SelectItem::Col(i), rel.schema().column(i).ty),
                (None, [t]) if !t.select_only.is_empty() => {
                    let table = catalog.table(&t.table)?;
                    let base = col.rsplit_once('.').map_or(col, |(_, base)| base);
                    let i = (table.schema().try_resolve(base))
                        .filter(|i| t.select_only.contains(i))
                        .ok_or_else(|| EngineError::Column(col.to_string()))?;
                    (
                        SelectItem::Late(table.column(i)),
                        table.schema().column(i).ty,
                    )
                }
                _ => return Err(EngineError::Column(col.to_string())),
            },
            None => (
                SelectItem::Expr(CExpr::compile(expr, rel.schema())?),
                ColumnType::Int,
            ),
        };
        items.push(item);
        columns.push(Column::new(name.clone(), ty));
    }
    let late = items.iter().any(|i| matches!(i, SelectItem::Late(_)));
    // Resolved only when something is fetched by it.
    let rid = if late {
        let name = rid_column(root.id);
        Some((rel.schema().try_resolve(&name)).ok_or(EngineError::Column(name))?)
    } else {
        None
    };
    let fetch = |col: &ColumnStore, row: &[Value]| match rid.map(|rid| &row[rid]) {
        Some(Value::Int(ordinal)) => col.value(*ordinal as usize),
        _ => Value::Null,
    };
    // Values can be moved out of the rows when no expression may still
    // read them and no column is selected twice.
    let movable = items.iter().enumerate().all(|(i, item)| match item {
        SelectItem::Col(c) => !items[..i]
            .iter()
            .any(|earlier| matches!(earlier, SelectItem::Col(d) if d == c)),
        SelectItem::Late(_) => true,
        SelectItem::Expr(_) => false,
    });
    let rows: Vec<Tuple> = rel
        .into_rows()
        .into_iter()
        .map(|mut row| {
            (items.iter())
                .map(|item| match item {
                    SelectItem::Col(c) if movable => std::mem::replace(&mut row[*c], Value::Null),
                    SelectItem::Col(c) => row[*c].clone(),
                    SelectItem::Late(col) => fetch(col, &row),
                    SelectItem::Expr(e) => e.eval(&row),
                })
                .collect()
        })
        .collect();
    let out = Relation::with_rows(Schema::new(columns), rows);
    let out = if root.distinct { out.distinct() } else { out };
    sp.rows_out(out.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_sql::BExpr;
    use nra_storage::{Column, ColumnType, Truth, Value};

    fn schemas() -> (Schema, Schema) {
        (
            Schema::new(vec![
                Column::new("r.c", ColumnType::Int),
                Column::new("r.d", ColumnType::Int),
            ]),
            Schema::new(vec![
                Column::new("s.g", ColumnType::Int),
                Column::new("s.i", ColumnType::Int),
            ]),
        )
    }

    #[test]
    fn equality_pairs_become_keys() {
        let (l, r) = schemas();
        let preds = vec![BPred::cmp(BExpr::col("r.d"), CmpOp::Eq, BExpr::col("s.g"))];
        let split = split_join_conds(&preds, &l, &r).unwrap();
        assert_eq!(split.eq, vec![(1, 0)]);
        assert!(split.residual.is_none());
    }

    #[test]
    fn flipped_sides_normalize() {
        let (l, r) = schemas();
        let preds = vec![BPred::cmp(BExpr::col("s.g"), CmpOp::Eq, BExpr::col("r.d"))];
        let split = split_join_conds(&preds, &l, &r).unwrap();
        assert_eq!(split.eq, vec![(1, 0)]);
    }

    #[test]
    fn non_equalities_go_residual() {
        let (l, r) = schemas();
        let preds = vec![
            BPred::cmp(BExpr::col("r.d"), CmpOp::Eq, BExpr::col("s.g")),
            BPred::cmp(BExpr::col("r.c"), CmpOp::Ne, BExpr::col("s.i")),
        ];
        let split = split_join_conds(&preds, &l, &r).unwrap();
        assert_eq!(split.eq.len(), 1);
        assert_eq!(split.residual_count, 1);
        let residual = split.residual.unwrap();
        let row = vec![Value::Int(1), Value::Int(2), Value::Int(2), Value::Int(1)];
        assert_eq!(residual.eval(&row), Truth::False, "1 <> 1 is false");
    }

    #[test]
    fn same_side_equality_is_residual() {
        let (l, r) = schemas();
        let preds = vec![BPred::cmp(BExpr::col("r.c"), CmpOp::Eq, BExpr::col("r.d"))];
        let split = split_join_conds(&preds, &l, &r).unwrap();
        assert!(split.eq.is_empty());
        assert_eq!(split.residual_count, 1);
    }

    #[test]
    fn literal_comparison_is_residual() {
        let (l, r) = schemas();
        let preds = vec![BPred::cmp(
            BExpr::col("s.g"),
            CmpOp::Eq,
            BExpr::Lit(Value::Int(5)),
        )];
        let split = split_join_conds(&preds, &l, &r).unwrap();
        assert!(split.eq.is_empty());
        assert_eq!(split.residual_count, 1);
    }
}
