//! Shared planning helpers: splitting correlation conditions into hash-join
//! equality keys and residual predicates, the one block scan every
//! strategy shares, and the final projection.

use nra_sql::{BPred, BoundTable, QueryBlock};
use nra_storage::{
    Catalog, CmpOp, Column, ColumnType, Relation, Schema, Table, Truth, Tuple, Value,
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

/// One pass over `rows` by reference: evaluate `pred` in batch windows and
/// build, for each qualifying row, one tuple of the `keep` columns — with
/// the row's ordinal among the survivors appended when `rid` is set.
fn select_columns(
    rows: &[Tuple],
    width: usize,
    pred: &CPred,
    keep: &[usize],
    rid: bool,
) -> Vec<Tuple> {
    let cols = pred.columns();
    let mut out: Vec<Tuple> = Vec::new();
    for window in rows.chunks(vec::batch_rows()) {
        let batch = vec::ValueBatch::with_columns(window, width, &cols);
        for i in vec::select_rows(pred, &batch).iter() {
            let row = &window[i];
            let mut tuple = Vec::with_capacity(keep.len() + usize::from(rid));
            tuple.extend(keep.iter().map(|&c| row[c].clone()));
            if rid {
                tuple.push(Value::Int(out.len() as i64));
            }
            out.push(tuple);
        }
    }
    out
}

/// Materialize a query block's base — the paper's first step,
/// `T_i = σ_{Δi}(R_i)`, as a *reduced* relation: the block's local
/// predicates are evaluated on the stored rows in place, and only the
/// columns on the binder's carry list ([`BoundTable::carry`]: everything
/// the rest of the query mentions) are copied out, in table order. With
/// `with_rid` the non-null `__b{id}.rid` column — the paper's carried
/// primary key — is appended in the same pass.
///
/// A block with several `FROM` tables keeps its local-predicate columns
/// until the product is filtered, then projects onto the carry lists.
///
/// [`BoundTable::carry`]: nra_sql::BoundTable::carry
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
        let rows = select_columns(table.data().rows(), full.len(), &local, &t.carry, with_rid);
        (project(&full, &t.carry), rows)
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
            let scanned = Relation::with_rows(
                full.project(&wide),
                select_columns(table.data().rows(), full.len(), &all, &wide, false),
            );
            product = Some(match product {
                None => scanned,
                Some(acc) => ops::cartesian(&acc, &scanned),
            });
        }
        let product = product.expect("binder guarantees at least one table");
        let local = CPred::compile_all(&block.local_preds, product.schema())?;
        let width = product.schema().len();
        let rows = select_columns(product.rows(), width, &local, &keep, with_rid);
        (project(product.schema(), &keep), rows)
    };
    if with_rid {
        columns.push(Column::not_null(rid_column(block.id), ColumnType::Int));
    }
    sp.rows_out(rows.len());
    Ok(Relation::with_rows(Schema::new(columns), rows))
}

/// Project a relation onto a block's `SELECT` list (supports computed
/// expressions), applying `DISTINCT` when requested. The input is
/// consumed: a select list of distinct bare columns moves its values out
/// of the rows instead of cloning them.
pub fn project_select(rel: Relation, root: &QueryBlock) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| "project".to_string());
    sp.rows_in(rel.len());
    let exprs: Vec<CExpr> = root
        .select
        .iter()
        .map(|(_, e)| CExpr::compile(e, rel.schema()))
        .collect::<Result<_, _>>()?;
    let schema = Schema::new(
        root.select
            .iter()
            .zip(&exprs)
            .map(|((name, _), c)| match c.as_col() {
                Some(i) => {
                    let col = rel.schema().column(i);
                    Column {
                        name: name.clone(),
                        ty: col.ty,
                        nullable: true,
                    }
                }
                None => Column::new(name.clone(), ColumnType::Int),
            })
            .collect(),
    );
    let bare: Option<Vec<usize>> = exprs.iter().map(CExpr::as_col).collect();
    let rows: Vec<Tuple> = match bare {
        Some(cols) if (1..cols.len()).all(|i| !cols[..i].contains(&cols[i])) => rel
            .into_rows()
            .into_iter()
            .map(|mut row| {
                cols.iter()
                    .map(|&c| std::mem::replace(&mut row[c], Value::Null))
                    .collect()
            })
            .collect(),
        _ => rel
            .rows()
            .iter()
            .map(|row| exprs.iter().map(|e| e.eval(row)).collect())
            .collect(),
    };
    let out = Relation::with_rows(schema, rows);
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
