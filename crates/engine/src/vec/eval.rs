//! Vectorized 3VL expression evaluation over [`ValueBatch`]es.
//!
//! [`eval_pred`] computes a whole column of [`Truth`] values for a
//! [`CPred`](crate::expr::CPred); [`select_rows`] turns that into a
//! [`SelVec`] (SQL `WHERE` semantics: only `TRUE` selects). Comparisons
//! between lanes run as tight loops over the stored payloads that
//! replicate [`Value::sql_cmp`] exactly — including `Int`↔`Decimal`
//! scaling overflow (`checked_mul(100)` failure is *unknown*), `NULL`
//! propagation via the validity bitmaps, string lanes compared as `&str`,
//! and incomparable type pairs. Everything else (arithmetic, a string
//! against a number) builds the one `Value` from the lane and calls the
//! scalar comparison, so results are bit-identical to `CPred::eval` by
//! construction; the differential property tests in `tests/vectorized.rs`
//! hold both paths to that.
//!
//! Kleene `AND`/`OR` are commutative and associative, so the columnar
//! or-fold used for `IN` lists matches the row evaluator's early-`TRUE`
//! break, and `AND`/`OR` zips match its (non-short-circuiting) two-sided
//! evaluation.

use std::borrow::Cow;
use std::cmp::Ordering;

use nra_sql::BExpr;
use nra_storage::{CmpOp, Truth, Value};

use super::batch::{Lane, LaneKind, SelVec, Validity, ValueBatch};
use crate::expr::{CExpr, CPred};

/// A scalar expression resolved against one batch: either a column of
/// the batch, a broadcast literal, or row-wise computed values
/// (arithmetic).
pub enum ExprCol {
    Col(usize),
    Const(Value),
    Owned(Vec<Value>),
}

/// `expr` at one row of `batch`, built from the lanes: `CExpr::eval` with
/// the batch standing in for the row.
fn eval_at(expr: &CExpr, batch: &ValueBatch<'_>, row: usize) -> Value {
    match expr {
        CExpr::Col(i) => batch.value(row, *i),
        CExpr::Lit(v) => v.clone(),
        CExpr::Arith { op, left, right } => {
            BExpr::eval_arith(*op, &eval_at(left, batch, row), &eval_at(right, batch, row))
        }
    }
}

/// Resolve `expr` against `batch`. Bare columns and literals are
/// zero-cost; arithmetic materializes one value per row (exactness over
/// speed for the rare case).
pub fn eval_expr_column(expr: &CExpr, batch: &ValueBatch<'_>) -> ExprCol {
    match expr {
        CExpr::Col(i) => ExprCol::Col(*i),
        CExpr::Lit(v) => ExprCol::Const(v.clone()),
        CExpr::Arith { .. } => {
            ExprCol::Owned((0..batch.len()).map(|r| eval_at(expr, batch, r)).collect())
        }
    }
}

impl ExprCol {
    /// Generic per-row accessor (the scalar fallback).
    #[inline]
    fn value<'x>(&'x self, batch: &ValueBatch<'_>, row: usize) -> Cow<'x, Value> {
        match self {
            ExprCol::Col(i) => Cow::Owned(batch.value(row, *i)),
            ExprCol::Const(v) => Cow::Borrowed(v),
            ExprCol::Owned(vs) => Cow::Borrowed(&vs[row]),
        }
    }
}

/// `Value::sql_cmp` restricted to two `i64`-mapped lanes. `None` is
/// *incomparable* (→ `Unknown`), matching the scalar table: same kind
/// compares directly; `Int`↔`Decimal` rescale with overflow → `None`;
/// every other kind pair is `None`.
#[inline]
fn ord_i64(ka: LaneKind, a: i64, kb: LaneKind, b: i64) -> Option<Ordering> {
    if ka == kb {
        return Some(a.cmp(&b));
    }
    match (ka, kb) {
        (LaneKind::Int, LaneKind::Decimal) => a.checked_mul(100).map(|a| a.cmp(&b)),
        (LaneKind::Decimal, LaneKind::Int) => b.checked_mul(100).map(|b| a.cmp(&b)),
        _ => None,
    }
}

/// `Value::sql_cmp` for an `i64`-mapped value against a float. `Bool`
/// and `Date` do not compare with `Float` (scalar table: `None`).
#[inline]
fn ord_i64_f64(k: LaneKind, a: i64, b: f64) -> Option<Ordering> {
    match k {
        LaneKind::Int => (a as f64).partial_cmp(&b),
        LaneKind::Decimal => (a as f64 / 100.0).partial_cmp(&b),
        LaneKind::Bool | LaneKind::Date => None,
    }
}

/// One comparison kernel: for each of `n` rows, `Unknown` where `valid`
/// says a side is NULL, else `op` applied to `ord(row)` (`None` =
/// incomparable = `Unknown`). Monomorphized per call site, so each lane
/// pairing is its own tight loop.
#[inline]
fn push_cmp(
    out: &mut Vec<Truth>,
    n: usize,
    op: CmpOp,
    valid: impl Fn(usize) -> bool,
    ord: impl Fn(usize) -> Option<Ordering>,
) {
    out.extend((0..n).map(|r| match valid(r).then(|| ord(r)).flatten() {
        Some(ord) => Truth::from_bool(op.eval(ord)),
        None => Truth::Unknown,
    }));
}

#[inline]
fn both<'a>(a: Validity<'a>, b: Validity<'a>) -> impl Fn(usize) -> bool + 'a {
    move |r| a.get(r) && b.get(r)
}

/// Vectorized `a op b`, one [`Truth`] per batch row appended to `out`.
fn cmp_cols(batch: &ValueBatch<'_>, a: &ExprCol, op: CmpOp, b: &ExprCol, out: &mut Vec<Truth>) {
    let n = batch.len();
    match (a, b) {
        (ExprCol::Col(i), ExprCol::Col(j)) => match (*batch.lane(*i), *batch.lane(*j)) {
            (
                Lane::I64 {
                    kind: ka,
                    vals: va,
                    valid: la,
                },
                Lane::I64 {
                    kind: kb,
                    vals: vb,
                    valid: lb,
                },
            ) => push_cmp(out, n, op, both(la, lb), |r| ord_i64(ka, va[r], kb, vb[r])),
            (
                Lane::I64 {
                    kind,
                    vals: va,
                    valid: la,
                },
                Lane::F64 {
                    vals: vb,
                    valid: lb,
                },
            ) => push_cmp(out, n, op, both(la, lb), |r| {
                ord_i64_f64(kind, va[r], vb[r])
            }),
            // `a θ b ⇔ b θ.flip() a`; reuse the i64-vs-f64 kernel.
            (
                Lane::F64 {
                    vals: va,
                    valid: la,
                },
                Lane::I64 {
                    kind,
                    vals: vb,
                    valid: lb,
                },
            ) => push_cmp(out, n, op.flip(), both(la, lb), |r| {
                ord_i64_f64(kind, vb[r], va[r])
            }),
            (
                Lane::F64 {
                    vals: va,
                    valid: la,
                },
                Lane::F64 {
                    vals: vb,
                    valid: lb,
                },
            ) => push_cmp(out, n, op, both(la, lb), |r| va[r].partial_cmp(&vb[r])),
            (
                Lane::Str {
                    offsets: oa,
                    arena: sa,
                    valid: la,
                },
                Lane::Str {
                    offsets: ob,
                    arena: sb,
                    valid: lb,
                },
            ) => push_cmp(out, n, op, both(la, lb), |r| {
                Some(Lane::str_of(oa, sa, r).cmp(Lane::str_of(ob, sb, r)))
            }),
            _ => cmp_generic(batch, a, op, b, out),
        },
        (ExprCol::Col(i), ExprCol::Const(v)) => {
            cmp_lane_const(batch, *i, op, v, out);
        }
        (ExprCol::Const(v), ExprCol::Col(j)) => {
            // Swap operands, flip the operator.
            cmp_lane_const(batch, *j, op.flip(), v, out);
        }
        _ => cmp_generic(batch, a, op, b, out),
    }
}

/// A literal classified for lane-typed comparison.
enum ConstSide<'v> {
    I64(LaneKind, i64),
    F64(f64),
    Str(&'v str),
    Null,
}

fn classify(v: &Value) -> ConstSide<'_> {
    match v {
        Value::Null => ConstSide::Null,
        Value::Bool(b) => ConstSide::I64(LaneKind::Bool, i64::from(*b)),
        Value::Int(i) => ConstSide::I64(LaneKind::Int, *i),
        Value::Decimal(d) => ConstSide::I64(LaneKind::Decimal, *d),
        Value::Date(d) => ConstSide::I64(LaneKind::Date, i64::from(*d)),
        Value::Float(f) => ConstSide::F64(*f),
        Value::Str(s) => ConstSide::Str(s),
    }
}

/// `lane(col) op const` (operands already oriented lane-first).
fn cmp_lane_const(batch: &ValueBatch<'_>, col: usize, op: CmpOp, v: &Value, out: &mut Vec<Truth>) {
    let n = batch.len();
    let lane = *batch.lane(col);
    let valid = lane.valid();
    let valid = |r| valid.get(r);
    match (lane, classify(v)) {
        // Anything compared with NULL is unknown, valid or not.
        (_, ConstSide::Null) => out.resize(out.len() + n, Truth::Unknown),
        (Lane::I64 { kind, vals, .. }, ConstSide::I64(kc, c)) => {
            push_cmp(out, n, op, valid, |r| ord_i64(kind, vals[r], kc, c))
        }
        (Lane::I64 { kind, vals, .. }, ConstSide::F64(c)) => {
            push_cmp(out, n, op, valid, |r| ord_i64_f64(kind, vals[r], c))
        }
        (Lane::F64 { vals, .. }, ConstSide::F64(c)) => {
            push_cmp(out, n, op, valid, |r| vals[r].partial_cmp(&c))
        }
        (Lane::F64 { vals, .. }, ConstSide::I64(kc, c)) => {
            push_cmp(out, n, op.flip(), valid, |r| ord_i64_f64(kc, c, vals[r]))
        }
        (Lane::Str { offsets, arena, .. }, ConstSide::Str(c)) => push_cmp(out, n, op, valid, |r| {
            Some(Lane::str_of(offsets, arena, r).cmp(c))
        }),
        // A string against a number, or the reverse: incomparable, decided
        // by the scalar comparison itself.
        _ => out.extend((0..n).map(|r| batch.value(r, col).sql_compare(op, v))),
    }
}

/// Scalar fallback: exactly `left.sql_compare(op, right)` per row.
fn cmp_generic(batch: &ValueBatch<'_>, a: &ExprCol, op: CmpOp, b: &ExprCol, out: &mut Vec<Truth>) {
    for r in 0..batch.len() {
        out.push(a.value(batch, r).sql_compare(op, &b.value(batch, r)));
    }
}

fn maybe_not(t: Truth, negated: bool) -> Truth {
    if negated {
        t.not()
    } else {
        t
    }
}

/// Null-ness of a resolved expression per row; a column answers from its
/// validity bitmap without touching the payload.
fn nulls_of(batch: &ValueBatch<'_>, e: &ExprCol, out: &mut Vec<bool>) {
    match e {
        ExprCol::Col(i) => {
            let valid = batch.lane(*i).valid();
            out.extend((0..valid.len()).map(|r| !valid.get(r)));
        }
        ExprCol::Const(v) => out.resize(out.len() + batch.len(), v.is_null()),
        ExprCol::Owned(vs) => out.extend(vs.iter().map(Value::is_null)),
    }
}

/// Evaluate `pred` over every row of `batch`, returning one [`Truth`]
/// per row — the columnar equivalent of mapping `CPred::eval`.
pub fn eval_pred(pred: &CPred, batch: &ValueBatch<'_>) -> Vec<Truth> {
    let mut out = Vec::with_capacity(batch.len());
    eval_into(pred, batch, &mut out);
    out
}

fn eval_into(pred: &CPred, batch: &ValueBatch<'_>, out: &mut Vec<Truth>) {
    let n = batch.len();
    match pred {
        CPred::Cmp { left, op, right } => {
            let a = eval_expr_column(left, batch);
            let b = eval_expr_column(right, batch);
            cmp_cols(batch, &a, *op, &b, out);
        }
        CPred::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr_column(expr, batch);
            let lo = eval_expr_column(low, batch);
            let hi = eval_expr_column(high, batch);
            let mut ge = Vec::with_capacity(n);
            cmp_cols(batch, &v, CmpOp::Ge, &lo, &mut ge);
            let mut le = Vec::with_capacity(n);
            cmp_cols(batch, &v, CmpOp::Le, &hi, &mut le);
            out.extend(
                ge.into_iter()
                    .zip(le)
                    .map(|(a, b)| maybe_not(a.and(b), *negated)),
            );
        }
        CPred::IsNull { expr, negated } => {
            let e = eval_expr_column(expr, batch);
            let mut nulls = Vec::with_capacity(n);
            nulls_of(batch, &e, &mut nulls);
            // IS [NOT] NULL is two-valued.
            out.extend(nulls.into_iter().map(|b| Truth::from_bool(b != *negated)));
        }
        CPred::InList {
            expr,
            list,
            negated,
        } => {
            // Kleene or-fold over the list; or is commutative and
            // absorbing on TRUE, so this matches the row evaluator's
            // early break.
            let v = eval_expr_column(expr, batch);
            let mut acc = vec![Truth::False; n];
            let mut tmp = Vec::with_capacity(n);
            for e in list {
                let ec = eval_expr_column(e, batch);
                tmp.clear();
                cmp_cols(batch, &v, CmpOp::Eq, &ec, &mut tmp);
                for (a, t) in acc.iter_mut().zip(&tmp) {
                    *a = a.or(*t);
                }
            }
            out.extend(acc.into_iter().map(|t| maybe_not(t, *negated)));
        }
        CPred::And(a, b) => {
            let ta = eval_pred(a, batch);
            let tb = eval_pred(b, batch);
            out.extend(ta.into_iter().zip(tb).map(|(x, y)| x.and(y)));
        }
        CPred::Or(a, b) => {
            let ta = eval_pred(a, batch);
            let tb = eval_pred(b, batch);
            out.extend(ta.into_iter().zip(tb).map(|(x, y)| x.or(y)));
        }
        CPred::Not(p) => {
            let t = eval_pred(p, batch);
            out.extend(t.into_iter().map(Truth::not));
        }
        CPred::Const(t) => out.resize(out.len() + n, *t),
    }
}

/// The rows of `batch` where `pred` is `TRUE`, as a selection vector.
pub fn select_rows(pred: &CPred, batch: &ValueBatch<'_>) -> SelVec {
    SelVec::from_truths(&eval_pred(pred, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec::batch::tests::table;
    use nra_storage::ColumnType::{self, Bool, Date, Decimal, Float, Int};
    use nra_storage::Tuple;

    fn col(i: usize) -> CExpr {
        CExpr::Col(i)
    }

    fn lit(v: Value) -> CExpr {
        CExpr::Lit(v)
    }

    /// The reference: row-at-a-time `CPred::eval` over every row.
    fn reference(pred: &CPred, rows: &[Tuple]) -> Vec<Truth> {
        rows.iter().map(|r| pred.eval(r)).collect()
    }

    /// `pred` over `rows` stored as columns of `types`, in one window and
    /// in windows of 1 and 3 rows, against the row-at-a-time reference.
    fn check(pred: &CPred, rows: &[Tuple], types: &[ColumnType]) {
        let t = table(types, rows.to_vec());
        let want = reference(pred, rows);
        for width in [rows.len().max(1), 1, 3] {
            let got: Vec<Truth> = (0..rows.len())
                .step_by(width)
                .flat_map(|start| {
                    let n = width.min(rows.len() - start);
                    eval_pred(pred, &ValueBatch::window(&t, &pred.columns(), start, n))
                })
                .collect();
            assert_eq!(got, want, "{pred:?} at width {width}");
        }
    }

    #[test]
    fn typed_cmp_matches_reference() {
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Int(7), Value::Null],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(3), Value::Int(3)],
        ];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let p = CPred::Cmp {
                left: col(0),
                op,
                right: col(1),
            };
            check(&p, &rows, &[Int, Int]);
            let p2 = CPred::Cmp {
                left: col(0),
                op,
                right: lit(Value::Int(3)),
            };
            check(&p2, &rows, &[Int, Int]);
            let p3 = CPred::Cmp {
                left: lit(Value::Int(3)),
                op,
                right: col(1),
            };
            check(&p3, &rows, &[Int, Int]);
        }
    }

    #[test]
    fn int_decimal_rescale_and_overflow() {
        let big = i64::MAX / 50; // overflows when scaled by 100
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(5), Value::Decimal(500)],
            vec![Value::Int(big), Value::Decimal(0)],
            vec![Value::Int(-2), Value::Decimal(-150)],
        ];
        let p = CPred::Cmp {
            left: col(0),
            op: CmpOp::Gt,
            right: col(1),
        };
        // An Int lane against a Decimal lane, then against literals:
        check(&p, &rows, &[Int, Decimal]);
        let p2 = CPred::Cmp {
            left: col(0),
            op: CmpOp::Eq,
            right: lit(Value::Decimal(500)),
        };
        check(&p2, &rows, &[Int, Decimal]);
        let overflow = CPred::Cmp {
            left: lit(Value::Int(big)),
            op: CmpOp::Lt,
            right: col(1),
        };
        check(&overflow, &rows, &[Int, Decimal]);
    }

    #[test]
    fn float_lanes_and_nan() {
        let rows: Vec<Tuple> = vec![
            vec![Value::Float(1.5), Value::Float(2.5)],
            vec![Value::Float(f64::NAN), Value::Float(0.0)],
            vec![Value::Null, Value::Float(-1.0)],
            vec![Value::Float(3.0), Value::Null],
        ];
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            let p = CPred::Cmp {
                left: col(0),
                op,
                right: col(1),
            };
            check(&p, &rows, &[Float, Float]);
            let p2 = CPred::Cmp {
                left: col(0),
                op,
                right: lit(Value::Int(2)),
            };
            check(&p2, &rows, &[Float, Float]);
            let p3 = CPred::Cmp {
                left: col(1),
                op,
                right: lit(Value::Decimal(50)),
            };
            check(&p3, &rows, &[Float, Float]);
        }
    }

    #[test]
    fn incomparable_kinds_are_unknown() {
        let rows: Vec<Tuple> = vec![
            vec![Value::Bool(true), Value::Date(10)],
            vec![Value::Bool(false), Value::Date(10)],
        ];
        let p = CPred::Cmp {
            left: col(0),
            op: CmpOp::Eq,
            right: col(1),
        };
        check(&p, &rows, &[Bool, Date]);
        let p2 = CPred::Cmp {
            left: col(1),
            op: CmpOp::Lt,
            right: lit(Value::Float(5.0)),
        };
        check(&p2, &rows, &[Bool, Date]);
        let p3 = CPred::Cmp {
            left: col(0),
            op: CmpOp::Eq,
            right: lit(Value::str("x")),
        };
        check(&p3, &rows, &[Bool, Date]);
    }

    #[test]
    fn string_lanes_compare_as_str() {
        let rows: Vec<Tuple> = vec![
            vec![Value::str("b"), Value::str("a"), Value::Int(1)],
            vec![Value::str(""), Value::Null, Value::Int(2)],
            vec![Value::Null, Value::str("zé"), Value::Null],
            vec![Value::str("zé"), Value::str("zé"), Value::Int(3)],
        ];
        let types = [ColumnType::Str, ColumnType::Str, Int];
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            for right in [col(1), lit(Value::str("b")), lit(Value::Int(1)), col(2)] {
                let p = CPred::Cmp {
                    left: col(0),
                    op,
                    right,
                };
                check(&p, &rows, &types);
            }
        }
    }

    #[test]
    fn between_in_list_is_null_compose() {
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(5)],
            vec![Value::Null],
            vec![Value::Int(11)],
            vec![Value::Int(1)],
        ];
        let between = CPred::Between {
            expr: col(0),
            low: lit(Value::Int(1)),
            high: lit(Value::Int(10)),
            negated: true,
        };
        check(&between, &rows, &[Int]);
        let inlist = CPred::InList {
            expr: col(0),
            list: vec![lit(Value::Int(1)), lit(Value::Null), lit(Value::Int(11))],
            negated: true,
        };
        check(&inlist, &rows, &[Int]);
        let isnull = CPred::IsNull {
            expr: col(0),
            negated: false,
        };
        check(&isnull, &rows, &[Int]);
        let compound = CPred::Or(
            Box::new(CPred::Not(Box::new(between))),
            Box::new(CPred::And(Box::new(inlist), Box::new(isnull))),
        );
        check(&compound, &rows, &[Int]);
    }

    #[test]
    fn empty_batch_and_all_false_selection() {
        let empty = table(&[Int], vec![]);
        let batch = ValueBatch::window(&empty, &[0], 0, 0);
        let p = CPred::Const(Truth::True);
        assert!(eval_pred(&p, &batch).is_empty());
        assert!(select_rows(&p, &batch).is_empty());

        let two = table(&[Int], vec![vec![Value::Int(1)], vec![Value::Null]]);
        let batch2 = ValueBatch::window(&two, &[0], 0, 2);
        let never = CPred::Cmp {
            left: col(0),
            op: CmpOp::Lt,
            right: lit(Value::Int(-100)),
        };
        let sel = select_rows(&never, &batch2);
        assert!(sel.is_empty(), "all-false/unknown selects nothing");
    }

    #[test]
    fn arithmetic_falls_back_row_wise() {
        use nra_sql::ArithOp;
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(5), Value::Int(2)],
            vec![Value::Null, Value::Int(3)],
            vec![Value::Int(9), Value::Null],
        ];
        let sum = CExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(col(0)),
            right: Box::new(col(1)),
        };
        let p = CPred::Cmp {
            left: sum,
            op: CmpOp::Gt,
            right: lit(Value::Int(6)),
        };
        check(&p, &rows, &[Int, Int]);
    }
}
