//! Differential property tests for the vectorized columnar core
//! (DESIGN.md §13): seeded-deterministic random tables — typed columns,
//! NULL-dense, duplicate-heavy, with the awkward values of every type —
//! scanned on their stored lanes at several batch widths and checked
//! against the row-at-a-time reference evaluator on `Table::row(i)`.
//! Widths 1 and 3 make every row or almost every row a window seam; 64
//! and 65 sit on either side of a validity word; 1024 is the default.
//!
//! Covered here: lane kernels and 3VL evaluation vs `CPred::eval`; empty
//! batches; all-false selection vectors; nest groups straddling batch
//! boundaries (`group_bounds` vs a scalar adjacent-equality scan); and
//! that a stored column cannot be mixed-type in the first place.

use nra_engine::expr::{CExpr, CPred};
use nra_engine::ops;
use nra_engine::vec::{self, select_rows, ValueBatch};
use nra_sql::ArithOp;
use nra_storage::rng::Pcg32;
use nra_storage::{
    relation, tuple::group_eq_on, CmpOp, Column, ColumnType, Relation, Schema, StorageError, Table,
    Truth, Tuple, Value,
};

const BATCH_WIDTHS: [usize; 5] = [1, 3, 64, 65, 1024];

const TYPES: [ColumnType; 6] = [
    ColumnType::Bool,
    ColumnType::Int,
    ColumnType::Decimal,
    ColumnType::Float,
    ColumnType::Str,
    ColumnType::Date,
];

/// A non-NULL value of `ty` from a small domain (so comparisons hit
/// equal, less and greater, and columns repeat values) that includes the
/// type's awkward members. `extremes` adds the integers whose arithmetic
/// overflows; cases that draw them compare but do not compute.
fn value_of(rng: &mut Pcg32, ty: ColumnType, extremes: bool) -> Value {
    let pick = if extremes { rng.index(8) } else { 7 };
    match ty {
        ColumnType::Bool => Value::Bool(rng.bool(0.5)),
        ColumnType::Int => Value::Int(match pick {
            0 => i64::MIN,
            1 => i64::MAX / 50, // overflows when scaled to a Decimal
            _ => rng.range_i64(-3, 4),
        }),
        ColumnType::Decimal => Value::Decimal(match pick {
            0 => i64::MIN,
            1 => 50,
            _ => rng.range_i64(-3, 4) * 100,
        }),
        ColumnType::Float => Value::Float(match rng.index(8) {
            0 => f64::NAN,
            1 => -0.0,
            _ => rng.range_i64(-6, 7) as f64 / 2.0,
        }),
        ColumnType::Str => Value::str(["", "a", "b", "ab", "é", "z🦀"][rng.index(6)]),
        ColumnType::Date => Value::Date(rng.range_i64(-1, 4) as i32),
    }
}

/// A random NULL-dense table: 1–4 columns of random types, 0–140 rows
/// (so there are empty tables, one-window tables and tables whose
/// validity spans three words).
fn random_table(rng: &mut Pcg32, extremes: bool) -> Table {
    let types: Vec<ColumnType> = (0..rng.index(4) + 1).map(|_| *rng.choose(&TYPES)).collect();
    let columns = (types.iter().enumerate())
        .map(|(i, ty)| Column::new(format!("c{i}"), *ty))
        .collect();
    let mut table = Table::new("t", Schema::new(columns));
    let n = if rng.bool(0.1) { 0 } else { rng.index(141) };
    let null_share = [0.0, 0.3, 0.9][rng.index(3)];
    for _ in 0..n {
        let row = (types.iter())
            .map(|ty| {
                if rng.bool(null_share) {
                    Value::Null
                } else {
                    value_of(rng, *ty, extremes)
                }
            })
            .collect();
        table.insert(row).unwrap();
    }
    table
}

/// What a random predicate is drawn over.
#[derive(Clone, Copy)]
struct Shape {
    width: usize,
    extremes: bool,
}

/// A random scalar expression: mostly bare columns and literals of every
/// type (NULL included), sometimes — when no extreme integer can reach it
/// — arithmetic.
fn random_expr(rng: &mut Pcg32, shape: Shape, depth: usize) -> CExpr {
    let Shape { width, extremes } = shape;
    match rng.index(10) {
        0..=5 => CExpr::Col(rng.index(width)),
        6..=8 => CExpr::Lit(if rng.bool(0.15) {
            Value::Null
        } else {
            let ty = *rng.choose(&TYPES);
            value_of(rng, ty, extremes)
        }),
        _ if depth == 0 || extremes => CExpr::Col(rng.index(width)),
        _ => CExpr::Arith {
            op: *rng.choose(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]),
            left: Box::new(random_expr(rng, shape, depth - 1)),
            right: Box::new(random_expr(rng, shape, depth - 1)),
        },
    }
}

/// A random predicate, depth-bounded.
fn random_pred(rng: &mut Pcg32, shape: Shape, depth: usize) -> CPred {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    if depth == 0 || rng.bool(0.5) {
        return match rng.index(4) {
            0 => CPred::Cmp {
                left: random_expr(rng, shape, 1),
                op: *rng.choose(&ops),
                right: random_expr(rng, shape, 1),
            },
            1 => CPred::Between {
                expr: random_expr(rng, shape, 1),
                low: random_expr(rng, shape, 1),
                high: random_expr(rng, shape, 1),
                negated: rng.bool(0.5),
            },
            2 => CPred::IsNull {
                expr: random_expr(rng, shape, 1),
                negated: rng.bool(0.5),
            },
            _ => CPred::InList {
                expr: random_expr(rng, shape, 1),
                list: (0..rng.index(3) + 1)
                    .map(|_| random_expr(rng, shape, 1))
                    .collect(),
                negated: rng.bool(0.5),
            },
        };
    }
    match rng.index(3) {
        0 => CPred::And(
            Box::new(random_pred(rng, shape, depth - 1)),
            Box::new(random_pred(rng, shape, depth - 1)),
        ),
        1 => CPred::Or(
            Box::new(random_pred(rng, shape, depth - 1)),
            Box::new(random_pred(rng, shape, depth - 1)),
        ),
        _ => CPred::Not(Box::new(random_pred(rng, shape, depth - 1))),
    }
}

fn random_case(rng: &mut Pcg32) -> (Table, Shape) {
    let extremes = rng.bool(0.5);
    let table = random_table(rng, extremes);
    let width = table.schema().len();
    (table, Shape { width, extremes })
}

/// `pred` over every row of `table`, evaluated on the stored lanes in
/// windows of `width` rows.
fn eval_on_lanes(table: &Table, pred: &CPred, width: usize) -> Vec<Truth> {
    let cols = pred.columns();
    (0..table.len())
        .step_by(width)
        .flat_map(|start| {
            let n = width.min(table.len() - start);
            vec::eval_pred(pred, &ValueBatch::window(table, &cols, start, n))
        })
        .collect()
}

/// Everything needed to replay a failing case by hand.
fn describe(seed: u64, case: usize, table: &Table, pred: &CPred) -> String {
    format!(
        "seed {seed:#x} case {case}\nschema {}\nrows {:?}\npredicate {pred:?}",
        table.schema(),
        table.rows().collect::<Vec<_>>()
    )
}

#[test]
fn vectorized_predicates_match_row_reference() {
    const SEED: u64 = 0x5EED_0001;
    let mut rng = Pcg32::new(SEED);
    let started = std::time::Instant::now();
    for case in 0..600 {
        let (table, shape) = random_case(&mut rng);
        let pred = random_pred(&mut rng, shape, 2);
        let reference: Vec<Truth> = table.rows().map(|row| pred.eval(&row)).collect();
        for width in BATCH_WIDTHS {
            assert_eq!(
                eval_on_lanes(&table, &pred, width),
                reference,
                "batch width {width}, {}",
                describe(SEED, case, &table, &pred)
            );
        }
    }
    // The budget is for an optimized build; a debug build is ~10× slower.
    if !cfg!(debug_assertions) {
        assert!(started.elapsed().as_secs_f64() < 2.0, "600 cases in < 2 s");
    }
}

#[test]
fn selection_vectors_match_accepts() {
    const SEED: u64 = 0x5EED_0002;
    let mut rng = Pcg32::new(SEED);
    for case in 0..100 {
        let (table, shape) = random_case(&mut rng);
        let pred = random_pred(&mut rng, shape, 1);
        let expect: Vec<usize> = (0..table.len())
            .filter(|&i| pred.accepts(&table.row(i)))
            .collect();
        let batch = ValueBatch::window(&table, &pred.columns(), 0, table.len());
        let got: Vec<usize> = select_rows(&pred, &batch).iter().collect();
        assert_eq!(got, expect, "{}", describe(SEED, case, &table, &pred));
    }
}

fn int_table(values: impl Iterator<Item = Value>) -> Table {
    let mut table = Table::new("t", Schema::new(vec![Column::new("c0", ColumnType::Int)]));
    table.insert_many(values.map(|v| vec![v])).unwrap();
    table
}

#[test]
fn all_false_selection_vector_is_empty() {
    // A predicate that is never TRUE (column < itself) yields an empty
    // selection at every batch width, NULLs included.
    let mut rng = Pcg32::new(0x5EED_0003);
    let table = int_table((0..64).map(|_| {
        if rng.bool(0.3) {
            Value::Null
        } else {
            Value::Int(rng.range_i64(-5, 6))
        }
    }));
    let pred = CPred::Cmp {
        left: CExpr::Col(0),
        op: CmpOp::Lt,
        right: CExpr::Col(0),
    };
    for width in BATCH_WIDTHS {
        for start in (0..table.len()).step_by(width) {
            let n = width.min(table.len() - start);
            let batch = ValueBatch::window(&table, &[0], start, n);
            assert!(select_rows(&pred, &batch).is_empty());
        }
    }
}

#[test]
fn a_stored_column_cannot_be_mixed() {
    // What used to need a fallback lane cannot be stored: `insert` holds
    // every column to its declared type, so a lane is homogeneous.
    let mut table = int_table([Value::Int(1)].into_iter());
    for stray in [
        Value::Decimal(100),
        Value::Float(1.0),
        Value::str("1"),
        Value::Bool(true),
        Value::Date(1),
    ] {
        assert!(matches!(
            table.insert(vec![stray]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }
    assert_eq!(table.len(), 1);
}

/// A random *typed* value for the row-side kernels below: one kind per
/// column, NULL-laden.
fn typed_value(rng: &mut Pcg32, kind: usize) -> Value {
    if rng.bool(0.3) {
        return Value::Null;
    }
    match kind {
        0 => Value::Int(rng.range_i64(-5, 6)),
        1 => Value::Decimal(rng.range_i64(-5, 6) * 100),
        2 => Value::Float(rng.range_i64(-5, 6) as f64 / 2.0),
        3 => Value::Date(rng.range_i64(0, 6) as i32),
        _ => Value::Bool(rng.bool(0.5)),
    }
}

fn random_rows(rng: &mut Pcg32, width: usize, n: usize) -> Vec<Tuple> {
    let kinds: Vec<usize> = (0..width).map(|_| rng.index(5)).collect();
    (0..n)
        .map(|_| (0..width).map(|c| typed_value(rng, kinds[c])).collect())
        .collect()
}

/// Scalar reference for group boundaries: adjacent grouping equality.
fn scalar_bounds(rows: &[Tuple], cols: &[usize]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut lo = 0;
    while lo < rows.len() {
        let mut hi = lo + 1;
        while hi < rows.len() && group_eq_on(&rows[lo], &rows[hi], cols) {
            hi += 1;
        }
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

#[test]
fn group_bounds_match_scalar_scan_across_batch_seams() {
    let mut rng = Pcg32::new(0x5EED_0004);
    for case in 0..100 {
        let width = rng.index(2) + 1;
        let cols: Vec<usize> = (0..width).collect();
        // Sorted runs with repeats: group keys drawn from a tiny domain,
        // then sorted, so runs regularly straddle 1- and 3-row batches.
        let n = rng.index(60);
        let mut rows = random_rows(&mut rng, width, n);
        rows.sort_by(|a, b| nra_storage::tuple::cmp_on(a, b, &cols));
        let expect = scalar_bounds(&rows, &cols);
        for bsz in BATCH_WIDTHS {
            let _g = vec::set_batch_rows(Some(bsz));
            let got = vec::group_bounds(&rows, &cols, "test").unwrap();
            assert_eq!(got, expect, "case {case} bsz {bsz}");
        }
    }
}

#[test]
fn filter_is_batch_width_invariant() {
    // ops::filter works on intermediate relations, row at a time: it is
    // `accepts` per row, whatever the batch width in force.
    let mut rng = Pcg32::new(0x5EED_0005);
    let rel = Relation::with_rows(
        Schema::new(vec![
            Column::new("t.a", ColumnType::Int),
            Column::new("t.b", ColumnType::Int),
        ]),
        random_rows(&mut rng, 2, 300),
    );
    let pred = CPred::Cmp {
        left: CExpr::Col(0),
        op: CmpOp::Le,
        right: CExpr::Col(1),
    };
    let scalar: Vec<Tuple> = rel
        .rows()
        .iter()
        .filter(|r| pred.accepts(r))
        .cloned()
        .collect();
    for bsz in [1, 3, 7, 1024] {
        let _g = vec::set_batch_rows(Some(bsz));
        assert_eq!(ops::filter(&rel, &pred).rows(), &scalar[..]);
    }
}

#[test]
fn nest_groups_straddling_batch_boundaries() {
    // One long run (all rows in one group) plus runs of length 2 around
    // every seam of a 3-row batch; the sort-based nest must agree with
    // itself across widths.
    let rel: Relation = relation!(
        [("r.a", ColumnType::Int), ("s.b", ColumnType::Int)],
        [
            [Value::Int(1), Value::Int(0)],
            [Value::Int(1), Value::Int(1)],
            [Value::Int(1), Value::Int(2)],
            [Value::Int(1), Value::Int(3)],
            [Value::Int(2), Value::Int(4)],
            [Value::Int(2), Value::Int(5)],
            [Value::Null, Value::Int(6)],
            [Value::Null, Value::Int(7)],
            [Value::Int(3), Value::Int(8)]
        ]
    );
    let reference = {
        let _g = vec::set_batch_rows(Some(1024));
        nra_core::nest::nest_sorted(&rel, &["r.a"], &["s.b"], "s").unwrap()
    };
    assert_eq!(reference.len(), 4);
    for bsz in BATCH_WIDTHS {
        let _g = vec::set_batch_rows(Some(bsz));
        let got = nra_core::nest::nest_sorted(&rel, &["r.a"], &["s.b"], "s").unwrap();
        assert_eq!(got, reference, "bsz {bsz}");
    }
}
