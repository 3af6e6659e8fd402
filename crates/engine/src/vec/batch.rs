//! Column-major value batches: borrowed lanes, validity windows,
//! selection vectors.
//!
//! Base tables are stored as typed columns (`nra_storage::column`), so a
//! [`ValueBatch`] transposes nothing: it is a *window* `[start, start+n)`
//! over the stored lanes of the columns a kernel asked for. An `i64`- or
//! `f64`-mapped lane is a sub-slice of the stored vector; a string lane
//! is a sub-slice of the offsets plus the column's arena; validity is the
//! stored bitmap read at a bit offset. Building a batch allocates one
//! small `Vec` of lane descriptors and copies no data.

use nra_storage::{ColumnData, ColumnStore, ColumnType, Table, Value};

/// Per-row validity of a window (1 = value present, 0 = SQL `NULL`):
/// bit `i` of the window is bit `offset + i` of the stored bitmap.
#[derive(Debug, Clone, Copy)]
pub struct Validity<'a> {
    words: &'a [u64],
    offset: usize,
    len: usize,
}

impl Validity<'_> {
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let bit = self.offset + i;
        self.words[bit / 64] >> (bit % 64) & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The scalar type of an `i64`-mapped lane. The discriminants mirror
/// `Value`'s variants; cross-kind comparison semantics are centralized in
/// [`crate::vec::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    Bool,
    Int,
    Decimal,
    Date,
}

/// One column of a batch, borrowed from storage. A NULL slot's payload is
/// `0` / `0.0` / the empty string; kernels consult `valid` first.
#[derive(Debug, Clone, Copy)]
pub enum Lane<'a> {
    I64 {
        kind: LaneKind,
        vals: &'a [i64],
        valid: Validity<'a>,
    },
    F64 {
        vals: &'a [f64],
        valid: Validity<'a>,
    },
    /// Row `i` is `arena[offsets[i]..offsets[i + 1]]`, compared as `&str`.
    Str {
        offsets: &'a [usize],
        arena: &'a str,
        valid: Validity<'a>,
    },
}

impl<'a> Lane<'a> {
    fn window(col: &'a ColumnStore, start: usize, n: usize) -> Lane<'a> {
        let valid = Validity {
            words: col.validity().words(),
            offset: start,
            len: n,
        };
        match col.values() {
            ColumnData::I64(vals) => Lane::I64 {
                kind: match col.ty() {
                    ColumnType::Bool => LaneKind::Bool,
                    ColumnType::Decimal => LaneKind::Decimal,
                    ColumnType::Date => LaneKind::Date,
                    _ => LaneKind::Int,
                },
                vals: &vals[start..start + n],
                valid,
            },
            ColumnData::F64(vals) => Lane::F64 {
                vals: &vals[start..start + n],
                valid,
            },
            ColumnData::Str { offsets, arena } => Lane::Str {
                offsets: &offsets[start..=start + n],
                arena,
                valid,
            },
        }
    }

    pub fn valid(&self) -> Validity<'a> {
        match self {
            Lane::I64 { valid, .. } | Lane::F64 { valid, .. } | Lane::Str { valid, .. } => *valid,
        }
    }

    /// Row `i` of a string lane.
    #[inline]
    pub(super) fn str_of(offsets: &[usize], arena: &'a str, i: usize) -> &'a str {
        &arena[offsets[i]..offsets[i + 1]]
    }
}

/// A window of `len` rows over the stored lanes of a table's columns.
/// Lifetime-tied to the table; holds a lane for exactly the columns the
/// kernel named.
pub struct ValueBatch<'a> {
    table: &'a Table,
    start: usize,
    lanes: Vec<Option<Lane<'a>>>,
    len: usize,
}

impl<'a> ValueBatch<'a> {
    /// The window `[start, start + n)` of `table`, with lanes for `cols`.
    pub fn window(table: &'a Table, cols: &[usize], start: usize, n: usize) -> ValueBatch<'a> {
        let mut lanes = vec![None; table.schema().len()];
        for &c in cols {
            lanes[c] = Some(Lane::window(table.column(c), start, n));
        }
        ValueBatch {
            table,
            start,
            lanes,
            len: n,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lane for `col`.
    ///
    /// # Panics
    /// If the batch was built without `col` — a kernel bug: a batch is
    /// built over the columns its predicate reads.
    #[inline]
    pub fn lane(&self, col: usize) -> &Lane<'a> {
        self.lanes[col]
            .as_ref()
            .expect("batch holds a lane for every column its predicate reads")
    }

    /// The one `Value` at (`row`, `col`), rebuilt from storage — what the
    /// scalar fallbacks compare.
    pub fn value(&self, row: usize, col: usize) -> Value {
        debug_assert!(row < self.len);
        self.table.column(col).value(self.start + row)
    }
}

/// A selection vector: indices (into a batch) of the rows a predicate
/// kept, in ascending order. The vectorized alternative to materializing
/// filtered row copies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelVec(pub Vec<u32>);

impl SelVec {
    /// Select the rows whose truth value is `TRUE` (SQL `WHERE`
    /// semantics: both `FALSE` and `UNKNOWN` reject).
    pub fn from_truths(truths: &[nra_storage::Truth]) -> SelVec {
        SelVec(
            truths
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_true())
                .map(|(i, _)| i as u32)
                .collect(),
        )
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().map(|&i| i as usize)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nra_storage::{Column, Schema, Truth, Tuple};

    /// A one-off table of nullable columns `c0, c1, …` holding `rows`.
    pub(crate) fn table(types: &[ColumnType], rows: Vec<Tuple>) -> Table {
        let cols = (types.iter().enumerate())
            .map(|(i, ty)| Column::new(format!("c{i}"), *ty))
            .collect();
        let mut t = Table::new("t", Schema::new(cols));
        t.insert_many(rows).unwrap();
        t
    }

    #[test]
    fn typed_lane_for_homogeneous_ints() {
        let t = table(
            &[ColumnType::Int],
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        );
        let b = ValueBatch::window(&t, &[0], 0, 3);
        match b.lane(0) {
            Lane::I64 { kind, vals, valid } => {
                assert_eq!(*kind, LaneKind::Int);
                assert_eq!(*vals, [1, 0, 3]);
                assert!(valid.get(0) && !valid.get(1) && valid.get(2));
            }
            other => panic!("expected Int lane, got {other:?}"),
        }
        assert_eq!(b.value(1, 0), Value::Null);
        assert_eq!(b.value(2, 0), Value::Int(3));
    }

    #[test]
    fn string_column_is_a_str_lane_over_the_arena() {
        let t = table(
            &[ColumnType::Str],
            vec![
                vec![Value::str("ab")],
                vec![Value::Null],
                vec![Value::str("")],
                vec![Value::str("çé")],
            ],
        );
        // A window that starts mid-column reads the right slices.
        let b = ValueBatch::window(&t, &[0], 1, 3);
        match b.lane(0) {
            Lane::Str { offsets, arena, .. } => {
                assert_eq!(offsets.len(), 4);
                assert_eq!(Lane::str_of(offsets, arena, 2), "çé");
            }
            other => panic!("expected Str lane, got {other:?}"),
        }
        assert_eq!(b.value(0, 0), Value::Null);
        assert_eq!(b.value(1, 0), Value::str(""));
        assert_eq!(b.value(2, 0), Value::str("çé"));
    }

    #[test]
    fn all_null_column_is_invalid_int_lane() {
        let t = table(
            &[ColumnType::Int],
            vec![vec![Value::Null], vec![Value::Null]],
        );
        match ValueBatch::window(&t, &[0], 0, 2).lane(0) {
            Lane::I64 { valid, .. } => assert!(!valid.get(0) && !valid.get(1)),
            other => panic!("expected lane, got {other:?}"),
        }
    }

    #[test]
    fn float_lane_and_bit_equality() {
        // The lane is the stored payload: -0.0 and NaN keep their bits.
        let floats = [0.5, -0.0, 0.0, f64::NAN];
        let t = table(
            &[ColumnType::Float],
            floats.iter().map(|f| vec![Value::Float(*f)]).collect(),
        );
        match ValueBatch::window(&t, &[0], 0, 4).lane(0) {
            Lane::F64 { vals, .. } => {
                for (got, want) in vals.iter().zip(&floats) {
                    assert_eq!(got.to_bits(), want.to_bits());
                }
            }
            other => panic!("expected float lane, got {other:?}"),
        }
    }

    #[test]
    fn selvec_from_truths() {
        let sel = SelVec::from_truths(&[Truth::True, Truth::False, Truth::Unknown, Truth::True]);
        assert_eq!(sel.0, vec![0, 3]);
        assert_eq!(sel.len(), 2);
        assert!(!sel.is_empty());
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn validity_bitmap_spans_words() {
        let t = table(
            &[ColumnType::Int],
            (0..130)
                .map(|i| {
                    vec![if i % 3 == 0 {
                        Value::Int(i)
                    } else {
                        Value::Null
                    }]
                })
                .collect(),
        );
        // Windows of 1, 3 and 65 rows at offsets on both sides of a word seam.
        for (start, n) in [(0, 130), (63, 1), (62, 3), (60, 65), (64, 65), (127, 3)] {
            let b = ValueBatch::window(&t, &[0], start, n);
            let valid = b.lane(0).valid();
            assert_eq!(valid.len(), n);
            for i in 0..n {
                assert_eq!(valid.get(i), (start + i) % 3 == 0, "window {start}+{i}");
            }
        }
    }
}
