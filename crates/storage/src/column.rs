//! Typed column storage: what a [`Table`](crate::catalog::Table) keeps
//! instead of rows.
//!
//! One [`ColumnStore`] per schema column, its layout chosen by the declared
//! [`ColumnType`] (`ColumnType::admits` guarantees a stored column is
//! homogeneous): `Bool`/`Int`/`Decimal`/`Date` are an `i64` lane, `Float`
//! an `f64` lane, `Str` offsets into one byte arena — each beside a
//! validity [`Bitmap`] (set = value present, clear = SQL `NULL`). A NULL
//! slot holds `0` / `0.0` / the empty string, so every lane has exactly
//! one entry per row and scans can borrow the lanes as plain slices.

use crate::schema::ColumnType;
use crate::value::Value;

/// A growable bitmap, one bit per row, least-significant bit first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    #[inline]
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words; bits at and beyond `len()` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The payload lane of a stored column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `Bool` (0/1), `Int`, `Decimal` (scaled by 100) and `Date` (days).
    I64(Vec<i64>),
    F64(Vec<f64>),
    /// Row `i` is `arena[offsets[i]..offsets[i + 1]]`; `offsets` holds one
    /// entry more than there are rows. Offsets are `usize`, so the arena
    /// cannot outgrow them.
    Str {
        offsets: Vec<usize>,
        arena: String,
    },
}

/// One stored column: declared type, payload lane, validity.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    ty: ColumnType,
    data: ColumnData,
    valid: Bitmap,
}

impl ColumnStore {
    pub fn new(ty: ColumnType) -> ColumnStore {
        let data = match ty {
            ColumnType::Bool | ColumnType::Int | ColumnType::Decimal | ColumnType::Date => {
                ColumnData::I64(Vec::new())
            }
            ColumnType::Float => ColumnData::F64(Vec::new()),
            ColumnType::Str => ColumnData::Str {
                offsets: vec![0],
                arena: String::new(),
            },
        };
        ColumnStore {
            ty,
            data,
            valid: Bitmap::default(),
        }
    }

    pub fn ty(&self) -> ColumnType {
        self.ty
    }

    pub fn len(&self) -> usize {
        self.valid.len()
    }

    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    pub fn values(&self) -> &ColumnData {
        &self.data
    }

    pub fn validity(&self) -> &Bitmap {
        &self.valid
    }

    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        !self.valid.get(row)
    }

    /// Row `row` of a `Str` column (the empty string for a NULL slot).
    ///
    /// # Panics
    /// If this is not a `Str` column.
    #[inline]
    pub fn str_at(&self, row: usize) -> &str {
        match &self.data {
            ColumnData::Str { offsets, arena } => &arena[offsets[row]..offsets[row + 1]],
            _ => panic!("str_at on a {:?} column", self.ty),
        }
    }

    /// The value at `row`, rebuilt from the lane.
    pub fn value(&self, row: usize) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::I64(vals) => {
                let x = vals[row];
                match self.ty {
                    ColumnType::Bool => Value::Bool(x != 0),
                    ColumnType::Decimal => Value::Decimal(x),
                    // `push_i64` stored it from an `i32`.
                    ColumnType::Date => Value::Date(x as i32),
                    _ => Value::Int(x),
                }
            }
            ColumnData::F64(vals) => Value::Float(vals[row]),
            ColumnData::Str { .. } => Value::Str(self.str_at(row).to_string()),
        }
    }

    /// Make room for `additional` more rows.
    pub(crate) fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::I64(vals) => vals.reserve(additional),
            ColumnData::F64(vals) => vals.reserve(additional),
            ColumnData::Str { offsets, .. } => offsets.reserve(additional),
        }
        self.valid.words.reserve(additional.div_ceil(64));
    }

    pub(crate) fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::I64(vals) => vals.push(0),
            ColumnData::F64(vals) => vals.push(0.0),
            ColumnData::Str { offsets, arena } => offsets.push(arena.len()),
        }
        self.valid.push(false);
    }

    /// Append an `i64`-mapped value of type `ty`; `false` (nothing
    /// appended) unless `ty` is this column's type.
    pub(crate) fn push_i64(&mut self, ty: ColumnType, x: i64) -> bool {
        match &mut self.data {
            ColumnData::I64(vals) if ty == self.ty => {
                vals.push(x);
                self.valid.push(true);
                true
            }
            _ => false,
        }
    }

    pub(crate) fn push_f64(&mut self, x: f64) -> bool {
        match &mut self.data {
            ColumnData::F64(vals) => {
                vals.push(x);
                self.valid.push(true);
                true
            }
            _ => false,
        }
    }

    pub(crate) fn push_str(&mut self, s: &str) -> bool {
        match &mut self.data {
            ColumnData::Str { offsets, arena } => {
                arena.push_str(s);
                offsets.push(arena.len());
                self.valid.push(true);
                true
            }
            _ => false,
        }
    }

    /// Append `v`; `false` (nothing appended) when `v` does not inhabit
    /// this column's type. `NULL` inhabits every type — `NOT NULL` is the
    /// table's check, not the lane's.
    pub(crate) fn push(&mut self, v: &Value) -> bool {
        match v {
            Value::Null => {
                self.push_null();
                true
            }
            Value::Bool(b) => self.push_i64(ColumnType::Bool, i64::from(*b)),
            Value::Int(i) => self.push_i64(ColumnType::Int, *i),
            Value::Decimal(d) => self.push_i64(ColumnType::Decimal, *d),
            Value::Date(d) => self.push_i64(ColumnType::Date, i64::from(*d)),
            Value::Float(f) => self.push_f64(*f),
            Value::Str(s) => self.push_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_spans_words() {
        let mut b = Bitmap::default();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert_eq!(b.words().len(), 3);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn every_type_round_trips_through_its_lane() {
        let cases = [
            (ColumnType::Bool, Value::Bool(true)),
            (ColumnType::Int, Value::Int(i64::MIN)),
            (ColumnType::Decimal, Value::Decimal(-7)),
            (ColumnType::Date, Value::Date(-1)),
            (ColumnType::Float, Value::Float(-0.0)),
            (ColumnType::Str, Value::str("naïve")),
        ];
        for (ty, v) in &cases {
            let mut col = ColumnStore::new(*ty);
            assert!(col.push(v) && col.push(&Value::Null) && col.push(v));
            assert_eq!(col.len(), 3);
            assert_eq!(col.value(1), Value::Null);
            for row in [0, 2] {
                match (col.value(row), v) {
                    (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                    (got, want) => assert_eq!(&got, want),
                }
            }
            // No other type's value gets in, and a refusal appends nothing.
            for (other_ty, other) in &cases {
                if other_ty != ty {
                    assert!(!col.push(other), "{other:?} into {ty:?}");
                }
            }
            assert_eq!(col.len(), 3);
        }
    }

    #[test]
    fn str_lane_keeps_empty_strings_apart_from_nulls() {
        let mut col = ColumnStore::new(ColumnType::Str);
        assert!(col.push(&Value::str("")) && col.push(&Value::Null) && col.push(&Value::str("ab")));
        assert_eq!(col.value(0), Value::str(""));
        assert!(col.is_null(1));
        assert_eq!(col.str_at(1), "");
        assert_eq!(col.str_at(2), "ab");
    }
}
