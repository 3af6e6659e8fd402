//! Materialized flat relations.

use std::collections::HashMap;
use std::fmt;

use crate::error::StorageError;
use crate::schema::Schema;
use crate::tuple::{cmp_on, GroupKey, Tuple};

/// A materialized flat relation: a schema plus a vector of rows.
///
/// The query pipeline in this reproduction materializes its intermediates,
/// mirroring the paper's implementation (the stored procedure processed a
/// fully materialized "intermediate result" fetched from the SQL engine).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl Relation {
    pub fn new(schema: Schema) -> Relation {
        Relation {
            schema,
            rows: vec![],
        }
    }

    pub fn with_rows(schema: Schema, rows: Vec<Tuple>) -> Relation {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        Relation { schema, rows }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    pub fn rows_mut(&mut self) -> &mut Vec<Tuple> {
        &mut self.rows
    }

    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row, validating arity, column types and `NOT NULL`
    /// constraints.
    pub fn push(&mut self, row: Tuple) -> Result<(), StorageError> {
        self.schema.check_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Append a row without validation (used by operators whose output is
    /// correct by construction).
    pub fn push_unchecked(&mut self, row: Tuple) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.rows.push(row);
    }

    /// Projection onto column indices (may duplicate or reorder columns).
    pub fn project(&self, indices: &[usize]) -> Relation {
        let schema = self.schema.project(indices);
        let rows = self
            .rows
            .iter()
            .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Relation { schema, rows }
    }

    /// Stable in-place sort by the given columns under the total order of
    /// [`Value::total_cmp`] (`NULL` first).
    pub fn sort_by_columns(&mut self, cols: &[usize]) {
        self.rows.sort_by(|a, b| cmp_on(a, b, cols));
    }

    /// Multiset equality with another relation (row order ignored,
    /// duplicates counted). Schemas must have equal arity; column names are
    /// not compared so projected intermediates can be checked against
    /// hand-written expectations.
    pub fn multiset_eq(&self, other: &Relation) -> bool {
        if self.schema.len() != other.schema.len() || self.rows.len() != other.rows.len() {
            return false;
        }
        let all: Vec<usize> = (0..self.schema.len()).collect();
        let mut counts: HashMap<GroupKey, i64> = HashMap::new();
        for r in &self.rows {
            *counts.entry(GroupKey::from_tuple(r, &all)).or_insert(0) += 1;
        }
        for r in &other.rows {
            match counts.get_mut(&GroupKey::from_tuple(r, &all)) {
                Some(c) => *c -= 1,
                None => return false,
            }
        }
        counts.values().all(|&c| c == 0)
    }

    /// Distinct rows (set semantics), preserving first-occurrence order.
    pub fn distinct(&self) -> Relation {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        let mut seen = std::collections::HashSet::new();
        let mut out = Relation::new(self.schema.clone());
        for r in &self.rows {
            if seen.insert(GroupKey::from_tuple(r, &all)) {
                out.push_unchecked(r.clone());
            }
        }
        out
    }
}

impl fmt::Display for Relation {
    /// Render as an aligned text table (used by examples and debugging).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &rendered {
            line(f, row)?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

/// Build a relation from a compact literal description: column
/// `(name, type)` pairs and rows of values. Intended for tests and examples.
#[macro_export]
macro_rules! relation {
    ( [ $( ($name:expr, $ty:expr) ),* $(,)? ], [ $( [ $( $val:expr ),* $(,)? ] ),* $(,)? ] ) => {{
        let schema = $crate::schema::Schema::new(vec![
            $( $crate::schema::Column::new($name, $ty) ),*
        ]);
        let rows: Vec<Vec<$crate::value::Value>> = vec![
            $( vec![ $( $val ),* ] ),*
        ];
        $crate::relation::Relation::with_rows(schema, rows)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use crate::value::Value;

    fn sample() -> Relation {
        let schema = Schema::new(vec![
            Column::new("t.a", ColumnType::Int),
            Column::not_null("t.b", ColumnType::Str),
        ]);
        let mut r = Relation::new(schema);
        r.push(vec![Value::Int(2), Value::str("y")]).unwrap();
        r.push(vec![Value::Int(1), Value::str("x")]).unwrap();
        r.push(vec![Value::Null, Value::str("z")]).unwrap();
        r
    }

    #[test]
    fn push_validates_arity_type_null() {
        let mut r = sample();
        assert!(matches!(
            r.push(vec![Value::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            r.push(vec![Value::str("no"), Value::str("x")]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            r.push(vec![Value::Int(1), Value::Null]),
            Err(StorageError::NullViolation { .. })
        ));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn sort_puts_null_first() {
        let mut r = sample();
        r.sort_by_columns(&[0]);
        assert!(r.rows()[0][0].is_null());
        assert_eq!(r.rows()[1][0], Value::Int(1));
        assert_eq!(r.rows()[2][0], Value::Int(2));
    }

    #[test]
    fn project_reorders() {
        let r = sample().project(&[1, 0]);
        assert_eq!(r.schema().names(), vec!["t.b", "t.a"]);
        assert_eq!(r.rows()[0], vec![Value::str("y"), Value::Int(2)]);
    }

    #[test]
    fn multiset_eq_ignores_order_counts_duplicates() {
        let a = relation!(
            [("x", ColumnType::Int)],
            [[Value::Int(1)], [Value::Int(1)], [Value::Int(2)]]
        );
        let b = relation!(
            [("x", ColumnType::Int)],
            [[Value::Int(2)], [Value::Int(1)], [Value::Int(1)]]
        );
        let c = relation!(
            [("x", ColumnType::Int)],
            [[Value::Int(2)], [Value::Int(2)], [Value::Int(1)]]
        );
        assert!(a.multiset_eq(&b));
        assert!(!a.multiset_eq(&c));
    }

    #[test]
    fn distinct_removes_duplicates() {
        let a = relation!(
            [("x", ColumnType::Int)],
            [
                [Value::Int(1)],
                [Value::Null],
                [Value::Int(1)],
                [Value::Null]
            ]
        );
        assert_eq!(a.distinct().len(), 2);
    }

    #[test]
    fn display_renders_table() {
        let s = sample().to_string();
        assert!(s.contains("t.a"));
        assert!(s.contains("(3 rows)"));
    }
}
