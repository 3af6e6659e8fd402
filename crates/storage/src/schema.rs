//! Flat relation schemas.
//!
//! Column names are stored fully qualified (`"orders.o_orderkey"`, or a bare
//! name for base tables before qualification). Intermediate relations built
//! by the join pipeline concatenate schemas, so qualified names keep
//! resolution unambiguous across the whole query.

use std::fmt;

use crate::error::StorageError;
use crate::value::Value;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Bool,
    Int,
    Decimal,
    Float,
    Str,
    Date,
}

impl ColumnType {
    /// Whether `v` inhabits this type (`NULL` inhabits every type).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Decimal, Value::Decimal(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Date, Value::Date(_))
        )
    }
}

/// A column: name, type and nullability.
///
/// `nullable` records the presence or absence of a `NOT NULL` constraint.
/// The paper's Section 5 shows the baseline ("System A") planner changing
/// strategy based on exactly this piece of metadata, so we carry it through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Column {
        Column {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    pub fn not_null(name: impl Into<String>, ty: ColumnType) -> Column {
        Column {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// The part of the name after the final `.`, i.e. the bare column name.
    pub fn base_name(&self) -> &str {
        match self.name.rfind('.') {
            Some(i) => &self.name[i + 1..],
            None => &self.name,
        }
    }

    /// The qualifier before the final `.`, if any.
    pub fn qualifier(&self) -> Option<&str> {
        self.name.rfind('.').map(|i| &self.name[..i])
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    pub fn empty() -> Schema {
        Schema { columns: vec![] }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Position of a column by exact (qualified) name, falling back to a
    /// unique match on the bare name.
    ///
    /// Returns an error if the name is unknown or the bare name is
    /// ambiguous.
    pub fn resolve(&self, name: &str) -> Result<usize, StorageError> {
        if let Some(i) = self.columns.iter().position(|c| c.name == name) {
            return Ok(i);
        }
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.base_name() == name)
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(StorageError::UnknownColumn(name.to_string())),
            _ => Err(StorageError::AmbiguousColumn(name.to_string())),
        }
    }

    /// Like [`Schema::resolve`] but returns `None` instead of an error.
    pub fn try_resolve(&self, name: &str) -> Option<usize> {
        self.resolve(name).ok()
    }

    /// Indices of every column whose qualifier equals `qualifier`.
    pub fn columns_of(&self, qualifier: &str) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.qualifier() == Some(qualifier))
            .map(|(i, _)| i)
            .collect()
    }

    /// New schema with every column renamed to `qualifier.base_name`.
    pub fn qualified(&self, qualifier: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    name: format!("{qualifier}.{}", c.base_name()),
                    ty: c.ty,
                    nullable: c.nullable,
                })
                .collect(),
        }
    }

    /// Concatenation of two schemas (used by joins). In a joined schema the
    /// right side's columns become nullable if the join is outer; callers
    /// adjust nullability themselves via [`Schema::with_all_nullable`].
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Copy of this schema with every column marked nullable (outer-join
    /// padding can introduce `NULL` anywhere).
    pub fn with_all_nullable(&self) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    ty: c.ty,
                    nullable: true,
                })
                .collect(),
        }
    }

    /// Schema of a projection onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }

    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Check a row against this schema: arity, column types, `NOT NULL`.
    pub fn check_row(&self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.is_null() && !c.nullable {
                return Err(StorageError::NullViolation {
                    column: c.name.clone(),
                });
            }
            if !c.ty.admits(v) {
                return Err(StorageError::TypeMismatch {
                    column: c.name.clone(),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}: {:?}{}",
                c.name,
                c.ty,
                if c.nullable { "" } else { " not null" }
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rst_schema() -> Schema {
        Schema::new(vec![
            Column::new("R.A", ColumnType::Int),
            Column::new("R.B", ColumnType::Int),
            Column::not_null("R.D", ColumnType::Int),
        ])
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let s = rst_schema();
        assert_eq!(s.resolve("R.B").unwrap(), 1);
        assert_eq!(s.resolve("B").unwrap(), 1);
        assert!(matches!(
            s.resolve("Z"),
            Err(StorageError::UnknownColumn(_))
        ));
    }

    #[test]
    fn resolve_ambiguous_bare_name() {
        let s = Schema::new(vec![
            Column::new("R.A", ColumnType::Int),
            Column::new("S.A", ColumnType::Int),
        ]);
        assert!(matches!(
            s.resolve("A"),
            Err(StorageError::AmbiguousColumn(_))
        ));
        assert_eq!(s.resolve("S.A").unwrap(), 1);
    }

    #[test]
    fn qualify_and_columns_of() {
        let s = Schema::new(vec![
            Column::new("x", ColumnType::Int),
            Column::new("y", ColumnType::Str),
        ])
        .qualified("t");
        assert_eq!(s.names(), vec!["t.x", "t.y"]);
        assert_eq!(s.columns_of("t"), vec![0, 1]);
        assert!(s.columns_of("u").is_empty());
    }

    #[test]
    fn concat_and_project() {
        let s = rst_schema().concat(&Schema::new(vec![Column::new("S.E", ColumnType::Int)]));
        assert_eq!(s.len(), 4);
        let p = s.project(&[3, 0]);
        assert_eq!(p.names(), vec!["S.E", "R.A"]);
    }

    #[test]
    fn admits_values() {
        assert!(ColumnType::Int.admits(&Value::Int(3)));
        assert!(ColumnType::Int.admits(&Value::Null));
        assert!(!ColumnType::Int.admits(&Value::str("x")));
    }

    #[test]
    fn with_all_nullable() {
        let s = rst_schema().with_all_nullable();
        assert!(s.columns().iter().all(|c| c.nullable));
    }
}
