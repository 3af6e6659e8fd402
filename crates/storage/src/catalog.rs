//! Catalog of base tables.
//!
//! A [`Table`] owns its data — one typed [`ColumnStore`] per schema column,
//! not rows — its primary-key declaration and its statistics. The catalog
//! is what the SQL binder resolves `FROM` items against.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use crate::column::{ColumnData, ColumnStore};
use crate::error::StorageError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Per-column statistics gathered by [`Table::compute_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    pub name: String,
    /// Number of distinct non-null values.
    pub ndv: u64,
    /// Number of NULLs.
    pub null_count: u64,
}

/// Table-level statistics gathered by [`Table::compute_stats`] — the input to
/// the planner's cardinality estimates (selectivity `1/ndv` for equality
/// predicates, null fraction for `IS NULL`, row counts for scans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats for the named column, if present.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// A named base table with an optional primary key.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    /// One store per schema column, all `len` rows long.
    columns: Vec<ColumnStore>,
    len: usize,
    /// The row image [`Table::data`] hands out, built on first use and
    /// dropped by every insert. A compatibility view, never the storage.
    image: OnceLock<Relation>,
    /// Column indices of the declared primary key (empty if none).
    primary_key: Vec<usize>,
    /// Statistics from the last `ANALYZE`, if any; inserts invalidate
    /// them.
    stats: Option<TableStats>,
}

impl Clone for Table {
    /// Copies the stored columns and stats — not the row image,
    /// which the copy rebuilds if anyone asks it for one.
    fn clone(&self) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            len: self.len,
            image: OnceLock::new(),
            primary_key: self.primary_key.clone(),
            stats: self.stats.clone(),
        }
    }
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnStore::new(c.ty))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            len: 0,
            image: OnceLock::new(),
            primary_key: vec![],
            stats: None,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored column at schema position `i`.
    pub fn column(&self, i: usize) -> &ColumnStore {
        &self.columns[i]
    }

    /// Row `i` as a tuple, rebuilt from the stored columns.
    pub fn row(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Every row in row-id order, each rebuilt from the stored columns.
    pub fn rows(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// The table as a materialized row image: built from the stored
    /// columns on first call, kept until the next insert, not copied by
    /// `Clone`. It doubles the table's memory, so it is for the
    /// benchmark's template rows, the CLI, CSV export and tests — query
    /// execution reads [`Table::column`], [`Table::row`] and
    /// [`Table::rows`] instead.
    pub fn data(&self) -> &Relation {
        self.image
            .get_or_init(|| Relation::with_rows(self.schema.clone(), self.rows().collect()))
    }

    /// Whether [`Table::data`]'s row image is currently materialized.
    #[doc(hidden)]
    pub fn row_image_cached(&self) -> bool {
        self.image.get().is_some()
    }

    /// Declare the primary key by column names. The paper assumes "each
    /// relation has a unique non-null attribute served as a primary key";
    /// the nested relational operators use it (or a synthesized row id) as
    /// the emptiness marker after outer joins.
    pub fn set_primary_key(&mut self, cols: &[&str]) -> Result<(), StorageError> {
        let mut pk = Vec::with_capacity(cols.len());
        for c in cols {
            pk.push(self.schema.resolve(c)?);
        }
        self.primary_key = pk;
        Ok(())
    }

    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Check a row against the schema (arity, column types, `NOT NULL`)
    /// without appending it. The durable insert path validates every row
    /// before logging, so the logged record is exactly what the in-memory
    /// apply will accept.
    pub fn validate(&self, row: &[Value]) -> Result<(), StorageError> {
        self.schema.check_row(row)
    }

    /// Insert a validated row. Invalidates the stats and the row image.
    pub fn insert(&mut self, row: Tuple) -> Result<(), StorageError> {
        self.validate(&row)?;
        self.append(&row);
        self.invalidate_derived();
        Ok(())
    }

    /// Insert a batch, all or nothing: every row is validated before the
    /// first is appended, so a bad row leaves the table — rows and stats —
    /// exactly as it was.
    pub fn insert_many<I: IntoIterator<Item = Tuple>>(
        &mut self,
        rows: I,
    ) -> Result<(), StorageError> {
        let rows: Vec<Tuple> = rows.into_iter().collect();
        for row in &rows {
            self.validate(row)?;
        }
        for row in &rows {
            self.append(row);
        }
        self.invalidate_derived();
        Ok(())
    }

    /// Append a row that [`Table::validate`] accepted.
    fn append(&mut self, row: &[Value]) {
        for (col, v) in self.columns.iter_mut().zip(row) {
            let pushed = col.push(v);
            debug_assert!(pushed, "validated value {v} fits its column");
        }
        self.len += 1;
    }

    /// Make room for `additional` more rows in every lane.
    pub(crate) fn reserve(&mut self, additional: usize) {
        for col in &mut self.columns {
            col.reserve(additional);
        }
    }

    /// Append one row decoded straight into the lanes: `decode` is called
    /// once per column, in schema order, and pushes exactly one value.
    /// On error the table is left mid-row and must be discarded.
    pub(crate) fn append_decoded(
        &mut self,
        mut decode: impl FnMut(&crate::schema::Column, &mut ColumnStore) -> Result<(), String>,
    ) -> Result<(), String> {
        for (decl, col) in self.schema.columns().iter().zip(&mut self.columns) {
            decode(decl, col)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Everything derived from the rows — stats, the row image — is stale
    /// after an insert.
    pub(crate) fn invalidate_derived(&mut self) {
        self.image.take();
        self.stats = None;
    }

    /// Gather row count, per-column NDV and null counts: what the
    /// `ANALYZE` statement logs and then installs with
    /// [`Table::set_stats`]. Fully deterministic — re-running over
    /// unchanged data yields identical stats.
    pub fn compute_stats(&self) -> TableStats {
        let columns = (self.schema.columns().iter().zip(&self.columns))
            .map(|(decl, col)| {
                let valid = (0..self.len).filter(|&i| !col.is_null(i));
                // Distinct under grouping equality; within one typed lane
                // that is payload equality (floats by bit pattern).
                let ndv = match col.values() {
                    ColumnData::I64(vals) => valid.map(|i| vals[i]).collect::<HashSet<_>>().len(),
                    ColumnData::F64(vals) => valid
                        .map(|i| vals[i].to_bits())
                        .collect::<HashSet<_>>()
                        .len(),
                    ColumnData::Str { .. } => {
                        valid.map(|i| col.str_at(i)).collect::<HashSet<_>>().len()
                    }
                };
                ColumnStats {
                    name: decl.name.clone(),
                    ndv: ndv as u64,
                    null_count: (self.len - col.validity().count_ones()) as u64,
                }
            })
            .collect();
        TableStats {
            row_count: self.len as u64,
            columns,
        }
    }

    /// Install statistics: an `ANALYZE`'s, once its record is logged, or
    /// a logged or snapshotted one at recovery.
    pub fn set_stats(&mut self, stats: TableStats) {
        self.stats = Some(stats);
    }

    /// Statistics from the last `ANALYZE`, if still valid.
    pub fn stats(&self) -> Option<TableStats> {
        self.stats.clone()
    }
}

/// The collection of base tables a query runs against.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn add_table(&mut self, table: Table) -> Result<(), StorageError> {
        if self.tables.contains_key(table.name()) {
            return Err(StorageError::DuplicateTable(table.name().to_string()));
        }
        self.tables.insert(table.name().to_string(), table);
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use crate::value::Value;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("id", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ]);
        let mut t = Table::new("t", schema);
        t.set_primary_key(&["id"]).unwrap();
        t.insert_many(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Null],
        ])
        .unwrap();
        t
    }

    #[test]
    fn primary_key_resolution() {
        let t = table();
        assert_eq!(t.primary_key(), &[0]);
    }

    #[test]
    fn insert_many_is_all_or_nothing() {
        let mut t = table();
        let stats = t.compute_stats();
        t.set_stats(stats.clone());
        let bad = vec![
            vec![Value::Int(3), Value::Int(30)],
            vec![Value::Null, Value::Int(40)], // id is NOT NULL
            vec![Value::Int(5), Value::Int(50)],
        ];
        assert!(matches!(
            t.insert_many(bad),
            Err(StorageError::NullViolation { .. })
        ));
        assert_eq!(t.len(), 2, "not even the good first row went in");
        assert_eq!(t.rows().count(), 2);
        assert_eq!(t.stats(), Some(stats), "stats still describe the table");
    }

    #[test]
    fn row_image_is_built_on_demand_and_dropped_by_insert() {
        let mut t = table();
        assert!(!t.row_image_cached());
        assert_eq!(t.data().rows(), &[t.row(0), t.row(1)]);
        assert!(t.row_image_cached());
        assert!(!t.clone().row_image_cached(), "Clone does not copy it");
        t.insert(vec![Value::Int(3), Value::Null]).unwrap();
        assert!(!t.row_image_cached());
        assert_eq!(t.data().len(), 3);
    }

    #[test]
    fn catalog_add_lookup_duplicate() {
        let mut c = Catalog::new();
        c.add_table(table()).unwrap();
        assert!(c.table("t").is_ok());
        assert!(matches!(
            c.add_table(table()),
            Err(StorageError::DuplicateTable(_))
        ));
        assert!(matches!(
            c.table("missing"),
            Err(StorageError::UnknownTable(_))
        ));
        assert_eq!(c.table_names(), vec!["t"]);
    }

    #[test]
    fn analyze_is_idempotent_and_invalidated_by_insert() {
        let mut t = table();
        let s1 = t.compute_stats();
        assert!(t.stats().is_none(), "computing installs nothing");
        assert_eq!(s1.row_count, 2);
        assert_eq!(s1.column("id").unwrap().ndv, 2);
        assert_eq!(s1.column("v").unwrap().ndv, 1);
        assert_eq!(s1.column("v").unwrap().null_count, 1);
        t.set_stats(s1.clone());
        let s2 = t.compute_stats();
        assert_eq!(s1, s2, "ANALYZE is idempotent over unchanged data");
        assert_eq!(t.stats(), Some(s2));
        t.insert(vec![Value::Int(3), Value::Int(30)]).unwrap();
        assert!(t.stats().is_none(), "insert invalidates stats");
        assert_eq!(t.compute_stats().row_count, 3);
    }

    #[test]
    fn clone_carries_stats() {
        let mut t = table();
        t.set_stats(t.compute_stats());
        let c = t.clone();
        assert_eq!(c.stats(), t.stats());
    }
}
