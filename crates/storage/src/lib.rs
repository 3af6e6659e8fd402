//! # nra-storage
//!
//! Flat relational substrate for the nested relational subquery processor:
//! scalar [`value::Value`]s with SQL three-valued logic, [`schema::Schema`]s
//! with qualified column names, materialized [`relation::Relation`]s, a
//! [`catalog::Catalog`] of base tables stored as typed [`column`]s, and
//! the hash [`index`] the baseline's nested iteration probes.
//!
//! Everything above this crate — the SQL front end, the flat execution
//! engine, and the nested relational algebra that is the paper's
//! contribution — is built on these types.

pub mod agg;
pub mod catalog;
pub mod checksum;
pub mod column;
pub mod csv;
pub mod disk;
pub mod error;
pub mod fault;
pub mod index;
pub mod iosim;
pub mod relation;
pub mod rng;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod wal;

pub use agg::{aggregate, AggFunc};
pub use catalog::{Catalog, ColumnStats, Table, TableStats};
pub use column::{Bitmap, ColumnData, ColumnStore};
pub use error::StorageError;
pub use relation::Relation;
pub use schema::{Column, ColumnType, Schema};
pub use tuple::{GroupKey, Tuple};
pub use value::{CmpOp, Truth, Value};
