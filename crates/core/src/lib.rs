//! # nra-core
//!
//! The nested relational approach to processing SQL subqueries — the
//! primary contribution of Cao & Badia, SIGMOD 2005 — implemented over the
//! flat substrate of `nra-storage`/`nra-engine`:
//!
//! * [`nested`] — the nested relational model (recursive schemas, nested
//!   tuples, set-valued attributes; paper §3);
//! * [`nest`] — the nest operator `υ_{N1,N2}` (hash- and sort-based) and
//!   unnest;
//! * [`linking`] — linking predicates, linking selection `σ` and
//!   pseudo-selection `σ̄`, with the NULL-marker rule;
//! * [`compute`] — Algorithm 1, the original top-down/bottom-up approach
//!   (paper §4.1);
//! * [`optimize`] — every §4.2 optimization: fused/pipelined selections,
//!   the single-sort linear cascade, bottom-up evaluation, nest push-down,
//!   and the positive-operator semijoin rewrite;
//! * [`plan`] — a statement's one [`PhysPlan`] (each `SELECT` arm built by
//!   its engine's builder; set-op, sort and limit nodes over the arms), the
//!   one interpreter that runs it and renderer that prints it (`EXPLAIN`,
//!   and the paper's tree expression of Figure 3a);
//! * [`planner`] — [`Engine`], strategy selection and its decision log.
//!
//! ```
//! use nra_storage::{Catalog, Column, ColumnType, Schema, Table, Value};
//! use nra_sql::parse_and_bind;
//!
//! let mut cat = Catalog::new();
//! let mut t = Table::new("t", Schema::new(vec![
//!     Column::new("a", ColumnType::Int),
//! ]));
//! t.insert(vec![Value::Int(1)]).unwrap();
//! cat.add_table(t).unwrap();
//!
//! let q = parse_and_bind("select a from t where a in (select a from t t2)", &cat).unwrap();
//! let out = nra_core::execute(&q, &cat, nra_core::Strategy::Optimized).unwrap();
//! assert_eq!(out.len(), 1);
//! ```

pub mod cardinality;
pub mod compute;
pub mod linking;
pub mod nest;
pub mod nested;
pub mod optimize;
pub mod plan;
pub mod planner;

pub use cardinality::{estimate, qerror_x100, CardEstimates};
pub use linking::{LinkCond, LinkSelection, SetQuant};
pub use nest::{nest, nest_hash_idx, nest_sort_idx, nest_sorted};
pub use nested::{NestedRelation, NestedSchema, NestedTuple};
pub use plan::{build, execute, node_stats, run, PhysPlan};
pub use planner::{Engine, Strategy};
