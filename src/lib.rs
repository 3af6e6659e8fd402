//! # nra — A Nested Relational Approach to Processing SQL Subqueries
//!
//! Top-level facade over the workspace crates, reproducing Cao & Badia's
//! SIGMOD 2005 system: a SQL front end for nested non-aggregate
//! subqueries, a flat relational engine with the commercial-style baseline
//! plans, and the paper's nested relational evaluation strategies.
//!
//! Queries go through one entry point, [`Database::execute`], driven by a
//! [`QueryOptions`] builder and returning a [`QueryOutcome`]:
//!
//! ```
//! use nra::{Database, QueryOptions};
//! use nra::storage::{Column, ColumnType, Value};
//!
//! let db = Database::new();
//! db.create_table(
//!     "emp",
//!     vec![
//!         Column::not_null("id", ColumnType::Int),
//!         Column::new("salary", ColumnType::Int),
//!         Column::new("dept", ColumnType::Int),
//!     ],
//!     &["id"],
//! )
//! .unwrap();
//! db.insert("emp", vec![
//!     vec![Value::Int(1), Value::Int(90), Value::Int(1)],
//!     vec![Value::Int(2), Value::Int(70), Value::Int(1)],
//!     vec![Value::Int(3), Value::Null,   Value::Int(2)],
//! ])
//! .unwrap();
//!
//! // Employees earning more than everyone in department 2 — a `> ALL`
//! // subquery, NULL-correct out of the box.
//! let top = db
//!     .execute("select id from emp where salary > all \
//!               (select salary from emp e2 where e2.dept = 2)",
//!              &QueryOptions::new())
//!     .unwrap();
//! assert_eq!(top.rows.len(), 0, "NULL salary in dept 2 blocks every comparison");
//! ```
//!
//! The same call collects plans, operator profiles and lifecycle traces:
//!
//! ```
//! # use nra::{Database, QueryOptions};
//! # let db = Database::new();
//! # let _ = &db;
//! let opts = QueryOptions::new()
//!     .collect_profile(true) // per-operator stats in `outcome.profile`
//!     .collect_trace(true); // the lifecycle trace in `outcome.trace`
//! # let _ = opts;
//! ```

//!
//! Configuration comes from one place: every `NRA_*` environment knob is
//! parsed strictly, once, into an [`engine::Config`] when a [`Database`]
//! is built (README "Configuration" lists them). A query resolves its
//! settings per-call option → session default → that `Config` → built-in
//! default and installs them as one [`engine::QueryCtx`]; the staged
//! lifecycle in `src/lifecycle.rs` acquires and releases everything
//! else a query needs (DESIGN.md §15).

#![warn(clippy::too_many_lines)]

mod database;
mod durable;
mod error;
mod lifecycle;
mod options;
mod plancache;
mod session;
mod sys;

pub use database::{CatalogRef, Database};
pub use durable::{DurabilityInfo, RecoveryReport};
pub use error::{Failed, NraError};
pub use options::{QueryOptions, QueryOutcome};
pub use session::Session;

pub use nra_core as core;
pub use nra_engine as engine;
pub use nra_obs as obs;
pub use nra_sql as sql;
pub use nra_storage as storage;
pub use nra_tpch as tpch;

pub use nra_core::{Engine, Strategy};
pub use nra_engine::{AdmissionConfig, AdmissionController, CancelToken};
pub use nra_storage::fault::FaultKind;
