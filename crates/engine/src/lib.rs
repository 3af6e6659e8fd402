//! # nra-engine
//!
//! Flat relational execution substrate:
//!
//! * [`expr`] — compilation of bound expressions to index-resolved form,
//!   evaluated under SQL three-valued logic;
//! * [`config`] — the one strict parser of every `NRA_*` knob
//!   ([`Config`]), read once per database / once per process;
//! * [`ctx`] — the one per-thread query context ([`QueryCtx`]: batch
//!   width, governor);
//! * [`exec`] — the statement-level panic net (`exec::contain`); every
//!   query runs sequentially on its calling thread (see `DESIGN.md` §10);
//! * [`governor`] — per-query resource governance (memory budgets,
//!   cooperative cancellation) and admission control;
//! * [`faultinject`] — the operator sites of the fault harness
//!   (`nra_storage::fault`, `NRA_FAULT`), proving every recovery path;
//! * [`ops`] — physical operators (scan, filter, project, sort, Cartesian
//!   product, and hash inner/left-outer/semi/anti joins with residuals);
//! * [`planning`] — helpers splitting join conditions into hash keys and
//!   residual predicates;
//! * [`baseline`] — "System A"'s native plans from the paper's Section 5
//!   (bottom-up semijoin/antijoin cascades, and nested iteration with index
//!   probes);
//! * [`reference`] — the brute-force tuple-iteration oracle every strategy
//!   is validated against;
//! * [`vec`] — the vectorized columnar execution core: [`vec::ValueBatch`]
//!   windows over the stored lanes, selection vectors, columnar 3VL
//!   predicate evaluation, group-boundary kernels, and the vendored
//!   FxHash-style hasher backing every hash table (see `DESIGN.md` §13).

pub mod baseline;
pub mod config;
pub mod ctx;
pub mod error;
pub mod exec;
pub mod expr;
pub mod faultinject;
pub mod governor;
pub mod ops;
pub mod planning;
pub mod reference;
pub mod vec;

pub use config::Config;
pub use ctx::QueryCtx;
pub use error::EngineError;
pub use expr::{CExpr, CPred};
pub use governor::{AdmissionConfig, AdmissionController, AdmissionPermit, CancelToken, Governor};
pub use ops::{join, JoinKind, JoinSpec};
