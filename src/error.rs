//! The facade's unified error type.

use std::fmt;

use nra_engine::EngineError;
use nra_sql::SqlError;
use nra_storage::StorageError;

use crate::QueryOutcome;

/// Unified error type of the facade.
#[derive(Debug, Clone)]
pub enum NraError {
    Storage(StorageError),
    Sql(SqlError),
    Engine(EngineError),
    /// A query failed after its caller asked for an artifact (a profile,
    /// metrics or a trace): the error, with the report the query built
    /// before it stopped. It displays, compares and names its variant as
    /// its [`cause`](NraError::cause) does.
    Failed(Box<Failed>),
}

/// A failed query's error and its report (see [`NraError::Failed`]).
#[derive(Debug, Clone)]
pub struct Failed {
    /// The underlying error; never itself `Failed`.
    pub error: NraError,
    /// What the query collected before it stopped: the requested
    /// profile, metrics snapshot and trace, and the final progress. It
    /// has no rows and no plan text.
    pub report: QueryOutcome,
}

impl NraError {
    /// The underlying error: the one a [`NraError::Failed`] carries, else
    /// `self`.
    pub fn cause(&self) -> &NraError {
        match self {
            NraError::Failed(failed) => &failed.error,
            e => e,
        }
    }

    /// The report of a failed query whose caller asked for an artifact.
    pub fn report(&self) -> Option<&QueryOutcome> {
        match self {
            NraError::Failed(failed) => Some(&failed.report),
            _ => None,
        }
    }

    /// Stable kebab-case name of the cause: `sql`, `storage`, or the
    /// engine error's variant name. The server's `err` frames and
    /// `nra_errors_total{variant=...}` use it.
    pub fn variant_name(&self) -> &'static str {
        match self.cause() {
            NraError::Engine(e) => e.variant_name(),
            NraError::Storage(_) => "storage",
            _ => "sql",
        }
    }
}

impl PartialEq for NraError {
    fn eq(&self, other: &NraError) -> bool {
        match (self.cause(), other.cause()) {
            (NraError::Storage(a), NraError::Storage(b)) => a == b,
            (NraError::Sql(a), NraError::Sql(b)) => a == b,
            (NraError::Engine(a), NraError::Engine(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for NraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NraError::Storage(e) => write!(f, "{e}"),
            NraError::Sql(e) => write!(f, "{e}"),
            NraError::Engine(e) => write!(f, "{e}"),
            NraError::Failed(failed) => write!(f, "{}", failed.error),
        }
    }
}

impl std::error::Error for NraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NraError::Storage(e) => Some(e),
            NraError::Sql(e) => Some(e),
            NraError::Engine(e) => Some(e),
            NraError::Failed(failed) => failed.error.source(),
        }
    }
}

impl From<StorageError> for NraError {
    fn from(e: StorageError) -> Self {
        NraError::Storage(e)
    }
}

impl From<SqlError> for NraError {
    fn from(e: SqlError) -> Self {
        NraError::Sql(e)
    }
}

impl From<EngineError> for NraError {
    fn from(e: EngineError) -> Self {
        NraError::Engine(e)
    }
}
