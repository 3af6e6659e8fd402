//! The facade's unified error type.

use std::fmt;

use nra_engine::EngineError;
use nra_sql::SqlError;
use nra_storage::StorageError;

/// Unified error type of the facade.
#[derive(Debug, Clone, PartialEq)]
pub enum NraError {
    Storage(StorageError),
    Sql(SqlError),
    Engine(EngineError),
}

impl fmt::Display for NraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NraError::Storage(e) => write!(f, "{e}"),
            NraError::Sql(e) => write!(f, "{e}"),
            NraError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NraError::Storage(e) => Some(e),
            NraError::Sql(e) => Some(e),
            NraError::Engine(e) => Some(e),
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
