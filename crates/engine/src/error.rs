//! Error type for the execution engine.

use std::fmt;

use nra_sql::SqlError;
use nra_storage::StorageError;

/// Errors raised while compiling or executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A column name could not be resolved against an operator's input
    /// schema (indicates a planning bug or a malformed bound query).
    Column(String),
    /// A feature outside the supported subset was requested.
    Unsupported(String),
    /// An operator tried to grow a materialized structure past the
    /// query's memory budget (`QueryOptions::mem_limit_bytes` or
    /// `NRA_MEM_LIMIT`). `requested` is the size of the allocation that
    /// tripped the budget, not the total.
    ResourceExhausted {
        operator: String,
        requested: u64,
        limit: u64,
    },
    /// The query was cancelled cooperatively (explicit [`CancelToken`]
    /// or `timeout_ms` deadline). `phase` names the checkpoint that
    /// observed the cancellation.
    ///
    /// [`CancelToken`]: crate::governor::CancelToken
    Cancelled {
        phase: String,
    },
    /// An operator panicked mid-query; the statement-level net
    /// (`exec::contain`) caught the panic and the database is still
    /// usable. `site` names where it was caught.
    WorkerPanicked {
        site: String,
        message: String,
    },
    /// The admission controller refused the query: the concurrency or
    /// aggregate-memory cap stayed saturated for the whole queue
    /// timeout. `running` is the number of admitted queries observed
    /// when the wait gave up, `limit` the configured cap that blocked
    /// admission (`detail` says which).
    Admission {
        detail: String,
        waited_ms: u64,
        running: usize,
        limit: u64,
    },
    /// Unrecoverable damage in a persistent file (snapshot or
    /// write-ahead log). Raised by `Database::open` when recovery finds
    /// damage that the torn-tail rule cannot repair; the database
    /// refuses to start rather than silently drop committed data.
    Corruption {
        file: String,
        lsn: u64,
        detail: String,
    },
    /// A malformed configuration value (`NRA_FAULT`, `NRA_MEM_LIMIT`,
    /// `NRA_SLOW_MS`, ...). Reported up front instead of silently
    /// ignoring the setting.
    Config {
        var: String,
        value: String,
        detail: String,
    },
    Storage(StorageError),
    Sql(SqlError),
}

impl EngineError {
    pub fn unsupported(msg: impl Into<String>) -> EngineError {
        EngineError::Unsupported(msg.into())
    }

    /// Stable kebab-case variant name, used as the `variant` label on the
    /// `nra_errors_total` metric (and matching the profile `outcome`
    /// vocabulary where the two overlap).
    pub fn variant_name(&self) -> &'static str {
        match self {
            EngineError::Column(_) => "column",
            EngineError::Unsupported(_) => "unsupported",
            EngineError::ResourceExhausted { .. } => "resource-exhausted",
            EngineError::Cancelled { .. } => "cancelled",
            EngineError::WorkerPanicked { .. } => "worker-panicked",
            EngineError::Admission { .. } => "admission",
            EngineError::Corruption { .. } => "corruption",
            EngineError::Config { .. } => "config",
            EngineError::Storage(_) => "storage",
            EngineError::Sql(_) => "sql",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Column(c) => write!(f, "cannot resolve column `{c}` in operator input"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::ResourceExhausted {
                operator,
                requested,
                limit,
            } => write!(
                f,
                "memory budget exhausted in `{operator}`: requested {requested} bytes, limit {limit} bytes"
            ),
            EngineError::Cancelled { phase } => {
                write!(f, "query cancelled during `{phase}`")
            }
            EngineError::WorkerPanicked { site, message } => {
                write!(f, "worker panicked at `{site}`: {message}")
            }
            EngineError::Admission {
                detail,
                waited_ms,
                running,
                limit,
            } => write!(
                f,
                "admission refused after {waited_ms} ms: {detail} \
                 ({running} running, limit {limit})"
            ),
            EngineError::Corruption { file, lsn, detail } => {
                write!(f, "corruption in `{file}` at lsn {lsn}: {detail}")
            }
            EngineError::Config { var, value, detail } => {
                write!(f, "invalid {var}=`{value}`: {detail}")
            }
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::Sql(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Sql(e) => Some(e),
            EngineError::Column(_)
            | EngineError::Unsupported(_)
            | EngineError::ResourceExhausted { .. }
            | EngineError::Cancelled { .. }
            | EngineError::WorkerPanicked { .. }
            | EngineError::Admission { .. }
            | EngineError::Corruption { .. }
            | EngineError::Config { .. } => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> EngineError {
        match e {
            // Keep corruption structured end-to-end: `Database::open`
            // and the recovery harness match on file/lsn/detail.
            StorageError::Corruption { file, lsn, detail } => {
                EngineError::Corruption { file, lsn, detail }
            }
            e => EngineError::Storage(e),
        }
    }
}

impl From<SqlError> for EngineError {
    fn from(e: SqlError) -> EngineError {
        EngineError::Sql(e)
    }
}
