//! Sessions: the per-client execution handle over a shared
//! [`Database`].
//!
//! A [`Session`] owns what is *per client* in a multi-client setting:
//! default [`QueryOptions`] applied to every statement (engine,
//! memory/timeout governor limits, …), a set of
//! named prepared statements, and the session id stamped into the query
//! registry (`nra_sys.queries.session`). Everything *shared* — the
//! catalog, the plan cache, the admission controller, metrics — lives
//! in the [`Database`] the session was opened on.
//!
//! Sessions are `Send`: the TCP front end (`nra-server`) opens one per
//! connection and drives it from that connection's thread. Concurrent
//! read queries on different sessions run in parallel under the shared
//! catalog lock; catalog writes serialize against the drain.
//!
//! ```
//! use nra::{Database, QueryOptions};
//! use nra::storage::{Column, ColumnType, Value};
//!
//! let db = Database::new();
//! db.create_table("t", vec![Column::not_null("k", ColumnType::Int)], &["k"])
//!     .unwrap();
//! db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
//!     .unwrap();
//!
//! let mut session = db.connect();
//! session.set_defaults(QueryOptions::new().timeout_ms(5_000));
//! session.prepare("all", "select k from t").unwrap();
//! assert_eq!(session.execute_prepared("all").unwrap().rows.len(), 2);
//! assert_eq!(session.execute("select k from t where k = 2").unwrap().rows.len(), 1);
//! ```

use std::collections::HashMap;

use crate::lifecycle::Caller;
use crate::{sys, Database, NraError, QueryOptions, QueryOutcome};
use nra_sql::SqlError;

/// A connection-scoped handle for executing queries against a
/// [`Database`] (see the [module docs](self)). Obtained from
/// [`Database::connect`].
#[derive(Debug)]
pub struct Session {
    db: Database,
    id: u64,
    defaults: QueryOptions,
    prepared: HashMap<String, String>,
}

impl Database {
    /// Open a session: a handle carrying per-client execution defaults
    /// and prepared statements, stamped with a database-unique session
    /// id (starting at 1; id 0 is the one-shot [`Database::execute`]
    /// path).
    pub fn connect(&self) -> Session {
        Session {
            db: self.clone(),
            id: self.next_session_id(),
            defaults: QueryOptions::new(),
            prepared: HashMap::new(),
        }
    }
}

impl Session {
    /// This session's id (ids start at 1; 0 marks one-shot
    /// [`Database::execute`] calls in the query registry).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared database this session executes against.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The default options applied by [`Session::execute`].
    pub fn defaults(&self) -> &QueryOptions {
        &self.defaults
    }

    /// Replace the session's default options (built with the
    /// [`QueryOptions`] chainable builder).
    pub fn set_defaults(&mut self, defaults: QueryOptions) {
        self.defaults = defaults;
    }

    /// Execute `sql` under the session's default options.
    pub fn execute(&self, sql: &str) -> Result<QueryOutcome, NraError> {
        self.execute_with(sql, &self.defaults)
    }

    /// Execute `sql` with explicit per-call options (the session id
    /// still applies; the session defaults do not).
    pub fn execute_with(
        &self,
        sql: &str,
        options: &QueryOptions,
    ) -> Result<QueryOutcome, NraError> {
        let caller = Caller {
            session: self.id,
            introspection: false,
        };
        self.db.execute_inner(sql, options, caller)
    }

    /// Validate `sql` now — parse it and bind the whole statement against
    /// the current catalog, so name-resolution, set-operation arity and
    /// `ORDER BY` errors surface at prepare time — and remember it under
    /// `name` for [`Session::execute_prepared`]. Re-preparing a taken name
    /// replaces the old statement.
    ///
    /// The stored text is re-planned on execution (via the plan cache,
    /// so repeats are cheap), which keeps prepared statements valid
    /// across catalog changes as long as they still bind.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<(), NraError> {
        // `ANALYZE <table>` and `nra_sys.*` introspection statements
        // are dispatched before binding in the execute path; mirror
        // that here and accept them on parse alone.
        let is_analyze = nra_sql::parse_analyze(sql)?.is_some();
        if !is_analyze && !sys::mentions_sys(sql) {
            let query = nra_sql::parse_query(sql)?;
            nra_sql::bind_statement(&query, &self.db.catalog())?;
        }
        self.prepared.insert(name.to_string(), sql.to_string());
        Ok(())
    }

    /// Execute the statement prepared under `name` with the session
    /// defaults.
    pub fn execute_prepared(&self, name: &str) -> Result<QueryOutcome, NraError> {
        let sql = self.prepared.get(name).ok_or_else(|| {
            NraError::Sql(SqlError::bind(format!(
                "no prepared statement named `{name}`"
            )))
        })?;
        self.execute(sql)
    }

    /// Drop the statement prepared under `name`; `false` if there was
    /// none.
    pub fn deallocate(&mut self, name: &str) -> bool {
        self.prepared.remove(name).is_some()
    }

    /// Names of the session's prepared statements, sorted.
    pub fn prepared_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.prepared.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

// Sessions move to connection threads; this is load-bearing for the
// TCP front end, so pin it at compile time.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};
