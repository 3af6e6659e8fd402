//! Sessions: the per-client execution handle over a shared
//! [`Database`].
//!
//! A [`Session`] owns what is *per client* in a multi-client setting:
//! default [`QueryOptions`] applied to every statement (engine,
//! memory/timeout governor limits, …; [`Session::set`] parses them from
//! text for the front ends), a set of
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
use crate::{sys, Database, Engine, NraError, QueryOptions, QueryOutcome};
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

    /// The engine [`Session::execute`] runs statements under.
    pub fn engine(&self) -> Engine {
        self.defaults.engine
    }

    /// Set one session default from its text form — the one parser behind
    /// `nra-server`'s `.set` and the shell's `:engine`, `:timeout` and
    /// `:memlimit`: `engine` takes any name [`Engine::parse`] accepts,
    /// `timeout_ms` milliseconds and `mem_limit` bytes. The value `off`
    /// clears the setting, so the database's default applies (`engine
    /// off` is the default engine, as `engine auto` is).
    /// `threads` takes a count and is accepted and ignored: every query
    /// runs sequentially on its calling thread. It stays because
    /// `benchmark/` sends it, until the benchmark's own change drops its
    /// `nested_parallel` workload.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let off = value.eq_ignore_ascii_case("off");
        let number = |unit: &str| match value.parse() {
            _ if off => Ok(None),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("{key} takes {unit}, got `{value}`")),
        };
        let defaults = &mut self.defaults;
        match key {
            "engine" if off => defaults.engine = Engine::default(),
            "engine" => defaults.engine = Engine::parse(value)?,
            "timeout_ms" => defaults.timeout_ms = number("milliseconds")?,
            "mem_limit" => defaults.mem_limit_bytes = number("bytes")?,
            "threads" => {
                number("a count")?;
            }
            other => {
                return Err(format!(
                    "unknown setting `{other}` (engine, threads, timeout_ms, mem_limit)"
                ))
            }
        }
        Ok(())
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
}

// Sessions move to connection threads; this is load-bearing for the
// TCP front end, so pin it at compile time.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;

    fn limits(s: &Session) -> (Option<u64>, Option<u64>) {
        (s.defaults.timeout_ms, s.defaults.mem_limit_bytes)
    }

    #[test]
    fn set_parses_each_setting_and_off_clears_it() {
        let mut s = Database::new().connect();
        s.set("engine", "original").unwrap();
        s.set("timeout_ms", "250").unwrap();
        s.set("mem_limit", "4096").unwrap();
        s.set("threads", "2").unwrap();
        assert_eq!(s.engine(), Engine::NestedRelational(Strategy::Original));
        assert_eq!(limits(&s), (Some(250), Some(4096)));

        // A malformed value or an unknown key is refused and changes
        // nothing.
        for (key, value, why) in [
            ("engine", "warp", "unknown engine `warp`"),
            (
                "timeout_ms",
                "soon",
                "timeout_ms takes milliseconds, got `soon`",
            ),
            ("mem_limit", "-1", "mem_limit takes bytes, got `-1`"),
            ("threads", "four", "threads takes a count, got `four`"),
            ("bogus", "1", "unknown setting `bogus`"),
        ] {
            let err = s.set(key, value).unwrap_err();
            assert!(err.contains(why), "{key} {value}: {err}");
        }
        assert_eq!(s.engine(), Engine::NestedRelational(Strategy::Original));
        assert_eq!(limits(&s), (Some(250), Some(4096)));

        for key in ["engine", "timeout_ms", "mem_limit", "threads"] {
            s.set(key, "off").unwrap();
        }
        assert_eq!(s.engine(), Engine::default());
        assert_eq!(limits(&s), (None, None));
    }
}
