//! The [`Database`] handle: a shared catalog behind a readers-writer
//! lock, the [`Config`] it was built under, and the catalog write paths.
//! Query execution lives in [`crate::lifecycle`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use nra_engine::{AdmissionConfig, AdmissionController, Config, EngineError};
use nra_obs::queryreg::{self, QueryRegistry};
use nra_sql::{BoundQuery, SqlError};
use nra_storage::{Catalog, Column, Schema, StorageError, Table, Tuple};

use crate::lifecycle::Caller;
use crate::plancache::PlanCache;
use crate::{durable, storage, sys, NraError, QueryOptions, QueryOutcome};

/// State shared by every handle to one database: the catalog behind a
/// readers-writer lock, the configuration it was built under, the schema
/// version driving plan-cache invalidation, the plan cache and query
/// registry, the admission controller gating concurrent queries, and the
/// session-id counter.
pub(crate) struct DbShared {
    /// The environment as parsed when the database was built. The
    /// infallible constructors keep a malformed value here and
    /// [`Database::execute`] returns it; [`Database::open`] refuses up
    /// front.
    config: Result<Config, EngineError>,
    catalog: RwLock<Catalog>,
    /// Bumped on every catalog write (DDL, insert, `ANALYZE`, or a
    /// [`Database::catalog_mut`] guard dropping). A cached plan is
    /// served only while its recorded version still matches. Durable
    /// databases restore it to the last applied LSN on open, so plans
    /// cached before a crash can never match a recovered catalog.
    pub(crate) version: AtomicU64,
    pub(crate) plans: PlanCache,
    /// This database's running queries and completed-query ring.
    queries: QueryRegistry,
    admission: Mutex<Arc<AdmissionController>>,
    next_session: AtomicU64,
    /// WAL + snapshot state for databases opened via [`Database::open`]
    /// (`None` for in-memory databases). Lock order: the catalog lock
    /// is always taken before this mutex.
    pub(crate) durable: Option<Mutex<durable::Durability>>,
}

impl DbShared {
    /// Record a catalog write: bump the schema version and purge the
    /// plan cache.
    pub(crate) fn invalidate_plans(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        self.plans.purge();
    }
}

/// Shared-read access to a database's catalog (see
/// [`Database::catalog`]). Dereferences to [`Catalog`]; released on
/// drop.
pub struct CatalogRef<'a> {
    guard: RwLockReadGuard<'a, Catalog>,
}

impl std::ops::Deref for CatalogRef<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.guard
    }
}

/// Exclusive access to a database's catalog (see
/// [`Database::catalog_mut`]). Dropping the guard bumps the schema
/// version and purges the database's plan cache, so direct
/// catalog surgery follows the same discipline as
/// [`Database::create_table`] / [`Database::insert`].
pub struct CatalogMut<'a> {
    guard: Option<RwLockWriteGuard<'a, Catalog>>,
    shared: &'a DbShared,
}

impl std::ops::Deref for CatalogMut<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        self.guard.as_deref().expect("guard present until drop")
    }
}

impl std::ops::DerefMut for CatalogMut<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        self.guard.as_deref_mut().expect("guard present until drop")
    }
}

impl Drop for CatalogMut<'_> {
    fn drop(&mut self) {
        // Bump the version before releasing the write lock: a reader
        // admitted right after the release already sees the new version
        // and can never revive a stale cached plan.
        self.shared.version.fetch_add(1, Ordering::SeqCst);
        drop(self.guard.take());
        self.shared.plans.purge();
    }
}

/// An in-memory database: a catalog plus query execution.
///
/// A `Database` value is a cheap handle onto shared state — cloning it
/// (or sending a clone to another thread) yields another view of the
/// *same* catalog, plan cache, query registry and session counter. Read queries
/// on different handles run concurrently under a shared catalog lock;
/// catalog writes ([`create_table`](Database::create_table),
/// [`insert`](Database::insert), `ANALYZE`,
/// [`catalog_mut`](Database::catalog_mut)) take the lock exclusively
/// and wait for in-flight queries to drain.
///
/// Multi-statement clients should open a [`Session`](crate::Session) via
/// [`Database::connect`]; [`Database::execute`] is the equivalent
/// one-shot path.
#[derive(Clone)]
pub struct Database {
    pub(crate) shared: Arc<DbShared>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("version", &self.shared.version.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Database {
    pub fn new() -> Database {
        Database::from_catalog(Catalog::new())
    }

    /// Wrap an existing catalog (e.g. one produced by
    /// [`tpch::generate`](crate::tpch::generate)).
    pub fn from_catalog(catalog: Catalog) -> Database {
        Database::assemble(catalog, 0, None, Config::from_env())
    }

    /// Common constructor behind [`Database::from_catalog`],
    /// [`Database::open`] and the `nra_sys` overlay: durable opens
    /// restore the schema version to the last applied LSN, overlays
    /// inherit their parent's `config`.
    pub(crate) fn assemble(
        catalog: Catalog,
        version: u64,
        durable: Option<Mutex<durable::Durability>>,
        config: Result<Config, EngineError>,
    ) -> Database {
        let admission = config
            .as_ref()
            .map_or_else(|_| AdmissionConfig::default(), |c| c.admission.clone());
        Database {
            shared: Arc::new(DbShared {
                config,
                catalog: RwLock::new(catalog),
                version: AtomicU64::new(version),
                plans: PlanCache::default(),
                queries: QueryRegistry::with_capacity(queryreg::RING_CAPACITY),
                admission: Mutex::new(Arc::new(AdmissionController::new(admission))),
                next_session: AtomicU64::new(1),
                durable,
            }),
        }
    }

    /// The configuration this database was built under, or the
    /// [`EngineError::Config`] its environment produced.
    pub(crate) fn config(&self) -> Result<&Config, NraError> {
        self.shared
            .config
            .as_ref()
            .map_err(|e| NraError::Engine(e.clone()))
    }

    /// A transient database over `catalog` (an `nra_sys` overlay) that
    /// runs under this database's configuration.
    pub(crate) fn overlay(&self, catalog: Catalog) -> Database {
        Database::assemble(catalog, 0, None, self.shared.config.clone())
    }

    /// This database's query registry: its running queries and the
    /// bounded ring of completed ones (`nra_sys.running` /
    /// `nra_sys.queries`).
    pub fn queries(&self) -> &QueryRegistry {
        &self.shared.queries
    }

    /// Next session id, for [`Database::connect`].
    pub(crate) fn next_session_id(&self) -> u64 {
        self.shared.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Shared-read view of the catalog. Any number of guards can be
    /// live at once (queries read under the same lock); don't hold one
    /// across a catalog write on the same database, which needs the
    /// lock exclusively.
    pub fn catalog(&self) -> CatalogRef<'_> {
        CatalogRef {
            guard: self
                .shared
                .catalog
                .read()
                .unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Exclusive catalog access, waiting for in-flight queries to
    /// drain. Dropping the returned guard bumps the schema version and
    /// invalidates this database's cached plans.
    pub fn catalog_mut(&self) -> CatalogMut<'_> {
        CatalogMut {
            guard: Some(
                self.shared
                    .catalog
                    .write()
                    .unwrap_or_else(|e| e.into_inner()),
            ),
            shared: &self.shared,
        }
    }

    /// Replace the admission controller gating this database's queries
    /// (concurrency cap, aggregate memory reservations, queue timeout).
    /// In-flight permits stay with the controller that issued them; new
    /// queries see `config`. The default controller comes from the
    /// `NRA_MAX_CONCURRENT` / `NRA_ADMISSION_MEM` /
    /// `NRA_ADMISSION_TIMEOUT_MS` knobs (unlimited when unset).
    pub fn set_admission(&self, config: AdmissionConfig) {
        let controller = Arc::new(AdmissionController::new(config));
        *self
            .shared
            .admission
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = controller;
    }

    /// The admission controller currently gating this database.
    pub fn admission(&self) -> Arc<AdmissionController> {
        self.shared
            .admission
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Create a table with the given columns and primary key.
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<Column>,
        primary_key: &[&str],
    ) -> Result<(), NraError> {
        let mut table = Table::new(name, Schema::new(columns));
        if !primary_key.is_empty() {
            table.set_primary_key(primary_key)?;
        }
        self.add_table(table)
    }

    /// Register a fully-built [`Table`] (schema, primary key, and any
    /// pre-loaded rows and statistics). On a durable database the whole
    /// table is logged as one atomic `CreateTable` record before it
    /// becomes visible.
    pub fn add_table(&self, table: Table) -> Result<(), NraError> {
        let name = table.name();
        if name == "nra_sys" || name.starts_with(sys::PREFIX) {
            return Err(NraError::Sql(SqlError::bind(format!(
                "`nra_sys` is a reserved schema; cannot create table `{name}`"
            ))));
        }
        let mut guard = self.catalog_mut();
        if guard.contains(table.name()) {
            return Err(NraError::Storage(StorageError::DuplicateTable(
                table.name().to_string(),
            )));
        }
        // Write-ahead: the record is durable before the table exists.
        if self.is_durable() {
            self.durable_log(&storage::wal::WalRecord::CreateTable(table.clone()))?;
        }
        guard.add_table(table)?;
        drop(guard);
        self.after_durable_mutation();
        Ok(())
    }

    /// Insert rows into a table (validating types, arity, NOT NULL).
    pub fn insert(&self, table: &str, rows: Vec<Tuple>) -> Result<(), NraError> {
        let mut guard = self.catalog_mut();
        let t = guard.table_mut(table)?;
        if self.is_durable() {
            // Pre-validate every row so the logged record is exactly
            // what the in-memory apply will accept: an acknowledged
            // insert is all-or-nothing on disk and in memory.
            for row in &rows {
                t.validate(row)?;
            }
            self.durable_log(&storage::wal::WalRecord::Insert {
                table: table.to_string(),
                rows: rows.clone(),
            })?;
        }
        t.insert_many(rows)?;
        drop(guard);
        self.after_durable_mutation();
        Ok(())
    }

    /// Parse and bind a query without executing it.
    pub fn prepare(&self, sql: &str) -> Result<BoundQuery, NraError> {
        Ok(nra_sql::parse_and_bind(sql, &self.catalog())?)
    }

    /// The single query entry point: parse, plan and run `sql` under
    /// `options`, returning rows plus whatever artifacts were requested.
    ///
    /// Supports compound queries (`UNION`/`INTERSECT`/`EXCEPT [ALL]`)
    /// plus `ORDER BY` (ascending sorts place `NULL` first, descending
    /// last) and `LIMIT`. The statement is bound as a whole — arm arities
    /// and `ORDER BY` keys are checked before any work — and planned into
    /// one physical plan: each `SELECT` arm built by the engine's builder,
    /// combined by set-op nodes (the `nra_engine::ops::setops` algebra),
    /// then sort and limit nodes. The plan cache holds that plan per
    /// (normalized statement, engine), and `EXPLAIN` / `EXPLAIN ANALYZE`
    /// print it.
    ///
    /// The call runs sequentially on the calling thread: rows, their
    /// order, and every profile counter except wall times are identical
    /// on every run.
    ///
    /// Observability nests: a profile collector the caller armed on
    /// this thread (`nra_obs::enter`) is set aside while the query
    /// collects its own for a profile, metrics or a trace, and is
    /// restored intact on return; without those options, the query
    /// reports to the caller's.
    ///
    /// A query that fails after its caller asked for a profile, metrics
    /// or a trace returns [`NraError::Failed`]: the error with the report
    /// it built. Without those options, the error alone.
    ///
    /// This is the one-shot path (session id 0). Multi-statement
    /// clients should hold a [`Session`](crate::Session) from
    /// [`Database::connect`] instead — same machinery, plus per-session
    /// defaults and prepared statements.
    pub fn execute(&self, sql: &str, options: &QueryOptions) -> Result<QueryOutcome, NraError> {
        self.execute_inner(sql, options, Caller::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Strategy};
    use nra_storage::{ColumnType, Value};

    fn db() -> Database {
        let db = Database::new();
        db.create_table(
            "x",
            vec![
                Column::not_null("k", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
            &["k"],
        )
        .unwrap();
        db.insert(
            "x",
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Null],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let db = db();
        let out = db
            .execute("select k from x where v is not null", &QueryOptions::new())
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(out.plan.is_none() && out.profile.is_none() && out.trace.is_none());
    }

    #[test]
    fn engines_agree() {
        let db = db();
        let sql = "select k from x where v not in (select v from x x2 where x2.k <> x.k)";
        let run = |engine| {
            db.execute(sql, &QueryOptions::new().engine(engine))
                .unwrap()
                .rows
        };
        let nr = run(Engine::default());
        let base = run(Engine::Baseline);
        let oracle = run(Engine::Reference);
        assert!(nr.multiset_eq(&oracle));
        assert!(base.multiset_eq(&oracle));
    }

    #[test]
    fn explain_mentions_both_engines() {
        let db = db();
        let out = db
            .execute(
                "select k from x where v in (select v from x x2)",
                &QueryOptions::new().explain_only(true),
            )
            .unwrap();
        let s = out.plan.unwrap();
        assert!(s.contains("nested relational"));
        assert!(s.contains("System A"));
        assert_eq!(out.rows.len(), 0, "explain_only does not execute");
    }

    #[test]
    fn outcome_carries_requested_artifacts() {
        let db = db();
        let sql = "select k from x where v in (select v from x x2 where x2.k <> x.k)";
        let out = db
            .execute(
                sql,
                &QueryOptions::new()
                    .strategy(Strategy::Original)
                    .collect_profile(true)
                    .collect_trace(true),
            )
            .unwrap();
        let profile = out.profile.expect("profile requested");
        assert!(!profile.ops.is_empty());
        assert!(out.plan.expect("Algorithm 1 plan").contains("rows="));
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.ops, profile.ops, "the trace renders the profile");
        let phases: Vec<&str> = trace.phases.iter().map(|p| p.name).collect();
        assert_eq!(phases, ["parse", "bind", "plan", "execute"]);
        assert_eq!(
            trace.done.map(|(rows, _)| rows),
            Some(out.rows.len() as u64)
        );
    }

    #[test]
    fn a_failed_query_returns_its_report_only_when_asked() {
        let db = db();
        let sql = "select k from nope";
        let plain = db.execute(sql, &QueryOptions::new()).unwrap_err();
        assert!(matches!(plain, NraError::Sql(_)), "{plain:?}");
        assert!(plain.report().is_none());
        let failed = (db.execute(sql, &QueryOptions::new().collect_trace(true))).unwrap_err();
        assert!(matches!(failed, NraError::Failed(_)), "{failed:?}");
        assert_eq!(failed, plain, "errors compare by their cause");
        assert_eq!(failed.to_string(), plain.to_string());
        assert_eq!(failed.variant_name(), "sql");
        let report = failed.report().expect("a trace was asked for");
        assert!(report.rows.is_empty() && report.plan.is_none());
        let trace = report.trace.as_ref().expect("trace requested");
        assert!(trace.done.is_none(), "a failed query has no end line");
        assert_eq!(trace.phases.last().map(|p| p.name), Some("bind"));
    }

    #[test]
    fn analyze_statement_reports_stats() {
        let db = db();
        let out = db.execute("analyze x", &QueryOptions::new()).unwrap();
        let plan = out.plan.expect("analyze returns a summary");
        assert!(plan.contains("analyze x: 2 row(s)"), "{plan}");
        assert!(plan.contains("v: ndv=1 nulls=1"), "{plan}");
        let stats = db.catalog().table("x").unwrap().stats().unwrap();
        assert_eq!(stats.row_count, 2);
    }

    #[test]
    fn metrics_snapshot_counts_rows_and_outcome() {
        let db = db();
        let out = db
            .execute(
                "select k from x where v is not null",
                &QueryOptions::new()
                    .strategy(Strategy::Original)
                    .collect_metrics(true),
            )
            .unwrap();
        let snap = out.metrics.expect("metrics requested");
        assert_eq!(snap.counter_total("nra_rows_produced_total"), 1);
        use nra_obs::metrics::Metric;
        assert_eq!(
            snap.get("nra_queries_total", &[("outcome", "ok")]),
            Some(&Metric::Counter(1))
        );
        assert!(snap.counter_total("nra_op_rows_out_total") > 0);
        assert!(out.profile.is_none(), "profile was not requested");
    }

    #[test]
    fn errors_are_surfaced_with_sources() {
        let db = db();
        let err = db
            .execute("select nope from x", &QueryOptions::new())
            .unwrap_err();
        assert!(std::error::Error::source(&err).is_some(), "{err}");
        assert!(db.execute("not sql at all", &QueryOptions::new()).is_err());
        assert!(db
            .insert("x", vec![vec![Value::Null, Value::Null]])
            .is_err());
        assert!(db.create_table("x", vec![], &[]).is_err());
    }
}
