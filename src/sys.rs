//! The reserved `nra_sys` virtual schema: SQL-queryable introspection
//! tables materialized on demand from live observability state.
//!
//! A query whose `FROM` clauses reference any `nra_sys.*` table is
//! intercepted in [`Database::execute`](crate::Database::execute) and
//! re-run against an *overlay* catalog: snapshots of the referenced
//! system tables plus clones of whatever base tables the query also
//! names. The overlay query goes through the ordinary engine — parser,
//! binder, planner, the paper's nested relational strategies — so the
//! introspection surface dogfoods the system it introspects.
//!
//! Available tables:
//!
//! * `nra_sys.queries` — the bounded ring of completed queries from this
//!   database's [`queryreg`](nra_obs::queryreg) registry.
//! * `nra_sys.running` — this database's currently-executing queries with
//!   their live progress snapshots (the future `SHOW PROCESSLIST`).
//! * `nra_sys.metrics` — the process-cumulative metrics registry.
//! * `nra_sys.table_stats` — per-column `ANALYZE` statistics of the
//!   *base* catalog (one row per analyzed column).
//! * `nra_sys.operators` — per-operator invocation/row totals pivoted
//!   from the global metrics counters.
//! * `nra_sys.plan_cache` — this database's plan-cache entries, one per
//!   (normalized statement, engine): the statement, the name of the plan
//!   that engine built (its strategy, `baseline` or `reference`), hit
//!   count, schema version, in insertion order.
//!
//! Introspection queries run with the crate-private
//! [`Caller::introspection`] flag set, which excludes them from the query registry, progress
//! tracking and the slow-query log — querying `nra_sys.queries` must
//! not insert itself into `nra_sys.queries` (no self-recursion).

use std::collections::BTreeSet;

use crate::lifecycle::Caller;
use crate::{Database, NraError, QueryOptions, QueryOutcome};
use nra_obs::metrics::{self, Metric};
use nra_sql::{Predicate, Query, SelectStmt, SqlError};
use nra_storage::{Catalog, Column, ColumnType, Schema, Table, Tuple, Value};

/// The reserved schema prefix (with the trailing dot).
pub(crate) const PREFIX: &str = "nra_sys.";

/// Cheap textual gate: only queries that can possibly reference the
/// system schema pay the extra parse in [`dispatch`].
pub(crate) fn mentions_sys(sql: &str) -> bool {
    sql.to_ascii_lowercase().contains("nra_sys")
}

/// Intercept `sql` if it references any `nra_sys.*` table: build the
/// overlay catalog and execute against it. Returns `None` when the
/// query does not touch the system schema (including when it fails to
/// parse — the ordinary path owns error reporting).
pub(crate) fn dispatch(
    db: &Database,
    sql: &str,
    options: &QueryOptions,
    session: u64,
) -> Option<Result<QueryOutcome, NraError>> {
    let query = nra_sql::parse_query(sql).ok()?;
    let tables = referenced_tables(&query);
    if !tables.iter().any(|t| t.starts_with(PREFIX)) {
        return None;
    }
    let run = || {
        let mut overlay = Catalog::new();
        for name in &tables {
            let table = match name.strip_prefix(PREFIX) {
                Some(kind) => build_sys_table(db, name, kind)?,
                None => db.catalog().table(name)?.clone(),
            };
            overlay.add_table(table)?;
        }
        // The overlay inherits this database's configuration instead of
        // re-reading the environment.
        let caller = Caller {
            session,
            introspection: true,
        };
        db.overlay(overlay).execute_inner(sql, options, caller)
    };
    Some(run())
}

/// Every table name appearing in a `FROM` clause anywhere in the query,
/// subquery blocks included.
fn referenced_tables(query: &Query) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_stmt(&query.first, &mut out);
    for part in &query.compounds {
        collect_stmt(&part.stmt, &mut out);
    }
    out
}

fn collect_stmt(stmt: &SelectStmt, out: &mut BTreeSet<String>) {
    for t in &stmt.from {
        out.insert(t.table.clone());
    }
    if let Some(p) = &stmt.where_clause {
        collect_pred(p, out);
    }
}

fn collect_pred(p: &Predicate, out: &mut BTreeSet<String>) {
    match p {
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            collect_pred(a, out);
            collect_pred(b, out);
        }
        Predicate::Not(inner) => collect_pred(inner, out),
        Predicate::Exists { query, .. }
        | Predicate::InSubquery { query, .. }
        | Predicate::Quantified { query, .. }
        | Predicate::CmpSubquery { query, .. } => collect_stmt(query, out),
        Predicate::Cmp { .. }
        | Predicate::Between { .. }
        | Predicate::IsNull { .. }
        | Predicate::InList { .. } => {}
    }
}

fn build_sys_table(db: &Database, full_name: &str, kind: &str) -> Result<Table, NraError> {
    Ok(match kind {
        "queries" => queries_table(full_name, db),
        "running" => running_table(full_name, db),
        "metrics" => metrics_table(full_name),
        "table_stats" => table_stats_table(full_name, &db.catalog()),
        "operators" => operators_table(full_name),
        "plan_cache" => plan_cache_table(full_name, db),
        "wal" => wal_table(full_name, db),
        other => {
            return Err(NraError::Sql(SqlError::bind(format!(
                "unknown system table `nra_sys.{other}` \
                 (available: queries, running, metrics, table_stats, operators, plan_cache, wal)"
            ))))
        }
    })
}

/// Snapshots are small and built from already-synchronized state, so
/// the insert cannot fail; a schema/arity mismatch here is a bug.
fn fill(mut table: Table, rows: Vec<Tuple>) -> Table {
    table
        .insert_many(rows)
        .expect("system table rows match their schema");
    table
}

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

/// `nra_sys.queries`: the completed-query ring, oldest first.
fn queries_table(name: &str, db: &Database) -> Table {
    let table = Table::new(
        name,
        Schema::new(vec![
            Column::not_null("id", ColumnType::Int),
            Column::not_null("sql", ColumnType::Str),
            Column::not_null("outcome", ColumnType::Str),
            Column::not_null("wall_ms", ColumnType::Int),
            Column::not_null("rows", ColumnType::Int),
            Column::not_null("qerror_x100", ColumnType::Int),
            Column::not_null("mem_bytes", ColumnType::Int),
            Column::not_null("strategy", ColumnType::Str),
            Column::not_null("session", ColumnType::Int),
        ]),
    );
    let rows = db
        .queries()
        .completed()
        .into_iter()
        .map(|r| {
            vec![
                int(r.id),
                Value::Str(r.sql),
                Value::Str(r.outcome),
                int(r.wall_ms),
                int(r.rows),
                int(r.qerror_x100),
                int(r.mem_bytes),
                Value::Str(r.strategy),
                int(r.session),
            ]
        })
        .collect();
    fill(table, rows)
}

/// `nra_sys.plan_cache`: this database's plan-cache entries, oldest
/// first.
fn plan_cache_table(name: &str, db: &Database) -> Table {
    let table = Table::new(
        name,
        Schema::new(vec![
            Column::not_null("statement", ColumnType::Str),
            Column::not_null("strategy", ColumnType::Str),
            Column::not_null("hits", ColumnType::Int),
            Column::not_null("version", ColumnType::Int),
        ]),
    );
    let rows = db
        .shared
        .plans
        .snapshot()
        .into_iter()
        .map(|r| {
            vec![
                Value::Str(r.statement),
                Value::Str(r.strategy.to_string()),
                int(r.hits),
                int(r.version),
            ]
        })
        .collect();
    fill(table, rows)
}

/// `nra_sys.wal`: durability state of this database — one row for a
/// durable database (LSN watermarks, log size, recovery summary),
/// empty for an in-memory one.
fn wal_table(name: &str, db: &Database) -> Table {
    let table = Table::new(
        name,
        Schema::new(vec![
            Column::not_null("dir", ColumnType::Str),
            Column::not_null("last_lsn", ColumnType::Int),
            Column::not_null("snapshot_lsn", ColumnType::Int),
            Column::not_null("wal_bytes", ColumnType::Int),
            Column::not_null("records_since_checkpoint", ColumnType::Int),
            Column::not_null("poisoned", ColumnType::Bool),
            Column::not_null("recovered_records", ColumnType::Int),
            Column::not_null("dropped_records", ColumnType::Int),
            Column::not_null("repaired", ColumnType::Bool),
        ]),
    );
    let rows = match (db.durability(), db.recovery()) {
        (Some(info), Some(report)) => vec![vec![
            Value::Str(info.dir.display().to_string()),
            int(info.last_lsn),
            int(info.snapshot_lsn),
            int(info.wal_bytes),
            int(info.records_since_checkpoint),
            Value::Bool(info.poisoned),
            int(report.replayed),
            int(report.dropped_records),
            Value::Bool(report.repaired),
        ]],
        _ => Vec::new(),
    };
    fill(table, rows)
}

/// `nra_sys.running`: live queries with their current progress.
fn running_table(name: &str, db: &Database) -> Table {
    let table = Table::new(
        name,
        Schema::new(vec![
            Column::not_null("id", ColumnType::Int),
            Column::not_null("sql", ColumnType::Str),
            Column::not_null("phase", ColumnType::Str),
            Column::not_null("percent", ColumnType::Int),
            Column::not_null("rows_processed", ColumnType::Int),
            Column::not_null("rows_estimated", ColumnType::Int),
            Column::not_null("elapsed_ms", ColumnType::Int),
            Column::not_null("mem_bytes", ColumnType::Int),
        ]),
    );
    let rows = db
        .queries()
        .running()
        .into_iter()
        .map(|r| {
            let snap = r.progress.snapshot();
            vec![
                int(r.id),
                Value::Str(r.sql),
                Value::Str(snap.phase),
                int(snap.percent),
                int(snap.rows_processed),
                int(snap.rows_estimated),
                int(snap.elapsed_ms),
                int(snap.mem_bytes),
            ]
        })
        .collect();
    fill(table, rows)
}

/// `nra_sys.metrics`: the process-cumulative registry. `value` is the
/// counter/gauge value, or the sum for histograms; `count` is the
/// observation count for histograms, NULL otherwise.
fn metrics_table(name: &str) -> Table {
    let table = Table::new(
        name,
        Schema::new(vec![
            Column::not_null("name", ColumnType::Str),
            Column::not_null("labels", ColumnType::Str),
            Column::not_null("kind", ColumnType::Str),
            Column::not_null("value", ColumnType::Int),
            Column::new("count", ColumnType::Int),
        ]),
    );
    let snap = metrics::global().snapshot();
    let rows = snap
        .entries
        .iter()
        .map(|(key, metric)| {
            let labels = key
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            let (kind, value, count) = match metric {
                Metric::Counter(v) => ("counter", *v, Value::Null),
                Metric::Gauge(v) => ("gauge", *v, Value::Null),
                Metric::Hist { count, sum, .. } => ("histogram", *sum, int(*count)),
            };
            vec![
                Value::Str(key.name.clone()),
                Value::Str(labels),
                Value::Str(kind.to_string()),
                int(value),
                count,
            ]
        })
        .collect();
    fill(table, rows)
}

/// `nra_sys.table_stats`: one row per analyzed column of each base
/// table; tables never analyzed get a single row with NULL column
/// statistics (so they still show up with their row counts).
fn table_stats_table(name: &str, catalog: &Catalog) -> Table {
    let table = Table::new(
        name,
        Schema::new(vec![
            Column::not_null("table_name", ColumnType::Str),
            Column::not_null("row_count", ColumnType::Int),
            Column::new("column_name", ColumnType::Str),
            Column::new("ndv", ColumnType::Int),
            Column::new("null_count", ColumnType::Int),
        ]),
    );
    let mut rows = Vec::new();
    for tname in catalog.table_names() {
        let t = catalog.table(tname).expect("listed table exists");
        match t.stats() {
            Some(stats) => {
                for col in &stats.columns {
                    rows.push(vec![
                        Value::Str(tname.to_string()),
                        int(stats.row_count),
                        Value::Str(col.name.clone()),
                        int(col.ndv),
                        int(col.null_count),
                    ]);
                }
            }
            None => rows.push(vec![
                Value::Str(tname.to_string()),
                int(t.len() as u64),
                Value::Null,
                Value::Null,
                Value::Null,
            ]),
        }
    }
    fill(table, rows)
}

/// `nra_sys.operators`: per-operator totals pivoted from the global
/// `nra_op_*` counters (one row per `op` label).
fn operators_table(name: &str) -> Table {
    let table = Table::new(
        name,
        Schema::new(vec![
            Column::not_null("op", ColumnType::Str),
            Column::not_null("invocations", ColumnType::Int),
            Column::not_null("rows_in", ColumnType::Int),
            Column::not_null("rows_out", ColumnType::Int),
        ]),
    );
    use std::collections::BTreeMap;
    let mut by_op: BTreeMap<String, [u64; 3]> = BTreeMap::new();
    let snap = metrics::global().snapshot();
    for (key, metric) in &snap.entries {
        let slot = match key.name.as_str() {
            "nra_op_invocations_total" => 0,
            "nra_op_rows_in_total" => 1,
            "nra_op_rows_out_total" => 2,
            _ => continue,
        };
        let Metric::Counter(v) = metric else {
            continue;
        };
        let Some(op) = key
            .labels
            .iter()
            .find(|(k, _)| k.as_str() == "op")
            .map(|(_, v)| v.clone())
        else {
            continue;
        };
        by_op.entry(op).or_default()[slot] += *v;
    }
    let rows = by_op
        .into_iter()
        .map(|(op, totals)| {
            vec![
                Value::Str(op),
                int(totals[0]),
                int(totals[1]),
                int(totals[2]),
            ]
        })
        .collect();
    fill(table, rows)
}
