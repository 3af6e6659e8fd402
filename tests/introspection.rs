//! Live introspection: the `nra_sys` virtual schema, the process-wide
//! query registry, per-query progress snapshots and the slow-query log.
//!
//! The query registry and metrics registry are process-global and the
//! test harness runs tests concurrently, so every test here uses
//! distinctive SQL and filters for its own records — none asserts
//! exclusive ownership of the shared state.

use std::sync::Arc;

use nra::storage::{Column, ColumnType, Value};
use nra::tpch::paper_example::{rst_catalog, QUERY_Q};
use nra::{Database, QueryOptions, Strategy};

fn db() -> Database {
    Database::from_catalog(rst_catalog())
}

/// Acceptance: on the paper's Query Q the final progress snapshot is
/// 100% done with `rows_processed` equal to the profile's row counters.
#[test]
fn query_q_final_progress_matches_profile() {
    let out = db()
        .connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new()
                .strategy(Strategy::Original)
                .collect_profile(true),
        )
        .unwrap();
    let profile = out.profile.expect("profile requested");
    let snap = out.progress.expect("queries carry a final snapshot");
    assert!(snap.done, "finished query is done");
    assert_eq!(snap.percent, 100);
    let rows_in: u64 = profile.ops.iter().map(|(_, s)| s.rows_in).sum();
    assert_eq!(snap.rows_processed, rows_in);
    assert!(snap.rows_estimated > 0, "Query Q has cardinality estimates");
}

/// Completed queries land in the registry ring and are queryable through
/// the ordinary engine via `nra_sys.queries`.
#[test]
fn completed_queries_are_sql_queryable() {
    let marker = "select r.a from r where r.a = 771001";
    let database = db();
    database
        .connect()
        .execute_with(marker, &QueryOptions::new())
        .unwrap();
    let out = database
        .connect()
        .execute_with(
            &format!(
                "select sql, outcome, rows, strategy from nra_sys.queries where sql = '{marker}'"
            ),
            &QueryOptions::new(),
        )
        .unwrap();
    assert!(!out.rows.rows().is_empty(), "marker query was registered");
    let row = &out.rows.rows()[0];
    assert_eq!(row[0], Value::Str(marker.to_string()));
    assert_eq!(row[1], Value::Str("ok".to_string()));
    assert_ne!(
        row[3],
        Value::Str("auto".to_string()),
        "auto resolves to the concrete strategy in the record: {:?}",
        row[3]
    );
}

/// Failed queries are recorded too, with their outcome label.
#[test]
fn failed_queries_are_recorded_with_outcome() {
    let marker = "select r.a from r where r.a = 771002 and r.b = 771002";
    let database = db();
    let err = database
        .connect()
        .execute_with(marker, &QueryOptions::new().timeout_ms(0))
        .unwrap_err();
    assert!(matches!(
        err,
        nra::NraError::Engine(nra::engine::EngineError::Cancelled { .. })
    ));
    let out = database
        .connect()
        .execute_with(
            &format!("select outcome from nra_sys.queries where sql = '{marker}'"),
            &QueryOptions::new(),
        )
        .unwrap();
    assert_eq!(
        out.rows.rows().last().unwrap()[0],
        Value::Str("cancelled".to_string())
    );
}

/// Introspection queries never register themselves (no self-recursion):
/// querying `nra_sys.queries` must not insert a record whose statement
/// mentions `nra_sys`.
#[test]
fn introspection_queries_stay_out_of_the_registry() {
    let database = db();
    let probe = "select id from nra_sys.queries where id = 881001";
    database
        .connect()
        .execute_with(probe, &QueryOptions::new())
        .unwrap();
    let out = database
        .connect().execute_with(
            "select sql from nra_sys.queries where sql = 'select id from nra_sys.queries where id = 881001'",
            &QueryOptions::new(),
        )
        .unwrap();
    assert!(
        out.rows.rows().is_empty(),
        "introspection query registered itself: {:?}",
        out.rows.rows()
    );
    assert!(
        !database
            .queries()
            .completed()
            .iter()
            .any(|r| r.sql == probe),
        "introspection query in the completed ring"
    );
}

/// `nra_sys.running` exposes live queries with their progress; system
/// tables join against base tables through the ordinary engine.
#[test]
fn running_table_reflects_registered_queries() {
    let progress = Arc::new(nra::obs::progress::ProgressState::new());
    progress.set_estimated(200);
    progress.add_rows(50, "b1/scan");
    let database = db();
    let id = database
        .queries()
        .register("select 991001 from fake", progress.clone());
    let out = database
        .connect()
        .execute_with(
            "select id, phase, percent, rows_processed from nra_sys.running \
             where sql = 'select 991001 from fake'",
            &QueryOptions::new(),
        )
        .unwrap();
    // Clean up before asserting so a failure doesn't leak the entry.
    database
        .queries()
        .complete(nra::obs::queryreg::QueryRecord {
            id,
            sql: "select 991001 from fake".to_string(),
            outcome: "ok",
            wall_ms: 0,
            rows: 0,
            qerror_x100: 0,
            mem_bytes: 0,
            strategy: "original",
            session: 0,
        });
    assert_eq!(out.rows.len(), 1, "registered query is visible");
    let row = &out.rows.rows()[0];
    assert_eq!(row[0], Value::Int(id as i64));
    assert_eq!(row[1], Value::Str("b1/scan".to_string()));
    assert_eq!(row[2], Value::Int(25), "50 of 200 estimated rows");
    assert_eq!(row[3], Value::Int(50));
}

/// Mid-query progress snapshots are monotonically non-decreasing, and
/// the query is visible in the running table while it executes.
#[test]
fn mid_query_snapshots_are_monotonic() {
    let database = Database::new();
    database
        .create_table(
            "big",
            vec![
                Column::not_null("k", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
            &["k"],
        )
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..60_000)
        .map(|i| vec![Value::Int(i), Value::Int(i % 997)])
        .collect();
    database.insert("big", rows).unwrap();
    let marker = "select k from big where v in (select v from big b2 where b2.k < 500)";

    let database = Arc::new(database);
    let worker = {
        let database = Arc::clone(&database);
        std::thread::spawn(move || {
            database
                .connect()
                .execute_with(marker, &QueryOptions::new())
                .unwrap()
        })
    };

    // Poll the running table's live handle while the query executes.
    let mut snaps = Vec::new();
    while !worker.is_finished() {
        for q in database.queries().running() {
            if q.sql == marker {
                snaps.push(q.progress.snapshot());
            }
        }
    }
    let out = worker.join().unwrap();
    snaps.push(out.progress.expect("final snapshot"));

    for pair in snaps.windows(2) {
        assert!(
            pair[1].rows_processed >= pair[0].rows_processed,
            "rows_processed regressed: {} -> {}",
            pair[0].rows_processed,
            pair[1].rows_processed
        );
        assert!(
            pair[1].percent >= pair[0].percent,
            "percent regressed: {} -> {}",
            pair[0].percent,
            pair[1].percent
        );
    }
    let last = snaps.last().unwrap();
    assert!(last.done && last.percent == 100);
}

/// `nra_sys.metrics` and `nra_sys.operators` project the global metrics
/// registry; `nra_sys.table_stats` reflects `ANALYZE`.
#[test]
fn metrics_operators_and_table_stats_are_queryable() {
    let database = db();
    database
        .connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new()
                .strategy(Strategy::Original)
                .collect_profile(true),
        )
        .unwrap();
    database
        .connect()
        .execute_with("analyze r", &QueryOptions::new())
        .unwrap();

    let metrics = database
        .connect()
        .execute_with(
            "select name, kind, value from nra_sys.metrics where name = 'nra_rows_produced_total'",
            &QueryOptions::new(),
        )
        .unwrap();
    assert!(!metrics.rows.rows().is_empty());
    assert_eq!(metrics.rows.rows()[0][1], Value::Str("counter".to_string()));

    let operators = database
        .connect()
        .execute_with(
            "select op, invocations, rows_in, rows_out from nra_sys.operators \
             where op = 'project'",
            &QueryOptions::new(),
        )
        .unwrap();
    assert!(
        !operators.rows.rows().is_empty(),
        "profiled ops are pivoted"
    );

    let stats = database
        .connect()
        .execute_with(
            "select table_name, row_count, ndv from nra_sys.table_stats \
             where table_name = 'r' and column_name = 'a'",
            &QueryOptions::new(),
        )
        .unwrap();
    assert_eq!(stats.rows.len(), 1, "one row per analyzed column");
    assert_eq!(stats.rows.rows()[0][1], Value::Int(4), "r has 4 rows");
}

/// System tables support aliases, subqueries and joins against base
/// tables like any other table (dogfooding the ordinary engine).
#[test]
fn sys_tables_compose_with_the_sql_subset() {
    let database = db();
    database
        .connect()
        .execute_with("select r.a from r where r.a = 661001", &QueryOptions::new())
        .unwrap();
    let out = database
        .connect().execute_with(
            "select q.id from nra_sys.queries q where q.sql = 'select r.a from r where r.a = 661001' \
             and exists (select m.name from nra_sys.metrics m where m.name = 'nra_queries_total')",
            &QueryOptions::new(),
        )
        .unwrap();
    assert!(
        !out.rows.rows().is_empty(),
        "alias + EXISTS over nra_sys works"
    );
}

/// The `nra_sys` schema is reserved: user tables cannot shadow it, and
/// unknown system tables fail with a helpful error.
#[test]
fn reserved_schema_is_guarded() {
    let database = db();
    let err = database
        .create_table("nra_sys.hack", vec![Column::new("x", ColumnType::Int)], &[])
        .unwrap_err();
    assert!(err.to_string().contains("reserved"), "{err}");
    let err = database
        .connect()
        .execute_with("select x from nra_sys.bogus", &QueryOptions::new())
        .unwrap_err();
    assert!(err.to_string().contains("unknown system table"), "{err}");
}

/// The slow-query log records every query at a zero threshold, and the
/// emitted JSONL validates against the record schema.
#[test]
fn slow_log_records_validate() {
    let dir = std::env::temp_dir().join(format!("nra-slowlog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("slow.jsonl");
    let _ = std::fs::remove_file(&path);

    let database = db();
    let opts = QueryOptions::new()
        .strategy(Strategy::Original)
        .collect_profile(true)
        .slow_ms(0)
        .slow_log(&path);
    database.connect().execute_with(QUERY_Q, &opts).unwrap();
    database
        .connect()
        .execute_with(
            "select r.a from r where r.a > 1",
            &opts.clone().timeout_ms(0),
        )
        .unwrap_err();

    let contents = std::fs::read_to_string(&path).unwrap();
    let n = nra::obs::slowlog::validate_lines(&contents).unwrap();
    assert_eq!(n, 2, "both queries logged:\n{contents}");
    let lines: Vec<&str> = contents.lines().collect();
    assert!(lines[0].contains("\"outcome\": \"ok\""));
    assert!(
        lines[0].contains("\"plan\": \"π"),
        "Algorithm 1 plan embedded"
    );
    assert!(lines[1].contains("\"outcome\": \"cancelled\""));
    let _ = std::fs::remove_file(&path);

    // A high threshold logs nothing.
    database
        .connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new().slow_ms(3_600_000).slow_log(&path),
        )
        .unwrap();
    assert!(!path.exists(), "fast query stays out of the log");
}

/// Dotted names parse, bind and display: the schema prefix is stripped
/// for column resolution only when no alias is given.
#[test]
fn dotted_table_names_resolve() {
    let database = db();
    database
        .connect()
        .execute_with("select r.a from r", &QueryOptions::new())
        .unwrap();
    // Unaliased: columns resolve under the bare table name.
    let out = database
        .connect()
        .execute_with(
            "select queries.id from nra_sys.queries where queries.id = 0",
            &QueryOptions::new(),
        )
        .unwrap();
    assert_eq!(out.rows.len(), 0, "ids start at 1");
    // Aliased: the alias wins.
    database
        .connect()
        .execute_with("select z.id from nra_sys.running z", &QueryOptions::new())
        .unwrap();
}

/// `strategy` of the `nra_sys.{table}` rows whose `{column}` mentions
/// `marker`, in row order.
fn sys_strategies(session: &nra::Session, table: &str, column: &str, marker: &str) -> Vec<Value> {
    let out = session
        .execute(&format!("select {column}, strategy from nra_sys.{table}"))
        .unwrap();
    (out.rows.rows().iter())
        .filter(|r| matches!(&r[0], Value::Str(s) if s.contains(marker)))
        .map(|r| r[1].clone())
        .collect()
}

/// Push-down candidates the push-down builder rejects at plan time: a
/// non-equality correlation, and none at all.
const PUSH_DOWN_REJECTED: [(&str, &str); 2] = [
    (
        "select r.a from r where r.a <> 771101 and r.b not in \
         (select s.e from s where s.g < r.a)",
        "771101",
    ),
    (
        "select r.a from r where r.a <> 771102 and r.b not in (select s.e from s)",
        "771102",
    ),
];

/// EXPLAIN names the strategy of the plan `Auto` builds, not the first
/// one it considered.
#[test]
fn explain_names_the_planned_strategy() {
    let session = db().connect();
    for (sql, _) in PUSH_DOWN_REJECTED {
        let explained = session
            .execute_with(sql, &QueryOptions::new().explain_only(true))
            .unwrap()
            .plan
            .unwrap();
        assert!(
            explained.starts_with("nested relational: bottom-up;"),
            "{explained}"
        );
    }
}

/// `nra_sys.queries` and `nra_sys.plan_cache` record the strategy the
/// plan that ran was built with.
#[test]
fn sys_tables_name_the_strategy_that_ran() {
    let session = db().connect();
    let bottom_up = [Value::Str("bottom-up".to_string())];
    for (sql, marker) in PUSH_DOWN_REJECTED {
        session.execute(sql).unwrap();
        assert_eq!(
            sys_strategies(&session, "queries", "sql", marker),
            bottom_up
        );
        assert_eq!(
            sys_strategies(&session, "plan_cache", "statement", marker),
            bottom_up
        );
    }
}

/// The plan cache holds one plan per (statement, engine): a statement
/// first run under the baseline engine gets a second entry for `Auto`,
/// whose hits run the push-down plan.
#[test]
fn plan_cache_holds_one_plan_per_engine() {
    let session = db().connect();
    let sql = "select r.a from r where r.a <> 771103 and r.b not in \
               (select s.e from s where s.g = r.d)";
    let baseline = QueryOptions::new().engine(nra::Engine::Baseline);
    session.execute_with(sql, &baseline).unwrap();
    session.execute(sql).unwrap();
    session.execute(sql).unwrap();
    let baseline = Value::Str("baseline".to_string());
    let pushdown = Value::Str("bottom-up-pushdown".to_string());
    assert_eq!(
        sys_strategies(&session, "queries", "sql", "771103"),
        [baseline.clone(), pushdown.clone(), pushdown.clone()]
    );
    let out = session
        .execute("select statement, strategy, hits from nra_sys.plan_cache")
        .unwrap();
    let rows: Vec<&[Value]> = (out.rows.rows().iter())
        .filter(|r| matches!(&r[0], Value::Str(s) if s.contains("771103")))
        .map(|r| &r[1..])
        .collect();
    assert_eq!(rows, [[baseline, Value::Int(0)], [pushdown, Value::Int(1)]]);
}
