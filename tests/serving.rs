//! Concurrent serving semantics at the session layer: N sessions on one
//! `Database` must agree byte-for-byte with a sequential run, the query
//! registry must not lose or duplicate records under concurrency, the
//! plan cache must hit on repeats and drain on DDL, admitted reads must
//! genuinely overlap, and the admission controller must time out queued
//! queries with `EngineError::Admission`.
//!
//! The query registry, metrics registry and plan cache are process
//! global and tests run concurrently, so every assertion here filters
//! for this file's own databases/statements (distinct literals, fresh
//! `Database` ids) — none claims exclusive ownership of shared state.

use std::sync::Arc;

use nra::engine::EngineError;
use nra::storage::fault;
use nra::storage::{Column, ColumnType, Value};
use nra::{AdmissionConfig, Database, FaultKind, NraError, QueryOptions};
use nra_tpch::{generate, q1_sql, q2_sql, Quant, TpchConfig};

const SESSIONS: usize = 4;
const ROUNDS: usize = 3;

fn tpch_db() -> (Database, Vec<String>) {
    let cfg = TpchConfig::scaled(0.02);
    let cat = generate(&cfg);
    let outer = (cfg.orders / 4).max(1);
    let part = (cfg.part / 4).max(1);
    let ps = (cfg.part * cfg.partsupp_per_part / 8).max(1);
    let queries = vec![
        q1_sql(&cat, outer),
        q2_sql(&cat, Quant::Any, part, ps),
        q2_sql(&cat, Quant::All, part, ps),
    ];
    (Database::from_catalog(cat), queries)
}

/// The options every session runs with. Execution is sequential, so row
/// order is reproducible and byte-comparison across sessions is
/// meaningful.
fn opts() -> QueryOptions {
    QueryOptions::new()
}

/// N concurrent sessions hammering Q1/Q2A/Q2B produce results
/// byte-identical to a sequential single-session run.
#[test]
fn concurrent_sessions_match_sequential_byte_for_byte() {
    let (db, queries) = tpch_db();

    let sequential: Vec<String> = queries
        .iter()
        .map(|sql| {
            let out = db.connect().execute_with(sql, &opts()).unwrap();
            format!("{}", out.rows)
        })
        .collect();

    let db = Arc::new(db);
    let expected = Arc::new(sequential);
    let queries = Arc::new(queries);
    let workers: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let db = Arc::clone(&db);
            let expected = Arc::clone(&expected);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let session = db.connect();
                for _ in 0..ROUNDS {
                    for (sql, want) in queries.iter().zip(expected.iter()) {
                        let out = session.execute_with(sql, &opts()).unwrap();
                        assert_eq!(&format!("{}", out.rows), want, "diverged on {sql}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("session thread");
    }
}

/// Under concurrency the registry records exactly one completion per
/// execution, each carrying the issuing session's id — nothing lost,
/// nothing duplicated.
#[test]
fn registry_is_exact_under_concurrency() {
    let db = Database::new();
    db.create_table(
        "reg_t",
        vec![Column::not_null("k", ColumnType::Int)],
        &["k"],
    )
    .unwrap();
    db.insert("reg_t", (0..50).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();

    let marker = "select k from reg_t where k = 774001";
    let db = Arc::new(db);
    let workers: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let session = db.connect();
                for _ in 0..ROUNDS {
                    session.execute(marker).unwrap();
                }
                session.id()
            })
        })
        .collect();
    let session_ids: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let records: Vec<_> = db
        .queries()
        .completed()
        .into_iter()
        .filter(|r| r.sql == marker)
        .collect();
    assert_eq!(records.len(), SESSIONS * ROUNDS, "one record per execution");
    let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), SESSIONS * ROUNDS, "registry ids are unique");
    for r in &records {
        assert!(
            session_ids.contains(&r.session),
            "record session {} is not one of the issuing sessions {session_ids:?}",
            r.session
        );
    }
    for &sid in &session_ids {
        assert_eq!(
            records.iter().filter(|r| r.session == sid).count(),
            ROUNDS,
            "session {sid} recorded exactly its own executions"
        );
    }
}

/// Repeating a query hits the plan cache at a ≥90% rate (the first
/// execution is the lone miss), visible through `nra_sys.plan_cache`;
/// DDL drains the cache for that database and hits restart from zero.
#[test]
fn plan_cache_hits_on_repeats_and_drains_on_ddl() {
    let db = Database::new();
    db.create_table("pc_t", vec![Column::not_null("k", ColumnType::Int)], &["k"])
        .unwrap();
    db.insert("pc_t", (0..20).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    let session = db.connect();
    let sql = "select k from pc_t where k < 7";
    let run_opts = QueryOptions::new();

    const REPEATS: u64 = 20;
    for _ in 0..REPEATS {
        session.execute_with(sql, &run_opts).unwrap();
    }
    let cached = session
        .execute("select statement, hits from nra_sys.plan_cache")
        .unwrap();
    let row = cached
        .rows
        .rows()
        .iter()
        .find(|r| r[0] == Value::Str(sql.to_string()))
        .expect("repeated statement is cached");
    let hits = match row[1] {
        Value::Int(h) => h as u64,
        ref other => panic!("hits column is an int, got {other:?}"),
    };
    assert_eq!(hits, REPEATS - 1, "every execution after the first hits");
    assert!(
        hits * 10 >= (REPEATS - 1) * 9,
        "≥90% hit rate on repeats, got {hits}/{REPEATS}"
    );

    // DDL invalidates: the database's cache drains, and the next run
    // re-plans (a fresh entry with zero accumulated hits).
    db.create_table("pc_u", vec![Column::new("x", ColumnType::Int)], &[])
        .unwrap();
    let drained = session
        .execute("select statement from nra_sys.plan_cache")
        .unwrap();
    assert!(
        drained.rows.rows().is_empty(),
        "DDL purged this database's cached plans: {:?}",
        drained.rows.rows()
    );
    session.execute_with(sql, &run_opts).unwrap();
    let refreshed = session
        .execute("select statement, hits from nra_sys.plan_cache")
        .unwrap();
    let row = refreshed
        .rows
        .rows()
        .iter()
        .find(|r| r[0] == Value::Str(sql.to_string()))
        .expect("statement re-cached after DDL");
    assert_eq!(row[1], Value::Int(0), "hit count restarts after DDL");
}

/// Inserts and ANALYZE invalidate cached plans too (data and stats
/// changes re-plan, not just schema changes).
#[test]
fn plan_cache_drains_on_insert_and_analyze() {
    let db = Database::new();
    db.create_table("pc_v", vec![Column::not_null("k", ColumnType::Int)], &["k"])
        .unwrap();
    db.insert("pc_v", vec![vec![Value::Int(1)]]).unwrap();
    let session = db.connect();
    let sql = "select k from pc_v where k >= 1";
    let run_opts = QueryOptions::new();

    session.execute_with(sql, &run_opts).unwrap();
    db.insert("pc_v", vec![vec![Value::Int(2)]]).unwrap();
    let after_insert = session
        .execute("select statement from nra_sys.plan_cache")
        .unwrap();
    assert!(
        after_insert.rows.rows().is_empty(),
        "insert drains the cache"
    );

    // The re-planned query sees the new row.
    let out = session.execute_with(sql, &run_opts).unwrap();
    assert_eq!(out.rows.len(), 2);

    session.execute("analyze pc_v").unwrap();
    let after_analyze = session
        .execute("select statement from nra_sys.plan_cache")
        .unwrap();
    assert!(
        after_analyze.rows.rows().is_empty(),
        "ANALYZE drains the cache (plans depend on stats)"
    );
}

/// Each database owns its plan cache and query registry: a busy
/// neighbour can neither evict a database's cached plans nor show up in
/// its `nra_sys.queries`.
#[test]
fn databases_are_isolated() {
    let make = |table: &str| {
        let db = Database::new();
        db.create_table(table, vec![Column::not_null("k", ColumnType::Int)], &["k"])
            .unwrap();
        db.insert(table, (0..10).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        db
    };
    let (a, b) = (make("iso_a"), make("iso_b"));
    let run_opts = QueryOptions::new();
    let cached = "select k from iso_a where k < 3";
    a.execute(cached, &run_opts).unwrap();

    // More distinct statements on B than one database's cache holds.
    let neighbour: Vec<String> = (0..300)
        .map(|i| format!("select k from iso_b where k < {}", 662_000 + i))
        .collect();
    for sql in &neighbour {
        b.execute(sql, &run_opts).unwrap();
    }

    a.execute(cached, &run_opts).unwrap();
    let entries = a
        .execute(
            "select statement, hits from nra_sys.plan_cache",
            &QueryOptions::new(),
        )
        .unwrap();
    assert_eq!(
        entries.rows.rows(),
        [vec![Value::Str(cached.to_string()), Value::Int(1)]],
        "A's plan survived B's traffic and the repeat hit it"
    );

    let seen = a
        .execute("select sql from nra_sys.queries", &QueryOptions::new())
        .unwrap();
    let leaked = seen
        .rows
        .rows()
        .iter()
        .filter(|r| neighbour.iter().any(|sql| r[0] == Value::Str(sql.clone())))
        .count();
    assert_eq!(leaked, 0, "B's statements in A's registry");
    assert_eq!(
        seen.rows.len(),
        2,
        "A ran exactly two registered statements"
    );
}

/// Concurrent read queries genuinely overlap: four sessions each
/// sleeping 120 ms inside execution finish in far less than the
/// 480 ms a serialized catalog would take. (Sleep-based, so this holds
/// even on a single-core host.)
#[test]
fn concurrent_reads_overlap_under_the_catalog_lock() {
    let db = Database::new();
    db.create_table("ov_a", vec![Column::not_null("k", ColumnType::Int)], &["k"])
        .unwrap();
    db.create_table("ov_b", vec![Column::not_null("k", ColumnType::Int)], &["k"])
        .unwrap();
    db.insert("ov_a", (0..8).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    db.insert("ov_b", (0..8).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();

    const DELAY_MS: u64 = 120;
    let sql = "select k from ov_a where k in (select k from ov_b)";
    let db = Arc::new(db);
    let start = std::time::Instant::now();
    let workers: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                db.connect()
                    .execute_with(
                        sql,
                        &QueryOptions::new().fault(
                            fault::JOIN_BUILD,
                            1,
                            FaultKind::Delay(DELAY_MS),
                        ),
                    )
                    .unwrap()
            })
        })
        .collect();
    for w in workers {
        w.join().expect("reader thread");
    }
    let elapsed = start.elapsed().as_millis() as u64;
    assert!(
        elapsed < DELAY_MS * SESSIONS as u64,
        "readers serialized: {SESSIONS} × {DELAY_MS} ms sleeps took {elapsed} ms"
    );
}

/// With `max_concurrent = 1` and a short queue timeout, a query queued
/// behind a deliberately slow one fails with `EngineError::Admission`
/// carrying the wait and the limit.
#[test]
fn admission_timeout_rejects_queued_queries() {
    let db = Database::new();
    db.create_table("ad_a", vec![Column::not_null("k", ColumnType::Int)], &["k"])
        .unwrap();
    db.create_table("ad_b", vec![Column::not_null("k", ColumnType::Int)], &["k"])
        .unwrap();
    db.insert("ad_a", (0..4).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    db.insert("ad_b", (0..4).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    db.set_admission(
        AdmissionConfig::new()
            .max_concurrent(1)
            .queue_timeout_ms(50),
    );

    let slow_sql = "select k from ad_a where k in (select k from ad_b)";
    let db = Arc::new(db);
    let holder = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.connect()
                .execute_with(
                    slow_sql,
                    &QueryOptions::new().fault(fault::JOIN_BUILD, 1, FaultKind::Delay(600)),
                )
                .unwrap()
        })
    };
    // Let the holder take the single admission slot.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let err = db
        .connect()
        .execute("select k from ad_a where k = 0")
        .unwrap_err();
    match err {
        NraError::Engine(EngineError::Admission {
            waited_ms, limit, ..
        }) => {
            assert!(waited_ms >= 50, "waited at least the queue timeout");
            assert_eq!(limit, 1);
        }
        other => panic!("expected an admission timeout, got {other:?}"),
    }
    holder.join().expect("holder finishes");

    // With the slot free again the same session admits immediately.
    db.connect()
        .execute("select k from ad_a where k = 0")
        .unwrap();
}

/// `Database::execute` (the one-shot wrapper) and an explicit session
/// agree byte-for-byte — the redesign kept the legacy surface intact.
#[test]
fn one_shot_wrapper_matches_session_execution() {
    let (db, queries) = tpch_db();
    for sql in &queries {
        let wrapped = db.execute(sql, &opts()).unwrap();
        let session = db.connect().execute_with(sql, &opts()).unwrap();
        assert_eq!(
            format!("{}", wrapped.rows),
            format!("{}", session.rows),
            "wrapper diverged on {sql}"
        );
    }
}
