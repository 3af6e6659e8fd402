//! Integration tests for the query resource governor: memory budgets,
//! cooperative cancellation, panic containment, and the deterministic
//! fault-injection matrix — all over the paper's Query Q so the
//! "database stays usable" half of each test checks a real answer.

use nra::engine::EngineError;
use nra::storage::fault;
use nra::tpch::paper_example::{expected_query_q_result, rst_catalog, QUERY_Q};
use nra::{
    AdmissionConfig, CancelToken, Database, Engine, FaultKind, NraError, QueryOptions, Strategy,
};
use nra_storage::Relation;

fn paper_db() -> Database {
    Database::from_catalog(rst_catalog())
}

/// The engine error a query failed with, whether or not it returned a
/// report beside it.
fn engine_err(err: NraError) -> EngineError {
    match err.cause() {
        NraError::Engine(e) => e.clone(),
        other => panic!("expected an engine error, got {other:?}"),
    }
}

fn baseline(db: &Database, opts: &QueryOptions) -> Relation {
    db.connect()
        .execute_with(QUERY_Q, opts)
        .expect("clean run")
        .rows
}

/// Every lifecycle stage armed at once, so a failing query has
/// something to leave behind at each of them.
fn all_stages() -> QueryOptions {
    QueryOptions::new()
        .strategy(Strategy::Original)
        .collect_profile(true)
        .collect_trace(true)
        .collect_metrics(true)
        .simulate_io(true)
        .mem_limit_bytes(64 << 20)
}

/// After a query that failed at `point`, nothing of it is left on this
/// thread (no collector, no I/O simulator, no governor or progress) or in
/// the process-wide tables, and the same thread answers Query Q
/// correctly. `sql` is the (uniquely spelled) statement that
/// failed: other tests in this binary register queries concurrently.
fn assert_lifecycle_balanced(db: &Database, sql: &str, point: &str) {
    assert!(!nra::obs::is_enabled(), "{point}: collector left enabled");
    assert!(!nra::storage::iosim::is_enabled(), "{point}: iosim left on");
    let ctx = nra::engine::ctx::current();
    assert!(ctx.governor.is_none(), "{point}: governor left installed");
    assert!(ctx.progress.is_none(), "{point}: progress left installed");
    let running = db
        .connect()
        .execute("select sql from nra_sys.running")
        .expect("introspection works after a failure")
        .rows;
    let statement = nra::sql::normalize::normalize(sql);
    assert!(
        !running
            .rows()
            .iter()
            .any(|r| r[0] == nra::storage::Value::str(&statement)),
        "{point}: still in nra_sys.running"
    );
    assert_eq!(db.admission().snapshot().0, 0, "{point}: permit leaked");
    let next = db
        .connect()
        .execute_with(QUERY_Q, &all_stages())
        .unwrap_or_else(|e| panic!("{point}: next query failed: {e}"));
    let golden = Relation::with_rows(next.rows.schema().clone(), expected_query_q_result());
    assert!(
        next.rows.multiset_eq(&golden),
        "{point}: next query drifted from the golden answer"
    );
}

/// Failure points before, at the edge of, and inside execution — each
/// with every stage armed — leave the lifecycle balanced. (Injected
/// panics at every fault site: `fault_matrix_structured_errors_and_recovery`.)
#[test]
fn lifecycle_balances_on_every_failure_path() {
    let db = paper_db();
    db.set_admission(AdmissionConfig::new().max_concurrent(1).queue_timeout_ms(0));
    let q = |marker: u32| format!("{QUERY_Q} limit {marker}");
    let cancelled = CancelToken::new();
    cancelled.cancel();
    type Expect = fn(&EngineError) -> bool;
    let cases: [(&str, String, QueryOptions, Option<Expect>); 4] = [
        (
            "admission refused",
            q(880_001),
            all_stages(),
            Some(|e| matches!(e, EngineError::Admission { .. })),
        ),
        (
            "cancelled at query-start",
            q(880_002),
            all_stages().cancel(cancelled),
            Some(|e| matches!(e, EngineError::Cancelled { phase } if phase == "query-start")),
        ),
        (
            "bind error",
            "select nope from r limit 880003".to_string(),
            all_stages(),
            None,
        ),
        (
            "resource exhausted",
            q(880_004),
            all_stages().mem_limit_bytes(256),
            Some(|e| matches!(e, EngineError::ResourceExhausted { .. })),
        ),
    ];
    for (point, sql, opts, expect) in cases {
        // Only the first case runs against a saturated gate.
        let held = (point == "admission refused").then(|| db.admission().admit(0).unwrap());
        let err = db
            .connect()
            .execute_with(&sql, &opts)
            .map(|out| out.rows.len())
            .expect_err(point);
        drop(held);
        match expect {
            Some(expect) => assert!(expect(&engine_err(err.clone())), "{point}: {err:?}"),
            None => assert!(matches!(err.cause(), NraError::Sql(_)), "{point}: {err:?}"),
        }
        assert_lifecycle_balanced(&db, &sql, point);
    }
}

/// A budget far too small for Query Q fails with ResourceExhausted, and
/// the same Database then answers the query correctly — both without a
/// limit and under a generous one.
#[test]
fn mem_limit_fails_then_database_recovers() {
    let db = paper_db();
    let clean = baseline(&db, &QueryOptions::new());

    let err = db
        .connect()
        .execute_with(QUERY_Q, &QueryOptions::new().mem_limit_bytes(256))
        .expect_err("256 bytes cannot hold Query Q's intermediates");
    match engine_err(err) {
        EngineError::ResourceExhausted {
            operator,
            requested,
            limit,
        } => {
            assert!(!operator.is_empty());
            assert!(requested > limit, "{requested} vs {limit}");
            assert_eq!(limit, 256);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }

    let again = baseline(&db, &QueryOptions::new());
    assert_eq!(clean.rows(), again.rows());

    let generous = baseline(&db, &QueryOptions::new().mem_limit_bytes(64 << 20));
    assert_eq!(clean.rows(), generous.rows());
}

/// A pre-cancelled token stops the query at the first checkpoint, and
/// the same Database immediately runs a profiled query to completion
/// afterwards (no leaked observability state: the later profile reports
/// outcome "ok" with operator stats).
#[test]
fn cancellation_leaves_database_usable() {
    let db = paper_db();
    let token = CancelToken::new();
    token.cancel();
    let err = db
        .connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new().cancel(token).collect_profile(true),
        )
        .expect_err("pre-cancelled token must stop the query");
    assert!(matches!(engine_err(err), EngineError::Cancelled { .. }));

    let out = db
        .connect()
        .execute_with(QUERY_Q, &QueryOptions::new().collect_profile(true))
        .expect("database stays usable after cancellation");
    let profile = out.profile.expect("profile requested");
    assert_eq!(profile.outcome.as_deref(), Some("ok"));
    assert!(!profile.ops.is_empty());
}

/// timeout_ms(0) cancels at the first checkpoint; the error names the
/// interrupted phase and the trace its report carries has a matching
/// governor line.
#[test]
fn timeout_zero_reports_interrupted_phase_in_trace() {
    let db = paper_db();
    let err = db
        .connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new().timeout_ms(0).collect_trace(true),
        )
        .expect_err("timeout 0 must cancel");
    let trace = (err.report())
        .and_then(|report| report.trace.clone())
        .expect("a failed query returns the trace it was asked for");

    let phase = match engine_err(err) {
        EngineError::Cancelled { phase } => phase,
        other => panic!("expected Cancelled, got {other:?}"),
    };
    assert!(!phase.is_empty());
    assert!(
        trace.governor.contains(&("cancelled", phase.clone())),
        "no governor-cancelled line for phase {phase:?} in {:?}",
        trace.governor
    );
    let line = format!("⚠ governor: cancelled at `{phase}`");
    assert!(
        trace.render_tree().contains(&line),
        "{}",
        trace.render_tree()
    );
}

/// Every fault site × {alloc-fail, panic} returns a structured error
/// (never an abort), and the same Database then executes Query Q
/// byte-identically to the pre-fault baseline. Uses the Original two-pass
/// strategy, under which all three sites fire: hash-join build, nest
/// flush and linking scan.
#[test]
fn fault_matrix_structured_errors_and_recovery() {
    let db = paper_db();
    let opts = || QueryOptions::new().engine(Engine::NestedRelational(Strategy::Original));
    let clean = baseline(&db, &opts());
    let sql = format!("{QUERY_Q} limit 880005");

    for site in fault::OPERATOR_SITES {
        for kind in [FaultKind::AllocFail, FaultKind::Panic] {
            let err = db
                .connect()
                .execute_with(&sql, &all_stages().fault(site, 1, kind))
                .map(|out| out.rows.len())
                .expect_err(&format!("fault {site}:{kind:?} must surface"));
            let err = engine_err(err);
            match kind {
                FaultKind::AllocFail => assert!(
                    matches!(err, EngineError::ResourceExhausted { .. }),
                    "{site}:{kind:?}: {err:?}"
                ),
                FaultKind::Panic => assert!(
                    matches!(err, EngineError::WorkerPanicked { .. }),
                    "{site}:{kind:?}: {err:?}"
                ),
                _ => unreachable!(),
            }
            assert_lifecycle_balanced(&db, &sql, &format!("{site}:{kind:?}"));

            let again = baseline(&db, &opts());
            assert_eq!(
                clean.rows(),
                again.rows(),
                "result drifted after fault {site}:{kind:?}"
            );
        }
    }
}

/// A delay fault is observable (the query still succeeds) — the knob the
/// cancellation tests lean on for widening race windows stays wired up.
#[test]
fn delay_fault_does_not_change_results() {
    let db = paper_db();
    let clean = baseline(&db, &QueryOptions::new());
    let delayed = baseline(
        &db,
        &QueryOptions::new().fault(fault::JOIN_BUILD, 1, FaultKind::Delay(1)),
    );
    assert_eq!(clean.rows(), delayed.rows());
}

/// The nest-push-down strategy (§4.2.4) hash-groups the child inline
/// rather than calling the shared nest operator — it must charge the
/// budget and honor fault sites all the same (regression: this path
/// originally slipped past the governor entirely).
#[test]
fn pushdown_strategy_is_governed() {
    use nra::storage::{Column, ColumnType, Value};
    let db = Database::new();
    db.create_table(
        "p",
        vec![
            Column::not_null("id", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
        &["id"],
    )
    .unwrap();
    db.create_table(
        "c",
        vec![
            Column::not_null("id", ColumnType::Int),
            Column::new("pid", ColumnType::Int),
            Column::new("w", ColumnType::Int),
        ],
        &["id"],
    )
    .unwrap();
    db.insert(
        "p",
        (0..64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect(),
    )
    .unwrap();
    db.insert(
        "c",
        (0..256)
            .map(|i| vec![Value::Int(i), Value::Int(i % 64), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    let sql = "select id from p where v > all (select w from c where c.pid = p.id)";
    let opts = || QueryOptions::new().strategy(Strategy::BottomUpPushdown);

    let clean = db
        .connect()
        .execute_with(sql, &opts())
        .expect("clean run")
        .rows;

    let err = engine_err(
        db.connect()
            .execute_with(sql, &opts().mem_limit_bytes(512))
            .map(|o| o.rows.len())
            .expect_err("512 bytes cannot hold the pushed-down group map"),
    );
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "{err:?}"
    );

    for kind in [FaultKind::AllocFail, FaultKind::Panic] {
        let err = engine_err(
            db.connect()
                .execute_with(sql, &opts().fault(fault::NEST_FLUSH, 1, kind))
                .map(|o| o.rows.len())
                .expect_err("injected nest-flush fault must surface"),
        );
        match kind {
            FaultKind::AllocFail => {
                assert!(
                    matches!(err, EngineError::ResourceExhausted { .. }),
                    "{err:?}"
                )
            }
            FaultKind::Panic => {
                assert!(matches!(err, EngineError::WorkerPanicked { .. }), "{err:?}")
            }
            _ => unreachable!(),
        }
    }

    let again = db
        .connect()
        .execute_with(sql, &opts())
        .expect("recovered run")
        .rows;
    assert_eq!(clean.rows(), again.rows());
}
