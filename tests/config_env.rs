//! The environment reaches the engine through one door: `Config` is
//! read when a `Database` is built. One smoke per entry point (the
//! knob-by-knob matrix is `nra_engine::config`'s table-driven unit test,
//! which needs no process-env mutation). Its own test binary: the
//! environment is process-global, so these tests serialize behind one
//! mutex and never run alongside other suites' processes.

use std::sync::Mutex;

use nra::engine::EngineError;
use nra::storage::{Column, ColumnType, Value};
use nra::{Database, NraError, QueryOptions};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_env<R>(pairs: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (k, v) in pairs {
        std::env::set_var(k, v);
    }
    let out = f();
    for (k, _) in pairs {
        std::env::remove_var(k);
    }
    out
}

fn test_db() -> Database {
    let db = Database::new();
    db.create_table("t", vec![Column::not_null("a", ColumnType::Int)], &["a"])
        .unwrap();
    db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
        .unwrap();
    db
}

fn expect_config(result: Result<impl std::fmt::Debug, NraError>, var: &str) {
    match result {
        Err(NraError::Engine(EngineError::Config { var: v, detail, .. })) => {
            assert_eq!(v, var);
            assert!(!detail.is_empty());
        }
        other => panic!("expected a Config error for {var}, got {other:?}"),
    }
}

/// The infallible constructors keep a malformed environment and return
/// it from every `execute`; a database built under a valid one runs
/// under it — and keeps running under it after the environment changes.
#[test]
fn execute_reports_the_environment_the_database_was_built_under() {
    for (var, bad) in [
        ("NRA_FAULT", "join-build:x:panic"),
        ("NRA_MEM_LIMIT", "1GB"),
        ("NRA_BATCH_ROWS", "four"),
        ("NRA_PLAN_CACHE", "maybe"),
    ] {
        let db = with_env(&[(var, bad)], test_db);
        // The variable is unset again; the database still reports it.
        for _ in 0..2 {
            let err = db.execute("select a from t", &QueryOptions::new());
            expect_config(err, var);
        }
        let msg = db
            .connect()
            .execute("select a from t")
            .unwrap_err()
            .to_string();
        assert!(msg.contains(&format!("invalid {var}=`{bad}`")), "{msg}");
    }

    // Valid values (engine and storage fault sites side by side; the
    // storage entries are dormant on a query) build a working database.
    let db = with_env(
        &[
            ("NRA_MEM_LIMIT", "1073741824"),
            ("NRA_BATCH_ROWS", "512"),
            ("NRA_FAULT", "wal-append:1:short-write"),
        ],
        test_db,
    );
    let out = db.execute("select a from t", &QueryOptions::new()).unwrap();
    assert_eq!(out.rows.len(), 2);

    // Built under a clean environment, a later malformed value is never
    // seen: nothing reads the environment per query.
    let db = test_db();
    with_env(&[("NRA_MEM_LIMIT", "1GB")], || {
        let out = db.execute("select a from t", &QueryOptions::new()).unwrap();
        assert_eq!(out.rows.len(), 2);
    });
}

#[test]
fn open_refuses_a_malformed_environment_up_front() {
    let dir = std::env::temp_dir().join(format!("nra-config-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    with_env(&[("NRA_FAULT", "bogus")], || {
        expect_config(Database::open(&dir), "NRA_FAULT");
        assert!(!dir.exists(), "a refused open creates nothing");
    });
    with_env(&[("NRA_CHECKPOINT_EVERY", "often")], || {
        expect_config(Database::open(&dir), "NRA_CHECKPOINT_EVERY");
    });

    // A valid I/O fault entry arms the durable write path of the
    // database opened under it.
    let db = with_env(&[("NRA_FAULT", "wal-append:2:io-error")], || {
        Database::open(&dir).unwrap()
    });
    db.create_table("t", vec![Column::not_null("a", ColumnType::Int)], &["a"])
        .unwrap();
    let err = db.insert("t", vec![vec![Value::Int(1)]]).unwrap_err();
    assert!(matches!(err, NraError::Storage(_)), "{err:?}");
    db.insert("t", vec![vec![Value::Int(1)]])
        .expect("the fault fires once; the failed insert left no trace");
    assert_eq!(db.catalog().table("t").unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
