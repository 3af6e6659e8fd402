//! The environment reaches the engine through one door: `Config` is
//! read when a `Database` is built. One smoke per entry point (the
//! knob-by-knob matrix is `nra_engine::config`'s table-driven unit test,
//! which needs no process-env mutation). Its own test binary: the
//! environment is process-global, so these tests serialize behind one
//! mutex and never run alongside other suites' processes.

use std::sync::Mutex;

use nra::engine::EngineError;
use nra::storage::fault::{self, FaultKind};
use nra::storage::{Column, ColumnType, Value};
use nra::{Database, Engine, NraError, QueryOptions, Strategy};

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
        ("NRA_SLOW_MS", "soon"),
        ("NRA_MAX_CONCURRENT", "many"),
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
    with_env(&[("NRA_MEM_LIMIT", "1GB")], || {
        expect_config(Database::open(&dir), "NRA_MEM_LIMIT");
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

/// One `NRA_FAULT` value, two plan lifetimes: every query arms a fresh
/// plan, so each fails at its own first join build; the durable database
/// arms one plan for its lifetime, so only its first write fails.
#[test]
fn queries_get_a_fresh_plan_and_the_database_keeps_one() {
    let dir = std::env::temp_dir().join(format!("nra-config-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Built under the lock, so no other test's environment leaks in.
    with_env(&[], || {
        let db = Database::open(&dir).unwrap();
        db.create_table("t", vec![Column::not_null("a", ColumnType::Int)], &["a"])
            .unwrap();
        db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
    });
    let db = with_env(
        &[("NRA_FAULT", "join-build:1:alloc,wal-append:1:io-error")],
        || Database::open(&dir).unwrap(),
    );
    let join = "select a from t where exists (select * from t u where u.a = t.a)";
    let opts = QueryOptions::new().engine(Engine::NestedRelational(Strategy::Original));
    for _ in 0..3 {
        match db.execute(join, &opts) {
            Err(NraError::Engine(EngineError::ResourceExhausted { operator, .. })) => {
                assert_eq!(operator, fault::JOIN_BUILD)
            }
            other => panic!("expected the query's own join-build fault, got {other:?}"),
        }
    }
    assert_eq!(db.execute("select a from t", &opts).unwrap().rows.len(), 2);

    let err = db.insert("t", vec![vec![Value::Int(3)]]).unwrap_err();
    assert!(
        err.to_string().contains("injected I/O error at wal-append"),
        "{err}"
    );
    for a in [3, 4] {
        db.insert("t", vec![vec![Value::Int(a)]])
            .expect("the database plan's wal-append fault has fired");
    }
    assert_eq!(db.catalog().table("t").unwrap().len(), 4);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every (site, kind) pair the registry refuses is a structured error
/// naming the entry — through `NRA_FAULT` and through
/// `QueryOptions::fault` — and the database keeps answering.
#[test]
fn refused_fault_kinds_are_structured_errors() {
    let kinds = [
        FaultKind::AllocFail,
        FaultKind::Panic,
        FaultKind::Delay(1),
        FaultKind::ShortWrite,
        FaultKind::Crash,
        FaultKind::IoError,
    ];
    let refused: Vec<(&str, FaultKind)> = fault::SITES
        .iter()
        .flat_map(|site| kinds.map(|kind| (site, kind)))
        .filter(|(site, kind)| !site.kinds.contains(&kind.name()))
        .map(|(site, kind)| (site.name, kind))
        .collect();
    assert_eq!(refused.len(), 3 * 3 + 4 * 2);

    let db = with_env(&[], test_db);
    for (site, kind) in refused {
        let entry = format!("{site}:1:{}", kind.name());
        let refusal = format!("unknown fault kind `{}` at site `{site}`", kind.name());
        let check = |err: Result<_, NraError>, var: &str| match err {
            Err(NraError::Engine(EngineError::Config {
                var: v,
                value,
                detail,
            })) => {
                assert_eq!((v.as_str(), value.as_str()), (var, entry.as_str()));
                assert!(detail.contains(&format!("entry `{entry}`")), "{detail}");
                assert!(detail.contains(&refusal), "{detail}");
            }
            other => panic!("{entry} through {var}: expected a config error, got {other:?}"),
        };

        let configured = with_env(&[("NRA_FAULT", &entry)], test_db);
        for _ in 0..2 {
            check(
                configured.execute("select a from t", &QueryOptions::new()),
                "NRA_FAULT",
            );
        }

        let opts = QueryOptions::new().fault(site, 1, kind);
        check(db.execute("select a from t", &opts), "QueryOptions::fault");
        let out = db.execute("select a from t", &QueryOptions::new()).unwrap();
        assert_eq!(
            out.rows.len(),
            2,
            "the database keeps answering after {entry}"
        );
    }
}
