//! Compound queries (`UNION`/`INTERSECT`/`EXCEPT [ALL]`) with `ORDER BY`
//! and `LIMIT`, evaluated through the facade over the set-operation
//! algebra, and the errors the facade reports.

use nra::storage::{Column, ColumnType, Value};
use nra::{Database, Engine, NraError, QueryOptions, Strategy};

fn db() -> Database {
    let db = Database::new();
    for name in ["t", "u"] {
        db.create_table(
            name,
            vec![
                Column::not_null("k", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
            &["k"],
        )
        .unwrap();
    }
    db.insert(
        "t",
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(3), Value::Null],
        ],
    )
    .unwrap();
    db.insert(
        "u",
        vec![
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(4), Value::Int(40)],
            vec![Value::Int(5), Value::Null],
        ],
    )
    .unwrap();
    db
}

fn q(db: &Database, sql: &str) -> nra_storage::Relation {
    db.connect()
        .execute_with(sql, &QueryOptions::new())
        .unwrap()
        .rows
}

#[test]
fn union_dedups_across_blocks() {
    let out = q(&db(), "select v from t union select v from u");
    // {10, 20, NULL, 40} — set semantics merge the NULLs and the 20s.
    assert_eq!(out.len(), 4);
}

#[test]
fn union_all_keeps_everything() {
    let out = q(&db(), "select v from t union all select v from u");
    assert_eq!(out.len(), 6);
}

#[test]
fn intersect_and_except() {
    let db = db();
    let i = q(&db, "select k, v from t intersect select k, v from u");
    assert_eq!(i.len(), 1, "only (2, 20) is in both");
    let e = q(&db, "select k from t except select k from u");
    assert_eq!(e.len(), 2, "k = 1 and 3");
}

#[test]
fn order_by_and_limit() {
    let out = q(&db(), "select k, v from t order by v desc limit 2");
    assert_eq!(out.len(), 2);
    assert_eq!(out.rows()[0][1], Value::Int(20), "descending: 20 first");
    // Positional ORDER BY.
    let by_pos = q(&db(), "select k, v from t order by 1 desc");
    assert_eq!(by_pos.rows()[0][0], Value::Int(3));
    // Ascending puts NULL first (total order).
    let asc = q(&db(), "select v from t order by v");
    assert!(asc.rows()[0][0].is_null());
}

#[test]
fn compound_arms_can_hold_subqueries() {
    let db = db();
    let sql = "select k from t where v > all (select v from u where u.k = t.k) \
               union select k from u where not exists \
                 (select * from t t2 where t2.k = u.k)";
    let oracle = db
        .connect()
        .execute_with(sql, &QueryOptions::new().engine(Engine::Reference))
        .unwrap()
        .rows;
    for engine in [
        Engine::Baseline,
        Engine::NestedRelational(Strategy::Original),
        Engine::NestedRelational(Strategy::Optimized),
    ] {
        let got = db
            .connect()
            .execute_with(sql, &QueryOptions::new().engine(engine))
            .unwrap()
            .rows;
        assert!(got.multiset_eq(&oracle), "{engine:?}");
    }
}

#[test]
fn errors_surface() {
    let db = db();
    let opts = QueryOptions::new();
    assert!(
        db.connect()
            .execute_with("select k, v from t union select k from u", &opts)
            .is_err(),
        "arity"
    );
    assert!(db
        .connect()
        .execute_with("select k from t order by nope", &opts)
        .is_err());
    assert!(db
        .connect()
        .execute_with("select k from t limit -1", &opts)
        .is_err());
    // prepare() remains single-block only.
    assert!(db.prepare("select k from t union select k from u").is_err());
}

/// A statement that can never run — an unknown or out-of-range `ORDER BY`
/// key, arms of different arities — fails in the binder: a SQL error
/// before any work, recorded with outcome `sql`, never cached, and refused
/// by `Session::prepare`.
#[test]
fn statements_that_cannot_run_fail_at_bind() {
    let db = db();
    let mut session = db.connect();
    for sql in [
        "select k from t order by nope",
        "select k, v from t order by 3",
        "select k, v from t union select k from u",
    ] {
        for _ in 0..2 {
            let err = session.execute(sql).unwrap_err();
            assert!(matches!(err, NraError::Sql(_)), "{sql}: {err}");
        }
        assert!(session.prepare("p", sql).is_err(), "{sql}");
        let statement = Value::Str(nra::sql::normalize::normalize(sql));
        let cached = session
            .execute("select statement from nra_sys.plan_cache")
            .unwrap();
        assert!(
            !cached.rows.rows().iter().any(|r| r[0] == statement),
            "{sql} is cached"
        );
        let recorded = session
            .execute("select sql, outcome from nra_sys.queries")
            .unwrap();
        let outcomes: Vec<&Value> = (recorded.rows.rows().iter())
            .filter(|r| r[0] == statement)
            .map(|r| &r[1])
            .collect();
        let sql_error = Value::Str("sql".to_string());
        assert_eq!(outcomes, [&sql_error, &sql_error], "{sql}");
    }
}

#[test]
fn display_roundtrip_compound() {
    let q = nra_sql::parse_query(
        "select k from t union all select k from u order by k desc, v limit 3",
    )
    .unwrap();
    let again = nra_sql::parse_query(&q.to_string()).unwrap();
    assert_eq!(q, again);
}

/// `NraError` chains sources down to the underlying layer error.
#[test]
fn errors_chain_to_their_sources() {
    let db = Database::new();
    let err = db
        .connect()
        .execute_with("select * from nowhere", &QueryOptions::new())
        .unwrap_err();
    let mut depth = 0;
    let mut cur: Option<&dyn std::error::Error> = Some(&err);
    while let Some(e) = cur {
        depth += 1;
        cur = e.source();
    }
    assert!(depth >= 2, "expected a chained source, got depth {depth}");
    assert!(err.to_string().contains("nowhere"));
}
