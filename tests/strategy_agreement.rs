//! Property-based agreement tests: random small databases (with NULLs)
//! and randomly shaped nested queries; every execution strategy must match
//! the tuple-iteration oracle. Formerly proptest; now seeded-deterministic
//! so the suite runs with no external crates. The corpora deliberately
//! include NULL join keys (σ̄-padded tuples, NULL-key nest groups) and
//! empty inputs.

use nra::engine::EngineError;
use nra::{Database, Engine, QueryOptions, Strategy as NraStrategy};
use nra_storage::rng::Pcg32;
use nra_storage::{Column, ColumnType, Relation, Value};

/// A cell: small domain so joins actually match; `None` is NULL.
fn cell(rng: &mut Pcg32) -> Option<i64> {
    if rng.bool(1.0 / 9.0) {
        None
    } else {
        Some(rng.range_i64(0, 5))
    }
}

fn rows(rng: &mut Pcg32) -> Vec<(Option<i64>, Option<i64>)> {
    let n = rng.index(10);
    (0..n).map(|_| (cell(rng), cell(rng))).collect()
}

fn to_value(v: Option<i64>) -> Value {
    match v {
        Some(i) => Value::Int(i),
        None => Value::Null,
    }
}

/// A randomly chosen linking predicate, rendered into SQL.
#[derive(Debug, Clone, Copy)]
enum Link {
    Exists,
    NotExists,
    In,
    NotIn,
    Quant(&'static str, &'static str),
    /// Aggregate-subquery comparison: `outer op agg(inner)`.
    Agg(&'static str, &'static str),
}

const CMP_OPS: [&str; 6] = ["<", "<=", ">", ">=", "=", "<>"];

// Without the `*` clippy suggests, `choose`'s element type would be
// inferred as unsized `str`.
#[allow(clippy::explicit_auto_deref)]
fn link(rng: &mut Pcg32) -> Link {
    match rng.index(6) {
        0 => Link::Exists,
        1 => Link::NotExists,
        2 => Link::In,
        3 => Link::NotIn,
        4 => Link::Quant(*rng.choose(&CMP_OPS), *rng.choose(&["some", "all"])),
        _ => Link::Agg(
            *rng.choose(&CMP_OPS),
            *rng.choose(&["min", "max", "sum", "avg", "count"]),
        ),
    }
}

impl Link {
    /// `"{outer} LINK (select {inner} from ... where {body})"`.
    fn render(self, outer: &str, inner: &str, from: &str, body: &str) -> String {
        match self {
            Link::Exists => format!("exists (select * from {from} where {body})"),
            Link::NotExists => format!("not exists (select * from {from} where {body})"),
            Link::In => format!("{outer} in (select {inner} from {from} where {body})"),
            Link::NotIn => format!("{outer} not in (select {inner} from {from} where {body})"),
            Link::Quant(op, q) => {
                format!("{outer} {op} {q} (select {inner} from {from} where {body})")
            }
            Link::Agg(op, f) => {
                format!("{outer} {op} (select {f}({inner}) from {from} where {body})")
            }
        }
    }
}

/// Correlation shape of an inner block.
#[derive(Debug, Clone, Copy)]
enum Corr {
    None,
    /// Equality to the adjacent outer block.
    AdjacentEq,
    /// Non-equality to the adjacent outer block.
    AdjacentNe,
    /// Equality to the root block (non-adjacent for depth-2 blocks).
    RootEq,
}

fn corr(rng: &mut Pcg32) -> Corr {
    // Weights mirror the old proptest distribution: 1/4/2/2.
    match rng.index(9) {
        0 => Corr::None,
        1..=4 => Corr::AdjacentEq,
        5 | 6 => Corr::AdjacentNe,
        _ => Corr::RootEq,
    }
}

fn db_from(
    t0: &[(Option<i64>, Option<i64>)],
    t1: &[(Option<i64>, Option<i64>)],
    t2: &[(Option<i64>, Option<i64>)],
) -> Database {
    let db = Database::new();
    for (name, cols, data) in [
        ("t0", ("a", "b"), t0),
        ("t1", ("c", "d"), t1),
        ("t2", ("e", "f"), t2),
    ] {
        db.create_table(
            name,
            vec![
                Column::new(cols.0, ColumnType::Int),
                Column::new(cols.1, ColumnType::Int),
            ],
            &[],
        )
        .unwrap();
        db.insert(
            name,
            data.iter()
                .map(|&(x, y)| vec![to_value(x), to_value(y)])
                .collect(),
        )
        .unwrap();
    }
    db
}

fn corr_sql(corr: Corr, inner_col: &str, outer_col: &str) -> Option<String> {
    match corr {
        Corr::None => None,
        Corr::AdjacentEq | Corr::RootEq => Some(format!("{inner_col} = {outer_col}")),
        Corr::AdjacentNe => Some(format!("{inner_col} <> {outer_col}")),
    }
}

fn run(db: &Database, sql: &str, engine: Engine) -> Relation {
    db.connect()
        .execute_with(sql, &QueryOptions::new().engine(engine))
        .unwrap()
        .rows
}

/// Compare every applicable strategy against the oracle on one query, at
/// batch widths {1, 3, 1024}. A strategy is skipped only when its builder
/// refuses the query.
fn check_all(db: &Database, sql: &str) {
    let bound = match db.prepare(sql) {
        Ok(b) => b,
        Err(e) => panic!("query failed to bind: {sql}: {e}"),
    };
    let mut engines = vec![
        Engine::Baseline,
        Engine::NestedRelational(NraStrategy::Auto),
    ];
    for strategy in NraStrategy::ALL {
        match nra::core::build(bound.clone().into(), Engine::NestedRelational(strategy)) {
            Err(EngineError::Unsupported(_)) => {}
            built => {
                built.unwrap_or_else(|e| panic!("{} fails to plan {sql}: {e}", strategy.name()));
                engines.push(Engine::NestedRelational(strategy));
            }
        }
    }
    for width in [1, 3, 1024] {
        let _width = nra::engine::vec::set_batch_rows(Some(width));
        let oracle = run(db, sql, Engine::Reference);
        for &engine in &engines {
            let got = run(db, sql, engine);
            assert!(
                got.multiset_eq(&oracle),
                "{engine:?} disagrees with oracle at batch width {width} on {sql}\n\
                 got:\n{got}\noracle:\n{oracle}"
            );
        }
    }
}

/// One-level nested queries: every link operator × correlation shape.
#[test]
fn one_level_queries_agree() {
    let mut rng = Pcg32::new(0x5eed_3001);
    for _case in 0..64 {
        let t0 = rows(&mut rng);
        let t1 = rows(&mut rng);
        let lk = link(&mut rng);
        let cr = corr(&mut rng);
        let with_local = rng.bool(0.5);

        let db = db_from(&t0, &t1, &[]);
        let mut body_parts = Vec::new();
        if let Some(c) = corr_sql(cr, "t1.c", "t0.a") {
            body_parts.push(c);
        }
        if with_local {
            body_parts.push("t1.d >= 1".to_string());
        }
        if body_parts.is_empty() {
            body_parts.push("1 = 1".to_string());
        }
        let sql = format!(
            "select a, b from t0 where {}",
            lk.render("t0.b", "t1.d", "t1", &body_parts.join(" and "))
        );
        check_all(&db, &sql);
    }
}

/// Two-level chains: link × link × correlation (including non-adjacent
/// correlation back to the root, the paper's Query Q / Query 3 shape).
#[test]
fn two_level_queries_agree() {
    let mut rng = Pcg32::new(0x5eed_3002);
    for _case in 0..64 {
        let t0 = rows(&mut rng);
        let t1 = rows(&mut rng);
        let t2 = rows(&mut rng);
        let lk1 = link(&mut rng);
        let lk2 = link(&mut rng);
        let cr1 = corr(&mut rng);
        let cr2 = corr(&mut rng);

        let db = db_from(&t0, &t1, &t2);
        let inner_corr = match cr2 {
            Corr::RootEq => corr_sql(cr2, "t2.e", "t0.a"),
            other => corr_sql(other, "t2.e", "t1.c"),
        };
        let inner_body = inner_corr.unwrap_or_else(|| "1 = 1".to_string());
        let inner = lk2.render("t1.d", "t2.f", "t2", &inner_body);
        let mid_corr = corr_sql(cr1, "t1.c", "t0.a");
        let mid_body = match mid_corr {
            Some(c) => format!("{c} and {inner}"),
            None => inner,
        };
        let sql = format!(
            "select a, b from t0 where {}",
            lk1.render("t0.b", "t1.d", "t1", &mid_body)
        );
        check_all(&db, &sql);
    }
}

/// Tree queries: two subqueries hanging off the root.
#[test]
fn tree_queries_agree() {
    let mut rng = Pcg32::new(0x5eed_3003);
    for _case in 0..64 {
        let t0 = rows(&mut rng);
        let t1 = rows(&mut rng);
        let t2 = rows(&mut rng);
        let lk1 = link(&mut rng);
        let lk2 = link(&mut rng);
        let cr1 = corr(&mut rng);
        let cr2 = corr(&mut rng);

        let db = db_from(&t0, &t1, &t2);
        let b1 = corr_sql(cr1, "t1.c", "t0.a").unwrap_or_else(|| "1 = 1".to_string());
        let b2 = corr_sql(cr2, "t2.e", "t0.b").unwrap_or_else(|| "1 = 1".to_string());
        let sql = format!(
            "select a, b from t0 where {} and {}",
            lk1.render("t0.b", "t1.d", "t1", &b1),
            lk2.render("t0.a", "t2.f", "t2", &b2)
        );
        check_all(&db, &sql);
    }
}

/// The paper's Query Q over the Section 2 example catalog: every strategy
/// agrees with the oracle.
#[test]
fn paper_query_q_agreement() {
    let db = Database::from_catalog(nra::tpch::paper_example::rst_catalog());
    check_all(&db, nra::tpch::paper_example::QUERY_Q);
}

/// Empty inputs: empty outer, empty inner, and both — with positive and
/// negative links.
#[test]
fn empty_relation_agreement() {
    type Rows = [(Option<i64>, Option<i64>)];
    let cases: [(&Rows, &Rows); 3] = [
        (&[], &[(Some(1), Some(2)), (None, Some(0))]),
        (&[(Some(1), Some(2)), (Some(0), None)], &[]),
        (&[], &[]),
    ];
    for (t0, t1) in cases {
        let db = db_from(t0, t1, &[]);
        for sql in [
            "select a, b from t0 where b > all (select d from t1 where t1.c = t0.a)",
            "select a, b from t0 where b not in (select d from t1 where t1.c = t0.a)",
            "select a, b from t0 where exists (select * from t1 where t1.c = t0.a)",
        ] {
            check_all(&db, sql);
        }
    }
}

/// All-NULL join keys: every tuple lands in the NULL nest group and the
/// outer join pads everything.
#[test]
fn null_key_agreement() {
    let t0: Vec<(Option<i64>, Option<i64>)> = (0..8).map(|i| (None, Some(i % 3))).collect();
    let t1: Vec<(Option<i64>, Option<i64>)> = (0..6)
        .map(|i| (None, if i % 2 == 0 { None } else { Some(i) }))
        .collect();
    let db = db_from(&t0, &t1, &[]);
    for sql in [
        "select a, b from t0 where b > all (select d from t1 where t1.c = t0.a)",
        "select a, b from t0 where b in (select d from t1 where t1.c = t0.a)",
        "select a, b from t0 where not exists (select * from t1 where t1.c = t0.a)",
    ] {
        check_all(&db, sql);
    }
}
