//! The paper's evaluation queries on generated TPC-H data, timed across
//! engines — a miniature of the Section 5 experiments.
//!
//! ```sh
//! cargo run --release --example tpch_subqueries [scale]
//! ```
//!
//! `scale` (default `0.05`) multiplies the paper-experiment table sizes.

use std::time::Instant;

use nra::{Database, Engine, QueryOptions, Session, Strategy};
use nra_tpch::{generate, q1_sql, q2_sql, q3_sql, ExistsKind, Q3Corr, Quant, TpchConfig};

fn time(session: &Session, sql: &str, engine: Engine) -> (usize, f64) {
    let start = Instant::now();
    let out = session
        .execute_with(sql, &QueryOptions::new().engine(engine))
        .expect("query runs");
    (out.rows.len(), start.elapsed().as_secs_f64())
}

fn run(session: &Session, label: &str, sql: &str) {
    println!("== {label}");
    let explain = session
        .execute_with(sql, &QueryOptions::new().explain_only(true))
        .unwrap();
    for line in explain.plan.unwrap().lines() {
        println!("   {line}");
    }
    let engines = [
        ("baseline (System A)", Engine::Baseline),
        ("NR original", Engine::NestedRelational(Strategy::Original)),
        (
            "NR optimized",
            Engine::NestedRelational(Strategy::Optimized),
        ),
        ("NR auto", Engine::NestedRelational(Strategy::Auto)),
    ];
    let mut expected = None;
    for (name, engine) in engines {
        let (rows, secs) = time(session, sql, engine);
        match expected {
            None => expected = Some(rows),
            Some(e) => assert_eq!(e, rows, "engines disagree!"),
        }
        println!("   {name:<22} {secs:>8.4}s   ({rows} rows)");
    }
    println!();
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    println!("generating TPC-H-shaped data at scale {scale} ...");
    let cfg = TpchConfig::scaled(scale);
    let db = Database::from_catalog(generate(&cfg));
    for t in ["orders", "lineitem", "part", "partsupp"] {
        println!("  {t}: {} rows", db.catalog().table(t).unwrap().len());
    }
    println!();
    let session = db.connect();

    let outer = (cfg.orders / 4).max(1);
    run(
        &session,
        "Query 1 (> ALL, one level)",
        &q1_sql(&db.catalog(), outer),
    );

    let part = (cfg.part / 4).max(1);
    let ps = (cfg.part * cfg.partsupp_per_part / 8).max(1);
    run(
        &session,
        "Query 2a (mixed ANY / NOT EXISTS, linear)",
        &q2_sql(&db.catalog(), Quant::Any, part, ps),
    );
    run(
        &session,
        "Query 2b (negative ALL / NOT EXISTS, linear)",
        &q2_sql(&db.catalog(), Quant::All, part, ps),
    );
    run(
        &session,
        "Query 3a(a) (mixed ALL / EXISTS, non-adjacent correlation)",
        &q3_sql(
            &db.catalog(),
            Quant::All,
            ExistsKind::Exists,
            Q3Corr::EqEq,
            part,
            ps,
        ),
    );
    run(
        &session,
        "Query 3b(a) (negative ALL / NOT EXISTS)",
        &q3_sql(
            &db.catalog(),
            Quant::All,
            ExistsKind::NotExists,
            Q3Corr::EqEq,
            part,
            ps,
        ),
    );
    run(
        &session,
        "Query 3c(a) (positive ANY / EXISTS)",
        &q3_sql(
            &db.catalog(),
            Quant::Any,
            ExistsKind::Exists,
            Q3Corr::EqEq,
            part,
            ps,
        ),
    );
}
