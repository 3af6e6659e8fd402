//! The aggregate-subquery extension: `A θ (SELECT agg(B) ...)` evaluated
//! through the same nested relational machinery (the set is folded instead
//! of quantified). Includes the classical "count bug" scenario that naive
//! unnesting rewrites get wrong.

use nra::{Database, Engine, QueryOptions, Strategy};
use nra_storage::{Column, ColumnType, Value};

fn db() -> Database {
    let db = Database::new();
    db.create_table(
        "dept",
        vec![
            Column::not_null("dno", ColumnType::Int),
            Column::new("budget", ColumnType::Int),
        ],
        &["dno"],
    )
    .unwrap();
    db.insert(
        "dept",
        vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(2), Value::Int(50)],
            vec![Value::Int(3), Value::Int(0)],
            vec![Value::Int(4), Value::Null],
        ],
    )
    .unwrap();
    db.create_table(
        "emp",
        vec![
            Column::not_null("eid", ColumnType::Int),
            Column::new("dno", ColumnType::Int),
            Column::new("salary", ColumnType::Int),
        ],
        &["eid"],
    )
    .unwrap();
    db.insert(
        "emp",
        vec![
            vec![Value::Int(10), Value::Int(1), Value::Int(40)],
            vec![Value::Int(11), Value::Int(1), Value::Int(30)],
            vec![Value::Int(12), Value::Int(2), Value::Int(60)],
            vec![Value::Int(13), Value::Int(2), Value::Null],
        ],
    )
    .unwrap();
    db
}

fn engines() -> Vec<(&'static str, Engine)> {
    vec![
        ("oracle", Engine::Reference),
        ("baseline", Engine::Baseline),
        ("nr-original", Engine::NestedRelational(Strategy::Original)),
        (
            "nr-optimized",
            Engine::NestedRelational(Strategy::Optimized),
        ),
        ("nr-auto", Engine::NestedRelational(Strategy::Auto)),
    ]
}

fn check(db: &Database, sql: &str, expected_rows: usize) {
    for (name, engine) in engines() {
        let out = db
            .connect()
            .execute_with(sql, &QueryOptions::new().engine(engine))
            .unwrap()
            .rows;
        assert_eq!(
            out.len(),
            expected_rows,
            "{name} returned wrong cardinality for {sql}:\n{out}"
        );
    }
}

#[test]
fn sum_subquery() {
    // budget > sum of its employees' salaries (NULL salaries skipped):
    // dept 1: 100 > 70 ✓; dept 2: 50 > 60 ✗; dept 3: empty -> SUM NULL ->
    // unknown ✗; dept 4: NULL > ... unknown ✗.
    check(
        &db(),
        "select dno from dept where budget > (select sum(salary) from emp where emp.dno = dept.dno)",
        1,
    );
}

#[test]
fn max_and_min_subqueries() {
    // budget > max(salary): dept 1: 100 > 40 ✓; dept 2: 50 > 60 ✗.
    check(
        &db(),
        "select dno from dept where budget > (select max(salary) from emp where emp.dno = dept.dno)",
        1,
    );
    // budget < min(salary): dept 1: 100 < 30 ✗; dept 2: 50 < 60 ✓.
    check(
        &db(),
        "select dno from dept where budget < (select min(salary) from emp where emp.dno = dept.dno)",
        1,
    );
}

#[test]
fn count_star_with_empty_groups() {
    // The "count bug" scenario: departments with zero employees must
    // compare against COUNT(*) = 0, not vanish.
    check(
        &db(),
        "select dno from dept where 0 = (select count(*) from emp where emp.dno = dept.dno)",
        2, // depts 3 and 4
    );
    check(
        &db(),
        "select dno from dept where 2 = (select count(*) from emp where emp.dno = dept.dno)",
        2, // depts 1 and 2
    );
}

#[test]
fn count_column_skips_nulls() {
    // COUNT(salary): dept 2 has 2 employees but only 1 non-NULL salary.
    check(
        &db(),
        "select dno from dept where 1 = (select count(salary) from emp where emp.dno = dept.dno)",
        1, // dept 2
    );
}

#[test]
fn avg_subquery() {
    // budget > avg(salary): dept 1: 100 > 35 ✓; dept 2: 50 > 60 ✗.
    check(
        &db(),
        "select dno from dept where budget > (select avg(salary) from emp where emp.dno = dept.dno)",
        1,
    );
}

#[test]
fn negated_aggregate_comparison() {
    // NOT (budget > sum(...)) = budget <= sum(...): dept 2 only (dept 3's
    // empty SUM is NULL -> unknown -> still rejected; 3VL preserved).
    check(
        &db(),
        "select dno from dept where not budget > (select sum(salary) from emp where emp.dno = dept.dno)",
        1,
    );
}

#[test]
fn aggregate_below_another_subquery() {
    // Two-level: employees earning more than their department's average.
    let db = db();
    // eid 10: 40 > avg(40,30)=35 ✓; eid 11: 30 > 35 ✗;
    // eid 12: 60 > avg(60)=60 ✗; eid 13: NULL ✗.
    check(
        &db,
        "select eid from emp where salary > (select avg(salary) from emp e2 where e2.dno = emp.dno)",
        1,
    );
}

#[test]
fn explain_shows_aggregate_link() {
    let db = db();
    let bq = db
        .prepare("select dno from dept where budget > (select max(salary) from emp where emp.dno = dept.dno)")
        .unwrap();
    let plan = nra_core::build(bq.into(), Engine::default()).unwrap();
    let tree = plan.tree_expression().concat();
    assert!(tree.contains("max{"), "got: {tree}");
}

#[test]
fn binder_rejects_misplaced_aggregates() {
    let db = db();
    let opts = QueryOptions::new();
    assert!(db
        .connect()
        .execute_with("select max(budget) from dept", &opts)
        .is_err());
    assert!(db
        .connect()
        .execute_with(
            "select dno from dept where budget in (select max(salary) from emp)",
            &opts
        )
        .is_err());
    assert!(db
        .connect()
        .execute_with(
            "select dno from dept where budget > (select salary from emp)",
            &opts
        )
        .is_err());
}

#[test]
fn uncorrelated_aggregate() {
    // budget > global max salary (60): dept 1 only.
    check(
        &db(),
        "select dno from dept where budget > (select max(salary) from emp)",
        1,
    );
}
