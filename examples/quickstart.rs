//! Quickstart: create tables, insert data (including NULLs), and run
//! nested subqueries through the nested relational engine.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use nra::storage::{Column, ColumnType, Value};
use nra::{Database, Engine, QueryOptions, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();

    // A tiny order-management schema.
    db.create_table(
        "customers",
        vec![
            Column::not_null("cid", ColumnType::Int),
            Column::not_null("name", ColumnType::Str),
            Column::new("credit_limit", ColumnType::Decimal),
        ],
        &["cid"],
    )?;
    db.create_table(
        "invoices",
        vec![
            Column::not_null("iid", ColumnType::Int),
            Column::not_null("cid", ColumnType::Int),
            Column::new("amount", ColumnType::Decimal),
        ],
        &["iid"],
    )?;

    db.insert(
        "customers",
        vec![
            vec![Value::Int(1), Value::str("ada"), Value::decimal(1000, 0)],
            vec![Value::Int(2), Value::str("grace"), Value::decimal(250, 0)],
            vec![Value::Int(3), Value::str("edsger"), Value::Null], // unknown limit
            vec![Value::Int(4), Value::str("barbara"), Value::decimal(500, 0)],
        ],
    )?;
    db.insert(
        "invoices",
        vec![
            vec![Value::Int(10), Value::Int(1), Value::decimal(900, 0)],
            vec![Value::Int(11), Value::Int(1), Value::decimal(90, 0)],
            vec![Value::Int(12), Value::Int(2), Value::decimal(300, 0)],
            vec![Value::Int(13), Value::Int(3), Value::decimal(100, 0)],
            vec![Value::Int(14), Value::Int(4), Value::Null], // amount in dispute
        ],
    )?;

    // Queries go through a session — the per-client handle the TCP
    // front end hands out one of per connection.
    let session = db.connect();

    // 1. Customers whose credit limit exceeds every single invoice they
    //    have — a correlated `> ALL` subquery, the case the paper shows
    //    commercial systems struggle to unnest.
    let sql_all = "select name from customers \
                   where credit_limit > all \
                     (select amount from invoices where invoices.cid = customers.cid)";
    println!("-- {sql_all}\n{}\n", session.execute(sql_all)?.rows);
    // ada: 1000 > {900, 90} -> yes. grace: 250 > {300} -> no.
    // edsger: NULL > {100} -> unknown -> no.
    // barbara: 500 > {NULL} -> unknown -> no (a disputed invoice blocks).

    // 2. Customers with no invoice at all (`NOT EXISTS` -> empty set).
    let sql_ne = "select name from customers \
                  where not exists (select * from invoices where invoices.cid = customers.cid)";
    println!("-- {sql_ne}\n{}\n", session.execute(sql_ne)?.rows);

    // 3. `NOT IN` with NULLs in the subquery result: one NULL amount makes
    //    the predicate unknown for every row — standard SQL, frequently
    //    surprising, handled uniformly here.
    let sql_ni = "select iid from invoices where amount not in \
                  (select amount from invoices i2 where i2.cid <> invoices.cid)";
    println!("-- {sql_ni}\n{}\n", session.execute(sql_ni)?.rows);

    // Every engine and strategy gives the same answer; `explain` shows
    // what each would do.
    let explain = session.execute_with(sql_all, &QueryOptions::new().explain_only(true))?;
    print!("explain:\n{}", explain.plan.unwrap());
    for engine in [
        Engine::Reference,
        Engine::Baseline,
        Engine::NestedRelational(Strategy::Original),
        Engine::NestedRelational(Strategy::Optimized),
    ] {
        let out = session.execute_with(sql_all, &QueryOptions::new().engine(engine))?;
        assert_eq!(out.rows.len(), 1, "all engines agree");
    }
    println!("\nall engines agree ✓");
    Ok(())
}
