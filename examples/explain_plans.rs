//! EXPLAIN tour: the paper's tree expression (Figure 3a), the plan each
//! strategy builds — Algorithm 1's is the operator pipeline of Figure 3b —
//! the plan `Auto` runs, measured (`EXPLAIN ANALYZE`), and the
//! aggregate-subquery extension.
//!
//! ```sh
//! cargo run --example explain_plans
//! ```

use nra::storage::iosim::{self, IoConfig};
use nra::storage::{Column, ColumnType, Value};
use nra::{Database, Engine, QueryOptions, Session, Strategy};

fn show(session: &Session, sql: &str) {
    println!("== {sql}\n");
    let bq = session.database().prepare(sql).unwrap();
    let plan = nra::core::build(bq.into(), Engine::default()).unwrap();
    println!(
        "tree expression (paper Fig. 3a):\n{}",
        plan.tree_expression().concat()
    );
    for strategy in [Strategy::Auto, Strategy::Original] {
        let explain = session
            .execute_with(
                sql,
                &QueryOptions::new().strategy(strategy).explain_only(true),
            )
            .unwrap();
        println!("explain, {}:\n{}", strategy.name(), explain.plan.unwrap());
    }
    // The I/O simulator runs around the call, so the plan's footer
    // carries page counts.
    iosim::enable(IoConfig::default());
    let analyzed = session.execute_with(sql, &QueryOptions::new().collect_profile(true));
    iosim::disable();
    let analyzed = analyzed.unwrap();
    println!("explain analyze (measured):\n{}", analyzed.plan.unwrap());
    println!("result:\n{}\n", analyzed.rows);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    db.create_table(
        "products",
        vec![
            Column::not_null("pid", ColumnType::Int),
            Column::not_null("category", ColumnType::Int),
            Column::new("price", ColumnType::Decimal),
        ],
        &["pid"],
    )?;
    db.create_table(
        "sales",
        vec![
            Column::not_null("sid", ColumnType::Int),
            Column::not_null("pid", ColumnType::Int),
            Column::new("qty", ColumnType::Int),
        ],
        &["sid"],
    )?;
    db.insert(
        "products",
        vec![
            vec![Value::Int(1), Value::Int(10), Value::decimal(19, 99)],
            vec![Value::Int(2), Value::Int(10), Value::decimal(5, 49)],
            vec![Value::Int(3), Value::Int(20), Value::Null],
            vec![Value::Int(4), Value::Int(20), Value::decimal(99, 0)],
        ],
    )?;
    db.insert(
        "sales",
        vec![
            vec![Value::Int(100), Value::Int(1), Value::Int(3)],
            vec![Value::Int(101), Value::Int(1), Value::Int(5)],
            vec![Value::Int(102), Value::Int(2), Value::Int(1)],
        ],
    )?;

    let session = db.connect();

    // A negative linking operator: the paper's headline case.
    show(
        &session,
        "select pid from products where price > all \
         (select price from products p2 where p2.category = products.category \
          and p2.pid <> products.pid)",
    );

    // Mixed operators over two levels.
    show(
        &session,
        "select pid from products where pid in \
         (select pid from sales where qty < some \
            (select qty from sales s2 where s2.pid = sales.pid))",
    );

    // The aggregate extension: unsold or barely-sold products, by COUNT —
    // note the empty set must compare as 0 (the classical count bug).
    show(
        &session,
        "select pid from products where 1 >= \
         (select count(*) from sales where sales.pid = products.pid)",
    );

    // ... and products priced above their category's average.
    show(
        &session,
        "select pid from products where price > \
         (select avg(price) from products p2 where p2.category = products.category)",
    );
    Ok(())
}
