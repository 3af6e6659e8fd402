//! The copy-free read path end to end: a block's scan carries only the
//! columns the rest of the query compares (`BoundTable::carry`), the root's
//! select-only columns (`BoundTable::select_only`) are fetched by row id
//! for the survivors, and every strategy, the baseline and every batch
//! width still agree with the tuple-iteration oracle — which keeps its own full-width scan and shares none of this
//! code.
//!
//! The tables deliberately hold columns that are only ever filtered on
//! (`w`, `z`, `v`) and string columns nothing compares (`pad`, NULL in
//! places), so a scan that dropped a needed column, kept the wrong
//! positions or gathered from the wrong row shows up as a wrong answer or
//! an unresolved name, not as a slower query.

use nra::core::compute::{owned_columns, rid_column};
use nra::core::optimize::pipeline::unnest_join_phase;
use nra::engine::EngineError;
use nra::tpch::{generate, q3_sql, ExistsKind, Q3Corr, Quant, TpchConfig};
use nra::{Database, Engine, NraError, QueryOptions, Strategy};
use nra_storage::{Column, ColumnType, Relation, Value};

fn int(v: i64) -> Value {
    Value::Int(v)
}

/// `r(a, pad, b, w)`, `s(x, y, pad, z)`, `t(u, v)`: small domains so joins
/// match, NULLs in the linking and correlation columns.
fn db() -> Database {
    let db = Database::new();
    let nullable = |name: &str| Column::new(name, ColumnType::Int);
    let text = |name: &str| Column::new(name, ColumnType::Str);
    db.create_table(
        "r",
        vec![nullable("a"), text("pad"), nullable("b"), nullable("w")],
        &[],
    )
    .unwrap();
    db.create_table(
        "s",
        vec![nullable("x"), nullable("y"), text("pad"), nullable("z")],
        &[],
    )
    .unwrap();
    db.create_table("t", vec![nullable("u"), nullable("v")], &[])
        .unwrap();
    let maybe = |i: i64, every: i64, v: i64| if i % every == 0 { Value::Null } else { int(v) };
    db.insert(
        "r",
        (1..=24)
            .map(|i| {
                vec![
                    maybe(i, 11, i % 5),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("r-{i}\t"))
                    },
                    maybe(i, 7, i % 6),
                    int(i % 3),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.insert(
        "s",
        (1..=20)
            .map(|i| {
                vec![
                    maybe(i, 9, i % 5),
                    maybe(i, 6, (i * 3) % 7),
                    Value::str(format!("s-{i}")),
                    int(i % 4),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.insert(
        "t",
        (1..=14)
            .map(|i| vec![maybe(i, 8, i % 5), int(i % 4)])
            .collect(),
    )
    .unwrap();
    db
}

const ENGINES: [(&str, Engine); 7] = [
    ("baseline", Engine::Baseline),
    ("original", Engine::NestedRelational(Strategy::Original)),
    ("optimized", Engine::NestedRelational(Strategy::Optimized)),
    ("auto", Engine::NestedRelational(Strategy::Auto)),
    ("bottom-up", Engine::NestedRelational(Strategy::BottomUp)),
    (
        "pushdown",
        Engine::NestedRelational(Strategy::BottomUpPushdown),
    ),
    (
        "positive",
        Engine::NestedRelational(Strategy::PositiveRewrite),
    ),
];

/// Run `sql` under one engine, or `None` when the strategy does not apply
/// to the query's shape.
fn run(db: &Database, sql: &str, engine: Engine) -> Option<Relation> {
    let opts = QueryOptions::new().engine(engine);
    match db.connect().execute_with(sql, &opts) {
        Ok(out) => Some(out.rows),
        Err(NraError::Engine(EngineError::Unsupported(_))) => None,
        Err(e) => panic!("{sql}\nfailed under {engine:?}: {e}"),
    }
}

/// Every engine × batch widths {1, 3, 1024} against the oracle. `ordered` demands the same row order too (`ORDER BY` queries
/// whose keys cover the whole output).
fn check(db: &Database, sql: &str, ordered: bool) {
    let oracle = run(db, sql, Engine::Reference).expect("the oracle runs everything");
    for width in [1, 3, 1024] {
        let _width = nra::engine::vec::set_batch_rows(Some(width));
        let mut applied = 0;
        for (name, engine) in ENGINES {
            let Some(got) = run(db, sql, engine) else {
                continue;
            };
            applied += 1;
            let same = if ordered {
                got.rows() == oracle.rows()
            } else {
                got.multiset_eq(&oracle)
            };
            assert!(
                same,
                "{name} (batch {width}) disagrees with the oracle on \
                 {sql}\ngot:\n{got}\noracle:\n{oracle}"
            );
        }
        assert!(
            applied >= 4,
            "baseline, original, optimized and auto always apply"
        );
    }
}

#[test]
fn computed_linking_and_linked_expressions() {
    let db = db();
    check(
        &db,
        "select a, b from r where w > 0 and a + b > all \
         (select y + 1 from s where s.x = r.a and z >= 1)",
        false,
    );
    check(
        &db,
        "select a, b from r where a - 1 < some (select y * 2 from s where s.x = r.a and z < 3)",
        false,
    );
    check(
        &db,
        "select a from r where b + 1 > (select max(y + x) from s where s.x = r.a and z > 0)",
        false,
    );
}

#[test]
fn exists_star_has_no_linked_attribute() {
    let db = db();
    check(
        &db,
        "select a, b from r where exists (select * from s where s.x = r.a and z = 1)",
        false,
    );
    // No correlation either: the inner block carries nothing but its rid.
    check(
        &db,
        "select a, b from r where w = 1 and not exists (select * from s where z > 5)",
        false,
    );
    check(
        &db,
        "select a from r where b > (select count(*) from s where s.x = r.a and z > 1)",
        false,
    );
}

#[test]
fn grandchild_correlation_to_the_root() {
    // r.a is mentioned by block 3 alone; blocks 1 and 2 never name it.
    check(
        &db(),
        "select b from r where w >= 0 and b not in (select y from s where z > 0 and s.y <> r.b \
         and s.y > all (select v from t where t.u = r.a and t.v <> s.x))",
        false,
    );
}

#[test]
fn one_table_used_twice() {
    let db = db();
    // `r` and (renamed by the binder) `r_2`, each with its own carry list.
    check(
        &db,
        "select a, b from r where b <= all (select b from r where w > 0 and a > 1)",
        false,
    );
    check(
        &db,
        "select a, b from r where b > all (select b from r r2 where r2.a = r.a and r2.w = 1)",
        false,
    );
}

#[test]
fn two_table_from_blocks() {
    let db = db();
    // Inner block: `s.x = t.u` and `t.v > 1` are local to the product, so
    // t carries nothing once the product is filtered.
    check(
        &db,
        "select a, b from r where b in \
         (select s.y from s, t where s.x = t.u and t.v > 1 and s.x = r.a)",
        false,
    );
    // Root block: carried columns come from both tables, w and v only filter.
    check(
        &db,
        "select r.a, t.u from r, t where r.a = t.u and r.w > 0 and t.v < 3 \
         and r.b > all (select y from s where s.x = t.u and z > 0)",
        false,
    );
}

#[test]
fn distinct_order_by_and_union() {
    let db = db();
    check(
        &db,
        "select distinct a from r where w < 2 and b not in (select y from s where s.x = r.a)",
        false,
    );
    check(
        &db,
        "select a, b from r where b >= some (select y from s where s.x = r.a and z > 0) \
         order by b desc, a",
        true,
    );
    check(
        &db,
        "select a from r where w > 0 and b in (select y from s where s.x = r.a) \
         union select u from t where v > 0 and not exists (select * from s where s.x = t.u and z = 2)",
        false,
    );
}

/// `pad` (NULL in every fifth row) is read by nothing but the final
/// `select`: the scan leaves it in storage and the projection fetches it
/// at the survivor's rid.
#[test]
fn late_gather_of_select_only_columns() {
    let db = db();
    // NULLs in the late column, beside a column both selected and compared
    // (carried, not late).
    check(
        &db,
        "select pad, a from r where w > 0 and b not in (select y from s where s.x = r.a)",
        false,
    );
    // `w + b` computes over columns nothing else mentions: carried.
    check(
        &db,
        "select w + b, pad from r where a in (select x from s where z > 0)",
        false,
    );
    // A column selected twice, and every column at once.
    check(
        &db,
        "select pad, b, pad from r where b >= some (select y from s where s.x = r.a)",
        false,
    );
    check(
        &db,
        "select * from r where b > all (select y from s where s.x = r.a and z > 0)",
        false,
    );
    // The same table at the root (late `pad`, `w`) and in the subquery.
    check(
        &db,
        "select pad, w from r where b > all (select b from r r2 where r2.a = r.a and r2.w = 1)",
        false,
    );
    // A two-table root carries what it selects: nothing is late.
    check(
        &db,
        "select r.pad, t.v from r, t where r.a = t.u and r.w > 0 \
         and r.b > all (select y from s where s.x = t.u and z > 0)",
        false,
    );
}

#[test]
fn late_gather_under_distinct_order_by_and_union() {
    let db = db();
    check(
        &db,
        "select distinct w from r where a in (select x from s where z > 0)",
        false,
    );
    // A total order on a late column (ties — the NULL pads — differ in w
    // or are identical rows).
    check(
        &db,
        "select pad, w from r where a in (select x from s where z > 0) order by pad desc, w",
        true,
    );
    check(
        &db,
        "select pad from r where a in (select x from s where z > 0) \
         union select pad from s where y in (select v from t)",
        false,
    );
}

#[test]
fn late_gather_keeps_duplicate_root_rows_apart() {
    // Identical stored rows are distinct rids: each survivor fetches its
    // own copy, and the multiplicities of the answer are the oracle's.
    let db = db();
    db.create_table(
        "d",
        vec![
            Column::new("k", ColumnType::Int),
            Column::new("name", ColumnType::Str),
        ],
        &[],
    )
    .unwrap();
    let row = |k: i64, name: Option<&str>| vec![int(k), name.map_or(Value::Null, Value::str)];
    db.insert(
        "d",
        vec![
            row(1, Some("x")),
            row(1, Some("x")),
            row(2, None),
            row(9, Some("never")),
            row(2, None),
            row(1, Some("x")),
            row(3, Some("")),
        ],
    )
    .unwrap();
    let sql = "select name from d where k in (select x from s where z > 0)";
    check(&db, sql, false);
    let got = run(&db, sql, Engine::NestedRelational(Strategy::Auto)).unwrap();
    let count = |v: &Value| got.rows().iter().filter(|r| r[0].group_eq(v)).count();
    assert_eq!(count(&Value::str("x")), 3);
    assert_eq!(count(&Value::Null), 2);
    assert_eq!(count(&Value::str("never")), 0);
}

/// The late columns really are absent from the intermediate, and present
/// when there is no rid to fetch them by.
#[test]
fn select_only_columns_stay_out_of_the_reduced_root() {
    let db = db();
    let bound = db
        .prepare(
            "select pad, a, w from r where w > 0 and b not in (select y from s where s.x = r.a)",
        )
        .unwrap();
    let cat = db.catalog();
    let root = &bound.root;
    assert_eq!(root.tables[0].carry, [0, 2], "a and b are compared");
    assert_eq!(root.tables[0].select_only, [1, 3], "pad and w are read out");
    let with_rid = nra::engine::planning::block_base(root, &cat, true).unwrap();
    assert_eq!(with_rid.schema().names(), ["r.a", "r.b", "__b1.rid"]);
    let rids: Vec<Value> = with_rid.rows().iter().map(|r| r[2].clone()).collect();
    // The rid is the stored row ordinal, not the survivor's: w = i % 3
    // filters out every third row and leaves gaps.
    let survivors = (1..=24).filter(|i| i % 3 != 0).map(|i| int(i - 1));
    assert_eq!(rids, survivors.collect::<Vec<_>>());
    let without = nra::engine::planning::block_base(root, &cat, false).unwrap();
    assert_eq!(without.schema().names(), ["r.a", "r.pad", "r.b", "r.w"]);
    let flat = unnest_join_phase(&bound, &cat).unwrap();
    assert!(flat.schema().try_resolve("r.pad").is_none());
}

fn names(rel: &Relation, idx: &[usize]) -> Vec<String> {
    idx.iter()
        .map(|&i| rel.schema().column(i).name.clone())
        .collect()
}

/// σ̄ pads "the owner's columns": after this change that is exactly the
/// owner's carried columns plus its rid — nothing else of the block is in
/// the intermediate to pad.
#[test]
fn pseudo_selection_pads_exactly_the_owners_carried_columns() {
    let db = db();
    let bound = db
        .prepare(
            "select b from r where w >= 0 and b not in (select y from s where z > 0 and s.x = r.a \
             and s.y > all (select v from t where t.u = s.x))",
        )
        .unwrap();
    let cat = db.catalog();
    let flat = unnest_join_phase(&bound, &cat).unwrap();
    let s_block = &bound.root.children[0].block;
    assert_eq!(
        names(&flat, &owned_columns(flat.schema(), s_block)),
        ["s.x", "s.y", "__b2.rid"]
    );
    assert_eq!(
        names(&flat, &owned_columns(flat.schema(), &bound.root)),
        ["r.a", "r.b", "__b1.rid"]
    );
}

/// The observable proof that nothing else is copied: the flat intermediate
/// of the benchmark's 3-level class holds the 7 compared columns (of 20)
/// and the three synthesized row ids. `p_name`, which only the final
/// `select` reads, stays in storage.
#[test]
fn unnest_join_phase_of_q3b_holds_carried_columns_and_rids_only() {
    let cat = generate(&TpchConfig::scaled(0.01));
    let sql = q3_sql(
        &cat,
        Quant::All,
        ExistsKind::NotExists,
        Q3Corr::NeEq,
        480,
        160,
    );
    let bound = nra::sql::parse_and_bind(&sql, &cat).unwrap();
    let flat = unnest_join_phase(&bound, &cat).unwrap();
    let expected = [
        "part.p_partkey",
        "part.p_retailprice",
        &rid_column(1),
        "partsupp.ps_partkey",
        "partsupp.ps_suppkey",
        "partsupp.ps_supplycost",
        &rid_column(2),
        "lineitem.l_partkey",
        "lineitem.l_suppkey",
        &rid_column(3),
    ];
    assert_eq!(flat.schema().names(), expected);
    assert!(!flat.is_empty());
}
