//! Property-based agreement tests: random small databases (with NULLs)
//! and randomly shaped nested queries; every execution strategy must match
//! the tuple-iteration oracle, in memory and — for a seeded subset — over
//! a durable database checkpointed and reopened, and a repeat of a query
//! is a plan-cache hit under every engine. Metamorphic oracles check
//! equivalent spellings of a link against each other, conjunct order, and
//! bag conservativity (doubling rows), oracle included.
//! Formerly proptest; now seeded-deterministic so the suite runs with no
//! external crates. The corpora deliberately include NULL join keys
//! (σ̄-padded tuples, NULL-key nest groups) and empty inputs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// `<` to the adjacent outer block.
    AdjacentLt,
    /// `>` to the adjacent outer block.
    AdjacentGt,
    /// Equality to the root block (non-adjacent for depth-2 blocks).
    RootEq,
}

fn corr(rng: &mut Pcg32) -> Corr {
    // Weights: the old proptest distribution's 1/4/2/2, plus 1 each for
    // `<` and `>`.
    match rng.index(11) {
        0 => Corr::None,
        1..=4 => Corr::AdjacentEq,
        5 | 6 => Corr::AdjacentNe,
        7 => Corr::AdjacentLt,
        8 => Corr::AdjacentGt,
        _ => Corr::RootEq,
    }
}

type Rows = [(Option<i64>, Option<i64>)];

fn db_from(t0: &Rows, t1: &Rows, t2: &Rows) -> Database {
    fill(Database::new(), t0, t1, t2)
}

fn fill(db: Database, t0: &Rows, t1: &Rows, t2: &Rows) -> Database {
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
        Corr::AdjacentLt => Some(format!("{inner_col} < {outer_col}")),
        Corr::AdjacentGt => Some(format!("{inner_col} > {outer_col}")),
    }
}

/// A durable database holding the same tables: created and filled
/// through the write-ahead log, checkpointed, and reopened from the
/// snapshot. Its directory goes with it.
struct Reopened {
    db: Database,
    dir: PathBuf,
}

impl Reopened {
    fn new(t0: &Rows, t1: &Rows, t2: &Rows) -> Reopened {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("nra-agree-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = fill(Database::open(&dir).unwrap(), t0, t1, t2);
        db.checkpoint().unwrap();
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert_eq!(
            db.recovery().unwrap().replayed,
            0,
            "the snapshot holds every row"
        );
        Reopened { db, dir }
    }
}

impl Drop for Reopened {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Every `DURABLE_EVERY`-th generated case also runs over a [`Reopened`]
/// copy of its tables.
const DURABLE_EVERY: usize = 8;

/// [`check_all`] on `db`, and on a reopened durable copy of its tables
/// for every [`DURABLE_EVERY`]-th case.
fn check_case(case: usize, db: &Database, tables: [&Rows; 3], sql: &str) {
    check_all(db, sql);
    if case.is_multiple_of(DURABLE_EVERY) {
        let [t0, t1, t2] = tables;
        check_all(&Reopened::new(t0, t1, t2).db, sql);
    }
}

fn run(db: &Database, sql: &str, engine: Engine) -> Relation {
    db.connect()
        .execute_with(sql, &QueryOptions::new().engine(engine))
        .unwrap()
        .rows
}

/// The baseline, `Auto`, and every strategy whose builder accepts `sql`.
fn engines_for(db: &Database, sql: &str) -> Vec<Engine> {
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
    engines
}

/// Compare every applicable strategy against the oracle on one query, at
/// batch widths {1, 3, 1024}. A strategy is skipped only when its builder
/// refuses the query. The width-1 run plans and caches each engine's
/// plan; the width-3 and width-1024 runs must be plan-cache hits.
fn check_all(db: &Database, sql: &str) {
    let engines = engines_for(db, sql);
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
    assert_every_engine_hit(db, sql, engines.len() + 1);
}

/// `nra_sys.plan_cache` holds `engines` entries for `sql`, one per engine
/// (the oracle's included), each hit by the two runs after the first.
fn assert_every_engine_hit(db: &Database, sql: &str, engines: usize) {
    let statement = Value::str(nra::sql::normalize::normalize(sql));
    let cache = db
        .connect()
        .execute("select statement, strategy, hits from nra_sys.plan_cache")
        .unwrap()
        .rows;
    let mine: Vec<_> = (cache.rows().iter())
        .filter(|r| r[0] == statement)
        .collect();
    assert_eq!(mine.len(), engines, "one cache entry per engine for {sql}");
    for r in mine {
        assert_eq!(r[2], Value::Int(2), "{} missed the cache on {sql}", r[1]);
    }
}

/// One generated one-level case: the outer and inner tables and the
/// subquery body (correlation and an optional local predicate).
struct OneLevel {
    t0: Vec<(Option<i64>, Option<i64>)>,
    t1: Vec<(Option<i64>, Option<i64>)>,
    body: String,
}

/// Draws in the order `one_level_queries_agree` always has: the tables,
/// then `before_corr` (its link), then the correlation and the local
/// predicate.
fn one_level<T>(rng: &mut Pcg32, before_corr: impl FnOnce(&mut Pcg32) -> T) -> (OneLevel, T) {
    let t0 = rows(rng);
    let t1 = rows(rng);
    let drawn = before_corr(rng);
    let cr = corr(rng);
    let with_local = rng.bool(0.5);
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
    let body = body_parts.join(" and ");
    (OneLevel { t0, t1, body }, drawn)
}

/// One-level nested queries: every link operator × correlation shape.
#[test]
fn one_level_queries_agree() {
    let mut rng = Pcg32::new(0x5eed_3001);
    for case in 0..64 {
        let (c, lk) = one_level(&mut rng, link);
        let db = db_from(&c.t0, &c.t1, &[]);
        let sql = format!(
            "select a, b from t0 where {}",
            lk.render("t0.b", "t1.d", "t1", &c.body)
        );
        check_case(case, &db, [&c.t0, &c.t1, &[]], &sql);
    }
}

/// Metamorphic oracles over the one-level generator: spellings of one
/// link that SQL defines as equivalent return the same multiset under
/// every engine, the oracle included — `IN` and `= SOME`; `NOT IN`,
/// `<> ALL` and `NOT (… IN …)`; `EXISTS` and `0 < count(*)`; `NOT EXISTS`
/// and `0 = count(*)`.
#[test]
fn one_level_equivalent_spellings_agree() {
    let mut rng = Pcg32::new(0x5eed_3004);
    for _case in 0..48 {
        let (c, ()) = one_level(&mut rng, |_| ());
        let db = db_from(&c.t0, &c.t1, &[]);
        let q = |select: &str| format!("(select {select} from t1 where {})", c.body);
        let families = [
            vec![
                format!("t0.b in {}", q("t1.d")),
                format!("t0.b = some {}", q("t1.d")),
            ],
            vec![
                format!("t0.b not in {}", q("t1.d")),
                format!("t0.b <> all {}", q("t1.d")),
                format!("not (t0.b in {})", q("t1.d")),
            ],
            vec![
                format!("exists {}", q("*")),
                format!("0 < {}", q("count(*)")),
            ],
            vec![
                format!("not exists {}", q("*")),
                format!("0 = {}", q("count(*)")),
            ],
        ];
        for family in families {
            let mut first: Option<(String, Relation)> = None;
            for pred in family {
                let sql = format!("select a, b from t0 where {pred}");
                let mut engines = engines_for(&db, &sql);
                engines.push(Engine::Reference);
                for engine in engines {
                    let got = run(&db, &sql, engine);
                    match &first {
                        None => first = Some((sql.clone(), got)),
                        Some((anchor, want)) => assert!(
                            got.multiset_eq(want),
                            "{engine:?} on {sql}\ndisagrees with {anchor}\n\
                             got:\n{got}\nwant:\n{want}"
                        ),
                    }
                }
            }
        }
    }
}

/// Every engine that plans `sql` on `db`, the oracle included, returns
/// `want`, the anchor `why` derives.
fn assert_every_engine_returns(db: &Database, sql: &str, want: &Relation, why: &str) {
    let mut engines = engines_for(db, sql);
    engines.push(Engine::Reference);
    for engine in engines {
        let got = run(db, sql, engine);
        assert!(
            got.multiset_eq(want),
            "{engine:?} on {sql}\ndisagrees with {why}\ngot:\n{got}\nwant:\n{want}"
        );
    }
}

/// Every row of `rows` twice.
fn doubled<T: Clone>(rows: &[T]) -> Vec<T> {
    rows.iter().chain(rows).cloned().collect()
}

/// A generated tree query: its tables and its two subquery conjuncts.
struct Tree {
    t0: Vec<(Option<i64>, Option<i64>)>,
    t1: Vec<(Option<i64>, Option<i64>)>,
    t2: Vec<(Option<i64>, Option<i64>)>,
    first: String,
    second: String,
}

impl Tree {
    /// Both links drawn from `links`, as `tree_queries_agree` draws them.
    fn new(rng: &mut Pcg32, links: fn(&mut Pcg32) -> Link) -> Tree {
        let (t0, t1, t2) = (rows(rng), rows(rng), rows(rng));
        let (lk1, lk2) = (links(rng), links(rng));
        let b1 = corr_sql(corr(rng), "t1.c", "t0.a").unwrap_or_else(|| "1 = 1".to_string());
        let b2 = corr_sql(corr(rng), "t2.e", "t0.b").unwrap_or_else(|| "1 = 1".to_string());
        let first = lk1.render("t0.b", "t1.d", "t1", &b1);
        let second = lk2.render("t0.a", "t2.f", "t2", &b2);
        Tree {
            t0,
            t1,
            t2,
            first,
            second,
        }
    }

    fn sql(&self) -> String {
        format!(
            "select a, b from t0 where {} and {}",
            self.first, self.second
        )
    }
}

/// Metamorphic oracle: `L1 and L2` and `L2 and L1` over a generated tree
/// query return the same multiset under every engine.
#[test]
fn tree_query_conjunct_order_is_irrelevant() {
    let mut rng = Pcg32::new(0x5eed_3005);
    for _case in 0..48 {
        let t = Tree::new(&mut rng, link);
        let db = db_from(&t.t0, &t.t1, &t.t2);
        let want = run(&db, &t.sql(), Engine::Reference);
        let swapped = format!("select a, b from t0 where {} and {}", t.second, t.first);
        assert_every_engine_returns(&db, &swapped, &want, &t.sql());
    }
}

/// Metamorphic oracle, bag conservativity (Ricciotti, *Mixing set and bag
/// semantics*): a subquery never reads the outer table's multiplicities,
/// so doubling every outer row doubles every output multiplicity.
#[test]
fn doubling_the_outer_table_doubles_every_multiplicity() {
    let mut rng = Pcg32::new(0x5eed_3006);
    for _case in 0..48 {
        let t = Tree::new(&mut rng, link);
        let once = run(&db_from(&t.t0, &t.t1, &t.t2), &t.sql(), Engine::Reference);
        let want = Relation::with_rows(once.schema().clone(), doubled(once.rows()));
        let db = db_from(&doubled(&t.t0), &t.t1, &t.t2);
        assert_every_engine_returns(&db, &t.sql(), &want, "the answer over t0 once, doubled");
    }
}

/// A link that reads its subquery as a set: every link but an aggregate
/// comparison, which becomes a quantified one.
fn set_link(rng: &mut Pcg32) -> Link {
    match link(rng) {
        Link::Agg(op, _) => Link::Quant(op, "some"),
        other => other,
    }
}

/// Metamorphic oracle: `EXISTS`, `IN` and the quantified comparisons read
/// their subquery as a set, so doubling every row of a table used only
/// below the root changes no answer.
#[test]
fn doubling_an_inner_table_changes_no_set_link() {
    let mut rng = Pcg32::new(0x5eed_3007);
    for case in 0..48 {
        let t = Tree::new(&mut rng, set_link);
        let want = run(&db_from(&t.t0, &t.t1, &t.t2), &t.sql(), Engine::Reference);
        let db = match case % 2 {
            0 => db_from(&t.t0, &doubled(&t.t1), &t.t2),
            _ => db_from(&t.t0, &t.t1, &doubled(&t.t2)),
        };
        assert_every_engine_returns(&db, &t.sql(), &want, "the answer before doubling");
    }
}

/// Two-level chains: link × link × correlation (including non-adjacent
/// correlation back to the root, the paper's Query Q / Query 3 shape).
#[test]
fn two_level_queries_agree() {
    let mut rng = Pcg32::new(0x5eed_3002);
    for case in 0..64 {
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
        check_case(case, &db, [&t0, &t1, &t2], &sql);
    }
}

/// Tree queries: two subqueries hanging off the root.
#[test]
fn tree_queries_agree() {
    let mut rng = Pcg32::new(0x5eed_3003);
    for case in 0..64 {
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
        check_case(case, &db, [&t0, &t1, &t2], &sql);
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
