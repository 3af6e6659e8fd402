//! `EXPLAIN ANALYZE` on the paper's running example (Query Q of
//! Section 2): a golden test of the annotated Algorithm-1 plan, the
//! accounting invariants the per-operator counters must satisfy, which
//! plan artifacts each option produces, and the analyzed plan of every
//! strategy on Query Q and the six TPC-H classes.

use nra::obs;
use nra::storage::Value;
use nra::tpch::paper_example::{rst_catalog, QUERY_Q};
use nra::tpch::TpchConfig;
use nra::tpch::{generate, q1_agg_sql, q1_sql, q2_sql, q3_sql, ExistsKind, Q3Corr, Quant};
use nra::{Database, Engine, NraError, QueryOptions, Strategy};

fn db() -> Database {
    Database::from_catalog(rst_catalog())
}

/// `EXPLAIN ANALYZE` through the unified API: profile + simulated I/O
/// under the Original strategy, reading the rendered analyzed plan.
fn analyze(db: &Database) -> String {
    db.connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new()
                .strategy(Strategy::Original)
                .collect_profile(true)
                .simulate_io(true),
        )
        .unwrap()
        .plan
        .unwrap()
}

/// The deterministic skeleton of the analyzed plan: operator shapes and
/// cardinalities are fixed by the catalog; only timings vary run to run.
#[test]
fn analyzed_paper_plan_matches_golden_text() {
    let text = analyze(&db());
    for expected in [
        // Root projection passes the two answer tuples through.
        "π (root select)  (rows=2→2, ",
        // Outer linking selection: three nested tuples in, r1 and r3 out.
        "σ r.b <> ALL {s.e}  (rows=3→2, ",
        "pass=2 fail=1 unknown=0",
        // Inner *pseudo*-selection: s1 fails, s3 is unknown — both are
        // NULL-padded rather than discarded, so 3 rows stay 3 rows.
        "σ̄ s.h > ALL {t.j}  (rows=3→3, ",
        "pass=1 fail=1 unknown=1, padded=2",
        // Both nests keep every prefix group.
        "groups=3",
        // The unnesting outer joins and the base scans with their local
        // predicates.
        "⟕ r.d = s.g  (rows=6→3, ",
        "⟕ t.k = r.c ∧ t.l <> s.i  (rows=8→3, ",
        "T1 = r | σ r.a > 1  (rows=4→3, ",
        "T2 = s | σ s.f = 5  (rows=4→3, ",
        "T3 = t  (rows=5→5, ",
        // Footer: the hand-derived answer has two rows, and the scans
        // were charged to the I/O simulator.
        "-- 2 row(s); total operator time ",
        "sequential page(s)",
    ] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }
}

/// Every operator node of the plan must carry measured rows and a
/// non-zero timing — nothing may render as `(not executed)`.
#[test]
fn every_operator_node_is_annotated() {
    let text = analyze(&db());
    let plan_lines: Vec<&str> = text.lines().filter(|l| !l.starts_with("--")).collect();
    assert_eq!(plan_lines.len(), 10, "plan shape changed:\n{text}");
    for line in plan_lines {
        assert!(!line.contains("not executed"), "dead node: {line}");
        assert!(line.contains("(rows="), "no row counts: {line}");
        let annotation = &line[line.find("(rows=").unwrap()..];
        let time = annotation
            .split(", ")
            .nth(1)
            .unwrap_or_else(|| panic!("no timing field: {line}"))
            .trim_end_matches(')');
        assert!(
            time.ends_with("ns")
                || time.ends_with("µs")
                || time.ends_with("ms")
                || time.ends_with('s'),
            "unparsable timing {time:?}: {line}"
        );
        assert!(!time.starts_with("0n"), "zero timing: {line}");
    }
}

/// Cardinality feedback: every operator node renders the planner's
/// estimate next to the measured actual as `est=… act=… (×err)`.
#[test]
fn every_operator_node_carries_cardinality_feedback() {
    let text = analyze(&db());
    for line in text.lines().filter(|l| !l.starts_with("--")) {
        assert!(line.contains("est="), "no estimate: {line}");
        assert!(line.contains(" act="), "no actual: {line}");
        assert!(line.contains("(×"), "no Q-error factor: {line}");
    }
}

/// The estimator covers every node of Query Q's plan: a node the
/// estimator misses renders the explicit `est=?` placeholder (instead
/// of silently omitting the estimate), and none may appear here.
#[test]
fn no_node_renders_the_missing_estimate_placeholder() {
    let text = analyze(&db());
    assert!(
        !text.contains("est=?"),
        "estimator coverage gap on Query Q:\n{text}"
    );
    assert!(!text.contains("not executed"), "dead node:\n{text}");
}

/// The nest operator emits exactly one nested tuple per group.
#[test]
fn nest_rows_out_equals_group_count() {
    let database = db();
    let profile = database
        .connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new()
                .strategy(Strategy::Original)
                .collect_profile(true),
        )
        .unwrap()
        .profile
        .unwrap();
    let nests: Vec<_> = profile
        .ops
        .iter()
        .filter(|(name, _)| name.contains("nest["))
        .collect();
    assert!(nests.len() >= 2, "Query Q nests twice: {:?}", profile.ops);
    for (name, stats) in nests {
        assert_eq!(
            stats.rows_out, stats.nest_groups,
            "{name} emits one tuple per group"
        );
        assert!(stats.group_card_hist.iter().sum::<u64>() == stats.nest_groups);
    }
}

/// Pseudo-selection pads exactly the tuples whose linking predicate did
/// not pass (FALSE and UNKNOWN alike), instead of discarding them.
#[test]
fn padded_tuples_equal_failing_tuples() {
    let database = db();
    let profile = database
        .connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new()
                .strategy(Strategy::Original)
                .collect_profile(true),
        )
        .unwrap()
        .profile
        .unwrap();
    let padded: Vec<_> = profile
        .ops
        .iter()
        .filter(|(_, stats)| stats.padded > 0)
        .collect();
    assert!(
        !padded.is_empty(),
        "Query Q pseudo-selects: {:?}",
        profile.ops
    );
    for (name, stats) in padded {
        assert_eq!(
            stats.padded,
            stats.fail + stats.unknown,
            "{name} pads each non-passing tuple exactly once"
        );
        assert_eq!(stats.rows_in, stats.rows_out, "{name} discards nothing");
    }
}

/// With the collector off, a plain query arms none (so its instrumented
/// operators record nothing), and `explain_analyze` leaves the collector
/// off once it returns.
#[test]
fn counters_stay_zero_when_disabled() {
    let database = db();
    assert!(!obs::is_enabled());
    database
        .connect()
        .execute_with(QUERY_Q, &QueryOptions::new())
        .unwrap();
    assert!(!obs::is_enabled(), "a plain query arms no collector");

    analyze(&database);
    assert!(
        !obs::is_enabled(),
        "profile collection restores disabled state"
    );
}

/// Plan artifacts: `explain_only` renders without executing; the analyzed
/// plan appears exactly when a profile is collected, under `Auto` as under
/// a forced strategy.
#[test]
fn plan_artifacts_follow_options() {
    let db = db();
    let q = QUERY_Q;

    let out = db
        .connect()
        .execute_with(q, &QueryOptions::new().explain_only(true))
        .unwrap();
    assert!(out.plan.is_some());
    assert!(out.rows.is_empty());
    assert!(out.profile.is_none());

    let analyzed = db
        .connect()
        .execute_with(
            q,
            &QueryOptions::new()
                .strategy(Strategy::Original)
                .collect_profile(true),
        )
        .unwrap();
    assert!(
        analyzed.plan.is_some(),
        "analyzed plan for Original + profile"
    );
    assert!(analyzed.profile.is_some());

    let auto = db
        .connect()
        .execute_with(q, &QueryOptions::new().collect_profile(true))
        .unwrap();
    let plan = auto.plan.expect("analyzed plan for Auto + profile");
    assert!(plan.contains("υ one sort by the T1, T2 rids"), "{plan}");

    let plain = db
        .connect()
        .execute_with(q, &QueryOptions::new().strategy(Strategy::Original))
        .unwrap();
    assert!(plain.plan.is_none(), "no plan without a profile");
    assert!(!plain.rows.is_empty());
}

/// A query that collects its own profile sets the caller's collector
/// aside and restores it with everything it had collected.
#[test]
fn profiled_query_restores_the_callers_collector() {
    let database = db();
    let outer = obs::enter(obs::Observers {
        profile: true,
        ..Default::default()
    });
    obs::span(|| "caller-before".to_string()).rows_out(1);
    let inner = analyze(&database);
    assert!(inner.contains("rows=2→2"), "{inner}");
    assert!(obs::is_enabled(), "the caller's collector is armed again");
    obs::span(|| "caller-after".to_string()).rows_out(2);
    let outer = outer.finish().expect("collector armed");
    let names: Vec<&str> = outer.ops.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["caller-before", "caller-after"],
        "the caller's profile holds its own spans and none of the query's"
    );
    assert!(!obs::is_enabled());
}

/// `EXPLAIN` prints the plan the requested strategy builds, and refuses a
/// strategy exactly as running the query under it does.
#[test]
fn explain_builds_the_requested_strategy() {
    let session = db().connect();
    let explain = |strategy| {
        let opts = QueryOptions::new().strategy(strategy);
        let explained = session.execute_with(QUERY_Q, &opts.clone().explain_only(true));
        (explained, session.execute_with(QUERY_Q, &opts))
    };

    let (explained, ran) = explain(Strategy::Original);
    let text = explained.unwrap().plan.unwrap();
    assert!(
        text.starts_with("nested relational: Algorithm 1 (two-pass);"),
        "{text}"
    );
    assert_eq!(text.matches("υ nest by prefix").count(), 2, "{text}");
    assert!(!text.contains("one pass with the σ"), "{text}");
    assert_eq!(ran.unwrap().rows.len(), 2);

    let (explained, _) = explain(Strategy::Auto);
    let text = explained.unwrap().plan.unwrap();
    assert!(
        text.starts_with("nested relational: single-sort pipelined cascade;"),
        "{text}"
    );

    let flat = session.execute_with("select r.a from r", &QueryOptions::new().explain_only(true));
    let flat = flat.unwrap().plan.unwrap();
    assert!(
        flat.contains("; baseline (System A): plain scan and project"),
        "{flat}"
    );

    for strategy in [Strategy::BottomUpPushdown, Strategy::PositiveRewrite] {
        let (explained, ran) = explain(strategy);
        let (Err(NraError::Engine(explained)), Err(NraError::Engine(ran))) = (explained, ran)
        else {
            panic!(
                "{} must refuse Query Q when explained and run",
                strategy.name()
            );
        };
        assert_eq!(explained.variant_name(), "unsupported");
        assert_eq!(explained.to_string(), ran.to_string());
    }
}

/// Query Q and the six TPC-H classes at a tiny scale.
fn corpus() -> Vec<(&'static str, Database, String)> {
    let cat = generate(&TpchConfig::tiny().nullable_links(0.02));
    let classes = [
        ("q1", q1_sql(&cat, 160)),
        ("q2a", q2_sql(&cat, Quant::Any, 480, 160)),
        ("q2b", q2_sql(&cat, Quant::All, 480, 160)),
        (
            "q3b",
            q3_sql(
                &cat,
                Quant::All,
                ExistsKind::NotExists,
                Q3Corr::NeEq,
                480,
                160,
            ),
        ),
        (
            "q3c",
            q3_sql(&cat, Quant::Any, ExistsKind::Exists, Q3Corr::EqNe, 480, 160),
        ),
        ("q1agg", q1_agg_sql(&cat, 160)),
    ];
    let tpch = Database::from_catalog(cat);
    let mut corpus = vec![("query-q", db(), QUERY_Q.to_string())];
    corpus.extend(classes.map(|(class, sql)| (class, tpch.clone(), sql)));
    corpus
}

/// `EXPLAIN ANALYZE` renders the plan that ran under every strategy whose
/// builder accepts the query: every line read a profile entry, every
/// profile entry was read by a line, and the root π emitted the result.
#[test]
fn every_strategy_renders_the_plan_that_ran() {
    let mut analyzed = 0;
    for (class, db, sql) in corpus() {
        let bound = db.prepare(&sql).unwrap();
        for strategy in [Strategy::Auto].into_iter().chain(Strategy::ALL) {
            let engine = Engine::NestedRelational(strategy);
            if nra::core::build(bound.clone().into(), engine).is_err() {
                continue;
            }
            let opts = QueryOptions::new().strategy(strategy).collect_profile(true);
            let out = db.connect().execute_with(&sql, &opts).unwrap();
            let what = format!("{class} under {}", strategy.name());
            let text = out.plan.unwrap_or_else(|| panic!("no plan for {what}"));
            assert!(!text.contains("(not executed)"), "{what}:\n{text}");
            assert!(!text.contains("-- outside the plan"), "{what}:\n{text}");
            let emitted = (text.lines().next().unwrap())
                .strip_prefix("π (root select)  (rows=")
                .and_then(|rest| rest.split_once('→'))
                .and_then(|(_, rest)| rest.split_once(", "))
                .map(|(rows_out, _)| rows_out.to_string());
            assert_eq!(emitted, Some(out.rows.len().to_string()), "{what}:\n{text}");
            analyzed += 1;
        }
    }
    // `Auto`, `Optimized` and `Original` accept every query.
    assert!(analyzed >= 7 * 3, "only {analyzed} analyzed plans");
}

/// The `rows_out` of an analyzed plan line (`…  (rows=IN→OUT, …`).
fn rows_out(line: &str) -> Option<usize> {
    let (_, rest) = line.split_once("  (rows=")?;
    let (_, rest) = rest.split_once('→')?;
    rest.split([',', ')']).next()?.parse().ok()
}

/// A `UNION ALL` of a negative and a positive arm, sorted and cut, and an
/// `EXCEPT` of two positive arms, over the paper's example tables.
const COMPOUND: [(&str, &str, [&str; 2], &str); 2] = [
    (
        "union all",
        "∪ union all",
        [
            "select r.b from r where r.b not in (select s.e from s where s.g = r.d)",
            "select s.e from s where exists (select * from t where t.k = s.f)",
        ],
        " order by 1 desc limit 3",
    ),
    (
        "except",
        "− except",
        [
            "select r.d from r where exists (select * from s where s.g = r.d)",
            "select s.g from s where s.i in (select t.l from t where t.j > 4)",
        ],
        "",
    ),
];

/// Whole statements have one plan under every engine: `EXPLAIN` and
/// `EXPLAIN ANALYZE` show both arms, the set operation, the sort and the
/// limit; each arm's lines read its own profile entries; and a repeat runs
/// the plan the cache holds for that engine.
#[test]
fn compound_statements_render_every_arm() {
    let db = db();
    let session = db.connect();
    let engines = [Strategy::Auto]
        .into_iter()
        .chain(Strategy::ALL)
        .map(Engine::NestedRelational)
        .chain([Engine::Baseline, Engine::Reference]);
    for (op, setop, arms, tail) in COMPOUND {
        let sql = format!("{} {op} {}{tail}", arms[0], arms[1]);
        let bound = || {
            let query = nra::sql::parse_query(&sql).unwrap();
            nra::sql::bind_statement(&query, &db.catalog()).unwrap()
        };
        let mut names = Vec::new();
        for engine in engines.clone() {
            let Ok(plan) = nra::core::build(bound(), engine) else {
                continue;
            };
            names.push(Value::Str(plan.engine().name().to_string()));
            let opts = QueryOptions::new().engine(engine);
            let what = format!("`{sql}` under {engine:?}");

            let explained = session.execute_with(&sql, &opts.clone().explain_only(true));
            let explained = explained.unwrap().plan.unwrap();
            for part in ["a1: ", "a2: ", setop] {
                assert!(explained.contains(part), "{part:?} in {what}:\n{explained}");
            }

            let out = session
                .execute_with(&sql, &opts.clone().collect_profile(true))
                .unwrap();
            let text = out.plan.unwrap_or_else(|| panic!("no plan for {what}"));
            assert!(!text.contains("(not executed)"), "{what}:\n{text}");
            let top = text.lines().next().unwrap();
            assert_eq!(rows_out(top), Some(out.rows.len()), "{what}:\n{text}");
            for part in [setop, "sort by r.b desc", "limit 3"] {
                let shown = text.lines().any(|l| l.trim_start().starts_with(part));
                assert_eq!(
                    shown,
                    part == setop || !tail.is_empty(),
                    "{part:?}: {what}:\n{text}"
                );
            }

            // Each arm's root line reports what that arm alone returns:
            // the two arms' operators were recorded apart.
            let roots: Vec<usize> = (text.lines())
                .filter(|l| {
                    let l = l.trim_start();
                    ["π (root select)", "baseline (System A)", "reference ("]
                        .iter()
                        .any(|root| l.starts_with(root))
                })
                .map(|l| rows_out(l).unwrap())
                .collect();
            let alone = arms.map(|arm| session.execute_with(arm, &opts).unwrap().rows.len());
            assert_eq!(roots, alone, "{what}:\n{text}");
            let profile = out.profile.unwrap();
            for (name, _) in &profile.ops {
                let statement_level = ["sort", "limit", "a2/setop["];
                assert!(
                    name.starts_with("a1/")
                        || name.starts_with("a2/")
                        || statement_level.iter().any(|s| name.starts_with(s)),
                    "{name} in {what}"
                );
            }

            // The repeat is a hit on this engine's plan.
            let hits = || {
                obs::metrics::global()
                    .snapshot()
                    .counter_total("nra_plan_cache_hits_total")
            };
            let before = hits();
            session.execute_with(&sql, &opts).unwrap();
            assert!(hits() > before, "{what}: a repeat hits the cache");
        }
        assert!(
            names.len() >= 5,
            "{sql}: only {} engines plan it",
            names.len()
        );

        // One cache row per (statement, engine), naming that engine's
        // plan, each hit once.
        let statement = nra::sql::normalize::normalize(&sql);
        let cached = session
            .execute("select statement, strategy, hits from nra_sys.plan_cache")
            .unwrap();
        let rows: Vec<_> = (cached.rows.rows().iter())
            .filter(|r| r[0] == Value::Str(statement.clone()))
            .collect();
        let strategies: Vec<Value> = rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(strategies, names, "{sql}");
        assert!(rows.iter().all(|r| r[2] == Value::Int(1)), "{rows:?}");
    }
}
