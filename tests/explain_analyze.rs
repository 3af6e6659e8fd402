//! `EXPLAIN ANALYZE` on the paper's running example (Query Q of
//! Section 2): a golden test of the annotated Algorithm-1 plan, the
//! accounting invariants the per-operator counters must satisfy, and
//! which plan artifacts each option produces.

use nra::obs;
use nra::tpch::paper_example::{rst_catalog, QUERY_Q};
use nra::{Database, QueryOptions, Strategy};

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

/// With the collector off, instrumented queries record nothing, and
/// `explain_analyze` leaves the collector off once it returns.
#[test]
fn counters_stay_zero_when_disabled() {
    let database = db();
    assert!(!obs::is_enabled());
    database
        .connect()
        .execute_with(QUERY_Q, &QueryOptions::new())
        .unwrap();
    let snap = obs::snapshot();
    assert!(snap.is_empty(), "disabled run must record nothing");
    assert!(snap.ops.is_empty());

    analyze(&database);
    assert!(
        !obs::is_enabled(),
        "profile collection restores disabled state"
    );
    assert!(obs::snapshot().is_empty());
}

/// Plan artifacts: `explain_only` renders without executing; the analyzed
/// plan appears exactly when a profile is collected under the Original
/// strategy.
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
    let outer = outer.finish().0.expect("collector armed");
    let names: Vec<&str> = outer.ops.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["caller-before", "caller-after"],
        "the caller's profile holds its own spans and none of the query's"
    );
    assert!(!obs::is_enabled());
}
