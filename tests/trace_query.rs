//! Query-lifecycle tracing on the paper's running example (Query Q of
//! Section 2): a golden test of the rendered span tree, the planner
//! decision log, the plan-cache and failure paths, and the disabled-path
//! guarantees.

use nra::obs::trace::Trace;
use nra::obs::{self, json::Json};
use nra::tpch::paper_example::{rst_catalog, QUERY_Q};
use nra::{Database, QueryOptions, Session};

fn db() -> Database {
    Database::from_catalog(rst_catalog())
}

/// Run traced through the unified API, returning (rows, trace).
fn traced(db: &Database, sql: &str) -> (nra::storage::Relation, Trace) {
    run_traced(&db.connect(), sql)
}

fn run_traced(session: &Session, sql: &str) -> (nra::storage::Relation, Trace) {
    let out = session
        .execute_with(sql, &QueryOptions::new().collect_trace(true))
        .unwrap();
    (out.rows, out.trace.unwrap())
}

/// The trace's JSONL, one parsed object per line.
fn lines(trace: &Trace) -> Vec<Json> {
    (trace.to_jsonl().lines())
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}")))
        .collect()
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or_default()
}

fn number(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

/// The lines of one event kind.
fn events(trace: &Trace, kind: &str) -> Vec<Json> {
    (lines(trace).into_iter())
        .filter(|doc| field(doc, "event") == kind)
        .collect()
}

/// The names of the phases the trace closed, in order.
fn phases(trace: &Trace) -> Vec<String> {
    (events(trace, "phase_done").iter())
        .map(|doc| field(doc, "phase").to_string())
        .collect()
}

/// The deterministic skeleton of the trace: the line sequence and every
/// count are fixed by the catalog; only timings vary run to run.
#[test]
fn paper_query_trace_matches_golden_tree() {
    let (rel, trace) = traced(&db(), QUERY_Q);
    assert_eq!(rel.len(), 2);
    let tree = trace.render_tree();
    for expected in [
        // Lifecycle bookends.
        "● query: select r.b, r.c, r.d from r",
        "● done: 2 row(s) in ",
        // Front-end phases, counting tokens and blocks.
        "▶ parse",
        "◀ parse done in ",
        "▶ bind",
        "◀ bind done in ",
        // The planner decision log: why the cascade, why not the others.
        "▶ plan",
        "· strategy[b1]: optimized — linear chain of 3 blocks",
        "rejected positive-rewrite: negative linking operator(s) `<> all`, `> all`",
        "rejected bottom-up-pushdown: correlated predicates reference a non-adjacent outer block",
        "· strategy[b2]: optimized — cascade level 1: linking predicate `<> all`",
        "· strategy[b3]: optimized — cascade level 2: linking predicate `> all`",
        // The §4.2.1 rewrite applied by the optimized strategy.
        "· rewrite single-sort-cascade: 10 → 9 node(s)",
        // Operators under the profile's qualified names.
        "• op scan: rows 4→3 in ",
        "• op b2/scan: rows 4→3 in ",
        "• op b2/join[left_outer]: rows 6→3 in ",
        "• op b3/scan: rows 5→5 in ",
        "• op b3/join[left_outer]: rows 8→3 in ",
        "• op nest[sort]: ",
        "• op project: rows 2→2 in ",
        "◀ execute done in ",
        "rows=2",
    ] {
        assert!(tree.contains(expected), "missing {expected:?} in:\n{tree}");
    }
    for (phase, rows) in [("parse", ", rows=79"), ("bind", ", rows=3")] {
        assert!(
            (tree.lines())
                .any(|l| l.starts_with(&format!("◀ {phase} done in ")) && l.ends_with(rows)),
            "{phase} counts {rows:?} in:\n{tree}"
        );
    }
}

/// Structured assertions: phases carry wall times and counts, and every
/// block gets a `strategy_chosen` line with a non-empty reason (the root
/// also names the rejected alternatives).
#[test]
fn trace_events_carry_phases_and_per_block_decisions() {
    let (_, trace) = traced(&db(), QUERY_Q);
    let done = events(&trace, "phase_done");
    assert_eq!(phases(&trace), ["parse", "bind", "plan", "execute"]);
    for doc in &done {
        let wall = number(doc, "wall_ns");
        assert!(
            wall.is_some_and(|ns| ns > 0),
            "{}: {wall:?}",
            field(doc, "phase")
        );
    }
    let rows: Vec<Option<u64>> = done.iter().map(|doc| number(doc, "rows")).collect();
    assert_eq!(
        rows,
        [Some(79), Some(3), None, Some(2)],
        "tokens, blocks, -, rows"
    );

    let strategies = events(&trace, "strategy_chosen");
    assert_eq!(strategies.len(), 3, "one decision per block");
    for (i, doc) in strategies.iter().enumerate() {
        assert_eq!(number(doc, "block"), Some(i as u64 + 1), "block order");
        assert_eq!(field(doc, "name"), "optimized");
        assert!(
            !field(doc, "reason").is_empty(),
            "block {} explains itself",
            i + 1
        );
        let alternatives = doc.get("alternatives").and_then(Json::as_arr).unwrap();
        if i == 0 {
            let named: Vec<&str> = alternatives.iter().map(|a| field(a, "name")).collect();
            assert_eq!(named, ["positive-rewrite", "bottom-up-pushdown"]);
            assert!(alternatives.iter().all(|a| !field(a, "reason").is_empty()));
        } else {
            assert!(alternatives.is_empty());
        }
    }

    let rewrite = &events(&trace, "rewrite_step")[0];
    assert_eq!(field(rewrite, "rule"), "single-sort-cascade");
    assert_eq!(number(rewrite, "nodes_before"), Some(10));
    assert_eq!(number(rewrite, "nodes_after"), Some(9));
    let end = &events(&trace, "query_end")[0];
    assert_eq!(number(end, "rows"), Some(2));
    assert!(number(end, "wall_ns").is_some_and(|ns| ns > 0));
}

/// The JSONL serialization of a real trace is valid line-delimited JSON
/// whose fields round-trip (including the SQL string with its quotes).
#[test]
fn trace_jsonl_round_trips_through_the_json_parser() {
    let sql = "select r.b, r.c, r.d from r where r.b not in \
               (select s.e from s where s.g = r.d and s.i <> 'x \"quoted\" \\ υ')";
    let (_, trace) = traced(&db(), sql);
    let mut kinds = Vec::new();
    for doc in lines(&trace) {
        assert!(number(&doc, "depth").is_some());
        kinds.push(field(&doc, "event").to_string());
        if doc.get("sql").is_some() {
            assert_eq!(field(&doc, "sql"), sql, "sql string survives escaping");
        }
    }
    for kind in [
        "query_start",
        "phase_start",
        "phase_done",
        "strategy_chosen",
        "op",
        "query_end",
    ] {
        assert!(
            kinds.iter().any(|k| k == kind),
            "missing {kind} in {kinds:?}"
        );
    }
}

/// Tracing is strictly opt-in: a plain query collects nothing, and a
/// traced one leaves no collector armed on return — including on error
/// paths.
#[test]
fn disabled_path_emits_nothing_and_trace_query_cleans_up() {
    let database = db();
    database
        .connect()
        .execute_with(QUERY_Q, &QueryOptions::new())
        .unwrap();
    assert!(!obs::is_enabled(), "plain query must not arm a collector");

    let (_, trace_out) = traced(&database, QUERY_Q);
    assert!(!trace_out.ops.is_empty());
    assert!(
        !obs::is_enabled(),
        "a traced run restores the disabled state"
    );

    // Error path: a parse failure still disarms the collector.
    assert!(database
        .connect()
        .execute_with("not sql at all", &QueryOptions::new().collect_trace(true))
        .is_err());
    assert!(!obs::is_enabled());

    // A subsequent traced run is unaffected by the failed one.
    let (rel, t2) = traced(&database, QUERY_Q);
    assert_eq!(rel.len(), 2);
    assert!(phases(&t2).iter().any(|p| p == "execute"));
}

/// A failed parse traces the attempt — the statement and the parse phase,
/// which counts no tokens — and no downstream phase and no end, in the
/// trace the error's report carries.
#[test]
fn failed_parse_traces_no_parsed_event() {
    let err = db()
        .connect()
        .execute_with(
            "select from where",
            &QueryOptions::new().collect_trace(true),
        )
        .unwrap_err();
    let trace = (err.report())
        .and_then(|report| report.trace.clone())
        .expect("a failed query returns its trace");
    assert_eq!(phases(&trace), ["parse"]);
    assert_eq!(number(&events(&trace, "phase_done")[0], "rows"), None);
    assert_eq!(
        field(&events(&trace, "query_start")[0], "sql"),
        "select from where"
    );
    assert!(events(&trace, "query_end").is_empty());
}

/// A second run of the same statement takes its plan from the plan
/// cache: its trace has no parse, bind or plan phase, says so on one
/// line, and still runs the plan.
#[test]
fn second_run_is_a_plan_cache_hit() {
    let session = db().connect();
    let (_, first) = run_traced(&session, QUERY_Q);
    assert!(!first.plan_cache_hit);
    let (rows, second) = run_traced(&session, QUERY_Q);
    assert_eq!(rows.len(), 2);
    assert_eq!(phases(&second), ["execute"]);
    let hits: Vec<Json> = (events(&second, "governor").into_iter())
        .filter(|doc| field(doc, "action") == "plan-cache")
        .collect();
    assert_eq!(hits.len(), 1, "{}", second.render_tree());
    assert_eq!(field(&hits[0], "detail"), "hit");
    assert_eq!(
        second.render_tree().matches("plan-cache at `hit`").count(),
        1
    );
}

/// Planning is timed on its own: the `plan` phase closes at depth 0
/// before `execute` opens, instead of nesting inside it.
#[test]
fn plan_closes_at_depth_0_before_execute_opens() {
    let (_, trace) = traced(&db(), QUERY_Q);
    let docs = lines(&trace);
    let at = |kind: &str, phase: &str| {
        (docs.iter())
            .position(|d| field(d, "event") == kind && field(d, "phase") == phase)
            .unwrap_or_else(|| panic!("no {kind} {phase}"))
    };
    let (plan_done, execute_start) = (at("phase_done", "plan"), at("phase_start", "execute"));
    assert!(plan_done < execute_start);
    for i in [plan_done, execute_start] {
        assert_eq!(number(&docs[i], "depth"), Some(0));
    }
    let tree = trace.render_tree();
    assert!(tree.contains("\n◀ plan done in "), "{tree}");
    assert!(tree.contains("\n▶ execute\n"), "{tree}");
}

/// A push-down candidate whose correlation is not an equality (or that
/// has none) is rejected when the plan is built: the trace names the
/// bottom-up plan that runs, lists the push-down among the rejected
/// alternatives, and never reports a fallback while running.
#[test]
fn push_down_rejection_happens_at_plan_time() {
    for (sql, why) in [
        (
            "select r.a from r where r.b not in (select s.e from s where s.g < r.a)",
            "not an equality",
        ),
        (
            "select r.a from r where r.b not in (select s.e from s)",
            "uncorrelated",
        ),
    ] {
        let (_, trace) = traced(&db(), sql);
        let strategies = events(&trace, "strategy_chosen");
        assert_eq!(strategies.len(), 2, "one decision per block: {sql}");
        for (i, doc) in strategies.iter().enumerate() {
            let reason = field(doc, "reason");
            assert_eq!(field(doc, "name"), "bottom-up", "{sql}");
            assert!(!reason.contains("runtime fallback"), "{sql}: {reason}");
            assert!(
                !reason.contains("equality correlation lets the nest commute"),
                "{sql}: {reason}"
            );
            if i == 0 {
                let alternatives = doc.get("alternatives").and_then(Json::as_arr).unwrap();
                let named: Vec<&str> = alternatives.iter().map(|a| field(a, "name")).collect();
                assert_eq!(named, ["positive-rewrite", "bottom-up-pushdown"], "{sql}");
                let reason = field(&alternatives[1], "reason");
                assert!(reason.contains(why), "{sql}: {reason}");
            }
        }
        assert!(!trace.render_tree().contains("nest-past-join"), "{sql}");
    }
}
