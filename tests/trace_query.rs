//! Query-lifecycle tracing on the paper's running example (Query Q of
//! Section 2): a golden test of the span tree, the planner decision log,
//! and the disabled-path guarantees.

use nra::obs::trace::{self, TraceEvent};
use nra::obs::{self, json::Json};
use nra::tpch::paper_example::{rst_catalog, QUERY_Q};
use nra::{Database, QueryOptions};

fn db() -> Database {
    Database::from_catalog(rst_catalog())
}

/// Run traced through the unified API, returning (rows, trace).
fn traced(db: &Database, sql: &str) -> (nra::storage::Relation, nra::obs::trace::Trace) {
    let out = db
        .connect()
        .execute_with(sql, &QueryOptions::new().collect_trace(true))
        .unwrap();
    (out.rows, out.trace.unwrap())
}

/// The deterministic skeleton of the trace: the event sequence and every
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
        // Front-end phases with their summaries.
        "▶ parse",
        "· parsed: 79 token(s)",
        "◀ parse done in ",
        "▶ bind",
        "· bound: 3 block(s); links: <> all, > all",
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
        // Operators reuse the profile's qualified names, nested under
        // their block scopes.
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
}

/// Structured assertions: phases carry wall times, `Bound` carries the
/// linking operators, and every block gets a `StrategyChosen` with a
/// non-empty reason (the root also names the rejected alternatives).
#[test]
fn trace_events_carry_phases_and_per_block_decisions() {
    let (_, trace) = traced(&db(), QUERY_Q);
    for phase in ["parse", "bind", "plan", "execute"] {
        let wall = trace.phase_wall_ns(phase);
        assert!(wall.is_some_and(|ns| ns > 0), "phase {phase}: {wall:?}");
    }
    assert!(trace.events().any(|e| matches!(
        e,
        TraceEvent::Bound { blocks: 3, linking_ops }
            if linking_ops == &["<> all".to_string(), "> all".to_string()]
    )));

    let strategies = trace.strategy_events();
    assert_eq!(strategies.len(), 3, "one decision per block");
    for (i, event) in strategies.iter().enumerate() {
        let TraceEvent::StrategyChosen {
            block,
            name,
            reason,
            alternatives,
        } = event
        else {
            unreachable!()
        };
        assert_eq!(*block, i + 1, "decisions arrive in block order");
        assert_eq!(name, "optimized");
        assert!(!reason.is_empty(), "block {block} must explain itself");
        if i == 0 {
            let named: Vec<&str> = alternatives.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(named, ["positive-rewrite", "bottom-up-pushdown"]);
            assert!(alternatives.iter().all(|(_, why)| !why.is_empty()));
        } else {
            assert!(alternatives.is_empty());
        }
    }

    assert!(trace.events().any(|e| matches!(
        e,
        TraceEvent::RewriteStep { rule, nodes_before: 10, nodes_after: 9 }
            if rule == "single-sort-cascade"
    )));
    assert!(trace.events().any(|e| matches!(
        e,
        TraceEvent::QueryEnd { rows: 2, wall_ns } if *wall_ns > 0
    )));
}

/// The JSONL serialization of a real trace is valid line-delimited JSON
/// whose fields round-trip (including the SQL string with its quotes).
#[test]
fn trace_jsonl_round_trips_through_the_json_parser() {
    let sql = "select r.b, r.c, r.d from r where r.b not in \
               (select s.e from s where s.g = r.d and s.i <> 'x \"quoted\" \\ υ')";
    let (_, trace) = traced(&db(), sql);
    let jsonl = trace.to_jsonl();
    let mut kinds = Vec::new();
    for line in jsonl.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        assert!(doc.get("depth").and_then(Json::as_u64).is_some());
        kinds.push(doc.get("event").unwrap().as_str().unwrap().to_string());
        if let Some(s) = doc.get("sql") {
            assert_eq!(s.as_str().unwrap(), sql, "sql string survives escaping");
        }
    }
    for kind in [
        "query_start",
        "parsed",
        "bound",
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

/// Tracing is strictly opt-in: a plain `query()` emits nothing, installs
/// no sink, and `trace_query` leaves the tracer disabled on return —
/// including on error paths.
#[test]
fn disabled_path_emits_nothing_and_trace_query_cleans_up() {
    let database = db();
    assert!(!trace::enabled());
    database
        .connect()
        .execute_with(QUERY_Q, &QueryOptions::new())
        .unwrap();
    assert!(!trace::enabled(), "plain query must not install a tracer");
    // Nothing leaked into the collector either.
    assert!(obs::snapshot().is_empty());

    let (_, trace_out) = traced(&database, QUERY_Q);
    assert!(!trace_out.is_empty());
    assert_eq!(trace_out.dropped, 0);
    assert!(!trace::enabled(), "a traced run restores disabled state");
    assert!(
        !obs::is_enabled(),
        "trace collection does not enable the profiler"
    );

    // Error path: parse failure still uninstalls the tracer.
    assert!(database
        .connect()
        .execute_with("not sql at all", &QueryOptions::new().collect_trace(true))
        .is_err());
    assert!(!trace::enabled());

    // A subsequent traced run is unaffected by the failed one.
    let (rel, t2) = traced(&database, QUERY_Q);
    assert_eq!(rel.len(), 2);
    assert!(t2.phase_wall_ns("execute").is_some());
}

/// Failed parses trace the attempt (QueryStart, the parse phase) but no
/// `Parsed` summary and no downstream phases.
#[test]
fn failed_parse_traces_no_parsed_event() {
    let err = db()
        .connect()
        .execute_with(
            "select from where",
            &QueryOptions::new().collect_trace(true),
        )
        .unwrap_err();
    let _ = err; // the trace is discarded on error; re-run capturing manually
    let armed = obs::enter(obs::Observers {
        trace: true,
        ..Default::default()
    });
    let _ = nra::sql::parse_query("select from where");
    let t = armed.finish().1.expect("tracer armed");
    assert!(t
        .events()
        .any(|e| matches!(e, TraceEvent::PhaseDone { phase, .. } if phase == "parse")));
    assert!(!t.events().any(|e| matches!(e, TraceEvent::Parsed { .. })));
}

/// A query that collects its own trace sets the caller's tracer aside
/// and restores it intact: an event emitted after the query still
/// reaches the caller's ring.
#[test]
fn traced_query_restores_the_callers_tracer() {
    let database = db();
    let outer = obs::enter(obs::Observers {
        trace: true,
        ..Default::default()
    });
    trace::emit(|| TraceEvent::Parsed { tokens: 1 });
    let (_, inner) = traced(&database, QUERY_Q);
    assert!(!inner.is_empty());
    assert!(trace::enabled(), "the caller's tracer is armed again");
    trace::emit(|| TraceEvent::Parsed { tokens: 2 });
    let outer = outer.finish().1.expect("tracer armed");
    assert_eq!(
        outer.events().collect::<Vec<_>>(),
        [
            &TraceEvent::Parsed { tokens: 1 },
            &TraceEvent::Parsed { tokens: 2 }
        ],
        "the caller's ring holds its own events and none of the query's"
    );
    assert!(!trace::enabled());
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
        let strategies = trace.strategy_events();
        assert_eq!(strategies.len(), 2, "one decision per block: {sql}");
        for (i, event) in strategies.iter().enumerate() {
            let TraceEvent::StrategyChosen {
                name,
                reason,
                alternatives,
                ..
            } = event
            else {
                unreachable!()
            };
            assert_eq!(name, "bottom-up", "{sql}");
            assert!(!reason.contains("runtime fallback"), "{sql}: {reason}");
            assert!(
                !reason.contains("equality correlation lets the nest commute"),
                "{sql}: {reason}"
            );
            if i == 0 {
                let named: Vec<&str> = alternatives.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(named, ["positive-rewrite", "bottom-up-pushdown"], "{sql}");
                assert!(alternatives[1].1.contains(why), "{sql}: {alternatives:?}");
            }
        }
        assert!(!trace.render_tree().contains("nest-past-join"), "{sql}");
    }
}
