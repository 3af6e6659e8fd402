//! The metrics registry through the public API: per-query scope
//! determinism across runs, what one query adds to each scope on its
//! success and failure paths, cardinality feedback (Q-error) on a
//! known-skewed join, `ANALYZE` idempotence, the Prometheus/JSONL
//! exposition formats, and the report a failed query returns.
//!
//! Every test here takes [`serial`]: the characterization test reads
//! exact deltas of the process-global registry and sets `NRA_METRICS`
//! while it builds its databases.

use std::ffi::OsString;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use nra::engine::EngineError;
use nra::obs::json::Json;
use nra::obs::metrics::{self, Metric, Registry, Snapshot};
use nra::obs::trace::Trace;
use nra::storage::{Column, ColumnType, Value};
use nra::tpch::paper_example::{rst_catalog, QUERY_Q};
use nra::{Database, FaultKind, NraError, QueryOptions, Strategy};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The first JSONL line of `trace` whose `key` field is `value`.
fn trace_line(trace: &Trace, key: &str, value: &str) -> Option<Json> {
    (trace.to_jsonl().lines())
        .map(|line| Json::parse(line).expect("trace JSONL parses"))
        .find(|doc| doc.get(key).and_then(Json::as_str) == Some(value))
}

/// Per-query metrics exclude wall times by construction, so the rendered
/// snapshot must be byte-identical on every run of the same query.
#[test]
fn per_query_metrics_are_identical_across_runs() {
    let _serial = serial();
    let cat = nra::tpch::generate(&nra::tpch::TpchConfig::scaled(0.01));
    let sql = nra::tpch::q1_sql(&cat, 100);
    let db = Database::from_catalog(cat);
    let opts = QueryOptions::new()
        .strategy(Strategy::Original)
        .collect_metrics(true);
    let render = || {
        let snap = db
            .connect()
            .execute_with(&sql, &opts)
            .unwrap()
            .metrics
            .expect("metrics requested");
        assert!(!snap.is_empty());
        (snap.render_prometheus(), snap.to_jsonl())
    };
    let first = render();
    for run in 1..3 {
        assert_eq!(render(), first, "run {run} differs from the first");
    }
}

/// A join the estimator must get wrong: column statistics say `v` is
/// near-unique, but every row carries the same join value, so the
/// measured actuals blow past the estimate and the Q-error histogram
/// records the miss.
#[test]
fn qerror_is_recorded_on_skewed_joins() {
    let _serial = serial();
    let db = Database::new();
    db.create_table(
        "big",
        vec![
            Column::not_null("id", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
        &["id"],
    )
    .unwrap();
    db.create_table(
        "probe",
        vec![
            Column::not_null("pid", ColumnType::Int),
            Column::new("w", ColumnType::Int),
        ],
        &["pid"],
    )
    .unwrap();
    // 50 outer rows, all matching w = 7: a maximally skewed correlation.
    db.insert(
        "big",
        (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(7)])
            .collect(),
    )
    .unwrap();
    db.insert(
        "probe",
        (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(7)])
            .collect(),
    )
    .unwrap();
    db.connect()
        .execute_with("analyze big", &QueryOptions::new())
        .unwrap();
    db.connect()
        .execute_with("analyze probe", &QueryOptions::new())
        .unwrap();

    let out = db
        .connect()
        .execute_with(
            "select id from big where v in (select w from probe where probe.w = big.v)",
            &QueryOptions::new()
                .strategy(Strategy::Original)
                .collect_metrics(true)
                .collect_trace(true),
        )
        .unwrap();
    assert_eq!(out.rows.len(), 50);

    let snap = out.metrics.expect("metrics requested");
    let hist = snap
        .get("nra_qerror_x100", &[])
        .expect("Q-error histogram recorded");
    match hist {
        Metric::Hist { count, .. } => assert!(*count > 0, "no Q-error observations"),
        other => panic!("nra_qerror_x100 is not a histogram: {other:?}"),
    }

    let trace = out.trace.expect("trace requested");
    let summary =
        trace_line(&trace, "event", "qerror_summary").expect("per-query Q-error summary line");
    let nodes = summary.get("nodes").and_then(Json::as_u64);
    assert!(nodes.is_some_and(|n| n > 0), "{nodes:?}");
    // ANALYZE told the planner the probe side is a single value (ndv=1),
    // yet 10 rows match each outer tuple; the worst node must be well
    // over a perfect ×1.0 (=100).
    let max = (summary.get("max_x100"))
        .and_then(Json::as_u64)
        .expect("max_x100 field");
    assert!(max > 100, "skewed join should miss: max_x100={max}");
}

/// `ANALYZE` is idempotent — re-running it over unchanged data yields
/// identical statistics — and inserts invalidate the stored stats.
#[test]
fn analyze_is_idempotent_and_invalidated_by_inserts() {
    let _serial = serial();
    let db = Database::new();
    db.create_table(
        "t",
        vec![
            Column::not_null("k", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
        &["k"],
    )
    .unwrap();
    db.insert(
        "t",
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(10)],
            vec![Value::Int(3), Value::Null],
        ],
    )
    .unwrap();
    let first = db
        .connect()
        .execute_with("analyze t", &QueryOptions::new())
        .unwrap();
    let second = db
        .connect()
        .execute_with("analyze t", &QueryOptions::new())
        .unwrap();
    assert_eq!(first.plan, second.plan, "ANALYZE must be idempotent");
    let stats = db.catalog().table("t").unwrap().stats().unwrap();
    assert_eq!(stats.row_count, 3);
    assert_eq!(stats.column("v").unwrap().ndv, 1);
    assert_eq!(stats.column("v").unwrap().null_count, 1);

    db.insert("t", vec![vec![Value::Int(4), Value::Int(20)]])
        .unwrap();
    assert!(
        db.catalog().table("t").unwrap().stats().is_none(),
        "inserts must invalidate statistics"
    );
    let third = db
        .connect()
        .execute_with("analyze t", &QueryOptions::new())
        .unwrap();
    assert!(third.plan.unwrap().contains("analyze t: 4 row(s)"));
}

/// Prometheus exposition golden, including label-value escaping through
/// the shared JSON writer.
#[test]
fn prometheus_exposition_golden() {
    let _serial = serial();
    let reg = Registry::new();
    reg.counter_add("nra_queries_total", &[("outcome", "ok")], 3);
    reg.counter_add(
        "nra_errors_total",
        &[("variant", "needs \"quotes\"\\and\nnewlines")],
        1,
    );
    reg.gauge_set("nra_query_mem_high_water_bytes", &[], 4096);
    let text = reg.snapshot().render_prometheus();
    let expected = "\
# TYPE nra_errors_total counter
nra_errors_total{variant=\"needs \\\"quotes\\\"\\\\and\\nnewlines\"} 1
# TYPE nra_queries_total counter
nra_queries_total{outcome=\"ok\"} 3
# TYPE nra_query_mem_high_water_bytes gauge
nra_query_mem_high_water_bytes 4096
";
    assert_eq!(text, expected);
}

/// The trace's governor line and the process gauge agree on the memory
/// high-water mark of a governed query.
#[test]
fn governor_high_water_trace_and_gauge_agree() {
    let _serial = serial();
    let db = Database::from_catalog(rst_catalog());
    let out = db
        .connect()
        .execute_with(
            QUERY_Q,
            &QueryOptions::new()
                .mem_limit_bytes(64 * 1024 * 1024)
                .collect_trace(true),
        )
        .unwrap();
    let trace = out.trace.expect("trace requested");
    let hw_line = trace_line(&trace, "action", "mem-high-water")
        .expect("governed query publishes its memory high-water mark");
    let bytes: u64 = (hw_line.get("detail"))
        .and_then(Json::as_str)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("detail carries a byte count");
    let gauge = nra::obs::metrics::global()
        .snapshot()
        .get("nra_query_mem_high_water_bytes", &[])
        .cloned()
        .expect("process gauge recorded");
    match gauge {
        Metric::Gauge(v) => assert!(
            v >= bytes,
            "gauge (max over queries, {v}) below this query's high water ({bytes})"
        ),
        other => panic!("high-water metric is not a gauge: {other:?}"),
    }
}

/// Build a database whose configuration is the defaults plus
/// `NRA_METRICS=sink`, whatever `NRA_*` variables the suite runs under.
fn database_with_sink(sink: &Path) -> Database {
    let saved: Vec<(OsString, OsString)> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("NRA_"))
        .collect();
    for (k, _) in &saved {
        std::env::remove_var(k);
    }
    std::env::set_var("NRA_METRICS", sink);
    let db = Database::from_catalog(rst_catalog());
    std::env::remove_var("NRA_METRICS");
    for (k, v) in saved {
        std::env::set_var(k, v);
    }
    db
}

/// What one query added to the global registry: one line per counter or
/// histogram that moved. Gauges hold process maxima, not sums, so they
/// are left out.
fn global_delta(before: &Snapshot, after: &Snapshot) -> String {
    let mut out = String::new();
    for (key, now) in &after.entries {
        let was = before
            .entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, m)| m);
        let labels: Vec<String> = key.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let name = format!("{}{{{}}}", key.name, labels.join(","));
        match (now, was) {
            (Metric::Counter(n), Some(Metric::Counter(w))) if n > w => {
                out.push_str(&format!("{name} +{}\n", n - w));
            }
            (Metric::Counter(n), None) if *n > 0 => out.push_str(&format!("{name} +{n}\n")),
            (Metric::Hist { count, sum, .. }, was) => {
                let (wc, ws) = match was {
                    Some(Metric::Hist { count, sum, .. }) => (*count, *sum),
                    _ => (0, 0),
                };
                if *count > wc {
                    out.push_str(&format!("{name} count +{} sum +{}\n", count - wc, sum - ws));
                }
            }
            _ => {}
        }
    }
    out
}

/// Characterization of what one query of the paper's Query Q adds to
/// each metrics scope — its per-query snapshot (the `NRA_METRICS` sink's
/// line, and `QueryOutcome::metrics` rendered as Prometheus text when the
/// query succeeds) and the process-global registry — on success, on each
/// of the three governor interventions and on a slow query. A slow query
/// counts only globally: slowness is wall time, which the per-query scope
/// never holds.
#[test]
fn one_query_adds_the_same_metrics_on_every_path() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("nra-metrics-char-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let original = || QueryOptions::new().strategy(Strategy::Original);
    let failed = |action: &str| {
        let sink = FAILED_AT_JOIN_SINK.replace("ACTION", action);
        (
            String::new(),
            sink,
            FAILED_AT_JOIN_GLOBAL.replace("ACTION", action),
        )
    };
    let slow_global = format!("{QQ_GLOBAL}nra_slow_queries_total{{}} +1\n");
    let cases = [
        (
            "ok",
            original().collect_metrics(true),
            (
                QQ_PROM.to_string(),
                QQ_SINK.to_string(),
                QQ_GLOBAL.to_string(),
            ),
        ),
        (
            "mem",
            original().mem_limit_bytes(1),
            failed("resource-exhausted"),
        ),
        (
            "timeout",
            original().timeout_ms(0),
            (
                String::new(),
                CANCELLED_SINK.to_string(),
                CANCELLED_GLOBAL.to_string(),
            ),
        ),
        (
            "fault",
            original().fault("join-build", 1, FaultKind::AllocFail),
            failed("fault-injected"),
        ),
        (
            "slow",
            original().slow_ms(0).collect_metrics(true),
            (QQ_PROM.to_string(), QQ_SINK.to_string(), slow_global),
        ),
    ];
    for (case, opts, (golden_prom, golden_sink, golden_global)) in cases {
        let sink = dir.join(format!("{case}.jsonl"));
        let _ = std::fs::remove_file(&sink);
        let db = database_with_sink(&sink);
        let before = metrics::global().snapshot();
        let result = db.connect().execute_with(QUERY_Q, &opts);
        let after = metrics::global().snapshot();
        let prom = match &result {
            Ok(out) => out
                .metrics
                .as_ref()
                .expect("metrics armed")
                .render_prometheus(),
            Err(_) => String::new(),
        };
        assert_eq!(result.is_ok(), !golden_prom.is_empty(), "{case}");
        assert_eq!((case, prom), (case, golden_prom));
        let sunk = std::fs::read_to_string(&sink).unwrap_or_default();
        assert_eq!((case, sunk), (case, golden_sink));
        let delta = global_delta(&before, &after);
        assert_eq!((case, delta), (case, golden_global));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed query whose caller asked for metrics and a trace returns them
/// with its error, on each governor intervention: the report's metrics
/// snapshot is the line the `NRA_METRICS` sink got for the same query,
/// and its trace names the intervention at the phase or operator site
/// the error names.
#[test]
fn a_failed_query_reports_its_metrics_and_trace() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("nra-metrics-failed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let original = || {
        (QueryOptions::new().strategy(Strategy::Original))
            .collect_metrics(true)
            .collect_trace(true)
    };
    let cases = [
        ("timeout", original().timeout_ms(0), "cancelled"),
        ("mem", original().mem_limit_bytes(1), "resource-exhausted"),
        (
            "fault",
            original().fault("join-build", 1, FaultKind::AllocFail),
            "fault-injected",
        ),
    ];
    for (case, opts, action) in cases {
        let sink = dir.join(format!("{case}.jsonl"));
        let _ = std::fs::remove_file(&sink);
        let db = database_with_sink(&sink);
        let err = db.connect().execute_with(QUERY_Q, &opts).expect_err(case);
        let report = err.report().expect("artifacts were asked for");
        let snap = report.metrics.as_ref().expect("metrics requested");
        let sunk = std::fs::read_to_string(&sink).unwrap();
        assert_eq!((case, snap.to_jsonl()), (case, sunk));
        let detail = match err.cause() {
            NraError::Engine(EngineError::Cancelled { phase }) => phase,
            NraError::Engine(EngineError::ResourceExhausted { operator, .. }) => operator,
            other => panic!("{case}: {other:?}"),
        };
        let trace = report.trace.as_ref().expect("trace requested");
        let tree = trace.render_tree();
        let line = format!("⚠ governor: {action} at `{detail}`");
        assert!(tree.contains(&line), "{case}: no {line:?} in\n{tree}");
        assert!(
            !tree.contains("● done"),
            "{case}: a failed query has no end\n{tree}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Query Q's per-query snapshot under `Strategy::Original`.
const QQ_PROM: &str = r#"# TYPE nra_op_hash_bytes_total counter
nra_op_hash_bytes_total{op="b2/join[left_outer]"} 72
nra_op_hash_bytes_total{op="b3/join[left_outer]"} 120
# TYPE nra_op_hash_entries_total counter
nra_op_hash_entries_total{op="b2/join[left_outer]"} 3
nra_op_hash_entries_total{op="b3/join[left_outer]"} 5
# TYPE nra_op_invocations_total counter
nra_op_invocations_total{op="b2/join[left_outer]"} 1
nra_op_invocations_total{op="b2/link"} 1
nra_op_invocations_total{op="b2/nest[sort]"} 1
nra_op_invocations_total{op="b2/scan"} 1
nra_op_invocations_total{op="b3/join[left_outer]"} 1
nra_op_invocations_total{op="b3/link"} 1
nra_op_invocations_total{op="b3/nest[sort]"} 1
nra_op_invocations_total{op="b3/scan"} 1
nra_op_invocations_total{op="project"} 1
nra_op_invocations_total{op="scan"} 1
# TYPE nra_op_link_outcomes_total counter
nra_op_link_outcomes_total{op="b2/link",outcome="fail"} 1
nra_op_link_outcomes_total{op="b2/link",outcome="pass"} 2
nra_op_link_outcomes_total{op="b3/link",outcome="fail"} 1
nra_op_link_outcomes_total{op="b3/link",outcome="pass"} 1
nra_op_link_outcomes_total{op="b3/link",outcome="unknown"} 1
# TYPE nra_op_nest_groups_total counter
nra_op_nest_groups_total{op="b2/nest[sort]"} 3
nra_op_nest_groups_total{op="b3/nest[sort]"} 3
# TYPE nra_op_padded_total counter
nra_op_padded_total{op="b3/link"} 2
# TYPE nra_op_rows_in_total counter
nra_op_rows_in_total{op="b2/join[left_outer]"} 6
nra_op_rows_in_total{op="b2/link"} 3
nra_op_rows_in_total{op="b2/nest[sort]"} 3
nra_op_rows_in_total{op="b2/scan"} 4
nra_op_rows_in_total{op="b3/join[left_outer]"} 8
nra_op_rows_in_total{op="b3/link"} 3
nra_op_rows_in_total{op="b3/nest[sort]"} 3
nra_op_rows_in_total{op="b3/scan"} 5
nra_op_rows_in_total{op="project"} 2
nra_op_rows_in_total{op="scan"} 4
# TYPE nra_op_rows_out_total counter
nra_op_rows_out_total{op="b2/join[left_outer]"} 3
nra_op_rows_out_total{op="b2/link"} 2
nra_op_rows_out_total{op="b2/nest[sort]"} 3
nra_op_rows_out_total{op="b2/scan"} 3
nra_op_rows_out_total{op="b3/join[left_outer]"} 3
nra_op_rows_out_total{op="b3/link"} 3
nra_op_rows_out_total{op="b3/nest[sort]"} 3
nra_op_rows_out_total{op="b3/scan"} 5
nra_op_rows_out_total{op="project"} 2
nra_op_rows_out_total{op="scan"} 3
# TYPE nra_qerror_x100 histogram
nra_qerror_x100_bucket{le="1"} 0
nra_qerror_x100_bucket{le="2"} 0
nra_qerror_x100_bucket{le="4"} 0
nra_qerror_x100_bucket{le="8"} 0
nra_qerror_x100_bucket{le="16"} 0
nra_qerror_x100_bucket{le="32"} 0
nra_qerror_x100_bucket{le="64"} 0
nra_qerror_x100_bucket{le="128"} 1
nra_qerror_x100_bucket{le="256"} 3
nra_qerror_x100_bucket{le="512"} 10
nra_qerror_x100_bucket{le="1024"} 10
nra_qerror_x100_bucket{le="2048"} 10
nra_qerror_x100_bucket{le="4096"} 10
nra_qerror_x100_bucket{le="8192"} 10
nra_qerror_x100_bucket{le="16384"} 10
nra_qerror_x100_bucket{le="+Inf"} 10
nra_qerror_x100_sum 2600
nra_qerror_x100_count 10
# TYPE nra_queries_total counter
nra_queries_total{outcome="ok"} 1
# TYPE nra_rows_produced_total counter
nra_rows_produced_total 2
"#;

/// The same snapshot as the `NRA_METRICS` sink's JSONL.
const QQ_SINK: &str = r#"{"metric": "nra_op_hash_bytes_total", "type": "counter", "labels": {"op": "b2/join[left_outer]"}, "value": 72}
{"metric": "nra_op_hash_bytes_total", "type": "counter", "labels": {"op": "b3/join[left_outer]"}, "value": 120}
{"metric": "nra_op_hash_entries_total", "type": "counter", "labels": {"op": "b2/join[left_outer]"}, "value": 3}
{"metric": "nra_op_hash_entries_total", "type": "counter", "labels": {"op": "b3/join[left_outer]"}, "value": 5}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b2/join[left_outer]"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b2/link"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b2/nest[sort]"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b2/scan"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b3/join[left_outer]"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b3/link"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b3/nest[sort]"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b3/scan"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "project"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "scan"}, "value": 1}
{"metric": "nra_op_link_outcomes_total", "type": "counter", "labels": {"op": "b2/link", "outcome": "fail"}, "value": 1}
{"metric": "nra_op_link_outcomes_total", "type": "counter", "labels": {"op": "b2/link", "outcome": "pass"}, "value": 2}
{"metric": "nra_op_link_outcomes_total", "type": "counter", "labels": {"op": "b3/link", "outcome": "fail"}, "value": 1}
{"metric": "nra_op_link_outcomes_total", "type": "counter", "labels": {"op": "b3/link", "outcome": "pass"}, "value": 1}
{"metric": "nra_op_link_outcomes_total", "type": "counter", "labels": {"op": "b3/link", "outcome": "unknown"}, "value": 1}
{"metric": "nra_op_nest_groups_total", "type": "counter", "labels": {"op": "b2/nest[sort]"}, "value": 3}
{"metric": "nra_op_nest_groups_total", "type": "counter", "labels": {"op": "b3/nest[sort]"}, "value": 3}
{"metric": "nra_op_padded_total", "type": "counter", "labels": {"op": "b3/link"}, "value": 2}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b2/join[left_outer]"}, "value": 6}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b2/link"}, "value": 3}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b2/nest[sort]"}, "value": 3}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b2/scan"}, "value": 4}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b3/join[left_outer]"}, "value": 8}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b3/link"}, "value": 3}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b3/nest[sort]"}, "value": 3}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b3/scan"}, "value": 5}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "project"}, "value": 2}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "scan"}, "value": 4}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b2/join[left_outer]"}, "value": 3}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b2/link"}, "value": 2}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b2/nest[sort]"}, "value": 3}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b2/scan"}, "value": 3}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b3/join[left_outer]"}, "value": 3}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b3/link"}, "value": 3}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b3/nest[sort]"}, "value": 3}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b3/scan"}, "value": 5}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "project"}, "value": 2}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "scan"}, "value": 3}
{"metric": "nra_qerror_x100", "type": "histogram", "labels": {}, "count": 10, "sum": 2600, "buckets": {"1": 0, "2": 0, "4": 0, "8": 0, "16": 0, "32": 0, "64": 0, "128": 1, "256": 2, "512": 7, "1024": 0, "2048": 0, "4096": 0, "8192": 0, "16384": 0, "+Inf": 0}}
{"metric": "nra_queries_total", "type": "counter", "labels": {"outcome": "ok"}, "value": 1}
{"metric": "nra_rows_produced_total", "type": "counter", "labels": {}, "value": 2}
"#;

/// What Query Q adds to the global registry (plan-cache miss included).
const QQ_GLOBAL: &str = r#"nra_op_hash_bytes_total{op=b2/join[left_outer]} +72
nra_op_hash_bytes_total{op=b3/join[left_outer]} +120
nra_op_hash_entries_total{op=b2/join[left_outer]} +3
nra_op_hash_entries_total{op=b3/join[left_outer]} +5
nra_op_invocations_total{op=b2/join[left_outer]} +1
nra_op_invocations_total{op=b2/link} +1
nra_op_invocations_total{op=b2/nest[sort]} +1
nra_op_invocations_total{op=b2/scan} +1
nra_op_invocations_total{op=b3/join[left_outer]} +1
nra_op_invocations_total{op=b3/link} +1
nra_op_invocations_total{op=b3/nest[sort]} +1
nra_op_invocations_total{op=b3/scan} +1
nra_op_invocations_total{op=project} +1
nra_op_invocations_total{op=scan} +1
nra_op_link_outcomes_total{op=b2/link,outcome=fail} +1
nra_op_link_outcomes_total{op=b2/link,outcome=pass} +2
nra_op_link_outcomes_total{op=b3/link,outcome=fail} +1
nra_op_link_outcomes_total{op=b3/link,outcome=pass} +1
nra_op_link_outcomes_total{op=b3/link,outcome=unknown} +1
nra_op_nest_groups_total{op=b2/nest[sort]} +3
nra_op_nest_groups_total{op=b3/nest[sort]} +3
nra_op_padded_total{op=b3/link} +2
nra_op_rows_in_total{op=b2/join[left_outer]} +6
nra_op_rows_in_total{op=b2/link} +3
nra_op_rows_in_total{op=b2/nest[sort]} +3
nra_op_rows_in_total{op=b2/scan} +4
nra_op_rows_in_total{op=b3/join[left_outer]} +8
nra_op_rows_in_total{op=b3/link} +3
nra_op_rows_in_total{op=b3/nest[sort]} +3
nra_op_rows_in_total{op=b3/scan} +5
nra_op_rows_in_total{op=project} +2
nra_op_rows_in_total{op=scan} +4
nra_op_rows_out_total{op=b2/join[left_outer]} +3
nra_op_rows_out_total{op=b2/link} +2
nra_op_rows_out_total{op=b2/nest[sort]} +3
nra_op_rows_out_total{op=b2/scan} +3
nra_op_rows_out_total{op=b3/join[left_outer]} +3
nra_op_rows_out_total{op=b3/link} +3
nra_op_rows_out_total{op=b3/nest[sort]} +3
nra_op_rows_out_total{op=b3/scan} +5
nra_op_rows_out_total{op=project} +2
nra_op_rows_out_total{op=scan} +3
nra_plan_cache_misses_total{} +1
nra_qerror_x100{} count +10 sum +2600
nra_queries_total{outcome=ok} +1
nra_rows_produced_total{} +2
"#;

/// A query stopped at `b2`'s join build, `ACTION` naming the
/// intervention: the sink's line ...
const FAILED_AT_JOIN_SINK: &str = r#"{"metric": "nra_errors_total", "type": "counter", "labels": {"variant": "resource-exhausted"}, "value": 1}
{"metric": "nra_governor_interventions_total", "type": "counter", "labels": {"action": "ACTION"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b2/join[left_outer]"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "b2/scan"}, "value": 1}
{"metric": "nra_op_invocations_total", "type": "counter", "labels": {"op": "scan"}, "value": 1}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b2/join[left_outer]"}, "value": 6}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "b2/scan"}, "value": 4}
{"metric": "nra_op_rows_in_total", "type": "counter", "labels": {"op": "scan"}, "value": 4}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b2/join[left_outer]"}, "value": 0}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "b2/scan"}, "value": 3}
{"metric": "nra_op_rows_out_total", "type": "counter", "labels": {"op": "scan"}, "value": 3}
{"metric": "nra_queries_total", "type": "counter", "labels": {"outcome": "resource-exhausted"}, "value": 1}
"#;

/// ... and the global delta.
const FAILED_AT_JOIN_GLOBAL: &str = r#"nra_errors_total{variant=resource-exhausted} +1
nra_governor_interventions_total{action=ACTION} +1
nra_op_invocations_total{op=b2/join[left_outer]} +1
nra_op_invocations_total{op=b2/scan} +1
nra_op_invocations_total{op=scan} +1
nra_op_rows_in_total{op=b2/join[left_outer]} +6
nra_op_rows_in_total{op=b2/scan} +4
nra_op_rows_in_total{op=scan} +4
nra_op_rows_out_total{op=b2/scan} +3
nra_op_rows_out_total{op=scan} +3
nra_plan_cache_misses_total{} +1
nra_queries_total{outcome=resource-exhausted} +1
"#;

/// A query cancelled before it planned: the sink's line ...
const CANCELLED_SINK: &str = r#"{"metric": "nra_errors_total", "type": "counter", "labels": {"variant": "cancelled"}, "value": 1}
{"metric": "nra_governor_interventions_total", "type": "counter", "labels": {"action": "cancelled"}, "value": 1}
{"metric": "nra_queries_total", "type": "counter", "labels": {"outcome": "cancelled"}, "value": 1}
"#;

/// ... and the global delta.
const CANCELLED_GLOBAL: &str = r#"nra_errors_total{variant=cancelled} +1
nra_governor_interventions_total{action=cancelled} +1
nra_queries_total{outcome=cancelled} +1
"#;
