//! The metrics registry through the public API: per-query scope
//! determinism across runs, cardinality feedback (Q-error) on a
//! known-skewed join, `ANALYZE` idempotence, and the Prometheus/JSONL
//! exposition formats.

use nra::obs::metrics::{Metric, Registry};
use nra::storage::{Column, ColumnType, Value};
use nra::tpch::paper_example::{rst_catalog, QUERY_Q};
use nra::{Database, QueryOptions, Strategy};

/// Per-query metrics exclude wall times by construction, so the rendered
/// snapshot must be byte-identical on every run of the same query.
#[test]
fn per_query_metrics_are_identical_across_runs() {
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
    let summary = trace
        .entries
        .iter()
        .find(|e| e.event.kind() == "qerror_summary")
        .expect("per-query Q-error summary event");
    let json = summary.event.to_json(0);
    assert!(json.contains("\"nodes\""), "{json}");
    // ANALYZE told the planner the probe side is a single value (ndv=1),
    // yet 10 rows match each outer tuple; the worst node must be well
    // over a perfect ×1.0 (=100).
    let max = json
        .split("\"max_x100\": ")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse::<u64>().ok())
        .expect("max_x100 field");
    assert!(max > 100, "skewed join should miss: max_x100={max}");
}

/// `ANALYZE` is idempotent — re-running it over unchanged data yields
/// identical statistics — and inserts invalidate the stored stats.
#[test]
fn analyze_is_idempotent_and_invalidated_by_inserts() {
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

/// The trace's governor event and the process gauge agree on the memory
/// high-water mark of a governed query.
#[test]
fn governor_high_water_trace_and_gauge_agree() {
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
    let hw_event = trace
        .entries
        .iter()
        .map(|e| e.event.to_json(0))
        .find(|j| j.contains("mem-high-water"))
        .expect("governed query publishes its memory high-water mark");
    let bytes: u64 = hw_event
        .split("\"detail\": \"")
        .nth(1)
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
