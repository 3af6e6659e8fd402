//! Concurrent observability: queries running from many OS threads at
//! once must neither interleave their per-query artifacts (profiles,
//! per-query metrics scopes) nor lose records in the database's query
//! registry or the process-cumulative metrics.

use std::sync::Arc;

use nra::obs::metrics::Metric;
use nra::tpch::paper_example::rst_catalog;
use nra::{Database, QueryOptions, Strategy};

const THREADS: usize = 8;
const QUERIES_PER_THREAD: i64 = 4;

fn marker_sql(thread: usize, q: i64) -> String {
    format!(
        "select r.a from r where r.a > {} and r.b in (select s.e from s where s.g = r.d)",
        1_000_000 + (thread as i64) * 100 + q
    )
}

#[test]
fn concurrent_queries_keep_observability_isolated_and_lossless() {
    let database = Arc::new(Database::from_catalog(rst_catalog()));
    let before_total = global_ok_count();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let database = Arc::clone(&database);
            std::thread::spawn(move || {
                for q in 0..QUERIES_PER_THREAD {
                    let sql = marker_sql(t, q);
                    let out = database
                        .connect()
                        .execute_with(
                            &sql,
                            &QueryOptions::new()
                                .strategy(Strategy::Original)
                                .collect_profile(true)
                                .collect_metrics(true),
                        )
                        .unwrap();

                    // The per-query metrics scope is thread-local:
                    // exactly this query's events, nothing from the 7
                    // sibling threads.
                    let snap = out.metrics.expect("metrics requested");
                    assert_eq!(
                        snap.get("nra_queries_total", &[("outcome", "ok")]),
                        Some(&Metric::Counter(1)),
                        "per-query scope saw a sibling's query"
                    );

                    // The profile is per-query too: Query-shaped ops with
                    // self-consistent row counts (an interleaved profile
                    // would double-count rows_in on the shared names).
                    let profile = out.profile.expect("profile requested");
                    let scan = profile
                        .ops
                        .iter()
                        .find(|(name, _)| name == "scan")
                        .map(|(_, s)| s.rows_out)
                        .expect("outer scan profiled");
                    assert_eq!(scan, 0, "r.a > 1M+ matches nothing");

                    // The final progress snapshot is this query's own.
                    let snap = out.progress.expect("progress tracked");
                    assert!(snap.done && snap.percent == 100);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // No lost records: every one of the 32 distinct statements appears in
    // the completed ring exactly once.
    let completed = database.queries().completed();
    for t in 0..THREADS {
        for q in 0..QUERIES_PER_THREAD {
            let sql = marker_sql(t, q);
            let found = completed.iter().filter(|r| r.sql == sql).count();
            assert_eq!(found, 1, "registry lost or duplicated `{sql}`");
        }
    }

    // The process-cumulative registry absorbed all 32 ok-outcomes (other
    // tests in the binary may add more — never fewer).
    let after_total = global_ok_count();
    assert!(
        after_total >= before_total + (THREADS as u64) * QUERIES_PER_THREAD as u64,
        "global counter lost increments: {before_total} -> {after_total}"
    );
}

fn global_ok_count() -> u64 {
    match nra::obs::metrics::global()
        .snapshot()
        .get("nra_queries_total", &[("outcome", "ok")])
    {
        Some(Metric::Counter(v)) => *v,
        _ => 0,
    }
}
