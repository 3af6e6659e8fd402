//! Batch width changes how rows are windowed, never what is counted.
//!
//! The vectorized scans and group-boundary kernels read their width from
//! `vec::set_batch_rows` (default 1024). Width 1 makes every row a batch
//! seam and width 3 misaligns every power-of-two structure; at each, every
//! operator counter and every simulated I/O page count must equal the
//! committed `crates/bench/baselines/` exactly. Wall time is left out:
//! narrow widths in a debug build run several times slower than the
//! release baselines were recorded at.

use nra::{Database, Engine, NraError, QueryOptions};
use nra_bench::baseline::{self, Tolerance};
use nra_bench::profile::{headline_profiles, QueryProfile};
use nra_bench::{bench_catalog, bench_catalog_nullable};
use nra_core::Strategy;
use nra_engine::vec::set_batch_rows;
use nra_engine::EngineError;
use nra_obs::json::Json;
use nra_tpch::paper_example::{rst_catalog, QUERY_Q};

/// The scale the baselines were recorded at.
const SCALE: f64 = 0.02;

const WIDTHS: [usize; 3] = [1, 3, 1024];

/// Exact on counters and I/O pages; wall time is never compared.
fn counters_only() -> Tolerance {
    Tolerance {
        wall_floor_ns: u64::MAX,
        ..Tolerance::default()
    }
}

#[test]
fn headline_profiles_match_the_baselines_at_every_width() {
    let strict = bench_catalog(SCALE);
    let nullable = bench_catalog_nullable(SCALE);
    for width in WIDTHS {
        let _width = set_batch_rows(Some(width));
        for qp in headline_profiles(&strict, &nullable, SCALE) {
            let report = baseline::check_profile(&qp, &counters_only()).unwrap();
            assert!(
                report.passed(),
                "width {width}:\n{}",
                report.render_markdown()
            );
        }
    }
}

/// The paper's Query Q through `Database` with `collect_profile`, under
/// every engine, as one profile document per width.
fn query_q_profiles(width: usize) -> Json {
    let db = Database::from_catalog(rst_catalog());
    let _width = set_batch_rows(Some(width));
    let engines = Strategy::ALL
        .map(Engine::NestedRelational)
        .into_iter()
        .chain([Engine::Baseline, Engine::Reference]);
    // A strategy whose builder refuses Query Q plans nothing to count.
    let series = engines
        .filter_map(|engine| {
            let opts = QueryOptions::new().engine(engine).collect_profile(true);
            match db.execute(QUERY_Q, &opts) {
                Err(e) if matches!(e.cause(), NraError::Engine(EngineError::Unsupported(_))) => {
                    None
                }
                out => Some((engine.name(), out.unwrap().profile.unwrap())),
            }
        })
        .collect();
    let doc = QueryProfile {
        name: "QQ".to_string(),
        sql: QUERY_Q.to_string(),
        scale: 0.0,
        series,
    };
    Json::parse(&doc.to_json()).unwrap()
}

#[test]
fn query_q_profile_counters_are_width_invariant() {
    let wide = query_q_profiles(1024);
    for width in [1, 3] {
        let report =
            baseline::diff("QQ", &wide, &query_q_profiles(width), &counters_only()).unwrap();
        assert!(
            report.passed(),
            "width {width}:\n{}",
            report.render_markdown()
        );
    }
}
