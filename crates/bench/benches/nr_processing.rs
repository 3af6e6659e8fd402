//! The §5.2 in-text cost table: the nest + linking-selection *processing
//! stage* of the nested relational approach, original (two passes:
//! materialize the nested relation, then select) vs optimized (fused
//! single pass), as a function of the intermediate-result size.
//!
//! The two stages are isolated by benchmarking the full strategy and the
//! shared join phase separately; their difference is the processing cost.

use nra_bench::harness;
use nra_bench::*;
use nra_core::optimize::pipeline::unnest_join_phase;

fn main() {
    let scale = bench_scale();
    let cat = bench_catalog(scale);
    let grid = paper_grid(scale);
    let mut g = harness::group("nr_processing_q1");
    for &outer in &grid.q1_outer {
        let sql = q1_sql(&cat, outer);
        let bound = nra_sql::parse_and_bind(&sql, &cat).unwrap();
        let rows = unnest_join_phase(&bound, &cat).unwrap().len();
        g.bench("join-phase", rows, || {
            harness::black_box(unnest_join_phase(&bound, &cat).unwrap());
        });
        g.bench("original-total", rows, || {
            harness::black_box(
                nra_core::execute(&bound, &cat, nra_core::Strategy::Original).unwrap(),
            );
        });
        g.bench("optimized-total", rows, || {
            harness::black_box(
                nra_core::execute(&bound, &cat, nra_core::Strategy::Optimized).unwrap(),
            );
        });
    }
    g.finish();
}
