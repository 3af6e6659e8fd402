//! Where does a nested query's time go? Per-operator rows and wall time
//! for the six benchmark classes, plus what no operator span accounts for.
//!
//! ```sh
//! cargo run --release --example class_profile [scale]
//! ```
//!
//! Generates `TpchConfig::scaled(scale).nullable_links(0.02)` (default
//! scale `1.0`, the benchmark's) and runs `q1`, `q2a`, `q2b`, `q3b`, `q3c`
//! and `q1agg` at the paper's largest block sizes with
//! `collect_profile(true)`, each on a fresh thread as the server runs
//! queries on connection threads (on the main thread, whose allocator
//! arena the generator has littered, the same query measures 2–3× slower).
//!
//! The *unaccounted* line is request wall − Σ operator wall: row drops,
//! clones between spans, the cascade's group scan (which records counters
//! but opens no span), parse/bind/plan. A large remainder says the next
//! optimisation is outside the operators the profile names.

use std::time::Instant;

use nra::{Database, QueryOptions};
use nra_tpch::{
    generate, q1_agg_sql, q1_sql, q2_sql, q3_sql, ExistsKind, Q3Corr, Quant, TpchConfig,
};

/// Timed repetitions per class; the fastest is reported.
const REPS: usize = 3;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let cat = generate(&TpchConfig::scaled(scale).nullable_links(0.02));
    let size = |n: f64| ((n * scale).round() as usize).max(4);
    let (outer, part, partsupp) = (size(16_000.0), size(48_000.0), size(16_000.0));
    let classes = [
        ("q1", q1_sql(&cat, outer)),
        ("q2a", q2_sql(&cat, Quant::Any, part, partsupp)),
        ("q2b", q2_sql(&cat, Quant::All, part, partsupp)),
        (
            "q3b",
            q3_sql(
                &cat,
                Quant::All,
                ExistsKind::NotExists,
                Q3Corr::NeEq,
                part,
                partsupp,
            ),
        ),
        (
            "q3c",
            q3_sql(
                &cat,
                Quant::Any,
                ExistsKind::Exists,
                Q3Corr::EqNe,
                part,
                partsupp,
            ),
        ),
        ("q1agg", q1_agg_sql(&cat, outer)),
    ];
    let db = Database::from_catalog(cat);
    let opts = QueryOptions::new().threads(1).collect_profile(true);

    for (class, sql) in &classes {
        let (wall_ms, out) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let session = db.connect();
                    (0..REPS)
                        .map(|_| {
                            let start = Instant::now();
                            let out = session.execute_with(sql, &opts).expect("class runs");
                            (start.elapsed().as_secs_f64() * 1e3, out)
                        })
                        .min_by(|a, b| a.0.total_cmp(&b.0))
                        .expect("REPS > 0")
                })
                .join()
                .expect("profiled query does not panic")
        });
        let profile = out
            .profile
            .expect("collect_profile(true) returns a profile");
        println!(
            "== {class}: {wall_ms:.2} ms, {} row(s), best of {REPS}",
            out.rows.len()
        );
        println!(
            "   {:<24} {:>10} {:>10} {:>10}",
            "operator", "rows in", "rows out", "wall ms"
        );
        for (name, stats) in &profile.ops {
            println!(
                "   {name:<24} {:>10} {:>10} {:>10.2}",
                stats.rows_in,
                stats.rows_out,
                stats.wall_ns as f64 / 1e6
            );
        }
        let spans_ms = profile.total_wall_ns() as f64 / 1e6;
        println!(
            "   {:<24} {:>10} {:>10} {:>10.2}\n",
            "(unaccounted)",
            "",
            "",
            wall_ms - spans_ms
        );
    }
}
