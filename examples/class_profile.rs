//! Where does a nested query's time go? Per-operator rows and wall time
//! for the six benchmark classes, plus what no operator span accounts for.
//!
//! ```sh
//! cargo run --release --example class_profile [scale] [--rounds N]
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
//! optimisation is outside the operators the profile names. The *scan*
//! line is the block scans' wall time per stored row read.
//!
//! `--rounds N` then runs the six classes round-robin, N times, on one
//! long-lived thread without the profile — the way a server connection
//! runs them — and prints each class's median. A fresh thread's best of
//! three flatters a query that allocates a lot (its arena starts empty):
//! size the next change on the rounds figure.

use std::time::Instant;

use nra::{Database, QueryOptions};
use nra_tpch::{
    generate, q1_agg_sql, q1_sql, q2_sql, q3_sql, ExistsKind, Q3Corr, Quant, TpchConfig,
};

/// Timed repetitions per class; the fastest is reported.
const REPS: usize = 3;

fn main() {
    let mut scale = 1.0;
    let mut rounds = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--rounds" {
            let n = args.next().and_then(|n| n.parse().ok());
            rounds = n.expect("--rounds takes a count");
        } else {
            scale = arg.parse().expect("scale is a number");
        }
    }
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
    let opts = QueryOptions::new().collect_profile(true);

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
            "   {:<24} {:>10} {:>10} {:>10.2}",
            "(unaccounted)",
            "",
            "",
            wall_ms - spans_ms
        );
        let scans = (profile.ops.iter()).filter(|(name, _)| name.ends_with("scan"));
        let (scanned, scan_ns) = scans.fold((0, 0), |(rows, ns), (_, stats)| {
            (rows + stats.rows_in, ns + stats.wall_ns)
        });
        println!(
            "   scan: {:.1} ns/row over {scanned} stored row(s)\n",
            scan_ns as f64 / scanned.max(1) as f64
        );
    }

    if rounds == 0 {
        return;
    }
    let opts = QueryOptions::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); classes.len()];
    std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            let session = db.connect();
            for _ in 0..rounds {
                for ((_, sql), times) in classes.iter().zip(&mut times) {
                    let start = Instant::now();
                    session.execute_with(sql, &opts).expect("class runs");
                    times.push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
        });
        run.join().expect("queries do not panic");
    });
    println!("== {rounds} round(s) of the six classes on one thread, median ms per class");
    let mut round_ms = 0.0;
    for ((class, _), times) in classes.iter().zip(&mut times) {
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        round_ms += median;
        println!("   {class:<8} {median:>10.2}");
    }
    println!("   {:<8} {round_ms:>10.2}", "round");
}
