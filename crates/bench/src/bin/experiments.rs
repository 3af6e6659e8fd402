//! Reproduce every figure/table of the paper's evaluation (Section 5) and
//! print paper-style series as markdown.
//!
//! ```sh
//! cargo run --release -p nra-bench --bin experiments -- [--scale 0.5] [--reps 3] [fig4 fig5 ...]
//! ```
//!
//! Observability flags (see `nra_bench::baseline` for the regression
//! tracker; baselines are committed at scale 0.02, so pass `--scale 0.02`
//! when writing or checking):
//!
//! * `--baseline-write` — refresh `crates/bench/baselines/BENCH_*.json`
//! * `--baseline-check` — diff fresh profiles against the committed
//!   baselines; non-zero exit + per-operator delta table on regression
//! * `--wall-factor <f>` — wall-time tolerance band for the check
//! * `--metrics <path>` — run the headline queries through the facade
//!   with metrics collection and write the process-cumulative registry
//!   as JSONL to `<path>`
//! * `--slow-log <path>` — run the headline queries with a zero
//!   slow-query threshold appending to `<path>`, then schema-validate
//!   the whole log; non-zero exit on a malformed record
//!
//! Passing any unknown positional (e.g. `none`) selects no figures, so
//! `experiments --scale 0.02 --baseline-check none` only checks the
//! baselines. An unknown `--flag` is an error (exit 2), never a figure
//! name.
//!
//! Figures (paper → here):
//!
//! * Fig 4  — Query 1 (`> ALL`), outer 4K–16K; native = nested iteration
//!   (constraint dropped), plus the NOT-NULL ablation where the native
//!   plan becomes an antijoin.
//! * Fig 5  — Query 2a (mixed `ANY`/`NOT EXISTS`); native = bottom-up
//!   semijoin + antijoin.
//! * Fig 6  — Query 2b (negative `ALL`/`NOT EXISTS`); native falls back to
//!   nested iteration (constraint dropped).
//! * Fig 7a–c — Query 3a (mixed `ALL`/`EXISTS`), three correlation
//!   variants; Fig 8a–c — Query 3b (negative); Fig 9a–c — Query 3c
//!   (positive).
//! * nrcost — the §5.2 in-text numbers: nest+linking-selection processing
//!   time, original vs optimized, against intermediate-result size.

use nra_bench::*;
use nra_storage::Catalog;

struct Args {
    scale: f64,
    reps: usize,
    /// Refresh the committed baselines under `crates/bench/baselines/`.
    baseline_write: bool,
    /// Compare fresh profiles against the committed baselines; exit
    /// non-zero with a per-operator delta table on regression.
    baseline_check: bool,
    /// Wall-time tolerance factor for `--baseline-check`
    /// (`--wall-factor`, default 10).
    wall_factor: f64,
    /// Write the process-cumulative metrics registry as JSONL here.
    metrics: Option<std::path::PathBuf>,
    /// Run the headline queries with a zero slow-query threshold,
    /// appending their records to this JSONL log, then schema-validate
    /// the whole file; exit non-zero on a malformed record.
    slow_log: Option<std::path::PathBuf>,
    figures: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.5,
        reps: 3,
        baseline_write: false,
        baseline_check: false,
        wall_factor: baseline::Tolerance::default().wall_factor,
        metrics: None,
        slow_log: None,
        figures: vec![],
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number")
            }
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes an integer")
            }
            "--baseline-write" => args.baseline_write = true,
            "--baseline-check" => args.baseline_check = true,
            "--wall-factor" => {
                args.wall_factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--wall-factor takes a number")
            }
            "--metrics" => {
                args.metrics = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .expect("--metrics takes a path"),
                )
            }
            "--slow-log" => {
                args.slow_log = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .expect("--slow-log takes a path"),
                )
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag `{flag}`");
                std::process::exit(2);
            }
            other => args.figures.push(other.to_string()),
        }
    }
    args
}

fn wanted(args: &Args, fig: &str) -> bool {
    args.figures.is_empty() || args.figures.iter().any(|f| f == fig)
}

/// Run one figure: a sweep of prepared queries, one row per size label.
///
/// Each point is reported as the *estimated elapsed time in the paper's
/// environment* — measured CPU time plus simulated disk I/O (sequential
/// scans vs random index probes through a buffer cache covering ~3.2% of
/// the data, as in the paper's 1 GB / 32 MB setup) — followed by the CPU
/// and I/O breakdown.
fn figure(title: &str, rows: Vec<(String, PreparedQuery<'_>)>, reps: usize) {
    println!("### {title}\n");
    if let Some((_, pq)) = rows.first() {
        println!("native plan: {}\n", pq.native_plan_label());
    }
    println!(
        "| block sizes | native est (s) | nr-original est (s) | nr-optimized est (s)          | native cpu/io | nr-orig cpu/io | nr-opt cpu/io | rows |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (label, pq) in rows {
        let io_cfg = io_config_for(pq.catalog);
        let mut est = Vec::new();
        let mut brk = Vec::new();
        let mut rows_out = None;
        for series in Series::ALL {
            let m = pq.measure(series, reps, &io_cfg);
            match rows_out {
                None => rows_out = Some(m.rows),
                Some(r) => assert_eq!(r, m.rows, "series disagree on {label} ({})", pq.sql),
            }
            est.push(format!("{:.3}", m.est_secs));
            brk.push(format!(
                "{:.3}s / {}s+{}r",
                m.cpu_secs, m.io.seq_pages, m.io.rand_misses
            ));
        }
        println!(
            "| {label} | {} | {} | {} | {} | {} | {} | {} |",
            est[0],
            est[1],
            est[2],
            brk[0],
            brk[1],
            brk[2],
            rows_out.unwrap()
        );
    }
    println!();
}

fn fig4(cat_nullable: &Catalog, cat_strict: &Catalog, args: &Args) {
    let grid = paper_grid(args.scale);
    let rows = grid
        .q1_outer
        .iter()
        .map(|&outer| {
            let sql = q1_sql(cat_nullable, outer);
            (
                format!("{outer}/q1-inner"),
                PreparedQuery::new(cat_nullable, sql).unwrap(),
            )
        })
        .collect();
    figure(
        "Figure 4 — Query 1 (> ALL, one level); NOT NULL dropped",
        rows,
        args.reps,
    );

    // The in-text ablation: with the NOT NULL constraint, System A uses an
    // antijoin and "the performance is about the same as ours".
    let rows = grid
        .q1_outer
        .iter()
        .map(|&outer| {
            let sql = q1_sql(cat_strict, outer);
            (
                format!("{outer}/q1-inner"),
                PreparedQuery::new(cat_strict, sql).unwrap(),
            )
        })
        .collect();
    figure(
        "Figure 4 ablation — Query 1 with NOT NULL (native antijoins)",
        rows,
        args.reps,
    );
}

fn fig_q2(cat: &Catalog, quant: Quant, title: &str, args: &Args) {
    let grid = paper_grid(args.scale);
    let rows = grid
        .q23_part
        .iter()
        .map(|&part| {
            let sql = q2_sql(cat, quant, part, grid.q23_partsupp);
            (
                format!("{part}/{}/li", grid.q23_partsupp),
                PreparedQuery::new(cat, sql).unwrap(),
            )
        })
        .collect();
    figure(title, rows, args.reps);
}

fn fig_q3(cat: &Catalog, quant: Quant, exists: ExistsKind, fig_no: usize, name: &str, args: &Args) {
    let grid = paper_grid(args.scale);
    for corr in [Q3Corr::EqEq, Q3Corr::NeEq, Q3Corr::EqNe] {
        let rows = grid
            .q23_part
            .iter()
            .map(|&part| {
                let sql = q3_sql(cat, quant, exists, corr, part, grid.q23_partsupp);
                (
                    format!("{part}/{}/li", grid.q23_partsupp),
                    PreparedQuery::new(cat, sql).unwrap(),
                )
            })
            .collect();
        figure(
            &format!(
                "Figure {fig_no}{} — {name}, correlated predicates {}",
                match corr {
                    Q3Corr::EqEq => "a",
                    Q3Corr::NeEq => "b",
                    Q3Corr::EqNe => "c",
                },
                corr.label()
            ),
            rows,
            args.reps,
        );
    }
}

/// Extension (beyond the paper): the aggregate form of Query 1
/// (`o_totalprice > (select max(l_extendedprice) ...)`), evaluated by the
/// same machinery — the set is folded instead of quantified. The native
/// plan must nested-iterate (no antijoin form exists for aggregates here).
fn ext_agg(cat: &Catalog, args: &Args) {
    let grid = paper_grid(args.scale);
    let rows = grid
        .q1_outer
        .iter()
        .map(|&outer| {
            let sql = q1_agg_sql(cat, outer);
            (
                format!("{outer}/q1-inner"),
                PreparedQuery::new(cat, sql).unwrap(),
            )
        })
        .collect();
    figure(
        "Extension — Query 1 with `> (select max(...))` (aggregate subquery)",
        rows,
        args.reps,
    );
}

/// Render a speedup ratio, refusing to divide noise by noise: below
/// ~0.5 ms the subtraction-based isolation is inside timer jitter.
fn speedup(original: f64, optimized: f64) -> String {
    if original < 5e-4 || optimized < 5e-4 {
        "n/a (below timer resolution; raise --scale/--reps)".to_string()
    } else {
        format!("{:.1}x", original / optimized)
    }
}

fn nrcost(cat: &Catalog, args: &Args) {
    println!("### §5.2 in-text — NR processing cost (nest + linking selection only)\n");
    println!("| query | intermediate rows | original (s) | optimized (s) | speedup |");
    println!("|---|---|---|---|---|");
    let grid = paper_grid(args.scale);
    for &outer in &grid.q1_outer {
        let sql = q1_sql(cat, outer);
        let c = nr_processing_cost(cat, &sql, args.reps).unwrap();
        println!(
            "| Q1 outer={outer} | {} | {:.4} | {:.4} | {} |",
            c.intermediate_rows,
            c.original_secs,
            c.optimized_secs,
            speedup(c.original_secs, c.optimized_secs)
        );
    }
    for &part in &grid.q23_part {
        let sql = q2_sql(cat, Quant::All, part, grid.q23_partsupp);
        let c = nr_processing_cost(cat, &sql, args.reps).unwrap();
        println!(
            "| Q2 part={part} | {} | {:.4} | {:.4} | {} |",
            c.intermediate_rows,
            c.original_secs,
            c.optimized_secs,
            speedup(c.original_secs, c.optimized_secs)
        );
    }
    println!();
}

fn main() {
    let args = parse_args();
    println!(
        "# Paper experiment reproduction (scale {}, {} reps per point)\n",
        args.scale, args.reps
    );
    eprintln!("generating data at scale {} ...", args.scale);
    let strict = bench_catalog(args.scale);
    let nullable = bench_catalog_nullable(args.scale);
    for t in ["orders", "lineitem", "part", "partsupp"] {
        println!("- {t}: {} rows", strict.table(t).unwrap().len());
    }
    println!();

    if wanted(&args, "fig4") {
        fig4(&nullable, &strict, &args);
    }
    if wanted(&args, "fig5") {
        fig_q2(
            &strict,
            Quant::Any,
            "Figure 5 — Query 2a (mixed ANY / NOT EXISTS, linear)",
            &args,
        );
    }
    if wanted(&args, "fig6") {
        fig_q2(
            &nullable,
            Quant::All,
            "Figure 6 — Query 2b (negative ALL / NOT EXISTS); NOT NULL dropped",
            &args,
        );
    }
    if wanted(&args, "fig7") {
        fig_q3(
            &strict,
            Quant::All,
            ExistsKind::Exists,
            7,
            "Query 3a (mixed ALL / EXISTS)",
            &args,
        );
    }
    if wanted(&args, "fig8") {
        fig_q3(
            &strict,
            Quant::All,
            ExistsKind::NotExists,
            8,
            "Query 3b (negative ALL / NOT EXISTS)",
            &args,
        );
    }
    if wanted(&args, "fig9") {
        fig_q3(
            &strict,
            Quant::Any,
            ExistsKind::Exists,
            9,
            "Query 3c (positive ANY / EXISTS)",
            &args,
        );
    }
    if wanted(&args, "nrcost") {
        nrcost(&strict, &args);
    }
    if wanted(&args, "ext-agg") {
        ext_agg(&strict, &args);
    }
    if let Some(path) = &args.metrics {
        write_metrics(path, &strict, &nullable, &args);
    }
    if let Some(path) = &args.slow_log {
        write_slow_log(path, &strict, &nullable, &args);
    }
    if args.baseline_write || args.baseline_check {
        let profiles = profile::headline_profiles(&strict, &nullable, args.scale);
        if args.baseline_write {
            println!("### Baselines\n");
            for qp in &profiles {
                let path = baseline::write_baseline(qp).expect("write baseline");
                println!("- wrote {}", path.display());
            }
            println!();
        }
        if args.baseline_check {
            check_baselines(&profiles, &args);
        }
    }
}

/// `--metrics <path>`: run the headline queries through the facade with
/// per-query metrics collection, then write the process-cumulative
/// registry (queries, rows, operator counters, Q-error histogram) as
/// JSONL.
fn write_metrics(path: &std::path::Path, strict: &Catalog, nullable: &Catalog, args: &Args) {
    for (name, cat, sql) in headline_queries(strict, nullable, args.scale) {
        let db = nra::Database::from_catalog(cat.clone());
        let session = db.connect();
        session
            .execute_with(
                &sql,
                &nra::QueryOptions::new()
                    .strategy(nra::Strategy::Original)
                    .collect_metrics(true),
            )
            .unwrap_or_else(|e| panic!("headline query {name} runs: {e}"));
    }
    let snapshot = nra::obs::metrics::global().snapshot();
    std::fs::write(path, snapshot.to_jsonl()).expect("write metrics export");
    println!("- wrote {}\n", path.display());
}

/// `--slow-log <path>`: run the headline queries with a zero slow-query
/// threshold (every query logs) appending to `path`, then re-parse the
/// whole file against the record schema — the CI gate that keeps the
/// slow-query log machine-readable.
fn write_slow_log(path: &std::path::Path, strict: &Catalog, nullable: &Catalog, args: &Args) {
    for (name, cat, sql) in headline_queries(strict, nullable, args.scale) {
        let db = nra::Database::from_catalog(cat.clone());
        let session = db.connect();
        session
            .execute_with(
                &sql,
                &nra::QueryOptions::new()
                    .strategy(nra::Strategy::Original)
                    .collect_profile(true)
                    .slow_ms(0)
                    .slow_log(path),
            )
            .unwrap_or_else(|e| panic!("headline query {name} runs: {e}"));
    }
    let contents = std::fs::read_to_string(path).expect("read slow-query log");
    match nra::obs::slowlog::validate_lines(&contents) {
        Ok(n) => println!(
            "- slow-query log {} valid ({n} record(s))\n",
            path.display()
        ),
        Err(e) => {
            eprintln!("slow-query log {} INVALID: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `--baseline-check`: exact diff on counters and I/O pages, tolerance
/// band on wall time, non-zero exit with a delta table on regression.
fn check_baselines(profiles: &[profile::QueryProfile], args: &Args) {
    let tol = baseline::Tolerance {
        wall_factor: args.wall_factor,
        ..baseline::Tolerance::default()
    };
    println!("### Baseline check\n");
    let mut failed = false;
    for qp in profiles {
        match baseline::check_profile(qp, &tol) {
            Ok(report) => {
                print!("{}", report.render_markdown());
                failed |= !report.passed();
            }
            Err(e) => {
                println!("- `{}`: **error** — {e}", qp.name);
                failed = true;
            }
        }
    }
    println!();
    if failed {
        eprintln!("baseline check FAILED (see delta tables above)");
        std::process::exit(1);
    }
    println!("baseline check passed\n");
}
