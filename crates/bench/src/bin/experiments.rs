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
//! * `--profile` — write `BENCH_*.json` per-operator profiles to the cwd
//! * `--baseline-write` — refresh `crates/bench/baselines/BENCH_*.json`
//! * `--baseline-check` — diff fresh profiles against the committed
//!   baselines; non-zero exit + per-operator delta table on regression
//! * `--wall-factor <f>` — wall-time tolerance band for the check
//! * `--trace` — trace the paper's Query Q, write `TRACE_QQ.jsonl`
//! * `--serve` — start the TCP front end on an ephemeral port and drive
//!   it with concurrent protocol clients (1, then `--clients`, default
//!   8) running the headline queries; report client-observed per-query
//!   p50/p99 latency and aggregate throughput scaling
//! * `--threads <n>` — worker budget for the partition-parallel executor
//!   (also enables the `parallel` section: sequential vs parallel wall
//!   time on Q2a/Q2b for the nested relational series)
//! * `--batch-size <n>` — rows per `ValueBatch` for the vectorized
//!   executors (default 1024; also settable via `NRA_BATCH_ROWS`)
//! * `--record` — append timestamped wall-time entries for Q1/Q2A/Q2B at
//!   1 and 4 threads to the committed trajectory file
//!   (`crates/bench/trajectory/BENCH_TRAJECTORY.jsonl`)
//! * `--trajectory <path>` — record/check against this file instead
//! * `--check-trajectory` — validate the trajectory file (JSONL schema,
//!   append-only timestamps); non-zero exit on violation
//! * `--metrics <path>` — run the headline queries through the facade
//!   with metrics collection and write the process-cumulative registry
//!   as JSONL to `<path>`
//! * `--slow-log <path>` — run the headline queries with a zero
//!   slow-query threshold appending to `<path>`, then schema-validate
//!   the whole log; non-zero exit on a malformed record
//! * `--db <dir>` — durability mode: open (or create) a persistent
//!   database at `<dir>`, importing the bench catalog on the first run
//!   and recovering it (snapshot + WAL replay) on later runs, then run
//!   the headline queries and checkpoint; no figures are produced
//!
//! Passing any unknown positional (e.g. `none`) selects no figures, so
//! `experiments --scale 0.02 --record none` runs only the recorder.
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
    /// Write `BENCH_*.json` per-operator execution profiles
    /// (`--profile`).
    profile: bool,
    /// Refresh the committed baselines under `crates/bench/baselines/`.
    baseline_write: bool,
    /// Compare fresh profiles against the committed baselines; exit
    /// non-zero with a per-operator delta table on regression.
    baseline_check: bool,
    /// Wall-time tolerance factor for `--baseline-check`
    /// (`--wall-factor`, default 10).
    wall_factor: f64,
    /// Write `TRACE_QQ.jsonl`: the query-lifecycle trace of the paper's
    /// Query Q.
    trace: bool,
    /// Worker budget for the partition-parallel executor (`--threads`;
    /// default: the `NRA_THREADS` environment variable, else 1).
    threads: Option<usize>,
    /// Rows per `ValueBatch` for the vectorized executors
    /// (`--batch-size`; default: `NRA_BATCH_ROWS`, else 1024).
    batch_rows: Option<usize>,
    /// Append headline wall times to the committed trajectory file.
    record: bool,
    /// Override the trajectory file path for `--record`/`--check-trajectory`.
    trajectory: Option<std::path::PathBuf>,
    /// Validate the trajectory file and exit non-zero on violation.
    check_trajectory: bool,
    /// Write the process-cumulative metrics registry as JSONL here.
    metrics: Option<std::path::PathBuf>,
    /// Run the headline queries with a zero slow-query threshold,
    /// appending their records to this JSONL log, then schema-validate
    /// the whole file; exit non-zero on a malformed record.
    slow_log: Option<std::path::PathBuf>,
    /// Start the TCP front end and drive it with concurrent protocol
    /// clients; report per-query p50/p99 latency and 1-client vs
    /// N-client throughput (`--serve`).
    serve: bool,
    /// Client count for `--serve` (default 8).
    clients: usize,
    /// Durability mode (`--db <dir>`): open a persistent database at
    /// the directory, importing the bench catalog on first run and
    /// recovering it (snapshot + WAL replay) on later runs, then run
    /// the headline queries and checkpoint. No figures are produced.
    db: Option<std::path::PathBuf>,
    figures: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.5,
        reps: 3,
        profile: false,
        baseline_write: false,
        baseline_check: false,
        wall_factor: baseline::Tolerance::default().wall_factor,
        trace: false,
        threads: None,
        batch_rows: None,
        record: false,
        trajectory: None,
        check_trajectory: false,
        metrics: None,
        slow_log: None,
        serve: false,
        clients: 8,
        db: None,
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
            "--profile" => args.profile = true,
            "--baseline-write" => args.baseline_write = true,
            "--baseline-check" => args.baseline_check = true,
            "--wall-factor" => {
                args.wall_factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--wall-factor takes a number")
            }
            "--trace" => args.trace = true,
            "--serve" => args.serve = true,
            "--clients" => {
                args.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients takes a client count")
            }
            "--record" => args.record = true,
            "--trajectory" => {
                args.trajectory = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .expect("--trajectory takes a path"),
                )
            }
            "--check-trajectory" => args.check_trajectory = true,
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
            "--threads" => {
                args.threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads takes a worker count"),
                )
            }
            "--batch-size" => {
                args.batch_rows = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--batch-size takes a row count"),
                )
            }
            "--db" => {
                args.db = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .expect("--db takes a directory path"),
                )
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
    if let Some(dir) = &args.db {
        durable_bench(dir, args.scale, args.reps);
        return;
    }
    let _thread_budget = args
        .threads
        .map(|n| nra::engine::exec::set_threads(Some(n)));
    let _batch_width = args
        .batch_rows
        .map(|n| nra::engine::vec::set_batch_rows(Some(n)));
    println!(
        "# Paper experiment reproduction (scale {}, {} reps per point, {} thread(s), {} batch rows)\n",
        args.scale,
        args.reps,
        nra::engine::exec::threads(),
        nra::engine::vec::batch_rows()
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
    if wanted(&args, "parallel") && args.threads.is_some_and(|n| n > 1) {
        parallel_speedup(&strict, &nullable, &args);
    }
    if args.trace {
        trace_query_q();
    }
    if args.serve {
        serve_bench(&nullable, &args);
    }
    if args.record {
        record_trajectory(&strict, &nullable, &args);
    }
    if args.check_trajectory {
        check_trajectory(&args);
    }
    if let Some(path) = &args.metrics {
        write_metrics(path, &strict, &nullable, &args);
    }
    if let Some(path) = &args.slow_log {
        write_slow_log(path, &strict, &nullable, &args);
    }
    if args.profile || args.baseline_write || args.baseline_check {
        let profiles = collect_profiles(&strict, &nullable, &args);
        if args.profile {
            let dir = std::env::current_dir().expect("cwd");
            println!("### Execution profiles\n");
            for qp in &profiles {
                let path = qp.write_to(&dir).expect("write profile artifact");
                println!("- wrote {}", path.display());
            }
            println!();
        }
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

/// The tentpole's headline measurement: wall time of the nested relational
/// series on the join-heavy Query 2 variants, sequential vs the
/// `--threads` budget, on identical data. The result relations are
/// asserted identical, so any speedup is pure scheduling.
fn parallel_speedup(strict: &Catalog, nullable: &Catalog, args: &Args) {
    let threads = args.threads.unwrap_or(1);
    let grid = paper_grid(args.scale);
    let part = *grid.q23_part.last().unwrap();
    let queries: Vec<(&str, &Catalog, String)> = vec![
        (
            "Q2A",
            strict,
            q2_sql(strict, Quant::Any, part, grid.q23_partsupp),
        ),
        (
            "Q2B",
            nullable,
            q2_sql(nullable, Quant::All, part, grid.q23_partsupp),
        ),
    ];
    println!("### Partition-parallel speedup (1 thread vs {threads} threads)\n");
    println!("| query | series | 1 thread (s) | {threads} threads (s) | speedup | rows |");
    println!("|---|---|---|---|---|---|");
    for (name, cat, sql) in &queries {
        let pq = PreparedQuery::new(cat, sql.clone()).unwrap();
        for series in [Series::NrOriginal, Series::NrOptimized] {
            let (seq_secs, seq_rows) = {
                let _g = nra::engine::exec::set_threads(Some(1));
                pq.time(series, args.reps)
            };
            let (par_secs, par_rows) = {
                let _g = nra::engine::exec::set_threads(Some(threads));
                pq.time(series, args.reps)
            };
            assert_eq!(
                seq_rows, par_rows,
                "parallel execution changed the result of {name} ({series:?})"
            );
            println!(
                "| {name} | {} | {seq_secs:.4} | {par_secs:.4} | {} | {seq_rows} |",
                series.label(),
                speedup(seq_secs, par_secs)
            );
        }
    }
    println!();
}

/// The three headline queries (largest grid point each) shared by the
/// profile baselines, the trajectory recorder, and the metrics export.
fn headline_queries<'a>(
    strict: &'a Catalog,
    nullable: &'a Catalog,
    scale: f64,
) -> Vec<(&'static str, &'a Catalog, String)> {
    let grid = paper_grid(scale);
    let q1_outer = *grid.q1_outer.last().unwrap();
    let part = *grid.q23_part.last().unwrap();
    vec![
        ("Q1", nullable, q1_sql(nullable, q1_outer)),
        (
            "Q2A",
            strict,
            q2_sql(strict, Quant::Any, part, grid.q23_partsupp),
        ),
        (
            "Q2B",
            nullable,
            q2_sql(nullable, Quant::All, part, grid.q23_partsupp),
        ),
    ]
}

/// Collect per-operator execution profiles for the headline queries: every
/// series runs once under the observability collector + I/O simulator.
fn collect_profiles(
    strict: &Catalog,
    nullable: &Catalog,
    args: &Args,
) -> Vec<profile::QueryProfile> {
    headline_queries(strict, nullable, args.scale)
        .into_iter()
        .map(|(name, cat, sql)| {
            let pq = PreparedQuery::new(cat, sql).unwrap();
            profile::QueryProfile::collect(name, &pq, args.scale)
        })
        .collect()
}

/// `--record`: time the headline queries (both nested relational series)
/// at 1 and 4 worker threads and append the points to the wall-time
/// trajectory file. Unlike the figure tables (simulated-I/O estimates),
/// the trajectory records raw wall-clock seconds on the current host —
/// the *median* over `--reps` runs (after warm-up), so a single
/// scheduler stall on a shared host cannot inflate a recorded point.
fn record_trajectory(strict: &Catalog, nullable: &Catalog, args: &Args) {
    let ts_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_secs();
    let path = args
        .trajectory
        .clone()
        .unwrap_or_else(trajectory::default_path);
    let mut entries = Vec::new();
    for (name, cat, sql) in headline_queries(strict, nullable, args.scale) {
        let pq = PreparedQuery::new(cat, sql).unwrap();
        for threads in [1usize, 4] {
            let _g = nra::engine::exec::set_threads(Some(threads));
            for series in [Series::NrOriginal, Series::NrOptimized] {
                let (wall_secs, rows) = pq.time_median(series, args.reps);
                entries.push(trajectory::TrajectoryEntry {
                    ts_unix,
                    scale: args.scale,
                    query: name.to_string(),
                    threads,
                    series: series.label().to_string(),
                    reps: args.reps,
                    wall_secs,
                    rows,
                });
            }
        }
    }
    trajectory::append(&path, &entries).expect("append trajectory entries");
    println!(
        "### Wall-time trajectory\n\n- appended {} entries to {}\n",
        entries.len(),
        path.display()
    );
}

/// `--check-trajectory`: schema + append-only validation; non-zero exit
/// on any violation so CI can gate on it.
fn check_trajectory(args: &Args) {
    let path = args
        .trajectory
        .clone()
        .unwrap_or_else(trajectory::default_path);
    match trajectory::validate_file(&path) {
        Ok(entries) => println!(
            "trajectory check passed: {} entries in {}\n",
            entries.len(),
            path.display()
        ),
        Err(e) => {
            eprintln!("trajectory check FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// `--db <dir>`: the CI durability mode. The first run against an empty
/// directory imports the nullable bench catalog through the durable
/// path (each table one atomic WAL `CreateTable` record); later runs
/// recover the catalog from snapshot + log and report what replay did.
/// Both runs execute the headline queries against the durable catalog
/// and end with an explicit checkpoint. The `durable-catalog:` /
/// `reopen-replay:` / `checkpoint:` lines are stable grep targets for
/// the CI `durability-check` job.
fn durable_bench(dir: &std::path::Path, scale: f64, reps: usize) {
    let db = match nra::Database::open(dir) {
        Ok(db) => db,
        Err(e) => {
            eprintln!(
                "error: cannot open durable database at {}: {e}",
                dir.display()
            );
            std::process::exit(1);
        }
    };
    let report = db
        .recovery()
        .expect("durable database has a recovery report");
    let fresh = db.catalog().table_names().is_empty();
    if fresh {
        eprintln!("generating data at scale {scale} ...");
        let cat = bench_catalog_nullable(scale);
        for name in cat.table_names() {
            db.add_table(cat.table(name).unwrap().clone())
                .expect("import bench table");
        }
        println!(
            "durable-catalog: imported {} table(s) into {}",
            db.catalog().table_names().len(),
            dir.display()
        );
    } else {
        println!(
            "durable-catalog: recovered {} table(s) from {} \
             (snapshot lsn {}, {} record(s) replayed)",
            db.catalog().table_names().len(),
            dir.display(),
            report.snapshot_lsn,
            report.replayed
        );
        println!("reopen-replay: ok");
    }
    for msg in &report.messages {
        println!("recovery: {msg}");
    }

    let grid = paper_grid(scale);
    let q1_outer = *grid.q1_outer.last().unwrap();
    let part = *grid.q23_part.last().unwrap();
    let queries: Vec<(&'static str, String)> = {
        let cat = db.catalog();
        vec![
            ("Q1", q1_sql(&cat, q1_outer)),
            ("Q2A", q2_sql(&cat, Quant::Any, part, grid.q23_partsupp)),
            ("Q2B", q2_sql(&cat, Quant::All, part, grid.q23_partsupp)),
        ]
    };
    let session = db.connect();
    println!("\n| query | median (ms) over {reps} rep(s) | rows |");
    println!("|---|---|---|");
    for (name, sql) in &queries {
        let mut times = Vec::new();
        let mut rows = 0;
        for _ in 0..reps.max(1) {
            let start = std::time::Instant::now();
            let out = session
                .execute(sql)
                .unwrap_or_else(|e| panic!("headline query {name} runs durably: {e}"));
            times.push(start.elapsed().as_secs_f64() * 1e3);
            rows = out.rows.len();
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!("| {name} | {:.2} | {rows} |", times[times.len() / 2]);
    }

    let lsn = db.checkpoint().expect("checkpoint durable database");
    println!("\ncheckpoint: lsn {lsn} at {}", dir.display());
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

/// `--serve`: start the TCP front end over the nullable headline
/// catalog and hammer it with protocol clients — first one, then
/// `--clients` — running the headline queries (Q1/Q2A/Q2B, all valid on
/// the nullable schema) in rounds. Reports per-query p50/p99 latency as
/// observed by the clients, plus aggregate throughput; the N-client
/// phase is expected to sustain well above 1-client throughput since
/// read queries share the catalog lock and the plan cache.
fn serve_bench(nullable: &Catalog, args: &Args) {
    let grid = paper_grid(args.scale);
    let q1_outer = *grid.q1_outer.last().unwrap();
    let part = *grid.q23_part.last().unwrap();
    let queries: Vec<(&'static str, String)> = vec![
        ("Q1", q1_sql(nullable, q1_outer)),
        ("Q2A", q2_sql(nullable, Quant::Any, part, grid.q23_partsupp)),
        ("Q2B", q2_sql(nullable, Quant::All, part, grid.q23_partsupp)),
    ];
    let rounds = (args.reps * 8).max(8);

    let db = nra::Database::from_catalog(nullable.clone());
    let handle = nra_server::serve(db, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();
    println!(
        "### Serving benchmark ({} round(s) of {} queries per client, scale {})\n",
        rounds,
        queries.len(),
        args.scale
    );
    println!("| clients | query | p50 (ms) | p99 (ms) | queries/s (all) |");
    println!("|---|---|---|---|---|");

    let mut throughput_1 = None;
    for clients in [1usize, args.clients.max(1)] {
        let phase_start = std::time::Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let queries = queries.clone();
                std::thread::spawn(move || {
                    let mut client =
                        nra_server::Client::connect(addr).expect("connect to bench server");
                    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
                    let mut rows: Vec<usize> = vec![0; queries.len()];
                    for _ in 0..rounds {
                        for (qi, (name, sql)) in queries.iter().enumerate() {
                            let start = std::time::Instant::now();
                            let resp = client
                                .query(sql)
                                .unwrap_or_else(|e| panic!("{name} over the wire: {e}"));
                            lat[qi].push(start.elapsed().as_secs_f64() * 1e3);
                            match rows[qi] {
                                0 => rows[qi] = resp.rows.len().max(1),
                                r => assert_eq!(
                                    r,
                                    resp.rows.len().max(1),
                                    "{name} answer changed across rounds"
                                ),
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
        for w in workers {
            for (qi, lat) in w.join().expect("client thread").into_iter().enumerate() {
                per_query[qi].extend(lat);
            }
        }
        let phase_secs = phase_start.elapsed().as_secs_f64();
        let total_queries = clients * rounds * queries.len();
        let qps = total_queries as f64 / phase_secs;
        if clients == 1 {
            throughput_1 = Some(qps);
        }
        for (qi, (name, _)) in queries.iter().enumerate() {
            let lat = &mut per_query[qi];
            lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let p50 = lat[lat.len() / 2];
            let p99 = lat[(lat.len() * 99) / 100];
            println!("| {clients} | {name} | {p50:.3} | {p99:.3} | {qps:.1} |");
        }
        if clients > 1 {
            let base = throughput_1.expect("1-client phase ran first");
            println!(
                "\n{clients}-client throughput is {:.2}x the 1-client baseline\n",
                qps / base
            );
        }
    }
    handle.shutdown();
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

/// `--trace`: run the paper's Query Q over the Section 2 example catalog
/// with query-lifecycle tracing, print the span tree, and write the JSONL
/// event stream as `TRACE_QQ.jsonl` (the CI artifact).
fn trace_query_q() {
    let db = nra::Database::from_catalog(nra::tpch::paper_example::rst_catalog());
    let out = db
        .connect()
        .execute_with(
            nra::tpch::paper_example::QUERY_Q,
            &nra::QueryOptions::new().collect_trace(true),
        )
        .expect("paper's Query Q runs");
    let trace = out.trace.expect("trace collected");
    println!("### Query-lifecycle trace of the paper's Query Q\n");
    println!("```");
    print!("{}", trace.render_tree());
    println!("-- {} row(s)", out.rows.len());
    println!("```\n");
    let path = std::env::current_dir().expect("cwd").join("TRACE_QQ.jsonl");
    std::fs::write(&path, trace.to_jsonl()).expect("write trace artifact");
    println!("- wrote {}\n", path.display());
}
