//! The benchmark command. See `README.md` for how to run it and how to
//! read what it prints.
//!
//! ```text
//! nra-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload and prints, as the last line of its standard output,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. Without `--workload` it runs every workload
//! both ways (each in a process of its own, so peak memory is per
//! workload) and writes `out/results.json`.

mod common;
mod data;
mod ingest;
mod layers;
mod nested;
mod point;
mod report;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use common::{on_fresh_thread, proc_status_mb, Phase, RssSampler, Served, Sizes, SETUPS};
use point::Via;
use report::{Report, CLASSES, RUN_SECONDS, WORKLOADS};
use trace::Tracer;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: run.sh [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick] [--out <dir>] | --manifest";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--manifest" => {
                print!("{}", report::manifest_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.5 } else { RUN_SECONDS as f64 })
    }
}

/// Refuse a debug build and clear every `NRA_*` variable: 17 knobs can
/// silently change batch width, threads, plan cache or checkpoint
/// cadence, and a benchmark must measure the defaults.
fn hygiene() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use run.sh (cargo build --release)".into());
    }
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NRA_"))
        .collect();
    for k in knobs {
        eprintln!("note: unsetting {k}");
        std::env::remove_var(k);
    }
    Ok(())
}

fn timed<T>(f: impl FnOnce() -> io::Result<T>) -> io::Result<(T, f64)> {
    let start = Instant::now();
    let out = f()?;
    Ok((out, start.elapsed().as_secs_f64()))
}

/// `setup_s`: the median over [`SETUPS`] full set-ups. The first one is the
/// instance that was measured (`first_s`); the rest are set up and torn
/// down here, after the measured window, so that the window runs in a
/// process that has allocated the served data and nothing else.
fn put_setup_metric<T>(
    report: &mut Report,
    first_s: f64,
    setup: impl Fn() -> io::Result<T>,
    teardown: impl Fn(T),
) -> io::Result<()> {
    let mut times = vec![first_s];
    while times.len() < SETUPS {
        let (instance, secs) = timed(&setup)?;
        teardown(instance);
        times.push(secs);
    }
    report.put("setup_s", stats::median(&times), times.len() as u64);
    Ok(())
}

/// What one run produced, whichever kind it was.
struct RunOutput {
    report: Report,
    attempted: u64,
    failed: u64,
}

/// The latency metrics every workload shares, over the first `timed`
/// classes of `phase`. `p50` is passed in because the nested workloads
/// define it per class (see [`nested_p50`]).
fn put_latency_metrics(report: &mut Report, phase: &Phase, timed: usize, qps: f64, p50: f64) {
    let pooled = phase.pooled_sorted(timed);
    let n = pooled.len() as u64;
    report.put("qps", qps, n);
    report.put("p50_ms", p50, n);
    report.put("p90_ms", stats::percentile_sorted(&pooled, 90.0), n);
    report.detail(
        "samples_beyond_p90",
        stats::samples_beyond(pooled.len(), 90.0) as f64,
        "count",
        n,
    );
    if let Some(p) = stats::highest_supported_percentile(pooled.len()).filter(|p| *p != 90.0) {
        report.detail(
            &format!("p{p}_ms"),
            stats::percentile_sorted(&pooled, p),
            "ms",
            n,
        );
    }
    for (class, _) in &phase.classes {
        if let Some((ms, count)) = phase.class_median(class) {
            report.detail(&format!("{class}_p50_ms"), ms, "ms", count);
        }
    }
    report.detail(
        "fail_ratio",
        phase.failed as f64 / phase.attempted.max(1) as f64,
        "ratio",
        phase.attempted,
    );
}

/// Six query classes of very different cost alternate, so a pooled median
/// would sit in the gap between two classes and jump with either's
/// outliers. The nested workloads report the mean of the six per-class
/// medians instead: each class counts once, each median is robust.
fn nested_p50(phase: &Phase) -> f64 {
    let medians: Vec<f64> = CLASSES
        .iter()
        .filter_map(|c| phase.class_median(c))
        .map(|(ms, _)| ms)
        .collect();
    stats::mean(&medians)
}

fn log_failures(phase: &Phase) {
    for f in &phase.failures {
        eprintln!("FAILED: {f}");
    }
}

/// Correct operations per second of the measured window.
fn wall_qps(phase: &Phase) -> f64 {
    (phase.attempted - phase.failed) as f64 / phase.wall_s
}

fn threads_of(workload: &str) -> usize {
    if workload == "nested_parallel" {
        2
    } else {
        1
    }
}

fn run_e2e(workload: &str, args: &Args, sizes: Sizes) -> io::Result<RunOutput> {
    let mut report = Report::new(report::end_to_end());
    let (seed, seconds) = (args.seed, args.seconds());
    // Order in every arm: set up once, measure (resident-set sampler
    // running), tear down; only then the remaining set-ups and the
    // oracle, so nothing of theirs is in the heap while the window runs.
    let (phase, peak_rss) = match workload {
        "nested_heavy" | "nested_parallel" => {
            let setup = || nested::setup(seed, sizes.scale, threads_of(workload));
            let (mut w, first_s) = timed(setup)?;
            let rss = RssSampler::start();
            let (mut phase, answers) = w.measure(seconds);
            let peak_rss = rss.stop();
            w.teardown();
            put_setup_metric(&mut report, first_s, setup, nested::Nested::teardown)?;
            let start = Instant::now();
            answers.verify(&data::nested_oracle(seed, sizes.scale), &mut phase);
            for class in data::reference_mismatches(seed) {
                phase.attempted += 1;
                phase.fail(format!("{class}: disagrees with the reference evaluator"));
            }
            report.detail("oracle_s", start.elapsed().as_secs_f64(), "s", 1);
            put_latency_metrics(
                &mut report,
                &phase,
                CLASSES.len(),
                wall_qps(&phase),
                nested_p50(&phase),
            );
            (phase, peak_rss)
        }
        "point_floor" => {
            // The example tables are 13 rows: this oracle leaves nothing
            // behind worth ordering around.
            let expected = point::oracle().map_err(io::Error::other)?;
            let setup = || point::setup(seed, sizes.scale);
            let (mut w, first_s) = timed(setup)?;
            let rss = RssSampler::start();
            let (phase, _) = w.measure(seed, seconds, &expected, point::CLIENTS, Via::Session)?;
            let peak_rss = rss.stop();
            drop(w);
            put_setup_metric(&mut report, first_s, setup, drop)?;
            let timed_classes = point::POINT_CLASSES.len();
            let p50 = stats::percentile_sorted(&phase.pooled_sorted(timed_classes), 50.0);
            put_latency_metrics(&mut report, &phase, timed_classes, wall_qps(&phase), p50);
            (phase, peak_rss)
        }
        "ingest_recover" => {
            let setup = || ingest::setup(seed, sizes, &args.out);
            let (mut w, first_s) = timed(setup)?;
            report.note("ingest_fs", &common::filesystem_of(w.scratch_dir()));
            let rss = RssSampler::start();
            let measured = on_fresh_thread(|| w.measure(seed, seconds, None));
            let peak_rss = rss.stop();
            drop(w);
            put_setup_metric(&mut report, first_s, setup, drop)?;
            let (phase, cycles) = measured?;
            put_ingest_metrics(&mut report, &phase, &cycles);
            (phase, peak_rss)
        }
        other => unreachable!("workload `{other}` was validated by parse_args"),
    };
    log_failures(&phase);
    report.put("peak_rss_mb", peak_rss, 1);
    report.detail("process_peak_rss_mb", proc_status_mb("VmHWM"), "MB", 1);
    Ok(RunOutput {
        report,
        attempted: phase.attempted,
        failed: phase.failed,
    })
}

/// `ingest_recover`: the end-to-end numbers are over the reads and the
/// recoveries (see `ingest.rs` for why); insert throughput and the other
/// classes are listed beside them.
fn put_ingest_metrics(report: &mut Report, phase: &Phase, cycles: &[ingest::Cycle]) {
    let timed = ingest::TIMED_CLASSES;
    let p50 = stats::percentile_sorted(&phase.pooled_sorted(timed), 50.0);
    put_latency_metrics(report, phase, timed, phase.busy_qps(1, timed), p50);
    let n = cycles.len() as u64;
    let rates: Vec<(u64, f64)> = cycles
        .iter()
        .map(|c| (c.inserts, c.insert_phase_s))
        .collect();
    if let Some(rate) = stats::median_rate(&rates) {
        report.detail("inserts_per_s", rate, "1/s", n);
    }
    let replayed: Vec<f64> = cycles.iter().map(|c| c.replayed as f64).collect();
    report.detail("replayed_records", stats::median(&replayed), "count", n);
}

/// Median over the requests selected by `pick` of the sum of their spans'
/// self times, in ms, with the number of requests.
fn self_sum_ms(sums: &BTreeMap<u64, u64>, pick: impl Fn(u64) -> bool) -> Option<(f64, u64)> {
    let picked: Vec<f64> = sums
        .iter()
        .filter(|(req, _)| pick(**req))
        .map(|(_, ns)| *ns as f64 / 1e6)
        .collect();
    (!picked.is_empty()).then(|| (stats::median(&picked), picked.len() as u64))
}

fn run_traced(workload: &str, args: &Args, sizes: Sizes) -> io::Result<RunOutput> {
    let mut report = Report::new(report::per_layer());
    let (seed, seconds) = (args.seed, args.seconds() / 4.0);

    // The layer probes run first, in a clean process; the workload's
    // replay follows: a quarter-length untraced phase and a quarter-length
    // phase with spans (alternating round by round on the nested
    // workloads, whose requests are few and long).
    let probe_failures = layers::run(seed, sizes, &args.out, &mut report)?;

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    // (untraced phase, traced phase, clients, classes the ratio is over)
    let (plain, traced, clients, timed) = match workload {
        "nested_heavy" | "nested_parallel" => {
            let mut w = nested::setup(seed, sizes.scale, threads_of(workload))?;
            // A full run length: a plain round plus a traced one take ~3.5 s
            // here, and per-class medians need more than two of each.
            let (mut plain, traced, answers) =
                on_fresh_thread(|| w.measure_traced(4.0 * seconds, &mut tracer));
            w.teardown();
            answers.verify(&data::nested_oracle(seed, sizes.scale), &mut plain);
            // Requests are numbered from 1 in class order.
            let sums = trace::self_sum_per_request(&tracer.spans);
            for (i, class) in CLASSES.iter().enumerate() {
                if let Some((ms, n)) = self_sum_ms(&sums, |req| (req - 1) % 6 == i as u64) {
                    report.detail(&format!("self_sum.{class}_ms"), ms, "ms", n);
                }
            }
            (plain, traced, 1, CLASSES.len())
        }
        "point_floor" => {
            let expected = point::oracle().map_err(io::Error::other)?;
            let mut w = point::setup(seed, sizes.scale)?;
            let served = Served::start(w.db.clone())?;
            let clients = point::CLIENTS;
            let (plain, _) = w.measure(seed, seconds, &expected, clients, Via::Wire(&served))?;
            let (traced, tracers) = w.measure(
                seed,
                seconds,
                &expected,
                clients,
                Via::WireTraced(&served, epoch),
            )?;
            served.shutdown();
            tracers.into_iter().for_each(|t| tracer.merge(t));
            // The class is the lowest bit of the request id.
            let sums = trace::self_sum_per_request(&tracer.spans);
            for (class, name) in point::POINT_CLASSES.iter().enumerate() {
                if let Some((ms, n)) = self_sum_ms(&sums, |req| req % 2 == class as u64) {
                    report.detail(&format!("self_sum.{name}_ms"), ms, "ms", n);
                }
            }
            (plain, traced, point::CLIENTS, point::POINT_CLASSES.len())
        }
        "ingest_recover" => {
            let mut w = ingest::setup(seed, sizes, &args.out)?;
            let (plain, traced) = on_fresh_thread(|| {
                let (plain, _) = w.measure(seed, seconds, None)?;
                let (traced, _) = w.measure(seed, seconds, Some(&mut tracer))?;
                io::Result::Ok((plain, traced))
            })?;
            // Recoveries are request 0 of their cycle.
            let sums = trace::self_sum_per_request(&tracer.spans);
            if let Some((ms, n)) = self_sum_ms(&sums, |req| req % 1_000_000 != 0) {
                report.detail("self_sum.insert_ms", ms, "ms", n);
            }
            (plain, traced, 1, ingest::TIMED_CLASSES)
        }
        other => unreachable!("workload `{other}` was validated by parse_args"),
    };
    log_failures(&plain);
    log_failures(&traced);

    let spans = &tracer.spans;
    let totals = trace::self_times(spans);
    report.put(
        "trace.overhead_ratio",
        traced.busy_qps(clients, timed) / plain.busy_qps(clients, timed),
        traced.attempted,
    );
    report.put(
        "trace.self_sum_ratio",
        trace::self_sum_ratio(&totals),
        spans.len() as u64,
    );
    report.put("trace.spans", spans.len() as f64, 1);
    for (name, t) in &totals {
        report.detail(
            &format!("span.{name}.self_ms"),
            t.self_ns as f64 / 1e6 / t.count as f64,
            "ms",
            t.count,
        );
    }
    for (class, _) in &plain.classes {
        if let Some((ms, n)) = plain.class_median(class) {
            report.detail(&format!("untraced.{class}_p50_ms"), ms, "ms", n);
        }
    }
    std::fs::create_dir_all(&args.out)?;
    trace::write_jsonl(&args.out.join(format!("{workload}.trace.jsonl")), spans)?;

    Ok(RunOutput {
        report,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed + probe_failures,
    })
}

/// Run one workload in this process; print its metrics and, last, the
/// result line. Also leaves the run's full record in the output directory.
fn run_one(workload: &str, args: &Args) -> io::Result<bool> {
    let sizes = Sizes::new(args.quick);
    let kind = if args.trace { "layers" } else { "e2e" };
    let RunOutput {
        report,
        attempted,
        failed,
    } = if args.trace {
        run_traced(workload, args, sizes)?
    } else {
        run_e2e(workload, args, sizes)?
    };
    let missing = report.missing();
    if !missing.is_empty() {
        return Err(io::Error::other(format!(
            "declared metrics were not measured: {missing:?}"
        )));
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "== {workload} ({kind}, seed {}, {} s, {attempted} attempted, {failed} failed)",
        args.seed,
        args.seconds()
    );
    print!("{}", report.render_text());
    std::fs::create_dir_all(&args.out)?;
    std::fs::write(
        args.out.join(format!("{workload}.{kind}.json")),
        format!(
            "{{\"workload\": \"{workload}\", \"kind\": \"{kind}\", \"seed\": {}, \"seconds\": {}, \
             \"quick\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, {}}}\n",
            args.seed,
            args.seconds(),
            args.quick,
            report.record_json()
        ),
    )?;
    println!("{}", report.result_line(correct, attempted, failed));
    Ok(correct)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run every workload untraced, then traced, each in a child process, and
/// gather their records into `results.json`.
fn run_all(args: &Args) -> io::Result<bool> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all(&args.out)?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for trace in ["0", "1"] {
        for (workload, _) in WORKLOADS {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds().to_string()])
                .arg("--out")
                .arg(&args.out);
            if args.quick {
                child.arg("--quick");
            }
            // The child's listing and result line pass straight through.
            let status = child.status()?;
            let kind = if trace == "1" { "layers" } else { "e2e" };
            match std::fs::read_to_string(args.out.join(format!("{workload}.{kind}.json"))) {
                Ok(record) if status.success() => records.push(record.trim().to_string()),
                _ => {
                    eprintln!("FAILED: {workload} --trace {trace} ({status})");
                    all_correct = false;
                }
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"quick\": {}, \"nproc\": {nproc}, \"rustc\": {}, \
         \"git_sha\": {}, \"out_fs\": {}}}",
        args.seed,
        args.seconds(),
        args.quick,
        nra::obs::json::escape(&command_line("rustc", &["-V"])),
        nra::obs::json::escape(&command_line("git", &["rev-parse", "HEAD"])),
        nra::obs::json::escape(&common::filesystem_of(&args.out)),
    );
    let results = args.out.join("results.json");
    std::fs::write(
        &results,
        format!(
            "{{\"env\": {env},\n \"runs\": [\n  {}\n ]}}\n",
            records.join(",\n  ")
        ),
    )?;
    println!("== wrote {}", results.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = hygiene() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let outcome = match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(3)
        }
    }
}
