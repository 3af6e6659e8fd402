//! Per-layer probes: each public entry point timed from outside, nested
//! ones differenced (wire → `Session::execute` → `nra_core::execute` →
//! `unnest_join_phase` / `nest` / `LinkSelection::select`).
//!
//! Every traced run executes this whole suite, whatever its workload, so
//! a per-layer name means the same thing everywhere. Each timing is a
//! median over [`Sizes::layer_reps`] calls ([`Sizes::micro_calls`] for the
//! microsecond-scale ones). Data is built on the calling thread and every
//! timed call runs on a fresh one (see [`on_fresh_thread`]).

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use nra::core::Strategy;
use nra::sql::{BExpr, BoundQuery};
use nra::storage::wal::{self, WalRecord, WalWriter};
use nra::storage::{disk, Catalog};
use nra::{Database, QueryOptions};

use crate::common::{on_fresh_thread, proc_status_mb, Phase, Served, Sizes};
use crate::point::Via;
use crate::report::{Report, CLASSES};
use crate::wire::{Frame, WireClient};
use crate::{data, ingest, point, stats};

fn to_io(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Session/wire pairs per repetition in the nested probes.
const WIRE_PAIRS: usize = 3;

/// Wall time of one call of `f`, in ms.
fn once_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in ms.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| once_ms(&mut f)).collect();
    stats::median(&samples)
}

/// Median wall time of `calls` calls of `f`, in µs.
fn median_us<T>(calls: usize, f: impl FnMut() -> T) -> f64 {
    median_ms(calls, f) * 1e3
}

fn counter(name: &str) -> u64 {
    nra::obs::metrics::global().snapshot().counter_total(name)
}

/// Run every probe and record every per-layer metric except the
/// `trace.*` ones (those come from the workload's traced replay).
/// Returns the number of failed checks.
pub fn run(seed: u64, sizes: Sizes, out: &Path, report: &mut Report) -> io::Result<u64> {
    let mut failed = 0;
    failed += nested_layers(seed, sizes, report)?;
    failed += point_layers(seed, sizes, report)?;
    failed += storage_layers(seed, sizes, out, report)?;
    Ok(failed)
}

/// `nra_core`, `nra_engine::exec`, `nra_obs` and the server's result
/// encoding, on the six nested classes.
fn nested_layers(seed: u64, sizes: Sizes, report: &mut Report) -> io::Result<u64> {
    let rss_before = proc_status_mb("VmRSS");
    let start = Instant::now();
    let cat = data::tpch_catalog(sizes.scale, seed);
    report.put("tpch.gen_s", start.elapsed().as_secs_f64(), 1);
    let rss_after = proc_status_mb("VmRSS");
    let rows = data::total_rows(&cat);
    report.put("mem.rss_after_load_mb", rss_after, 1);
    report.put(
        "mem.bytes_per_row",
        (rss_after - rss_before).max(0.0) * 1024.0 * 1024.0 / rows as f64,
        rows as u64,
    );

    let sql = data::class_sql(&cat, sizes.scale);
    let served = Served::start(Database::from_catalog(cat))?;
    let failed = on_fresh_thread(|| nested_probes(&served, &sql, sizes.layer_reps, report));
    served.shutdown();
    failed
}

fn nested_probes(
    served: &Served,
    sql: &[String],
    reps: usize,
    report: &mut Report,
) -> io::Result<u64> {
    let n = reps as u64;
    let mut failed = 0;
    let db = served.db.clone();
    let cat = db.catalog();
    let mut client = WireClient::connect(served.addr)?;
    client.command(".set threads 1")?;
    let mut session = db.connect();
    session.set_defaults(QueryOptions::new().threads(1));

    let start = Instant::now();
    let expected: Vec<data::Expected> =
        sql.iter().map(|q| data::expected_answer(q, &cat)).collect();
    report.put("setup.expected_s", start.elapsed().as_secs_f64(), 1);

    // Every variant of a class is timed once per repetition, back to back,
    // and ratios and differences are taken within a repetition before the
    // median across repetitions: the machine drifts by 10-40% over
    // minutes, and only measurements taken together compare.
    let strategies = [
        Strategy::Original,
        Strategy::Optimized,
        Strategy::BottomUp,
        Strategy::BottomUpPushdown,
        Strategy::PositiveRewrite,
    ];
    for ((class, q), exp) in CLASSES.iter().zip(sql).zip(&expected) {
        let bound = data::bind(q, &cat);
        let run = |strategy| nra::core::execute(&bound, &cat, strategy);
        let unnest = || nra::core::optimize::pipeline::unnest_join_phase(&bound, &cat);
        report.put(
            &format!("core.intermediate_rows.{class}"),
            unnest().map_err(to_io)?.len() as f64,
            1,
        );
        // Which strategies apply to this query shape, and do they agree?
        let mut applicable = Vec::new();
        for strategy in strategies {
            match run(strategy) {
                Ok(rel) if rel.len() == exp.rows => applicable.push(strategy),
                Ok(rel) => {
                    eprintln!(
                        "{class}: {} returned {} rows, expected {}",
                        strategy.name(),
                        rel.len(),
                        exp.rows
                    );
                    failed += 1;
                }
                Err(_) => {} // not applicable
            }
        }
        // Warm the plan cache on both paths.
        let _ = session.execute(q);
        let _ = client.request(q, false)?;

        let mut wire_ok = true;
        let mut samples: Vec<[f64; 8]> = Vec::with_capacity(reps);
        for _ in 0..reps.max(1) {
            let sequential = nra::engine::exec::set_threads(Some(1));
            let unnest_ms = once_ms(unnest);
            let auto = once_ms(|| run(Strategy::Auto));
            let mut best = f64::INFINITY;
            let (mut original, mut optimized) = (f64::NAN, f64::NAN);
            for &strategy in &applicable {
                let ms = once_ms(|| run(strategy));
                best = best.min(ms);
                match strategy {
                    Strategy::Original => original = ms,
                    Strategy::Optimized => optimized = ms,
                    _ => {}
                }
            }
            drop(sequential);
            let two = {
                let _two = nra::engine::exec::set_threads(Some(2));
                once_ms(|| run(Strategy::Auto))
            };
            // The wire's share is a small difference of two large times:
            // alternate the pair a few times per repetition.
            let mut encode = Vec::with_capacity(WIRE_PAIRS);
            let mut on_wire = Vec::with_capacity(WIRE_PAIRS);
            for _ in 0..WIRE_PAIRS {
                let in_session = once_ms(|| session.execute(q));
                let round_trip = once_ms(|| {
                    wire_ok &= matches!(
                        client.request(q, false),
                        Ok(Frame::Ok { rows, .. }) if rows == exp.rows
                    );
                });
                encode.push((round_trip - in_session).max(0.0));
                on_wire.push(round_trip);
            }
            samples.push([
                unnest_ms,
                (optimized - unnest_ms).max(0.0),
                auto,
                auto / best,
                optimized / original,
                auto / two,
                stats::median(&encode),
                stats::median(&on_wire),
            ]);
        }
        if !wire_ok {
            eprintln!("{class}: wrong answer over the wire");
            failed += 1;
        }
        for (i, name) in [
            "core.unnest_join_ms",
            "core.nest_link_ms",
            "core.auto_ms",
            "core.auto_regret",
            "core.opt_over_orig",
            "exec.speedup_2t",
            "server.encode_ms",
        ]
        .iter()
        .enumerate()
        {
            let column: Vec<f64> = samples.iter().map(|s| s[i]).collect();
            report.put(&format!("{name}.{class}"), stats::median(&column), n);
        }
        let wire: Vec<f64> = samples.iter().map(|s| s[7]).collect();
        report.put(&format!("wire.{class}_p50_ms"), stats::median(&wire), n);

        if *class == "q1" {
            let (nest_ms, link_ms) = q1_nest_and_link(&bound, &cat, reps)?;
            report.put("core.nest_ms.q1", nest_ms, n);
            report.put("core.linking_ms.q1", link_ms, n);
        }
    }

    // nra_obs armed: ratio to the plain session call, on q2b, again
    // within a repetition.
    let q2b = &sql[CLASSES
        .iter()
        .position(|c| *c == "q2b")
        .expect("q2b is a class")];
    for (name, opts) in [
        (
            "obs.profile_overhead.q2b",
            QueryOptions::new().collect_profile(true),
        ),
        (
            "obs.trace_overhead.q2b",
            QueryOptions::new().collect_trace(true),
        ),
        (
            "obs.metrics_overhead.q2b",
            QueryOptions::new().collect_metrics(true),
        ),
    ] {
        let opts = opts.threads(1);
        let ratios: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let plain = once_ms(|| session.execute(q2b));
                once_ms(|| session.execute_with(q2b, &opts)) / plain
            })
            .collect();
        report.put(name, stats::median(&ratios), n);
    }

    Ok(failed)
}

/// `nest` and the linking selection called directly on q1's flat
/// intermediate result, as Algorithm 1 would (ms each).
fn q1_nest_and_link(bound: &BoundQuery, cat: &Catalog, reps: usize) -> io::Result<(f64, f64)> {
    let rel = nra::core::optimize::pipeline::unnest_join_phase(bound, cat).map_err(to_io)?;
    let edge = bound
        .root
        .children
        .first()
        .ok_or_else(|| to_io("q1 has a subquery"))?;
    let column = |e: &Option<BExpr>| match e {
        Some(BExpr::Col(c)) => Ok(c.clone()),
        _ => Err(to_io("q1 links bare columns")),
    };
    let (outer, inner) = (column(&edge.outer_expr)?, column(&edge.inner_expr)?);
    let names = rel.schema().names();
    let owned = nra::core::compute::owned_columns(rel.schema(), &edge.block);
    let (n2, n1): (Vec<usize>, Vec<usize>) = (0..names.len()).partition(|i| owned.contains(i));
    let pick = |idx: &[usize]| idx.iter().map(|&i| names[i]).collect::<Vec<&str>>();
    let (n1, n2) = (pick(&n1), pick(&n2));
    let selection =
        nra::core::compute::edge_selection(edge, Some(&outer), Some(&inner)).map_err(to_io)?;
    let nested = nra::core::nest(&rel, &n1, &n2, "sub").map_err(to_io)?;
    let nest_ms = median_ms(reps, || nra::core::nest(&rel, &n1, &n2, "sub"));
    let link_ms = median_ms(reps, || selection.select(&nested, "sub"));
    Ok((nest_ms, link_ms))
}

/// The fixed per-query path on the paper's Query Q: `nra_sql`,
/// `nra::plancache`, `nra_core::planner`, `nra::session`, `nra_server`.
fn point_layers(seed: u64, sizes: Sizes, report: &mut Report) -> io::Result<u64> {
    let expected = point::oracle().map_err(to_io)?;
    let mut point = point::setup(seed, sizes.scale)?;
    let served = Served::start(point.db.clone())?;
    on_fresh_thread(|| point_micro_probes(&served, sizes.micro_calls, report))?;

    // The workload's own request mix, briefly: hit and miss latency as the
    // clients see them, what the plan cache did, and 1- vs 2-client
    // throughput.
    let secs = if sizes.layer_reps > 1 { 1.5 } else { 0.3 };
    let (one, _) = point.measure(seed, secs, &expected, 1, Via::Wire(&served))?;
    let plan_cache =
        || ["hits", "misses", "evictions"].map(|c| counter(&format!("nra_plan_cache_{c}_total")));
    let before = plan_cache();
    let (two, _) = point.measure(seed, secs, &expected, point::CLIENTS, Via::Wire(&served))?;
    let after = plan_cache();
    let [hits, misses, evictions] = [0, 1, 2].map(|i| after[i] - before[i]);
    report.put(
        "plancache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses,
    );
    report.put("plancache.evictions", evictions as f64, 1);
    let qps = |p: &Phase| (p.attempted - p.failed) as f64 / p.wall_s;
    report.put("server.qps_1c", qps(&one), one.attempted);
    report.put("server.scaling_2c", qps(&two) / qps(&one), two.attempted);
    for (name, class) in [("wire.hit_p50_ms", "hit"), ("wire.miss_p50_ms", "miss")] {
        let (ms, n) = two
            .class_median(class)
            .ok_or_else(|| to_io(format!("no correct `{class}` responses")))?;
        report.put(name, ms, n);
    }
    for f in one.failures.iter().chain(&two.failures) {
        eprintln!("point probe: {f}");
    }
    served.shutdown();
    Ok(one.failed + two.failed)
}

/// Each entry point of the fixed path, called directly on one text.
fn point_micro_probes(served: &Served, calls: usize, report: &mut Report) -> io::Result<()> {
    let n = calls as u64;
    let db = &served.db;
    let cat = db.catalog();
    let text = point::query_text(1, 1_001);
    report.put(
        "sql.normalize_us",
        median_us(calls, || nra::sql::normalize::normalize(&text)),
        n,
    );
    report.put(
        "sql.parse_us",
        median_us(calls, || nra::sql::parse_query(&text)),
        n,
    );
    let query = nra::sql::parse_query(&text).map_err(to_io)?;
    report.put(
        "sql.bind_us",
        median_us(calls, || nra::sql::bind(&query.first, &cat)),
        n,
    );
    let bound = nra::sql::bind(&query.first, &cat).map_err(to_io)?;
    report.put(
        "core.plan_us",
        median_us(calls, || nra::core::planner::decide(&bound)),
        n,
    );
    let exec = median_us(calls, || nra::core::execute(&bound, &cat, Strategy::Auto));
    report.put("core.exec_us", exec, n);

    let session = db.connect();
    let _ = session.execute(&text);
    let hit = median_us(calls, || session.execute(&text));
    let mut fresh = 0u64;
    let miss = median_us(calls, || {
        fresh += 1;
        session.execute(&point::query_text(1, 3_000_000_000 + fresh))
    });
    report.put("session.hit_us", hit, n);
    report.put("session.miss_us", miss, n);
    report.put("session.overhead_us", (hit - exec).max(0.0), n);

    // The wire's share, call by call: round trip minus the session call
    // made right after it.
    let mut client = WireClient::connect(served.addr)?;
    let _ = client.request(&text, false)?;
    let wire_us: Vec<f64> = (0..calls)
        .map(|_| {
            let round_trip = once_ms(|| client.request(&text, false));
            let in_session = once_ms(|| session.execute(&text));
            (round_trip - in_session).max(0.0) * 1e3
        })
        .collect();
    report.put("server.wire_us", stats::median(&wire_us), n);
    Ok(())
}

/// `nra_storage::wal`, `nra_storage::disk` and `nra::durable`.
fn storage_layers(seed: u64, sizes: Sizes, out: &Path, report: &mut Report) -> io::Result<u64> {
    let mut ing = ingest::setup(seed, sizes, out)?;
    on_fresh_thread(|| storage_probes(&mut ing, seed, sizes, report))
}

fn storage_probes(
    ing: &mut ingest::Ingest,
    seed: u64,
    sizes: Sizes,
    report: &mut Report,
) -> io::Result<u64> {
    let reps = sizes.layer_reps;
    // Records in the WAL the append, fsync and replay probes work on.
    let wal_records = sizes.micro_calls / 2;
    let mut rng = nra::storage::rng::Pcg32::new(seed);

    // One workload cycle, long enough to cross the auto-checkpoint
    // cadence: the durable insert path, the stall, a read right after a
    // write, recovery and checkpoint.
    let mut phase = Phase::with_classes(&ingest::INGEST_CLASSES);
    let cycle = ing.cycle(1, sizes.stall_probe_inserts, &mut rng, &mut phase, None)?;
    for f in &phase.failures {
        eprintln!("ingest probe: {f}");
    }
    let class = |name: &str| {
        phase
            .class_median(name)
            .ok_or_else(|| to_io(format!("no successful `{name}` in the probe cycle")))
    };
    let (insert_ms, inserts) = class("insert")?;
    let (read_ms, reads) = class("read")?;
    report.put("durable.insert_us", insert_ms * 1e3, inserts);
    report.put("durable.autockpt_stall_ms", cycle.stall_ms, 1);
    report.put("durable.read_after_write_ms", read_ms, reads);
    report.put("durable.recover_ms", class("recover")?.0, 1);
    report.put("durable.checkpoint_ms", class("checkpoint")?.0, 1);
    report.put("durable.replayed_records", cycle.replayed as f64, 1);

    // Space: bytes on disk after the checkpoint per byte of user data
    // (every value rendered as text).
    let recovered = Database::open(ing.work_dir()).map_err(to_io)?;
    let user_bytes: usize = {
        let cat = recovered.catalog();
        cat.table_names()
            .iter()
            .flat_map(|t| cat.table(t).expect("listed table exists").data().rows())
            .flat_map(|row| row.iter())
            .map(|v| v.to_string().len() + 1)
            .sum()
    };
    drop(recovered);
    let dir_bytes = |dir: &Path| -> io::Result<u64> {
        Ok(std::fs::read_dir(dir)?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum())
    };
    report.put(
        "durable.bytes_per_user_byte",
        dir_bytes(&ing.work_dir())? as f64 / user_bytes as f64,
        1,
    );

    // The WAL alone: append + fsync of the same kind of record, the
    // in-memory insert beside it, then replay.
    let wal_path = ing.scratch_dir().join("probe-wal.log");
    let mut writer = WalWriter::open_append(&wal_path).map_err(to_io)?;
    let mem = Database::from_catalog(ing.cat.clone());
    let mut bytes = 0u64;
    let mut append_us = Vec::with_capacity(wal_records);
    let mut mem_us = Vec::with_capacity(wal_records);
    for lsn in 1..=wal_records as u64 {
        let rows = ing.make_rows(&mut rng);
        let rec = WalRecord::Insert {
            table: "lineitem".into(),
            rows: rows.clone(),
        };
        let start = Instant::now();
        bytes += writer.append_sync(lsn, &rec).map_err(to_io)?;
        append_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        mem.insert("lineitem", rows).map_err(to_io)?;
        mem_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(writer);
    let n = wal_records as u64;
    let append = stats::median(&append_us);
    let mem_insert = stats::median(&mem_us);
    let record_bytes = bytes as f64 / n as f64;
    report.put("wal.append_us", append, n);
    report.put("wal.bytes_per_record", record_bytes, n);
    report.put("storage.insert_mem_us", mem_insert, n);
    report.put(
        "durable.insert_overhead_us",
        (insert_ms * 1e3 - append - mem_insert).max(0.0),
        inserts,
    );
    let replay_ms = median_ms(reps, || wal::replay(&wal_path));
    report.put(
        "wal.replay_ms_per_krec",
        replay_ms * 1e3 / n as f64,
        reps as u64,
    );

    // The device under it: a write of one record's size plus a data sync,
    // in the same directory, by the benchmark's own code.
    let mut raw = std::fs::File::create(ing.scratch_dir().join("probe-raw.bin"))?;
    let buf = vec![0x5au8; record_bytes as usize];
    let raw_us: Vec<f64> = (0..wal_records)
        .map(|_| {
            let start = Instant::now();
            raw.write_all(&buf)?;
            raw.sync_data()?;
            Ok(start.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<io::Result<_>>()?;
    report.put("wal.fsync_disk_us", stats::median(&raw_us), n);

    // Snapshots alone.
    let snap_dir = ing.scratch_dir().join("probe-snap");
    std::fs::create_dir_all(&snap_dir)?;
    let rows = data::total_rows(&ing.cat);
    let write_ms = median_ms(reps, || disk::write_snapshot(&snap_dir, &ing.cat, 1));
    let snap_bytes = dir_bytes(&snap_dir)?;
    let load_ms = median_ms(reps, || disk::load_latest_snapshot(&snap_dir));
    report.put("disk.write_snapshot_ms", write_ms, reps as u64);
    report.put("disk.load_snapshot_ms", load_ms, reps as u64);
    report.put(
        "disk.snapshot_bytes_per_row",
        snap_bytes as f64 / rows as f64,
        rows as u64,
    );
    Ok(phase.failed)
}
