//! Crash-safe durability: WAL + snapshot recovery semantics end to end.
//!
//! The centerpiece is a deterministic crash matrix: every I/O fault
//! site (`wal-append`, `wal-fsync`, `checkpoint-write`,
//! `snapshot-rename`) crossed with every failure kind (`short-write`,
//! `crash`, `io-error`), each cell killing the database mid-mutation
//! and reopening the directory — the recovered catalog must answer the
//! headline queries (Q1/Q2A/Q2B) byte-identically to the pre-crash
//! committed state, and a failed (unacknowledged) mutation must never
//! surface after recovery.
//!
//! Fault plans install thread-locally (`nra::storage::fault`), so
//! these tests are safe under the default concurrent test runner.

use std::path::PathBuf;

use nra::engine::EngineError;
use nra::storage::disk::write_snapshot;
use nra::storage::fault::{self, FaultKind, FaultPlan};
use nra::storage::wal::{WalRecord, WalWriter};
use nra::storage::{Catalog, Column, ColumnType, Schema, Table, Tuple, Value};
use nra::{Database, NraError, QueryOptions};
use nra_tpch::{generate, q1_sql, q2_sql, Quant, TpchConfig};

/// A fresh scratch directory per test (removed up front so a crashed
/// previous run cannot leak state in).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nra-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The options every query runs with. Execution is sequential, so row
/// order is reproducible and byte-comparison across reopens is
/// meaningful.
fn opts() -> QueryOptions {
    QueryOptions::new()
}

fn rows(db: &Database, sql: &str) -> Vec<Tuple> {
    db.execute(sql, &opts()).expect(sql).rows.rows().to_vec()
}

fn kv_columns() -> Vec<Column> {
    vec![
        Column::not_null("k", ColumnType::Int),
        Column::new("v", ColumnType::Str),
    ]
}

fn kv_rows(range: std::ops::Range<i64>) -> Vec<Tuple> {
    range
        .map(|i| vec![Value::Int(i), Value::Str(format!("v{i}"))])
        .collect()
}

#[test]
fn mutations_survive_reopen_and_version_tracks_lsn() {
    let dir = scratch("roundtrip");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("kv", kv_columns(), &["k"]).unwrap();
        db.insert("kv", kv_rows(0..50)).unwrap();
        db.execute("analyze kv", &opts()).unwrap();
        let info = db.durability().unwrap();
        assert_eq!(info.last_lsn, 3, "create + insert + analyze");
        assert!(!info.poisoned);
    }
    let db = Database::open(&dir).unwrap();
    let report = db.recovery().unwrap();
    assert_eq!(report.replayed, 3);
    assert_eq!(report.dropped_records, 0);
    assert!(!report.repaired);
    assert!(report.messages.is_empty(), "clean open reports nothing");

    let info = db.durability().unwrap();
    assert_eq!(info.last_lsn, 3, "LSN watermark restored");

    let cat = db.catalog();
    let kv = cat.table("kv").unwrap();
    assert_eq!(kv.len(), 50);
    assert_eq!(kv.primary_key(), &[0], "primary key recovered");
    let stats = kv.stats().expect("ANALYZE stats recovered");
    assert_eq!(stats.row_count, 50);
    assert_eq!(stats.columns[0].ndv, 50);
    drop(cat);

    assert_eq!(
        rows(&db, "select k, v from kv where k < 5").len(),
        5,
        "recovered table answers queries"
    );

    // The schema version is the last applied LSN, so any plan cached
    // against a different lineage can never match this database.
    assert!(format!("{db:?}").contains("version: 3"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_folds_the_log_and_later_records_replay_on_top() {
    let dir = scratch("checkpoint");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("kv", kv_columns(), &["k"]).unwrap();
        db.insert("kv", kv_rows(0..30)).unwrap();
        let lsn = db.checkpoint().unwrap();
        assert_eq!(lsn, 2);
        assert_eq!(db.durability().unwrap().snapshot_lsn, 2);
        // Mutations after the checkpoint live only in the fresh log.
        db.insert("kv", kv_rows(30..40)).unwrap();
    }
    let db = Database::open(&dir).unwrap();
    let report = db.recovery().unwrap();
    assert_eq!(report.snapshot_lsn, 2, "recovery starts from the snapshot");
    assert!(report.snapshot_file.is_some());
    assert_eq!(
        report.replayed, 1,
        "only the post-checkpoint insert replays"
    );
    assert_eq!(db.catalog().table("kv").unwrap().len(), 40);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records between automatic checkpoints (the durable layer's cadence).
const CHECKPOINT_EVERY: i64 = 4096;

/// The 4096th record since the last checkpoint takes one automatically;
/// records replayed at open count toward the next one.
#[test]
fn every_4096th_record_takes_a_checkpoint_and_replayed_records_count() {
    let dir = scratch("autockpt");
    let since = |db: &Database| db.durability().unwrap().records_since_checkpoint;
    let insert = |db: &Database, keys: std::ops::Range<i64>| {
        for k in keys {
            db.insert("kv", kv_rows(k..k + 1)).unwrap();
        }
    };
    let all = "select k, v from kv";
    let before = {
        let db = Database::open(&dir).unwrap();
        db.create_table("kv", kv_columns(), &["k"]).unwrap();
        insert(&db, 0..CHECKPOINT_EVERY - 2);
        assert_eq!(since(&db), 4095);
        assert_eq!(db.durability().unwrap().snapshot_lsn, 0);
        insert(&db, CHECKPOINT_EVERY - 2..CHECKPOINT_EVERY - 1);
        let info = db.durability().unwrap();
        assert_eq!(
            (info.records_since_checkpoint, info.snapshot_lsn),
            (0, 4096)
        );
        assert!(dir.join(format!("snapshot-{:020}.nra", 4096)).exists());
        insert(&db, CHECKPOINT_EVERY - 1..CHECKPOINT_EVERY + 9);
        assert_eq!(since(&db), 10);
        rows(&db, all)
    };

    let db = Database::open(&dir).unwrap();
    let report = db.recovery().unwrap();
    assert_eq!((report.snapshot_lsn, report.replayed), (4096, 10));
    assert_eq!(since(&db), report.replayed);
    assert_eq!(rows(&db, all), before);
    insert(&db, CHECKPOINT_EVERY + 9..2 * CHECKPOINT_EVERY - 2);
    assert_eq!(since(&db), 4095);
    insert(&db, 2 * CHECKPOINT_EVERY - 2..2 * CHECKPOINT_EVERY - 1);
    let info = db.durability().unwrap();
    assert_eq!(
        (info.records_since_checkpoint, info.snapshot_lsn),
        (0, 8192)
    );
    assert!(dir.join(format!("snapshot-{:020}.nra", 8192)).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_reported_not_fatal() {
    use std::io::Write;
    let dir = scratch("torn");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("kv", kv_columns(), &["k"]).unwrap();
        db.insert("kv", kv_rows(0..10)).unwrap();
    }
    // Simulate a crash mid-append: a record header promising 100 bytes
    // followed by only 10 — exactly what a torn final write leaves.
    let wal = dir.join("wal.log");
    let before = std::fs::metadata(&wal).unwrap().len();
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&100u32.to_le_bytes()).unwrap();
    f.write_all(&[0xAB; 10]).unwrap();
    drop(f);

    let db = Database::open(&dir).unwrap();
    let report = db.recovery().unwrap();
    assert_eq!(report.replayed, 2, "intact records still replay");
    assert_eq!(report.dropped_records, 1);
    assert_eq!(report.dropped_bytes, 14);
    assert!(report.repaired);
    assert!(
        report.messages.iter().any(|m| m.contains("torn tail")),
        "degradation is reported: {:?}",
        report.messages
    );
    assert_eq!(db.catalog().table("kv").unwrap().len(), 10);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        before,
        "repair truncated the tail back to the last good record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent_second_open_is_a_noop() {
    use std::io::Write;
    let dir = scratch("idempotent");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("kv", kv_columns(), &["k"]).unwrap();
        db.insert("kv", kv_rows(0..10)).unwrap();
    }
    let wal = dir.join("wal.log");
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&64u32.to_le_bytes()).unwrap();
    f.write_all(&[0x55; 3]).unwrap();
    drop(f);

    let (first_report, first_lsn, first_rows) = {
        let db = Database::open(&dir).unwrap();
        assert!(db.recovery().unwrap().repaired);
        (
            db.recovery().unwrap(),
            db.durability().unwrap().last_lsn,
            rows(&db, "select k, v from kv"),
        )
    };

    // Second open: the repair already happened, so nothing is dropped,
    // the same records replay, and the catalog version is identical —
    // no duplicate replay, no further mutation of the directory.
    let db = Database::open(&dir).unwrap();
    let second = db.recovery().unwrap();
    assert_eq!(second.dropped_records, 0);
    assert_eq!(second.dropped_bytes, 0);
    assert!(!second.repaired, "second open finds a clean log");
    assert_eq!(second.replayed, first_report.replayed);
    assert_eq!(
        db.durability().unwrap().last_lsn,
        first_lsn,
        "identical catalog version (the restored LSN)"
    );
    assert_eq!(rows(&db, "select k, v from kv"), first_rows);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_log_bit_flip_refuses_startup_with_structured_corruption() {
    let dir = scratch("bitflip");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("kv", kv_columns(), &["k"]).unwrap();
        db.insert("kv", kv_rows(0..10)).unwrap();
    }
    // Flip one byte inside the FIRST record's body. A later record
    // follows, so this cannot be a torn tail: startup must refuse with
    // the structured error instead of silently dropping committed data.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[20] ^= 0x01;
    std::fs::write(&wal, bytes).unwrap();

    match Database::open(&dir) {
        Err(NraError::Engine(EngineError::Corruption { file, detail, .. })) => {
            assert_eq!(file, "wal.log");
            assert!(detail.contains("checksum"), "detail: {detail}");
        }
        other => panic!("expected structured corruption, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_append_poisons_durable_mutations_until_reopen() {
    let dir = scratch("poison");
    let db = Database::open(&dir).unwrap();
    db.create_table("kv", kv_columns(), &["k"]).unwrap();

    // A short write leaves the tail in an unknown state: the writer
    // poisons itself and refuses further appends on this handle.
    let mut plan = FaultPlan::default();
    plan.push(fault::WAL_APPEND, 1, FaultKind::ShortWrite);
    let guard = fault::install(plan);
    assert!(db.insert("kv", kv_rows(0..5)).is_err());
    drop(guard);

    assert!(db.durability().unwrap().poisoned);
    let err = db.insert("kv", kv_rows(0..5)).unwrap_err();
    assert!(
        err.to_string().contains("reopen"),
        "poisoned handle points at recovery: {err}"
    );
    assert!(
        db.checkpoint().is_err(),
        "checkpoint refuses a poisoned log"
    );
    drop(db);

    // Reopen repairs the torn half-record; the unacknowledged insert is
    // gone and the database accepts mutations again.
    let db = Database::open(&dir).unwrap();
    assert!(db.recovery().unwrap().repaired);
    assert_eq!(db.catalog().table("kv").unwrap().len(), 0);
    db.insert("kv", kv_rows(0..5)).unwrap();
    assert_eq!(db.catalog().table("kv").unwrap().len(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_rolls_back_without_poisoning() {
    let dir = scratch("fsync");
    let db = Database::open(&dir).unwrap();
    db.create_table("kv", kv_columns(), &["k"]).unwrap();

    let mut plan = FaultPlan::default();
    plan.push(fault::WAL_FSYNC, 1, FaultKind::IoError);
    let guard = fault::install(plan);
    assert!(db.insert("kv", kv_rows(0..5)).is_err());
    drop(guard);

    // The append was rolled back to the pre-record length, so the
    // writer stays healthy and the retry lands cleanly.
    assert!(!db.durability().unwrap().poisoned);
    db.insert("kv", kv_rows(0..5)).unwrap();
    drop(db);

    let db = Database::open(&dir).unwrap();
    let report = db.recovery().unwrap();
    assert!(!report.repaired, "rollback left no torn tail");
    assert_eq!(db.catalog().table("kv").unwrap().len(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed `ANALYZE` is not visible: its stats are neither installed on
/// the table nor listed by `nra_sys.table_stats`, before or after a
/// reopen. Under an fsync failure the log was rolled back; under a short
/// write the database is poisoned as well.
#[test]
fn a_failed_analyze_leaves_no_stats() {
    for (site, kind, poisoned) in [
        (fault::WAL_FSYNC, FaultKind::IoError, false),
        (fault::WAL_APPEND, FaultKind::ShortWrite, true),
    ] {
        let dir = scratch(&format!("analyze-{site}"));
        let db = Database::open(&dir).unwrap();
        db.create_table("kv", kv_columns(), &["k"]).unwrap();
        db.insert("kv", kv_rows(0..5)).unwrap();

        let mut plan = FaultPlan::default();
        plan.push(site, 1, kind);
        let guard = fault::install(plan);
        assert!(db.execute("analyze kv", &opts()).is_err(), "{site}");
        drop(guard);
        assert_eq!(db.durability().unwrap().poisoned, poisoned, "{site}");
        assert_no_stats(&db, site);
        drop(db);

        let db = Database::open(&dir).unwrap();
        assert_no_stats(&db, site);
        assert_eq!(db.catalog().table("kv").unwrap().len(), 5, "{site}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn assert_no_stats(db: &Database, site: &str) {
    assert_eq!(db.catalog().table("kv").unwrap().stats(), None, "{site}");
    let analyzed = "select column_name from nra_sys.table_stats \
                    where table_name = 'kv' and column_name is not null";
    assert_eq!(rows(db, analyzed), Vec::<Tuple>::new(), "{site}");
}

/// The crash matrix: every I/O site crossed with every failure kind.
/// Each cell opens the database, arms exactly one fault, drives a
/// mutation into it (an insert for the WAL sites, a checkpoint for the
/// snapshot sites), "kills the process" by dropping the handle, reopens
/// the directory, and asserts the recovered state answers the headline
/// queries byte-identically to the pre-crash committed state.
#[test]
fn crash_matrix_recovers_committed_state_byte_identically() {
    let dir = scratch("matrix");

    // Committed state: a tiny nullable TPC-H catalog (imported through
    // the durable path) plus a scratch table, partially checkpointed so
    // recovery exercises snapshot + log together.
    let cfg = TpchConfig::scaled(0.01).nullable_links(0.0);
    let outer = (cfg.orders / 4).max(1);
    let part = (cfg.part / 4).max(1);
    let ps = (cfg.part * cfg.partsupp_per_part / 8).max(1);
    let queries: Vec<String>;
    let expected: Vec<Vec<Tuple>>;
    {
        let db = Database::open(&dir).unwrap();
        let cat = generate(&cfg);
        queries = vec![
            q1_sql(&cat, outer),
            q2_sql(&cat, Quant::Any, part, ps),
            q2_sql(&cat, Quant::All, part, ps),
            "select k, v from t_commit where k >= 0".to_string(),
        ];
        for name in cat.table_names() {
            db.add_table(cat.table(name).unwrap().clone()).unwrap();
        }
        db.checkpoint().unwrap();
        db.create_table("t_commit", kv_columns(), &["k"]).unwrap();
        db.insert("t_commit", kv_rows(0..25)).unwrap();
        expected = queries.iter().map(|q| rows(&db, q)).collect();
        assert!(expected[0..3].iter().any(|r| !r.is_empty()));
        assert_eq!(expected[3].len(), 25);
    }

    let cells: Vec<(&str, FaultKind)> = fault::IO_SITES
        .iter()
        .flat_map(|site| {
            [FaultKind::ShortWrite, FaultKind::Crash, FaultKind::IoError]
                .into_iter()
                .map(move |kind| (*site, kind))
        })
        .collect();
    assert_eq!(cells.len(), 12);

    for (site, kind) in cells {
        let db =
            Database::open(&dir).unwrap_or_else(|e| panic!("reopen before {site}:{kind:?}: {e}"));

        let mut plan = FaultPlan::default();
        plan.push(site, 1, kind);
        let guard = fault::install(plan);
        // Drive a mutation into the armed site: WAL sites fire on the
        // insert's append/fsync, snapshot sites on the checkpoint.
        let attempt = match site {
            fault::WAL_APPEND | fault::WAL_FSYNC => {
                db.insert("t_commit", kv_rows(1000..1010)).map(|_| 0)
            }
            _ => db.checkpoint(),
        };
        drop(guard);
        assert!(
            attempt.is_err(),
            "{site}:{kind:?}: the injected fault must fail the mutation"
        );
        drop(db); // kill

        let db =
            Database::open(&dir).unwrap_or_else(|e| panic!("recovery after {site}:{kind:?}: {e}"));
        for (q, want) in queries.iter().zip(&expected) {
            let got = rows(&db, q);
            assert_eq!(
                &got, want,
                "{site}:{kind:?}: recovered results differ for {q}"
            );
        }
        drop(db);
    }

    // Delay is a latency fault, not a failure: the mutation succeeds.
    {
        let db = Database::open(&dir).unwrap();
        let mut plan = FaultPlan::default();
        plan.push(fault::WAL_APPEND, 1, FaultKind::Delay(1));
        let guard = fault::install(plan);
        db.insert("t_commit", kv_rows(2000..2005)).unwrap();
        drop(guard);
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert_eq!(
            rows(&db, "select k, v from t_commit where k >= 0").len(),
            30,
            "the delayed (but acknowledged) insert survives"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `nra_sys.wal` exposes the durability state to plain SQL.
#[test]
fn sys_wal_table_reports_durability_state() {
    let dir = scratch("syswal");
    let db = Database::open(&dir).unwrap();
    db.create_table("kv", kv_columns(), &["k"]).unwrap();
    let out = rows(
        &db,
        "select dir, last_lsn, poisoned, repaired from nra_sys.wal",
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0][1], Value::Int(1), "one record logged");
    assert_eq!(out[0][2], Value::Bool(false));
    assert_eq!(out[0][3], Value::Bool(false));

    // In-memory databases have no durability row.
    let mem = Database::new();
    assert!(rows(&mem, "select dir from nra_sys.wal").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `kv` rows `range`, with a NULL `v` in every third row.
fn sparse_kv_rows(range: std::ops::Range<i64>) -> Vec<Tuple> {
    range
        .map(|i| {
            let v = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Str(format!("v{i}"))
            };
            vec![Value::Int(i), v]
        })
        .collect()
}

fn kv_table() -> Table {
    let mut t = Table::new("kv", Schema::new(kv_columns()));
    t.set_primary_key(&["k"]).unwrap();
    t
}

/// Recovery streams logged inserts straight into the lanes; what it
/// builds must be what `insert_many` and `analyze` build from the same
/// rows, with stats dropped by an insert after `ANALYZE` and kept by one
/// before it.
#[test]
fn replay_builds_what_insert_many_builds() {
    for analyze_last in [false, true] {
        let dir = scratch(&format!("equivalence-{analyze_last}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut expected = kv_table();
        expected.insert_many(sparse_kv_rows(0..20)).unwrap();
        let mut snapshot = Catalog::new();
        snapshot.add_table(expected.clone()).unwrap();
        write_snapshot(&dir, &snapshot, 2).unwrap();

        // The log still holds the two records the snapshot folded in
        // (a crash before the log was truncated): replaying either again
        // would be a duplicate table or doubled rows.
        let mut wal = WalWriter::open_append(&dir.join("wal.log")).unwrap();
        wal.append_sync(1, &WalRecord::CreateTable(kv_table()))
            .unwrap();
        let folded = WalRecord::Insert {
            table: "kv".into(),
            rows: sparse_kv_rows(0..20),
        };
        wal.append_sync(2, &folded).unwrap();
        let mut lsn = 2;
        let steps: [Option<std::ops::Range<i64>>; 3] = if analyze_last {
            [Some(20..30), Some(30..45), None]
        } else {
            [Some(20..30), None, Some(30..45)]
        };
        for step in steps {
            lsn += 1;
            let rec = match step {
                Some(range) => {
                    let rows = sparse_kv_rows(range);
                    expected.insert_many(rows.clone()).unwrap();
                    WalRecord::Insert {
                        table: "kv".into(),
                        rows,
                    }
                }
                None => {
                    let stats = expected.compute_stats();
                    expected.set_stats(stats.clone());
                    WalRecord::Analyze {
                        table: "kv".into(),
                        stats,
                    }
                }
            };
            wal.append_sync(lsn, &rec).unwrap();
        }
        drop(wal);

        let db = Database::open(&dir).unwrap();
        let report = db.recovery().unwrap();
        assert_eq!((report.snapshot_lsn, report.replayed), (2, 3));
        assert_eq!(db.durability().unwrap().last_lsn, 5);
        let cat = db.catalog();
        let kv = cat.table("kv").unwrap();
        assert_eq!(
            kv.rows().collect::<Vec<_>>(),
            expected.rows().collect::<Vec<_>>()
        );
        assert_eq!(kv.primary_key(), expected.primary_key());
        assert_eq!(kv.stats(), expected.stats(), "analyze last: {analyze_last}");
        assert_eq!(kv.stats().is_some(), analyze_last);
        drop(cat);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record whose checksum is valid was written whole, so an INSERT that
/// does not fit the recovered catalog is corruption — mid-log and as the
/// final record alike, never a torn tail — naming the log and its LSN.
#[test]
fn a_checksummed_insert_that_does_not_fit_refuses_the_open() {
    let insert = |table: &str, rows: Vec<Tuple>| WalRecord::Insert {
        table: table.into(),
        rows,
    };
    let cases = [
        (
            "value tag",
            insert("kv", vec![vec![Value::str("1"), Value::str("a")]]),
        ),
        (
            "NOT NULL",
            insert("kv", vec![vec![Value::Null, Value::Null]]),
        ),
        (
            "1 values for 2 columns",
            insert("kv", vec![vec![Value::Int(1)]]),
        ),
        ("unknown table", insert("nope", kv_rows(0..1))),
    ];
    for (needle, bad) in &cases {
        for final_record in [false, true] {
            let dir = scratch("misfit");
            {
                let db = Database::open(&dir).unwrap();
                db.create_table("kv", kv_columns(), &["k"]).unwrap();
                db.insert("kv", kv_rows(0..3)).unwrap();
            }
            let mut wal = WalWriter::open_append(&dir.join("wal.log")).unwrap();
            wal.append_sync(3, bad).unwrap();
            if !final_record {
                wal.append_sync(4, &insert("kv", kv_rows(3..4))).unwrap();
            }
            drop(wal);
            match Database::open(&dir) {
                Err(NraError::Engine(EngineError::Corruption { file, lsn, detail })) => {
                    assert_eq!((file.as_str(), lsn), ("wal.log", 3), "{needle}");
                    assert!(detail.contains(needle), "{needle}: {detail}");
                }
                other => {
                    panic!("{needle} (final: {final_record}): expected corruption, got {other:?}")
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
