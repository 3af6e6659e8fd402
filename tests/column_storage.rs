//! Typed column storage end to end: what goes into a table's lanes comes
//! back out exactly, in memory and through the snapshot and WAL codecs;
//! the on-disk formats did not move when rows became columns; a batch
//! insert is all or nothing; and nothing that serves queries ever
//! materializes the `Table::data()` row image.

use std::path::PathBuf;

use nra::storage::checksum::crc32;
use nra::storage::disk::{load_latest_snapshot, write_snapshot};
use nra::storage::rng::Pcg32;
use nra::storage::tuple::group_eq_on;
use nra::storage::wal::{self, WalRecord, WalWriter};
use nra::storage::{
    Catalog, Column, ColumnType, Schema, StorageError, Table, TableStats, Tuple, Value,
};
use nra::{Database, Engine, NraError, QueryOptions, Strategy};
use nra_tpch::paper_example::{rst_catalog, QUERY_Q};
use nra_tpch::{generate, q1_agg_sql, q1_sql, q2_sql, q3_sql, ExistsKind, Q3Corr, Quant};

/// A fresh scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nra-columns-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const TYPES: [ColumnType; 6] = [
    ColumnType::Bool,
    ColumnType::Int,
    ColumnType::Decimal,
    ColumnType::Float,
    ColumnType::Str,
    ColumnType::Date,
];

/// A non-NULL value of `ty` from a small, duplicate-heavy domain holding
/// the type's awkward members.
fn value_of(rng: &mut Pcg32, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Bool => Value::Bool(rng.bool(0.5)),
        ColumnType::Int => Value::Int(*rng.choose(&[i64::MIN, i64::MAX, -1, 0, 1, 2])),
        ColumnType::Decimal => Value::Decimal(*rng.choose(&[i64::MIN, -7, 0, 12345])),
        ColumnType::Float => Value::Float(*rng.choose(&[-0.0, 0.0, f64::NAN, f64::INFINITY, 2.5])),
        ColumnType::Str => Value::str(*rng.choose(&["", "a", "ab", "naïve", "🦀 crab", "it's"])),
        ColumnType::Date => Value::Date(*rng.choose(&[i32::MIN, -1, 0, 9298])),
    }
}

/// A random table: 1–6 columns over all six types, each nullable or not,
/// with 0–200 rows, NULL-dense where the schema allows.
fn random_table(rng: &mut Pcg32, name: &str) -> (Table, Vec<Tuple>) {
    let columns: Vec<Column> = (0..rng.index(6) + 1)
        .map(|i| {
            let ty = *rng.choose(&TYPES);
            if rng.bool(0.3) {
                Column::not_null(format!("c{i}"), ty)
            } else {
                Column::new(format!("c{i}"), ty)
            }
        })
        .collect();
    let null_share = *rng.choose(&[0.0, 0.4, 0.95]);
    let rows: Vec<Tuple> = (0..rng.index(201))
        .map(|_| {
            (columns.iter())
                .map(|c| {
                    if c.nullable && rng.bool(null_share) {
                        Value::Null
                    } else {
                        value_of(rng, c.ty)
                    }
                })
                .collect()
        })
        .collect();
    let mut table = Table::new(name, Schema::new(columns));
    if rng.bool(0.5) {
        table.insert_many(rows.clone()).unwrap();
    } else {
        for row in &rows {
            table.insert(row.clone()).unwrap();
        }
    }
    (table, rows)
}

/// Row-for-row equality that tells `-0.0` from `0.0` and matches NaN with
/// NaN (grouping equality is bit equality on floats).
fn same_rows(got: &[Tuple], want: &[Tuple]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len() && group_eq_on(g, w, &(0..w.len()).collect::<Vec<_>>())
        })
}

fn stored_rows(table: &Table) -> Vec<Tuple> {
    table.rows().collect()
}

#[test]
fn what_is_inserted_is_what_every_row_view_returns() {
    let mut rng = Pcg32::new(0xC01_0001);
    for case in 0..60 {
        let (table, rows) = random_table(&mut rng, "t");
        assert_eq!(table.len(), rows.len(), "case {case}");
        assert_eq!(table.is_empty(), rows.is_empty());
        let by_index: Vec<Tuple> = (0..table.len()).map(|i| table.row(i)).collect();
        assert!(same_rows(&by_index, &rows), "case {case}: row(i)");
        assert!(
            same_rows(&stored_rows(&table), &rows),
            "case {case}: rows()"
        );
        assert!(!table.row_image_cached(), "row views build no image");
        assert!(same_rows(table.data().rows(), &rows), "case {case}: data()");
        assert_eq!(table.data().schema(), table.schema());
        for (c, decl) in table.schema().columns().iter().enumerate() {
            assert_eq!(table.column(c).ty(), decl.ty);
            assert_eq!(table.column(c).len(), rows.len());
        }
    }
}

#[test]
fn clone_then_insert_leaves_the_original_alone() {
    let mut rng = Pcg32::new(0xC01_0002);
    for _ in 0..20 {
        let (table, rows) = random_table(&mut rng, "t");
        table.data();
        let mut copy = table.clone();
        assert!(table.row_image_cached());
        assert!(!copy.row_image_cached(), "a clone does not copy the image");
        let extra: Tuple = (table.schema().columns().iter())
            .map(|c| value_of(&mut rng, c.ty))
            .collect();
        copy.insert(extra.clone()).unwrap();
        assert_eq!(copy.len(), rows.len() + 1);
        assert!(same_rows(&[copy.row(rows.len())], &[extra]));
        assert!(same_rows(&stored_rows(&table), &rows));
        assert!(same_rows(table.data().rows(), &rows));
        // The image is a cache of the rows: an insert drops it.
        copy.data();
        copy.insert(copy.row(0)).unwrap();
        assert!(!copy.row_image_cached());
        assert_eq!(copy.data().len(), rows.len() + 2);
    }
}

#[test]
fn snapshot_and_wal_round_trip_every_type() {
    let mut rng = Pcg32::new(0xC01_0003);
    let dir = scratch("roundtrip");
    let mut catalog = Catalog::new();
    let mut expected = Vec::new();
    for i in 0..12 {
        let name = format!("t{i}");
        let (mut table, rows) = random_table(&mut rng, &name);
        if i % 2 == 0 {
            table.set_stats(table.compute_stats());
        }
        expected.push((name, rows, table.stats()));
        catalog.add_table(table).unwrap();
    }

    write_snapshot(&dir, &catalog, 9).unwrap();
    let (loaded, lsn, _) = load_latest_snapshot(&dir).unwrap().unwrap();
    assert_eq!(lsn, 9);
    for (name, rows, stats) in &expected {
        let table = loaded.table(name).unwrap();
        assert!(same_rows(&stored_rows(table), rows), "snapshot: {name}");
        assert_eq!(&table.stats(), stats, "snapshot: {name} stats");
    }

    // The same tables as CREATE TABLE records, then each table's rows
    // again as one INSERT record.
    let wal_path = dir.join("wal.log");
    let mut writer = WalWriter::open_append(&wal_path).unwrap();
    let mut lsn = 0;
    for (name, rows, _) in &expected {
        lsn += 1;
        let table = catalog.table(name).unwrap().clone();
        writer
            .append_sync(lsn, &WalRecord::CreateTable(table))
            .unwrap();
        lsn += 1;
        let insert = WalRecord::Insert {
            table: name.clone(),
            rows: rows.clone(),
        };
        writer.append_sync(lsn, &insert).unwrap();
    }
    let outcome = wal::replay(&wal_path).unwrap();
    assert_eq!(outcome.records.len(), expected.len() * 2);
    let mut replayed = Catalog::new();
    for (_, record) in outcome.records {
        match record {
            WalRecord::CreateTable(table) => replayed.add_table(table).unwrap(),
            WalRecord::Insert { table, rows } => replayed
                .table_mut(&table)
                .unwrap()
                .insert_many(rows)
                .unwrap(),
            WalRecord::Analyze { .. } => unreachable!("none logged"),
        }
    }
    for (name, rows, _) in &expected {
        let twice: Vec<Tuple> = rows.iter().chain(rows).cloned().collect();
        let table = replayed.table(name).unwrap();
        assert!(same_rows(&stored_rows(table), &twice), "wal: {name}");
        assert_eq!(table.stats(), None, "an insert invalidates replayed stats");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One row per value tag, awkward members included.
fn mixed_catalog() -> Catalog {
    let mut m = Table::new(
        "m",
        Schema::new(vec![
            Column::not_null("m.id", ColumnType::Int),
            Column::new("m.price", ColumnType::Decimal),
            Column::new("m.name", ColumnType::Str),
            Column::new("m.ok", ColumnType::Bool),
            Column::new("m.ratio", ColumnType::Float),
            Column::new("m.day", ColumnType::Date),
        ]),
    );
    m.set_primary_key(&["m.id"]).unwrap();
    m.insert_many(vec![
        vec![
            Value::Int(i64::MIN),
            Value::Decimal(-7),
            Value::str("naïve 🦀"),
            Value::Bool(true),
            Value::Float(-0.0),
            Value::Date(-1),
        ],
        vec![
            Value::Int(2),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ],
        vec![
            Value::Int(3),
            Value::Decimal(12345),
            Value::str(""),
            Value::Bool(false),
            Value::Float(f64::NAN),
            Value::Date(9298),
        ],
    ])
    .unwrap();
    m.set_stats(m.compute_stats());
    let mut cat = Catalog::new();
    cat.add_table(m).unwrap();
    cat
}

/// The formats did not move: these lengths and CRC-32s were printed by the
/// same calls at the last commit that stored rows (`ba81eb9`).
#[test]
fn encoded_bytes_equal_the_row_store_era_checksums() {
    let dir = scratch("format");
    let mut cat = rst_catalog();
    let s = cat.table_mut("s").unwrap();
    s.set_stats(s.compute_stats());
    let bytes = std::fs::read(write_snapshot(&dir, &cat, 42).unwrap()).unwrap();
    assert_eq!((bytes.len(), crc32(&bytes)), (786, 0xfb56_c41d), "snapshot");

    let wal_path = dir.join("wal.log");
    let mut writer = WalWriter::open_append(&wal_path).unwrap();
    for (lsn, name) in [(1, "r"), (2, "s"), (3, "t")] {
        let table = cat.table(name).unwrap().clone();
        writer
            .append_sync(lsn, &WalRecord::CreateTable(table))
            .unwrap();
    }
    let insert = WalRecord::Insert {
        table: "r".into(),
        rows: vec![
            vec![Value::Int(7), Value::Null, Value::Int(-1), Value::Int(0)],
            vec![
                Value::Null,
                Value::Int(i64::MIN),
                Value::Int(3),
                Value::Int(9),
            ],
        ],
    };
    writer.append_sync(4, &insert).unwrap();
    let bytes = std::fs::read(&wal_path).unwrap();
    assert_eq!((bytes.len(), crc32(&bytes)), (911, 0xae49_4e68), "wal");

    let mixed = dir.join("mixed");
    std::fs::create_dir_all(&mixed).unwrap();
    let bytes = std::fs::read(write_snapshot(&mixed, &mixed_catalog(), 7).unwrap()).unwrap();
    assert_eq!(
        (bytes.len(), crc32(&bytes)),
        (403, 0x8161_5092),
        "six types"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_value_that_does_not_inhabit_its_column_is_corruption() {
    // Snapshot a one-column Str table, then redeclare the column Int in
    // the file (and fix the checksum up): the rows now carry a Str tag in
    // an Int column.
    let dir = scratch("mistyped");
    let mut t = Table::new("t", Schema::new(vec![Column::new("x", ColumnType::Str)]));
    t.insert(vec![Value::str("ab")]).unwrap();
    let mut cat = Catalog::new();
    cat.add_table(t).unwrap();
    let path = write_snapshot(&dir, &cat, 1).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // magic 8 | crc 4 | version 4 | lsn 8 | tables 4 | "t" 4+1 | columns 4
    // | "x" 4+1 | type tag
    const TYPE_TAG: usize = 8 + 4 + 4 + 8 + 4 + 5 + 4 + 5;
    assert_eq!(bytes[TYPE_TAG], 4, "Str column tag");
    bytes[TYPE_TAG] = 1; // Int
    let crc = crc32(&bytes[12..]);
    bytes[8..12].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match load_latest_snapshot(&dir) {
        Err(StorageError::Corruption { detail, .. }) => {
            assert!(detail.contains("column `x`"), "{detail}")
        }
        other => panic!("expected corruption, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Table `m` after each whole-record prefix of [`sweep_log`]'s records:
/// `None` before the table exists, else its rows and stats.
type Prefix = Option<(Vec<Tuple>, Option<TableStats>)>;

/// A valid log over `mixed_catalog`'s table — a `CreateTable` with rows
/// and stats, then INSERT, ANALYZE, INSERT of every value tag — with the
/// catalog state after each whole-record prefix.
fn sweep_log(path: &std::path::Path) -> Vec<Prefix> {
    let cat = mixed_catalog();
    let m = cat.table("m").unwrap();
    let rows: Vec<Tuple> = m.rows().collect();
    let insert = || WalRecord::Insert {
        table: "m".into(),
        rows: rows.clone(),
    };
    let mut writer = WalWriter::open_append(path).unwrap();
    let mut prefixes: Vec<Prefix> = vec![None];
    let mut mirror = m.clone();
    for (lsn, rec) in (1..).zip([
        WalRecord::CreateTable(m.clone()),
        insert(),
        WalRecord::Analyze {
            table: "m".into(),
            stats: m.stats().unwrap(),
        },
        insert(),
    ]) {
        match &rec {
            WalRecord::CreateTable(_) => {}
            WalRecord::Insert { rows, .. } => mirror.insert_many(rows.clone()).unwrap(),
            WalRecord::Analyze { stats, .. } => mirror.set_stats(stats.clone()),
        }
        writer.append_sync(lsn, &rec).unwrap();
        prefixes.push(Some((stored_rows(&mirror), mirror.stats())));
    }
    prefixes
}

fn prefix_of(cat: &Catalog) -> Prefix {
    let m = cat.table("m").ok()?;
    Some((stored_rows(m), m.stats()))
}

fn same_prefix(got: &Prefix, want: &Prefix) -> bool {
    match (got, want) {
        (None, None) => true,
        (Some((gr, gs)), Some((wr, ws))) => same_rows(gr, wr) && gs == ws,
        _ => false,
    }
}

/// The decoders that recovery runs, swept over damaged input: every
/// truncation of a valid log is a torn tail that recovers exactly the
/// whole records before the cut; every truncation of a valid snapshot is
/// corruption; seeded single-byte flips of either are a torn tail or
/// corruption — never a panic, never a silently different catalog.
#[test]
fn every_truncation_and_byte_flip_is_a_torn_tail_or_corruption() {
    let dir = scratch("sweep");
    let log = dir.join("full.log");
    let prefixes = sweep_log(&log);
    let full = std::fs::read(&log).unwrap();
    // Record ends: the magic, then each record's header and body.
    let mut ends = vec![8];
    while ends.last() != Some(&full.len()) {
        let at = *ends.last().unwrap();
        let len = u32::from_le_bytes(full[at..at + 4].try_into().unwrap()) as usize;
        ends.push(at + 8 + len);
    }
    assert_eq!(ends.len(), prefixes.len());

    let wal_path = dir.join("wal.log");
    // The facade reports and repairs the same tails; one directory, its
    // log rewritten for each cut.
    let db_dir = dir.join("db");
    std::fs::create_dir_all(&db_dir).unwrap();
    for cut in 0..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let good = if whole == 0 { 0 } else { ends[whole - 1] };
        let mut cat = Catalog::new();
        let out = wal::replay_into(&wal_path, &mut cat, 0)
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let records = whole.saturating_sub(1);
        assert_eq!(out.applied, records as u64, "cut at {cut}");
        assert_eq!(out.good_len, good as u64, "cut at {cut}");
        assert_eq!(out.dropped_bytes, (cut - good) as u64, "cut at {cut}");
        let torn = cut > good && cut >= 8;
        assert_eq!(out.dropped_records, torn as u64, "cut at {cut}");
        assert!(
            same_prefix(&prefix_of(&cat), &prefixes[records]),
            "cut at {cut}"
        );
        assert_eq!(wal::replay(&wal_path).unwrap().records.len(), records);

        std::fs::write(db_dir.join("wal.log"), &full[..cut]).unwrap();
        let db = Database::open(&db_dir).unwrap();
        let report = db.recovery().unwrap();
        assert_eq!(report.replayed, records as u64, "cut at {cut}");
        assert_eq!(report.repaired, cut != good, "cut at {cut}");
        assert!(same_prefix(&prefix_of(&db.catalog()), &prefixes[records]));
    }

    let mut rng = Pcg32::new(0xC01_0005);
    for _ in 0..300 {
        let mut bytes = full.clone();
        let at = rng.index(bytes.len());
        bytes[at] ^= (rng.index(255) + 1) as u8;
        std::fs::write(&wal_path, &bytes).unwrap();
        match wal::replay_into(&wal_path, &mut Catalog::new(), 0) {
            Ok(out) => assert_eq!(out.dropped_records, 1, "flip at {at}: {out:?}"),
            Err(StorageError::Corruption { file, .. }) => assert_eq!(file, "wal.log"),
            Err(e) => panic!("flip at {at}: {e}"),
        }
    }

    let snap_dir = dir.join("snap");
    std::fs::create_dir_all(&snap_dir).unwrap();
    let snap_path = write_snapshot(&snap_dir, &mixed_catalog(), 7).unwrap();
    let snap = std::fs::read(&snap_path).unwrap();
    let damaged = |bytes: &[u8], what: String| {
        std::fs::write(&snap_path, bytes).unwrap();
        match load_latest_snapshot(&snap_dir) {
            Err(StorageError::Corruption { file, .. }) => assert!(file.starts_with("snapshot-")),
            other => panic!("{what}: expected corruption, got {other:?}"),
        }
    };
    for cut in 0..snap.len() {
        damaged(&snap[..cut], format!("cut at {cut}"));
    }
    for _ in 0..300 {
        let mut bytes = snap.clone();
        let at = rng.index(bytes.len());
        bytes[at] ^= (rng.index(255) + 1) as u8;
        damaged(&bytes, format!("flip at {at}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What an insert must leave untouched when it fails.
fn state(db: &Database, table: &str) -> (usize, Option<TableStats>, Vec<Tuple>) {
    let cat = db.catalog();
    let t = cat.table(table).unwrap();
    (t.len(), t.stats(), stored_rows(t))
}

#[test]
fn a_failed_batch_insert_changes_nothing() {
    let dir = scratch("atomic");
    let durable = Database::open(&dir).unwrap();
    let memory = Database::new();
    for (db, kind) in [(&memory, "in-memory"), (&durable, "durable")] {
        let mut t = Table::new(
            "kv",
            Schema::new(vec![
                Column::not_null("k", ColumnType::Int),
                Column::new("v", ColumnType::Str),
            ]),
        );
        t.insert_many((0..5).map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))]))
            .unwrap();
        db.add_table(t).unwrap();
        db.execute("analyze kv", &QueryOptions::new()).unwrap();
        let before = state(db, "kv");
        assert!(before.1.is_some(), "stats in place");

        let batch = vec![
            vec![Value::Int(10), Value::str("ok")],
            vec![Value::Null, Value::str("k is NOT NULL")],
            vec![Value::Int(12), Value::str("ok")],
        ];
        match db.insert("kv", batch) {
            Err(NraError::Storage(StorageError::NullViolation { column })) => {
                assert_eq!(column, "k")
            }
            other => panic!("{kind}: expected a NOT NULL violation, got {other:?}"),
        }
        let after = state(db, "kv");
        assert_eq!(after.0, before.0, "{kind}: len");
        assert_eq!(after.1, before.1, "{kind}: stats");
        assert!(same_rows(&after.2, &before.2), "{kind}: rows");
    }
    // Nothing of the batch reached the log either.
    drop(durable);
    let reopened = Database::open(&dir).unwrap();
    assert_eq!(reopened.catalog().table("kv").unwrap().len(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_no_row_image(db: &Database, after: &str) {
    let cat = db.catalog();
    for name in cat.table_names() {
        assert!(
            !cat.table(name).unwrap().row_image_cached(),
            "`{name}` materialized its row image after {after}"
        );
    }
}

/// Serving — every engine, inserts, ANALYZE, checkpoints, recovery — reads
/// the stored columns; the `data()` row image would silently double a
/// served table, so nothing on those paths may build it.
#[test]
fn serving_never_materializes_the_row_image() {
    let dir = scratch("no-image");
    let source = generate(&nra_tpch::TpchConfig::scaled(0.01).nullable_links(0.02));
    let classes = [
        q1_sql(&source, 160),
        q2_sql(&source, Quant::Any, 480, 160),
        q2_sql(&source, Quant::All, 480, 160),
        q3_sql(
            &source,
            Quant::All,
            ExistsKind::NotExists,
            Q3Corr::NeEq,
            480,
            160,
        ),
        q3_sql(
            &source,
            Quant::Any,
            ExistsKind::Exists,
            Q3Corr::EqNe,
            480,
            160,
        ),
        q1_agg_sql(&source, 160),
    ];
    let db = Database::open(&dir).unwrap();
    for name in source.table_names() {
        db.add_table(source.table(name).unwrap().clone()).unwrap();
    }
    for name in ["r", "s", "t"] {
        db.add_table(rst_catalog().table(name).unwrap().clone())
            .unwrap();
    }
    assert_no_row_image(&db, "load");

    let session = db.connect();
    let engines = [
        Engine::NestedRelational(Strategy::Auto),
        Engine::NestedRelational(Strategy::Original),
        Engine::Baseline,
        Engine::Reference,
    ];
    for engine in engines {
        let opts = QueryOptions::new().engine(engine);
        for sql in classes.iter().map(String::as_str).chain([QUERY_Q]) {
            session.execute_with(sql, &opts).expect(sql);
        }
    }
    assert_no_row_image(&db, "queries under every engine");

    session
        .execute_with("analyze lineitem", &QueryOptions::new())
        .unwrap();
    let template = db.catalog().table("lineitem").unwrap().row(0);
    db.insert("lineitem", vec![template.clone(), template])
        .unwrap();
    session
        .execute_with(&classes[0], &QueryOptions::new())
        .unwrap();
    db.checkpoint().unwrap();
    assert_no_row_image(&db, "analyze, insert, read, checkpoint");

    drop(session);
    drop(db);
    let db = Database::open(&dir).unwrap();
    db.execute(&classes[0], &QueryOptions::new()).unwrap();
    assert_no_row_image(&db, "recovery and a read");
    let _ = std::fs::remove_dir_all(&dir);
}
