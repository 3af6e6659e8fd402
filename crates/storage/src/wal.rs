//! Append-only write-ahead log for durable catalog mutations.
//!
//! File layout: an 8-byte magic (`NRAWAL01`) followed by records:
//!
//! ```text
//! len: u32    body length in bytes
//! crc: u32    CRC-32 of the body
//! body:       lsn: u64 | kind: u8 | payload
//! ```
//!
//! Record kinds: `1` CREATE TABLE (full table encoding — schema, primary
//! key, any pre-loaded rows, stats), `2` INSERT (table name + rows), `3`
//! ANALYZE (table name + stats). Records are appended and fsynced before
//! the in-memory catalog mutates (write-ahead), so every acknowledged
//! mutation is on disk and every on-disk record past the last checkpoint
//! replays cleanly.
//!
//! **Torn-tail rule.** Appends extend the file left-to-right, so a crash
//! mid-append damages only the *final* record: a short header, a body
//! running past end-of-file, or a checksum mismatch on the last record
//! are all torn tails — recovery drops the tail, truncates the file and
//! reports what was dropped. Damage anywhere *before* the final record
//! cannot come from a torn append; that is corruption, and recovery
//! refuses to start rather than guess.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::catalog::{Catalog, TableStats};
use crate::checksum::crc32;
use crate::disk::{self, Cursor};
use crate::error::StorageError;
use crate::fault::{self, FaultKind};
use crate::tuple::Tuple;

const MAGIC: &[u8; 8] = b"NRAWAL01";
const HEADER: usize = 8; // len + crc
const MIN_BODY: usize = 9; // lsn + kind
/// Sanity bound on a single record; a length field beyond this is
/// treated as corruption, not a torn tail.
const MAX_BODY: u32 = 1 << 30;

fn io_err(context: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{context}: {e}"))
}

/// A logged catalog mutation.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A new table, encoded in full (schema, primary key, rows, stats)
    /// so that creating a pre-populated table is one atomic record.
    CreateTable(crate::catalog::Table),
    Insert {
        table: String,
        rows: Vec<Tuple>,
    },
    Analyze {
        table: String,
        stats: TableStats,
    },
}

impl WalRecord {
    /// The whole framed record in one buffer: the body is encoded after
    /// a placeholder header, which is patched once the body is known.
    fn encode(&self, lsn: u64) -> Vec<u8> {
        let mut buf = vec![0; HEADER];
        disk::put_u64(&mut buf, lsn);
        match self {
            WalRecord::CreateTable(table) => {
                buf.push(1);
                disk::put_table(&mut buf, table);
            }
            WalRecord::Insert { table, rows } => {
                buf.push(2);
                disk::put_str(&mut buf, table);
                disk::put_rows(&mut buf, rows);
            }
            WalRecord::Analyze { table, stats } => {
                buf.push(3);
                disk::put_str(&mut buf, table);
                disk::put_stats(&mut buf, stats);
            }
        }
        let len = (buf.len() - HEADER) as u32;
        let crc = crc32(&buf[HEADER..]);
        buf[..4].copy_from_slice(&len.to_le_bytes());
        buf[4..HEADER].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode the payload of a record of `kind` (the body past its LSN
    /// and kind byte).
    fn decode(kind: u8, cur: &mut Cursor<'_>) -> Result<WalRecord, String> {
        let rec = match kind {
            1 => WalRecord::CreateTable(disk::get_table(cur)?),
            2 => {
                let table = cur.str()?;
                let rows = disk::get_rows(cur)?;
                WalRecord::Insert { table, rows }
            }
            3 => WalRecord::Analyze {
                table: cur.str()?,
                stats: disk::get_stats(cur)?,
            },
            k => return Err(format!("unknown record kind {k}")),
        };
        cur.finish()?;
        Ok(rec)
    }

    /// Check the record against `catalog` without changing it: after
    /// `Ok`, [`WalRecord::apply`] cannot fail. A writer checks before it
    /// logs, so the log holds only records that apply.
    pub fn check(&self, catalog: &Catalog) -> Result<(), StorageError> {
        match self {
            WalRecord::CreateTable(table) if catalog.contains(table.name()) => {
                Err(StorageError::DuplicateTable(table.name().to_string()))
            }
            WalRecord::CreateTable(_) => Ok(()),
            WalRecord::Insert { table, rows } => {
                let t = catalog.table(table)?;
                rows.iter().try_for_each(|row| t.validate(row))
            }
            WalRecord::Analyze { table, .. } => catalog.table(table).map(|_| ()),
        }
    }

    /// Apply the record to `catalog`: `CreateTable` adds the table,
    /// `Insert` appends the rows (all or nothing), `Analyze` installs the
    /// statistics.
    pub fn apply(self, catalog: &mut Catalog) -> Result<(), StorageError> {
        match self {
            WalRecord::CreateTable(table) => catalog.add_table(table),
            WalRecord::Insert { table, rows } => catalog.table_mut(&table)?.insert_many(rows),
            WalRecord::Analyze { table, stats } => {
                catalog.table_mut(&table)?.set_stats(stats);
                Ok(())
            }
        }
    }

    /// Decode a record's kind and payload (the body past its LSN) and
    /// apply it to `catalog`. An `Insert` decodes its rows straight into
    /// the table's lanes, never as `Tuple`s. Records were checked before
    /// they were logged, so any failure means log and catalog disagree.
    fn replay_one(cur: &mut Cursor<'_>, catalog: &mut Catalog) -> Result<(), String> {
        let kind = cur.u8()?;
        if kind == 2 {
            let table = catalog.table_mut(cur.str_ref()?);
            disk::get_rows_into(cur, table.map_err(|e| e.to_string())?)?;
            return cur.finish();
        }
        let rec = WalRecord::decode(kind, cur)?;
        rec.apply(catalog).map_err(|e| e.to_string())
    }
}

/// Append handle over the log. Write-ahead discipline: [`WalWriter::append_sync`]
/// returns only after the record is written *and* fsynced; an fsync
/// failure rolls the unacknowledged suffix back so the on-disk log never
/// contains records the caller was not told about. After a short write
/// the handle is poisoned — the file has torn bytes only recovery may
/// repair, so further appends fail fast until the database is reopened.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    poisoned: bool,
}

impl WalWriter {
    /// Open (creating and stamping the magic if needed) the log for
    /// appending. Call after [`replay`] has validated/repaired the file.
    pub fn open_append(path: &Path) -> Result<WalWriter, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open wal", e))?;
        let len = file.metadata().map_err(|e| io_err("stat wal", e))?.len();
        let len = if len == 0 {
            file.write_all(MAGIC)
                .map_err(|e| io_err("write wal magic", e))?;
            file.sync_data().map_err(|e| io_err("fsync wal magic", e))?;
            MAGIC.len() as u64
        } else {
            len
        };
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len,
            poisoned: false,
        })
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len <= MAGIC.len() as u64
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether an earlier failed write left the on-disk tail in an
    /// unknown state; every further append is refused until reopen.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Append one record and fsync it. Returns the number of bytes
    /// appended. Honors the `wal-append` and `wal-fsync` fault sites.
    pub fn append_sync(&mut self, lsn: u64, rec: &WalRecord) -> Result<u64, StorageError> {
        if self.poisoned {
            return Err(StorageError::Io(
                "write-ahead log poisoned by an earlier failed write; reopen the database".into(),
            ));
        }
        let buf = rec.encode(lsn);
        let start = self.len;
        match fault::hit(fault::WAL_APPEND).map(|(kind, _)| kind) {
            Some(FaultKind::ShortWrite) => {
                // A prefix of the record reaches disk: exactly the torn
                // tail recovery must truncate.
                let torn = &buf[..buf.len() / 2];
                self.file
                    .write_all(torn)
                    .map_err(|e| io_err("write wal (torn)", e))?;
                let _ = self.file.sync_data();
                self.poisoned = true;
                return Err(StorageError::Io(format!(
                    "injected short write at wal-append (wrote {} of {} bytes)",
                    torn.len(),
                    buf.len()
                )));
            }
            Some(FaultKind::Crash) => {
                self.poisoned = true;
                return Err(StorageError::Io(
                    "injected crash at wal-append (record not written)".into(),
                ));
            }
            Some(_) => {
                return Err(StorageError::Io("injected I/O error at wal-append".into()));
            }
            None => {}
        }
        if let Err(e) = self.file.write_all(&buf) {
            self.poisoned = true;
            return Err(io_err("write wal record", e));
        }
        let fsync_failed = fault::hit(fault::WAL_FSYNC).map(|_| {
            StorageError::Io("injected fsync failure at wal-fsync (append rolled back)".into())
        });
        let fsync_failed = match fsync_failed {
            Some(e) => Some(e),
            None => self
                .file
                .sync_data()
                .map_err(|e| io_err("fsync wal", e))
                .err(),
        };
        if let Some(e) = fsync_failed {
            // The caller will treat this append as not-committed, so the
            // bytes must not resurface at recovery: roll the file back.
            // (The handle is in append mode, so the next write lands at
            // the truncated end.) If even the rollback fails, poison.
            if self.file.set_len(start).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.len = start + buf.len() as u64;
        Ok(buf.len() as u64)
    }

    /// Truncate the log back to just the magic (after a checkpoint has
    /// folded every record into a snapshot).
    pub fn reset(&mut self) -> Result<(), StorageError> {
        self.file
            .set_len(MAGIC.len() as u64)
            .map_err(|e| io_err("truncate wal", e))?;
        self.file.sync_data().map_err(|e| io_err("fsync wal", e))?;
        self.len = MAGIC.len() as u64;
        Ok(())
    }
}

/// The result of scanning the log at open.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Every decodable record, in log order, from [`replay`] (the caller
    /// filters out records already folded into the snapshot by LSN);
    /// always empty from [`replay_into`], which applies them instead.
    pub records: Vec<(u64, WalRecord)>,
    /// Records [`replay_into`] applied (those past its `after_lsn`).
    pub applied: u64,
    /// LSN of the last good record (0 when there is none).
    pub last_lsn: u64,
    /// File offset just past the last good record — the truncation
    /// point when a torn tail was found.
    pub good_len: u64,
    /// Torn-tail damage found (and to be repaired by truncation).
    pub dropped_records: u64,
    pub dropped_bytes: u64,
}

/// Scan the log, validating checksums, and collect every record. Torn
/// tails (see the module doc's torn-tail rule) are reported in the
/// outcome for the caller to truncate; damage before the final record is
/// unrecoverable and returns [`StorageError::Corruption`].
pub fn replay(path: &Path) -> Result<ReplayOutcome, StorageError> {
    let mut records = Vec::new();
    let mut out = scan(path, |lsn, cur| {
        let kind = cur.u8()?;
        records.push((lsn, WalRecord::decode(kind, cur)?));
        Ok(())
    })?;
    out.records = records;
    Ok(out)
}

/// Scan the log like [`replay`], applying each record with
/// `lsn > after_lsn` to `catalog` as soon as its checksum passes; records
/// at or below it are already folded into the snapshot and are skipped.
/// A record that does not decode or apply is [`StorageError::Corruption`]
/// naming the log and the record's LSN — `catalog` is then half-applied
/// and must be discarded.
pub fn replay_into(
    path: &Path,
    catalog: &mut Catalog,
    after_lsn: u64,
) -> Result<ReplayOutcome, StorageError> {
    let mut applied = 0;
    let mut out = scan(path, |lsn, cur| {
        if lsn <= after_lsn {
            return Ok(());
        }
        WalRecord::replay_one(cur, catalog)?;
        applied += 1;
        Ok(())
    })?;
    out.applied = applied;
    Ok(out)
}

/// The one scan over the log: magic, header and length checks, CRC, the
/// torn-tail rule and LSN monotonicity. Each record that passes them goes
/// to `sink` with its LSN and a cursor over the rest of its body, in log
/// order; a sink error is corruption at that record.
fn scan(
    path: &Path,
    mut sink: impl FnMut(u64, &mut Cursor<'_>) -> Result<(), String>,
) -> Result<ReplayOutcome, StorageError> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let corrupt = |lsn: u64, detail: String| StorageError::Corruption {
        file: file_name.clone(),
        lsn,
        detail,
    };
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| io_err("read wal", e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReplayOutcome::default()),
        Err(e) => return Err(io_err("open wal", e)),
    }
    let mut out = ReplayOutcome::default();
    if bytes.is_empty() {
        return Ok(out);
    }
    if bytes.len() < MAGIC.len() {
        // A crash while stamping a brand-new log: nothing was ever
        // appended, so treat it as empty and let the writer re-stamp.
        out.dropped_bytes = bytes.len() as u64;
        out.good_len = 0;
        return Ok(out);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt(0, "bad magic: not a write-ahead log".into()));
    }
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        let torn = |out: &mut ReplayOutcome| {
            out.dropped_records = 1;
            out.dropped_bytes = remaining as u64;
            out.good_len = pos as u64;
        };
        if remaining < HEADER {
            // Torn header on the final (partial) record.
            torn(&mut out);
            return Ok(out);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len < MIN_BODY as u32 || len > MAX_BODY {
            // The header is written before the body, so a fully present
            // header with an absurd length was not torn — it was damaged
            // in place.
            return Err(corrupt(
                out.last_lsn,
                format!("implausible record length {len} at offset {pos}"),
            ));
        }
        let len = len as usize;
        if remaining < HEADER + len {
            // Body runs past end-of-file: torn final record.
            torn(&mut out);
            return Ok(out);
        }
        let body = &bytes[pos + HEADER..pos + HEADER + len];
        if crc32(body) != stored_crc {
            if pos + HEADER + len == bytes.len() {
                // Checksum mismatch on the very last record: torn tail.
                torn(&mut out);
                return Ok(out);
            }
            return Err(corrupt(
                out.last_lsn,
                format!("checksum mismatch at offset {pos} (not the final record)"),
            ));
        }
        let mut cur = Cursor::new(body);
        let lsn = cur.u64().expect("a body holds at least its lsn");
        if lsn <= out.last_lsn && out.last_lsn != 0 {
            return Err(corrupt(
                lsn,
                format!(
                    "non-monotonic lsn {lsn} after {} at offset {pos}",
                    out.last_lsn
                ),
            ));
        }
        sink(lsn, &mut cur)
            .map_err(|detail| corrupt(lsn, format!("bad record at offset {pos}: {detail}")))?;
        out.last_lsn = lsn;
        pos += HEADER + len;
    }
    out.good_len = pos as u64;
    Ok(out)
}

/// Truncate a repairable torn tail off the log (recovery's repair step).
pub fn truncate_to(path: &Path, len: u64) -> Result<(), StorageError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("open wal for repair", e))?;
    file.set_len(len)
        .map_err(|e| io_err("truncate wal tail", e))?;
    file.sync_all().map_err(|e| io_err("fsync repaired wal", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Table;
    use crate::column::ColumnData;
    use crate::schema::{Column, ColumnType, Schema};
    use crate::value::Value;
    use std::fs;

    fn tmpfile(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nra-wal-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d.join("wal.log")
    }

    fn sample_table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::not_null("t.id", ColumnType::Int),
                Column::new("t.v", ColumnType::Str),
            ]),
        );
        t.set_primary_key(&["t.id"]).unwrap();
        t
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable(sample_table()),
            WalRecord::Insert {
                table: "t".into(),
                rows: vec![
                    vec![Value::Int(1), Value::str("a")],
                    vec![Value::Int(2), Value::Null],
                ],
            },
            WalRecord::Analyze {
                table: "t".into(),
                stats: TableStats {
                    row_count: 2,
                    columns: vec![crate::catalog::ColumnStats {
                        name: "t.id".into(),
                        ndv: 2,
                        null_count: 0,
                    }],
                },
            },
        ]
    }

    fn write_log(path: &Path) -> Vec<WalRecord> {
        let mut w = WalWriter::open_append(path).unwrap();
        let recs = sample_records();
        for (i, r) in recs.iter().enumerate() {
            w.append_sync(i as u64 + 1, r).unwrap();
        }
        recs
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmpfile("roundtrip");
        let recs = write_log(&path);
        let out = replay(&path).unwrap();
        assert_eq!(out.dropped_records, 0);
        assert_eq!(out.records.len(), recs.len());
        for (i, (lsn, rec)) in out.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            match (rec, &recs[i]) {
                (WalRecord::CreateTable(a), WalRecord::CreateTable(b)) => {
                    assert_eq!(a.name(), b.name());
                    assert_eq!(a.schema().columns(), b.schema().columns());
                    assert_eq!(a.primary_key(), b.primary_key());
                }
                (
                    WalRecord::Insert {
                        table: ta,
                        rows: ra,
                    },
                    WalRecord::Insert {
                        table: tb,
                        rows: rb,
                    },
                ) => {
                    assert_eq!(ta, tb);
                    assert_eq!(ra, rb);
                }
                (
                    WalRecord::Analyze {
                        table: ta,
                        stats: sa,
                    },
                    WalRecord::Analyze {
                        table: tb,
                        stats: sb,
                    },
                ) => {
                    assert_eq!(ta, tb);
                    assert_eq!(sa, sb);
                }
                (a, b) => panic!("variant mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmpfile("torn");
        write_log(&path);
        let clean = fs::read(&path).unwrap();
        // Simulate a crash mid-append: a partial record at the end.
        let mut torn = clean.clone();
        torn.extend_from_slice(&[42, 0, 0, 0, 7, 7]); // short header+crc fragment
        fs::write(&path, &torn).unwrap();
        let out = replay(&path).unwrap();
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.dropped_records, 1);
        assert_eq!(out.dropped_bytes, 6);
        assert_eq!(out.good_len, clean.len() as u64);
        truncate_to(&path, out.good_len).unwrap();
        let repaired = replay(&path).unwrap();
        assert_eq!(repaired.dropped_records, 0);
        assert_eq!(repaired.records.len(), 3);
    }

    #[test]
    fn torn_final_record_body_is_dropped() {
        let path = tmpfile("torn-body");
        write_log(&path);
        let clean = fs::read(&path).unwrap();
        let mut torn = clean.clone();
        // Header claims 100 bytes; only 10 arrive before the "crash".
        torn.extend_from_slice(&100u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(&[1; 10]);
        fs::write(&path, &torn).unwrap();
        let out = replay(&path).unwrap();
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.dropped_records, 1);
        assert_eq!(out.good_len, clean.len() as u64);
    }

    #[test]
    fn mid_log_bit_flip_is_corruption() {
        let path = tmpfile("midflip");
        write_log(&path);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the first record (well before the tail).
        bytes[MAGIC.len() + HEADER + 10] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match replay(&path) {
            Err(StorageError::Corruption { file, detail, .. }) => {
                assert!(file.contains("wal"), "file = {file}");
                assert!(detail.contains("checksum"), "detail = {detail}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn huge_analyze_column_count_is_corruption_not_an_allocation() {
        let path = tmpfile("hugestats");
        let mut body = Vec::new();
        disk::put_u64(&mut body, 1);
        body.push(3);
        disk::put_str(&mut body, "");
        disk::put_u64(&mut body, 0);
        disk::put_u32(&mut body, u32::MAX);
        let mut bytes = MAGIC.to_vec();
        disk::put_u32(&mut bytes, body.len() as u32);
        disk::put_u32(&mut bytes, crc32(&body));
        bytes.extend_from_slice(&body);
        fs::write(&path, &bytes).unwrap();
        match replay(&path) {
            Err(StorageError::Corruption { detail, .. }) => {
                assert!(detail.contains("unexpected end"), "{detail}")
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    /// A log holding `records`, each framed and checksummed by hand.
    fn log_of(path: &Path, records: &[Vec<u8>]) {
        let mut bytes = MAGIC.to_vec();
        for body in records {
            disk::put_u32(&mut bytes, body.len() as u32);
            disk::put_u32(&mut bytes, crc32(body));
            bytes.extend_from_slice(body);
        }
        fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn replay_into_applies_what_replay_collects() {
        let path = tmpfile("into");
        write_log(&path);
        let mut cat = Catalog::new();
        let out = replay_into(&path, &mut cat, 0).unwrap();
        assert!(out.records.is_empty());
        assert_eq!((out.applied, out.last_lsn), (3, 3));
        assert_eq!(out.good_len, fs::metadata(&path).unwrap().len());
        let t = cat.table("t").unwrap();
        assert_eq!(t.rows().collect::<Vec<_>>(), {
            let WalRecord::Insert { rows, .. } = &sample_records()[1] else {
                unreachable!()
            };
            rows.clone()
        });
        assert_eq!(t.stats().map(|s| s.row_count), Some(2));
        // Records at or below `after_lsn` are checked but not applied.
        let mut cat = Catalog::new();
        cat.add_table(sample_table()).unwrap();
        let out = replay_into(&path, &mut cat, 1).unwrap();
        assert_eq!((out.applied, out.last_lsn), (2, 3));
        assert_eq!(cat.table("t").unwrap().len(), 2);
    }

    #[test]
    fn forged_insert_row_count_is_corruption_not_an_allocation() {
        let path = tmpfile("hugeinsert");
        let mut create = Vec::new();
        disk::put_u64(&mut create, 1);
        create.push(1);
        disk::put_table(&mut create, &sample_table());
        // One whole row follows a count of `u64::MAX` rows.
        let mut insert = Vec::new();
        disk::put_u64(&mut insert, 2);
        insert.push(2);
        disk::put_str(&mut insert, "t");
        disk::put_u64(&mut insert, u64::MAX);
        disk::put_u32(&mut insert, 2);
        disk::put_value(&mut insert, &Value::Int(1));
        disk::put_value(&mut insert, &Value::str("a"));
        log_of(&path, &[create, insert.clone()]);
        let mut cat = Catalog::new();
        match replay_into(&path, &mut cat, 0) {
            Err(StorageError::Corruption { file, lsn, detail }) => {
                assert_eq!((file.as_str(), lsn), ("wal.log", 2));
                assert!(detail.contains("unexpected end"), "{detail}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        let ColumnData::I64(lane) = cat.table("t").unwrap().column(0).values() else {
            panic!("an Int column has an i64 lane");
        };
        assert!(lane.capacity() * 6 <= insert.len(), "{}", lane.capacity());
        assert!(matches!(
            replay(&path),
            Err(StorageError::Corruption { lsn: 2, .. })
        ));
    }

    #[test]
    fn fsync_failure_rolls_back_the_append() {
        let path = tmpfile("fsync-rollback");
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_sync(1, &sample_records()[0]).unwrap();
        let committed = w.len();
        let mut plan = fault::FaultPlan::default();
        plan.push(fault::WAL_FSYNC, 1, FaultKind::IoError);
        let guard = fault::install(plan);
        let err = w.append_sync(2, &sample_records()[1]).unwrap_err();
        drop(guard);
        assert!(matches!(err, StorageError::Io(_)));
        assert_eq!(fs::metadata(&path).unwrap().len(), committed);
        // The writer is not poisoned after a clean rollback.
        w.append_sync(2, &sample_records()[1]).unwrap();
        let out = replay(&path).unwrap();
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn short_write_poisons_until_reopen() {
        let path = tmpfile("poison");
        let mut w = WalWriter::open_append(&path).unwrap();
        let mut plan = fault::FaultPlan::default();
        plan.push(fault::WAL_APPEND, 1, FaultKind::ShortWrite);
        let guard = fault::install(plan);
        w.append_sync(1, &sample_records()[0]).unwrap_err();
        drop(guard);
        let err = w.append_sync(2, &sample_records()[1]).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "err = {err}");
        // Recovery repairs the torn tail.
        let out = replay(&path).unwrap();
        assert_eq!(out.records.len(), 0);
        assert_eq!(out.dropped_records, 1);
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmpfile("reset");
        write_log(&path);
        let mut w = WalWriter::open_append(&path).unwrap();
        assert!(!w.is_empty());
        w.reset().unwrap();
        assert!(w.is_empty());
        let out = replay(&path).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.dropped_records, 0);
    }
}
