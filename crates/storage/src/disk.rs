//! Disk persistence: a compact binary codec for catalog state and the
//! checksummed, versioned snapshot files that checkpoints produce.
//!
//! A snapshot is the full catalog at a known LSN:
//!
//! ```text
//! "NRASNAP1"  magic, 8 bytes
//! crc: u32    CRC-32 of everything after this field
//! version: u32  format version (currently 1)
//! lsn: u64    last log record folded into this snapshot
//! tables: u32, then per table the same encoding the WAL uses for
//!             CREATE TABLE (name, columns, primary key, rows, stats)
//! ```
//!
//! Snapshots are installed atomically: written to `snapshot-<lsn>.tmp`,
//! fsynced, renamed to `snapshot-<lsn>.nra`, directory fsynced. A crash
//! at any point leaves either the old snapshot or the new one — never a
//! half-written file under the final name. Stray `.tmp` files are
//! ignored by recovery and swept by the next checkpoint.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::catalog::{Catalog, ColumnStats, Table, TableStats};
use crate::checksum::crc32;
use crate::column::{ColumnData, ColumnStore};
use crate::error::StorageError;
use crate::iofault::{self, IoFailure};
use crate::schema::{Column, ColumnType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

const MAGIC: &[u8; 8] = b"NRASNAP1";
const FORMAT_VERSION: u32 = 1;

fn io_err(context: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over an encoded byte slice. Decode errors are
/// plain strings; callers wrap them into [`StorageError::Corruption`]
/// with file/LSN context.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "unexpected end of record: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed UTF-8 string, borrowed from the buffer.
    pub(crate) fn str_ref(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        self.str_ref().map(str::to_string)
    }
}

// ---------------------------------------------------------------------
// Values, columns, stats, tables
// ---------------------------------------------------------------------

pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Decimal(c) => {
            buf.push(3);
            buf.extend_from_slice(&c.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(4);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(5);
            put_str(buf, s);
        }
        Value::Date(d) => {
            buf.push(6);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

pub(crate) fn get_value(cur: &mut Cursor<'_>) -> Result<Value, String> {
    Ok(match cur.u8()? {
        0 => Value::Null,
        1 => Value::Bool(cur.u8()? != 0),
        2 => Value::Int(cur.i64()?),
        3 => Value::Decimal(cur.i64()?),
        4 => Value::Float(f64::from_bits(cur.u64()?)),
        5 => Value::Str(cur.str()?),
        6 => Value::Date(i32::from_le_bytes(cur.take(4)?.try_into().unwrap())),
        tag => return Err(format!("unknown value tag {tag}")),
    })
}

/// Encode row `row` of a stored column: the bytes [`put_value`] writes
/// for the same value, read straight from the lane.
fn put_cell(buf: &mut Vec<u8>, col: &ColumnStore, row: usize) {
    if col.is_null(row) {
        return buf.push(0);
    }
    match col.values() {
        ColumnData::I64(vals) => {
            let x = vals[row];
            match col.ty() {
                ColumnType::Bool => buf.extend_from_slice(&[1, x as u8]),
                ColumnType::Decimal => {
                    buf.push(3);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                ColumnType::Date => {
                    buf.push(6);
                    // The lane holds what was an `i32`.
                    buf.extend_from_slice(&(x as i32).to_le_bytes());
                }
                _ => {
                    buf.push(2);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        ColumnData::F64(vals) => {
            buf.push(4);
            buf.extend_from_slice(&vals[row].to_bits().to_le_bytes());
        }
        ColumnData::Str { .. } => {
            buf.push(5);
            put_str(buf, col.str_at(row));
        }
    }
}

/// Decode one value straight into `col`. A tag that does not inhabit the
/// column's declared type — or a NULL in a `NOT NULL` column — is an
/// error, never a mistyped lane.
fn get_cell(cur: &mut Cursor<'_>, decl: &Column, col: &mut ColumnStore) -> Result<(), String> {
    let tag = cur.u8()?;
    let fits = match tag {
        0 if !decl.nullable => {
            return Err(format!(
                "row fails schema validation: NULL in NOT NULL column `{}`",
                decl.name
            ))
        }
        0 => {
            col.push_null();
            true
        }
        1 => col.push_i64(ColumnType::Bool, i64::from(cur.u8()? != 0)),
        2 => col.push_i64(ColumnType::Int, cur.i64()?),
        3 => col.push_i64(ColumnType::Decimal, cur.i64()?),
        4 => col.push_f64(f64::from_bits(cur.u64()?)),
        5 => col.push_str(cur.str_ref()?),
        6 => {
            let days = i32::from_le_bytes(cur.take(4)?.try_into().unwrap());
            col.push_i64(ColumnType::Date, i64::from(days))
        }
        tag => return Err(format!("unknown value tag {tag}")),
    };
    if fits {
        Ok(())
    } else {
        Err(format!(
            "row fails schema validation: value tag {tag} in column `{}` of type {:?}",
            decl.name, decl.ty
        ))
    }
}

fn type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Bool => 0,
        ColumnType::Int => 1,
        ColumnType::Decimal => 2,
        ColumnType::Float => 3,
        ColumnType::Str => 4,
        ColumnType::Date => 5,
    }
}

fn type_from_tag(tag: u8) -> Result<ColumnType, String> {
    Ok(match tag {
        0 => ColumnType::Bool,
        1 => ColumnType::Int,
        2 => ColumnType::Decimal,
        3 => ColumnType::Float,
        4 => ColumnType::Str,
        5 => ColumnType::Date,
        _ => return Err(format!("unknown column type tag {tag}")),
    })
}

fn put_stats(buf: &mut Vec<u8>, stats: &TableStats) {
    put_u64(buf, stats.row_count);
    put_u32(buf, stats.columns.len() as u32);
    for c in &stats.columns {
        put_str(buf, &c.name);
        put_u64(buf, c.ndv);
        put_u64(buf, c.null_count);
    }
}

fn get_stats(cur: &mut Cursor<'_>) -> Result<TableStats, String> {
    let row_count = cur.u64()?;
    let n = cur.u32()? as usize;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        columns.push(ColumnStats {
            name: cur.str()?,
            ndv: cur.u64()?,
            null_count: cur.u64()?,
        });
    }
    Ok(TableStats { row_count, columns })
}

pub(crate) fn put_rows(buf: &mut Vec<u8>, rows: &[Tuple]) {
    put_u64(buf, rows.len() as u64);
    for row in rows {
        put_u32(buf, row.len() as u32);
        for v in row {
            put_value(buf, v);
        }
    }
}

pub(crate) fn get_rows(cur: &mut Cursor<'_>) -> Result<Vec<Tuple>, String> {
    let n = cur.u64()? as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let arity = cur.u32()? as usize;
        let mut row = Vec::with_capacity(arity.min(1 << 16));
        for _ in 0..arity {
            row.push(get_value(cur)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Encode a full table — name, schema, primary key, rows and (if
/// present) `ANALYZE` stats. The same encoding serves as the snapshot's
/// per-table body and the WAL's `CREATE TABLE` payload, so a table
/// created with pre-loaded rows is one atomic record.
pub(crate) fn put_table(buf: &mut Vec<u8>, table: &Table) {
    put_str(buf, table.name());
    let cols = table.schema().columns();
    put_u32(buf, cols.len() as u32);
    for c in cols {
        put_str(buf, &c.name);
        buf.push(type_tag(c.ty));
        buf.push(c.nullable as u8);
    }
    put_u32(buf, table.primary_key().len() as u32);
    for &i in table.primary_key() {
        put_u32(buf, i as u32);
    }
    put_u64(buf, table.len() as u64);
    for row in 0..table.len() {
        put_u32(buf, cols.len() as u32);
        for i in 0..cols.len() {
            put_cell(buf, table.column(i), row);
        }
    }
    match table.stats() {
        Some(stats) => {
            buf.push(1);
            put_stats(buf, &stats);
        }
        None => buf.push(0),
    }
}

pub(crate) fn get_table(cur: &mut Cursor<'_>) -> Result<Table, String> {
    let name = cur.str()?;
    let ncols = cur.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = cur.str()?;
        let ty = type_from_tag(cur.u8()?)?;
        let nullable = cur.u8()? != 0;
        let col = if nullable {
            Column::new(cname, ty)
        } else {
            Column::not_null(cname, ty)
        };
        columns.push(col);
    }
    let mut table = Table::new(name, Schema::new(columns));
    let npk = cur.u32()? as usize;
    let mut pk_names: Vec<String> = Vec::with_capacity(npk);
    for _ in 0..npk {
        let i = cur.u32()? as usize;
        let col = table
            .schema()
            .columns()
            .get(i)
            .ok_or_else(|| format!("primary key index {i} out of range"))?;
        pk_names.push(col.name.clone());
    }
    let pk_refs: Vec<&str> = pk_names.iter().map(String::as_str).collect();
    table
        .set_primary_key(&pk_refs)
        .map_err(|e| format!("invalid primary key: {e}"))?;
    let nrows = cur.u64()?;
    // The count is input: trust it for at most a bounded reservation.
    table.reserve((nrows as usize).min(1 << 20));
    for _ in 0..nrows {
        let arity = cur.u32()? as usize;
        if arity != ncols {
            return Err(format!(
                "row fails schema validation: {arity} values for {ncols} columns"
            ));
        }
        table.append_decoded(|decl, col| get_cell(cur, decl, col))?;
    }
    if cur.u8()? != 0 {
        table.set_stats(get_stats(cur)?);
    }
    Ok(table)
}

// ---------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------

fn snapshot_name(lsn: u64) -> String {
    format!("snapshot-{lsn:020}.nra")
}

fn encode_snapshot(catalog: &Catalog, lsn: u64) -> Vec<u8> {
    let mut body = Vec::new();
    put_u32(&mut body, FORMAT_VERSION);
    put_u64(&mut body, lsn);
    let names = catalog.table_names();
    put_u32(&mut body, names.len() as u32);
    for name in names {
        let table = catalog.table(name).expect("listed table exists");
        put_table(&mut body, table);
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

fn decode_snapshot(file: &str, bytes: &[u8]) -> Result<(Catalog, u64), StorageError> {
    let corrupt = |lsn: u64, detail: String| StorageError::Corruption {
        file: file.to_string(),
        lsn,
        detail,
    };
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return Err(corrupt(0, "missing or truncated snapshot header".into()));
    }
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let body = &bytes[12..];
    if crc32(body) != stored_crc {
        return Err(corrupt(0, "snapshot checksum mismatch".into()));
    }
    let mut cur = Cursor::new(body);
    let decode = |cur: &mut Cursor<'_>| -> Result<(Catalog, u64), String> {
        let version = cur.u32()?;
        if version != FORMAT_VERSION {
            return Err(format!("unsupported snapshot format version {version}"));
        }
        let lsn = cur.u64()?;
        let ntables = cur.u32()? as usize;
        let mut catalog = Catalog::new();
        for _ in 0..ntables {
            let table = get_table(cur)?;
            catalog
                .add_table(table)
                .map_err(|e| format!("duplicate table in snapshot: {e}"))?;
        }
        if !cur.is_at_end() {
            return Err("trailing bytes after last table".into());
        }
        Ok((catalog, lsn))
    };
    decode(&mut cur).map_err(|detail| corrupt(0, detail))
}

fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync directory", e))
}

/// Write the catalog as a new snapshot at `lsn` and atomically install
/// it. Honors the `checkpoint-write` and `snapshot-rename` fault sites;
/// note that a `crash` at `snapshot-rename` fires *after* the rename
/// (the process dies with the snapshot installed but the log not yet
/// truncated — recovery must skip records at or below the snapshot LSN).
pub fn write_snapshot(dir: &Path, catalog: &Catalog, lsn: u64) -> Result<PathBuf, StorageError> {
    let bytes = encode_snapshot(catalog, lsn);
    let tmp = dir.join(format!("snapshot-{lsn:020}.tmp"));
    let dest = dir.join(snapshot_name(lsn));
    let write_tmp = |data: &[u8]| -> Result<(), StorageError> {
        let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot tmp", e))?;
        f.write_all(data)
            .map_err(|e| io_err("write snapshot tmp", e))?;
        f.sync_all().map_err(|e| io_err("fsync snapshot tmp", e))
    };
    match iofault::hit(iofault::CHECKPOINT_WRITE) {
        Some(IoFailure::ShortWrite) => {
            write_tmp(&bytes[..bytes.len() / 2])?;
            return Err(StorageError::Io(
                "injected short write at checkpoint-write (partial snapshot tmp left behind)"
                    .into(),
            ));
        }
        Some(IoFailure::Crash) => {
            write_tmp(&bytes)?;
            return Err(StorageError::Io(
                "injected crash at checkpoint-write (snapshot tmp complete but not installed)"
                    .into(),
            ));
        }
        Some(IoFailure::IoError) => {
            return Err(StorageError::Io(
                "injected I/O error at checkpoint-write".into(),
            ));
        }
        None => {}
    }
    write_tmp(&bytes)?;
    match iofault::hit(iofault::SNAPSHOT_RENAME) {
        Some(IoFailure::Crash) => {
            fs::rename(&tmp, &dest).map_err(|e| io_err("rename snapshot", e))?;
            sync_dir(dir)?;
            return Err(StorageError::Io(
                "injected crash at snapshot-rename (snapshot installed, log not yet truncated)"
                    .into(),
            ));
        }
        Some(_) => {
            return Err(StorageError::Io(
                "injected I/O error at snapshot-rename".into(),
            ));
        }
        None => {}
    }
    fs::rename(&tmp, &dest).map_err(|e| io_err("rename snapshot", e))?;
    sync_dir(dir)?;
    Ok(dest)
}

/// Load the newest snapshot in `dir`, if any, returning the catalog, its
/// LSN and its file name. A damaged newest snapshot is unrecoverable —
/// older snapshots were swept at the checkpoint that installed it and
/// the log was truncated, so falling back would silently lose commits.
pub fn load_latest_snapshot(dir: &Path) -> Result<Option<(Catalog, u64, String)>, StorageError> {
    let mut best: Option<(u64, PathBuf)> = None;
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read db directory", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read db directory", e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(lsn) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".nra"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().map(|(l, _)| lsn > *l).unwrap_or(true) {
            best = Some((lsn, entry.path()));
        }
    }
    let Some((_, path)) = best else {
        return Ok(None);
    };
    let file = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let bytes = fs::read(&path).map_err(|e| io_err("read snapshot", e))?;
    let (catalog, lsn) = decode_snapshot(&file, &bytes)?;
    Ok(Some((catalog, lsn, file)))
}

/// Best-effort sweep of snapshots older than `keep_lsn` and any stray
/// `.tmp` files. Failure to delete is harmless — recovery always picks
/// the newest valid snapshot.
pub fn sweep_snapshots(dir: &Path, keep_lsn: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let stale_tmp = name.starts_with("snapshot-") && name.ends_with(".tmp");
        let old_snapshot = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".nra"))
            .and_then(|s| s.parse::<u64>().ok())
            .map(|lsn| lsn < keep_lsn)
            .unwrap_or(false);
        if stale_tmp || old_snapshot {
            let _ = fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::not_null("t.id", ColumnType::Int),
                Column::new("t.price", ColumnType::Decimal),
                Column::new("t.name", ColumnType::Str),
                Column::new("t.ok", ColumnType::Bool),
                Column::new("t.ratio", ColumnType::Float),
                Column::new("t.day", ColumnType::Date),
            ]),
        );
        t.set_primary_key(&["t.id"]).unwrap();
        t.insert_many(vec![
            vec![
                Value::Int(1),
                Value::Decimal(12345),
                Value::str("widget"),
                Value::Bool(true),
                Value::Float(0.5),
                Value::Date(9000),
            ],
            vec![
                Value::Int(2),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
        ])
        .unwrap();
        t.analyze();
        cat.add_table(t).unwrap();
        cat
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nra-disk-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let dir = tmpdir("roundtrip");
        let cat = sample_catalog();
        write_snapshot(&dir, &cat, 7).unwrap();
        let (loaded, lsn, file) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(lsn, 7);
        assert!(file.contains("00000000000000000007"));
        let orig = cat.table("t").unwrap();
        let got = loaded.table("t").unwrap();
        assert_eq!(got.data(), orig.data());
        assert_eq!(got.primary_key(), orig.primary_key());
        assert_eq!(got.stats(), orig.stats());
        assert_eq!(
            got.schema().columns()[0].nullable,
            orig.schema().columns()[0].nullable
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_snapshot_wins_and_sweep_removes_older() {
        let dir = tmpdir("sweep");
        let cat = sample_catalog();
        write_snapshot(&dir, &cat, 3).unwrap();
        write_snapshot(&dir, &cat, 11).unwrap();
        let (_, lsn, _) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(lsn, 11);
        sweep_snapshots(&dir, 11);
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![snapshot_name(11)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_as_corruption() {
        let dir = tmpdir("bitflip");
        write_snapshot(&dir, &sample_catalog(), 5).unwrap();
        let path = dir.join(snapshot_name(5));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match load_latest_snapshot(&dir) {
            Err(StorageError::Corruption { file, .. }) => assert!(file.contains("snapshot")),
            other => panic!("expected corruption, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
