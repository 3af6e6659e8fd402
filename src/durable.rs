//! Crash-safe durability for the facade: `Database::open` persists the
//! catalog under a directory as checksummed snapshot files plus an
//! append-only write-ahead log (see `nra_storage::{wal, disk}` and
//! DESIGN.md §16).
//!
//! Protocol (write-ahead, fsync-on-commit):
//!
//! 1. A durable mutation (`CREATE TABLE`, `INSERT`, `ANALYZE`) validates
//!    fully in memory first, so the apply step cannot fail.
//! 2. The record is appended to `wal.log` and fsynced *before* the
//!    in-memory catalog changes. If the append or fsync fails, the call
//!    errors and the catalog is untouched — an acknowledged mutation is
//!    always on disk, an unacknowledged one never survives recovery.
//! 3. A checkpoint writes the whole catalog to `snapshot-<lsn>.nra`
//!    (write-tmp → fsync → rename → fsync-dir), then truncates the log.
//!
//! Recovery (`Database::open`) loads the newest valid snapshot, replays
//! log records with `lsn > snapshot lsn`, truncates a torn tail
//! (reporting what was dropped in [`RecoveryReport`]), and refuses
//! startup with [`EngineError::Corruption`] only when damage cannot be
//! attributed to a torn append. The schema version is restored to the
//! last applied LSN so the plan cache can never confuse pre- and
//! post-recovery catalogs.
//!
//! Lock order (deadlock-free by construction): the catalog lock is
//! always taken *before* the durability mutex, never the other way.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use nra_engine::{Config, EngineError};
use nra_obs::metrics;
use nra_storage::iofault::{self, IoFaultPlan};
use nra_storage::wal::{self, WalRecord, WalWriter};
use nra_storage::{disk, Catalog, StorageError};

use crate::{Database, NraError};

/// The write-ahead log's file name inside a database directory.
pub const WAL_FILE: &str = "wal.log";

/// Records appended since the last checkpoint before an automatic one
/// is taken (override with `NRA_CHECKPOINT_EVERY`; `0` disables).
const DEFAULT_CHECKPOINT_EVERY: u64 = 4096;

/// What `Database::open` found and did while recovering a directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the snapshot recovery started from (0 = none).
    pub snapshot_lsn: u64,
    /// File name of that snapshot, when one was loaded.
    pub snapshot_file: Option<String>,
    /// Log records replayed on top of the snapshot.
    pub replayed: u64,
    /// Torn-tail records dropped (and truncated away).
    pub dropped_records: u64,
    /// Bytes the torn tail occupied.
    pub dropped_bytes: u64,
    /// Whether the log was repaired (tail truncated) during this open.
    pub repaired: bool,
    /// Human-readable notes about degradation (empty on a clean open).
    pub messages: Vec<String>,
}

/// A point-in-time view of the durability layer, for the `nra_sys.wal`
/// introspection table and the CLI.
#[derive(Debug, Clone)]
pub struct DurabilityInfo {
    pub dir: PathBuf,
    /// Last LSN acknowledged (snapshot + log).
    pub last_lsn: u64,
    /// LSN covered by the newest installed snapshot.
    pub snapshot_lsn: u64,
    /// Current size of `wal.log` in bytes (including the file magic).
    pub wal_bytes: u64,
    /// Records appended since the last checkpoint.
    pub records_since_checkpoint: u64,
    /// Whether a failed write has disabled further durable mutations
    /// until the database is reopened.
    pub poisoned: bool,
}

/// The durable half of a database: the open WAL writer plus the LSN
/// bookkeeping. Lives behind a mutex in `DbShared`; the catalog lock is
/// always acquired first (see the module doc's lock order).
pub(crate) struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    last_lsn: u64,
    snapshot_lsn: u64,
    records_since_checkpoint: u64,
    checkpoint_every: u64,
    /// The I/O-site entries of the database's `NRA_FAULT`, armed around
    /// every durable write (`None` when there are none).
    io_faults: Option<Arc<IoFaultPlan>>,
    report: RecoveryReport,
    poisoned: Option<String>,
}

/// Keep corruption structured across the storage → facade boundary.
fn storage_err(e: StorageError) -> NraError {
    match e {
        StorageError::Corruption { file, lsn, detail } => {
            NraError::Engine(EngineError::Corruption { file, lsn, detail })
        }
        e => NraError::Storage(e),
    }
}

fn io_nra(context: &str, e: std::io::Error) -> NraError {
    NraError::Storage(StorageError::Io(format!("{context}: {e}")))
}

/// Apply one replayed record to the recovering catalog. Records passed
/// validation before they were logged, so a failure here means the log
/// and snapshot disagree — corruption, not a user error.
fn apply(catalog: &mut Catalog, lsn: u64, rec: WalRecord) -> Result<(), NraError> {
    let applied = match rec {
        WalRecord::CreateTable(table) => catalog.add_table(table),
        WalRecord::Insert { table, rows } => {
            catalog.table_mut(&table).and_then(|t| t.insert_many(rows))
        }
        WalRecord::Analyze { table, stats } => catalog.table(&table).map(|t| t.set_stats(stats)),
    };
    applied.map_err(|e| {
        NraError::Engine(EngineError::Corruption {
            file: WAL_FILE.into(),
            lsn,
            detail: format!("record does not apply to the recovered catalog: {e}"),
        })
    })
}

impl Database {
    /// Open (creating if necessary) a durable database rooted at `path`.
    ///
    /// Recovery runs before the handle is returned: the newest valid
    /// snapshot is loaded, the write-ahead log is replayed past it, a
    /// torn tail is truncated (graceful degradation, reported in
    /// [`Database::recovery`]), and unrecoverable damage refuses startup
    /// with a structured [`EngineError::Corruption`]. The schema version
    /// is restored to the last applied LSN.
    pub fn open(path: impl AsRef<Path>) -> Result<Database, NraError> {
        // A malformed environment refuses the open before anything is
        // created on disk.
        let config = Config::from_env().map_err(NraError::Engine)?;
        let io_faults = (!config.faults.io.is_empty()).then(|| {
            let mut plan = IoFaultPlan::default();
            for (site, nth, kind) in &config.faults.io {
                plan.push(site, *nth, *kind);
            }
            Arc::new(plan)
        });
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_nra("create db directory", e))?;

        let mut report = RecoveryReport::default();
        let (mut catalog, snapshot_lsn) =
            match disk::load_latest_snapshot(&dir).map_err(storage_err)? {
                Some((cat, lsn, file)) => {
                    report.snapshot_file = Some(file);
                    (cat, lsn)
                }
                None => (Catalog::new(), 0),
            };
        report.snapshot_lsn = snapshot_lsn;

        let wal_path = dir.join(WAL_FILE);
        let outcome = wal::replay(&wal_path).map_err(storage_err)?;
        let mut last_lsn = snapshot_lsn;
        for (lsn, rec) in outcome.records {
            if lsn <= snapshot_lsn {
                // Already folded into the snapshot (a crash between the
                // snapshot rename and the log truncation leaves these).
                continue;
            }
            apply(&mut catalog, lsn, rec)?;
            last_lsn = lsn;
            report.replayed += 1;
        }
        report.dropped_records = outcome.dropped_records;
        report.dropped_bytes = outcome.dropped_bytes;
        if outcome.dropped_bytes > 0 {
            wal::truncate_to(&wal_path, outcome.good_len).map_err(storage_err)?;
            report.repaired = true;
            report.messages.push(format!(
                "dropped a torn tail from {WAL_FILE}: {} record(s), {} byte(s) \
                 past the last committed record",
                outcome.dropped_records, outcome.dropped_bytes
            ));
        }
        let wal_writer = WalWriter::open_append(&wal_path).map_err(storage_err)?;

        if report.replayed > 0 || report.repaired {
            let m = metrics::global();
            m.counter_add("nra_wal_recoveries_total", &[], 1);
            m.counter_add("nra_wal_replayed_records_total", &[], report.replayed);
            m.counter_add("nra_wal_dropped_records_total", &[], report.dropped_records);
        }

        let durability = Durability {
            dir,
            records_since_checkpoint: report.replayed,
            wal: wal_writer,
            last_lsn,
            snapshot_lsn,
            checkpoint_every: config.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            io_faults,
            report,
            poisoned: None,
        };
        Ok(Database::assemble(
            catalog,
            last_lsn,
            Some(Mutex::new(durability)),
            Ok(config),
        ))
    }

    /// Whether this database persists mutations (opened via
    /// [`Database::open`] rather than created in memory).
    pub fn is_durable(&self) -> bool {
        self.shared.durable.is_some()
    }

    /// The recovery report from this handle's [`Database::open`] call
    /// (`None` for in-memory databases).
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.shared
            .durable
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()).report.clone())
    }

    /// Current durability state (`None` for in-memory databases).
    pub fn durability(&self) -> Option<DurabilityInfo> {
        self.shared.durable.as_ref().map(|m| {
            let d = m.lock().unwrap_or_else(|e| e.into_inner());
            DurabilityInfo {
                dir: d.dir.clone(),
                last_lsn: d.last_lsn,
                snapshot_lsn: d.snapshot_lsn,
                wal_bytes: d.wal.len(),
                records_since_checkpoint: d.records_since_checkpoint,
                poisoned: d.poisoned.is_some(),
            }
        })
    }

    /// Write a snapshot of the catalog at the current LSN, install it
    /// atomically, and truncate the write-ahead log. Returns the
    /// snapshot's LSN. Errors on in-memory databases.
    pub fn checkpoint(&self) -> Result<u64, NraError> {
        let Some(dmx) = &self.shared.durable else {
            return Err(NraError::Storage(StorageError::Io(
                "checkpoint requires a durable database (use Database::open)".into(),
            )));
        };
        // Lock order: catalog (read) before durability.
        let cat = self.catalog();
        let mut d = dmx.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(why) = &d.poisoned {
            return Err(NraError::Storage(StorageError::Io(format!(
                "durability disabled: {why}; reopen the database"
            ))));
        }
        let lsn = d.last_lsn;
        let _faults = d.io_faults.clone().map(iofault::install);
        disk::write_snapshot(&d.dir, &cat, lsn).map_err(storage_err)?;
        // The snapshot is installed; resetting the log is safe even if
        // the process dies first — replay skips lsn ≤ snapshot lsn.
        d.wal.reset().map_err(storage_err)?;
        d.snapshot_lsn = lsn;
        d.records_since_checkpoint = 0;
        disk::sweep_snapshots(&d.dir, lsn);
        metrics::global().counter_add("nra_checkpoints_total", &[], 1);
        Ok(lsn)
    }

    /// Append one record to the WAL and fsync it (no-op for in-memory
    /// databases). Called with the catalog write lock held, *before*
    /// the in-memory apply — write-ahead discipline.
    pub(crate) fn durable_log(&self, rec: &WalRecord) -> Result<(), NraError> {
        let Some(dmx) = &self.shared.durable else {
            return Ok(());
        };
        let mut d = dmx.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(why) = &d.poisoned {
            return Err(NraError::Storage(StorageError::Io(format!(
                "durable mutations disabled: {why}; reopen the database"
            ))));
        }
        let lsn = d.last_lsn + 1;
        let _faults = d.io_faults.clone().map(iofault::install);
        match d.wal.append_sync(lsn, rec) {
            Ok(bytes) => {
                d.last_lsn = lsn;
                d.records_since_checkpoint += 1;
                let m = metrics::global();
                m.counter_add("nra_wal_appends_total", &[], 1);
                m.counter_add("nra_wal_bytes_total", &[], bytes);
                m.counter_add("nra_wal_fsyncs_total", &[], 1);
                Ok(())
            }
            Err(e) => {
                if d.wal.is_poisoned() {
                    d.poisoned = Some(e.to_string());
                }
                Err(storage_err(e))
            }
        }
    }

    /// Take an automatic checkpoint when enough records accumulated.
    /// Called after a durable mutation completes, with no catalog guard
    /// held. Best-effort: a failed checkpoint leaves the log intact and
    /// is retried after the next mutation.
    pub(crate) fn after_durable_mutation(&self) {
        let Some(dmx) = &self.shared.durable else {
            return;
        };
        let due = {
            let d = dmx.lock().unwrap_or_else(|e| e.into_inner());
            d.poisoned.is_none()
                && d.checkpoint_every > 0
                && d.records_since_checkpoint >= d.checkpoint_every
        };
        if due {
            let _ = self.checkpoint();
        }
    }
}
