//! `ingest_recover`: the storage and durable layers as writes beside reads.
//!
//! In-process (there is no SQL `INSERT`). Identical cycles, each starting
//! from a copy of a checkpointed base directory: `Database::open`, a fixed
//! number of `insert("lineitem", 25 rows)` calls (one WAL record and one
//! fsync each) with a `q1` read after every quarter of them, drop, a timed
//! `Database::open` (snapshot plus the WAL tail), a check that the row
//! count and the `q1` answer equal their values before the drop, and a
//! timed `checkpoint()`.
//!
//! Every insert bumps the schema version and purges the plan cache, so
//! every read parses, binds and plans again, and a cache or catalog-lock
//! change that helps `point_floor` but costs writers shows here.
//!
//! The directory must live inside the checkout, so on a real device:
//! there a 25-row insert is ~95% fsync, and this sandbox's fsync drifts by
//! 2x within seconds. The end-to-end numbers are therefore taken over the
//! operations the device does not dominate — reads beside writes and
//! recovery (both served from memory and the page cache) — while insert
//! and checkpoint times are reported beside them, unbounded, and the
//! device's own cost as `wal.fsync_disk_us`.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nra::storage::rng::Pcg32;
use nra::storage::wal::{self, WalRecord, WalWriter};
use nra::storage::{disk, Catalog, Tuple, Value};
use nra::Database;

use crate::common::{copy_dir, Phase, ScratchDir, Sizes, READS_PER_CYCLE, ROWS_PER_INSERT};
use crate::data::{self, Expected};
use crate::trace::Tracer;

/// Operation classes of a cycle. The first [`TIMED_CLASSES`] carry the
/// end-to-end numbers.
pub const INGEST_CLASSES: [&str; 4] = ["read", "recover", "insert", "checkpoint"];
pub const TIMED_CLASSES: usize = 2;
const READ: usize = 0;
const RECOVER: usize = 1;
const INSERT: usize = 2;
const CHECKPOINT: usize = 3;
const TABLE: &str = "lineitem";

pub struct Ingest {
    scratch: ScratchDir,
    /// The generated catalog the base directory was checkpointed from.
    pub cat: Catalog,
    pub q1: String,
    sizes: Sizes,
    /// Column positions in `lineitem`.
    cols: LineitemCols,
    orders: i64,
    /// Next unused `l_linenumber`, so generated rows never repeat a key.
    next_line: i64,
}

struct LineitemCols {
    orderkey: usize,
    linenumber: usize,
    price: usize,
}

/// What one cycle measured beyond the per-operation latencies.
pub struct Cycle {
    pub inserts: u64,
    /// Wall time of the insert phase, reads included.
    pub insert_phase_s: f64,
    /// The slowest insert (the auto-checkpoint stall, when one fired).
    pub stall_ms: f64,
    pub replayed: u64,
}

/// The in-process twins the traced replay runs each write against.
pub struct Twins {
    wal: WalWriter,
    lsn: u64,
    mem: Database,
}

fn to_io(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Generate the data and checkpoint it into a base directory.
pub fn setup(seed: u64, sizes: Sizes, out: &Path) -> io::Result<Ingest> {
    let cat = data::tpch_catalog(sizes.ingest_scale, seed);
    let scratch = ScratchDir::create(out, "ingest")?;
    let base = scratch.0.join("base");
    let db = Database::open(&base).map_err(to_io)?;
    for name in cat.table_names() {
        db.add_table(cat.table(name).expect("listed table exists").clone())
            .map_err(to_io)?;
    }
    db.checkpoint().map_err(to_io)?;
    drop(db);

    let q1 = nra::tpch::q1_sql(&cat, (16_000.0 * sizes.ingest_scale).round() as usize);
    let lineitem = cat.table(TABLE).map_err(to_io)?;
    let col = |name: &str| lineitem.schema().resolve(name).map_err(to_io);
    let cols = LineitemCols {
        orderkey: col("l_orderkey")?,
        linenumber: col("l_linenumber")?,
        price: col("l_extendedprice")?,
    };
    let next_line = lineitem.len() as i64 + 1;
    let orders = cat.table("orders").map_err(to_io)?.len() as i64;
    Ok(Ingest {
        scratch,
        cat,
        q1,
        sizes,
        cols,
        orders,
        next_line,
    })
}

impl Ingest {
    pub fn base_dir(&self) -> PathBuf {
        self.scratch.0.join("base")
    }

    pub fn work_dir(&self) -> PathBuf {
        self.scratch.0.join("work")
    }

    pub fn scratch_dir(&self) -> &Path {
        &self.scratch.0
    }

    /// One insert's rows: existing line items re-keyed to a random order
    /// with a fresh line number and price (2% NULL, like the generated
    /// data), so `q1`'s answer moves as the cycle proceeds.
    pub fn make_rows(&mut self, rng: &mut Pcg32) -> Vec<Tuple> {
        let Ingest {
            cat,
            cols,
            orders,
            next_line,
            ..
        } = self;
        let templates = cat.table(TABLE).expect("lineitem exists").data().rows();
        (0..ROWS_PER_INSERT)
            .map(|_| {
                let mut row = templates[rng.index(templates.len())].clone();
                row[cols.orderkey] = Value::Int(rng.range_incl_i64(1, *orders));
                row[cols.linenumber] = Value::Int(*next_line);
                *next_line += 1;
                row[cols.price] = if rng.bool(0.02) {
                    Value::Null
                } else {
                    Value::Decimal(rng.range_i64(90_000, 10_000_000))
                };
                row
            })
            .collect()
    }

    pub fn twins(&self) -> io::Result<Twins> {
        Ok(Twins {
            wal: WalWriter::open_append(&self.scratch.0.join("twin-wal.log")).map_err(to_io)?,
            lsn: 0,
            mem: Database::from_catalog(self.cat.clone()),
        })
    }

    /// Run one cycle of `n` inserts; `trace` replays each write against
    /// the [`Twins`].
    pub fn cycle(
        &mut self,
        cycle_no: u64,
        n: usize,
        rng: &mut Pcg32,
        phase: &mut Phase,
        mut trace: Option<(&mut Tracer, &mut Twins)>,
    ) -> io::Result<Cycle> {
        let work = self.work_dir();
        copy_dir(&self.base_dir(), &work)?;
        let read_every = (n / READS_PER_CYCLE).max(1);
        let base_rows = self.cat.table(TABLE).map_err(to_io)?.len();

        let db = Database::open(&work).map_err(to_io)?;
        let session = db.connect();
        let mut last_read_rows = usize::MAX;
        let mut stall_ms: f64 = 0.0;
        let insert_phase = Instant::now();
        for i in 1..=n {
            let req = cycle_no * 1_000_000 + i as u64;
            let rows = self.make_rows(rng);
            let twin_rows = trace.is_some().then(|| rows.clone());
            let start = Instant::now();
            let result = match &mut trace {
                Some((tracer, _)) => tracer.span(req, "durable.insert", || db.insert(TABLE, rows)),
                None => db.insert(TABLE, rows),
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            phase.attempted += 1;
            match result {
                Ok(()) => {
                    phase.classes[INSERT].1.push(ms);
                    stall_ms = stall_ms.max(ms);
                }
                Err(e) => phase.fail(format!("insert {i}: {e}")),
            }
            if let (Some((tracer, twins)), Some(rows)) = (&mut trace, twin_rows) {
                twins.lsn += 1;
                let rec = WalRecord::Insert {
                    table: TABLE.to_string(),
                    rows: rows.clone(),
                };
                let lsn = twins.lsn;
                tracer
                    .span(req, "wal.append", || twins.wal.append_sync(lsn, &rec))
                    .map_err(to_io)?;
                tracer
                    .span(req, "storage.insert", || twins.mem.insert(TABLE, rows))
                    .map_err(to_io)?;
            }
            if i % read_every == 0 {
                let start = Instant::now();
                let out = session.execute(&self.q1);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                phase.attempted += 1;
                match out {
                    // More line items can only knock orders out of a
                    // `> ALL` answer.
                    Ok(out) if out.rows.len() <= last_read_rows => {
                        last_read_rows = out.rows.len();
                        phase.classes[READ].1.push(ms);
                    }
                    Ok(out) => phase.fail(format!(
                        "read after insert {i}: answer grew from {last_read_rows} to {} rows",
                        out.rows.len()
                    )),
                    Err(e) => phase.fail(format!("read after insert {i}: {e}")),
                }
            }
        }
        let insert_phase_s = insert_phase.elapsed().as_secs_f64();

        let before = committed_state(&db, &self.q1)?;
        drop(session);
        drop(db);

        let open_req = cycle_no * 1_000_000;
        let start = Instant::now();
        let reopened = match &mut trace {
            Some((tracer, _)) => tracer.span(open_req, "durable.open", || Database::open(&work)),
            None => Database::open(&work),
        };
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        phase.attempted += 1;
        let db = reopened.map_err(to_io)?;
        phase.classes[RECOVER].1.push(recover_ms);
        let replayed = db.recovery().map_or(0, |r| r.replayed);
        let after = committed_state(&db, &self.q1)?;
        let want_rows = base_rows + n * ROWS_PER_INSERT;
        if after != before || after.0 != want_rows {
            phase.fail(format!(
                "cycle {cycle_no}: recovered {} rows (digest match: {}), committed {} rows, expected {want_rows}",
                after.0,
                after.1 == before.1,
                before.0
            ));
        } else if cycle_no == 1 && data::expected_answer(&self.q1, &db.catalog()) != after.1 {
            phase.fail(format!(
                "cycle {cycle_no}: q1 differs from the oracle after recovery"
            ));
        }
        if let Some((tracer, _)) = &mut trace {
            tracer
                .span(open_req, "disk.load_snapshot", || {
                    disk::load_latest_snapshot(&work)
                })
                .map_err(to_io)?;
            tracer
                .span(open_req, "wal.replay", || {
                    wal::replay(&work.join("wal.log"))
                })
                .map_err(to_io)?;
        }

        let start = Instant::now();
        let checkpoint = db.checkpoint();
        let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        phase.attempted += 1;
        match checkpoint {
            Ok(_) => phase.classes[CHECKPOINT].1.push(checkpoint_ms),
            Err(e) => phase.fail(format!("cycle {cycle_no}: checkpoint: {e}")),
        }
        drop(db);
        if let Some((_, twins)) = &mut trace {
            twins.wal.reset().map_err(to_io)?;
        }
        Ok(Cycle {
            inserts: n as u64,
            insert_phase_s,
            stall_ms,
            replayed,
        })
    }

    /// Whole cycles until `seconds` have passed.
    pub fn measure(
        &mut self,
        seed: u64,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<(Phase, Vec<Cycle>)> {
        let mut phase = Phase::with_classes(&INGEST_CLASSES);
        let mut rng = Pcg32::new(seed);
        let mut twins = match tracer {
            Some(_) => Some(self.twins()?),
            None => None,
        };
        let mut cycles = Vec::new();
        let window = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        while cycles.is_empty() || start.elapsed() < window {
            let trace = match (&mut tracer, &mut twins) {
                (Some(t), Some(tw)) => Some((&mut **t, tw)),
                _ => None,
            };
            let no = cycles.len() as u64 + 1;
            let n = self.sizes.inserts_per_cycle;
            cycles.push(self.cycle(no, n, &mut rng, &mut phase, trace)?);
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        Ok((phase, cycles))
    }
}

/// `(lineitem rows, q1 answer)` as the database holds them now.
fn committed_state(db: &Database, q1: &str) -> io::Result<(usize, Expected)> {
    let rows = db.catalog().table(TABLE).map_err(to_io)?.len();
    let answer = db.connect().execute(q1).map_err(to_io)?;
    Ok((rows, data::digest_relation(&answer.rows)))
}
