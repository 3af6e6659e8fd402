//! Allocation budget: a deterministic work counter beside the wall-time
//! benchmark.
//!
//! Wall time on a shared machine moves by tens of percent between runs;
//! the number of heap allocations a query makes repeats exactly. This
//! binary owns a counting global allocator, runs the six benchmark
//! classes on a warm session (plan cache hit) under `Auto` and the two
//! forced §5 series (`Optimized`, `Original`), counts one recovery
//! (`Database::open` over a snapshot plus logged inserts), and checks
//! each count against the committed ceiling below with 2 % slack.
//!
//! One `#[test]` only, so no other test thread allocates while a query is
//! being counted. A change that lowers a count lowers its ceiling in the
//! same change; raising a ceiling is a regression that needs a reason.
//!
//! ```sh
//! cargo test --test work_budget -- --nocapture   # prints every count
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nra::storage::disk::write_snapshot;
use nra::storage::wal::{WalRecord, WalWriter};
use nra::{Database, Engine, QueryOptions, Strategy};
use nra_tpch::{
    generate, q1_agg_sql, q1_sql, q2_sql, q3_sql, ExistsKind, Q3Corr, Quant, TpchConfig,
};

/// Counts every call that hands out a block (`alloc`, `alloc_zeroed`,
/// `realloc`); frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Scale of the generated TPC-H data (1.0 is the benchmark's).
const SCALE: f64 = 0.05;

/// Allowed growth over a ceiling before the test fails.
const SLACK: f64 = 0.02;

/// Committed ceilings: `(class, [Auto, Optimized, Original])`.
const CEILINGS: [(&str, [u64; 3]); 6] = [
    ("q1", [3_655, 5_162, 13_134]),
    ("q2a", [7_266, 19_048, 54_619]),
    ("q2b", [11_013, 22_847, 68_292]),
    ("q3b", [24_271, 24_271, 76_473]),
    ("q3c", [7_357, 16_209, 29_356]),
    ("q1agg", [2_323, 3_830, 8_474]),
];

const ENGINES: [Strategy; 3] = [Strategy::Auto, Strategy::Optimized, Strategy::Original];

/// Logged `INSERT` records, of [`ROWS_PER_RECORD`] line items each, that
/// recovery replays on top of the snapshot.
const RECORDS: usize = 100;
const ROWS_PER_RECORD: usize = 25;

/// Committed ceiling for one `Database::open` of that directory.
const RECOVERY_CEILING: u64 = 339;

/// Allocations of one `Database::open` over a snapshot of `cat` plus
/// [`RECORDS`] logged inserts of rows copied from its `lineitem`.
fn recovery_allocations(cat: &nra::storage::Catalog) -> u64 {
    let dir = std::env::temp_dir().join(format!("nra-work-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_snapshot(&dir, cat, 1).unwrap();
    let lineitem = cat.table("lineitem").unwrap();
    let mut wal = WalWriter::open_append(&dir.join("wal.log")).unwrap();
    for i in 0..RECORDS {
        let rows = (0..ROWS_PER_RECORD)
            .map(|j| lineitem.row((i * ROWS_PER_RECORD + j) % lineitem.len()))
            .collect();
        let rec = WalRecord::Insert {
            table: "lineitem".into(),
            rows,
        };
        wal.append_sync(i as u64 + 2, &rec).unwrap();
    }
    drop(wal);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let db = Database::open(&dir).expect("recovery opens");
    let count = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(db.recovery().unwrap().replayed, RECORDS as u64);
    assert_eq!(
        db.catalog().table("lineitem").unwrap().len(),
        lineitem.len() + RECORDS * ROWS_PER_RECORD
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    count
}

#[test]
fn warm_queries_stay_within_their_allocation_ceilings() {
    // The ceilings are for the default configuration. CI runs the suite
    // under knobs (batch width, metrics sink, slow log, ...) that change
    // the work a query does, so they are cleared before the database reads
    // its configuration; nothing else in this binary reads them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NRA_") {
            std::env::remove_var(key);
        }
    }
    let cat = generate(&TpchConfig::scaled(SCALE).with_seed(7).nullable_links(0.02));
    let size = |n: f64| ((n * SCALE).round() as usize).max(4);
    let (outer, part, partsupp) = (size(16_000.0), size(48_000.0), size(16_000.0));
    let classes = [
        q1_sql(&cat, outer),
        q2_sql(&cat, Quant::Any, part, partsupp),
        q2_sql(&cat, Quant::All, part, partsupp),
        q3_sql(
            &cat,
            Quant::All,
            ExistsKind::NotExists,
            Q3Corr::NeEq,
            part,
            partsupp,
        ),
        q3_sql(
            &cat,
            Quant::Any,
            ExistsKind::Exists,
            Q3Corr::EqNe,
            part,
            partsupp,
        ),
        q1_agg_sql(&cat, outer),
    ];
    let mut over = Vec::new();
    let count = recovery_allocations(&cat);
    println!("recovery: {count:>8} allocation(s)");
    if count as f64 > RECOVERY_CEILING as f64 * (1.0 + SLACK) {
        over.push(format!("recovery: {count} > ceiling {RECOVERY_CEILING}"));
    }

    let db = Database::from_catalog(cat);
    let session = db.connect();

    for ((class, ceilings), sql) in CEILINGS.iter().zip(&classes) {
        for (strategy, &ceiling) in ENGINES.iter().zip(ceilings) {
            let opts = QueryOptions::new().engine(Engine::NestedRelational(*strategy));
            // The first call parses, binds and caches the plan.
            session.execute_with(sql, &opts).expect("class runs");
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let out = session.execute_with(sql, &opts).expect("class runs");
            let count = ALLOCATIONS.load(Ordering::SeqCst) - before;
            drop(out);
            println!(
                "{class:>6} {:>10}: {count:>8} allocation(s)",
                strategy.name()
            );
            if count as f64 > ceiling as f64 * (1.0 + SLACK) {
                over.push(format!(
                    "{class} {}: {count} > ceiling {ceiling}",
                    strategy.name()
                ));
            }
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:#?}");
}
