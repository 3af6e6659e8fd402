//! Hostile files: whole buffers of seeded random bytes, not derived from
//! a valid file, written as `wal.log` or as `snapshot-1.nra` and opened
//! through `Database::open`. Each open is `Ok` with a torn-tail report or
//! a structured `EngineError::Corruption` naming the file; none panics,
//! and none reserves memory out of proportion to the file.
//!
//! The buffers come in three shapes, each reaching one layer deeper into
//! the decoders: raw bytes (the magic check), the right magic followed by
//! raw bytes (framing, lengths and checksums), and well-framed records or
//! snapshot bodies with valid checksums over random payloads (the record
//! and table decoders themselves).
//!
//! One `#[test]` only: this binary owns an allocator that records the
//! largest single request, and no other test thread may allocate while an
//! open is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use nra::engine::EngineError;
use nra::storage::checksum::crc32;
use nra::storage::rng::Pcg32;
use nra::{Database, NraError};

/// Records the largest block requested by `alloc`, `alloc_zeroed` or
/// `realloc` since [`LARGEST`] was last reset.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

const SEEDS: u64 = 300;

const WAL_MAGIC: &[u8] = b"NRAWAL01";
const SNAPSHOT_MAGIC: &[u8] = b"NRASNAP1";

/// The largest single request an open of a `len`-byte file may make: a
/// decoder reserves at most one element per byte left, and an element
/// (a `Value`, a column) is a few dozen bytes; the rest is the
/// database's own fixed-size state.
fn allowance(len: usize) -> usize {
    64 * len + (64 << 10)
}

fn random_bytes(rng: &mut Pcg32, max: usize) -> Vec<u8> {
    let len = 1 + rng.index(max);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

/// Random payload a decoder can walk into: a run of small `u32`s (short
/// string lengths, small counts and tags), random `u32`s (huge counts)
/// and single random bytes. Pure random bytes rarely get past the first
/// string length.
fn random_fields(rng: &mut Pcg32) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..1 + rng.index(48) {
        match rng.index(3) {
            0 => out.extend((rng.index(4) as u32).to_le_bytes()),
            1 => out.extend(rng.next_u32().to_le_bytes()),
            _ => out.push(rng.next_u32() as u8),
        }
    }
    out
}

/// A log of one to three checksummed records (consecutive LSNs, a known
/// or random kind byte) over [`random_fields`].
fn framed_log(rng: &mut Pcg32) -> Vec<u8> {
    let mut out = WAL_MAGIC.to_vec();
    for lsn in 1..=1 + rng.index(3) as u64 {
        let mut body = lsn.to_le_bytes().to_vec();
        let kinds = [1, 2, 3, rng.next_u32() as u8];
        body.push(*rng.choose(&kinds));
        body.extend(random_fields(rng));
        out.extend((body.len() as u32).to_le_bytes());
        out.extend(crc32(&body).to_le_bytes());
        out.extend(body);
    }
    out
}

/// A checksummed snapshot body: format version 1, LSN 1, a small table
/// count, then [`random_fields`].
fn framed_snapshot(rng: &mut Pcg32) -> Vec<u8> {
    let mut body = 1u32.to_le_bytes().to_vec();
    body.extend(1u64.to_le_bytes());
    body.extend((rng.index(3) as u32).to_le_bytes());
    body.extend(random_fields(rng));
    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend(crc32(&body).to_le_bytes());
    out.extend(body);
    out
}

/// One buffer of the seed's shape for the file `magic` names.
fn buffer(rng: &mut Pcg32, magic: &[u8]) -> Vec<u8> {
    match rng.index(3) {
        0 => random_bytes(rng, 256),
        1 => [magic, &random_bytes(rng, 256)].concat(),
        _ if magic == WAL_MAGIC => framed_log(rng),
        _ => framed_snapshot(rng),
    }
}

/// How one open ended.
#[derive(Debug, Default)]
struct Outcomes {
    torn: usize,
    corrupt: usize,
}

/// Write `bytes` as `file` in a fresh `dir`, open it, and check the
/// outcome and the largest allocation the open made.
fn open_hostile(dir: &Path, file: &str, bytes: &[u8], what: &str, seen: &mut Outcomes) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(file), bytes).unwrap();
    LARGEST.store(0, Ordering::Relaxed);
    let opened = std::panic::catch_unwind(|| Database::open(dir))
        .unwrap_or_else(|_| panic!("{what}: the open panicked"));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= allowance(bytes.len()),
        "{what}: a {}-byte file made a {largest}-byte request",
        bytes.len()
    );
    match opened {
        Ok(db) => {
            let report = db.recovery().unwrap();
            assert!(
                report.repaired,
                "{what}: opened without a torn tail: {report:?}"
            );
            seen.torn += 1;
        }
        Err(NraError::Engine(EngineError::Corruption { file: named, .. })) => {
            assert_eq!(named, file, "{what}");
            seen.corrupt += 1;
        }
        Err(e) => panic!("{what}: expected a torn tail or corruption, got {e:?}"),
    }
}

#[test]
fn random_wal_and_snapshot_bytes_are_a_torn_tail_or_corruption() {
    let dir = std::env::temp_dir().join(format!("nra-hostile-{}", std::process::id()));
    let mut wal = Outcomes::default();
    let mut snapshot = Outcomes::default();
    for seed in 0..SEEDS {
        let mut rng = Pcg32::new(seed);
        let bytes = buffer(&mut rng, WAL_MAGIC);
        open_hostile(
            &dir,
            "wal.log",
            &bytes,
            &format!("wal seed {seed}"),
            &mut wal,
        );
        let bytes = buffer(&mut rng, SNAPSHOT_MAGIC);
        let what = format!("snapshot seed {seed}");
        open_hostile(&dir, "snapshot-1.nra", &bytes, &what, &mut snapshot);
    }
    let _ = std::fs::remove_dir_all(&dir);
    // The seeds reach both outcomes of the log, and the snapshot's only one.
    assert!(wal.torn > 0 && wal.corrupt > 0, "{wal:?}");
    assert_eq!(snapshot.corrupt, SEEDS as usize, "{snapshot:?}");
}
