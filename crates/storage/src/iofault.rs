//! Deterministic I/O fault injection for the durability layer.
//!
//! The engine-side harness (`nra_engine::faultinject`) covers in-memory
//! operator sites; this module covers the storage-side I/O sites that the
//! crash-recovery harness exercises. It shares the `NRA_FAULT` grammar —
//! `site:nth[:kind[:ms]]`, comma-separated, parsed once by
//! `nra_engine::config` — with its own site and kind vocabulary:
//!
//! * sites: `wal-append`, `wal-fsync`, `checkpoint-write`,
//!   `snapshot-rename`
//! * kinds: `short-write` (a prefix of the buffer reaches disk), `crash`
//!   (the process "dies" before the bytes land), `io-error` (a transient
//!   failure with no on-disk effect), `delay` (sleep `ms`, then succeed)
//!
//! One `NRA_FAULT` value can arm both harnesses: each is built from the
//! entries naming its sites. Plans are armed thread-locally via
//! [`install`] — by tests directly, and by a durable `Database` around
//! each of its writes when its `Config` carries I/O entries — so
//! parallel tests cannot see each other's faults.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault site: appending a record to the write-ahead log.
pub const WAL_APPEND: &str = "wal-append";
/// Fault site: fsyncing the write-ahead log after an append.
pub const WAL_FSYNC: &str = "wal-fsync";
/// Fault site: writing the temporary snapshot file during a checkpoint.
pub const CHECKPOINT_WRITE: &str = "checkpoint-write";
/// Fault site: atomically renaming the snapshot into place.
pub const SNAPSHOT_RENAME: &str = "snapshot-rename";

/// All storage-side I/O fault sites.
pub const IO_SITES: [&str; 4] = [WAL_APPEND, WAL_FSYNC, CHECKPOINT_WRITE, SNAPSHOT_RENAME];

/// What an armed I/O fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// Only a prefix of the buffer reaches disk, then the writer fails.
    ShortWrite,
    /// The simulated process dies before the bytes are written.
    Crash,
    /// A transient I/O error with no on-disk effect.
    IoError,
    /// Sleep for the given milliseconds, then proceed normally.
    Delay(u64),
}

/// The observable failure returned to the I/O call site when a fault
/// fires ([`IoFaultKind::Delay`] sleeps inside [`hit`] and never
/// surfaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFailure {
    ShortWrite,
    Crash,
    IoError,
}

#[derive(Debug)]
struct IoSpec {
    site: String,
    nth: u64,
    kind: IoFaultKind,
    hits: AtomicU64,
}

/// A set of armed I/O faults; fires each spec exactly once, on the
/// `nth` time its site is reached.
#[derive(Debug, Default)]
pub struct IoFaultPlan {
    specs: Vec<IoSpec>,
}

impl IoFaultPlan {
    pub fn push(&mut self, site: &str, nth: u64, kind: IoFaultKind) {
        self.specs.push(IoSpec {
            site: site.to_string(),
            nth: nth.max(1),
            kind,
            hits: AtomicU64::new(0),
        });
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    fn observe(&self, site: &str) -> Option<IoFailure> {
        for spec in &self.specs {
            if spec.site != site {
                continue;
            }
            let n = spec.hits.fetch_add(1, Ordering::SeqCst) + 1;
            if n != spec.nth {
                continue;
            }
            match spec.kind {
                IoFaultKind::ShortWrite => return Some(IoFailure::ShortWrite),
                IoFaultKind::Crash => return Some(IoFailure::Crash),
                IoFaultKind::IoError => return Some(IoFailure::IoError),
                IoFaultKind::Delay(ms) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    return None;
                }
            }
        }
        None
    }
}

// Ambient by design: `disk::write_snapshot(dir, catalog, lsn)` and the
// WAL writer take no fault-plan parameter, so the crash matrix reaches
// their I/O sites through this thread's slot.
thread_local! {
    static LOCAL: RefCell<Option<Arc<IoFaultPlan>>> = const { RefCell::new(None) };
}

/// Arm `plan` for the current thread; the previously armed plan (if
/// any) is restored when the guard drops.
pub fn install(plan: impl Into<Arc<IoFaultPlan>>) -> IoFaultGuard {
    IoFaultGuard {
        prev: LOCAL.with(|l| l.borrow_mut().replace(plan.into())),
    }
}

/// RAII guard returned by [`install`].
#[derive(Debug)]
pub struct IoFaultGuard {
    prev: Option<Arc<IoFaultPlan>>,
}

impl Drop for IoFaultGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
    }
}

/// Probe an I/O fault site against the plan armed on this thread.
/// Returns the failure to simulate, or `None` to proceed normally.
pub fn hit(site: &str) -> Option<IoFailure> {
    LOCAL
        .with(|l| l.borrow().clone())
        .and_then(|p| p.observe(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_counting_fires_once() {
        let mut plan = IoFaultPlan::default();
        plan.push(WAL_APPEND, 2, IoFaultKind::IoError);
        assert_eq!(plan.observe(WAL_APPEND), None);
        assert_eq!(plan.observe(WAL_APPEND), Some(IoFailure::IoError));
        assert_eq!(plan.observe(WAL_APPEND), None);
        assert_eq!(plan.observe(WAL_FSYNC), None);
    }

    #[test]
    fn install_is_thread_local() {
        let mut plan = IoFaultPlan::default();
        plan.push(WAL_FSYNC, 1, IoFaultKind::Crash);
        let guard = install(plan);
        assert_eq!(hit(WAL_FSYNC), Some(IoFailure::Crash));
        let other = std::thread::spawn(|| hit(WAL_FSYNC)).join().unwrap();
        assert_eq!(other, None);
        drop(guard);
        assert_eq!(hit(WAL_FSYNC), None);
    }
}
