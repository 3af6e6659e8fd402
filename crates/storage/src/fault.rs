//! Deterministic fault injection at named sites: one harness for the
//! operator sites a query passes and the I/O sites a durable write
//! passes.
//!
//! An entry `site:nth[:kind[:ms]]` fires `kind` on the `nth` (1-based)
//! pass through `site`; `NRA_FAULT` is a comma-separated list of them,
//! read by [`parse`]. The [`SITES`] registry says which kinds each site
//! accepts and which it defaults to. `delay` sleeps `ms` (default 10)
//! inside [`hit`]; every other kind is acted on by the site: operator
//! sites through `nra_engine::faultinject`, I/O sites in `wal` / `disk`.
//!
//! [`install`] arms a [`FaultPlan`] on the current thread: the query
//! lifecycle a fresh plan per query, a durable database one plan for its
//! lifetime around each of its writes, tests their own. Operator sites
//! never run inside a durable write and I/O sites never inside a query,
//! so one entry list serves both.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Operator site: hash-join build-table materialization.
pub const JOIN_BUILD: &str = "join-build";
/// Operator site: nest (`υ`) group-buffer flush, every variant.
pub const NEST_FLUSH: &str = "nest-flush";
/// Operator site: linking / pseudo-selection scan start, fused included.
pub const LINKING_SCAN: &str = "linking-scan";
/// I/O site: appending a record to the write-ahead log.
pub const WAL_APPEND: &str = "wal-append";
/// I/O site: fsyncing the write-ahead log after an append.
pub const WAL_FSYNC: &str = "wal-fsync";
/// I/O site: writing the temporary snapshot file during a checkpoint.
pub const CHECKPOINT_WRITE: &str = "checkpoint-write";
/// I/O site: atomically renaming the snapshot into place.
pub const SNAPSHOT_RENAME: &str = "snapshot-rename";

/// The operator sites, for test matrices.
pub const OPERATOR_SITES: [&str; 3] = [JOIN_BUILD, NEST_FLUSH, LINKING_SCAN];
/// The I/O sites, for test matrices.
pub const IO_SITES: [&str; 4] = [WAL_APPEND, WAL_FSYNC, CHECKPOINT_WRITE, SNAPSHOT_RENAME];

/// What an armed fault does when its site is passed for the `nth` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Operator sites: a synthetic allocation failure.
    AllocFail,
    /// Operator sites: a panic, for the statement-level net to catch.
    Panic,
    /// Sleep for the given milliseconds, then proceed normally.
    Delay(u64),
    /// I/O sites: a prefix of the buffer reaches disk, then the write fails.
    ShortWrite,
    /// I/O sites: the simulated process dies before the bytes land.
    Crash,
    /// I/O sites: a transient error with no on-disk effect.
    IoError,
}

impl FaultKind {
    /// The kind's name in the `NRA_FAULT` grammar.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::AllocFail => "alloc",
            FaultKind::Panic => "panic",
            FaultKind::Delay(_) => "delay",
            FaultKind::ShortWrite => "short-write",
            FaultKind::Crash => "crash",
            FaultKind::IoError => "io-error",
        }
    }
}

/// One entry of the site registry.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    pub name: &'static str,
    /// The kinds the site accepts, by name, in the order error messages
    /// list them.
    pub kinds: &'static [&'static str],
    /// The kind of an entry that names none.
    pub default: FaultKind,
}

const fn operator(name: &'static str) -> Site {
    Site {
        name,
        kinds: &["alloc", "panic", "delay"],
        default: FaultKind::Panic,
    }
}

const fn io(name: &'static str) -> Site {
    Site {
        name,
        kinds: &["short-write", "crash", "io-error", "delay"],
        default: FaultKind::IoError,
    }
}

/// The site registry: every fault site, what it accepts, and its default.
pub const SITES: [Site; 7] = [
    operator(JOIN_BUILD),
    operator(NEST_FLUSH),
    operator(LINKING_SCAN),
    io(WAL_APPEND),
    io(WAL_FSYNC),
    io(CHECKPOINT_WRITE),
    io(SNAPSHOT_RENAME),
];

/// Milliseconds a `delay` fault sleeps when the entry gives none.
const DEFAULT_DELAY_MS: u64 = 10;

/// One fault entry: fire `kind` on the `nth` (1-based) pass through
/// `site`. Displays in the `NRA_FAULT` grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    pub site: String,
    pub nth: u64,
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.site, self.nth, self.kind.name())?;
        match self.kind {
            FaultKind::Delay(ms) => write!(f, ":{ms}"),
            _ => Ok(()),
        }
    }
}

impl Fault {
    /// Check the entry against the registry; the error (naming the
    /// entry) is the detail of a configuration error.
    pub fn check(&self) -> Result<(), String> {
        let name = Some(self.kind.name());
        kind(&self.to_string(), site(&self.site)?, name, 0).map(drop)
    }
}

/// The registry entry named `name`.
fn site(name: &str) -> Result<&'static Site, String> {
    SITES.iter().find(|s| s.name == name).ok_or_else(|| {
        let known: Vec<&str> = SITES.iter().map(|s| s.name).collect();
        format!("unknown fault site `{name}` (known: {})", known.join(", "))
    })
}

/// The kind `entry` arms at site `s`: the one `named` (a `delay` sleeps
/// `ms`), or the site's default when none is named.
fn kind(entry: &str, s: &Site, named: Option<&str>, ms: u64) -> Result<FaultKind, String> {
    let Some(name) = named else {
        return Ok(s.default);
    };
    [
        FaultKind::AllocFail,
        FaultKind::Panic,
        FaultKind::Delay(ms),
        FaultKind::ShortWrite,
        FaultKind::Crash,
        FaultKind::IoError,
    ]
    .into_iter()
    .find(|k| k.name() == name && s.kinds.contains(&name))
    .ok_or_else(|| {
        format!(
            "entry `{entry}`: unknown fault kind `{name}` at site `{}` (known: {})",
            s.name,
            s.kinds.join(", ")
        )
    })
}

/// Parse the `NRA_FAULT` grammar — comma-separated
/// `site:nth[:kind[:ms]]` — strictly: unknown sites, kinds the site does
/// not accept, non-integer counts and stray fields are errors (the
/// returned string is the detail of a configuration error). Only
/// `delay` takes the milliseconds field.
pub fn parse(spec: &str) -> Result<Vec<Fault>, String> {
    let mut faults = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').map(str::trim).collect();
        if parts.len() > 4 {
            return Err(format!("entry `{entry}` has too many `:` fields"));
        }
        let s = site(parts[0])?;
        let Some(nth) = parts.get(1) else {
            return Err(format!("entry `{entry}` is missing the `nth` field"));
        };
        let nth = nth
            .parse::<u64>()
            .map_err(|_| format!("entry `{entry}`: `nth` must be an integer, got `{nth}`"))?;
        let named = parts.get(2).copied();
        let ms = match parts.get(3) {
            None => DEFAULT_DELAY_MS,
            Some(_) if named != Some("delay") => {
                return Err(format!(
                    "entry `{entry}`: only `delay` takes a milliseconds field"
                ));
            }
            Some(ms) => ms.parse::<u64>().map_err(|_| {
                format!("entry `{entry}`: milliseconds must be an integer, got `{ms}`")
            })?,
        };
        faults.push(Fault {
            site: s.name.to_string(),
            nth,
            kind: kind(entry, s, named, ms)?,
        });
    }
    Ok(faults)
}

/// A set of armed faults; each fires exactly once, on the `nth` pass
/// through its site, counted over the plan's lifetime.
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<(Fault, AtomicU64)>,
}

impl FaultPlan {
    /// A plan arming every entry of `faults`.
    pub fn new(faults: &[Fault]) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for f in faults {
            plan.push(f.site.clone(), f.nth, f.kind);
        }
        plan
    }

    /// Arm `kind` on the `nth` (1-based; 0 is treated as 1) pass through
    /// `site`. Unchecked: callers building plans from user input check
    /// each [`Fault`] first.
    pub fn push(&mut self, site: impl Into<String>, nth: u64, kind: FaultKind) {
        let fault = Fault {
            site: site.into(),
            nth: nth.max(1),
            kind,
        };
        self.specs.push((fault, AtomicU64::new(0)));
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Count one pass through `site`: sleep for every `delay` whose turn
    /// it is, and return the first other kind whose turn it is, with its
    /// pass number.
    fn observe(&self, site: &str) -> Option<(FaultKind, u64)> {
        for (fault, hits) in &self.specs {
            if fault.site != site {
                continue;
            }
            let n = hits.fetch_add(1, Ordering::Relaxed) + 1;
            match fault.kind {
                _ if n != fault.nth => {}
                FaultKind::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
                kind => return Some((kind, n)),
            }
        }
        None
    }
}

// Ambient by design: the I/O sites sit below the engine
// (`disk::write_snapshot(dir, catalog, lsn)` and the WAL writer take no
// plan parameter, and callers outside the database use them too), so
// every site reaches its plan through this thread's slot.
thread_local! {
    static SLOT: RefCell<Option<Arc<FaultPlan>>> = const { RefCell::new(None) };
}

/// Arm `plan` on the current thread; the previously armed plan (if any)
/// is restored when the guard drops.
pub fn install(plan: impl Into<Arc<FaultPlan>>) -> FaultGuard {
    FaultGuard {
        prev: SLOT.with(|s| s.borrow_mut().replace(plan.into())),
    }
}

/// RAII guard returned by [`install`].
#[must_use = "dropping the guard immediately disarms the plan"]
#[derive(Debug)]
pub struct FaultGuard {
    prev: Option<Arc<FaultPlan>>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        SLOT.with(|s| *s.borrow_mut() = self.prev.take());
    }
}

/// Pass through `site` under the plan armed on this thread. `delay`
/// sleeps here and proceeds; any other kind whose turn it is comes back
/// with its pass number for the site to act on. Disarmed, this is one
/// thread-local read.
#[inline]
pub fn hit(site: &str) -> Option<(FaultKind, u64)> {
    SLOT.with(|s| s.borrow().as_ref().and_then(|plan| plan.observe(site)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_counting_fires_once() {
        let mut plan = FaultPlan::default();
        plan.push(WAL_APPEND, 2, FaultKind::IoError);
        assert_eq!(plan.observe(WAL_APPEND), None);
        assert_eq!(plan.observe(WAL_APPEND), Some((FaultKind::IoError, 2)));
        assert_eq!(plan.observe(WAL_APPEND), None);
        assert_eq!(plan.observe(WAL_FSYNC), None);
    }

    #[test]
    fn install_is_thread_local() {
        let mut outer = FaultPlan::default();
        outer.push(JOIN_BUILD, 1, FaultKind::AllocFail);
        let outer = install(outer);
        let mut plan = FaultPlan::default();
        plan.push(WAL_FSYNC, 1, FaultKind::Crash);
        let guard = install(plan);
        assert_eq!(hit(WAL_FSYNC), Some((FaultKind::Crash, 1)));
        let other = std::thread::spawn(|| hit(WAL_FSYNC)).join().unwrap();
        assert_eq!(other, None);
        drop(guard);
        assert_eq!(hit(WAL_FSYNC), None);
        assert_eq!(hit(JOIN_BUILD), Some((FaultKind::AllocFail, 1)));
        drop(outer);
        assert_eq!(hit(JOIN_BUILD), None);
    }

    #[test]
    fn fault_grammar_resolves_every_site_and_kind() {
        let faults = parse(
            "join-build:1:panic, nest-flush:3:alloc,linking-scan:2, linking-scan:1:delay:25, \
             nest-flush:1:delay, wal-append:1:short-write,wal-fsync:2:crash, \
             checkpoint-write:1,snapshot-rename:1:delay:5, ,",
        )
        .unwrap();
        let kinds: Vec<_> = faults.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [
                FaultKind::Panic,
                FaultKind::AllocFail,
                FaultKind::Panic,
                FaultKind::Delay(25),
                FaultKind::Delay(10),
                FaultKind::ShortWrite,
                FaultKind::Crash,
                FaultKind::IoError,
                FaultKind::Delay(5),
            ]
        );
        let nest = Fault {
            site: NEST_FLUSH.into(),
            nth: 3,
            kind: FaultKind::AllocFail,
        };
        assert_eq!(faults[1], nest);
        // Display round-trips through the grammar.
        for f in &faults {
            assert_eq!(parse(&f.to_string()).unwrap(), std::slice::from_ref(f));
        }
    }

    #[test]
    fn check_refuses_what_the_registry_refuses() {
        let fault = |site: &str, kind| Fault {
            site: site.into(),
            nth: 1,
            kind,
        };
        assert!(fault(JOIN_BUILD, FaultKind::Delay(3)).check().is_ok());
        assert!(fault(WAL_FSYNC, FaultKind::Crash).check().is_ok());
        let err = fault(JOIN_BUILD, FaultKind::Crash).check().unwrap_err();
        assert!(err.contains("entry `join-build:1:crash`"), "{err}");
        let err = fault(WAL_APPEND, FaultKind::AllocFail).check().unwrap_err();
        assert!(
            err.contains("(known: short-write, crash, io-error, delay)"),
            "{err}"
        );
        let err = fault("nowhere", FaultKind::Panic).check().unwrap_err();
        assert!(err.contains("unknown fault site `nowhere`"), "{err}");
    }
}
