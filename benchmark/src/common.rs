//! Pieces every workload shares: sizes, the served database, process
//! memory, and the latency bookkeeping of one measured phase.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use nra::Database;
use nra_server::ServerHandle;

use crate::stats;

/// How big the inputs are. `--quick` shrinks everything so the whole
/// command finishes in seconds (a smoke test, not a measurement).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// TPC-H scale of the nested and point workloads.
    pub scale: f64,
    /// TPC-H scale of the ingest base directory.
    pub ingest_scale: f64,
    /// Inserts per ingest cycle (the WAL tail a recovery replays).
    pub inserts_per_cycle: usize,
    /// Inserts in the per-layer probe cycle: past the default
    /// auto-checkpoint cadence (4096 records) at full size, so the cycle
    /// stalls on one checkpoint.
    pub stall_probe_inserts: usize,
    /// Repetitions behind each per-layer median.
    pub layer_reps: usize,
    /// Calls behind each microsecond-scale per-layer median.
    pub micro_calls: usize,
}

/// Reads (`q1`) per ingest cycle, evenly spaced among the inserts. With
/// one recovery per cycle, reads are 4/5 of the timed operations: the
/// pooled median sits among the reads and the pooled p90 among the
/// recoveries.
pub const READS_PER_CYCLE: usize = 4;

/// Rows per insert (one WAL record and one fsync each).
pub const ROWS_PER_INSERT: usize = 25;

/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                scale: 0.05,
                ingest_scale: 0.05,
                inserts_per_cycle: 200,
                stall_probe_inserts: 300,
                layer_reps: 1,
                micro_calls: 200,
            }
        } else {
            Sizes {
                scale: 1.0,
                ingest_scale: 0.25,
                inserts_per_cycle: 1_000,
                stall_probe_inserts: 4_200,
                layer_reps: 5,
                micro_calls: 2_000,
            }
        }
    }
}

/// A database behind `nra_server::serve` on an ephemeral loopback port.
pub struct Served {
    pub db: Database,
    pub addr: SocketAddr,
    handle: ServerHandle,
}

impl Served {
    pub fn start(db: Database) -> io::Result<Served> {
        let handle = nra_server::serve(db.clone(), "127.0.0.1:0")?;
        Ok(Served {
            db,
            addr: handle.addr(),
            handle,
        })
    }

    /// Stop accepting and join every server thread. Close the clients
    /// first: a connection thread ends when its socket does.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// Run `f` on a thread of its own and return its result.
///
/// Every in-process engine call the benchmark times runs this way, as the
/// server runs each query on a connection thread: glibc gives a new thread
/// an allocation arena of its own, while the main thread's arena is left
/// by data generation in a state where the same query measures 2-3x
/// slower. Timing on the main thread would measure the generator's heap
/// litter, not the engine.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        scope
            .spawn(f)
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Samples the process's resident set while a measured window runs and
/// keeps the maximum. `VmHWM` would also count the oracle and the repeated
/// set-ups; this counts what the system holds while it serves.
pub struct RssSampler {
    stop: std::sync::Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    const PERIOD: Duration = Duration::from_millis(5);

    pub fn start() -> RssSampler {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = proc_status_mb("VmRSS");
            // Relaxed: the flag publishes nothing but itself.
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Self::PERIOD);
                peak = peak.max(proc_status_mb("VmRSS"));
            }
            peak
        });
        RssSampler { stop, thread }
    }

    /// Stop sampling; the peak resident set seen, in MB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("rss sampler thread")
    }
}

/// A field of `/proc/self/status` in MB (`VmHWM` = peak resident set,
/// `VmRSS` = current). 0.0 where procfs is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type backing `path`, from the longest matching mount point.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

/// A scratch directory under the benchmark's output directory, removed
/// on drop. The benchmark writes nowhere else.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(out: &Path, name: &str) -> io::Result<ScratchDir> {
        let dir = out.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copy the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The client-observed outcome of one measured phase.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the measured window, seconds.
    pub wall_s: f64,
    /// Latencies in ms per operation class, in a fixed class order.
    pub classes: Vec<(&'static str, Vec<f64>)>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Phase {
    pub fn with_classes(names: &[&'static str]) -> Phase {
        Phase {
            classes: names.iter().map(|n| (*n, Vec::new())).collect(),
            ..Phase::default()
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Fold another client's phase into this one (same class order).
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
        for ((_, mine), (_, theirs)) in self.classes.iter_mut().zip(other.classes) {
            mine.extend(theirs);
        }
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }

    /// Latencies of the first `classes` classes, pooled and sorted
    /// ascending.
    pub fn pooled_sorted(&self, classes: usize) -> Vec<f64> {
        let mut all: Vec<f64> = self.classes[..classes]
            .iter()
            .flat_map(|(_, l)| l.iter().copied())
            .collect();
        stats::sort(&mut all);
        all
    }

    /// Median latency of one class (`None` when it has no samples).
    pub fn class_median(&self, class: &str) -> Option<(f64, u64)> {
        self.classes
            .iter()
            .find(|(n, _)| *n == class)
            .filter(|(_, l)| !l.is_empty())
            .map(|(_, l)| (stats::median(l), l.len() as u64))
    }

    /// Operations of the first `classes` classes per second of busy
    /// client time: their count over the sum of their latencies, times the
    /// number of clients. Equals closed-loop throughput when clients do
    /// nothing between requests, and stays comparable when they do (the
    /// traced run re-executes each request in-process between wire calls;
    /// `ingest_recover` times only some of its operations).
    pub fn busy_qps(&self, clients: usize, classes: usize) -> f64 {
        let (n, total_ms) = self.classes[..classes]
            .iter()
            .fold((0usize, 0.0), |(n, t), (_, l)| {
                (n + l.len(), t + l.iter().sum::<f64>())
            });
        n as f64 / (total_ms / 1e3).max(1e-9) * clients as f64
    }
}
