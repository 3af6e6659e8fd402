//! Live per-query progress estimation.
//!
//! A [`ProgressState`] is built by the query entry point (`Database::
//! execute`) and installed with the governor in the engine's query
//! context on the executing thread. While the query runs, the governor
//! cadence (`governor::tick`, every 1024 rows) calls
//! [`ProgressState::add_rows`], and every memory-budget charge calls
//! [`ProgressState::raise_mem`], so a [`ProgressSnapshot`] — phase,
//! percent complete, rows processed vs. estimated, elapsed wall time,
//! memory high-water — is readable *from any thread* through the shared
//! `Arc` at any point during execution.
//!
//! Determinism contract: progress is an *observer*, never a participant.
//! It touches no operator counter, allocates nothing on the per-row hot
//! path (row updates are batch-amortized at the existing checkpoint
//! cadence, so profile counters stay byte-identical with progress armed
//! or not), and the engine never reads it back.
//!
//! The row counter deliberately undercounts: each scan loop contributes
//! only whole 1024-row steps, and the final partial step lands when the
//! query finishes ([`ProgressState::finish`] raises the counter to the
//! profile's exact row totals). Undercounting keeps mid-query snapshots
//! monotonically non-decreasing — the estimate can only catch *up* to
//! the truth, never overshoot and regress.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// Shared, thread-safe progress state of one executing query.
#[derive(Debug)]
pub struct ProgressState {
    /// Rows counted by the engine's checkpoint cadence (whole
    /// [`ProgressState::add_rows`] steps only; lags the truth by at most
    /// one step per live scan loop), raised to the exact total by
    /// [`ProgressState::finish`].
    rows: AtomicU64,
    /// Planner-estimated total rows the query will process (sum of the
    /// cardinality estimates over every plan node; 0 = no estimate).
    rows_estimated: AtomicU64,
    /// Memory high-water mark in governed bytes (0 when no memory
    /// budget is armed — the governor only totals charges when it must).
    mem_high_water: AtomicU64,
    done: AtomicBool,
    /// The most recent phase label a checkpoint reported.
    phase: Mutex<String>,
    started: Instant,
}

impl Default for ProgressState {
    fn default() -> ProgressState {
        ProgressState::new()
    }
}

impl ProgressState {
    pub fn new() -> ProgressState {
        ProgressState {
            rows: AtomicU64::new(0),
            rows_estimated: AtomicU64::new(0),
            mem_high_water: AtomicU64::new(0),
            done: AtomicBool::new(false),
            phase: Mutex::new(String::from("start")),
            started: Instant::now(),
        }
    }

    /// Record the planner's estimated total row volume (set once, right
    /// after binding).
    pub fn set_estimated(&self, rows: u64) {
        self.rows_estimated.store(rows, Ordering::Relaxed);
    }

    /// Fold `n` processed rows into the counter and note the phase that
    /// reported them. Called from the engine's checkpoint cadence on
    /// whichever thread is scanning.
    pub fn add_rows(&self, n: u64, phase: &str) {
        self.rows.fetch_add(n, Ordering::Relaxed);
        let mut cur = self.phase.lock().unwrap_or_else(|e| e.into_inner());
        if *cur != phase {
            phase.clone_into(&mut cur);
        }
    }

    /// Raise the memory high-water mark to `bytes` if it is below it.
    pub fn raise_mem(&self, bytes: u64) {
        self.mem_high_water.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Mark the query finished, raising the row counter to the exact
    /// `rows` total (typically the merged profile's row counters) and
    /// pinning the percentage at 100.
    pub fn finish(&self, rows: u64, phase: &str) {
        self.rows.fetch_max(rows, Ordering::Relaxed);
        phase.clone_into(&mut self.phase.lock().unwrap_or_else(|e| e.into_inner()));
        self.done.store(true, Ordering::Release);
    }

    /// A point-in-time view, readable from any thread.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let done = self.done.load(Ordering::Acquire);
        let rows_processed = self.rows.load(Ordering::Relaxed);
        let rows_estimated = self.rows_estimated.load(Ordering::Relaxed);
        let percent = if done {
            100
        } else {
            // Cap at 99 while running: estimates can undershoot, and a
            // live query must never claim completion.
            (rows_processed * 100)
                .checked_div(rows_estimated)
                .map_or(0, |p| p.min(99))
        };
        ProgressSnapshot {
            phase: self.phase.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            percent,
            rows_processed,
            rows_estimated,
            elapsed_ms: self.started.elapsed().as_millis() as u64,
            mem_bytes: self.mem_high_water.load(Ordering::Relaxed),
            done,
        }
    }
}

/// One observation of a query's progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// The phase label of the most recent engine checkpoint
    /// (e.g. `join-scan`, `nest-build`, `linking-scan`).
    pub phase: String,
    /// Estimated percent complete: rows processed over rows estimated,
    /// capped at 99 until the query finishes, exactly 100 once done.
    pub percent: u64,
    pub rows_processed: u64,
    pub rows_estimated: u64,
    pub elapsed_ms: u64,
    /// Governed-allocation high-water mark (0 without a memory budget).
    pub mem_bytes: u64,
    pub done: bool,
}

impl ProgressSnapshot {
    /// JSON object form (embedded in slow-query-log records).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"phase\": ");
        json::write_string(&mut out, &self.phase);
        out.push_str(&format!(
            ", \"percent\": {}, \"rows_processed\": {}, \"rows_estimated\": {}, \
             \"elapsed_ms\": {}, \"mem_bytes\": {}, \"done\": {}}}",
            self.percent,
            self.rows_processed,
            self.rows_estimated,
            self.elapsed_ms,
            self.mem_bytes,
            self.done
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_track_rows_phase_and_memory() {
        let p = ProgressState::new();
        p.set_estimated(4096);
        p.add_rows(1024, "join-scan");
        p.raise_mem(500);
        p.add_rows(1024, "nest-scan");
        p.raise_mem(300); // below high water: ignored
        let s = p.snapshot();
        assert_eq!(s.rows_processed, 2048);
        assert_eq!(s.rows_estimated, 4096);
        assert_eq!(s.percent, 50);
        assert_eq!(s.phase, "nest-scan");
        assert_eq!(s.mem_bytes, 500);
        assert!(!s.done);
    }

    #[test]
    fn percent_caps_at_99_until_done() {
        let p = ProgressState::new();
        p.set_estimated(100);
        p.add_rows(100_000, "scan");
        assert_eq!(p.snapshot().percent, 99);
        p.finish(100_500, "done");
        let s = p.snapshot();
        assert_eq!(s.percent, 100);
        assert_eq!(s.rows_processed, 100_500);
        assert!(s.done);
    }

    #[test]
    fn finish_never_lowers_the_row_counter() {
        let p = ProgressState::new();
        p.add_rows(5000, "scan");
        p.finish(10, "done"); // a stale/partial total cannot regress
        assert_eq!(p.snapshot().rows_processed, 5000);
    }

    #[test]
    fn zero_estimate_reports_zero_percent_while_running() {
        let p = ProgressState::new();
        p.add_rows(1024, "scan");
        assert_eq!(p.snapshot().percent, 0);
        p.finish(1024, "done");
        assert_eq!(p.snapshot().percent, 100);
    }

    #[test]
    fn snapshots_are_monotonic() {
        let p = ProgressState::new();
        p.set_estimated(10_000);
        let mut last = p.snapshot();
        for _ in 0..8 {
            p.add_rows(1024, "scan");
            let s = p.snapshot();
            assert!(s.rows_processed >= last.rows_processed);
            assert!(s.percent >= last.percent);
            last = s;
        }
        p.finish(9000, "done");
        let s = p.snapshot();
        assert!(s.rows_processed >= last.rows_processed);
        assert_eq!(s.percent, 100);
    }

    #[test]
    fn snapshot_json_parses_back() {
        let p = ProgressState::new();
        p.set_estimated(2048);
        p.add_rows(1024, "linking-scan");
        let parsed = json::Json::parse(&p.snapshot().to_json()).unwrap();
        assert_eq!(parsed.get("phase").unwrap().as_str(), Some("linking-scan"));
        assert_eq!(parsed.get("percent").unwrap().as_u64(), Some(50));
        assert_eq!(parsed.get("rows_processed").unwrap().as_u64(), Some(1024));
        assert_eq!(parsed.get("done"), Some(&json::Json::Bool(false)));
    }
}
