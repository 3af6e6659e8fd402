//! Per-database query registry: the currently-running queries and a
//! bounded ring of completed-query records.
//!
//! Each database owns one (`Database::queries`). It is the data behind
//! that database's `nra_sys.running` / `nra_sys.queries` system tables
//! and the CLI's `:ps` / `:history` — and the state a future serving
//! front end's `SHOW PROCESSLIST` will read. The query
//! entry point [`QueryRegistry::register`]s each statement before execution (sharing
//! the query's [`crate::progress::ProgressState`], so any thread can
//! watch it advance) and [`QueryRegistry::complete`]s it afterwards,
//! moving it into the completed ring. Introspection queries themselves
//! are *not* registered (the caller flags and skips them), so reading
//! `nra_sys.queries` does not grow `nra_sys.queries`.
//!
//! The completed ring is bounded at [`RING_CAPACITY`] records: the
//! registry's memory footprint is O(capacity × statement length)
//! regardless of how long the process serves queries.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::progress::ProgressState;

/// Completed-query records a database's registry keeps.
pub const RING_CAPACITY: usize = 256;

/// One finished query: computed once when it finishes, and read by every
/// reporter — this registry, the metrics scopes, the trace's end line
/// and the slow-query log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRecord {
    /// Query id, unique within its registry (monotonically increasing
    /// from 1).
    pub id: u64,
    /// The statement as the plan cache keyed it (normalized by the
    /// caller with `nra_sql::normalize`).
    pub sql: String,
    /// `"ok"`, `"cancelled"`, `"resource-exhausted"`, `"worker-panicked"`,
    /// `"sql"`, `"storage"`, or `"error"`.
    pub outcome: &'static str,
    pub wall_ms: u64,
    /// Result rows produced (0 on error).
    pub rows: u64,
    /// Worst per-node cardinality Q-error ×100 (100 = perfect estimate;
    /// 0 = no estimate/actual pair was available).
    pub qerror_x100: u64,
    /// Governed-allocation high-water mark (0 without a memory budget).
    pub mem_bytes: u64,
    /// The execution strategy that answered the query (auto resolved to
    /// its concrete choice).
    pub strategy: &'static str,
    /// The session the query ran under (0 = none: internal or legacy
    /// callers that bypassed the session layer).
    pub session: u64,
}

/// One currently-executing query.
#[derive(Clone)]
pub struct RunningQuery {
    pub id: u64,
    /// The statement, already normalized by the caller.
    pub sql: String,
    /// Live progress, shared with the executing thread.
    pub progress: Arc<ProgressState>,
}

struct Inner {
    next_id: u64,
    running: Vec<RunningQuery>,
    completed: VecDeque<QueryRecord>,
}

/// A registry of running and recently-completed queries.
pub struct QueryRegistry {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl QueryRegistry {
    pub fn with_capacity(capacity: usize) -> QueryRegistry {
        QueryRegistry {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                next_id: 1,
                running: Vec::new(),
                completed: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enter a query into the running table, assigning its id. `sql` is stored as given: the caller passes the normalized
    /// statement, so nothing is normalized under the registry lock.
    pub fn register(&self, sql: &str, progress: Arc<ProgressState>) -> u64 {
        let sql = sql.to_string();
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.running.push(RunningQuery { id, sql, progress });
        id
    }

    /// Drop query `id` from the running table without a completed
    /// record (a lifecycle unwinding before it could report).
    pub fn forget(&self, id: u64) {
        self.lock().running.retain(|r| r.id != id);
    }

    /// Move query `record.id` from the running table into the completed
    /// ring (evicting the oldest record at capacity). Unknown ids still
    /// append a completed record, so a lost registration never loses the
    /// outcome.
    pub fn complete(&self, record: QueryRecord) {
        let mut inner = self.lock();
        inner.running.retain(|r| r.id != record.id);
        if inner.completed.len() >= self.capacity {
            inner.completed.pop_front();
        }
        inner.completed.push_back(record);
    }

    /// Snapshot of the running table, in registration (id) order.
    pub fn running(&self) -> Vec<RunningQuery> {
        self.lock().running.clone()
    }

    /// Snapshot of the completed ring, oldest first.
    pub fn completed(&self) -> Vec<QueryRecord> {
        self.lock().completed.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, sql: &str) -> QueryRecord {
        QueryRecord {
            id,
            sql: sql.to_string(),
            outcome: "ok",
            wall_ms: 1,
            rows: 2,
            qerror_x100: 100,
            mem_bytes: 0,
            strategy: "original",
            session: 0,
        }
    }

    #[test]
    fn register_complete_lifecycle() {
        let reg = QueryRegistry::with_capacity(8);
        let p = Arc::new(ProgressState::new());
        let id = reg.register("select * from t", p);
        assert_eq!(reg.running().len(), 1);
        assert_eq!(reg.running()[0].sql, "select * from t");
        reg.complete(record(id, "select * from t"));
        assert!(reg.running().is_empty());
        assert_eq!(reg.completed().len(), 1);
        assert_eq!(reg.completed()[0].id, id);
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let reg = QueryRegistry::with_capacity(8);
        let a = reg.register("q1", Arc::new(ProgressState::new()));
        let b = reg.register("q2", Arc::new(ProgressState::new()));
        assert!(b > a);
        assert_eq!(reg.running().len(), 2);
    }

    #[test]
    fn completed_ring_is_bounded() {
        let reg = QueryRegistry::with_capacity(3);
        for i in 0..10u64 {
            let id = reg.register(&format!("q{i}"), Arc::new(ProgressState::new()));
            reg.complete(record(id, &format!("q{i}")));
        }
        let done = reg.completed();
        assert_eq!(done.len(), 3);
        // Oldest first; the earliest 7 were evicted.
        assert_eq!(
            done.iter().map(|r| r.sql.as_str()).collect::<Vec<_>>(),
            ["q7", "q8", "q9"]
        );
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = Arc::new(QueryRegistry::with_capacity(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for i in 0..8 {
                        let id = reg.register(&format!("t{t}q{i}"), Arc::new(ProgressState::new()));
                        reg.complete(record(id, &format!("t{t}q{i}")));
                    }
                });
            }
        });
        assert!(reg.running().is_empty());
        assert_eq!(reg.completed().len(), 32);
        let mut ids: Vec<u64> = reg.completed().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 32, "no record was lost or duplicated");
    }
}
