//! Process-wide plan cache: normalized SQL → bound plan.
//!
//! Entries are keyed on `(database id, normalized statement)` — two
//! databases never share plans even for identical SQL, because a
//! [`BoundQuery`] embeds catalog-specific name resolutions. Each entry
//! records the database's schema version at insert time; a lookup whose
//! version no longer matches drops the entry and counts an
//! invalidation. Catalog writes (DDL, `INSERT`, `ANALYZE`, and direct
//! [`Database::catalog_mut`](crate::Database::catalog_mut) access) also
//! purge the database's entries eagerly, so `nra_sys.plan_cache` never
//! shows plans a changed schema has orphaned.
//!
//! The cache is bounded at [`CAPACITY`] entries with FIFO eviction:
//! its footprint is O(capacity × plan size) regardless of how long the
//! process serves queries.
//!
//! Counters (`nra_plan_cache_hits_total` / `_misses_total` /
//! `_invalidations_total` / `_evictions_total` and the
//! `nra_plan_cache_entries` gauge) go to the *global* metrics registry
//! only: whether a statement hits the cache depends on process history,
//! so the per-query metrics scope — which must stay byte-identical
//! across runs and thread counts — never sees them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use nra_obs::metrics;
use nra_sql::{BoundQuery, Query};

/// Maximum cached plans across all databases in the process.
pub(crate) const CAPACITY: usize = 256;

/// Everything needed to skip the parser and binder on a repeat of the
/// same statement. Built once per miss and shared from then on: the
/// cache, every hit and the lifecycle's `finish` hold the same
/// allocation through an [`Arc`].
#[derive(Debug)]
pub(crate) struct CachedPlan {
    /// The parsed query (compound arms, `ORDER BY`, `LIMIT`).
    pub query: Query,
    /// Bound form of the first `SELECT` block.
    pub bound_first: BoundQuery,
    /// Bound forms of the compound arms, in order.
    pub bound_rest: Vec<BoundQuery>,
    /// Auto-resolved strategy label recorded for introspection.
    pub strategy: &'static str,
}

#[derive(Debug)]
struct Entry {
    version: u64,
    hits: u64,
    plan: Arc<CachedPlan>,
}

#[derive(Debug, Default)]
struct Cache {
    map: HashMap<(u64, String), Entry>,
    /// Insertion order for FIFO eviction (and `nra_sys.plan_cache` row
    /// order).
    fifo: VecDeque<(u64, String)>,
}

fn cache() -> MutexGuard<'static, Cache> {
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(Cache::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn publish_len(len: usize) {
    metrics::global().gauge_set("nra_plan_cache_entries", &[], len as u64);
}

/// Fetch the plan cached for `(db, sql_norm)`, provided it was inserted
/// at the current schema `version`. A version mismatch drops the stale
/// entry (counted as an invalidation); both that and a plain absence
/// count as a miss.
///
/// The process-global lock covers the map probe and one refcount bump:
/// the key is built before it is taken and the counters are published
/// after it is released, so what a plan holds never lengthens the
/// critical section two callers contend for.
pub(crate) fn lookup(db: u64, version: u64, sql_norm: &str) -> Option<Arc<CachedPlan>> {
    let key = (db, sql_norm.to_string());
    let (found, invalidated) = {
        let mut c = cache();
        match c.map.get_mut(&key) {
            Some(entry) if entry.version == version => {
                entry.hits += 1;
                (Some(Arc::clone(&entry.plan)), false)
            }
            Some(_) => {
                c.map.remove(&key);
                c.fifo.retain(|k| k != &key);
                publish_len(c.map.len());
                (None, true)
            }
            None => (None, false),
        }
    };
    let outcome = if found.is_some() {
        "nra_plan_cache_hits_total"
    } else {
        "nra_plan_cache_misses_total"
    };
    if invalidated {
        metrics::global().counter_add("nra_plan_cache_invalidations_total", &[], 1);
    }
    metrics::global().counter_add(outcome, &[], 1);
    found
}

/// Insert (or refresh) the plan for `(db, sql_norm)` as of schema
/// `version`, evicting the oldest entry at capacity.
pub(crate) fn insert(db: u64, version: u64, sql_norm: String, plan: Arc<CachedPlan>) {
    let mut c = cache();
    let key = (db, sql_norm);
    if !c.map.contains_key(&key) {
        while c.fifo.len() >= CAPACITY {
            if let Some(oldest) = c.fifo.pop_front() {
                c.map.remove(&oldest);
                metrics::global().counter_add("nra_plan_cache_evictions_total", &[], 1);
            }
        }
        c.fifo.push_back(key.clone());
    }
    c.map.insert(
        key,
        Entry {
            version,
            hits: 0,
            plan,
        },
    );
    publish_len(c.map.len());
}

fn remove_db(db: u64, count_invalidations: bool) {
    let mut c = cache();
    let before = c.map.len();
    c.map.retain(|k, _| k.0 != db);
    let removed = before - c.map.len();
    if removed == 0 {
        return;
    }
    c.fifo.retain(|k| k.0 != db);
    publish_len(c.map.len());
    if count_invalidations {
        metrics::global().counter_add("nra_plan_cache_invalidations_total", &[], removed as u64);
    }
}

/// Drop every entry belonging to `db`, each counted as an
/// invalidation. Called on catalog writes (DDL, insert, `ANALYZE`).
pub(crate) fn purge_db(db: u64) {
    remove_db(db, true);
}

/// Drop every entry belonging to `db` without counting invalidations —
/// the database itself is gone (last handle dropped), not its schema
/// changed.
pub(crate) fn forget_db(db: u64) {
    remove_db(db, false);
}

/// One `nra_sys.plan_cache` row.
pub(crate) struct CacheRow {
    pub statement: String,
    pub strategy: &'static str,
    pub hits: u64,
    pub version: u64,
}

/// Snapshot of `db`'s entries in insertion order, for the
/// `nra_sys.plan_cache` system table.
pub(crate) fn snapshot_db(db: u64) -> Vec<CacheRow> {
    let c = cache();
    c.fifo
        .iter()
        .filter(|k| k.0 == db)
        .filter_map(|k| {
            c.map.get(k).map(|entry| CacheRow {
                statement: k.1.clone(),
                strategy: entry.plan.strategy,
                hits: entry.hits,
                version: entry.version,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::{Catalog, Column, ColumnType, Schema, Table};

    #[test]
    fn a_hit_shares_the_inserted_allocation() {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![Column::new("a", ColumnType::Int)]);
        cat.add_table(Table::new("t", schema)).unwrap();
        let query = nra_sql::parse_query("select a from t").unwrap();
        let bound_first = nra_sql::bind(&query.first, &cat).unwrap();
        let plan = Arc::new(CachedPlan {
            query,
            bound_first,
            bound_rest: Vec::new(),
            strategy: "auto",
        });
        // A database id no `Database` in this process is ever given.
        let db = u64::MAX;
        insert(db, 3, "select a from t".to_string(), Arc::clone(&plan));
        let first = lookup(db, 3, "select a from t").expect("hit");
        let second = lookup(db, 3, "select a from t").expect("hit");
        assert!(Arc::ptr_eq(&first, &plan) && Arc::ptr_eq(&second, &plan));
        assert_eq!(snapshot_db(db)[0].hits, 2);

        // A schema-version mismatch drops the entry instead of serving it.
        assert!(lookup(db, 4, "select a from t").is_none());
        assert!(snapshot_db(db).is_empty());
        // The cache's own reference is gone; ours and the two hits remain.
        assert_eq!(Arc::strong_count(&plan), 3);
        forget_db(db);
    }
}
