//! A database's plan cache: normalized SQL → the physical plans
//! [`Strategy::Auto`](nra_core::Strategy::Auto) built for it.
//!
//! Each database owns one ([`DbShared`](crate::database::DbShared)), so
//! two databases never share plans even for identical SQL — a
//! [`PhysPlan`] embeds catalog-specific name resolutions — and one
//! database's traffic never evicts another's plans. Entries are keyed on
//! the normalized statement. Each records the database's schema version
//! at insert time; a lookup whose version no longer matches drops the
//! entry and counts an invalidation. Catalog writes (DDL, `INSERT`,
//! `ANALYZE`, and direct
//! [`Database::catalog_mut`](crate::Database::catalog_mut) access) also
//! purge the cache eagerly, so `nra_sys.plan_cache` never shows plans a
//! changed schema has orphaned.
//!
//! The cache is bounded at [`CAPACITY`] entries with FIFO eviction:
//! its footprint is O(capacity × plan size) regardless of how long the
//! database serves queries.
//!
//! Counters (`nra_plan_cache_hits_total` / `_misses_total` /
//! `_invalidations_total` / `_evictions_total`) go to the *global*
//! metrics registry only: whether a statement hits the cache depends on
//! process history, so the per-query metrics scope — which must stay
//! byte-identical across runs — never sees them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use nra_core::PhysPlan;
use nra_obs::metrics;
use nra_sql::Query;

/// Maximum cached plans per database.
pub(crate) const CAPACITY: usize = 256;

/// Everything needed to skip the parser, the binder and the planner on a
/// repeat of the same statement. Built once per miss and shared from then
/// on: the cache, every hit and the lifecycle's `finish` hold the same
/// allocation through an [`Arc`].
#[derive(Debug)]
pub(crate) struct CachedPlan {
    /// The parsed query (compound arms, `ORDER BY`, `LIMIT`).
    pub query: Query,
    /// `Auto`'s plan for the first `SELECT` block (its bound query is what
    /// forced strategies and the other engines run).
    pub first: PhysPlan,
    /// `Auto`'s plans for the compound arms, in order.
    pub rest: Vec<PhysPlan>,
}

#[derive(Debug)]
struct Entry {
    version: u64,
    hits: u64,
    plan: Arc<CachedPlan>,
}

/// One database's cache (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    inner: Mutex<Cache>,
}

#[derive(Debug, Default)]
struct Cache {
    map: HashMap<String, Entry>,
    /// Insertion order for FIFO eviction (and `nra_sys.plan_cache` row
    /// order).
    fifo: VecDeque<String>,
}

/// One `nra_sys.plan_cache` row.
pub(crate) struct CacheRow {
    pub statement: String,
    pub strategy: &'static str,
    pub hits: u64,
    pub version: u64,
}

impl PlanCache {
    fn lock(&self) -> MutexGuard<'_, Cache> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetch the plan cached for `sql_norm`, provided it was inserted at
    /// the current schema `version`. A version mismatch drops the stale
    /// entry (counted as an invalidation); both that and a plain absence
    /// count as a miss.
    ///
    /// The lock covers the map probe and one refcount bump: the
    /// counters are published after it is released, so what a plan holds
    /// never lengthens the critical section two callers contend for.
    pub(crate) fn lookup(&self, version: u64, sql_norm: &str) -> Option<Arc<CachedPlan>> {
        let (found, invalidated) = {
            let mut c = self.lock();
            match c.map.get_mut(sql_norm) {
                Some(entry) if entry.version == version => {
                    entry.hits += 1;
                    (Some(Arc::clone(&entry.plan)), false)
                }
                Some(_) => {
                    c.map.remove(sql_norm);
                    c.fifo.retain(|k| k != sql_norm);
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

    /// Insert (or refresh) the plan for `sql_norm` as of schema
    /// `version`, evicting the oldest entry at capacity.
    pub(crate) fn insert(&self, version: u64, sql_norm: String, plan: Arc<CachedPlan>) {
        let mut c = self.lock();
        if !c.map.contains_key(&sql_norm) {
            while c.fifo.len() >= CAPACITY {
                if let Some(oldest) = c.fifo.pop_front() {
                    c.map.remove(&oldest);
                    metrics::global().counter_add("nra_plan_cache_evictions_total", &[], 1);
                }
            }
            c.fifo.push_back(sql_norm.clone());
        }
        c.map.insert(
            sql_norm,
            Entry {
                version,
                hits: 0,
                plan,
            },
        );
    }

    /// Drop every entry, each counted as an invalidation. Called on
    /// catalog writes (DDL, insert, `ANALYZE`).
    pub(crate) fn purge(&self) {
        // The plans are dropped after the lock is released.
        let stale = {
            let mut c = self.lock();
            c.fifo.clear();
            std::mem::take(&mut c.map)
        };
        if !stale.is_empty() {
            metrics::global().counter_add(
                "nra_plan_cache_invalidations_total",
                &[],
                stale.len() as u64,
            );
        }
    }

    /// Snapshot of the entries in insertion order, for the
    /// `nra_sys.plan_cache` system table.
    pub(crate) fn snapshot(&self) -> Vec<CacheRow> {
        let c = self.lock();
        c.fifo
            .iter()
            .filter_map(|k| {
                c.map.get(k).map(|entry| CacheRow {
                    statement: k.clone(),
                    strategy: entry.plan.first.strategy().name(),
                    hits: entry.hits,
                    version: entry.version,
                })
            })
            .collect()
    }
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
        let bound = nra_sql::bind(&query.first, &cat).unwrap();
        let plan = Arc::new(CachedPlan {
            query,
            first: nra_core::build(Arc::new(bound), nra_core::Strategy::Auto).unwrap(),
            rest: Vec::new(),
        });
        let cache = PlanCache::default();
        cache.insert(3, "select a from t".to_string(), Arc::clone(&plan));
        let first = cache.lookup(3, "select a from t").expect("hit");
        let second = cache.lookup(3, "select a from t").expect("hit");
        assert!(Arc::ptr_eq(&first, &plan) && Arc::ptr_eq(&second, &plan));
        assert_eq!(cache.snapshot()[0].hits, 2);

        // A schema-version mismatch drops the entry instead of serving it.
        assert!(cache.lookup(4, "select a from t").is_none());
        assert!(cache.snapshot().is_empty());
        // The cache's own reference is gone; ours and the two hits remain.
        assert_eq!(Arc::strong_count(&plan), 3);
    }
}
