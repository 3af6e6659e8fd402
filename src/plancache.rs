//! A database's plan cache: (normalized SQL, engine) → the
//! [`PhysPlan`] that engine's builders compiled for the statement, with
//! the planner's estimates for it.
//!
//! Each database owns one ([`DbShared`](crate::database::DbShared)), so
//! two databases never share plans even for identical SQL — a
//! [`PhysPlan`] embeds catalog-specific name resolutions — and one
//! database's traffic never evicts another's plans. Entries are keyed on
//! the normalized statement and the engine that planned it, so a hit runs
//! exactly the plan a miss would build, under every engine. Each records
//! the database's schema version at insert time; a lookup whose version no
//! longer matches drops the entry and counts an invalidation. Catalog
//! writes (DDL, `INSERT`, `ANALYZE`: the one `Database::commit`) also
//! purge the cache eagerly, so `nra_sys.plan_cache` never shows plans a
//! changed schema has orphaned — and a cached plan's estimates are the
//! ones a fresh build would compute.
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

use nra_core::{CardEstimates, Engine, PhysPlan};
use nra_obs::metrics;

/// Maximum cached plans per database.
pub(crate) const CAPACITY: usize = 256;

/// A plan and the planner's cardinality estimates for it — the progress
/// denominator and the analyzed plan's `est` column — computed once per
/// build, so a cache hit calls no estimator.
#[derive(Debug)]
pub(crate) struct Planned {
    pub plan: PhysPlan,
    pub estimates: CardEstimates,
}

/// One statement's plan under one engine. Built once per miss and shared
/// from then on: the cache, every hit and the lifecycle's `finish` hold
/// the same allocation through an [`Arc`].
#[derive(Debug)]
struct Entry {
    engine: Engine,
    version: u64,
    hits: u64,
    plan: Arc<Planned>,
}

/// One database's cache (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    inner: Mutex<Cache>,
}

#[derive(Debug, Default)]
struct Cache {
    /// A statement's entries, one per engine that planned it.
    map: HashMap<String, Vec<Entry>>,
    /// Insertion order for FIFO eviction (and `nra_sys.plan_cache` row
    /// order).
    fifo: VecDeque<(String, Engine)>,
}

impl Cache {
    /// Drop the entry for (`sql_norm`, `engine`) from the map; the caller
    /// keeps `fifo` in step.
    fn remove(&mut self, sql_norm: &str, engine: Engine) {
        if let Some(entries) = self.map.get_mut(sql_norm) {
            entries.retain(|e| e.engine != engine);
            if entries.is_empty() {
                self.map.remove(sql_norm);
            }
        }
    }
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

    /// Fetch `engine`'s plan cached for `sql_norm`, provided it was
    /// inserted at the current schema `version`. A version mismatch drops
    /// the stale entry (counted as an invalidation); both that and a plain
    /// absence count as a miss.
    ///
    /// The lock covers the map probe and one refcount bump: the
    /// counters are published after it is released, so what a plan holds
    /// never lengthens the critical section two callers contend for.
    pub(crate) fn lookup(
        &self,
        version: u64,
        sql_norm: &str,
        engine: Engine,
    ) -> Option<Arc<Planned>> {
        let (found, invalidated) = {
            let mut c = self.lock();
            let entry = (c.map.get_mut(sql_norm))
                .and_then(|entries| entries.iter_mut().find(|e| e.engine == engine));
            match entry {
                Some(entry) if entry.version == version => {
                    entry.hits += 1;
                    (Some(Arc::clone(&entry.plan)), false)
                }
                Some(_) => {
                    c.remove(sql_norm, engine);
                    c.fifo
                        .retain(|(k, e)| (k.as_str(), *e) != (sql_norm, engine));
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

    /// Insert (or refresh) `engine`'s plan for `sql_norm` as of schema
    /// `version`, evicting the oldest entry at capacity.
    pub(crate) fn insert(
        &self,
        version: u64,
        sql_norm: String,
        engine: Engine,
        plan: Arc<Planned>,
    ) {
        let mut c = self.lock();
        let entry = Entry {
            engine,
            version,
            hits: 0,
            plan,
        };
        let entries = c.map.get_mut(&sql_norm);
        if let Some(old) = entries.and_then(|es| es.iter_mut().find(|e| e.engine == engine)) {
            *old = entry;
            return;
        }
        while c.fifo.len() >= CAPACITY {
            if let Some((oldest, engine)) = c.fifo.pop_front() {
                c.remove(&oldest, engine);
                metrics::global().counter_add("nra_plan_cache_evictions_total", &[], 1);
            }
        }
        c.fifo.push_back((sql_norm.clone(), engine));
        c.map.entry(sql_norm).or_default().push(entry);
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
        let dropped: usize = stale.values().map(Vec::len).sum();
        if dropped > 0 {
            metrics::global().counter_add(
                "nra_plan_cache_invalidations_total",
                &[],
                dropped as u64,
            );
        }
    }

    /// Snapshot of the entries in insertion order, for the
    /// `nra_sys.plan_cache` system table.
    pub(crate) fn snapshot(&self) -> Vec<CacheRow> {
        let c = self.lock();
        (c.fifo.iter())
            .filter_map(|(k, engine)| {
                let entries = c.map.get(k)?;
                let entry = entries.iter().find(|e| e.engine == *engine)?;
                Some(CacheRow {
                    statement: k.clone(),
                    strategy: entry.plan.plan.engine().name(),
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
        let bound = nra_sql::parse_and_bind("select a from t", &cat).unwrap();
        let planned = |engine| {
            let plan = nra_core::build(bound.clone().into(), engine).unwrap();
            Arc::new(Planned {
                estimates: plan.estimate(&cat),
                plan,
            })
        };
        let (auto, baseline) = (Engine::default(), Engine::Baseline);
        let cache = PlanCache::default();
        let plan = planned(auto);
        cache.insert(3, "select a from t".to_string(), auto, Arc::clone(&plan));
        assert!(cache.lookup(3, "select a from t", baseline).is_none());
        let first = cache.lookup(3, "select a from t", auto).expect("hit");
        let second = cache.lookup(3, "select a from t", auto).expect("hit");
        assert!(Arc::ptr_eq(&first, &plan) && Arc::ptr_eq(&second, &plan));
        assert_eq!(cache.snapshot()[0].hits, 2);

        // Each engine has its own entry and row.
        cache.insert(
            3,
            "select a from t".to_string(),
            baseline,
            planned(baseline),
        );
        let rows = cache.snapshot();
        let names: Vec<&str> = rows.iter().map(|r| r.strategy).collect();
        assert_eq!(names, [plan.plan.engine().name(), "baseline"]);

        // A schema-version mismatch drops the entry instead of serving it.
        assert!(cache.lookup(4, "select a from t", auto).is_none());
        assert_eq!(cache.snapshot().len(), 1);
        // The cache's own reference is gone; ours and the two hits remain.
        assert_eq!(Arc::strong_count(&plan), 3);
    }
}
