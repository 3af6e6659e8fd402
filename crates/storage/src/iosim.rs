//! Disk I/O simulation: pages, a buffer cache, and sequential/random
//! access accounting.
//!
//! The paper's evaluation ran against a 1 GB disk-resident TPC-H database
//! with a 32 MB buffer cache; the decisive cost of System A's nested
//! iteration plans is *random* page I/O (index probes per outer tuple),
//! while the nested relational plans pay *sequential* scans. A pure
//! in-memory reproduction hides that difference entirely, so this module
//! simulates it: executors charge page accesses to a thread-local
//! simulator holding an LRU buffer pool, and the benchmark harness
//! converts the counters into estimated elapsed time with documented
//! device parameters.
//!
//! The simulator is disabled by default (zero overhead beyond one
//! thread-local check); correctness tests never enable it.

use std::cell::RefCell;
use std::collections::HashMap;

/// Cost-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct IoConfig {
    /// Page size in bytes (default 8 KiB).
    pub page_bytes: usize,
    /// Buffer-pool capacity in pages.
    pub cache_pages: usize,
    /// Sequential read cost per page, in milliseconds.
    pub seq_ms_per_page: f64,
    /// Random read cost per page miss, in milliseconds.
    pub rand_ms_per_page: f64,
}

impl Default for IoConfig {
    fn default() -> IoConfig {
        IoConfig {
            page_bytes: 8192,
            cache_pages: 4096, // 32 MiB
            // ~80 MB/s sequential and ~6 ms seek+rotate: the 2004-era SCSI
            // disk of the paper's testbed.
            seq_ms_per_page: 0.1,
            rand_ms_per_page: 6.0,
        }
    }
}

/// Access counters accumulated while the simulator is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoStats {
    pub seq_pages: u64,
    pub rand_hits: u64,
    pub rand_misses: u64,
}

impl IoStats {
    /// Estimated elapsed seconds under `cfg`.
    pub fn estimated_secs(&self, cfg: &IoConfig) -> f64 {
        (self.seq_pages as f64 * cfg.seq_ms_per_page
            + self.rand_misses as f64 * cfg.rand_ms_per_page)
            / 1000.0
    }

    pub fn total_random(&self) -> u64 {
        self.rand_hits + self.rand_misses
    }
}

/// Bytes a stored row of `n_cols` columns occupies in the model (a rough
/// 16 bytes per attribute, in line with TPC-H's ~120-byte lineitem rows).
pub const BYTES_PER_COL: usize = 16;

/// Pages occupied by a table of `rows` rows and `cols` columns.
pub fn table_pages(rows: usize, cols: usize, cfg: &IoConfig) -> u64 {
    let row_bytes = (cols.max(1)) * BYTES_PER_COL;
    let rows_per_page = (cfg.page_bytes / row_bytes).max(1);
    rows.div_ceil(rows_per_page).max(1) as u64
}

/// Rows per page for a table of `cols` columns.
pub fn rows_per_page(cols: usize, cfg: &IoConfig) -> usize {
    (cfg.page_bytes / ((cols.max(1)) * BYTES_PER_COL)).max(1)
}

// ---- LRU buffer pool ------------------------------------------------------

struct Lru {
    capacity: usize,
    map: HashMap<u64, usize>,
    // Doubly linked list over slot indices; slot 0..len map to entries.
    pages: Vec<u64>,
    prev: Vec<usize>,
    next: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
}

const NIL: usize = usize::MAX;

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity: capacity.max(1),
            map: HashMap::new(),
            pages: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.prev[i], self.next[i]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.prev[i] = NIL;
        self.next[i] = self.head;
        if self.head != NIL {
            self.prev[self.head] = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Touch a page: returns true on hit.
    fn access(&mut self, page: u64) -> bool {
        if let Some(&i) = self.map.get(&page) {
            self.unlink(i);
            self.push_front(i);
            return true;
        }
        if self.map.len() < self.capacity {
            let i = self.pages.len();
            self.pages.push(page);
            self.prev.push(NIL);
            self.next.push(NIL);
            self.map.insert(page, i);
            self.push_front(i);
        } else {
            // Evict the least-recently-used slot and reuse it.
            let i = self.tail;
            self.unlink(i);
            let old = self.pages[i];
            self.map.remove(&old);
            self.pages[i] = page;
            self.map.insert(page, i);
            self.push_front(i);
        }
        false
    }
}

// ---- thread-local simulator ------------------------------------------------

struct Sim {
    cfg: IoConfig,
    lru: Lru,
    stats: IoStats,
    table_ids: HashMap<String, u64>,
}

// Ambient by design: `nra_bench::profile` arms it around direct
// `nra_core::execute` calls, which take no context parameter, and
// `nra_obs` (which does not depend on `nra_engine`) reads it for the
// profile's I/O footer, so it cannot live in the engine's `QueryCtx`.
thread_local! {
    static SIM: RefCell<Option<Sim>> = const { RefCell::new(None) };
}

/// Enable the simulator on this thread with a cold cache.
pub fn enable(cfg: IoConfig) {
    SIM.with(|s| {
        *s.borrow_mut() = Some(Sim {
            lru: Lru::new(cfg.cache_pages),
            cfg,
            stats: IoStats::default(),
            table_ids: HashMap::new(),
        });
    });
}

/// Disable the simulator, returning the accumulated stats.
pub fn disable() -> Option<IoStats> {
    SIM.with(|s| s.borrow_mut().take().map(|sim| sim.stats))
}

/// Whether the simulator is currently enabled on this thread.
pub fn is_enabled() -> bool {
    SIM.with(|s| s.borrow().is_some())
}

/// Current counters without resetting.
pub fn stats() -> IoStats {
    SIM.with(|s| s.borrow().as_ref().map(|sim| sim.stats).unwrap_or_default())
}

fn with_sim(f: impl FnOnce(&mut Sim)) {
    SIM.with(|s| {
        if let Some(sim) = s.borrow_mut().as_mut() {
            f(sim);
        }
    });
}

fn page_key(sim: &mut Sim, table: &str, page: u64) -> u64 {
    let next = sim.table_ids.len() as u64 + 1;
    let id = *sim.table_ids.entry(table.to_string()).or_insert(next);
    (id << 40) | (page & 0xFF_FFFF_FFFF)
}

/// Charge a full sequential scan of a table with `rows` rows of `cols`
/// columns. Sequential scans bypass the buffer pool (the paper flushed
/// the cache between runs; large scans would thrash it anyway).
pub fn charge_seq_scan(rows: usize, cols: usize) {
    with_sim(|sim| {
        sim.stats.seq_pages += table_pages(rows, cols, &sim.cfg);
    });
}

/// Charge a random access to row `row_id` of `table` (with `cols`
/// columns): one page read through the buffer pool.
pub fn charge_random_row(table: &str, cols: usize, row_id: usize) {
    with_sim(|sim| {
        let rpp = rows_per_page(cols, &sim.cfg);
        let page = (row_id / rpp) as u64;
        let key = page_key(sim, table, page);
        if sim.lru.access(key) {
            sim.stats.rand_hits += 1;
        } else {
            sim.stats.rand_misses += 1;
        }
    });
}

/// Charge an index probe on a secondary index over `table` holding
/// `n_entries` keys: one random leaf/bucket page (interior nodes assumed
/// cached), selected by the probe key's hash.
pub fn charge_index_probe(table: &str, n_entries: usize, bucket: u64) {
    with_sim(|sim| {
        // ~16 bytes per index entry.
        let entries_per_page = (sim.cfg.page_bytes / BYTES_PER_COL).max(1);
        let index_pages = (n_entries.div_ceil(entries_per_page)).max(1) as u64;
        let page = bucket % index_pages;
        let key = page_key(sim, &format!("{table}#index"), page);
        if sim.lru.access(key) {
            sim.stats.rand_hits += 1;
        } else {
            sim.stats.rand_misses += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_charges_are_noops() {
        assert!(!is_enabled());
        charge_seq_scan(1000, 4);
        charge_random_row("t", 4, 17);
        assert_eq!(stats(), IoStats::default());
    }

    #[test]
    fn seq_scan_counts_pages() {
        enable(IoConfig::default());
        charge_seq_scan(1000, 4); // 8192/(4*16)=128 rows/page -> 8 pages
        let s = disable().unwrap();
        assert_eq!(s.seq_pages, 8);
    }

    #[test]
    fn lru_hits_and_misses() {
        enable(IoConfig {
            cache_pages: 2,
            ..IoConfig::default()
        });
        // 128 rows/page at 4 cols: rows 0..127 are page 0.
        charge_random_row("t", 4, 0); // miss
        charge_random_row("t", 4, 5); // hit (same page)
        charge_random_row("t", 4, 300); // miss (page 2)
        charge_random_row("t", 4, 600); // miss (page 4), evicts page 0
        charge_random_row("t", 4, 0); // miss again
        let s = disable().unwrap();
        assert_eq!(s.rand_hits, 1);
        assert_eq!(s.rand_misses, 4);
    }

    #[test]
    fn distinct_tables_do_not_collide() {
        enable(IoConfig::default());
        charge_random_row("a", 4, 0);
        charge_random_row("b", 4, 0);
        let s = disable().unwrap();
        assert_eq!(s.rand_misses, 2, "same page number, different tables");
    }

    #[test]
    fn estimated_secs_weighs_random_heavier() {
        let cfg = IoConfig::default();
        let seq = IoStats {
            seq_pages: 100,
            rand_hits: 0,
            rand_misses: 0,
        };
        let rand = IoStats {
            seq_pages: 0,
            rand_hits: 0,
            rand_misses: 100,
        };
        assert!(rand.estimated_secs(&cfg) > 10.0 * seq.estimated_secs(&cfg));
    }

    #[test]
    fn table_pages_rounds_up() {
        let cfg = IoConfig::default();
        assert_eq!(table_pages(1, 4, &cfg), 1);
        assert_eq!(table_pages(129, 4, &cfg), 2);
        assert_eq!(rows_per_page(4, &cfg), 128);
    }
}
