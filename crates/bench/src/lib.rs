//! Shared harness for the paper-reproduction benchmarks.
//!
//! The `experiments` binary (which prints paper-style tables) and the
//! profile baselines go through this module, so a "series" is defined in
//! exactly one place:
//!
//! * **native** — the System-A-style baseline plans (index probes are
//!   prepared before timing, as the paper's pre-built indexes are);
//! * **NR-original** — Algorithm 1 with separate nest and linking
//!   selection passes;
//! * **NR-optimized** — the single-sort pipelined cascade.

pub mod baseline;
pub mod profile;

use std::time::{Duration, Instant};

use nra_core::Strategy;
use nra_engine::baseline::nested_iter::NestedIterPlan;
use nra_engine::baseline::{self as native_baseline, BaselineChoice};
use nra_engine::EngineError;
use nra_sql::BoundQuery;
use nra_storage::iosim::{self, IoConfig, IoStats};
use nra_storage::{Catalog, Relation};
use nra_tpch::{generate, TpchConfig};

pub use nra_tpch::{q1_agg_sql, q1_sql, q2_sql, q3_sql, ExistsKind, Q3Corr, Quant};

/// The three series every figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    Native,
    NrOriginal,
    NrOptimized,
}

impl Series {
    pub const ALL: [Series; 3] = [Series::Native, Series::NrOriginal, Series::NrOptimized];

    pub fn label(self) -> &'static str {
        match self {
            Series::Native => "native",
            Series::NrOriginal => "nr-original",
            Series::NrOptimized => "nr-optimized",
        }
    }
}

/// A query prepared for repeated timed execution.
pub struct PreparedQuery<'a> {
    pub catalog: &'a Catalog,
    pub bound: BoundQuery,
    pub sql: String,
    /// Pre-built nested-iteration plan when that is the native choice
    /// (probe indexes built once, as in the paper's setup).
    native_plan: Option<NestedIterPlan>,
}

impl<'a> PreparedQuery<'a> {
    pub fn new(catalog: &'a Catalog, sql: String) -> Result<PreparedQuery<'a>, EngineError> {
        let bound = nra_sql::parse_and_bind(&sql, catalog)?;
        let native_plan = match native_baseline::choose(&bound, catalog) {
            BaselineChoice::NestedIteration => Some(NestedIterPlan::prepare(&bound, catalog)?),
            BaselineChoice::SemiAntiCascade | BaselineChoice::PositiveUnnest => None,
        };
        Ok(PreparedQuery {
            catalog,
            bound,
            sql,
            native_plan,
        })
    }

    /// Execute one series once.
    pub fn run(&self, series: Series) -> Result<Relation, EngineError> {
        match series {
            Series::Native => match &self.native_plan {
                Some(plan) => plan.run(),
                None => native_baseline::execute(&self.bound, self.catalog),
            },
            Series::NrOriginal => nra_core::execute(&self.bound, self.catalog, Strategy::Original),
            Series::NrOptimized => {
                nra_core::execute(&self.bound, self.catalog, Strategy::Optimized)
            }
        }
    }

    /// What the native series actually does (for table footnotes).
    pub fn native_plan_label(&self) -> String {
        native_baseline::describe(&self.bound, self.catalog)
    }

    /// Time one series: runs `reps` times, returns (mean seconds, rows).
    pub fn time(&self, series: Series, reps: usize) -> (f64, usize) {
        let mut rows = 0;
        let mut total = Duration::ZERO;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let out = self.run(series).expect("benchmark query runs");
            total += start.elapsed();
            rows = out.len();
        }
        (total.as_secs_f64() / reps.max(1) as f64, rows)
    }
}

/// One measured point: CPU time (pure in-memory execution) plus simulated
/// disk I/O under the paper's environment (disk-resident data, small
/// buffer cache).
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    pub cpu_secs: f64,
    pub io: IoStats,
    /// Estimated elapsed seconds in the simulated environment:
    /// `cpu + seq_pages·t_seq + rand_misses·t_rand`.
    pub est_secs: f64,
    pub rows: usize,
}

impl<'a> PreparedQuery<'a> {
    /// Measure one series: CPU time averaged over `reps` runs with the
    /// simulator off, then one run with the simulator on (cold cache, as
    /// the paper flushed the buffer cache before each run).
    pub fn measure(&self, series: Series, reps: usize, io_cfg: &IoConfig) -> Measurement {
        let (cpu_secs, rows) = self.time(series, reps);
        iosim::enable(*io_cfg);
        self.run(series).expect("benchmark query runs");
        let io = iosim::disable().unwrap_or_default();
        Measurement {
            cpu_secs,
            io,
            est_secs: cpu_secs + io.estimated_secs(io_cfg),
            rows,
        }
    }
}

/// Total pages of every base table in the catalog under `cfg`.
pub fn catalog_pages(catalog: &Catalog, cfg: &IoConfig) -> u64 {
    catalog
        .table_names()
        .iter()
        .map(|name| {
            let t = catalog.table(name).unwrap();
            nra_storage::iosim::table_pages(t.len(), t.schema().len(), cfg)
        })
        .sum()
}

/// The I/O configuration matching the paper's environment *ratio*: the
/// testbed held ~1 GB of data against a 32 MB buffer cache, i.e. the cache
/// covers ~3.2% of the data. Absolute device parameters (8 KiB pages,
/// 0.1 ms/page sequential, 6 ms random) model the 2004-era SCSI disk.
pub fn io_config_for(catalog: &Catalog) -> IoConfig {
    let base = IoConfig::default();
    let total = catalog_pages(catalog, &base);
    IoConfig {
        cache_pages: ((total as f64 * 0.032).ceil() as usize).max(16),
        ..base
    }
}

/// The §5.2 in-text ablation: isolate the nest + linking-selection
/// processing cost from the (identical) join cost.
pub struct ProcessingCost {
    pub intermediate_rows: usize,
    pub original_secs: f64,
    pub optimized_secs: f64,
}

/// Measure the NR processing stage of a *linear* query: total strategy
/// time minus the shared unnesting-join time.
pub fn nr_processing_cost(
    catalog: &Catalog,
    sql: &str,
    reps: usize,
) -> Result<ProcessingCost, EngineError> {
    let bound = nra_sql::parse_and_bind(sql, catalog)?;
    let reps = reps.max(1);

    let time_it = |f: &dyn Fn() -> Result<usize, EngineError>| -> Result<f64, EngineError> {
        let mut total = Duration::ZERO;
        for _ in 0..reps {
            let start = Instant::now();
            f()?;
            total += start.elapsed();
        }
        Ok(total.as_secs_f64() / reps as f64)
    };

    let join_secs =
        time_it(&|| Ok(nra_core::optimize::pipeline::unnest_join_phase(&bound, catalog)?.len()))?;
    let intermediate_rows = nra_core::optimize::pipeline::unnest_join_phase(&bound, catalog)?.len();
    let original_total =
        time_it(&|| Ok(nra_core::execute(&bound, catalog, Strategy::Original)?.len()))?;
    let optimized_total =
        time_it(&|| Ok(nra_core::execute(&bound, catalog, Strategy::Optimized)?.len()))?;

    Ok(ProcessingCost {
        intermediate_rows,
        original_secs: (original_total - join_secs).max(0.0),
        optimized_secs: (optimized_total - join_secs).max(0.0),
    })
}

/// Build the shared benchmark catalog at a relative scale (1.0 = the
/// paper's block sizes).
pub fn bench_catalog(scale: f64) -> Catalog {
    generate(&TpchConfig::scaled(scale))
}

/// The catalog variant without NOT NULL constraints (Query 1 ablation).
pub fn bench_catalog_nullable(scale: f64) -> Catalog {
    generate(&TpchConfig::scaled(scale).nullable_links(0.0))
}

/// The paper's X-axis block-size grid, scaled: Query 1 sweeps the outer
/// block over 4K/8K/12K/16K (of 40K orders); Queries 2–3 sweep the first
/// block over 12K/24K/36K/48K (of 60K parts) with the second and third
/// fixed at 16K and 12K.
pub struct Grid {
    pub q1_outer: Vec<usize>,
    pub q23_part: Vec<usize>,
    pub q23_partsupp: usize,
}

pub fn paper_grid(scale: f64) -> Grid {
    let s = |n: f64| ((n * scale).round() as usize).max(4);
    Grid {
        q1_outer: vec![s(4_000.0), s(8_000.0), s(12_000.0), s(16_000.0)],
        q23_part: vec![s(12_000.0), s(24_000.0), s(36_000.0), s(48_000.0)],
        q23_partsupp: s(16_000.0),
    }
}

/// The three headline queries (largest grid point each) shared by the
/// profile baselines, the metrics export and the slow-log check.
pub fn headline_queries<'a>(
    strict: &'a Catalog,
    nullable: &'a Catalog,
    scale: f64,
) -> Vec<(&'static str, &'a Catalog, String)> {
    let grid = paper_grid(scale);
    let q1_outer = *grid.q1_outer.last().unwrap();
    let part = *grid.q23_part.last().unwrap();
    vec![
        ("Q1", nullable, q1_sql(nullable, q1_outer)),
        (
            "Q2A",
            strict,
            q2_sql(strict, Quant::Any, part, grid.q23_partsupp),
        ),
        (
            "Q2B",
            nullable,
            q2_sql(nullable, Quant::All, part, grid.q23_partsupp),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_query_runs_all_series() {
        let cat = bench_catalog(0.005);
        let sql = q1_sql(&cat, 50);
        let pq = PreparedQuery::new(&cat, sql).unwrap();
        let mut rows = None;
        for series in Series::ALL {
            let out = pq.run(series).unwrap();
            match rows {
                None => rows = Some(out.len()),
                Some(r) => assert_eq!(r, out.len(), "{series:?}"),
            }
        }
    }

    #[test]
    fn processing_cost_is_measurable() {
        let cat = bench_catalog(0.01);
        let sql = q1_sql(&cat, 100);
        let cost = nr_processing_cost(&cat, &sql, 2).unwrap();
        assert!(cost.intermediate_rows > 0);
        assert!(cost.original_secs >= 0.0);
        assert!(cost.optimized_secs >= 0.0);
    }

    #[test]
    fn grid_scales() {
        let g = paper_grid(1.0);
        assert_eq!(g.q1_outer, vec![4_000, 8_000, 12_000, 16_000]);
        assert_eq!(g.q23_partsupp, 16_000);
    }
}
