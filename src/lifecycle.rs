//! The staged query lifecycle behind [`Database::execute`] and
//! [`Session::execute`](crate::Session::execute) (DESIGN.md §15).
//!
//! One call runs top to bottom through:
//!
//! 1. **Resolve** — per-query option → session default → ambient
//!    [`ctx`] setter → the database's [`Config`] → built-in default,
//!    once, into a [`Query`].
//! 2. **Early exits** — `ANALYZE`, `nra_sys.*` introspection and
//!    `explain_only` return before any per-query state exists.
//! 3. **Stages** — admission permit → catalog read guard → [`Stages`]
//!    (metrics scope → trace sinks → progress + registry entry → profile
//!    collector → I/O simulator → governor + thread budget + batch
//!    width). Every stage is RAII: whatever was acquired is released in
//!    reverse order on every path out, including an unwind.
//! 4. **Run** — [`Database::run_statements`] under `exec::contain`.
//! 5. **Finish** — one [`Summary`] computed once and handed to the four
//!    reporters: counters, registry record, slow log, analyzed plan.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use nra_core::{CardEstimates, Strategy};
use nra_engine::exec::{self, MAX_THREADS};
use nra_engine::vec::DEFAULT_BATCH_ROWS;
use nra_engine::{ctx, governor, Config, Governor, QueryCtx};
use nra_obs::metrics::{self, Registry};
use nra_obs::progress::{self, ProgressState};
use nra_obs::trace::{self, TraceEvent};
use nra_obs::{queryreg, slowlog, Profile};
use nra_sql::{BoundQuery, SqlError};
use nra_storage::{iosim, Catalog, Relation};

use crate::plancache::{self, CachedPlan};
use crate::{sys, Database, Engine, NraError, QueryOptions, QueryOutcome};

/// Who is executing: the session stamped into the query registry, and
/// whether this is the nested call answering an `nra_sys.*` query — which
/// stays out of the registry, the progress tracker, the slow-query log
/// and the plan cache (no self-recursion, no pollution from transient
/// overlay databases).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Caller {
    pub session: u64,
    pub introspection: bool,
}

/// One statement with everything resolved that more than one stage
/// reads.
struct Query<'a> {
    sql: &'a str,
    /// `sql` normalized once: the plan-cache key, the registry's and the
    /// slow log's statement text.
    statement: String,
    options: &'a QueryOptions,
    config: &'a Config,
    caller: Caller,
    threads: usize,
}

/// The result plus the plan it ran from (shared with the plan cache),
/// from which `finish` renders single-statement plans.
type Executed = Result<(Relation, Arc<CachedPlan>), NraError>;

impl Database {
    /// The real entry point behind [`Database::execute`] and
    /// [`Session::execute_with`](crate::Session::execute_with).
    pub(crate) fn execute_inner(
        &self,
        sql: &str,
        options: &QueryOptions,
        caller: Caller,
    ) -> Result<QueryOutcome, NraError> {
        let config = self.config()?;
        let ambient = ctx::current();
        let threads = options
            .threads
            .or(ambient.threads)
            .or(config.threads)
            .unwrap_or(1)
            .clamp(1, MAX_THREADS);

        // Metadata paths bypass the admission gate below: inspecting a
        // saturated database must itself never queue.
        if let Some(table) = nra_sql::parse_analyze(sql)? {
            return self.run_analyze(&table, threads);
        }
        if !caller.introspection && sys::mentions_sys(sql) {
            if let Some(result) = sys::dispatch(self, sql, options, caller.session) {
                return result;
            }
        }
        if options.explain_only {
            let plan = self.explain_text(&self.catalog(), sql)?;
            return Ok(QueryOutcome::plan_only(plan, threads));
        }

        // A refused query never registers, traces or profiles: the gate
        // sits before any per-query state exists. The permit reserves
        // exactly the budget the query's governor will enforce.
        let mem_reserve = options.mem_limit_bytes.or(config.mem_limit).unwrap_or(0);
        let _permit = self
            .admission()
            .admit(mem_reserve)
            .map_err(NraError::Engine)?;
        // One shared-read guard for the whole query: one catalog
        // snapshot, concurrent readers proceed, writers wait.
        let cat = self.catalog();
        let query = Query {
            sql,
            statement: nra_sql::normalize::normalize(sql),
            options,
            config,
            caller,
            threads,
        };
        let stages = Stages::enter(&query, ambient);

        // One checkpoint before any work: an already-cancelled token or
        // a zero timeout stops even queries whose plans never reach an
        // instrumented operator loop. `contain` turns a panic that
        // escapes the worker harness (an injected coordinator panic)
        // into a structured error.
        let result = governor::checkpoint("query-start")
            .map_err(NraError::Engine)
            .and_then(|()| exec::contain("query", || self.run_statements(&cat, &query)));
        stages.finish(&query, &cat, result)
    }
}

/// The teardown half of a stage that needs nothing else: runs on drop,
/// on every path out.
struct Defer(fn());

impl Drop for Defer {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Live progress installed on this thread plus the query's row in the
/// process-wide running table. The governor's row-checkpoint cadence
/// feeds the progress state, so operator counters are untouched.
struct RegistryEntry {
    progress: Arc<ProgressState>,
    id: Option<u64>,
    _installed: progress::ProgressGuard,
}

impl RegistryEntry {
    fn open(statement: &str) -> RegistryEntry {
        let progress = Arc::new(ProgressState::new());
        RegistryEntry {
            id: Some(queryreg::global().register(statement, progress.clone())),
            _installed: progress::install(Some(progress.clone())),
            progress,
        }
    }

    /// Pin the progress snapshot to 100% with the profile's row total
    /// (the governor-cadence ticks undercount by design) and move the
    /// query from the running table into the completed ring.
    fn complete(&mut self, q: &Query<'_>, s: &Summary, processed: u64) {
        self.progress.raise_mem(s.mem_high_water);
        let phase = if s.outcome == "ok" { "done" } else { s.outcome };
        self.progress.finish(processed, phase);
        if let Some(id) = self.id.take() {
            queryreg::global().complete(queryreg::QueryRecord {
                id,
                sql: q.statement.clone(),
                outcome: s.outcome.to_string(),
                wall_ms: s.wall_ms,
                rows: s.rows,
                threads: q.threads as u64,
                qerror_x100: s.qerror_max_x100,
                mem_bytes: s.mem_high_water,
                strategy: s.strategy.to_string(),
                session: q.caller.session,
            });
        }
    }
}

impl Drop for RegistryEntry {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            queryreg::global().forget(id);
        }
    }
}

/// What one query did, computed once in [`Stages::finish`] and read by
/// every reporter.
struct Summary {
    /// `"ok"`, the engine error's variant name, `"storage"` or `"sql"`.
    outcome: &'static str,
    wall_ms: u64,
    rows: u64,
    strategy: &'static str,
    mem_high_water: u64,
    qerror_max_x100: u64,
}

/// The per-query stages in acquisition order (see the module docs).
/// Fields are declared in *reverse* acquisition order: Rust drops fields
/// top to bottom, so an early return or unwind releases the last stage
/// first.
struct Stages {
    ctx: ctx::CtxGuard,
    governor: Option<Arc<Governor>>,
    /// The I/O simulator, when this call (and not its caller) enabled it.
    iosim: Option<Defer>,
    /// Per-operator stats collection on this thread.
    profile: Option<Defer>,
    entry: Option<RegistryEntry>,
    started: Instant,
    /// The lifecycle tracer: a ring buffer plus the configured mirrors.
    trace: Option<(trace::RingHandle, Defer)>,
    query_metrics: Option<Arc<Registry>>,
    _metrics_scope: metrics::QueryGuard,
}

impl Stages {
    fn enter(q: &Query<'_>, ambient: QueryCtx) -> Stages {
        // A fresh per-query registry on this thread (and, through the
        // worker context, on every worker); the process-cumulative
        // registry keeps accumulating regardless.
        let query_metrics = (q.options.collect_metrics || q.config.metrics_path.is_some())
            .then(|| Arc::new(Registry::new()));
        let _metrics_scope = metrics::install_query(query_metrics.clone());
        let trace = q.options.collect_trace.then(|| {
            let (ring, handle) = trace::RingSink::with_capacity(4096);
            let mut sinks: Vec<Box<dyn trace::TraceSink>> = vec![Box::new(ring)];
            sinks.extend(trace::mirror_sinks(
                q.config.trace_stderr,
                q.config.trace_file.as_deref(),
            ));
            trace::start(sinks);
            trace::emit(|| TraceEvent::QueryStart {
                sql: q.sql.to_string(),
            });
            (handle, Defer(trace::stop))
        });
        let started = Instant::now();
        let entry = (!q.caller.introspection).then(|| RegistryEntry::open(&q.statement));
        // Per-operator stats feed `outcome.profile`, the derived
        // per-query metrics, and the Q-error actuals behind the trace's
        // `qerror_summary` event.
        let want_profile =
            q.options.collect_profile || query_metrics.is_some() || q.options.collect_trace;
        let profile = want_profile.then(|| {
            nra_obs::enable();
            Defer(|| {
                nra_obs::disable();
            })
        });
        let iosim = (q.options.simulate_io && !iosim::is_enabled()).then(|| {
            iosim::enable(iosim::IoConfig::default());
            Defer(|| {
                iosim::disable();
            })
        });
        // Ungoverned queries install `None`, keeping the context's flag
        // byte at 0 whatever the caller had installed.
        let governor = q.options.governor(q.config).map(Arc::new);
        let batch_rows = ambient
            .batch_rows
            .or(q.config.batch_rows)
            .unwrap_or(DEFAULT_BATCH_ROWS);
        let ctx = ctx::enter(QueryCtx {
            threads: Some(q.threads),
            morsel_rows: ambient.morsel_rows,
            batch_rows: Some(batch_rows),
            governor: governor.clone(),
        });
        Stages {
            ctx,
            governor,
            iosim,
            profile,
            entry,
            started,
            trace,
            query_metrics,
            _metrics_scope,
        }
    }

    /// Tear the stages down in order, compute the [`Summary`] once, and
    /// run the reporters. Failed queries report too — they are exactly
    /// when telemetry matters.
    fn finish(
        self,
        q: &Query<'_>,
        cat: &Catalog,
        result: Executed,
    ) -> Result<QueryOutcome, NraError> {
        let Stages {
            governor,
            mut entry,
            started,
            query_metrics,
            ..
        } = self;
        let outcome = match &result {
            Ok(_) => "ok",
            Err(NraError::Engine(e)) => e.variant_name(),
            Err(NraError::Storage(_)) => "storage",
            Err(NraError::Sql(_)) => "sql",
        };
        // The profile is taken while the simulator still runs: its I/O
        // footer is read from the live counters.
        let mut profile = self.profile.and_then(|_| nra_obs::disable());
        if let Some(p) = &mut profile {
            let label = match outcome {
                "ok" | "cancelled" | "resource-exhausted" | "worker-panicked" => outcome,
                _ => "error",
            };
            p.outcome = Some(label.to_string());
            p.threads = q.threads;
        }
        drop(self.iosim);
        // Leaving the context flushes this thread's pending charges, after
        // which `mem_used()` is the query's memory high-water mark. It
        // goes to the trace and a process-level gauge, never the
        // per-query scope: charge interleaving makes the peak
        // scheduling-dependent.
        drop(self.ctx);
        let mem_high_water = governor.as_ref().map_or(0, |g| g.mem_used());
        if governor.is_some() {
            trace::emit(|| TraceEvent::Governor {
                action: "mem-high-water".to_string(),
                detail: format!("{mem_high_water} bytes"),
            });
            metrics::global().gauge_max("nra_query_mem_high_water_bytes", &[], mem_high_water);
        }

        // Plans are rendered for single statements only.
        let bound = match &result {
            Ok((_, plan)) if plan.query.compounds.is_empty() => Some(&plan.bound_first),
            _ => None,
        };
        let estimates = match (&profile, bound) {
            (Some(_), Some(bound)) => Some(nra_core::estimate(bound, cat)),
            _ => None,
        };
        let summary = Summary {
            outcome,
            qerror_max_x100: report_qerror(profile.as_ref(), estimates.as_ref()),
            wall_ms: started.elapsed().as_millis() as u64,
            rows: result.as_ref().map_or(0, |(rel, _)| rel.len() as u64),
            strategy: strategy_label(q.options.engine, bound),
            mem_high_water,
        };
        record_counters(&summary, profile.as_ref());
        if let Some(entry) = &mut entry {
            let processed = profile
                .as_ref()
                .map_or(0, |p| p.ops.iter().map(|(_, s)| s.rows_in).sum());
            entry.complete(q, &summary, processed);
        }
        let trace = self.trace.map(|(handle, stop)| {
            if result.is_ok() {
                trace::emit(|| TraceEvent::QueryEnd {
                    rows: summary.rows,
                    wall_ns: started.elapsed().as_nanos() as u64,
                });
            }
            drop(stop);
            handle.take()
        });

        // Snapshot the per-query scope before it is torn down, and feed
        // the `NRA_METRICS` sink.
        let metrics = query_metrics.as_ref().map(|r| r.snapshot());
        if let (Some(path), Some(snap)) = (&q.config.metrics_path, &metrics) {
            append_line(Path::new(path), &snap.to_jsonl());
        }

        // The analyzed plan is rendered only when the executed pipeline
        // matches the textbook operator tree node for node: Algorithm 1
        // (the two-pass original strategy) on a single statement. Other
        // strategies fuse or reorder operators away from the tree.
        let plan = match (&profile, bound, q.options.engine) {
            (Some(p), Some(b), Engine::NestedRelational(Strategy::Original))
                if q.options.collect_profile =>
            {
                Some(render_analyzed_plan(b, p, estimates.as_ref(), summary.rows))
            }
            _ => None,
        };
        let progress = entry.as_ref().map(|e| e.progress.snapshot());
        if let Some(progress) = &progress {
            report_slow(q, &summary, plan.as_deref(), profile.as_ref(), progress);
        }

        let (rows, _) = result?;
        Ok(QueryOutcome {
            rows,
            plan,
            profile: profile.filter(|_| q.options.collect_profile),
            metrics,
            trace,
            threads: q.threads,
            progress,
        })
    }
}

/// Cardinality feedback: planner estimates vs. measured actuals as the
/// per-node Q-error (×100; 100 = perfect), to the trace and both metric
/// scopes. Returns the worst node (0 when nothing was comparable).
fn report_qerror(profile: Option<&Profile>, estimates: Option<&CardEstimates>) -> u64 {
    let (Some(profile), Some(estimates)) = (profile, estimates) else {
        return 0;
    };
    let qerrs: Vec<u64> = estimates
        .iter()
        .filter_map(|(key, est)| {
            merged_rows_out(profile, key).map(|act| nra_core::qerror_x100(est, act))
        })
        .collect();
    let Some(max_x100) = qerrs.iter().copied().max() else {
        return 0;
    };
    let nodes = qerrs.len();
    let mean_x100 = qerrs.iter().sum::<u64>() / nodes as u64;
    trace::emit(|| TraceEvent::QErrorSummary {
        nodes,
        max_x100,
        mean_x100,
    });
    metrics::both(|m| {
        for q in &qerrs {
            m.observe("nra_qerror_x100", &[], *q);
        }
    });
    max_x100
}

/// Query-level counters, recorded in both scopes. Everything here is
/// derived from the merged profile or the result, never from
/// scheduling, so the per-query scope stays thread-invariant.
fn record_counters(s: &Summary, profile: Option<&Profile>) {
    metrics::both(|m| {
        m.counter_add("nra_queries_total", &[("outcome", s.outcome)], 1);
        if s.outcome == "ok" {
            m.counter_add("nra_rows_produced_total", &[], s.rows);
        } else {
            m.counter_add("nra_errors_total", &[("variant", s.outcome)], 1);
        }
        if let Some(p) = profile {
            record_op_metrics(m, p);
        }
    });
}

/// Slow-query log: threshold from the options or `NRA_SLOW_MS` (`0`
/// logs everything); the record goes to the options' or `NRA_SLOW_LOG`'s
/// path when one is configured.
fn report_slow(
    q: &Query<'_>,
    s: &Summary,
    plan: Option<&str>,
    profile: Option<&Profile>,
    progress: &progress::ProgressSnapshot,
) {
    let threshold = q.options.slow_ms.or(q.config.slow_ms);
    if threshold.is_none_or(|t| s.wall_ms < t) {
        return;
    }
    metrics::both(|m| m.counter_add("nra_slow_queries_total", &[], 1));
    let path = q
        .options
        .slow_log
        .as_deref()
        .or(q.config.slow_log.as_deref().map(Path::new));
    if let Some(path) = path {
        let record = slowlog::SlowRecord {
            statement: &q.statement,
            outcome: s.outcome,
            wall_ms: s.wall_ms,
            threads: q.threads as u64,
            rows: s.rows,
            strategy: s.strategy,
            mem_bytes: s.mem_high_water,
            plan,
            profile,
            progress,
        };
        append_line(path, &record.to_jsonl());
    }
}

/// Best-effort append to a JSONL sink (`NRA_METRICS`, the slow log): a
/// telemetry file that cannot be written never fails the query.
fn append_line(path: &Path, line: &str) {
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
}

fn render_analyzed_plan(
    bound: &BoundQuery,
    profile: &Profile,
    estimates: Option<&CardEstimates>,
    rows: u64,
) -> String {
    let tree = nra_core::TreeExpr::build(bound);
    let mut out = tree.render_plan_analyzed_with_estimates(profile, estimates);
    out.push_str(&format!(
        "-- {rows} row(s); total operator time {:.3} ms\n",
        profile.total_wall_ns() as f64 / 1e6
    ));
    if let Some(io) = &profile.io {
        out.push_str(&format!(
            "-- io: {} sequential page(s), {} random hit(s), {} random miss(es)\n",
            io.seq_pages, io.rand_hits, io.rand_misses
        ));
    }
    out
}

impl Database {
    /// `ANALYZE <table>`: recompute per-column statistics (distinct-value
    /// and null counts) used by the cardinality estimator, returning the
    /// summary as plan text. Counts as a catalog write for plan-cache
    /// purposes: fresh statistics can change strategy and estimate
    /// choices, so cached plans are invalidated.
    fn run_analyze(&self, table: &str, threads: usize) -> Result<QueryOutcome, NraError> {
        let stats = self.catalog().table(table)?.analyze();
        if self.is_durable() {
            // Statistics steer the planner; losing them across a
            // restart would silently change plan shapes, so ANALYZE is
            // logged like any other catalog mutation.
            self.durable_log(&nra_storage::wal::WalRecord::Analyze {
                table: table.to_string(),
                stats: stats.clone(),
            })?;
        }
        self.shared.invalidate_plans();
        self.after_durable_mutation();
        metrics::both(|m| m.counter_add("nra_analyze_total", &[("table", table)], 1));
        let mut plan = format!("analyze {table}: {} row(s)\n", stats.row_count);
        for col in &stats.columns {
            plan.push_str(&format!(
                "  {}: ndv={} nulls={}\n",
                col.name, col.ndv, col.null_count
            ));
        }
        Ok(QueryOutcome::plan_only(plan, threads))
    }

    /// Parse and run a full (possibly compound) query through the
    /// engine in `options`, returning the result and the shared plan it
    /// ran from.
    ///
    /// Repeat statements are answered from the process-wide plan cache
    /// (keyed on this database's id plus the normalized SQL, valid
    /// while the schema version matches): a hit skips the parser and
    /// binder entirely. Cache counters live in the global metrics
    /// scope only — whether a statement hits depends on process
    /// history, which must not leak into the thread-invariant per-query
    /// snapshot.
    fn run_statements(&self, cat: &Catalog, q: &Query<'_>) -> Executed {
        let engine = q.options.engine;
        let version = self.shared.version.load(Ordering::SeqCst);
        // Cache policy: explicit option > `NRA_PLAN_CACHE` > on.
        // Introspection calls never use the cache (their overlay
        // databases are transient).
        let use_cache =
            !q.caller.introspection && q.options.plan_cache.or(q.config.plan_cache).unwrap_or(true);
        let cache_key = use_cache.then_some(q.statement.as_str());
        let plan = match cache_key.and_then(|key| plancache::lookup(self.shared.id, version, key)) {
            Some(plan) => {
                trace::emit(|| TraceEvent::Governor {
                    action: "plan-cache".to_string(),
                    detail: "hit".to_string(),
                });
                plan
            }
            None => {
                let query = nra_sql::parse_query(q.sql)?;
                let bound_first = nra_sql::bind(&query.first, cat)?;
                let bound_rest = query
                    .compounds
                    .iter()
                    .map(|part| nra_sql::bind(&part.stmt, cat))
                    .collect::<Result<Vec<_>, _>>()?;
                let plan = Arc::new(CachedPlan {
                    strategy: strategy_label(engine, Some(&bound_first)),
                    query,
                    bound_first,
                    bound_rest,
                });
                if let Some(key) = cache_key {
                    plancache::insert(self.shared.id, version, key.to_string(), Arc::clone(&plan));
                }
                plan
            }
        };
        let (query, bound_first, bound_rest) = (&plan.query, &plan.bound_first, &plan.bound_rest);
        // Seed the progress denominator from the planner's cardinality
        // estimates for the first block (compound arms only add to the
        // numerator, which the 99%-cap before `finish` absorbs).
        if let Some(p) = progress::current() {
            let est = nra_core::estimate(bound_first, cat);
            p.set_estimated(est.iter().map(|(_, v)| v).sum());
        }
        let mut exec_phase = trace::phase(|| "execute".to_string());
        let mut rel = self.run_bound(cat, bound_first, engine)?;
        for (part, bound) in query.compounds.iter().zip(bound_rest) {
            let right = self.run_bound(cat, bound, engine)?;
            use nra_engine::ops::setops;
            use nra_sql::SetOpKind;
            rel = match (part.op, part.all) {
                (SetOpKind::Union, false) => setops::union(&rel, &right),
                (SetOpKind::Union, true) => setops::union_all(&rel, &right),
                (SetOpKind::Intersect, false) => setops::intersect(&rel, &right),
                (SetOpKind::Intersect, true) => setops::intersect_all(&rel, &right),
                (SetOpKind::Except, false) => setops::difference(&rel, &right),
                (SetOpKind::Except, true) => setops::difference_all(&rel, &right),
            }?;
        }
        if !query.order_by.is_empty() {
            let mut keys = Vec::new();
            for (expr, desc) in &query.order_by {
                let idx = match expr {
                    // SQL-style positional reference: ORDER BY 1.
                    nra_sql::ScalarExpr::Literal(nra_storage::Value::Int(n))
                        if *n >= 1 && (*n as usize) <= rel.schema().len() =>
                    {
                        *n as usize - 1
                    }
                    nra_sql::ScalarExpr::Column { qualifier, name } => {
                        let full = match qualifier {
                            Some(q) => format!("{q}.{name}"),
                            None => name.clone(),
                        };
                        rel.schema().resolve(&full).map_err(NraError::Storage)?
                    }
                    other => {
                        return Err(NraError::Sql(SqlError::bind(format!(
                            "ORDER BY supports output columns and positions, not `{other}`"
                        ))))
                    }
                };
                keys.push((idx, *desc));
            }
            rel.rows_mut().sort_by(|a, b| {
                for &(idx, desc) in &keys {
                    let ord = a[idx].total_cmp(&b[idx]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = query.limit {
            rel.rows_mut().truncate(n);
        }
        exec_phase.set_rows(rel.len() as u64);
        drop(exec_phase);
        Ok((rel, plan))
    }

    /// Execute a prepared (bound) single statement.
    fn run_bound(
        &self,
        cat: &Catalog,
        query: &BoundQuery,
        engine: Engine,
    ) -> Result<Relation, NraError> {
        Ok(match engine {
            Engine::NestedRelational(strategy) => nra_core::execute(query, cat, strategy)?,
            Engine::Baseline => nra_engine::baseline::execute(query, cat)?,
            Engine::Reference => nra_engine::reference::evaluate(query, cat)?,
        })
    }

    /// The one-line `EXPLAIN` text. For a compound query, explains the
    /// first `SELECT` block and notes the set operations applied on top.
    fn explain_text(&self, cat: &Catalog, sql: &str) -> Result<String, NraError> {
        let parsed = nra_sql::parse_query(sql)?;
        let suffix = if parsed.compounds.is_empty() {
            String::new()
        } else {
            format!(
                "; then {} set operation(s) over the per-block results",
                parsed.compounds.len()
            )
        };
        let bound = nra_sql::bind(&parsed.first, cat)?;
        let nr = match nra_core::auto_strategy(&bound) {
            Strategy::PositiveRewrite => "positive rewrite (semijoin cascade)",
            Strategy::BottomUpPushdown => "bottom-up with nest push-down",
            Strategy::BottomUp => "bottom-up",
            Strategy::Optimized => "single-sort pipelined cascade",
            Strategy::Original => "Algorithm 1 (two-pass)",
            Strategy::Auto => unreachable!("auto resolves to a concrete strategy"),
        };
        let baseline = nra_engine::baseline::describe(&bound, cat);
        Ok(format!(
            "nested relational: {nr}; baseline (System A): {baseline}{suffix}"
        ))
    }
}

/// Short machine-readable name of the strategy a query ran with, for
/// the query registry and slow-query log. `Auto` is resolved to the
/// concrete strategy when the bound query is available (single-statement
/// successes); otherwise it stays `auto`.
fn strategy_label(engine: Engine, bound: Option<&BoundQuery>) -> &'static str {
    match engine {
        Engine::Baseline => "baseline",
        Engine::Reference => "reference",
        Engine::NestedRelational(s) => {
            let s = match (s, bound) {
                (Strategy::Auto, Some(b)) => nra_core::auto_strategy(b),
                (s, _) => s,
            };
            match s {
                Strategy::Auto => "auto",
                Strategy::Original => "original",
                Strategy::Optimized => "optimized",
                Strategy::BottomUp => "bottom-up",
                Strategy::BottomUpPushdown => "bottom-up-pushdown",
                Strategy::PositiveRewrite => "positive-rewrite",
            }
        }
    }
}

/// Sum of `rows_out` over every profile entry matching `prefix` exactly
/// or with a `[kind]` suffix (`b2/nest` matches `b2/nest[sort]`); `None`
/// when nothing matched — the estimator may cover nodes an optimized
/// pipeline fused away.
fn merged_rows_out(profile: &Profile, prefix: &str) -> Option<u64> {
    let mut acc: Option<u64> = None;
    for (name, stats) in &profile.ops {
        let matches =
            name == prefix || (name.starts_with(prefix) && name[prefix.len()..].starts_with('['));
        if matches {
            *acc.get_or_insert(0) += stats.rows_out;
        }
    }
    acc
}

/// Project a merged profile into per-operator metric counters.
///
/// Wall times and partition counts stay out deliberately: every counter
/// recorded here is identical at any thread count, which is what makes
/// the per-query metrics scope deterministic.
fn record_op_metrics(reg: &Registry, profile: &Profile) {
    for (name, s) in &profile.ops {
        let labels = [("op", name.as_str())];
        reg.counter_add("nra_op_invocations_total", &labels, s.invocations);
        reg.counter_add("nra_op_rows_in_total", &labels, s.rows_in);
        reg.counter_add("nra_op_rows_out_total", &labels, s.rows_out);
        if s.hash_entries > 0 {
            reg.counter_add("nra_op_hash_entries_total", &labels, s.hash_entries);
        }
        if s.hash_bytes > 0 {
            reg.counter_add("nra_op_hash_bytes_total", &labels, s.hash_bytes);
        }
        if s.nest_groups > 0 {
            reg.counter_add("nra_op_nest_groups_total", &labels, s.nest_groups);
        }
        if s.padded > 0 {
            reg.counter_add("nra_op_padded_total", &labels, s.padded);
        }
        for (count, outcome) in [(s.pass, "pass"), (s.fail, "fail"), (s.unknown, "unknown")] {
            if count > 0 {
                reg.counter_add(
                    "nra_op_link_outcomes_total",
                    &[("op", name.as_str()), ("outcome", outcome)],
                    count,
                );
            }
        }
    }
}
