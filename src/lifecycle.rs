//! The staged query lifecycle behind [`Database::execute`] and
//! [`Session::execute`](crate::Session::execute) (DESIGN.md §15).
//!
//! One call runs top to bottom through:
//!
//! 1. **Resolve** — per-query option → session default → the
//!    database's [`Config`] → built-in default, once, into a [`Query`].
//! 2. **Early exits** — `ANALYZE`, `nra_sys.*` introspection and
//!    `explain_only` return before any per-query state exists.
//! 3. **Stages** — admission permit → catalog read guard → [`Stages`]
//!    (registry entry → one observability slot: profile, trace, progress,
//!    per-query metrics, I/O simulator → governor, beside the caller's
//!    batch-width override → a fresh fault plan). Every
//!    stage is RAII: whatever was acquired is released in reverse order on
//!    every path out, including an unwind.
//! 4. **Run** — [`Database::run_statements`] under `exec::contain`.
//! 5. **Finish** — one [`Summary`] computed once and handed to the four
//!    reporters: counters, registry record, slow log, analyzed plan.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use nra_core::{CardEstimates, Engine, PhysPlan};
use nra_engine::exec;
use nra_engine::{ctx, governor, Config, Governor};
use nra_obs::metrics::{self, Registry};
use nra_obs::progress::{self, ProgressState};
use nra_obs::queryreg::{QueryRecord, QueryRegistry};
use nra_obs::trace::{self, TraceEvent};
use nra_obs::{slowlog, ObsGuard, Observers, Profile};
use nra_storage::fault::{self, FaultGuard, FaultPlan};
use nra_storage::{Catalog, Relation};

use crate::{sys, Database, NraError, QueryOptions, QueryOutcome};

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
}

/// The result and the plan it ran (shared with the plan cache).
type Executed = Result<(Relation, Arc<PhysPlan>), NraError>;

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

        // Metadata paths bypass the admission gate below: inspecting a
        // saturated database must itself never queue.
        if let Some(table) = nra_sql::parse_analyze(sql)? {
            return self.run_analyze(&table);
        }
        if !caller.introspection && sys::mentions_sys(sql) {
            if let Some(result) = sys::dispatch(self, sql, options, caller.session) {
                return result;
            }
        }
        if options.explain_only {
            let cat = self.catalog();
            let plan = build_plan(&cat, sql, options.engine)?;
            return Ok(QueryOutcome::plan_only(plan.explain(&cat)));
        }

        // A fault entry its site refuses fails before anything runs.
        let faults = options.fault_plan(config)?;

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
        };
        let stages = Stages::enter(self, &query, faults);
        let progress = stages.entry.as_ref().map(|e| &*e.progress);

        // One checkpoint before any work: an already-cancelled token or
        // a zero timeout stops even queries whose plans never reach an
        // instrumented operator loop. `contain` turns a panic anywhere in
        // the statement (an injected fault, an operator bug) into a
        // structured error.
        let result = governor::checkpoint("query-start")
            .map_err(NraError::Engine)
            .and_then(|()| exec::contain("query", || self.run_statements(&cat, &query, progress)));
        stages.finish(&query, &cat, result)
    }
}

/// Live progress, armed on this thread by the observability slot, plus
/// the query's row in the database's running table. The governor's
/// row-checkpoint cadence feeds the progress state, so operator counters
/// are untouched.
struct RegistryEntry<'a> {
    registry: &'a QueryRegistry,
    progress: Arc<ProgressState>,
    id: Option<u64>,
}

impl<'a> RegistryEntry<'a> {
    fn open(registry: &'a QueryRegistry, statement: &str) -> RegistryEntry<'a> {
        let progress = Arc::new(ProgressState::new());
        RegistryEntry {
            id: Some(registry.register(statement, progress.clone())),
            registry,
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
            self.registry.complete(QueryRecord {
                id,
                sql: q.statement.clone(),
                outcome: s.outcome.to_string(),
                wall_ms: s.wall_ms,
                rows: s.rows,
                qerror_x100: s.qerror_max_x100,
                mem_bytes: s.mem_high_water,
                strategy: s.strategy.to_string(),
                session: q.caller.session,
            });
        }
    }
}

impl Drop for RegistryEntry<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            self.registry.forget(id);
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
struct Stages<'a> {
    /// The query's own fault plan, armed on this thread.
    _faults: Option<FaultGuard>,
    ctx: ctx::CtxGuard,
    governor: Option<Arc<Governor>>,
    /// Profile, trace, progress, per-query metrics and the I/O simulator,
    /// armed as this thread's one observability slot.
    obs: ObsGuard,
    /// This query armed its own profile collector.
    profile: bool,
    /// This query armed its own tracer.
    traced: bool,
    started: Instant,
    entry: Option<RegistryEntry<'a>>,
    query_metrics: Option<Arc<Registry>>,
}

impl<'a> Stages<'a> {
    fn enter(db: &'a Database, q: &Query<'_>, faults: Option<FaultPlan>) -> Stages<'a> {
        // A fresh per-query registry on this thread; the
        // process-cumulative registry keeps accumulating regardless.
        let query_metrics = (q.options.collect_metrics || q.config.metrics_path.is_some())
            .then(|| Arc::new(Registry::new()));
        let entry =
            (!q.caller.introspection).then(|| RegistryEntry::open(db.queries(), &q.statement));
        // Per-operator stats feed `outcome.profile`, the derived
        // per-query metrics, and the Q-error actuals behind the trace's
        // `qerror_summary` event.
        let profile =
            q.options.collect_profile || query_metrics.is_some() || q.options.collect_trace;
        let traced = q.options.collect_trace;
        let obs = nra_obs::enter(Observers {
            profile,
            trace: traced,
            progress: entry.as_ref().map(|e| e.progress.clone()),
            metrics: query_metrics.clone(),
            simulate_io: q.options.simulate_io,
        });
        if traced {
            trace::emit(|| TraceEvent::QueryStart {
                sql: q.sql.to_string(),
            });
        }
        let started = Instant::now();
        // Ungoverned queries install `None`, keeping the context's flag
        // byte at 0 whatever the caller had installed. The caller's
        // batch-width override passes through unchanged.
        let governor = q.options.governor(q.config).map(Arc::new);
        let ctx = governor::install(governor.clone());
        Stages {
            _faults: faults.map(fault::install),
            ctx,
            governor,
            obs,
            profile,
            traced,
            started,
            entry,
            query_metrics,
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
            _faults,
            ctx,
            governor,
            obs,
            profile,
            traced,
            started,
            mut entry,
            query_metrics,
        } = self;
        let outcome = match &result {
            Ok(_) => "ok",
            Err(NraError::Engine(e)) => e.variant_name(),
            Err(NraError::Storage(_)) => "storage",
            Err(NraError::Sql(_)) => "sql",
        };
        // The profile is read while the simulator still runs (it stops
        // with `obs`): its I/O footer comes from the live counters.
        let mut profile = profile.then(nra_obs::snapshot);
        if let Some(p) = &mut profile {
            let label = match outcome {
                "ok" | "cancelled" | "resource-exhausted" | "worker-panicked" => outcome,
                _ => "error",
            };
            p.outcome = Some(label.to_string());
        }
        // `mem_used()` is the query's memory high-water mark. It goes to
        // the trace and a process-level gauge, never the per-query scope,
        // which holds only counters derived from the profile.
        drop(ctx);
        let mem_high_water = governor.as_ref().map_or(0, |g| g.mem_used());
        if governor.is_some() {
            trace::emit(|| TraceEvent::Governor {
                action: "mem-high-water".to_string(),
                detail: format!("{mem_high_water} bytes"),
            });
            metrics::global().gauge_max("nra_query_mem_high_water_bytes", &[], mem_high_water);
        }

        // The plan that ran names the strategy and carries the estimates.
        let ran = result.as_ref().ok().map(|(_, plan)| &**plan);
        let estimates = match (&profile, ran) {
            (Some(_), Some(plan)) => Some(plan.estimate(cat)),
            _ => None,
        };
        let summary = Summary {
            outcome,
            qerror_max_x100: report_qerror(profile.as_ref(), estimates.as_ref()),
            wall_ms: started.elapsed().as_millis() as u64,
            rows: result.as_ref().map_or(0, |(rel, _)| rel.len() as u64),
            strategy: ran.map_or(q.options.engine, PhysPlan::engine).name(),
            mem_high_water,
        };
        record_counters(&summary, profile.as_ref());
        if let Some(entry) = &mut entry {
            let processed = profile
                .as_ref()
                .map_or(0, |p| p.ops.iter().map(|(_, s)| s.rows_in).sum());
            entry.complete(q, &summary, processed);
        }
        if traced && result.is_ok() {
            trace::emit(|| TraceEvent::QueryEnd {
                rows: summary.rows,
                wall_ns: started.elapsed().as_nanos() as u64,
            });
        }
        let (_, trace) = obs.finish();

        // Snapshot the per-query scope before it is torn down, and feed
        // the `NRA_METRICS` sink.
        let metrics = query_metrics.as_ref().map(|r| r.snapshot());
        if let (Some(path), Some(snap)) = (&q.config.metrics_path, &metrics) {
            append_line(Path::new(path), &snap.to_jsonl());
        }

        // The analyzed plan is the plan that ran.
        let plan = match (&profile, ran, &estimates) {
            (Some(p), Some(ran), Some(est)) if q.options.collect_profile => {
                Some(ran.render_analyzed(p, est, summary.rows))
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
            let act = nra_core::node_stats(profile, key)?.rows_out;
            Some(nra_core::qerror_x100(est, act))
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
/// derived from the profile or the result, never from timing, so the
/// per-query scope is the same on every run of a query.
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

impl Database {
    /// `ANALYZE <table>`: recompute per-column statistics (distinct-value
    /// and null counts) used by the cardinality estimator, returning the
    /// summary as plan text. Counts as a catalog write for plan-cache
    /// purposes: fresh statistics can change strategy and estimate
    /// choices, so cached plans are invalidated.
    fn run_analyze(&self, table: &str) -> Result<QueryOutcome, NraError> {
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
        Ok(QueryOutcome::plan_only(plan))
    }

    /// Plan and run a full (possibly compound) statement under the engine
    /// in `options`, returning the result and the shared plan it ran.
    ///
    /// Repeat statements are answered from this database's plan cache
    /// (keyed on the normalized SQL and the engine, valid while the schema
    /// version matches): a hit skips the parser, the binder and the
    /// planner entirely. Cache counters live in the global metrics
    /// scope only — whether a statement hits depends on process
    /// history, which must not leak into the per-query snapshot.
    fn run_statements(
        &self,
        cat: &Catalog,
        q: &Query<'_>,
        progress: Option<&ProgressState>,
    ) -> Executed {
        let engine = q.options.engine;
        let version = self.shared.version.load(Ordering::SeqCst);
        // Introspection calls never use the cache (their overlay
        // databases are transient).
        let cache_key = (!q.caller.introspection).then_some(q.statement.as_str());
        let plan = match cache_key.and_then(|key| self.shared.plans.lookup(version, key, engine)) {
            Some(plan) => {
                trace::emit(|| TraceEvent::Governor {
                    action: "plan-cache".to_string(),
                    detail: "hit".to_string(),
                });
                plan
            }
            None => {
                let plan = Arc::new(build_plan(cat, q.sql, engine)?);
                if let Some(key) = cache_key {
                    let plans = &self.shared.plans;
                    plans.insert(version, key.to_string(), engine, Arc::clone(&plan));
                }
                plan
            }
        };
        // Seed the progress denominator from the planner's cardinality
        // estimates.
        if let Some(p) = progress {
            p.set_estimated(plan.estimate(cat).iter().map(|(_, v)| v).sum());
        }
        let mut exec_phase = trace::phase(|| "execute".to_string());
        let rel = nra_core::run(&plan, cat)?;
        exec_phase.set_rows(rel.len() as u64);
        drop(exec_phase);
        Ok((rel, plan))
    }
}

/// Parse, bind and plan a statement under `engine`: the bind refuses a
/// statement that can never run (arity, `ORDER BY`), the build one the
/// engine's builder cannot plan.
fn build_plan(cat: &Catalog, sql: &str, engine: Engine) -> Result<PhysPlan, NraError> {
    let query = nra_sql::parse_query(sql)?;
    Ok(nra_core::build(
        nra_sql::bind_statement(&query, cat)?,
        engine,
    )?)
}

/// Project a merged profile into per-operator metric counters.
///
/// Wall times stay out deliberately: every counter recorded here is
/// identical on every run, which is what makes the per-query metrics
/// scope deterministic.
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
