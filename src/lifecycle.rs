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
//!    (registry entry → one observability slot: the profile with the
//!    pipeline phases → one query context: governor and
//!    live progress, beside the caller's batch-width override → a fresh
//!    fault plan). Every stage is RAII: whatever was acquired is released
//!    in reverse order on every path out, including an unwind.
//! 4. **Run** — [`Database::run_statements`] under `exec::contain`.
//! 5. **Finish** — one [`QueryRecord`] computed once and read by every
//!    reporter: the global and per-query metrics, the slow log and the
//!    registry. The trace is rendered from the record, the profile and
//!    the plan. A failed query whose caller asked for an artifact returns
//!    them with its error ([`NraError::Failed`]).

use std::io::Write;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use nra_core::{CardEstimates, Engine, PhysPlan};
use nra_engine::{ctx, exec, faultinject, governor, Config, EngineError, Governor};
use nra_obs::metrics::{self, Registry};
use nra_obs::progress::ProgressState;
use nra_obs::queryreg::{QueryRecord, QueryRegistry};
use nra_obs::trace::Trace;
use nra_obs::{slowlog, ObsGuard, Profile};
use nra_storage::fault::{self, FaultGuard, FaultPlan};
use nra_storage::wal::WalRecord;
use nra_storage::{Catalog, Relation, Schema};

use crate::plancache::Planned;
use crate::{sys, Database, Failed, NraError, QueryOptions, QueryOutcome};

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

impl Query<'_> {
    /// Whether the query fills a per-query metrics scope: for
    /// `QueryOutcome::metrics` or the `NRA_METRICS` sink.
    fn per_query_metrics(&self) -> bool {
        self.options.collect_metrics || self.config.metrics_path.is_some()
    }

    /// Whether the query collects a profile: for `outcome.profile`, the
    /// per-query metrics, and the phases, operators and Q-errors the
    /// trace renders.
    fn profiled(&self) -> bool {
        self.options.collect_profile || self.per_query_metrics() || self.options.collect_trace
    }
}

/// The result, the plan it ran (shared with the plan cache), and whether
/// that plan came from the plan cache.
type Executed = Result<(Relation, Arc<Planned>, bool), NraError>;

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

        // A refused query never registers, traces or profiles, and has no
        // report to return: the gate sits before any per-query state
        // exists. The permit reserves exactly the budget the query's
        // governor will enforce.
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
        stages.finish(query, &cat, result)
    }
}

/// The query's row in the database's running table, with its live
/// progress; dropped uncompleted (an unwind), it leaves without a record.
struct RegistryEntry<'a> {
    registry: &'a QueryRegistry,
    progress: Arc<ProgressState>,
    id: Option<u64>,
}

impl Drop for RegistryEntry<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            self.registry.forget(id);
        }
    }
}

/// The per-query stages in acquisition order (see the module docs).
/// Fields are declared in *reverse* acquisition order: Rust drops fields
/// top to bottom, so an early return or unwind releases the last stage
/// first.
struct Stages<'a> {
    /// The query's own fault plan, armed on this thread.
    _faults: Option<FaultGuard>,
    /// The governor and live progress, installed in this thread's query
    /// context.
    ctx: ctx::CtxGuard,
    governor: Arc<Governor>,
    /// The profile, armed as this thread's one observability slot.
    obs: ObsGuard,
    started: Instant,
    entry: Option<RegistryEntry<'a>>,
}

impl<'a> Stages<'a> {
    fn enter(db: &'a Database, q: &Query<'_>, faults: Option<FaultPlan>) -> Stages<'a> {
        let entry = (!q.caller.introspection).then(|| {
            let (registry, progress) = (db.queries(), Arc::new(ProgressState::new()));
            let id = Some(registry.register(&q.statement, progress.clone()));
            RegistryEntry {
                registry,
                progress,
                id,
            }
        });
        let obs = nra_obs::enter(q.profiled());
        let started = Instant::now();
        // Every query gets a governor, which counts its memory whatever
        // it enforces. The caller's batch-width override passes through
        // unchanged.
        let governor = Arc::new(q.options.governor(q.config));
        let progress = entry.as_ref().map(|e| e.progress.clone());
        let ctx = ctx::update(|c| {
            c.governor = Some(governor.clone());
            c.progress = progress;
        });
        Stages {
            _faults: faults.map(fault::install),
            ctx,
            governor,
            obs,
            started,
            entry,
        }
    }

    /// Tear the stages down in order, compute the query's one
    /// [`QueryRecord`], and hand it to every reporter: the metrics
    /// scopes, the slow log and the registry, then render the trace.
    /// Failed queries report too — they are exactly when telemetry
    /// matters — and return what their caller asked for with the error.
    fn finish(
        self,
        q: Query<'_>,
        cat: &Catalog,
        result: Executed,
    ) -> Result<QueryOutcome, NraError> {
        let Stages {
            _faults,
            ctx,
            governor,
            obs,
            started,
            entry,
        } = self;
        let (outcome, intervention) = match &result {
            Ok(_) => ("ok", None),
            Err(e) => (e.variant_name(), intervention(e)),
        };
        // The stages go in reverse order.
        drop(ctx);
        let mut profile = obs.finish();
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
        let mem_high_water = governor.mem_used();
        metrics::global().gauge_max("nra_query_mem_high_water_bytes", &[], mem_high_water);

        // The plan that ran names the strategy and carries the estimates.
        let ran = result.as_ref().ok().map(|(_, planned, _)| &**planned);
        let qerrors = match (&profile, ran) {
            (Some(p), Some(ran)) => qerrors(p, &ran.estimates),
            _ => Vec::new(),
        };
        let per_query_metrics = q.per_query_metrics();
        // A caller that asked for an artifact gets it with the error.
        let o = q.options;
        let reports = o.collect_profile || o.collect_metrics || o.collect_trace;
        let record = QueryRecord {
            id: entry.as_ref().and_then(|e| e.id).unwrap_or(0),
            sql: q.statement,
            outcome,
            wall_ms: started.elapsed().as_millis() as u64,
            rows: result.as_ref().map_or(0, |(rel, ..)| rel.len() as u64),
            qerror_x100: qerrors.iter().copied().max().unwrap_or(0),
            mem_bytes: mem_high_water,
            strategy: ran.map_or(q.options.engine, |r| r.plan.engine()).name(),
            session: q.caller.session,
        };
        // Introspection calls are never slow: they have no registry entry.
        let slow = entry.is_some()
            && (q.options.slow_ms.or(q.config.slow_ms)).is_some_and(|t| record.wall_ms >= t);
        let action = intervention.map(|(action, _)| action);
        let report = |reg: &Registry, slow| {
            record_metrics(reg, &record, profile.as_ref(), &qerrors, action, slow);
        };
        report(metrics::global(), slow);
        // A fresh per-query scope, written once. Slowness is wall time,
        // so it stays out of the scope that must repeat exactly.
        let metrics = per_query_metrics.then(|| {
            let reg = Registry::new();
            report(&reg, false);
            reg.snapshot()
        });
        if let (Some(path), Some(snap)) = (&q.config.metrics_path, &metrics) {
            append_line(Path::new(path), &snap.to_jsonl());
        }

        // Pin the progress snapshot to 100% with the profile's row total
        // (the governor-cadence ticks undercount by design).
        let progress = entry.as_ref().map(|e| {
            e.progress.raise_mem(mem_high_water);
            let processed =
                (profile.as_ref()).map_or(0, |p| p.ops.iter().map(|(_, s)| s.rows_in).sum());
            let phase = if outcome == "ok" { "done" } else { outcome };
            e.progress.finish(processed, phase);
            e.progress.snapshot()
        });

        // The analyzed plan is the plan that ran.
        let plan = match (&profile, ran) {
            (Some(p), Some(ran)) if q.options.collect_profile => {
                Some(ran.plan.render_analyzed(p, &ran.estimates, record.rows))
            }
            _ => None,
        };
        if let (true, Some(progress)) = (slow, &progress) {
            let path =
                (q.options.slow_log.as_deref()).or(q.config.slow_log.as_deref().map(Path::new));
            if let Some(path) = path {
                let line = slowlog::SlowRecord {
                    query: &record,
                    plan: plan.as_deref(),
                    profile: profile.as_ref(),
                    progress,
                };
                append_line(path, &line.to_jsonl());
            }
        }

        let trace = q.options.collect_trace.then(|| {
            let stopped = intervention.map(|(action, at)| (action, at.to_string()));
            let high_water = ("mem-high-water", format!("{mem_high_water} bytes"));
            let (strategies, rewrites) =
                ran.map_or_else(Default::default, |r| r.plan.decisions(cat));
            let profile = profile.clone().unwrap_or_default();
            Trace {
                sql: q.sql.to_string(),
                plan_cache_hit: matches!(result, Ok((.., true))),
                phases: profile.phases,
                strategies,
                rewrites,
                ops: profile.ops,
                qerrors,
                governor: stopped.into_iter().chain([high_water]).collect(),
                done: (result.is_ok()).then(|| (record.rows, started.elapsed().as_nanos() as u64)),
            }
        });
        if let Some(mut entry) = entry {
            entry.id = None;
            entry.registry.complete(record);
        }

        let out = QueryOutcome {
            rows: Relation::new(Schema::empty()),
            plan,
            profile: profile.filter(|_| q.options.collect_profile),
            metrics,
            trace,
            progress,
        };
        match result {
            Ok((rows, ..)) => Ok(QueryOutcome { rows, ..out }),
            Err(error) if reports => Err(NraError::Failed(Box::new(Failed { error, report: out }))),
            Err(error) => Err(error),
        }
    }
}

/// The governor intervention that stopped a query, as
/// `nra_governor_interventions_total` labels it, with the phase or
/// operator site where it stopped the query. A query stops at its first
/// intervention, so the error it returns names the only one.
fn intervention(e: &NraError) -> Option<(&'static str, &str)> {
    use faultinject::INJECTED_ALLOC_BYTES;
    let NraError::Engine(e) = e else {
        return None;
    };
    Some(match e {
        EngineError::Cancelled { phase } => ("cancelled", phase),
        EngineError::ResourceExhausted {
            operator,
            requested: INJECTED_ALLOC_BYTES,
            ..
        } => ("fault-injected", operator),
        EngineError::ResourceExhausted { operator, .. } => ("resource-exhausted", operator),
        _ => return None,
    })
}

/// Cardinality feedback: the per-node Q-error (×100; 100 = perfect) of
/// each planner estimate against its measured actual.
fn qerrors(profile: &Profile, estimates: &CardEstimates) -> Vec<u64> {
    (estimates.iter())
        .filter_map(|(key, est)| {
            let act = nra_core::node_stats(profile, key)?.rows_out;
            Some(nra_core::qerror_x100(est, act))
        })
        .collect()
}

/// Record one finished query into `reg`: its outcome and rows, its
/// governor intervention, its Q-errors, its profile's per-operator
/// counters and, when `slow`, the slow count. Everything but `slow` is
/// derived from the record, the profile and the estimates, never from
/// timing, so a per-query registry is the same on every run of a query.
/// Wall times stay out of the operator counters for the same reason.
fn record_metrics(
    reg: &Registry,
    r: &QueryRecord,
    profile: Option<&Profile>,
    qerrors: &[u64],
    intervention: Option<&str>,
    slow: bool,
) {
    reg.counter_add("nra_queries_total", &[("outcome", r.outcome)], 1);
    if r.outcome == "ok" {
        reg.counter_add("nra_rows_produced_total", &[], r.rows);
    } else {
        reg.counter_add("nra_errors_total", &[("variant", r.outcome)], 1);
    }
    if let Some(action) = intervention {
        reg.counter_add("nra_governor_interventions_total", &[("action", action)], 1);
    }
    for q in qerrors {
        reg.observe("nra_qerror_x100", &[], *q);
    }
    if slow {
        reg.counter_add("nra_slow_queries_total", &[], 1);
    }
    for (name, s) in profile.map_or(&[][..], |p| &p.ops) {
        let labels = [("op", name.as_str())];
        reg.counter_add("nra_op_invocations_total", &labels, s.invocations);
        reg.counter_add("nra_op_rows_in_total", &labels, s.rows_in);
        reg.counter_add("nra_op_rows_out_total", &labels, s.rows_out);
        for (metric, v) in [
            ("nra_op_hash_entries_total", s.hash_entries),
            ("nra_op_hash_bytes_total", s.hash_bytes),
            ("nra_op_nest_groups_total", s.nest_groups),
            ("nra_op_padded_total", s.padded),
        ] {
            if v > 0 {
                reg.counter_add(metric, &labels, v);
            }
        }
        for (count, outcome) in [(s.pass, "pass"), (s.fail, "fail"), (s.unknown, "unknown")] {
            if count > 0 {
                let labels = [("op", name.as_str()), ("outcome", outcome)];
                reg.counter_add("nra_op_link_outcomes_total", &labels, count);
            }
        }
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
    /// summary as plan text. A catalog write like any other: the stats
    /// are computed under the write lock, logged before they are
    /// installed (losing them across a restart would silently change
    /// plan shapes), and cached plans are invalidated, since fresh
    /// statistics can change strategy and estimate choices.
    fn run_analyze(&self, table: &str) -> Result<QueryOutcome, NraError> {
        let mut plan = String::new();
        self.commit(|cat| {
            let stats = cat.table(table)?.compute_stats();
            plan = format!("analyze {table}: {} row(s)\n", stats.row_count);
            for col in &stats.columns {
                plan.push_str(&format!(
                    "  {}: ndv={} nulls={}\n",
                    col.name, col.ndv, col.null_count
                ));
            }
            let table = table.to_string();
            Ok(WalRecord::Analyze { table, stats })
        })?;
        metrics::global().counter_add("nra_analyze_total", &[("table", table)], 1);
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
        let cached = cache_key.and_then(|key| self.shared.plans.lookup(version, key, engine));
        let hit = cached.is_some();
        let plan = match cached {
            Some(plan) => plan,
            None => {
                let plan = build_plan(cat, q.sql, engine)?;
                let plan = Arc::new(Planned {
                    estimates: plan.estimate(cat),
                    plan,
                });
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
            p.set_estimated(plan.estimates.iter().map(|(_, v)| v).sum());
        }
        let mut execute = nra_obs::phase("execute");
        let rel = nra_core::run(&plan.plan, cat)?;
        execute.rows(rel.len());
        Ok((rel, plan, hit))
    }
}

/// Parse, bind and plan a statement under `engine`: the bind refuses a
/// statement that can never run (arity, `ORDER BY`), the build one the
/// engine's builder cannot plan.
fn build_plan(cat: &Catalog, sql: &str, engine: Engine) -> Result<PhysPlan, NraError> {
    let query = nra_sql::parse_query(sql)?;
    let statement = nra_sql::bind_statement(&query, cat)?;
    let _plan = nra_obs::phase("plan");
    Ok(nra_core::build(statement, engine)?)
}
