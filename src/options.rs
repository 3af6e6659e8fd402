//! What a caller asks for and gets back: the [`QueryOptions`] builder and
//! the [`QueryOutcome`] of one
//! [`Database::execute`](crate::Database::execute) call.

use nra_core::{Engine, Strategy};
use nra_engine::{CancelToken, Config, EngineError, Governor};
use nra_storage::fault::{Fault, FaultKind, FaultPlan};
use nra_storage::{Relation, Schema};

use crate::obs;

/// Per-call knobs for [`Database::execute`](crate::Database::execute),
/// built fluently:
///
/// ```
/// use nra::{Engine, QueryOptions, Strategy};
/// let opts = QueryOptions::new()
///     .engine(Engine::NestedRelational(Strategy::Optimized))
///     .collect_profile(true);
/// # let _ = opts;
/// ```
///
/// Everything defaults off: nested relational engine with the auto
/// strategy, no profile, no trace, no plan text. Unset
/// knobs fall back to the database's [`Config`] (README
/// "Configuration").
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    pub(crate) engine: Engine,
    pub(crate) collect_profile: bool,
    pub(crate) collect_metrics: bool,
    pub(crate) collect_trace: bool,
    pub(crate) explain_only: bool,
    pub(crate) mem_limit_bytes: Option<u64>,
    pub(crate) timeout_ms: Option<u64>,
    cancel: Option<CancelToken>,
    faults: Vec<Fault>,
    pub(crate) slow_ms: Option<u64>,
    pub(crate) slow_log: Option<std::path::PathBuf>,
}

impl QueryOptions {
    pub fn new() -> QueryOptions {
        QueryOptions::default()
    }

    /// Execute with an explicit engine (default: nested relational with
    /// [`Strategy::Auto`]).
    pub fn engine(mut self, engine: Engine) -> QueryOptions {
        self.engine = engine;
        self
    }

    /// Shorthand for the nested relational engine with a forced strategy.
    pub fn strategy(self, strategy: Strategy) -> QueryOptions {
        self.engine(Engine::NestedRelational(strategy))
    }

    /// Accepted and ignored: every query runs sequentially on its
    /// calling thread. Kept because `benchmark/` calls it; removed
    /// together with its `nested_parallel` workload in the benchmark's
    /// own change.
    pub fn threads(self, _n: usize) -> QueryOptions {
        self
    }

    /// Collect per-operator statistics; [`QueryOutcome::profile`] is then
    /// `Some`, and [`QueryOutcome::plan`] holds the analyzed plan that ran
    /// (the `EXPLAIN ANALYZE` text), under every engine.
    pub fn collect_profile(mut self, on: bool) -> QueryOptions {
        self.collect_profile = on;
        self
    }

    /// Collect per-query metrics into a dedicated registry scope;
    /// [`QueryOutcome::metrics`] is then a [`obs::metrics::Snapshot`] of
    /// everything the call recorded (operator counters, rows produced,
    /// outcome, Q-error histogram). The per-query scope deliberately
    /// excludes wall-clock times, so the snapshot is byte-identical on
    /// every run of the query. The same scope is also
    /// populated (and appended as JSONL) when the database was built
    /// under `NRA_METRICS=path`, independent of this option.
    pub fn collect_metrics(mut self, on: bool) -> QueryOptions {
        self.collect_metrics = on;
        self
    }

    /// Render the query-lifecycle trace (parse/bind/plan/execute phases,
    /// planner decisions, rewrites, operators) when the query finishes,
    /// from its record, its profile and its plan;
    /// [`QueryOutcome::trace`] is then `Some`.
    pub fn collect_trace(mut self, on: bool) -> QueryOptions {
        self.collect_trace = on;
        self
    }

    /// Don't execute: return in [`QueryOutcome::plan`] a one-line header
    /// and the plan the requested strategy builds (the classic `EXPLAIN`).
    pub fn explain_only(mut self, on: bool) -> QueryOptions {
        self.explain_only = on;
        self
    }

    /// Memory budget for this call, in bytes. Governed allocations (hash
    /// join builds, nest group buffers, sort scratch, materialized
    /// intermediates) are charged against it; exceeding the budget fails
    /// the query with [`crate::engine::EngineError::ResourceExhausted`] instead
    /// of exhausting the process. Overrides the `NRA_MEM_LIMIT` default
    /// for this call.
    pub fn mem_limit_bytes(mut self, bytes: u64) -> QueryOptions {
        self.mem_limit_bytes = Some(bytes);
        self
    }

    /// Cancel the query after `ms` milliseconds (cooperatively — it stops
    /// at the next operator checkpoint, failing with
    /// [`crate::engine::EngineError::Cancelled`]). `0` cancels at the first
    /// checkpoint.
    pub fn timeout_ms(mut self, ms: u64) -> QueryOptions {
        self.timeout_ms = Some(ms);
        self
    }

    /// Attach a cancellation handle: calling [`CancelToken::cancel`] from
    /// any thread stops the query at its next checkpoint.
    pub fn cancel(mut self, token: CancelToken) -> QueryOptions {
        self.cancel = Some(token);
        self
    }

    /// Arm a deterministic fault at a named operator site (see
    /// [`crate::storage::fault`]) — the test-harness API behind the
    /// `NRA_FAULT` environment variable. The call's entries replace the
    /// database's `NRA_FAULT` entries; a kind the site does not accept
    /// fails the query with [`EngineError::Config`].
    pub fn fault(mut self, site: impl Into<String>, nth: u64, kind: FaultKind) -> QueryOptions {
        let site = site.into();
        self.faults.push(Fault { site, nth, kind });
        self
    }

    /// Slow-query threshold in milliseconds: a query whose wall time
    /// reaches it is counted in `nra_slow_queries_total` and — when a
    /// log path is configured via [`QueryOptions::slow_log`] or the
    /// `NRA_SLOW_LOG` default — appended to the JSONL slow-query log
    /// (see [`obs::slowlog`]). `0` logs every query. Falls back to the
    /// `NRA_SLOW_MS` default when unset.
    pub fn slow_ms(mut self, ms: u64) -> QueryOptions {
        self.slow_ms = Some(ms);
        self
    }

    /// Slow-query log destination for this call, overriding the
    /// `NRA_SLOW_LOG` default. Records are appended as
    /// schema-validated JSONL ([`obs::slowlog::validate_lines`]).
    pub fn slow_log(mut self, path: impl Into<std::path::PathBuf>) -> QueryOptions {
        self.slow_log = Some(path.into());
        self
    }

    /// The [`Governor`] these options describe over the database's
    /// `config` defaults (`NRA_MEM_LIMIT`). Every executed query installs
    /// one, so its memory is counted even with nothing to enforce.
    pub(crate) fn governor(&self, config: &Config) -> Governor {
        let mut gov = Governor::new();
        if let Some(bytes) = self.mem_limit_bytes.or(config.mem_limit) {
            gov = gov.mem_limit(bytes);
        }
        if let Some(ms) = self.timeout_ms {
            gov = gov.timeout_ms(ms);
        }
        if let Some(token) = &self.cancel {
            gov = gov.cancel_token(token.clone());
        }
        gov
    }

    /// The fresh fault plan one query arms: this call's entries, else the
    /// database's `NRA_FAULT` entries; `None` when there are none.
    pub(crate) fn fault_plan(&self, config: &Config) -> Result<Option<FaultPlan>, EngineError> {
        for f in &self.faults {
            f.check().map_err(|detail| EngineError::Config {
                var: "QueryOptions::fault".to_string(),
                value: f.to_string(),
                detail,
            })?;
        }
        let faults = if self.faults.is_empty() {
            &config.faults
        } else {
            &self.faults
        };
        Ok((!faults.is_empty()).then(|| FaultPlan::new(faults)))
    }
}

/// Everything a [`Database::execute`](crate::Database::execute) call
/// produced. A query that fails after its caller asked for a profile,
/// metrics or a trace returns one as the report of
/// [`NraError::Failed`](crate::NraError::Failed), without rows or plan.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result relation (empty with an empty schema under
    /// [`QueryOptions::explain_only`]).
    pub rows: Relation,
    /// Plan text: the header and plan under `explain_only`, or the
    /// operator-annotated `EXPLAIN ANALYZE` plan that ran when a profile
    /// was collected.
    pub plan: Option<String>,
    /// Per-operator statistics, when requested.
    pub profile: Option<obs::Profile>,
    /// Snapshot of the per-query metrics scope, when requested via
    /// [`QueryOptions::collect_metrics`] (or the `NRA_METRICS` knob).
    /// The same on every run of a query, by construction.
    pub metrics: Option<obs::metrics::Snapshot>,
    /// The rendered lifecycle trace, when requested.
    pub trace: Option<obs::trace::Trace>,
    /// The final progress snapshot (100% on success). `None` for
    /// `explain_only`, `ANALYZE` and introspection (`nra_sys.*`) calls,
    /// which skip progress tracking.
    pub progress: Option<obs::progress::ProgressSnapshot>,
}

impl QueryOutcome {
    /// The outcome of a metadata statement (`EXPLAIN`, `ANALYZE`): plan
    /// text, no rows, no artifacts.
    pub(crate) fn plan_only(plan: String) -> QueryOutcome {
        QueryOutcome {
            rows: Relation::new(Schema::new(Vec::new())),
            plan: Some(plan),
            profile: None,
            metrics: None,
            trace: None,
            progress: None,
        }
    }
}
