//! # nra-obs
//!
//! Runtime execution observability for the nested relational subquery
//! processor: per-operator [`OpStats`], span timers, machine-readable
//! [`Profile`]s with the query's pipeline [`phase`]s, the lifecycle
//! trace rendered from them ([`trace`]), live progress ([`progress`]),
//! metrics ([`metrics`]), the query registry ([`queryreg`]) and the
//! slow-query log ([`slowlog`]).
//!
//! What a query collects on its thread — the stats collector — lives in
//! one thread-local slot, armed by one [`enter`] whose guard restores the
//! enclosing slot. The slot arms only the profile: whoever wants the I/O
//! simulator's page counts enables it around the call
//! (`nra_storage::iosim::enable`). Metrics, the registry record, the
//! trace and the slow log are written once when the query finishes; live
//! progress rides in the engine's query context beside the governor that
//! feeds it. The instrumented operators read a single flag when nothing
//! is armed (no allocation, no timing syscalls):
//!
//! ```
//! let obs = nra_obs::enter(true);
//! {
//!     let _scope = nra_obs::scope(|| "b2".to_string());
//!     let mut span = nra_obs::span(|| "join".to_string());
//!     span.rows_in(100);
//!     span.rows_out(42);
//! } // span drop records wall time under "b2/join"
//! let profile = obs.finish().unwrap();
//! assert_eq!(profile.get("b2/join").unwrap().rows_out, 42);
//! println!("{}", profile.to_json());
//! ```
//!
//! Operators record under a *qualified name* `scope/op` where the scope is
//! pushed by the executor driving them (typically the query-block id,
//! `b{id}`), so one profile distinguishes e.g. the join feeding block 2
//! from the join feeding block 3. A [`Profile`] snapshot also folds in the
//! I/O simulator's page counts ([`nra_storage::iosim::IoStats`]) when the
//! simulator is enabled, so one artifact carries both CPU-side operator
//! stats and the simulated disk story.

pub mod json;
pub mod metrics;
pub mod progress;
pub mod queryreg;
pub mod slowlog;
pub mod trace;

pub use trace::fmt_ns;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

use nra_storage::iosim::{self, IoStats};
use nra_storage::Truth;

/// Counters for one (qualified) operator.
///
/// All counters are additive across invocations; which fields an operator
/// touches depends on its kind (joins fill the hash fields, nest fills the
/// group fields, linking selections fill pass/fail/unknown and padded).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Number of span invocations merged into this entry.
    pub invocations: u64,
    /// Input tuples consumed.
    pub rows_in: u64,
    /// Output tuples produced.
    pub rows_out: u64,
    /// Batches / probe calls (operator-specific subdivision of the input).
    pub batches: u64,
    /// Wall-clock time spent inside spans, in nanoseconds.
    pub wall_ns: u64,
    /// Hash-table build: entries inserted.
    pub hash_entries: u64,
    /// Hash-table build: approximate bytes of keys + row ids.
    pub hash_bytes: u64,
    /// Nest: groups (nested tuples) formed.
    pub nest_groups: u64,
    /// Nest: histogram of set cardinalities, log2 buckets
    /// `0, 1, 2-3, 4-7, 8-15, 16-31, 32-63, 64+`.
    pub group_card_hist: [u64; 8],
    /// Pseudo-selection: tuples kept but NULL-padded (linking condition
    /// not satisfied, atoms padded per the paper's σ̄).
    pub padded: u64,
    /// Linking selection outcomes under 3VL.
    pub pass: u64,
    pub fail: u64,
    pub unknown: u64,
}

/// Labels for [`OpStats::group_card_hist`] buckets.
pub const GROUP_CARD_BUCKETS: [&str; 8] = ["0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64+"];

fn card_bucket(card: u64) -> usize {
    match card {
        0 => 0,
        _ => ((64 - card.leading_zeros()) as usize).min(7),
    }
}

impl OpStats {
    /// Fold another operator's counters into this one (all fields are
    /// additive).
    pub fn merge(&mut self, other: &OpStats) {
        self.invocations += other.invocations;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.wall_ns += other.wall_ns;
        self.hash_entries += other.hash_entries;
        self.hash_bytes += other.hash_bytes;
        self.nest_groups += other.nest_groups;
        for (a, b) in self.group_card_hist.iter_mut().zip(other.group_card_hist) {
            *a += b;
        }
        self.padded += other.padded;
        self.pass += other.pass;
        self.fail += other.fail;
        self.unknown += other.unknown;
    }

    /// Record one nest group of the given cardinality.
    pub fn record_group(&mut self, card: usize) {
        self.nest_groups += 1;
        self.group_card_hist[card_bucket(card as u64)] += 1;
    }

    /// Record one linking-selection outcome.
    pub fn record_outcome(&mut self, t: Truth) {
        match t {
            Truth::True => self.pass += 1,
            Truth::False => self.fail += 1,
            Truth::Unknown => self.unknown += 1,
        }
    }
}

#[derive(Default)]
struct Collector {
    /// Insertion order of qualified names, for stable reporting.
    order: Vec<String>,
    ops: HashMap<String, OpStats>,
    phases: Vec<Phase>,
}

impl Collector {
    fn merge(&mut self, name: &str, stats: &OpStats) {
        match self.ops.get_mut(name) {
            Some(e) => e.merge(stats),
            None => {
                self.order.push(name.to_string());
                self.ops.insert(name.to_string(), stats.clone());
            }
        }
    }

    fn profile(&self) -> Profile {
        Profile {
            ops: self
                .order
                .iter()
                .map(|n| (n.clone(), self.ops[n].clone()))
                .collect(),
            phases: self.phases.clone(),
            io: iosim::is_enabled().then(iosim::stats),
            outcome: None,
        }
    }
}

/// Everything armed on one thread.
struct Armed {
    collector: Option<Collector>,
    /// The scope-label stack qualifying operator names.
    scopes: Vec<String>,
    /// The label of the open [`prefix_scope`], which every scope opened
    /// inside it extends.
    prefix: Option<String>,
}

/// The one per-thread observability slot. The disarmed hooks read only
/// `profiling`, the same way `nra_engine::ctx` gates the governor.
struct Slot {
    profiling: Cell<bool>,
    armed: RefCell<Armed>,
}

// Ambient by design: the hooks are called from `nra_sql`, which does not
// depend on `nra_engine`, so this slot cannot live in its `QueryCtx`.
thread_local! {
    static SLOT: Slot = const {
        Slot {
            profiling: Cell::new(false),
            armed: RefCell::new(Armed {
                collector: None,
                scopes: Vec::new(),
                prefix: None,
            }),
        }
    };
}

fn with_armed<R>(f: impl FnOnce(&mut Armed) -> R) -> R {
    SLOT.with(|s| f(&mut s.armed.borrow_mut()))
}

fn with_collector(f: impl FnOnce(&mut Collector)) {
    with_armed(|a| a.collector.as_mut().map(f));
}

/// Swap the scope stack, and the collector when `profile`, between this
/// thread's slot and `other`.
fn exchange(other: &mut Armed, profile: bool) {
    SLOT.with(|s| {
        let mut armed = s.armed.borrow_mut();
        std::mem::swap(&mut armed.scopes, &mut other.scopes);
        std::mem::swap(&mut armed.prefix, &mut other.prefix);
        if profile {
            std::mem::swap(&mut armed.collector, &mut other.collector);
        }
        s.profiling.set(armed.collector.is_some());
    });
}

/// Restores the enclosing slot on drop (see [`enter`]).
#[must_use = "dropping the guard immediately restores the enclosing slot"]
pub struct ObsGuard {
    /// This guard armed its own collector.
    profile: bool,
    /// What the enclosing slot had in what this guard swapped; `None`
    /// once restored.
    outer: Option<Armed>,
}

/// Open a fresh scope stack on this thread, and with `profile` a fresh
/// per-operator stats collector ([`ObsGuard::finish`] returns it),
/// until the returned guard is finished or dropped; either restores the
/// enclosing slot exactly, so arming nests. Without `profile`, the
/// enclosing slot's collector stays armed, so a query that does not
/// profile still reports to a collector its caller armed.
pub fn enter(profile: bool) -> ObsGuard {
    let mut mine = Armed {
        collector: profile.then(Collector::default),
        scopes: Vec::new(),
        prefix: None,
    };
    exchange(&mut mine, profile);
    ObsGuard {
        profile,
        outer: Some(mine),
    }
}

impl ObsGuard {
    /// Restore the enclosing slot and return the profile, if this guard
    /// armed a collector (with the I/O simulator's counts, when it is
    /// on).
    pub fn finish(mut self) -> Option<Profile> {
        self.restore()
    }

    fn restore(&mut self) -> Option<Profile> {
        let mut mine = self.outer.take()?;
        exchange(&mut mine, self.profile);
        mine.collector.as_ref().map(Collector::profile)
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        self.restore();
    }
}

/// Whether per-operator stats are being collected on this thread.
#[inline]
pub fn is_enabled() -> bool {
    SLOT.with(|s| s.profiling.get())
}

/// A scope label (typically a query-block id like `b2`) qualifying every
/// span or record made while it is alive. Only the innermost scope
/// applies — recursive executors replace rather than concatenate — except
/// that a [`prefix_scope`] qualifies the scopes opened inside it.
pub struct Scope {
    active: bool,
    /// Opened by [`prefix_scope`].
    prefix: bool,
}

/// Push a scope label. The closure is only invoked when collection is
/// enabled, so disabled runs pay no formatting.
pub fn scope<F: FnOnce() -> String>(label: F) -> Scope {
    open_scope(label, false)
}

/// Push a scope label that every scope opened inside it extends instead
/// of replacing: `b2` under the prefix `a2` qualifies as `a2/b2`. One arm
/// of a compound statement runs under one, so two arms' operators are
/// recorded apart. Prefix scopes do not nest.
pub fn prefix_scope<F: FnOnce() -> String>(label: F) -> Scope {
    open_scope(label, true)
}

fn open_scope<F: FnOnce() -> String>(label: F, prefix: bool) -> Scope {
    if !is_enabled() {
        return Scope {
            active: false,
            prefix,
        };
    }
    let label = label();
    with_armed(|a| {
        let label = match &a.prefix {
            Some(outer) => format!("{outer}/{label}"),
            None => label,
        };
        if prefix {
            a.prefix = Some(label.clone());
        }
        a.scopes.push(label);
    });
    Scope {
        active: true,
        prefix,
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.active {
            with_armed(|a| {
                a.scopes.pop();
                if self.prefix {
                    a.prefix = None;
                }
            });
        }
    }
}

/// Qualify `name` with the innermost active scope (`scope/name`), or
/// return it unchanged when no scope is active.
pub fn qualified(name: String) -> String {
    with_armed(|a| match a.scopes.last() {
        Some(scope) => format!("{scope}/{name}"),
        None => name,
    })
}

struct SpanInner {
    name: String,
    start: Instant,
    stats: OpStats,
}

/// A span timer: accumulates counters locally and merges them (plus wall
/// time) into the collector on drop. Inert (`None` inner, no allocation)
/// when collection is disabled.
pub struct Span {
    inner: Option<Box<SpanInner>>,
}

/// Open a span under the current scope. The name closure is only invoked
/// when collection is enabled.
pub fn span<F: FnOnce() -> String>(name: F) -> Span {
    if !is_enabled() {
        return Span { inner: None };
    }
    let name = qualified(name());
    Span {
        inner: Some(Box::new(SpanInner {
            name,
            start: Instant::now(),
            stats: OpStats {
                invocations: 1,
                ..OpStats::default()
            },
        })),
    }
}

impl Span {
    /// Whether this span is live (collection was enabled at creation).
    /// Lets call sites skip building per-row data for dead spans.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    pub fn rows_in(&mut self, n: usize) {
        if let Some(i) = &mut self.inner {
            i.stats.rows_in += n as u64;
        }
    }

    pub fn rows_out(&mut self, n: usize) {
        if let Some(i) = &mut self.inner {
            i.stats.rows_out += n as u64;
        }
    }

    pub fn batch(&mut self) {
        if let Some(i) = &mut self.inner {
            i.stats.batches += 1;
        }
    }

    /// Record a hash-table build of `entries` entries and ~`bytes` bytes.
    pub fn hash_build(&mut self, entries: usize, bytes: usize) {
        if let Some(i) = &mut self.inner {
            i.stats.hash_entries += entries as u64;
            i.stats.hash_bytes += bytes as u64;
        }
    }

    /// Record one nest group of the given set cardinality.
    pub fn group(&mut self, card: usize) {
        if let Some(i) = &mut self.inner {
            i.stats.record_group(card);
        }
    }

    /// Record `n` tuples kept-but-NULL-padded by a pseudo-selection.
    pub fn padded(&mut self, n: usize) {
        if let Some(i) = &mut self.inner {
            i.stats.padded += n as u64;
        }
    }

    /// Record one linking-selection outcome.
    pub fn outcome(&mut self, t: Truth) {
        if let Some(i) = &mut self.inner {
            i.stats.record_outcome(t);
        }
    }

    /// Fold a batch of locally accumulated counters (e.g. a scan loop's
    /// outcome tallies) into this span. `invocations` of `stats` are added
    /// too, so counters contributing to a single logical invocation should
    /// leave that field at zero.
    pub fn absorb_stats(&mut self, stats: &OpStats) {
        if let Some(i) = &mut self.inner {
            i.stats.merge(stats);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let mut inner = *inner;
            inner.stats.wall_ns += inner.start.elapsed().as_nanos() as u64;
            with_collector(|col| col.merge(&inner.name, &inner.stats));
        }
    }
}

/// One pipeline phase of a query — `parse`, `bind`, `plan` or `execute` —
/// with its wall time and what it counted (tokens, blocks, result rows),
/// when it counts something. Phases run one after another, so a profile
/// lists them in the order they ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub name: &'static str,
    pub wall_ns: u64,
    pub rows: Option<u64>,
}

/// An open [`phase`]: records it into the collector on drop, also on an
/// early return or an unwind. Inert when collection was disabled at
/// creation.
pub struct PhaseGuard(Option<(Instant, Phase)>);

/// Open a pipeline phase.
pub fn phase(name: &'static str) -> PhaseGuard {
    let (wall_ns, rows) = (0, None);
    PhaseGuard(is_enabled().then(|| {
        (
            Instant::now(),
            Phase {
                name,
                wall_ns,
                rows,
            },
        )
    }))
}

impl PhaseGuard {
    /// What the phase counted, reported when it closes.
    pub fn rows(&mut self, n: usize) {
        if let Some((_, phase)) = &mut self.0 {
            phase.rows = Some(n as u64);
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((start, mut phase)) = self.0.take() {
            phase.wall_ns = start.elapsed().as_nanos() as u64;
            with_collector(|col| col.phases.push(phase));
        }
    }
}

/// Update counters under an *already qualified* name without a timer —
/// for per-row hot paths that precompute their name once (see
/// [`qualified`]). No-op when collection is disabled.
pub fn record(name: &str, f: impl FnOnce(&mut OpStats)) {
    if !is_enabled() {
        return;
    }
    with_collector(|col| match col.ops.get_mut(name) {
        Some(e) => f(e),
        None => {
            let mut stats = OpStats::default();
            f(&mut stats);
            col.order.push(name.to_string());
            col.ops.insert(name.to_string(), stats);
        }
    });
}

/// One line of a plan's decision log: why query block `block` runs under
/// the plan named `name`, and, on an arm's root block, every alternative
/// passed over at plan time with why. The planner reports it; the trace
/// renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    pub block: usize,
    pub name: String,
    pub reason: String,
    pub alternatives: Vec<(String, String)>,
}

/// A §4.2 rewrite a plan embodies, and its effect on the operator count
/// of the Algorithm-1 pipeline of the same query.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteStep {
    pub rule: &'static str,
    pub nodes_before: usize,
    pub nodes_after: usize,
}

/// A finished (or snapshotted) collection: per-operator stats in first-use
/// order, the pipeline phases in the order they ran, plus the I/O
/// simulator's page counts when it was enabled. The phases are kept apart
/// from the operators: metrics, `EXPLAIN ANALYZE` and [`Profile::to_json`]
/// read only the operators.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub ops: Vec<(String, OpStats)>,
    pub phases: Vec<Phase>,
    pub io: Option<IoStats>,
    /// How the query finished, when the caller recorded it: `"ok"`,
    /// `"cancelled"`, `"resource-exhausted"`, `"worker-panicked"`, or
    /// `"error"` for any other failure. `None` for profiles collected
    /// outside a query lifecycle.
    pub outcome: Option<String>,
}

impl Profile {
    /// Look up an operator by its qualified name.
    pub fn get(&self, name: &str) -> Option<&OpStats> {
        self.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Sum of wall time over all operators (overlapping spans may double
    /// count; per-operator numbers are the meaningful ones).
    pub fn total_wall_ns(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.wall_ns).sum()
    }

    /// Hand-rolled JSON serialization (the workspace carries no serde).
    ///
    /// Schema:
    /// ```json
    /// {
    ///   "ops": [{"name": "b2/join", "invocations": 1, "rows_in": 0,
    ///            "rows_out": 0, "batches": 0, "wall_ns": 0,
    ///            "hash_entries": 0, "hash_bytes": 0, "nest_groups": 0,
    ///            "group_card_hist": {"0": 0, "1": 0, ...},
    ///            "padded": 0, "pass": 0, "fail": 0, "unknown": 0}],
    ///   "io": {"seq_pages": 0, "rand_hits": 0, "rand_misses": 0} | null,
    ///   "total_wall_ns": 0
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ops\": [");
        for (i, (name, s)) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            json::write_string(&mut out, name);
            for (key, v) in [
                ("invocations", s.invocations),
                ("rows_in", s.rows_in),
                ("rows_out", s.rows_out),
                ("batches", s.batches),
                ("wall_ns", s.wall_ns),
                ("hash_entries", s.hash_entries),
                ("hash_bytes", s.hash_bytes),
                ("nest_groups", s.nest_groups),
            ] {
                out.push_str(&format!(", \"{key}\": {v}"));
            }
            out.push_str(", \"group_card_hist\": {");
            for (j, (label, count)) in GROUP_CARD_BUCKETS.iter().zip(s.group_card_hist).enumerate()
            {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{label}\": {count}"));
            }
            out.push('}');
            for (key, v) in [
                ("padded", s.padded),
                ("pass", s.pass),
                ("fail", s.fail),
                ("unknown", s.unknown),
            ] {
                out.push_str(&format!(", \"{key}\": {v}"));
            }
            out.push('}');
        }
        out.push_str("], \"io\": ");
        match &self.io {
            Some(io) => out.push_str(&format!(
                "{{\"seq_pages\": {}, \"rand_hits\": {}, \"rand_misses\": {}}}",
                io.seq_pages, io.rand_hits, io.rand_misses
            )),
            None => out.push_str("null"),
        }
        if let Some(outcome) = &self.outcome {
            out.push_str(", \"outcome\": ");
            json::write_string(&mut out, outcome);
        }
        out.push_str(&format!(", \"total_wall_ns\": {}}}", self.total_wall_ns()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn profiling() -> ObsGuard {
        enter(true)
    }

    #[test]
    fn disabled_spans_are_inert() {
        assert!(!is_enabled());
        let mut sp = span(|| unreachable!("name closure must not run when disabled"));
        assert!(!sp.active());
        sp.rows_in(5);
        sp.rows_out(5);
        drop(sp);
        assert!(enter(false).finish().is_none());
    }

    #[test]
    fn spans_merge_under_scopes() {
        let obs = profiling();
        {
            let _s = scope(|| "b2".to_string());
            let mut sp = span(|| "join".to_string());
            sp.rows_in(10);
            sp.rows_out(4);
            sp.hash_build(3, 96);
        }
        {
            let _s = scope(|| "b2".to_string());
            let mut sp = span(|| "join".to_string());
            sp.rows_in(2);
        }
        let profile = obs.finish().unwrap();
        let j = profile.get("b2/join").unwrap();
        assert_eq!(j.invocations, 2);
        assert_eq!(j.rows_in, 12);
        assert_eq!(j.rows_out, 4);
        assert_eq!(j.hash_entries, 3);
        assert_eq!(j.hash_bytes, 96);
        assert!(j.wall_ns > 0);
    }

    #[test]
    fn innermost_scope_wins() {
        let obs = profiling();
        {
            let _outer = scope(|| "b1".to_string());
            let _inner = scope(|| "b2".to_string());
            span(|| "nest".to_string()).group(3);
        }
        let profile = obs.finish().unwrap();
        assert!(profile.get("b2/nest").is_some());
        assert!(profile.get("b1/nest").is_none());
    }

    #[test]
    fn prefix_scope_qualifies_inner_scopes() {
        let obs = profiling();
        for arm in ["a1", "a2"] {
            let _arm = prefix_scope(|| arm.to_string());
            span(|| "scan".to_string()).rows_out(1);
            let _block = scope(|| "b2".to_string());
            span(|| "join".to_string()).rows_out(2);
        }
        span(|| "sort".to_string());
        let profile = obs.finish().unwrap();
        let names: Vec<&str> = profile.ops.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["a1/scan", "a1/b2/join", "a2/scan", "a2/b2/join", "sort"]
        );
    }

    #[test]
    fn phases_record_in_order_apart_from_ops() {
        let mut parse = phase("parse");
        parse.rows(7);
        drop(parse);
        let obs = profiling();
        {
            let mut parse = phase("parse");
            parse.rows(7);
        }
        {
            let _execute = phase("execute");
            span(|| "scan".to_string()).rows_out(1);
        }
        let profile = obs.finish().unwrap();
        let phases: Vec<_> = profile.phases.iter().map(|p| (p.name, p.rows)).collect();
        assert_eq!(phases, [("parse", Some(7)), ("execute", None)]);
        assert!(profile.phases.iter().all(|p| p.wall_ns > 0));
        assert_eq!(profile.ops.len(), 1, "phases are not operators");
        assert!(!profile.to_json().contains("execute"));
    }

    #[test]
    fn group_histogram_buckets() {
        let mut s = OpStats::default();
        for card in [0usize, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 1000] {
            s.record_group(card);
        }
        assert_eq!(s.nest_groups, 14);
        assert_eq!(s.group_card_hist, [1, 1, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn outcome_counters() {
        let mut s = OpStats::default();
        s.record_outcome(Truth::True);
        s.record_outcome(Truth::False);
        s.record_outcome(Truth::False);
        s.record_outcome(Truth::Unknown);
        assert_eq!((s.pass, s.fail, s.unknown), (1, 2, 1));
    }

    #[test]
    fn record_uses_raw_name_and_creates_entries() {
        let obs = profiling();
        record("b3/link", |s| s.record_outcome(Truth::True));
        record("b3/link", |s| s.record_outcome(Truth::Unknown));
        let profile = obs.finish().unwrap();
        let l = profile.get("b3/link").unwrap();
        assert_eq!((l.pass, l.unknown), (1, 1));
    }

    #[test]
    fn json_shape() {
        let obs = profiling();
        {
            let mut sp = span(|| "nest".to_string());
            sp.rows_in(6);
            sp.group(2);
            sp.group(0);
            sp.rows_out(2);
        }
        let profile = obs.finish().unwrap();
        let json = profile.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\": \"nest\""));
        assert!(json.contains("\"rows_in\": 6"));
        assert!(json.contains("\"nest_groups\": 2"));
        assert!(json.contains("\"group_card_hist\": {\"0\": 1, \"1\": 0, \"2-3\": 1"));
        assert!(json.contains("\"io\": null"));
    }

    #[test]
    fn io_stats_fold_into_snapshot() {
        use nra_storage::iosim::IoConfig;
        let obs = profiling();
        iosim::enable(IoConfig::default());
        iosim::charge_seq_scan(1000, 4);
        span(|| "scan".to_string()).rows_out(1000);
        let profile = obs.finish().unwrap();
        let io = iosim::disable().unwrap();
        assert!(io.seq_pages > 0);
        assert_eq!(profile.io.unwrap().seq_pages, io.seq_pages);
        assert!(profile.to_json().contains("\"seq_pages\""));
    }

    #[test]
    fn json_escapes_qualified_names() {
        let obs = profiling();
        {
            let _s = scope(|| "b\"2\\".to_string());
            span(|| "υ-nest".to_string()).rows_out(1);
        }
        let json = obs.finish().unwrap().to_json();
        assert!(json.contains("\"name\": \"b\\\"2\\\\/υ-nest\""), "{json}");
        let parsed = json::Json::parse(&json).unwrap();
        let ops = parsed.get("ops").unwrap().as_arr().unwrap();
        assert_eq!(ops[0].get("name").unwrap().as_str(), Some("b\"2\\/υ-nest"));
    }
}
