//! Per-query resource governance: memory budgets and cooperative
//! cancellation, plus admission control across queries.
//!
//! A [`Governor`] is built per query (from `QueryOptions` limits over
//! the database's [`Config`](crate::config::Config), an explicit
//! [`CancelToken`], or a `timeout_ms` deadline), wrapped in an `Arc`,
//! and carried in the query's [`QueryCtx`](crate::ctx::QueryCtx) on the
//! thread that executes it.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when idle.** [`charge`] and [`checkpoint`] open with an
//!    `#[inline]` check of the context's flag byte; with no limit, no
//!    deadline and no token the flag is 0 and both are a single
//!    thread-local load. The committed benchmark baselines run
//!    with the governor compiled in but disarmed.
//! 2. **Exact when armed.** Every memory charge is added straight to the
//!    [`Governor`]'s counter (one uncontended `Relaxed` `fetch_add` — a
//!    query runs on one thread), so the first charge that crosses the
//!    limit is the one that fails.
//! 3. **Determinism preserved.** Charges are sums over the same
//!    allocations in the same order, so a query under its budget behaves
//!    byte-identically to an ungoverned run, and one over it fails at
//!    the same charge every time.
//!
//! Cancellation is cooperative: [`checkpoint`] is called once per batch
//! or every [`CHECK_ROWS`] rows inside the operator loops, so a
//! cancelled query stops within one batch of work and surfaces
//! [`EngineError::Cancelled`] naming the interrupted phase.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ctx;
use crate::error::EngineError;

/// Row cadence of cooperative-cancellation checks in row-at-a-time scan
/// loops (matches the default batch width).
pub const CHECK_ROWS: usize = 1024;

/// Rough per-value footprint used for budget accounting (a `Value` is a
/// 16-24 byte enum; string heap payloads are not itemized).
pub const VALUE_BYTES: u64 = 16;

/// Estimated footprint of `rows` materialized tuples of `width` columns
/// (values plus one `Vec` header per tuple).
pub fn tuple_bytes(rows: usize, width: usize) -> u64 {
    rows as u64 * (width as u64 * VALUE_BYTES + 24)
}

/// A cloneable cancellation handle. Calling [`CancelToken::cancel`] from
/// any thread makes every governed checkpoint of the query fail with
/// [`EngineError::Cancelled`] at its next opportunity.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-query governance state: the memory budget and cancellation
/// sources. Built once per query; the query's context
/// and its lifecycle (which reads `mem_used` at the end) share it via
/// `Arc`.
#[derive(Debug, Default)]
pub struct Governor {
    mem_limit: Option<u64>,
    mem_used: AtomicU64,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl Governor {
    pub fn new() -> Governor {
        Governor::default()
    }

    /// Enforce a memory budget of `bytes` over governed allocations.
    pub fn mem_limit(mut self, bytes: u64) -> Governor {
        self.mem_limit = Some(bytes);
        self
    }

    /// Cancel the query `ms` milliseconds from now (`0` cancels at the
    /// first checkpoint).
    pub fn timeout_ms(mut self, ms: u64) -> Governor {
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self
    }

    /// Attach an explicit cancellation handle.
    pub fn cancel_token(mut self, token: CancelToken) -> Governor {
        self.cancel = Some(token);
        self
    }

    /// Whether installing this governor would arm anything at all.
    /// Ungoverned queries skip installation entirely, keeping the
    /// context's flag byte at 0.
    pub fn is_armed(&self) -> bool {
        self.mem_limit.is_some() || self.deadline.is_some() || self.cancel.is_some()
    }

    /// Bytes charged so far.
    pub fn mem_used(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    pub(crate) fn flags(&self) -> u8 {
        let mut f = 0;
        if self.mem_limit.is_some() {
            f |= F_MEM;
        }
        if self.deadline.is_some() || self.cancel.is_some() {
            f |= F_CANCEL;
        }
        f
    }
}

const F_MEM: u8 = 1;
const F_CANCEL: u8 = 2;

/// Charge `bytes` of governed allocation against the query budget on
/// behalf of `site`. A single thread-local flag check when no memory
/// limit is armed.
#[inline]
pub fn charge(site: &str, bytes: u64) -> Result<(), EngineError> {
    if ctx::with(|c| c.flags.get()) & F_MEM == 0 {
        return Ok(());
    }
    charge_armed(site, bytes)
}

fn charge_armed(site: &str, bytes: u64) -> Result<(), EngineError> {
    ctx::with(|c| {
        let cur = c.governor.borrow();
        let Some(g) = cur.as_ref() else {
            return Ok(());
        };
        let total = g.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // Live progress sees the high water (only memory-armed queries
        // reach this path).
        c.progress(|p| p.raise_mem(total));
        let limit = g.mem_limit.unwrap_or(u64::MAX);
        if total > limit {
            return Err(EngineError::ResourceExhausted {
                operator: site.to_string(),
                requested: bytes,
                limit,
            });
        }
        Ok(())
    })
}

/// Accumulates exact byte amounts locally and flushes them through
/// [`charge`] in one call — the batch-amortized charging path used by
/// the vectorized executors (DESIGN.md §13). The thread-local flag
/// check and counter update run once per batch instead of once per
/// allocation, while the flushed total is exactly the sum of the added
/// bytes, so governed budgets observe identical charges at any batch
/// size.
#[derive(Debug)]
pub struct BatchCharger {
    site: &'static str,
    pending: u64,
}

impl BatchCharger {
    pub fn new(site: &'static str) -> BatchCharger {
        BatchCharger { site, pending: 0 }
    }

    /// Record `bytes` of allocation without touching thread-local state.
    #[inline]
    pub fn add(&mut self, bytes: u64) {
        self.pending += bytes;
    }

    /// Bytes recorded since the last flush.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Flush the accumulated bytes into the governed budget.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        let bytes = std::mem::take(&mut self.pending);
        if bytes > 0 {
            charge(self.site, bytes)
        } else {
            Ok(())
        }
    }
}

/// Cooperative cancellation checkpoint. Fails with
/// [`EngineError::Cancelled`] naming `phase` when the query's token was
/// cancelled or its deadline passed. A single thread-local flag check
/// when neither a token nor a deadline is armed.
#[inline]
pub fn checkpoint(phase: &str) -> Result<(), EngineError> {
    if ctx::with(|c| c.flags.get()) & F_CANCEL == 0 {
        return Ok(());
    }
    checkpoint_armed(phase)
}

/// [`checkpoint`], but only on every [`CHECK_ROWS`]-th iteration — the
/// cadence sequential scan loops use (`governor::tick(i, "phase")?`).
///
/// The cadence doubles as the live-progress heartbeat: each firing past
/// the loop head reports one whole [`CHECK_ROWS`] step to the context's
/// [`nra_obs::progress`] state (a no-op when none is installed). Whole
/// steps only — the tail of a loop is never counted here — so the
/// progress row counter undercounts monotonically and never overshoots,
/// while operator counters are untouched either way.
#[inline]
pub fn tick(i: usize, phase: &str) -> Result<(), EngineError> {
    if !i.is_multiple_of(CHECK_ROWS) {
        return Ok(());
    }
    if i > 0 {
        ctx::with(|c| c.progress(|p| p.add_rows(CHECK_ROWS as u64, phase)));
    }
    checkpoint(phase)
}

fn checkpoint_armed(phase: &str) -> Result<(), EngineError> {
    ctx::with(|c| {
        let cur = c.governor.borrow();
        let Some(g) = cur.as_ref() else {
            return Ok(());
        };
        let cancelled = g.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || g.deadline.is_some_and(|d| Instant::now() >= d);
        if cancelled {
            return Err(EngineError::Cancelled {
                phase: phase.to_string(),
            });
        }
        Ok(())
    })
}

/// The installed governor's memory limit (0 when none is set), as an
/// injected allocation failure reports it.
pub(crate) fn mem_limit() -> u64 {
    ctx::with(|c| c.governor.borrow().as_ref().and_then(|g| g.mem_limit)).unwrap_or(0)
}

// ---------------------------------------------------------------------
// Admission control: the *global* layer above the per-query governors.
//
// A [`Governor`] protects one query from itself; an
// [`AdmissionController`] protects the process from the sum of its
// queries. Every session's per-query budget (its `mem_limit_bytes`)
// doubles as the reservation the controller aggregates: a query is
// admitted only while the number of running queries stays under
// `max_concurrent` AND the sum of admitted reservations stays under
// `mem_cap_bytes`. Saturated admission *queues* (condvar wait) up to
// `queue_timeout_ms`, then fails with [`EngineError::Admission`] — load
// sheds at the front door instead of thrashing the engine.

/// Admission limits. Both caps default to unlimited, which makes the
/// controller a no-op — embedded single-caller use never queues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum concurrently-executing queries (`None` = unlimited).
    pub max_concurrent: Option<usize>,
    /// Cap on the sum of admitted per-query memory reservations, in
    /// bytes (`None` = unlimited). Queries without a budget reserve 0
    /// and pass this cap freely.
    pub mem_cap_bytes: Option<u64>,
    /// How long a query may wait for capacity before admission fails.
    /// `0` sheds immediately when saturated.
    pub queue_timeout_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: None,
            mem_cap_bytes: None,
            queue_timeout_ms: 1_000,
        }
    }
}

impl AdmissionConfig {
    pub fn new() -> AdmissionConfig {
        AdmissionConfig::default()
    }

    pub fn max_concurrent(mut self, n: usize) -> AdmissionConfig {
        self.max_concurrent = Some(n.max(1));
        self
    }

    pub fn mem_cap_bytes(mut self, bytes: u64) -> AdmissionConfig {
        self.mem_cap_bytes = Some(bytes);
        self
    }

    pub fn queue_timeout_ms(mut self, ms: u64) -> AdmissionConfig {
        self.queue_timeout_ms = ms;
        self
    }

    /// Whether any cap is armed (unarmed controllers take a fast path
    /// that never touches the mutex).
    pub fn is_armed(&self) -> bool {
        self.max_concurrent.is_some() || self.mem_cap_bytes.is_some()
    }
}

#[derive(Debug, Default)]
struct AdmissionState {
    running: usize,
    mem_reserved: u64,
}

/// Aggregates per-session budgets under process-wide caps; see the
/// module comment above. Shared via `Arc` by everything that executes
/// queries against one database.
#[derive(Debug, Default)]
pub struct AdmissionController {
    config: AdmissionConfig,
    state: std::sync::Mutex<AdmissionState>,
    cv: std::sync::Condvar,
}

/// RAII admission slot: holding one means the query is counted against
/// the caps; dropping it frees the slot and wakes one queued waiter
/// per released resource class.
#[must_use = "dropping the permit releases the admission slot"]
#[derive(Debug)]
pub struct AdmissionPermit {
    controller: Option<Arc<AdmissionController>>,
    mem_reserved: u64,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(c) = self.controller.take() {
            {
                let mut st = c.state.lock().unwrap_or_else(|e| e.into_inner());
                st.running -= 1;
                st.mem_reserved -= self.mem_reserved;
            }
            nra_obs::metrics::global().gauge_set(
                "nra_admission_running",
                &[],
                c.snapshot().0 as u64,
            );
            c.cv.notify_all();
        }
    }
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            config,
            state: std::sync::Mutex::new(AdmissionState::default()),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Unlimited controller (the default for a fresh database).
    pub fn unlimited() -> AdmissionController {
        AdmissionController::new(AdmissionConfig::default())
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// `(running, mem_reserved)` right now.
    pub fn snapshot(&self) -> (usize, u64) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (st.running, st.mem_reserved)
    }

    fn blocked_by(&self, st: &AdmissionState, mem_reserve: u64) -> Option<(String, u64)> {
        if let Some(max) = self.config.max_concurrent {
            if st.running >= max {
                return Some(("concurrency cap".to_string(), max as u64));
            }
        }
        if let Some(cap) = self.config.mem_cap_bytes {
            // A single reservation larger than the whole cap can still
            // run alone — otherwise it would queue forever.
            if st.mem_reserved + mem_reserve > cap && st.running > 0 {
                return Some(("memory cap".to_string(), cap));
            }
        }
        None
    }

    /// Wait for capacity and take a slot, reserving `mem_reserve` bytes
    /// (the query's own memory budget; 0 for unbudgeted queries).
    /// Fails with [`EngineError::Admission`] when the caps stay
    /// saturated for [`AdmissionConfig::queue_timeout_ms`].
    pub fn admit(self: &Arc<Self>, mem_reserve: u64) -> Result<AdmissionPermit, EngineError> {
        if !self.config.is_armed() {
            // Unlimited: count nothing, park nothing — embedded callers
            // pay zero synchronization here.
            return Ok(AdmissionPermit {
                controller: None,
                mem_reserved: 0,
            });
        }
        let deadline = Instant::now() + Duration::from_millis(self.config.queue_timeout_ms);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut queued = false;
        loop {
            match self.blocked_by(&st, mem_reserve) {
                None => {
                    st.running += 1;
                    st.mem_reserved += mem_reserve;
                    let running = st.running;
                    drop(st);
                    nra_obs::metrics::global().counter_add("nra_admission_admitted_total", &[], 1);
                    nra_obs::metrics::global().gauge_max(
                        "nra_admission_running",
                        &[],
                        running as u64,
                    );
                    return Ok(AdmissionPermit {
                        controller: Some(self.clone()),
                        mem_reserved: mem_reserve,
                    });
                }
                Some((detail, limit)) => {
                    if !queued {
                        queued = true;
                        nra_obs::metrics::global().counter_add(
                            "nra_admission_queued_total",
                            &[],
                            1,
                        );
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        let running = st.running;
                        drop(st);
                        nra_obs::metrics::global().counter_add(
                            "nra_admission_rejected_total",
                            &[],
                            1,
                        );
                        return Err(EngineError::Admission {
                            detail,
                            waited_ms: self.config.queue_timeout_ms,
                            running,
                            limit,
                        });
                    }
                    let (guard, _timeout) = self
                        .cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::CtxGuard;
    use crate::faultinject;
    use nra_storage::fault::{self, FaultKind, FaultPlan};

    fn install(gov: Option<Arc<Governor>>) -> CtxGuard {
        ctx::update(|c| c.governor = gov)
    }

    #[test]
    fn ungoverned_thread_is_inert() {
        assert!(charge("x", u64::MAX).is_ok());
        assert!(checkpoint("x").is_ok());
        assert!(faultinject::hit(faultinject::JOIN_BUILD).is_ok());
    }

    #[test]
    fn uninstall_restores_previous_state() {
        let outer = Arc::new(Governor::new().mem_limit(1_000_000));
        let inner = Arc::new(Governor::new().mem_limit(10));
        let _og = install(Some(outer.clone()));
        assert!(charge("outer", 100).is_ok());
        {
            let _ig = install(Some(inner.clone()));
            assert!(charge("inner", 100).is_err());
        }
        // Back on the outer governor: small charges pass again.
        assert!(charge("outer", 100).is_ok());
        drop(_og);
        assert!(charge("outer", u64::MAX).is_ok());
        // Each governor saw exactly its own charges.
        assert_eq!(outer.mem_used(), 200);
        assert_eq!(inner.mem_used(), 100);
    }

    #[test]
    fn tiny_limits_enforce_promptly() {
        let g = Arc::new(Governor::new().mem_limit(1_000));
        let _guard = install(Some(g.clone()));
        // Enforcement is exact: every charge lands in the counter at
        // once, and the first one past the limit is the one that fails.
        for used in [300, 600, 900] {
            charge("nest-build", 300).unwrap();
            assert_eq!(g.mem_used(), used);
        }
        charge("nest-build", 100).unwrap();
        assert_eq!(g.mem_used(), 1_000, "reaching the limit exactly is allowed");
        match charge("nest-build", 1) {
            Err(EngineError::ResourceExhausted {
                operator,
                requested,
                limit,
            }) => {
                assert_eq!(operator, "nest-build");
                assert_eq!(requested, 1);
                assert_eq!(limit, 1_000);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn charges_below_limit_accumulate_without_error() {
        let g = Arc::new(Governor::new().mem_limit(1 << 30));
        let _guard = install(Some(g.clone()));
        for i in 1..=1000 {
            charge("op", 1024).unwrap();
            // No lag: the counter is current after every charge.
            assert_eq!(g.mem_used(), i * 1024);
        }
    }

    #[test]
    fn batch_charger_flushes_exact_totals() {
        let g = Arc::new(Governor::new().mem_limit(1 << 30));
        let _guard = install(Some(g.clone()));
        let mut c = BatchCharger::new("vec-batch");
        for _ in 0..10 {
            c.add(100);
        }
        assert_eq!(c.pending(), 1000);
        assert_eq!(
            g.mem_used(),
            0,
            "nothing reaches the governor before a flush"
        );
        c.flush().unwrap();
        assert_eq!(c.pending(), 0);
        assert_eq!(g.mem_used(), 1000);
        c.flush().unwrap(); // empty flush is a no-op
        assert_eq!(g.mem_used(), 1000);
    }

    #[test]
    fn cancel_token_trips_checkpoint() {
        let token = CancelToken::new();
        let g = Arc::new(Governor::new().cancel_token(token.clone()));
        let _guard = install(Some(g));
        assert!(checkpoint("scan").is_ok());
        token.cancel();
        match checkpoint("scan") {
            Err(EngineError::Cancelled { phase }) => assert_eq!(phase, "scan"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn zero_timeout_cancels_immediately() {
        let g = Arc::new(Governor::new().timeout_ms(0));
        let _guard = install(Some(g));
        assert!(matches!(
            checkpoint("dispatch"),
            Err(EngineError::Cancelled { .. })
        ));
    }

    #[test]
    fn tick_checks_on_cadence_only() {
        let token = CancelToken::new();
        token.cancel();
        let g = Arc::new(Governor::new().cancel_token(token));
        let _guard = install(Some(g));
        assert!(tick(1, "scan").is_ok());
        assert!(tick(CHECK_ROWS - 1, "scan").is_ok());
        assert!(tick(0, "scan").is_err());
        assert!(tick(CHECK_ROWS, "scan").is_err());
    }

    #[test]
    fn fault_plan_fires_through_hit() {
        let mut plan = FaultPlan::default();
        plan.push(faultinject::NEST_FLUSH, 1, FaultKind::AllocFail);
        let _armed = fault::install(plan);
        let _guard = install(Some(Arc::new(Governor::new().mem_limit(42))));
        assert!(faultinject::hit(faultinject::JOIN_BUILD).is_ok());
        // The injected failure reports the installed governor's limit.
        assert!(matches!(
            faultinject::hit(faultinject::NEST_FLUSH),
            Err(EngineError::ResourceExhausted { limit: 42, .. })
        ));
        // One-shot: the nth pass has been consumed.
        assert!(faultinject::hit(faultinject::NEST_FLUSH).is_ok());
    }

    #[test]
    fn unlimited_admission_is_a_no_op() {
        let ctl = Arc::new(AdmissionController::unlimited());
        let permits: Vec<_> = (0..64).map(|_| ctl.admit(1 << 40).unwrap()).collect();
        assert_eq!(ctl.snapshot(), (0, 0), "unarmed controller counts nothing");
        drop(permits);
    }

    #[test]
    fn concurrency_cap_queues_then_rejects() {
        let ctl = Arc::new(AdmissionController::new(
            AdmissionConfig::new().max_concurrent(2).queue_timeout_ms(0),
        ));
        let a = ctl.admit(0).unwrap();
        let _b = ctl.admit(0).unwrap();
        assert_eq!(ctl.snapshot().0, 2);
        match ctl.admit(0) {
            Err(EngineError::Admission { running, limit, .. }) => {
                assert_eq!(running, 2);
                assert_eq!(limit, 2);
            }
            other => panic!("expected Admission error, got {other:?}"),
        }
        drop(a);
        let _c = ctl.admit(0).expect("freed slot admits again");
    }

    #[test]
    fn memory_cap_aggregates_reservations() {
        let ctl = Arc::new(AdmissionController::new(
            AdmissionConfig::new()
                .mem_cap_bytes(1_000)
                .queue_timeout_ms(0),
        ));
        let a = ctl.admit(600).unwrap();
        assert!(matches!(ctl.admit(600), Err(EngineError::Admission { .. })));
        // Unbudgeted queries reserve 0 and always pass the memory cap.
        let _free = ctl.admit(0).unwrap();
        drop(a);
        let _b = ctl.admit(600).unwrap();
        // A reservation above the whole cap still runs when alone.
        drop(_b);
        drop(_free);
        let _huge = ctl.admit(10_000).expect("oversized reservation runs alone");
    }

    #[test]
    fn queued_waiter_is_admitted_when_capacity_frees() {
        let ctl = Arc::new(AdmissionController::new(
            AdmissionConfig::new()
                .max_concurrent(1)
                .queue_timeout_ms(5_000),
        ));
        let permit = ctl.admit(0).unwrap();
        let waiter = {
            let ctl = ctl.clone();
            std::thread::spawn(move || ctl.admit(0).map(|_p| ()))
        };
        std::thread::sleep(Duration::from_millis(50));
        drop(permit);
        waiter
            .join()
            .expect("waiter thread")
            .expect("queued query admitted after release");
        assert_eq!(ctl.snapshot(), (0, 0));
    }

    #[test]
    fn admission_error_renders_and_labels() {
        let e = EngineError::Admission {
            detail: "concurrency cap".to_string(),
            waited_ms: 7,
            running: 3,
            limit: 3,
        };
        assert_eq!(e.variant_name(), "admission");
        let s = e.to_string();
        assert!(s.contains("admission refused after 7 ms"), "{s}");
        assert!(s.contains("concurrency cap"), "{s}");
    }

    #[test]
    fn unarmed_governor_is_not_installed_armed() {
        assert!(!Governor::new().is_armed());
        assert!(Governor::new().mem_limit(1).is_armed());
        assert!(Governor::new().timeout_ms(1).is_armed());
        assert!(Governor::new().cancel_token(CancelToken::new()).is_armed());
    }
}
