//! The one per-thread query context (DESIGN.md §10.1).
//!
//! Everything a query installs on its coordinating thread — worker
//! budget, morsel floor, batch width, governor — lives in a single
//! thread-local slot. [`enter`] swaps a whole [`QueryCtx`] in and the
//! returned [`CtxGuard`] swaps the previous one back, so nested scopes
//! (a test's `set_threads` around a query's own context) restore
//! exactly. The setters other modules export (`exec::set_threads`,
//! `exec::set_morsel_rows`, `vec::set_batch_rows`, `governor::install`)
//! are one-field writers of this slot.
//!
//! `exec::run_partitioned` does one [`capture`] on the coordinator and
//! one [`WorkerCtx::enter`] per worker: the worker sees the
//! coordinator's whole context plus its observability handoff.
//!
//! An unset field (`None`) falls back to the process-wide
//! [`Config`](crate::config::Config); `Database::execute` always enters
//! a fully resolved context, so no query run through a database
//! consults the process default.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::governor::Governor;

/// The values one query runs under. `None` means "not set on this
/// thread": the accessor falls back to the process [`Config`] and then
/// to the built-in default.
///
/// [`Config`]: crate::config::Config
#[derive(Clone, Default)]
pub struct QueryCtx {
    /// Worker budget for the partition scheduler (see `exec::threads`).
    pub threads: Option<usize>,
    /// Minimum rows per worker (see `exec::morsel_rows`).
    pub morsel_rows: Option<usize>,
    /// Rows per vectorized window (see `vec::batch_rows`).
    pub batch_rows: Option<usize>,
    /// The query's resource governor, shared with every worker.
    pub governor: Option<Arc<Governor>>,
}

/// The thread-local slot. Scalar fields are plain `Cell`s so the
/// disarmed fast paths (`governor::charge`/`checkpoint`,
/// `faultinject::hit`) stay a single load of `flags`.
pub(crate) struct Slot {
    pub(crate) threads: Cell<Option<usize>>,
    pub(crate) morsel_rows: Cell<Option<usize>>,
    pub(crate) batch_rows: Cell<Option<usize>>,
    pub(crate) governor: RefCell<Option<Arc<Governor>>>,
    /// Which governor facilities are armed (`governor::F_*` bits).
    pub(crate) flags: Cell<u8>,
    /// This thread's un-flushed memory charges, in bytes.
    pub(crate) pending: Cell<u64>,
}

thread_local! {
    static SLOT: Slot = const {
        Slot {
            threads: Cell::new(None),
            morsel_rows: Cell::new(None),
            batch_rows: Cell::new(None),
            governor: RefCell::new(None),
            flags: Cell::new(0),
            pending: Cell::new(0),
        }
    };
}

#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&Slot) -> R) -> R {
    SLOT.with(f)
}

impl Slot {
    /// Install `ctx`, returning what was installed before. This thread's
    /// pending memory charges are flushed into the governor being
    /// replaced, so `Governor::mem_used` is exact once a query's guard
    /// is gone and every context starts from zero pending bytes.
    fn swap(&self, ctx: QueryCtx) -> QueryCtx {
        if let Some(g) = &*self.governor.borrow() {
            g.flush(self.pending.replace(0));
        }
        self.flags
            .set(ctx.governor.as_ref().map_or(0, |g| g.flags()));
        QueryCtx {
            threads: self.threads.replace(ctx.threads),
            morsel_rows: self.morsel_rows.replace(ctx.morsel_rows),
            batch_rows: self.batch_rows.replace(ctx.batch_rows),
            governor: self.governor.replace(ctx.governor),
        }
    }
}

/// This thread's context, as installed (unset fields stay `None`).
pub fn current() -> QueryCtx {
    with(|s| QueryCtx {
        threads: s.threads.get(),
        morsel_rows: s.morsel_rows.get(),
        batch_rows: s.batch_rows.get(),
        governor: s.governor.borrow().clone(),
    })
}

/// Restores the previous context on drop.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct CtxGuard {
    prev: QueryCtx,
}

/// Install `ctx` on this thread for the lifetime of the returned guard.
pub fn enter(ctx: QueryCtx) -> CtxGuard {
    CtxGuard {
        prev: with(|s| s.swap(ctx)),
    }
}

/// [`enter`] the current context with `change` applied — what the
/// one-field setters (`exec::set_threads`, …) are made of.
pub fn update(change: impl FnOnce(&mut QueryCtx)) -> CtxGuard {
    let mut ctx = current();
    change(&mut ctx);
    enter(ctx)
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        with(|s| s.swap(std::mem::take(&mut self.prev)));
    }
}

/// A coordinator's context captured for its workers: the [`QueryCtx`]
/// plus the observability handoff (profile collector, per-query metrics
/// registry, progress state).
pub struct WorkerCtx {
    ctx: QueryCtx,
    obs: nra_obs::Handoff,
}

/// Capture the calling thread's context for `exec::run_partitioned`
/// workers.
pub fn capture() -> WorkerCtx {
    WorkerCtx {
        ctx: current(),
        obs: nra_obs::Handoff::capture(),
    }
}

impl WorkerCtx {
    /// Run `f` on the current (worker) thread under the captured
    /// context, returning its result and the worker's profile (when the
    /// coordinator was collecting).
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> (T, Option<nra_obs::Profile>) {
        let _ctx = enter(self.ctx.clone());
        self.obs.run(f)
    }
}
