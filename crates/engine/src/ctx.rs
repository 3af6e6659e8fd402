//! The one per-thread query context (DESIGN.md §10.1).
//!
//! Everything a query installs on its thread — batch width, governor,
//! live progress — lives in a single thread-local slot. [`update`] swaps
//! a changed [`QueryCtx`] in and the returned [`CtxGuard`] swaps the
//! previous one back, so nested scopes (a test's `set_batch_rows` around
//! a query's own context) restore exactly.
//!
//! An unset field (`None`) means the built-in default: the full batch
//! width, no governor, no progress.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use nra_obs::progress::ProgressState;

use crate::governor::Governor;

/// The values one query runs under. `None` means "not set on this
/// thread": the accessor falls back to the built-in default.
#[derive(Default)]
pub struct QueryCtx {
    /// Rows per vectorized window, a test-only override (see
    /// `vec::batch_rows`).
    pub batch_rows: Option<usize>,
    /// The query's resource governor.
    pub governor: Option<Arc<Governor>>,
    /// The query's live progress, fed by the governor's row cadence and
    /// memory charges.
    pub progress: Option<Arc<ProgressState>>,
}

/// The thread-local slot. Scalar fields are plain `Cell`s so the
/// disarmed fast paths (`governor::charge`/`checkpoint`) stay a single
/// load of `flags`.
pub(crate) struct Slot {
    pub(crate) batch_rows: Cell<Option<usize>>,
    pub(crate) governor: RefCell<Option<Arc<Governor>>>,
    pub(crate) progress: RefCell<Option<Arc<ProgressState>>>,
    /// Which governor facilities are armed (`governor::F_*` bits).
    pub(crate) flags: Cell<u8>,
}

// The one per-thread query context: everything a query installs that the
// operators read without a parameter.
thread_local! {
    static SLOT: Slot = const {
        Slot {
            batch_rows: Cell::new(None),
            governor: RefCell::new(None),
            progress: RefCell::new(None),
            flags: Cell::new(0),
        }
    };
}

#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&Slot) -> R) -> R {
    SLOT.with(f)
}

impl Slot {
    /// Install `ctx`, returning what was installed before.
    fn swap(&self, ctx: QueryCtx) -> QueryCtx {
        self.flags
            .set(ctx.governor.as_ref().map_or(0, |g| g.flags()));
        QueryCtx {
            batch_rows: self.batch_rows.replace(ctx.batch_rows),
            governor: self.governor.replace(ctx.governor),
            progress: self.progress.replace(ctx.progress),
        }
    }

    /// Run `f` on the installed progress state, if any. Called once per
    /// 1024 rows and per governed charge, never per row.
    pub(crate) fn progress(&self, f: impl FnOnce(&ProgressState)) {
        if let Some(state) = self.progress.borrow().as_deref() {
            f(state);
        }
    }
}

/// This thread's context, as installed (unset fields stay `None`).
pub fn current() -> QueryCtx {
    with(|s| QueryCtx {
        batch_rows: s.batch_rows.get(),
        governor: s.governor.borrow().clone(),
        progress: s.progress.borrow().clone(),
    })
}

/// Restores the previous context on drop.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct CtxGuard {
    prev: QueryCtx,
}

/// Install the current context with `change` applied on this thread for
/// the lifetime of the returned guard — what `vec::set_batch_rows` and
/// the query lifecycle (governor and progress at once) are made of.
pub fn update(change: impl FnOnce(&mut QueryCtx)) -> CtxGuard {
    let mut ctx = current();
    change(&mut ctx);
    CtxGuard {
        prev: with(|s| s.swap(ctx)),
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        with(|s| s.swap(std::mem::take(&mut self.prev)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{tick, CHECK_ROWS};

    #[test]
    fn install_guard_restores_previous_state() {
        let (outer, inner) = (
            Arc::new(ProgressState::new()),
            Arc::new(ProgressState::new()),
        );
        let _outer = update(|c| c.progress = Some(outer.clone()));
        {
            let _inner = update(|c| c.progress = Some(inner.clone()));
            tick(CHECK_ROWS, "inner").unwrap();
        }
        tick(CHECK_ROWS, "outer").unwrap();
        assert_eq!(inner.snapshot().rows_processed, 1024);
        assert_eq!(outer.snapshot().rows_processed, 1024);
        assert_eq!(outer.snapshot().phase, "outer");
    }
}
