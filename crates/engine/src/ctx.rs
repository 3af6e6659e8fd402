//! The one per-thread query context (DESIGN.md §10.1).
//!
//! Everything a query installs on its thread — batch width, governor —
//! lives in a single thread-local slot. [`enter`] swaps a whole
//! [`QueryCtx`] in and the returned [`CtxGuard`] swaps the previous one
//! back, so nested scopes (a test's `set_batch_rows` around a query's own
//! context) restore exactly. The setters other modules export
//! (`vec::set_batch_rows`, `governor::install`) are one-field writers of
//! this slot.
//!
//! An unset field (`None`) means the built-in default: the full batch
//! width, no governor.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

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
}

/// The thread-local slot. Scalar fields are plain `Cell`s so the
/// disarmed fast paths (`governor::charge`/`checkpoint`) stay a single
/// load of `flags`.
pub(crate) struct Slot {
    pub(crate) batch_rows: Cell<Option<usize>>,
    pub(crate) governor: RefCell<Option<Arc<Governor>>>,
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
        }
    }
}

/// This thread's context, as installed (unset fields stay `None`).
pub fn current() -> QueryCtx {
    with(|s| QueryCtx {
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
/// one-field setters (`vec::set_batch_rows`, …) are made of.
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
