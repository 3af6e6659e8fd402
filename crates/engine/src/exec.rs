//! Statement-level execution helpers.
//!
//! Every query runs sequentially on the thread that calls it (DESIGN.md
//! §10); concurrency lives between queries — server connections,
//! sessions, the plan cache and admission — never inside one. What is
//! left here:
//!
//! * [`contain`] — the statement-level panic net: the query lifecycle
//!   runs every statement inside it, so a panicking operator surfaces as
//!   [`EngineError::WorkerPanicked`] instead of aborting the process;
//! * [`set_threads`] — a compatibility entry point that is accepted and
//!   ignored.

use crate::ctx::{self, CtxGuard};
use crate::error::EngineError;

/// Accepted and ignored: execution is sequential per query. The returned
/// guard changes nothing. Kept because `benchmark/` calls it;
/// removed together with its `nested_parallel` workload in the
/// benchmark's own change.
pub fn set_threads(_n: Option<usize>) -> CtxGuard {
    ctx::update(|_| {})
}

/// Best-effort rendering of a panic payload for
/// [`EngineError::WorkerPanicked`] messages (`panic!` payloads are
/// `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, converting a panic into a structured
/// [`EngineError::WorkerPanicked`] naming `site` instead of unwinding
/// further. The query lifecycle wraps the whole statement in it, so a
/// panicking operator can never abort the process.
pub fn contain<T, E: From<EngineError>>(
    site: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(E::from(EngineError::WorkerPanicked {
            site: site.to_string(),
            message: panic_message(payload.as_ref()),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compatibility setter leaves the context exactly as it was.
    #[test]
    fn default_budget_is_sequential() {
        let _batch = crate::vec::set_batch_rows(Some(3));
        let before = ctx::current();
        let _t = set_threads(Some(8));
        let after = ctx::current();
        assert_eq!(after.batch_rows, before.batch_rows);
        assert!(after.governor.is_none() && before.governor.is_none());
    }

    #[test]
    fn panics_become_structured_errors() {
        let result: Result<(), EngineError> = contain("statement", || panic!("boom"));
        match result {
            Err(EngineError::WorkerPanicked { site, message }) => {
                assert_eq!(site, "statement");
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(contain("statement", || Ok::<_, EngineError>(7)), Ok(7));
    }
}
