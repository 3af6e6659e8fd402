//! The operator fault sites, as the engine sees them.
//!
//! The harness itself — sites, kinds, plans, the `NRA_FAULT` grammar and
//! the thread's slot — is [`nra_storage::fault`]; the query lifecycle
//! arms a fresh plan per query. This module maps what fires at an
//! operator site onto the engine's failure paths:
//!
//! * [`JOIN_BUILD`] — right before a hash join materializes its build
//!   tables;
//! * [`NEST_FLUSH`] — right before a `υ` nest flushes its group buffers
//!   into nested tuples;
//! * [`LINKING_SCAN`] — at the start of a linking/pseudo-selection scan
//!   (including the fused cascades).
//!
//! `alloc` becomes [`EngineError::ResourceExhausted`]; `panic` panics,
//! for the statement-level `exec::contain` to catch.

use nra_storage::fault::{self, FaultKind};

pub use nra_storage::fault::{JOIN_BUILD, LINKING_SCAN, NEST_FLUSH};

use crate::error::EngineError;
use crate::governor;

/// Synthetic request size reported by an injected allocation failure.
pub const INJECTED_ALLOC_BYTES: u64 = 1 << 40;

/// Pass through the named operator site. One thread-local read when no
/// fault plan is armed (the common case).
#[inline]
pub fn hit(site: &str) -> Result<(), EngineError> {
    match fault::hit(site) {
        None => Ok(()),
        Some((kind, n)) => fire(site, kind, n),
    }
}

#[cold]
fn fire(site: &str, kind: FaultKind, n: u64) -> Result<(), EngineError> {
    let panic = kind == FaultKind::Panic;
    nra_obs::trace::emit(|| nra_obs::trace::TraceEvent::Governor {
        action: "fault-injected".into(),
        detail: format!(
            "{site} ({}, hit {n})",
            if panic { "panic" } else { "alloc-fail" }
        ),
    });
    if panic {
        panic!("injected fault at `{site}` (hit {n})");
    }
    Err(EngineError::ResourceExhausted {
        operator: site.to_string(),
        requested: INJECTED_ALLOC_BYTES,
        limit: governor::mem_limit(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::fault::FaultPlan;

    #[test]
    fn nth_counting_triggers_once() {
        let mut plan = FaultPlan::default();
        plan.push(JOIN_BUILD, 2, FaultKind::AllocFail);
        let _armed = fault::install(plan);
        assert!(hit(JOIN_BUILD).is_ok());
        match hit(JOIN_BUILD).unwrap_err() {
            EngineError::ResourceExhausted {
                operator,
                requested,
                limit,
            } => {
                assert_eq!(operator, JOIN_BUILD);
                assert_eq!(requested, INJECTED_ALLOC_BYTES);
                assert_eq!(limit, 0, "no governor installed");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Only the nth pass triggers; later passes sail through.
        assert!(hit(JOIN_BUILD).is_ok());
        // Other sites are never affected.
        assert!(hit(NEST_FLUSH).is_ok());
    }

    #[test]
    fn hit_is_inert_without_governor() {
        for site in fault::OPERATOR_SITES {
            assert!(hit(site).is_ok());
        }
    }
}
