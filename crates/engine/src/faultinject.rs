//! Deterministic fault injection at named execution sites.
//!
//! The governor's recovery guarantees — structured errors instead of
//! process death, no poisoned state — are only trustworthy if every
//! failure path is actually exercised. This module lets tests (and the
//! `NRA_FAULT` knob, parsed by [`crate::config`]) plant a synthetic failure at a
//! *named site* in the execution stack:
//!
//! * [`JOIN_BUILD`] — right before a hash join materializes its build
//!   tables;
//! * [`NEST_FLUSH`] — right before a `υ` nest flushes its group buffers
//!   into nested tuples;
//! * [`LINKING_SCAN`] — at the start of a linking/pseudo-selection scan
//!   (including the fused cascades).
//!
//! A fault spec is `site:nth[:kind[:ms]]` — the `nth` pass through the
//! site (1-based) triggers the fault. Kinds: `alloc` (a synthetic
//! allocation failure surfacing as
//! [`EngineError::ResourceExhausted`]), `panic` (an injected panic the
//! statement-level `exec::contain` must catch), and `delay` (sleep `ms`
//! milliseconds — for widening cancellation windows in tests). Multiple
//! specs are comma-separated:
//! `NRA_FAULT=join-build:1:panic,nest-flush:2:alloc`.
//!
//! Sites compile to [`hit`], which is an `#[inline]` check of a
//! thread-local flag armed only while a governor with a non-empty
//! [`FaultPlan`] is installed — release-mode overhead when disabled is a
//! single thread-local byte load.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::EngineError;
use crate::governor;

/// Hash-join build-table materialization.
pub const JOIN_BUILD: &str = "join-build";
/// Nest (`υ`) group-buffer flush (hash, sort, and fused variants).
pub const NEST_FLUSH: &str = "nest-flush";
/// Linking / pseudo-selection scan start (including fused cascades).
pub const LINKING_SCAN: &str = "linking-scan";

/// Every named fault site, for test matrices.
pub const SITES: [&str; 3] = [JOIN_BUILD, NEST_FLUSH, LINKING_SCAN];

/// Synthetic request size reported by an injected allocation failure.
pub const INJECTED_ALLOC_BYTES: u64 = 1 << 40;

/// What an armed fault does when its site is hit for the `nth` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Report a synthetic allocation failure
    /// ([`EngineError::ResourceExhausted`] with
    /// [`INJECTED_ALLOC_BYTES`] requested).
    AllocFail,
    /// Panic (`panic!`) — exercises the statement-level containment.
    Panic,
    /// Sleep for the given number of milliseconds, then continue.
    Delay(u64),
}

/// One armed fault: trigger `kind` on the `nth` (1-based) pass through
/// `site`, counted over the whole query.
#[derive(Debug)]
pub struct FaultSpec {
    pub site: String,
    pub nth: u64,
    pub kind: FaultKind,
    hits: AtomicU64,
}

/// The set of faults armed for one query. Empty by default; built from
/// `QueryOptions::fault(..)` or from the `NRA_FAULT` entries of a
/// [`Config`](crate::config::Config).
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Arm `kind` on the `nth` (1-based; 0 is treated as 1) pass through
    /// `site`.
    pub fn push(&mut self, site: impl Into<String>, nth: u64, kind: FaultKind) {
        self.specs.push(FaultSpec {
            site: site.into(),
            nth: nth.max(1),
            kind,
            hits: AtomicU64::new(0),
        });
    }

    /// Count one pass through `site` and trigger any fault whose turn it
    /// is. `limit` is the installed memory limit (reported by synthetic
    /// allocation failures).
    pub(crate) fn observe(&self, site: &str, limit: u64) -> Result<(), EngineError> {
        for spec in &self.specs {
            if spec.site != site {
                continue;
            }
            let n = spec.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if n != spec.nth {
                continue;
            }
            match spec.kind {
                FaultKind::AllocFail => {
                    nra_obs::trace::emit(|| nra_obs::trace::TraceEvent::Governor {
                        action: "fault-injected".into(),
                        detail: format!("{site} (alloc-fail, hit {n})"),
                    });
                    return Err(EngineError::ResourceExhausted {
                        operator: site.to_string(),
                        requested: INJECTED_ALLOC_BYTES,
                        limit,
                    });
                }
                FaultKind::Panic => {
                    nra_obs::trace::emit(|| nra_obs::trace::TraceEvent::Governor {
                        action: "fault-injected".into(),
                        detail: format!("{site} (panic, hit {n})"),
                    });
                    panic!("injected fault at `{site}` (hit {n})");
                }
                FaultKind::Delay(ms) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
        }
        Ok(())
    }
}

/// Pass through the named fault site. A single thread-local flag check
/// when no fault plan is armed (the common case).
#[inline]
pub fn hit(site: &str) -> Result<(), EngineError> {
    if !governor::faults_armed() {
        return Ok(());
    }
    governor::observe_fault(site)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_counting_triggers_once() {
        let mut plan = FaultPlan::default();
        plan.push(JOIN_BUILD, 2, FaultKind::AllocFail);
        assert!(plan.observe(JOIN_BUILD, 0).is_ok());
        let err = plan.observe(JOIN_BUILD, 42).unwrap_err();
        match err {
            EngineError::ResourceExhausted {
                operator,
                requested,
                limit,
            } => {
                assert_eq!(operator, JOIN_BUILD);
                assert_eq!(requested, INJECTED_ALLOC_BYTES);
                assert_eq!(limit, 42);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Only the nth pass triggers; later passes sail through.
        assert!(plan.observe(JOIN_BUILD, 0).is_ok());
        // Other sites are never affected.
        assert!(plan.observe(NEST_FLUSH, 0).is_ok());
    }

    #[test]
    fn hit_is_inert_without_governor() {
        for site in SITES {
            assert!(hit(site).is_ok());
        }
    }
}
