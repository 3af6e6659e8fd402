//! Vectorized columnar execution core (DESIGN.md §13).
//!
//! Base tables are stored as typed columns; the engine's operators above
//! the scan are row-at-a-time over `Vec<Tuple>`. This module is where the
//! two meet:
//!
//! * [`ValueBatch`] — a window `[start, start+n)` over a table's stored
//!   lanes (`i64`/`f64` slices, string offsets + arena, validity read at
//!   a bit offset): borrowed, never transposed or copied;
//! * [`eval_pred`] / [`SelVec`] — a vectorized 3VL expression evaluator
//!   computing [`Truth`](nra_storage::Truth) over whole columns and
//!   producing selection vectors instead of filtered row copies — how
//!   every block's local predicates `Δ_i` are evaluated;
//! * [`group_bounds`] — batch-windowed adjacent-row grouping-equality
//!   over sorted runs, the kernel behind the sort-based ν-nest and the
//!   fused nest+linking cascade;
//! * [`fxhash`] — a vendored zero-dependency FxHash-style hasher backing
//!   every hash-join build and nest/setop hash-grouping table.
//!
//! Every kernel is *exact*: the lane kernels replicate
//! `Value::sql_cmp` semantics bit-for-bit (including `Int`↔`Decimal`
//! scaling overflow and `NULL` propagation), and the generic fallback
//! builds the one `Value` and calls the scalar comparison. The
//! row-at-a-time evaluator in `crate::expr` is what everything above the
//! scan runs, and the differential-testing reference for the kernels.
//! Results, profile counters, goldens and committed baselines are
//! byte-identical at any batch size.
//!
//! The batch width is [`DEFAULT_BATCH_ROWS`] (matching the governor's
//! `CHECK_ROWS` cadence). [`set_batch_rows`] overrides it in the
//! thread's [`QueryCtx`](crate::ctx::QueryCtx): the test seam that
//! shrinks it to 1 or 3 to shake batch-boundary handling.

pub mod batch;
pub mod eval;
pub mod fxhash;

pub use batch::{Lane, LaneKind, SelVec, Validity, ValueBatch};
pub use eval::{eval_expr_column, eval_pred, select_rows, ExprCol};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};

use crate::ctx::{self, CtxGuard};
use crate::error::EngineError;
use crate::governor;
use nra_storage::tuple::group_eq_on;
use nra_storage::Tuple;

/// Default rows per [`ValueBatch`]: matches the governor's cancellation
/// cadence (`governor::CHECK_ROWS`), so one batch is one unit of
/// cooperative bookkeeping.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// The batch width for vectorized scans on this thread: the context's
/// override when set, else [`DEFAULT_BATCH_ROWS`]. Always at least 1.
pub fn batch_rows() -> usize {
    ctx::with(|c| c.batch_rows.get())
        .unwrap_or(DEFAULT_BATCH_ROWS)
        .max(1)
}

/// Set (or with `None`, clear) this thread's batch width for the
/// lifetime of the returned guard. Tests shrink it to 1 or 3 to shake
/// batch-boundary handling.
pub fn set_batch_rows(n: Option<usize>) -> CtxGuard {
    ctx::update(|c| c.batch_rows = n.map(|n| n.max(1)))
}

/// Group boundaries of a relation sorted (or grouped) on `cols`:
/// half-open `(lo, hi)` runs of adjacent rows equal under grouping
/// semantics (`NULL` matches `NULL`), exactly what the sequential
/// `group_eq_on` scan in the sort-based ν-nest produces.
///
/// The scan runs in batch windows (one governor checkpoint's worth of
/// rows at a time) comparing adjacent pairs with the short-circuiting
/// `group_eq_on`: the input is an intermediate relation — rows, not
/// stored lanes — and each value is consumed exactly once, so there is
/// nothing for a lane loop to amortize. Batch seams compare the
/// last row of the previous window against the first of the next, so
/// groups straddling batch boundaries are never split. The governor is
/// polled on the same per-group cadence as the scalar scan
/// (`tick(groups, phase)`).
pub fn group_bounds(
    rows: &[Tuple],
    cols: &[usize],
    phase: &str,
) -> Result<Vec<(usize, usize)>, EngineError> {
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    if rows.is_empty() {
        return Ok(bounds);
    }
    let bsz = batch_rows();
    // Row indices that start a new group; row 0 always does.
    let mut starts: Vec<usize> = vec![0];
    let mut base = 0;
    for window in rows.chunks(bsz) {
        if base > 0 && !group_eq_on(&rows[base - 1], &rows[base], cols) {
            starts.push(base);
        }
        for i in 1..window.len() {
            if !group_eq_on(&window[i - 1], &window[i], cols) {
                starts.push(base + i);
            }
        }
        base += window.len();
    }
    bounds.reserve(starts.len());
    for (g, &lo) in starts.iter().enumerate() {
        // Same cooperative-cancellation cadence as the scalar
        // boundary scan: one poll per CHECK_ROWS groups.
        governor::tick(g, phase)?;
        let hi = starts.get(g + 1).copied().unwrap_or(rows.len());
        bounds.push((lo, hi));
    }
    Ok(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::Value;

    #[test]
    fn batch_rows_default_and_override() {
        assert_eq!(batch_rows(), DEFAULT_BATCH_ROWS);
        {
            let _g = set_batch_rows(Some(3));
            assert_eq!(batch_rows(), 3);
            {
                let _g2 = set_batch_rows(Some(0));
                assert_eq!(batch_rows(), 1, "width clamps to at least 1");
            }
            assert_eq!(batch_rows(), 3);
        }
    }

    #[test]
    fn group_bounds_matches_scalar_scan() -> Result<(), EngineError> {
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(2), Value::Int(2)],
            vec![Value::Null, Value::Int(3)],
            vec![Value::Null, Value::Int(4)],
            vec![Value::Int(3), Value::Int(5)],
        ];
        let expect = vec![(0, 2), (2, 3), (3, 5), (5, 6)];
        for bsz in [1, 2, 3, 1024] {
            let _g = set_batch_rows(Some(bsz));
            assert_eq!(group_bounds(&rows, &[0], "t")?, expect, "bsz={bsz}");
        }
        assert!(group_bounds(&[], &[0], "t")?.is_empty());
        Ok(())
    }

    #[test]
    fn group_bounds_mixed_types_fall_back() -> Result<(), EngineError> {
        // Int vs Decimal differ under grouping equality even when
        // numerically equal; a mixed column must use the generic path.
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(5)],
            vec![Value::Decimal(500)],
            vec![Value::Decimal(500)],
            vec![Value::str("x")],
        ];
        for bsz in [1, 2, 1024] {
            let _g = set_batch_rows(Some(bsz));
            assert_eq!(
                group_bounds(&rows, &[0], "t")?,
                vec![(0, 1), (1, 3), (3, 4)],
                "bsz={bsz}"
            );
        }
        Ok(())
    }
}
