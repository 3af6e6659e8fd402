//! Pipelined (fused) nest + linking selection — paper §4.2.2.
//!
//! Instead of materializing the nested relation and scanning it again for
//! the linking selection, the condition is evaluated *while the nesting is
//! taking place*: one sort, one group scan, and the output is already the
//! flat `N1` projection the next step needs. This is the "optimized nested
//! relational approach" whose processing cost the paper reports as roughly
//! an order of magnitude below the two-pass original (§5.2 in-text
//! numbers).

use nra_engine::EngineError;
use nra_engine::{faultinject, governor};
use nra_storage::{Relation, Schema, Truth, Value};

use crate::linking::{fold, LinkCond, LinkSelection, NULL};

/// A linking predicate with columns resolved against the *flat input*
/// schema (pre-nest): `outer` lies among the nesting attributes, `inner`
/// and `marker` among the nested ones.
#[derive(Debug, Clone)]
pub struct FusedLink<'a> {
    pub cond: &'a LinkCond,
    pub outer: Option<usize>,
    pub inner: Option<usize>,
    pub marker: Option<usize>,
}

impl<'a> FusedLink<'a> {
    /// Resolve a [`LinkSelection`]'s names against the flat input schema.
    pub fn from_selection(sel: &'a LinkSelection, schema: &Schema) -> Result<Self, EngineError> {
        let resolve = |name: &str| -> Result<usize, EngineError> {
            schema
                .try_resolve(name)
                .ok_or_else(|| EngineError::Column(name.to_string()))
        };
        let marker = sel.marker.as_deref().map(resolve).transpose()?;
        let (outer, inner) = sel.cond.columns();
        Ok(FusedLink {
            cond: &sel.cond,
            outer: outer.map(resolve).transpose()?,
            inner: inner.map(resolve).transpose()?,
            marker,
        })
    }

    /// Evaluate the linking predicate over a group of member rows.
    ///
    /// The iterator must yield the group's *raw* rows (padded ones
    /// included); the marker filter is applied here. The outer linking
    /// attribute is a nesting attribute, so it is constant across the raw
    /// group — including all-padded (empty-set) groups — and is read from
    /// the first row.
    pub fn eval<'r>(&self, rows: impl Iterator<Item = &'r [Value]>) -> Truth {
        let mut rows = rows.peekable();
        let outer = match (self.outer, rows.peek()) {
            (Some(o), Some(&head)) => &head[o],
            _ => &NULL,
        };
        let members = rows
            .filter(|row| self.marker.is_none_or(|m| !row[m].is_null()))
            .map(|row| self.inner.map_or(&NULL, |i| &row[i]));
        fold(self.cond, outer, members)
    }
}

/// One-pass nest + linking selection.
///
/// Sorts `rel` (consumed, so in place) by the nesting attributes `n1`,
/// scans the groups once, evaluates `link` per group, and emits the `N1`
/// projection of each passing group head. With `use_pseudo`, failing
/// groups are emitted with the output columns in `pad_out` (indices into
/// the `n1` projection) nulled instead of being dropped.
pub fn fused_nest_select(
    mut rel: Relation,
    n1: &[usize],
    link: FusedLink,
    use_pseudo: bool,
    pad_out: &[usize],
) -> Result<Relation, EngineError> {
    {
        let mut sp = nra_obs::span(|| "nest[sort]".to_string());
        sp.rows_in(rel.len());
        governor::charge(
            "nest[sort]",
            governor::tuple_bytes(rel.len(), rel.schema().len()),
        )?;
        governor::checkpoint("sort")?;
        rel.sort_by_columns(n1);
    }
    let mut sp = nra_obs::span(|| "link".to_string());
    sp.rows_in(rel.len());
    faultinject::hit(faultinject::NEST_FLUSH)?;
    let mut out = Relation::new(rel.schema().project(n1));
    let rows = rel.rows();
    // Group boundaries first, via the batch-windowed adjacent-row
    // kernel (same governor cadence as the inline scan it replaced).
    let bounds = nra_engine::vec::group_bounds(rows, n1, "nest-scan")?;
    governor::charge("link", governor::tuple_bytes(bounds.len(), n1.len()))?;
    let mut stats = nra_obs::OpStats::default();
    for (g, &(lo, hi)) in bounds.iter().enumerate() {
        governor::tick(g, "linking-scan")?;
        sp.group(hi - lo);
        let truth = link.eval(rows[lo..hi].iter().map(Vec::as_slice));
        stats.record_outcome(truth);
        if truth == Truth::True {
            out.push_unchecked(n1.iter().map(|&i| rows[lo][i].clone()).collect());
        } else if use_pseudo {
            stats.padded += 1;
            let mut padded: Vec<Value> = n1.iter().map(|&i| rows[lo][i].clone()).collect();
            for &p in pad_out {
                padded[p] = Value::Null;
            }
            out.push_unchecked(padded);
        }
    }
    sp.absorb_stats(&stats);
    sp.rows_out(out.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linking::SetQuant;
    use crate::nest::nest;
    use nra_storage::{relation, CmpOp, ColumnType};

    fn sample() -> Relation {
        relation!(
            [
                ("r.a", ColumnType::Int),
                ("s.b", ColumnType::Int),
                ("s.rid", ColumnType::Int)
            ],
            [
                [Value::Int(1), Value::Int(10), Value::Int(0)],
                [Value::Int(1), Value::Int(11), Value::Int(1)],
                [Value::Int(2), Value::Null, Value::Null],
                [Value::Int(3), Value::Int(5), Value::Int(2)],
                [Value::Int(3), Value::Null, Value::Int(3)],
            ]
        )
    }

    fn selection(op: CmpOp, quant: SetQuant) -> LinkSelection {
        LinkSelection::quant("r.a", op, quant, "s.b", Some("s.rid"))
    }

    /// The fused pass must agree with the two-pass (nest then select) path.
    fn check_agreement(sel: &LinkSelection, use_pseudo: bool) {
        let rel = sample();
        let n1 = vec![0usize];
        // Two-pass.
        let nested = nest(&rel, &["r.a"], &["s.b", "s.rid"], "s").unwrap();
        let two_pass = if use_pseudo {
            sel.pseudo_select(&nested, "s", &["r.a"]).unwrap()
        } else {
            sel.select(&nested, "s").unwrap()
        }
        .atoms_as_relation();
        // Fused.
        let link = FusedLink::from_selection(sel, rel.schema()).unwrap();
        let fused = fused_nest_select(rel.clone(), &n1, link, use_pseudo, &[0]).unwrap();
        assert!(
            fused.multiset_eq(&two_pass),
            "fused != two-pass for {sel:?} (pseudo={use_pseudo})\nfused:\n{fused}\ntwo-pass:\n{two_pass}"
        );
    }

    #[test]
    fn fused_agrees_with_two_pass_all_ops() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for quant in [SetQuant::Some, SetQuant::All] {
                for pseudo in [false, true] {
                    check_agreement(&selection(op, quant), pseudo);
                }
            }
        }
    }

    #[test]
    fn fused_agrees_with_two_pass_emptiness() {
        for sel in [
            LinkSelection::empty(Some("s.rid")),
            LinkSelection::not_empty(Some("s.rid")),
        ] {
            for pseudo in [false, true] {
                check_agreement(&sel, pseudo);
            }
        }
    }

    #[test]
    fn pseudo_pads_output_columns() {
        let rel = sample();
        let sel = selection(CmpOp::Gt, SetQuant::All);
        let link = FusedLink::from_selection(&sel, rel.schema()).unwrap();
        let out = fused_nest_select(rel, &[0], link, true, &[0]).unwrap();
        assert_eq!(out.len(), 3, "pseudo keeps every group");
        // a=1 fails (1 > 10 false) -> padded; a=2 empty -> passes.
        let nulls = out.rows().iter().filter(|r| r[0].is_null()).count();
        assert_eq!(nulls, 2);
    }

    #[test]
    fn eval_marker_exclusion() {
        let link = FusedLink {
            cond: &LinkCond::Empty,
            outer: None,
            inner: None,
            marker: Some(2),
        };
        let rows: Vec<Vec<Value>> = vec![vec![Value::Int(2), Value::Null, Value::Null]];
        assert_eq!(link.eval(rows.iter().map(Vec::as_slice)), Truth::True);
    }
}
