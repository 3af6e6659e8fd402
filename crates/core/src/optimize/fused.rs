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
use nra_storage::{aggregate, AggFunc, CmpOp, Relation, Schema, Truth, Value};

use crate::linking::{LinkCond, LinkSelection, SetQuant};

/// What the fused pass computes per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    Empty,
    NotEmpty,
    Quant {
        op: CmpOp,
        quant: SetQuant,
    },
    /// Aggregate fold before a scalar comparison (`inner` is `None` for
    /// `COUNT(*)`).
    Agg {
        op: CmpOp,
        func: AggFunc,
    },
}

/// A linking predicate with columns resolved against the *flat input*
/// schema (pre-nest): `outer` lies among the nesting attributes, `inner`
/// and `marker` among the nested ones.
#[derive(Debug, Clone)]
pub struct FusedLink {
    pub kind: FusedKind,
    pub outer: Option<usize>,
    pub inner: Option<usize>,
    pub marker: Option<usize>,
}

impl FusedLink {
    /// Resolve a [`LinkSelection`]'s names against the flat input schema.
    pub fn from_selection(
        sel: &LinkSelection,
        schema: &Schema,
        _n1: &[usize],
    ) -> Result<FusedLink, EngineError> {
        let resolve = |name: &str| -> Result<usize, EngineError> {
            schema
                .try_resolve(name)
                .ok_or_else(|| EngineError::Column(name.to_string()))
        };
        let marker = sel.marker.as_deref().map(resolve).transpose()?;
        Ok(match &sel.cond {
            LinkCond::Empty => FusedLink {
                kind: FusedKind::Empty,
                outer: None,
                inner: None,
                marker,
            },
            LinkCond::NotEmpty => FusedLink {
                kind: FusedKind::NotEmpty,
                outer: None,
                inner: None,
                marker,
            },
            LinkCond::Quant {
                outer,
                op,
                quant,
                inner,
            } => FusedLink {
                kind: FusedKind::Quant {
                    op: *op,
                    quant: *quant,
                },
                outer: Some(resolve(outer)?),
                inner: Some(resolve(inner)?),
                marker,
            },
            LinkCond::AggCmp {
                outer,
                op,
                func,
                inner,
            } => FusedLink {
                kind: FusedKind::Agg {
                    op: *op,
                    func: *func,
                },
                outer: Some(resolve(outer)?),
                inner: inner.as_deref().map(resolve).transpose()?,
                marker,
            },
        })
    }

    /// Evaluate the linking predicate over a group of member rows.
    ///
    /// The iterator must yield the group's *raw* rows (padded ones
    /// included); the marker filter is applied here. The outer linking
    /// attribute is a nesting attribute, so it is constant across the raw
    /// group — including all-padded (empty-set) groups, where it is read
    /// from the group head.
    pub fn eval<'a>(&self, members: impl Iterator<Item = &'a [Value]>) -> Truth {
        let mut outer_val: Option<&Value> = None;
        let members = members
            .inspect(|row| {
                if outer_val.is_none() {
                    if let Some(o) = self.outer {
                        outer_val = Some(&row[o]);
                    }
                }
            })
            .filter(|row| match self.marker {
                Some(m) => !row[m].is_null(),
                None => true,
            });
        match self.kind {
            FusedKind::Empty => Truth::from_bool(members.count() == 0),
            FusedKind::NotEmpty => Truth::from_bool(members.count() != 0),
            FusedKind::Agg { op, func } => {
                let folded = match self.inner {
                    Some(inner_idx) => {
                        let vals: Vec<&Value> = members.map(|row| &row[inner_idx]).collect();
                        aggregate(func, vals.into_iter())
                    }
                    // COUNT(*): surviving members count as rows.
                    None => Value::Int(members.count() as i64),
                };
                match outer_val {
                    Some(v) => v.sql_compare(op, &folded),
                    None => Truth::Unknown, // empty raw group cannot occur
                }
            }
            FusedKind::Quant { op, quant } => {
                let outer_idx = self.outer.expect("quant link has outer column");
                let inner_idx = self.inner.expect("quant link has inner column");
                let mut acc = match quant {
                    SetQuant::Some => Truth::False,
                    SetQuant::All => Truth::True,
                };
                for row in members {
                    let t = row[outer_idx].sql_compare(op, &row[inner_idx]);
                    acc = match quant {
                        SetQuant::Some => acc.or(t),
                        SetQuant::All => acc.and(t),
                    };
                    match (quant, acc) {
                        (SetQuant::Some, Truth::True) | (SetQuant::All, Truth::False) => break,
                        _ => {}
                    }
                }
                acc
            }
        }
    }
}

/// One-pass nest + linking selection.
///
/// Sorts `rel` (consumed, so in place) by the nesting attributes `n1`,
/// scans the groups once, evaluates `link` per group, and emits the `N1` projection of each
/// passing group head. With `use_pseudo`, failing groups are emitted with
/// the output columns in `pad_out` (indices into the `n1` projection)
/// nulled instead of being dropped.
///
/// Note the outer linking attribute is constant within a group (it is one
/// of the nesting attributes), so evaluating it against each member row via
/// [`FusedLink::eval`] is exactly the set comparison `A θ L {B}`.
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
    fused_nest_select_presorted(&rel, n1, link, use_pseudo, pad_out)
}

/// Like [`fused_nest_select`] but assumes `rel` is already grouped
/// (contiguous on `n1`) — the building block of the single-sort cascade in
/// [`crate::optimize::pipeline`].
pub fn fused_nest_select_presorted(
    rel: &Relation,
    n1: &[usize],
    link: FusedLink,
    use_pseudo: bool,
    pad_out: &[usize],
) -> Result<Relation, EngineError> {
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
    use crate::nest::nest;
    use nra_storage::{relation, ColumnType};

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
        let link = FusedLink::from_selection(sel, rel.schema(), &n1).unwrap();
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
        let link = FusedLink::from_selection(&sel, rel.schema(), &[0]).unwrap();
        let out = fused_nest_select(rel, &[0], link, true, &[0]).unwrap();
        assert_eq!(out.len(), 3, "pseudo keeps every group");
        // a=1 fails (1 > 10 false) -> padded; a=2 empty -> passes.
        let nulls = out.rows().iter().filter(|r| r[0].is_null()).count();
        assert_eq!(nulls, 2);
    }

    #[test]
    fn eval_marker_exclusion() {
        let link = FusedLink {
            kind: FusedKind::Empty,
            outer: None,
            inner: None,
            marker: Some(2),
        };
        let rows: Vec<Vec<Value>> = vec![vec![Value::Int(2), Value::Null, Value::Null]];
        assert_eq!(link.eval(rows.iter().map(Vec::as_slice)), Truth::True);
    }
}
