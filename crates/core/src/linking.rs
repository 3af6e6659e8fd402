//! Linking predicates and the linking/pseudo-selection operators
//! (paper Definitions 4 and 5).
//!
//! A linking predicate compares an atomic attribute with a set-valued
//! attribute (`A θ SOME {B}`, `A θ ALL {B}`) or tests a set for emptiness
//! (`{B} = ∅`, `{B} ≠ ∅` — the forms `NOT EXISTS` and `EXISTS` compile to).
//!
//! Two selection flavors:
//!
//! * **linking selection** `σ_C` — keeps exactly the tuples where `C`
//!   evaluates to `TRUE` (standard `WHERE` semantics);
//! * **pseudo-selection** `σ̄_{C,A}` — keeps *every* tuple, but pads the
//!   attributes in `A` with `NULL` for tuples failing `C`. This is the
//!   paper's device for negative/mixed operators: a failing inner tuple
//!   must stop being a member of the outer tuple's set without taking the
//!   outer tuple down with it.
//!
//! **The marker rule.** The unnesting outer joins pad primary keys (here:
//! synthesized row ids) with `NULL` when an outer tuple has no partner.
//! A linking selection therefore "only compares the linking attribute to
//! the linked attribute whose corresponding primary key is not null": set
//! members whose marker is `NULL` are excluded before the comparison, so an
//! all-padding group behaves as the empty set.

use nra_engine::EngineError;
use nra_engine::{faultinject, governor};
use nra_storage::{aggregate, AggFunc, CmpOp, Truth, Value};

use crate::nested::{NestedRelation, NestedSchema};

/// Quantifier over a set-valued comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetQuant {
    /// True if the comparison holds for some member (`FALSE` on empty).
    Some,
    /// True if the comparison holds for every member (`TRUE` on empty).
    All,
}

/// The condition of a linking selection.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkCond {
    /// `A θ SOME/ALL {B}` — `outer` names an atom, `inner` an attribute of
    /// the subschema.
    Quant {
        outer: String,
        op: CmpOp,
        quant: SetQuant,
        inner: String,
    },
    /// `{B} = ∅`.
    Empty,
    /// `{B} ≠ ∅`.
    NotEmpty,
    /// `A θ agg{B}` — aggregate-subquery extension: the set is folded
    /// with `func` before a scalar three-valued comparison. `inner` is
    /// `None` for `COUNT(*)`.
    AggCmp {
        outer: String,
        op: CmpOp,
        func: AggFunc,
        inner: Option<String>,
    },
}

/// A linking selection: condition plus the marker column of the subschema.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSelection {
    pub cond: LinkCond,
    /// Name of the marker attribute inside the subschema; members with a
    /// `NULL` marker are excluded. `None` means every member counts (the
    /// purely formal semantics of Definition 4).
    pub marker: Option<String>,
}

/// `NULL`, for a linking attribute a group does not have and for the
/// member placeholders of `[NOT] EXISTS` and `COUNT(*)`.
pub(crate) static NULL: Value = Value::Null;

/// The three-valued value of a linking predicate over one set — the one
/// fold behind the nested selection, the fused nest + selection and the
/// pushed-down nest probe. The condition's column names are not read:
/// `outer` is the linking attribute's value (ignored by the emptiness
/// tests), and `members` yields the linked attribute of each member the
/// marker rule kept (any placeholder where only the count matters:
/// `[NOT] EXISTS`, `COUNT(*)`).
pub fn fold<'a>(
    cond: &LinkCond,
    outer: &Value,
    mut members: impl Iterator<Item = &'a Value>,
) -> Truth {
    match *cond {
        LinkCond::Empty => Truth::from_bool(members.next().is_none()),
        LinkCond::NotEmpty => Truth::from_bool(members.next().is_some()),
        LinkCond::AggCmp { op, func, .. } => outer.sql_compare(op, &aggregate(func, members)),
        LinkCond::Quant { op, quant, .. } => {
            // SOME is FALSE on the empty set and stops at TRUE; ALL dually.
            let (mut acc, stop) = match quant {
                SetQuant::Some => (Truth::False, Truth::True),
                SetQuant::All => (Truth::True, Truth::False),
            };
            for m in members {
                let t = outer.sql_compare(op, m);
                acc = match quant {
                    SetQuant::Some => acc.or(t),
                    SetQuant::All => acc.and(t),
                };
                if acc == stop {
                    break;
                }
            }
            acc
        }
    }
}

impl LinkCond {
    /// The linking (outer) and linked (inner) attribute names.
    pub fn columns(&self) -> (Option<&str>, Option<&str>) {
        match self {
            LinkCond::Quant { outer, inner, .. } => (Some(outer), Some(inner)),
            LinkCond::AggCmp { outer, inner, .. } => (Some(outer), inner.as_deref()),
            LinkCond::Empty | LinkCond::NotEmpty => (None, None),
        }
    }
}

struct Resolved {
    sub_idx: usize,
    outer_idx: Option<usize>,
    inner_idx: Option<usize>,
    marker_idx: Option<usize>,
}

impl LinkSelection {
    pub fn quant(
        outer: &str,
        op: CmpOp,
        quant: SetQuant,
        inner: &str,
        marker: Option<&str>,
    ) -> LinkSelection {
        LinkSelection {
            cond: LinkCond::Quant {
                outer: outer.to_string(),
                op,
                quant,
                inner: inner.to_string(),
            },
            marker: marker.map(str::to_string),
        }
    }

    pub fn empty(marker: Option<&str>) -> LinkSelection {
        LinkSelection {
            cond: LinkCond::Empty,
            marker: marker.map(str::to_string),
        }
    }

    pub fn not_empty(marker: Option<&str>) -> LinkSelection {
        LinkSelection {
            cond: LinkCond::NotEmpty,
            marker: marker.map(str::to_string),
        }
    }

    pub fn agg(
        outer: &str,
        op: CmpOp,
        func: AggFunc,
        inner: Option<&str>,
        marker: Option<&str>,
    ) -> LinkSelection {
        LinkSelection {
            cond: LinkCond::AggCmp {
                outer: outer.to_string(),
                op,
                func,
                inner: inner.map(str::to_string),
            },
            marker: marker.map(str::to_string),
        }
    }

    fn resolve(&self, rel: &NestedRelation, sub: &str) -> Result<Resolved, EngineError> {
        let sub_idx = rel
            .schema
            .sub_index(sub)
            .ok_or_else(|| EngineError::Column(format!("subschema {sub}")))?;
        let sub_schema = &rel.schema.subs[sub_idx].1;
        let column = |schema: &NestedSchema, name: &str| {
            schema
                .atom_index(name)
                .ok_or_else(|| EngineError::Column(name.to_string()))
        };
        let marker_idx = self
            .marker
            .as_deref()
            .map(|m| column(sub_schema, m))
            .transpose()?;
        let (outer, inner) = self.cond.columns();
        let outer_idx = outer.map(|o| column(&rel.schema, o)).transpose()?;
        let inner_idx = inner.map(|i| column(sub_schema, i)).transpose()?;
        Ok(Resolved {
            sub_idx,
            outer_idx,
            inner_idx,
            marker_idx,
        })
    }

    fn eval_tuple(&self, r: &Resolved, tuple: &crate::nested::NestedTuple) -> Truth {
        let outer = r.outer_idx.map_or(&NULL, |o| &tuple.atoms[o]);
        let members = (tuple.sets[r.sub_idx].iter())
            .filter(|m| r.marker_idx.is_none_or(|mi| !m.atoms[mi].is_null()))
            .map(|m| r.inner_idx.map_or(&NULL, |i| &m.atoms[i]));
        fold(&self.cond, outer, members)
    }

    /// Linking selection `σ_C` over the subschema `sub`: keep tuples where
    /// the condition is `TRUE`.
    pub fn select(&self, rel: &NestedRelation, sub: &str) -> Result<NestedRelation, EngineError> {
        let mut sp = nra_obs::span(|| "link".to_string());
        sp.rows_in(rel.len());
        let r = self.resolve(rel, sub)?;
        faultinject::hit(faultinject::LINKING_SCAN)?;
        // Batch-amortized scan: outcomes accumulate in a local OpStats
        // (absorbed once) and the governor is polled per batch — totals
        // identical to the per-row bookkeeping.
        let mut stats = nra_obs::OpStats::default();
        let mut tuples = Vec::new();
        for window in rel.tuples.chunks(nra_engine::vec::batch_rows()) {
            governor::checkpoint("linking-scan")?;
            for t in window {
                let truth = self.eval_tuple(&r, t);
                stats.record_outcome(truth);
                if truth == Truth::True {
                    tuples.push(t.clone());
                }
            }
        }
        sp.absorb_stats(&stats);
        governor::charge(
            "link",
            governor::tuple_bytes(tuples.len(), rel.schema.atoms.len()),
        )?;
        sp.rows_out(tuples.len());
        Ok(NestedRelation {
            schema: rel.schema.clone(),
            tuples,
        })
    }

    /// Pseudo-selection `σ̄_{C,A}`: keep every tuple; pad the atom columns
    /// named in `pad` with `NULL` on tuples where the condition is not
    /// `TRUE`.
    pub fn pseudo_select(
        &self,
        rel: &NestedRelation,
        sub: &str,
        pad: &[&str],
    ) -> Result<NestedRelation, EngineError> {
        let mut sp = nra_obs::span(|| "link".to_string());
        sp.rows_in(rel.len());
        let r = self.resolve(rel, sub)?;
        let pad_idx: Vec<usize> = pad
            .iter()
            .map(|p| {
                rel.schema
                    .atom_index(p)
                    .ok_or_else(|| EngineError::Column((*p).to_string()))
            })
            .collect::<Result<_, _>>()?;
        faultinject::hit(faultinject::LINKING_SCAN)?;
        let mut stats = nra_obs::OpStats::default();
        let mut tuples = Vec::with_capacity(rel.len());
        for window in rel.tuples.chunks(nra_engine::vec::batch_rows()) {
            governor::checkpoint("linking-scan")?;
            for t in window {
                let truth = self.eval_tuple(&r, t);
                stats.record_outcome(truth);
                let mut kept = t.clone();
                if truth != Truth::True {
                    stats.padded += 1;
                    for &i in &pad_idx {
                        kept.atoms[i] = Value::Null;
                    }
                }
                tuples.push(kept);
            }
        }
        sp.absorb_stats(&stats);
        governor::charge(
            "link",
            governor::tuple_bytes(tuples.len(), rel.schema.atoms.len()),
        )?;
        sp.rows_out(tuples.len());
        Ok(NestedRelation {
            schema: rel.schema.clone(),
            tuples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::nest;
    use nra_storage::{relation, ColumnType, Relation};

    /// r.a groups: 1 -> {(10,k100),(11,k101)}, 2 -> {(null,knull)} padded,
    /// 3 -> {(5,k103),(null,k104)} (real NULL value with non-null marker).
    fn nested() -> NestedRelation {
        let rel: Relation = relation!(
            [
                ("r.a", ColumnType::Int),
                ("s.b", ColumnType::Int),
                ("s.k", ColumnType::Int)
            ],
            [
                [Value::Int(1), Value::Int(10), Value::Int(100)],
                [Value::Int(1), Value::Int(11), Value::Int(101)],
                [Value::Int(2), Value::Null, Value::Null],
                [Value::Int(3), Value::Int(5), Value::Int(103)],
                [Value::Int(3), Value::Null, Value::Int(104)],
            ]
        );
        nest(&rel, &["r.a"], &["s.b", "s.k"], "s").unwrap()
    }

    #[test]
    fn marker_excludes_padding_for_emptiness() {
        let sel = LinkSelection::empty(Some("s.k"));
        let out = sel.select(&nested(), "s").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples[0].atoms, vec![Value::Int(2)]);
        let sel2 = LinkSelection::not_empty(Some("s.k"));
        let out2 = sel2.select(&nested(), "s").unwrap();
        assert_eq!(out2.len(), 2);
    }

    #[test]
    fn without_marker_padding_counts_as_member() {
        let sel = LinkSelection::empty(None);
        let out = sel.select(&nested(), "s").unwrap();
        assert_eq!(out.len(), 0, "every group has at least one raw member");
    }

    #[test]
    fn all_quantifier_with_nulls() {
        // a=1: 12 > {10,11} -> true... outer is a constant per tuple; use
        // outer attr r.a itself: r.a > ALL {s.b}.
        // a=1: 1>10 false -> False. a=2: empty -> True. a=3: 3>5 false -> False.
        let sel = LinkSelection::quant("r.a", CmpOp::Gt, SetQuant::All, "s.b", Some("s.k"));
        let out = sel.select(&nested(), "s").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples[0].atoms, vec![Value::Int(2)]);
    }

    #[test]
    fn all_with_null_member_value_is_unknown() {
        // a=3: 3 < {5, NULL}: 3<5 true, 3<NULL unknown -> Unknown -> not kept.
        let sel = LinkSelection::quant("r.a", CmpOp::Lt, SetQuant::All, "s.b", Some("s.k"));
        let fold_over = |outer: i64, set: &[Value]| fold(&sel.cond, &Value::Int(outer), set.iter());
        assert_eq!(fold_over(3, &[Value::Int(5), Value::Null]), Truth::Unknown);
        // a=1: 1 < 10 and 1 < 11 -> True. a=2: empty -> True.
        assert_eq!(fold_over(1, &[Value::Int(10), Value::Int(11)]), Truth::True);
        assert_eq!(fold_over(2, &[]), Truth::True);
        // ... and the selection drops the unknown tuple.
        assert_eq!(sel.select(&nested(), "s").unwrap().len(), 2);
    }

    #[test]
    fn some_quantifier() {
        // r.a < SOME {s.b}: a=1 true (1<10); a=2 empty -> false;
        // a=3: 3<5 true.
        let sel = LinkSelection::quant("r.a", CmpOp::Lt, SetQuant::Some, "s.b", Some("s.k"));
        let out = sel.select(&nested(), "s").unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn pseudo_select_pads_failing_tuples() {
        let sel = LinkSelection::quant("r.a", CmpOp::Gt, SetQuant::All, "s.b", Some("s.k"));
        let out = sel.pseudo_select(&nested(), "s", &["r.a"]).unwrap();
        assert_eq!(out.len(), 3, "pseudo-selection keeps everything");
        assert!(out.tuples[0].atoms[0].is_null(), "a=1 fails and is padded");
        assert_eq!(
            out.tuples[1].atoms[0],
            Value::Int(2),
            "a=2 passes untouched"
        );
        assert!(out.tuples[2].atoms[0].is_null(), "a=3 fails");
    }

    #[test]
    fn unknown_fails_selection_and_gets_padded() {
        let sel = LinkSelection::quant("r.a", CmpOp::Lt, SetQuant::All, "s.b", Some("s.k"));
        let kept = sel.select(&nested(), "s").unwrap();
        assert_eq!(kept.len(), 2, "unknown rejected by σ");
        let padded = sel.pseudo_select(&nested(), "s", &["r.a"]).unwrap();
        assert!(padded.tuples[2].atoms[0].is_null(), "unknown padded by σ̄");
    }

    #[test]
    fn bad_names_error() {
        let sel = LinkSelection::quant("nope", CmpOp::Lt, SetQuant::All, "s.b", None);
        assert!(sel.select(&nested(), "s").is_err());
        let sel2 = LinkSelection::quant("r.a", CmpOp::Lt, SetQuant::All, "nope", None);
        assert!(sel2.select(&nested(), "s").is_err());
        let sel3 = LinkSelection::empty(Some("nope"));
        assert!(sel3.select(&nested(), "s").is_err());
        assert!(LinkSelection::empty(None).select(&nested(), "zzz").is_err());
    }

    use nra_storage::Value;
}
