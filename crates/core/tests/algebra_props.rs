//! Property tests on the nested relational algebra operators: nest/unnest
//! inversion, hash/sort nest agreement, fused vs two-pass linking
//! selection, and the nest push-down equivalence — all over randomly
//! generated relations containing NULLs. Formerly proptest; now
//! seeded-deterministic so the suite runs with no external crates.

use nra_core::linking::{LinkSelection, SetQuant};
use nra_core::nest::{nest_hash_idx, nest_sort_idx};
use nra_core::optimize::fused::{fused_nest_select, FusedLink};
use nra_core::optimize::pushdown::outer_join_nested;
use nra_engine::{join, JoinSpec};
use nra_storage::rng::Pcg32;
use nra_storage::{CmpOp, Column, ColumnType, Relation, Schema, Value};

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const QUANTS: [SetQuant; 2] = [SetQuant::Some, SetQuant::All];

fn cell(rng: &mut Pcg32) -> Value {
    if rng.bool(1.0 / 7.0) {
        Value::Null
    } else {
        Value::Int(rng.range_i64(0, 4))
    }
}

/// A random flat relation (a, key, val, marker) where marker mimics a
/// carried rid: NULL with some probability.
fn rel3(rng: &mut Pcg32) -> Relation {
    let n = rng.index(14);
    Relation::with_rows(
        Schema::new(vec![
            Column::new("g.a", ColumnType::Int),
            Column::new("g.k", ColumnType::Int),
            Column::new("m.v", ColumnType::Int),
            Column::new("m.rid", ColumnType::Int),
        ]),
        (0..n)
            .map(|_| vec![cell(rng), cell(rng), cell(rng), cell(rng)])
            .collect(),
    )
}

/// υ is inverted by unnest: flattening the nested relation restores
/// the input as a multiset (nest never creates empty sets from flat
/// input, so unnest loses nothing).
#[test]
fn nest_unnest_roundtrip() {
    let mut rng = Pcg32::new(0x5eed_2001);
    for case in 0..128 {
        let rel = rel3(&mut rng);
        let nested = nest_hash_idx(&rel, &[0, 1], &[2, 3], "sub").unwrap();
        let back = nested.flatten().expect("depth-1, single sub");
        assert!(back.multiset_eq(&rel), "case {case}");
    }
}

/// Hash-based and sort-based nest produce the same nested relation up
/// to tuple and member order.
#[test]
fn hash_and_sort_nest_agree() {
    let mut rng = Pcg32::new(0x5eed_2002);
    for case in 0..128 {
        let rel = rel3(&mut rng);
        let h = nest_hash_idx(&rel, &[0, 1], &[2, 3], "sub").unwrap();
        let s = nest_sort_idx(&rel, &[0, 1], &[2, 3], "sub").unwrap();
        assert_eq!(h.len(), s.len(), "case {case}");
        let hf = h.flatten().unwrap();
        let sf = s.flatten().unwrap();
        assert!(hf.multiset_eq(&sf), "case {case}");
    }
}

/// The fused one-pass nest+selection equals the two-pass composition,
/// for every operator, quantifier, and both σ and σ̄.
#[test]
fn fused_equals_two_pass() {
    let mut rng = Pcg32::new(0x5eed_2003);
    for op in OPS {
        for q in QUANTS {
            for pseudo in [false, true] {
                for case in 0..12 {
                    let rel = rel3(&mut rng);
                    let sel = LinkSelection::quant("g.a", op, q, "m.v", Some("m.rid"));
                    let nested = nest_sort_idx(&rel, &[0, 1], &[2, 3], "sub").unwrap();
                    let two_pass = if pseudo {
                        sel.pseudo_select(&nested, "sub", &["g.a", "g.k"]).unwrap()
                    } else {
                        sel.select(&nested, "sub").unwrap()
                    }
                    .atoms_as_relation();

                    let link = FusedLink::from_selection(&sel, rel.schema()).unwrap();
                    let fused =
                        fused_nest_select(rel.clone(), &[0, 1], link, pseudo, &[0, 1]).unwrap();
                    assert!(
                        fused.multiset_eq(&two_pass),
                        "op {op:?} quant {q:?} pseudo {pseudo} case {case}\nfused:\n{fused}\ntwo-pass:\n{two_pass}"
                    );
                }
            }
        }
    }
}

/// Same for the emptiness conditions (EXISTS / NOT EXISTS).
#[test]
fn fused_equals_two_pass_emptiness() {
    let mut rng = Pcg32::new(0x5eed_2004);
    for not_empty in [false, true] {
        for pseudo in [false, true] {
            for case in 0..32 {
                let rel = rel3(&mut rng);
                let sel = if not_empty {
                    LinkSelection::not_empty(Some("m.rid"))
                } else {
                    LinkSelection::empty(Some("m.rid"))
                };
                let nested = nest_sort_idx(&rel, &[0, 1], &[2, 3], "sub").unwrap();
                let two_pass = if pseudo {
                    sel.pseudo_select(&nested, "sub", &["g.a", "g.k"]).unwrap()
                } else {
                    sel.select(&nested, "sub").unwrap()
                }
                .atoms_as_relation();
                let link = FusedLink::from_selection(&sel, rel.schema()).unwrap();
                let fused = fused_nest_select(rel.clone(), &[0, 1], link, pseudo, &[0, 1]).unwrap();
                assert!(
                    fused.multiset_eq(&two_pass),
                    "not_empty {not_empty} pseudo {pseudo} case {case}"
                );
            }
        }
    }
}

/// Random left/right relations for the push-down equivalence.
fn join_pair(rng: &mut Pcg32) -> (Relation, Relation) {
    let n_left = rng.index(12);
    let left = Relation::with_rows(
        Schema::new(vec![
            Column::new("l.a", ColumnType::Int),
            Column::new("l.k", ColumnType::Int),
            Column::new("l.rid", ColumnType::Int),
        ]),
        (0..n_left)
            .map(|i| vec![cell(rng), cell(rng), Value::Int(i as i64)])
            .collect::<Vec<_>>(),
    );
    let n_right = rng.index(12);
    let right = Relation::with_rows(
        Schema::new(vec![
            Column::new("r.k", ColumnType::Int),
            Column::new("r.v", ColumnType::Int),
            Column::new("r.rid", ColumnType::Int),
        ]),
        (0..n_right)
            .map(|i| vec![cell(rng), cell(rng), Value::Int(i as i64)])
            .collect::<Vec<_>>(),
    );
    (left, right)
}

/// The §4.2.4 push-down rule: nest-after-outer-join (with the marker
/// rule) equals join-after-nest, under every linking selection.
#[test]
fn pushdown_equivalence() {
    let mut rng = Pcg32::new(0x5eed_2005);
    for op in OPS {
        for q in QUANTS {
            for case in 0..12 {
                let (left, right) = join_pair(&mut rng);
                // Standard plan: R ⟕ S, nest by all of R, σ with marker.
                let joined = join(&left, &right, &JoinSpec::left_outer(vec![(1, 0)])).unwrap();
                let nested = nest_sort_idx(&joined, &[0, 1, 2], &[4, 5], "sub").unwrap();
                let sel = LinkSelection::quant("l.a", op, q, "r.v", Some("r.rid"));
                let standard = sel.select(&nested, "sub").unwrap().atoms_as_relation();

                // Pushed down: υ below the join; no marker needed.
                let pushed =
                    outer_join_nested(&left, &right, &["l.k"], &["r.k"], &["r.v", "r.rid"], "sub")
                        .unwrap();
                let sel2 = LinkSelection::quant("l.a", op, q, "r.v", None);
                let via_pushdown = sel2.select(&pushed, "sub").unwrap().atoms_as_relation();

                assert!(
                    standard.multiset_eq(&via_pushdown),
                    "op {op:?} quant {q:?} case {case}\nstandard:\n{standard}\npushed:\n{via_pushdown}"
                );
            }
        }
    }
}

#[test]
fn join_pair_left_has_three_columns() {
    // Guard for the generator above: left relations carry (a, k, rid).
    let mut rng = Pcg32::new(0);
    let (left, _right) = join_pair(&mut rng);
    assert_eq!(left.schema().len(), 3);
}
