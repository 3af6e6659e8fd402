//! Micro-benchmarks of the core nested relational operators: nest (hash
//! vs sort), linking selection (two-pass vs fused) and the hash joins the
//! approach is built on.

use nra_bench::harness;
use nra_core::linking::{LinkSelection, SetQuant};
use nra_core::nest::{nest_hash_idx, nest_sort_idx};
use nra_core::optimize::fused::{fused_nest_select, FusedLink};
use nra_engine::{join, JoinKind, JoinSpec};
use nra_storage::rng::Pcg32;
use nra_storage::{CmpOp, Column, ColumnType, Relation, Schema, Value};

fn flat_relation(groups: usize, per_group: usize) -> Relation {
    let mut rng = Pcg32::new(7);
    let schema = Schema::new(vec![
        Column::new("g.a", ColumnType::Int),
        Column::new("g.k", ColumnType::Int),
        Column::new("m.v", ColumnType::Int),
        Column::new("m.rid", ColumnType::Int),
    ]);
    let mut rows = Vec::with_capacity(groups * per_group);
    for g in 0..groups as i64 {
        for m in 0..per_group as i64 {
            rows.push(vec![
                Value::Int(rng.range_i64(0, 1000)),
                Value::Int(g),
                Value::Int(rng.range_i64(0, 1000)),
                Value::Int(g * per_group as i64 + m),
            ]);
        }
    }
    Relation::with_rows(schema, rows)
}

fn main() {
    let mut g = harness::group("operators");

    for &(groups, per) in &[(2_000usize, 4usize), (20_000, 4)] {
        let rel = flat_relation(groups, per);
        let rows = rel.len();
        g.bench("nest-hash", rows, || {
            harness::black_box(nest_hash_idx(&rel, &[1], &[2, 3], "s").unwrap());
        });
        g.bench("nest-sort", rows, || {
            harness::black_box(nest_sort_idx(&rel, &[1], &[2, 3], "s").unwrap());
        });
        let sel = LinkSelection::quant("g.a", CmpOp::Gt, SetQuant::All, "m.v", Some("m.rid"));
        g.bench("two-pass-select", rows, || {
            let nested = nest_sort_idx(&rel, &[0, 1], &[2, 3], "s").unwrap();
            harness::black_box(sel.select(&nested, "s").unwrap().atoms_as_relation());
        });
        let link = FusedLink::from_selection(&sel, rel.schema()).unwrap();
        g.bench("fused-select", rows, || {
            harness::black_box(
                fused_nest_select(rel.clone(), &[0, 1], link.clone(), false, &[]).unwrap(),
            );
        });
        // Hash joins: self outer join on the group key.
        g.bench("left-outer-join", rows, || {
            harness::black_box(
                join(
                    &rel,
                    &rel,
                    &JoinSpec::new(JoinKind::LeftOuter, vec![(1, 1)], None),
                )
                .unwrap(),
            );
        });
    }
    g.finish();
}
