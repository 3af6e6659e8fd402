//! Hash joins: inner, left outer, semi- and antijoin, with optional
//! non-equality residual predicates.
//!
//! These are the only join algorithms the nested relational approach needs
//! (the paper: "our approach does not require indexes; only hash joins are
//! necessary"). SQL `NULL` semantics are enforced here: an equality key
//! containing `NULL` matches nothing, so
//!
//! * build rows with `NULL` keys are excluded from the hash table,
//! * probe rows with `NULL` keys find no match (for a left outer join they
//!   are padded; for an antijoin they are emitted).
//!
//! When no equality pairs are available (purely non-equality correlation),
//! the same semantics run through a block nested-loop fallback.
//!
//! Both paths are morsel-parallel under [`crate::exec`]: the build side is
//! hash-partitioned into per-worker tables (all rows of one key land in
//! one table, rids in ascending order — the same match lists the single
//! table would hold), and the probe side is chunked contiguously with
//! chunk outputs concatenated in partition order — so the output is
//! byte-identical to the sequential join at any worker count.

use nra_storage::{GroupKey, Relation, Value};

use crate::error::EngineError;
use crate::exec;
use crate::expr::CPred;
use crate::vec::{self, FxHashMap};
use crate::{faultinject, governor};

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// Keep unmatched left rows, padding right columns with `NULL`.
    LeftOuter,
    /// Keep left rows with at least one match; output has left columns only.
    Semi,
    /// Keep left rows with no match; output has left columns only.
    Anti,
}

/// A join specification: equality column pairs (left index, right index)
/// plus an optional residual predicate compiled against the concatenated
/// `left ++ right` schema. A pair matches when all equality keys compare
/// equal (SQL semantics: never on `NULL`) *and* the residual evaluates to
/// `TRUE`.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    pub kind: JoinKind,
    pub eq: Vec<(usize, usize)>,
    pub residual: Option<CPred>,
}

impl JoinSpec {
    pub fn new(kind: JoinKind, eq: Vec<(usize, usize)>, residual: Option<CPred>) -> JoinSpec {
        JoinSpec { kind, eq, residual }
    }

    pub fn inner(eq: Vec<(usize, usize)>) -> JoinSpec {
        JoinSpec::new(JoinKind::Inner, eq, None)
    }

    pub fn left_outer(eq: Vec<(usize, usize)>) -> JoinSpec {
        JoinSpec::new(JoinKind::LeftOuter, eq, None)
    }
}

/// Execute a hash join (or nested-loop fallback when `spec.eq` is empty).
pub fn join(left: &Relation, right: &Relation, spec: &JoinSpec) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| {
        let kind = match spec.kind {
            JoinKind::Inner => "inner",
            JoinKind::LeftOuter => "left_outer",
            JoinKind::Semi => "semi",
            JoinKind::Anti => "anti",
        };
        format!("join[{kind}]")
    });
    sp.rows_in(left.len() + right.len());
    let out_schema = match spec.kind {
        JoinKind::Inner => left.schema().concat(right.schema()),
        JoinKind::LeftOuter => left.schema().concat(&right.schema().with_all_nullable()),
        JoinKind::Semi | JoinKind::Anti => left.schema().clone(),
    };
    let mut out = Relation::new(out_schema);
    let right_width = right.schema().len();

    if spec.eq.is_empty() {
        // Block nested loop: every left row scans all of `right`, so the
        // left side chunks freely (one partition = the sequential loop).
        let parts = exec::partitions(left.len());
        if parts > 1 {
            sp.partitions(parts);
        }
        let ranges = exec::chunks(left.len(), parts);
        let out_width = left.schema().len() + right_width;
        let results = exec::run_partitioned(parts, |p| {
            let mut rows: Vec<Vec<Value>> = Vec::new();
            let mut combined: Vec<Value> = Vec::with_capacity(out_width);
            for (i, l) in left.rows()[ranges[p].clone()].iter().enumerate() {
                governor::tick(i, "join-scan")?;
                let mut matched = false;
                for r in right.rows() {
                    combined.clear();
                    combined.extend(l.iter().cloned());
                    combined.extend(r.iter().cloned());
                    if matches_residual(&combined, spec) {
                        matched = true;
                        match spec.kind {
                            // Hand the scratch row itself to the output.
                            JoinKind::Inner | JoinKind::LeftOuter => rows.push(std::mem::replace(
                                &mut combined,
                                Vec::with_capacity(out_width),
                            )),
                            JoinKind::Semi => break,
                            JoinKind::Anti => break,
                        }
                    }
                }
                emit_unmatched(&mut rows, l, right_width, spec.kind, matched);
            }
            governor::charge("join", governor::tuple_bytes(rows.len(), out_width))?;
            Ok(rows)
        })?;
        for rows in results {
            out.rows_mut().extend(rows);
        }
        sp.rows_out(out.len());
        return Ok(out);
    }

    let left_keys: Vec<usize> = spec.eq.iter().map(|&(l, _)| l).collect();
    let right_keys: Vec<usize> = spec.eq.iter().map(|&(_, r)| r).collect();

    // Build on the right side, excluding NULL keys. With more than one
    // build partition the rows are hash-partitioned by key, so every
    // match list ends up in exactly one table with its rids ascending —
    // the same list the single sequential table would hold.
    faultinject::hit(faultinject::JOIN_BUILD)?;
    let bparts = exec::partitions(right.len());
    let tables = build_tables(right, &right_keys, bparts)?;
    let built: usize = tables
        .iter()
        .map(|t| t.values().map(Vec::len).sum::<usize>())
        .sum();
    // Approximate footprint: each entry carries its key values
    // (~16 bytes per column) plus a row id.
    let entry_bytes = right_keys.len() * 16 + std::mem::size_of::<usize>();
    governor::charge("join-build", (built * entry_bytes) as u64)?;
    if sp.active() {
        sp.hash_build(built, built * entry_bytes);
    }

    // Probe side: contiguous chunks, outputs concatenated in chunk order.
    let pparts = exec::partitions(left.len());
    if bparts > 1 || pparts > 1 {
        sp.partitions(bparts.max(pparts));
    }
    let ranges = exec::chunks(left.len(), pparts);
    let out_width = left.schema().len() + right_width;
    let results = exec::run_partitioned(pparts, |p| {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut combined: Vec<Value> = Vec::with_capacity(out_width);
        // Scratch probe key, reused across rows (no per-row Vec churn).
        let mut key = GroupKey(Vec::with_capacity(left_keys.len()));
        for window in left.rows()[ranges[p].clone()].chunks(vec::batch_rows()) {
            // Cancellation poll amortized to once per batch (the scalar
            // loop's tick cadence at the default width).
            governor::checkpoint("join-probe")?;
            for l in window {
                let mut matched = false;
                // SQL equality: a NULL key matches nothing — skip the
                // probe without even building the key.
                if !left_keys.iter().any(|&c| l[c].is_null()) {
                    key.refill(l, &left_keys);
                    if let Some(rids) = probe(&tables, &key) {
                        // Match lists are never empty.
                        match (&spec.residual, spec.kind) {
                            (None, JoinKind::Semi | JoinKind::Anti) => matched = true,
                            (None, JoinKind::Inner | JoinKind::LeftOuter) => {
                                matched = true;
                                for &rid in rids {
                                    let mut row: Vec<Value> = Vec::with_capacity(out_width);
                                    row.extend(l.iter().cloned());
                                    row.extend(right.rows()[rid].iter().cloned());
                                    rows.push(row);
                                }
                            }
                            (Some(_), _) => {
                                for &rid in rids {
                                    combined.clear();
                                    combined.extend(l.iter().cloned());
                                    combined.extend(right.rows()[rid].iter().cloned());
                                    if matches_residual(&combined, spec) {
                                        matched = true;
                                        match spec.kind {
                                            // Hand the scratch row itself
                                            // to the output.
                                            JoinKind::Inner | JoinKind::LeftOuter => {
                                                rows.push(std::mem::replace(
                                                    &mut combined,
                                                    Vec::with_capacity(out_width),
                                                ))
                                            }
                                            JoinKind::Semi | JoinKind::Anti => break,
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                emit_unmatched(&mut rows, l, right_width, spec.kind, matched);
            }
        }
        governor::charge("join", governor::tuple_bytes(rows.len(), out_width))?;
        Ok(rows)
    })?;
    for rows in results {
        out.rows_mut().extend(rows);
    }
    sp.rows_out(out.len());
    Ok(out)
}

fn matches_residual(combined: &[Value], spec: &JoinSpec) -> bool {
    match &spec.residual {
        Some(p) => p.accepts(combined),
        None => true,
    }
}

/// Build the hash table(s) over the right side. One partition builds the
/// classic single table; several partition rows by key hash, each worker
/// inserting only its own keys (rid order within a key stays ascending).
fn build_tables(
    right: &Relation,
    right_keys: &[usize],
    bparts: usize,
) -> Result<Vec<FxHashMap<GroupKey, Vec<usize>>>, EngineError> {
    if bparts <= 1 {
        let mut table: FxHashMap<GroupKey, Vec<usize>> = FxHashMap::default();
        let mut rid = 0;
        for window in right.rows().chunks(vec::batch_rows()) {
            governor::checkpoint("join-build")?;
            for r in window {
                if !right_keys.iter().any(|&c| r[c].is_null()) {
                    table
                        .entry(GroupKey::from_tuple(r, right_keys))
                        .or_default()
                        .push(rid);
                }
                rid += 1;
            }
        }
        return Ok(vec![table]);
    }
    // Pre-assign rows to build partitions in one chunked parallel pass
    // (u32::MAX marks NULL keys, which no table admits), then let each
    // worker insert exactly its partition's rows.
    let ranges = exec::chunks(right.len(), bparts);
    let assigned = exec::run_partitioned(bparts, |p| {
        let mut key = GroupKey(Vec::with_capacity(right_keys.len()));
        Ok(right.rows()[ranges[p].clone()]
            .iter()
            .map(|r| {
                if right_keys.iter().any(|&c| r[c].is_null()) {
                    u32::MAX
                } else {
                    key.refill(r, right_keys);
                    (exec::key_hash(&key) % bparts as u64) as u32
                }
            })
            .collect::<Vec<u32>>())
    })?;
    let assign: Vec<u32> = assigned.into_iter().flatten().collect();
    exec::run_partitioned(bparts, |b| {
        let mut table: FxHashMap<GroupKey, Vec<usize>> = FxHashMap::default();
        let mut rid = 0;
        for window in right.rows().chunks(vec::batch_rows()) {
            governor::checkpoint("join-build")?;
            for r in window {
                if assign[rid] == b as u32 {
                    table
                        .entry(GroupKey::from_tuple(r, right_keys))
                        .or_default()
                        .push(rid);
                }
                rid += 1;
            }
        }
        Ok(table)
    })
}

/// Look `key` up in the table that owns its hash partition.
fn probe<'t>(
    tables: &'t [FxHashMap<GroupKey, Vec<usize>>],
    key: &GroupKey,
) -> Option<&'t Vec<usize>> {
    let table = if tables.len() == 1 {
        &tables[0]
    } else {
        &tables[(exec::key_hash(key) % tables.len() as u64) as usize]
    };
    table.get(key)
}

fn emit_unmatched(
    out: &mut Vec<Vec<Value>>,
    left_row: &[Value],
    right_width: usize,
    kind: JoinKind,
    matched: bool,
) {
    match kind {
        JoinKind::LeftOuter if !matched => {
            let mut row = left_row.to_vec();
            row.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(row);
        }
        JoinKind::Semi if matched => out.push(left_row.to_vec()),
        JoinKind::Anti if !matched => out.push(left_row.to_vec()),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_sql::{BExpr, BPred};
    use nra_storage::{CmpOp, Column, ColumnType, Schema};

    fn left() -> Relation {
        Relation::with_rows(
            Schema::new(vec![
                Column::new("l.k", ColumnType::Int),
                Column::new("l.v", ColumnType::Int),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(100)],
                vec![Value::Int(2), Value::Int(200)],
                vec![Value::Null, Value::Int(300)],
            ],
        )
    }

    fn right() -> Relation {
        Relation::with_rows(
            Schema::new(vec![
                Column::new("r.k", ColumnType::Int),
                Column::new("r.w", ColumnType::Int),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(11)],
                vec![Value::Int(1), Value::Int(12)],
                vec![Value::Int(3), Value::Int(13)],
                vec![Value::Null, Value::Int(14)],
            ],
        )
    }

    #[test]
    fn inner_join_null_keys_never_match() {
        let out = join(&left(), &right(), &JoinSpec::inner(vec![(0, 0)])).unwrap();
        assert_eq!(out.len(), 2, "only l.k=1 matches, twice");
        assert!(out.rows().iter().all(|r| r[0] == Value::Int(1)));
    }

    #[test]
    fn left_outer_pads_unmatched_and_null_keys() {
        let out = join(&left(), &right(), &JoinSpec::left_outer(vec![(0, 0)])).unwrap();
        // l.k=1 matches twice; l.k=2 padded; l.k=NULL padded.
        assert_eq!(out.len(), 4);
        let padded: Vec<_> = out.rows().iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(padded.len(), 2);
        // Right columns become nullable in the output schema.
        assert!(out.schema().column(3).nullable);
    }

    #[test]
    fn semi_and_anti_partition_left() {
        let semi = join(
            &left(),
            &right(),
            &JoinSpec::new(JoinKind::Semi, vec![(0, 0)], None),
        )
        .unwrap();
        let anti = join(
            &left(),
            &right(),
            &JoinSpec::new(JoinKind::Anti, vec![(0, 0)], None),
        )
        .unwrap();
        assert_eq!(semi.len(), 1);
        assert_eq!(anti.len(), 2, "l.k=2 and the NULL-key row");
        assert_eq!(semi.len() + anti.len(), left().len());
        assert_eq!(semi.schema().len(), 2, "semi keeps left columns only");
    }

    #[test]
    fn residual_filters_matches() {
        let l = left();
        let r = right();
        let combined = l.schema().concat(r.schema());
        let residual = CPred::compile(
            &BPred::cmp(BExpr::col("r.w"), CmpOp::Gt, BExpr::Lit(Value::Int(11))),
            &combined,
        )
        .unwrap();
        let out = join(
            &l,
            &r,
            &JoinSpec::new(JoinKind::Inner, vec![(0, 0)], Some(residual)),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][3], Value::Int(12));
    }

    #[test]
    fn nested_loop_fallback_non_equi() {
        let l = left();
        let r = right();
        let combined = l.schema().concat(r.schema());
        let residual = CPred::compile(
            &BPred::cmp(BExpr::col("l.k"), CmpOp::Lt, BExpr::col("r.k")),
            &combined,
        )
        .unwrap();
        let out = join(
            &l,
            &r,
            &JoinSpec::new(JoinKind::Inner, vec![], Some(residual)),
        )
        .unwrap();
        // l.k=1 < r.k=3; l.k=2 < r.k=3. NULL l.k never passes.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn nested_loop_left_outer() {
        let l = left();
        let r = right();
        let combined = l.schema().concat(r.schema());
        let residual = CPred::compile(
            &BPred::cmp(BExpr::col("l.k"), CmpOp::Gt, BExpr::col("r.k")),
            &combined,
        )
        .unwrap();
        let out = join(
            &l,
            &r,
            &JoinSpec::new(JoinKind::LeftOuter, vec![], Some(residual)),
        )
        .unwrap();
        // l.k=1 > nothing -> padded; l.k=2 > r.k=1 (twice); NULL -> padded.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn anti_join_with_residual_matches_not_exists_semantics() {
        // NOT EXISTS (select * from r where r.k = l.k and r.w > 11)
        let l = left();
        let r = right();
        let combined = l.schema().concat(r.schema());
        let residual = CPred::compile(
            &BPred::cmp(BExpr::col("r.w"), CmpOp::Gt, BExpr::Lit(Value::Int(11))),
            &combined,
        )
        .unwrap();
        let out = join(
            &l,
            &r,
            &JoinSpec::new(JoinKind::Anti, vec![(0, 0)], Some(residual)),
        )
        .unwrap();
        // l.k=1 has a match (w=12) -> excluded; l.k=2 and NULL kept.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn parallel_join_is_byte_identical() {
        // Skewed keys (incl. NULLs) over a few hundred rows; every kind,
        // at 2 and 4 workers with a morsel floor of 1, must reproduce the
        // sequential output *in order*.
        let lrows: Vec<Vec<Value>> = (0..300)
            .map(|i| {
                let k = match i % 7 {
                    0 => Value::Null,
                    m => Value::Int(m % 5),
                };
                vec![k, Value::Int(i)]
            })
            .collect();
        let rrows: Vec<Vec<Value>> = (0..200)
            .map(|i| {
                let k = match i % 11 {
                    0 => Value::Null,
                    m => Value::Int(m % 6),
                };
                vec![k, Value::Int(1000 + i)]
            })
            .collect();
        let l = Relation::with_rows(left().schema().clone(), lrows);
        let r = Relation::with_rows(right().schema().clone(), rrows);
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let spec = JoinSpec::new(kind, vec![(0, 0)], None);
            let sequential = {
                let _t = exec::set_threads(Some(1));
                join(&l, &r, &spec).unwrap()
            };
            for threads in [2, 4] {
                let _t = exec::set_threads(Some(threads));
                let _m = exec::set_morsel_rows(1);
                let parallel = join(&l, &r, &spec).unwrap();
                assert_eq!(
                    parallel.rows(),
                    sequential.rows(),
                    "{kind:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let l = left();
        let empty_r = Relation::new(right().schema().clone());
        let out = join(&l, &empty_r, &JoinSpec::left_outer(vec![(0, 0)])).unwrap();
        assert_eq!(out.len(), 3, "every left row padded");
        let empty_l = Relation::new(l.schema().clone());
        let out2 = join(&empty_l, &right(), &JoinSpec::inner(vec![(0, 0)])).unwrap();
        assert!(out2.is_empty());
    }
}
