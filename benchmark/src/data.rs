//! Generated inputs and their expected answers.
//!
//! Everything here is a pure function of `(seed, scale)`: the engine sees
//! only the generated catalog and SQL text, never the seed.

use nra::core::Strategy;
use nra::sql::BoundQuery;
use nra::storage::{Catalog, Relation};
use nra::tpch::{self, ExistsKind, Q3Corr, Quant, TpchConfig};

use crate::common::on_fresh_thread;
use crate::report::CLASSES;
use crate::wire::{fold_digest, row_hash};

/// Fraction of NULLs in the linking money columns: the three-valued
/// *unknown* path is the case the paper exists to get right.
const NULL_FRACTION: f64 = 0.02;

/// Scale of the reference-evaluator cross-check (tuple iteration is
/// quadratic, so it runs on a small copy of the same seed).
const REFERENCE_SCALE: f64 = 0.02;

pub fn tpch_catalog(scale: f64, seed: u64) -> Catalog {
    tpch::generate(
        &TpchConfig::scaled(scale)
            .with_seed(seed)
            .nullable_links(NULL_FRACTION),
    )
}

/// SQL of the six nested classes at the paper's largest block sizes
/// (16 000 / 48 000 / 16 000 at scale 1.0), in [`CLASSES`] order.
pub fn class_sql(cat: &Catalog, scale: f64) -> Vec<String> {
    let s = |n: f64| ((n * scale).round() as usize).max(4);
    let (outer, part, partsupp) = (s(16_000.0), s(48_000.0), s(16_000.0));
    let sql = vec![
        tpch::q1_sql(cat, outer),
        tpch::q2_sql(cat, Quant::Any, part, partsupp),
        tpch::q2_sql(cat, Quant::All, part, partsupp),
        tpch::q3_sql(
            cat,
            Quant::All,
            ExistsKind::NotExists,
            Q3Corr::NeEq,
            part,
            partsupp,
        ),
        tpch::q3_sql(
            cat,
            Quant::Any,
            ExistsKind::Exists,
            Q3Corr::EqNe,
            part,
            partsupp,
        ),
        tpch::q1_agg_sql(cat, outer),
    ];
    debug_assert_eq!(sql.len(), CLASSES.len());
    sql
}

/// Total rows over all tables of a catalog.
pub fn total_rows(cat: &Catalog) -> usize {
    cat.table_names()
        .iter()
        .map(|n| cat.table(n).expect("listed table exists").len())
        .sum()
}

/// What a correct answer looks like from the client's side: row count
/// plus an order-independent digest of the rows as the wire renders them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub rows: usize,
    pub digest: u64,
}

pub fn digest_relation(rel: &Relation) -> Expected {
    let digest = rel.rows().iter().fold(0u64, |d, row| {
        let fields: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        fold_digest(d, row_hash(fields.iter().map(String::as_str)))
    });
    Expected {
        rows: rel.len(),
        digest,
    }
}

pub fn bind(sql: &str, cat: &Catalog) -> BoundQuery {
    nra::sql::parse_and_bind(sql, cat).unwrap_or_else(|e| panic!("generated SQL binds: {e}\n{sql}"))
}

/// The expected answer of `sql`, computed in-process with Algorithm 1
/// (`Strategy::Original`) — the one strategy `Auto` never resolves to, so
/// the oracle and the measured path share no executor.
pub fn expected_answer(sql: &str, cat: &Catalog) -> Expected {
    let rel = nra::core::execute(&bind(sql, cat), cat, Strategy::Original)
        .unwrap_or_else(|e| panic!("oracle executes: {e}\n{sql}"));
    digest_relation(&rel)
}

/// Expected answers of the six classes at `(seed, scale)`, computed on a
/// copy of the data of the oracle's own: the served instance is never
/// touched by the oracle.
pub fn nested_oracle(seed: u64, scale: f64) -> Vec<Expected> {
    let cat = tpch_catalog(scale, seed);
    on_fresh_thread(|| {
        class_sql(&cat, scale)
            .iter()
            .map(|q| expected_answer(q, &cat))
            .collect()
    })
}

/// Cross-check the six classes against the tuple-iteration reference
/// evaluator on a [`REFERENCE_SCALE`] copy of the same seed: `Auto` and
/// `Original` must both agree with it as multisets. Returns the names of
/// the classes that disagree.
pub fn reference_mismatches(seed: u64) -> Vec<&'static str> {
    let cat = tpch_catalog(REFERENCE_SCALE, seed);
    on_fresh_thread(|| reference_mismatches_in(&cat))
}

fn reference_mismatches_in(cat: &Catalog) -> Vec<&'static str> {
    let mut bad = Vec::new();
    for (name, sql) in CLASSES.iter().zip(class_sql(cat, REFERENCE_SCALE)) {
        let bound = bind(&sql, cat);
        let reference =
            nra::engine::reference::evaluate(&bound, cat).expect("reference evaluator runs");
        let agrees = [Strategy::Auto, Strategy::Original].into_iter().all(|s| {
            nra::core::execute(&bound, cat, s)
                .map(|rel| rel.multiset_eq(&reference))
                .unwrap_or(false)
        });
        if !agrees {
            bad.push(*name);
        }
    }
    bad
}
