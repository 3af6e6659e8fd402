//! The paper's benchmark queries (Section 5), parameterised by target
//! query-block sizes.
//!
//! Each builder computes the selection constants (`X1`, `X2`, `Y`, `Z`)
//! from the actual data so the blocks hit the requested cardinalities, and
//! returns the SQL text — the same text every execution strategy consumes.

use nra_storage::{Catalog, Value};

use crate::gen::DATE_LO;
use crate::text::date_literal;

/// The quantifier variant of Query 2/3 (`< any` vs `< all`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    Any,
    All,
}

impl Quant {
    fn sql(self) -> &'static str {
        match self {
            Quant::Any => "any",
            Quant::All => "all",
        }
    }
}

/// The existential variant of Query 3's innermost block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExistsKind {
    Exists,
    NotExists,
}

impl ExistsKind {
    fn sql(self) -> &'static str {
        match self {
            ExistsKind::Exists => "exists",
            ExistsKind::NotExists => "not exists",
        }
    }
}

/// Query 3's correlated-predicate variants (paper Figures 7–9, cases
/// (a)/(b)/(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Q3Corr {
    /// (a) `p_partkey = l_partkey and ps_suppkey = l_suppkey`
    EqEq,
    /// (b) `p_partkey <> l_partkey and ps_suppkey = l_suppkey`
    NeEq,
    /// (c) `p_partkey = l_partkey and ps_suppkey <> l_suppkey`
    EqNe,
}

impl Q3Corr {
    fn ops(self) -> (&'static str, &'static str) {
        match self {
            Q3Corr::EqEq => ("=", "="),
            Q3Corr::NeEq => ("<>", "="),
            Q3Corr::EqNe => ("=", "<>"),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Q3Corr::EqEq => "(a) =,=",
            Q3Corr::NeEq => "(b) <>,=",
            Q3Corr::EqNe => "(c) =,<>",
        }
    }
}

/// The `k`-th smallest non-NULL value of `table.col` (1-based). Used to
/// turn a target block size into a selection constant.
pub fn kth_value(cat: &Catalog, table: &str, col: &str, k: usize) -> Option<Value> {
    let t = cat.table(table).ok()?;
    let idx = t.schema().try_resolve(col)?;
    let col = t.column(idx);
    let mut vals: Vec<Value> = (0..t.len())
        .filter(|&i| !col.is_null(i))
        .map(|i| col.value(i))
        .collect();
    if vals.is_empty() || k == 0 {
        return None;
    }
    let k = k.min(vals.len());
    vals.sort_by(|a, b| a.total_cmp(b));
    Some(vals.swap_remove(k - 1))
}

/// Count the rows of `table` satisfying `col <= v` (NULLs excluded) —
/// used to report achieved block sizes.
pub fn count_le(cat: &Catalog, table: &str, col: &str, v: &Value) -> usize {
    let t = cat.table(table).expect("table");
    let idx = t.schema().resolve(col).expect("column");
    let col = t.column(idx);
    (0..t.len())
        .filter(|&i| {
            matches!(
                col.value(i).sql_cmp(v),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        })
        .count()
}

fn literal(v: &Value) -> String {
    match v {
        Value::Date(d) => date_literal(*d),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// Paper Query 1: one-level nested, `> ALL` linking operator.
///
/// ```sql
/// select o_orderkey, o_orderpriority from orders
/// where o_orderdate >= X1 and o_orderdate < X2
///   and o_totalprice > all (select l_extendedprice from lineitem
///                           where l_orderkey = o_orderkey
///                             and l_commitdate < l_receiptdate
///                             and l_shipdate < l_commitdate)
/// ```
///
/// `X1` is the start of the date range; `X2` is chosen so roughly
/// `outer_target` orders qualify.
pub fn q1_sql(cat: &Catalog, outer_target: usize) -> String {
    let x1 = date_literal(DATE_LO);
    let x2 =
        literal(&kth_value(cat, "orders", "o_orderdate", outer_target).expect("orders has rows"));
    format!(
        "select o_orderkey, o_orderpriority from orders \
         where o_orderdate >= {x1} and o_orderdate < {x2} \
         and o_totalprice > all (select l_extendedprice from lineitem \
           where l_orderkey = o_orderkey and l_commitdate < l_receiptdate \
           and l_shipdate < l_commitdate)"
    )
}

/// Paper Query 2: two-level linear nested query over
/// `part`/`partsupp`/`lineitem`.
///
/// `quant = Any` gives Query 2a (mixed `ANY`/`NOT EXISTS`); `All` gives
/// Query 2b (negative `ALL`/`NOT EXISTS`).
pub fn q2_sql(cat: &Catalog, quant: Quant, part_target: usize, partsupp_target: usize) -> String {
    let x2 = literal(&kth_value(cat, "part", "p_size", part_target).expect("part has rows"));
    let y = literal(
        &kth_value(cat, "partsupp", "ps_availqty", partsupp_target).expect("partsupp has rows"),
    );
    let q = quant.sql();
    format!(
        "select p_partkey, p_name from part \
         where p_size >= 1 and p_size <= {x2} \
         and p_retailprice < {q} (select ps_supplycost from partsupp \
           where ps_partkey = p_partkey and ps_availqty < {y} \
           and not exists (select * from lineitem \
             where ps_partkey = l_partkey and ps_suppkey = l_suppkey \
             and l_quantity = 1))"
    )
}

/// Paper Query 3: Query 2 with the innermost block correlated to *both*
/// outer blocks (`ps_partkey = l_partkey` becomes `p_partkey θ
/// l_partkey`), in the paper's three correlated-predicate variants.
///
/// * Q3a: `quant = All`, `exists = Exists` (mixed);
/// * Q3b: `quant = All`, `exists = NotExists` (negative);
/// * Q3c: `quant = Any`, `exists = Exists` (positive).
pub fn q3_sql(
    cat: &Catalog,
    quant: Quant,
    exists: ExistsKind,
    corr: Q3Corr,
    part_target: usize,
    partsupp_target: usize,
) -> String {
    let x2 = literal(&kth_value(cat, "part", "p_size", part_target).expect("part has rows"));
    let y = literal(
        &kth_value(cat, "partsupp", "ps_availqty", partsupp_target).expect("partsupp has rows"),
    );
    let q = quant.sql();
    let e = exists.sql();
    let (op1, op2) = corr.ops();
    format!(
        "select p_partkey, p_name from part \
         where p_size >= 1 and p_size <= {x2} \
         and p_retailprice < {q} (select ps_supplycost from partsupp \
           where ps_partkey = p_partkey and ps_availqty < {y} \
           and {e} (select * from lineitem \
             where p_partkey {op1} l_partkey and ps_suppkey {op2} l_suppkey \
             and l_quantity = 1))"
    )
}

/// Extension experiment: Query 1 with its `> ALL` linking predicate
/// replaced by the aggregate form the paper's Section 2 warns is *not*
/// equivalent in general (`> (SELECT MAX(...))`). With NOT NULL money
/// columns the two agree; the benchmark compares their costs.
pub fn q1_agg_sql(cat: &Catalog, outer_target: usize) -> String {
    let x1 = date_literal(DATE_LO);
    let x2 =
        literal(&kth_value(cat, "orders", "o_orderdate", outer_target).expect("orders has rows"));
    format!(
        "select o_orderkey, o_orderpriority from orders \
         where o_orderdate >= {x1} and o_orderdate < {x2} \
         and o_totalprice > (select max(l_extendedprice) from lineitem \
           where l_orderkey = o_orderkey and l_commitdate < l_receiptdate \
           and l_shipdate < l_commitdate)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchConfig};
    use nra_sql::parse_and_bind;

    fn cat() -> Catalog {
        generate(&TpchConfig::scaled(0.02))
    }

    #[test]
    fn kth_value_orders_the_column() {
        let cat = cat();
        let v1 = kth_value(&cat, "part", "p_size", 1).unwrap();
        let vn = kth_value(&cat, "part", "p_size", usize::MAX).unwrap();
        assert!(v1.sql_cmp(&vn) != Some(std::cmp::Ordering::Greater));
        assert!(kth_value(&cat, "part", "p_size", 0).is_none());
        assert!(kth_value(&cat, "part", "nope", 3).is_none());
    }

    #[test]
    fn q1_parses_and_binds() {
        let cat = cat();
        let sql = q1_sql(&cat, 100);
        let bq = parse_and_bind(&sql, &cat).unwrap();
        assert_eq!(bq.num_blocks, 2);
        assert!(bq.is_linear_correlated());
        assert!(!bq.all_links_positive());
    }

    #[test]
    fn q2_parses_and_binds_both_variants() {
        let cat = cat();
        for quant in [Quant::Any, Quant::All] {
            let sql = q2_sql(&cat, quant, 200, 300);
            let bq = parse_and_bind(&sql, &cat).unwrap();
            assert_eq!(bq.num_blocks, 3);
            assert!(bq.is_linear_correlated(), "Query 2 is linear correlated");
        }
    }

    #[test]
    fn q3_breaks_linear_correlation() {
        let cat = cat();
        let sql = q3_sql(&cat, Quant::All, ExistsKind::Exists, Q3Corr::EqEq, 200, 300);
        let bq = parse_and_bind(&sql, &cat).unwrap();
        assert_eq!(bq.num_blocks, 3);
        assert!(
            !bq.is_linear_correlated(),
            "the innermost block references part two levels up"
        );
    }

    #[test]
    fn q3_variants_produce_expected_operators() {
        let cat = cat();
        let b = q3_sql(
            &cat,
            Quant::All,
            ExistsKind::NotExists,
            Q3Corr::NeEq,
            100,
            100,
        );
        assert!(b.contains("not exists"));
        assert!(b.contains("p_partkey <> l_partkey"));
        let c = q3_sql(&cat, Quant::Any, ExistsKind::Exists, Q3Corr::EqNe, 100, 100);
        assert!(c.contains("< any"));
        assert!(c.contains("ps_suppkey <> l_suppkey"));
    }

    #[test]
    fn q1_agg_parses_and_matches_q1_on_not_null_data() {
        let cat = cat();
        let sql = q1_agg_sql(&cat, 120);
        let bq = parse_and_bind(&sql, &cat).unwrap();
        assert_eq!(bq.num_blocks, 2);
        // On NOT NULL data, `> ALL` and `> MAX` agree — but note the ALL
        // form is TRUE on the empty set while `> MAX` (NULL) is unknown,
        // so they only agree on outer tuples that have inner partners.
    }

    #[test]
    fn block_size_targets_are_roughly_hit() {
        let cat = cat();
        // part: 0.02 * 60_000 = 1200 rows; ask for 400.
        let x2 = kth_value(&cat, "part", "p_size", 400).unwrap();
        let got = count_le(&cat, "part", "p_size", &x2);
        let total = cat.table("part").unwrap().len();
        assert!(got >= 400, "at least the target: {got}");
        // p_size granularity is total/50 per distinct value.
        assert!(got <= 400 + total / 50 + 1, "not far past it: {got}");
    }
}
