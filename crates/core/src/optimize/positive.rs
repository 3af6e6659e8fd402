//! The positive-operator rewrite — paper §4.2.5.
//!
//! For positive linking operators the nested relational expression
//! simplifies algebraically:
//!
//! ```text
//! σ_{A θ SOME {B}}(υ_{{A}},{{B}}(R ⟕_C S))  ≡  R ⋉_{C ∧ A θ B} S
//! ```
//!
//! so a query whose linking operators are all positive (`EXISTS`,
//! `θ SOME/ANY`, `IN`) degenerates to the classical semijoin plan — the
//! paper's point being that the nested relational approach loses nothing
//! on the cases existing optimizers already handle well.
//!
//! The implementation handles arbitrary (also non-adjacent) correlation by
//! keeping ancestor columns alongside while descending: an inner join
//! attaches the child, deeper blocks reduce it further, and a final
//! distinct-on-the-prefix restores semijoin multiplicity (exact, because
//! every block carries a synthesized unique rid). The rewrite itself is the
//! classical one existing optimizers use, so the engine's baseline hosts
//! the single implementation
//! ([`execute_positive`](nra_engine::baseline::unnest::execute_positive)),
//! which the plan's `SemijoinCascade` node runs; this module contributes
//! the algebraic justification and its tests.

#[cfg(test)]
mod tests {
    use crate::{execute, Strategy};
    use nra_engine::{reference, EngineError};
    use nra_sql::parse_and_bind;
    use nra_storage::{Catalog, Column, ColumnType, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = Table::new(
            "r",
            Schema::new(vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ]),
        );
        r.insert_many((0..26).map(|i| {
            vec![
                if i % 10 == 3 {
                    Value::Null
                } else {
                    Value::Int(i % 6)
                },
                Value::Int(i % 8),
            ]
        }))
        .unwrap();
        cat.add_table(r).unwrap();
        let mut s = Table::new(
            "s",
            Schema::new(vec![
                Column::new("x", ColumnType::Int),
                Column::new("y", ColumnType::Int),
            ]),
        );
        s.insert_many((0..20).map(|i| {
            vec![
                Value::Int(i % 5),
                if i % 9 == 2 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                },
            ]
        }))
        .unwrap();
        cat.add_table(s).unwrap();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("u", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ]),
        );
        t.insert_many((0..15).map(|i| vec![Value::Int(i % 5), Value::Int(i % 3)]))
            .unwrap();
        cat.add_table(t).unwrap();
        cat
    }

    fn check(sql: &str) {
        let cat = catalog();
        let bq = parse_and_bind(sql, &cat).unwrap();
        let want = reference::evaluate(&bq, &cat).unwrap();
        let got = execute(&bq, &cat, Strategy::PositiveRewrite).unwrap();
        assert!(
            got.multiset_eq(&want),
            "positive rewrite != oracle for {sql}\ngot:\n{got}\nwant:\n{want}"
        );
    }

    #[test]
    fn one_level_in_and_exists() {
        check("select a, b from r where a in (select x from s where s.y = r.b)");
        check("select a, b from r where exists (select * from s where s.x = r.a)");
        check("select a, b from r where b > some (select y from s where s.x = r.a)");
    }

    #[test]
    fn preserves_duplicate_multiplicity() {
        // Multiple r rows with identical values must each appear.
        check("select a from r where a in (select x from s)");
    }

    #[test]
    fn two_level_positive_chain() {
        check(
            "select a, b from r where exists (select * from s where s.x = r.a \
             and exists (select * from t where t.u = s.x and t.v < s.y))",
        );
    }

    #[test]
    fn non_adjacent_positive_correlation() {
        check(
            "select a, b from r where exists (select * from s where s.x = r.a \
             and exists (select * from t where t.u = r.a and t.v <> s.y))",
        );
    }

    #[test]
    fn tree_of_positive_links() {
        check(
            "select a, b from r where a in (select x from s where s.y = r.b) \
             and exists (select * from t where t.u = r.a)",
        );
    }

    #[test]
    fn rejects_negative_links() {
        let cat = catalog();
        let bq = parse_and_bind("select a from r where a not in (select x from s)", &cat).unwrap();
        assert!(matches!(
            execute(&bq, &cat, Strategy::PositiveRewrite),
            Err(EngineError::Unsupported(_))
        ));
    }
}
