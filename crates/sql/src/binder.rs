//! The binder: resolves names against the catalog and turns the AST into a
//! [`BoundQuery`] — a tree of query blocks with linking and correlated
//! predicates classified per the paper's Section 2 terminology.
//!
//! Key invariant established here: every bound column reference is a
//! *query-wide unique* qualified name. If two blocks reference the same
//! table (or alias), the binder renames the later instance (`lineitem`,
//! `lineitem_2`, ...), so the flattened joined relations built by the
//! execution strategies can carry every block's columns side by side
//! without collisions.

use std::collections::{HashMap, HashSet};

use nra_storage::{AggFunc, Catalog, CmpOp, Column, ColumnType, Schema, Value};

use crate::ast::{Predicate, Quantifier, Query, ScalarExpr, SelectItem, SelectStmt};
use crate::block::{BoundQuery, BoundStatement, BoundTable, LinkOp, QueryBlock, SubqueryEdge};
use crate::bound::{BExpr, BPred};
use crate::error::SqlError;

/// Bind a parsed statement against a catalog.
pub fn bind(stmt: &SelectStmt, catalog: &Catalog) -> Result<BoundQuery, SqlError> {
    let mut binder = Binder {
        catalog,
        used_names: HashSet::new(),
        next_id: 1,
        qualifier_block: HashMap::new(),
    };
    let mut scopes = Vec::new();
    let (root, _, _) = binder.bind_block(stmt, &mut scopes, BlockRole::Root)?;
    let num_blocks = binder.next_id - 1;
    Ok(BoundQuery {
        root,
        qualifier_block: binder.qualifier_block,
        num_blocks,
    })
}

/// Bind a whole statement: every `SELECT` arm, each further arm checked
/// against the first arm's arity, and `ORDER BY` resolved against the
/// first arm's output columns (by name under [`Schema::resolve`]'s rules,
/// or by 1-based position).
///
/// When a profile is being collected ([`nra_obs::phase`]), binding runs
/// under a `bind` phase that counts the blocks of every arm of a statement
/// that bound.
pub fn bind_statement(query: &Query, catalog: &Catalog) -> Result<BoundStatement, SqlError> {
    let mut phase = nra_obs::phase("bind");
    let first = bind(&query.first, catalog)?;
    let width = first.root.select.len();
    let compounds = (query.compounds.iter())
        .map(|part| {
            let arm = bind(&part.stmt, catalog)?;
            match arm.root.select.len() {
                n if n == width => Ok((part.op, part.all, arm)),
                n => Err(SqlError::bind(format!(
                    "set operation on incompatible arities ({width} vs {n})"
                ))),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let output = || {
        let select = first.root.select.iter();
        Schema::new(
            select
                .map(|(name, _)| Column::new(name.clone(), ColumnType::Int))
                .collect(),
        )
    };
    let order_by = (query.order_by.iter())
        .map(|(expr, desc)| {
            let position = match expr {
                ScalarExpr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= width => {
                    *n as usize - 1
                }
                // Displayed as written: `q.name` or `name`.
                ScalarExpr::Column { .. } => (output().resolve(&expr.to_string()))
                    .map_err(|e| SqlError::bind(e.to_string()))?,
                other => {
                    return Err(SqlError::bind(format!(
                        "ORDER BY supports output columns and positions, not `{other}`"
                    )))
                }
            };
            Ok((position, *desc))
        })
        .collect::<Result<_, _>>()?;
    let blocks = (compounds.iter()).fold(first.num_blocks, |n, (_, _, arm)| n + arm.num_blocks);
    phase.rows(blocks);
    Ok(BoundStatement {
        first,
        compounds,
        order_by,
        limit: query.limit,
    })
}

/// Convenience: parse then bind.
pub fn parse_and_bind(sql: &str, catalog: &Catalog) -> Result<BoundQuery, SqlError> {
    let stmt = crate::parser::parse(sql)?;
    bind(&stmt, catalog)
}

#[derive(Clone, Copy, PartialEq)]
enum BlockRole {
    Root,
    /// Inner block whose select item is the linked attribute.
    InnerValue,
    /// Inner block of a scalar subquery comparison: the select item must
    /// be a single aggregate call.
    InnerAgg,
    /// Inner block of an `[NOT] EXISTS` (select list irrelevant).
    InnerExists,
}

/// One level of name scope: the tables visible in a block.
struct ScopeBlock {
    /// `(name as written in the query, exposed unique name, base schema)`
    tables: Vec<(String, String, Schema)>,
}

struct Binder<'a> {
    catalog: &'a Catalog,
    used_names: HashSet<String>,
    next_id: usize,
    qualifier_block: HashMap<String, usize>,
}

impl<'a> Binder<'a> {
    fn bind_block(
        &mut self,
        stmt: &SelectStmt,
        scopes: &mut Vec<ScopeBlock>,
        role: BlockRole,
    ) -> Result<(QueryBlock, Option<BExpr>, Option<AggFunc>), SqlError> {
        let id = self.next_id;
        self.next_id += 1;

        if stmt.from.is_empty() {
            return Err(SqlError::bind("FROM clause must name at least one table"));
        }

        // Resolve FROM items, uniquifying exposed qualifiers query-wide.
        let mut scope = ScopeBlock { tables: Vec::new() };
        let mut tables = Vec::new();
        for tref in &stmt.from {
            let table = self.catalog.table(&tref.table)?;
            let written = tref.exposed().to_string();
            // `__b<i>` qualifiers are reserved for the engine's synthesized
            // row-id / computed-link columns; a user table exposed under
            // that prefix would be misclassified by column-ownership checks.
            if written.starts_with("__b") {
                return Err(SqlError::bind(format!(
                    "table name or alias `{written}` collides with the reserved                      `__b` prefix; use a different alias"
                )));
            }
            if scope.tables.iter().any(|(w, _, _)| *w == written) {
                return Err(SqlError::bind(format!(
                    "duplicate table name `{written}` in FROM clause; use aliases"
                )));
            }
            let exposed = self.uniquify(&written);
            self.qualifier_block.insert(exposed.clone(), id);
            scope
                .tables
                .push((written, exposed.clone(), table.schema().clone()));
            tables.push(BoundTable {
                table: tref.table.clone(),
                exposed,
                // Both recorded once the block's subtree is bound.
                carry: Vec::new(),
                select_only: Vec::new(),
            });
        }
        scopes.push(scope);

        // Bind the select list.
        let mut select = Vec::new();
        let mut inner_expr = None;
        let mut agg_func = None;
        match role {
            BlockRole::Root => {
                for item in &stmt.select {
                    match item {
                        SelectItem::Wildcard => {
                            let scope = scopes.last().unwrap();
                            for (_, exposed, schema) in &scope.tables {
                                for col in schema.columns() {
                                    let name = format!("{exposed}.{}", col.base_name());
                                    select.push((name.clone(), BExpr::Col(name)));
                                }
                            }
                        }
                        SelectItem::Expr(e) => {
                            let bound = self.bind_scalar(e, scopes)?;
                            let name = match &bound {
                                BExpr::Col(c) => c.clone(),
                                _ => format!("expr{}", select.len() + 1),
                            };
                            select.push((name, bound));
                        }
                    }
                }
            }
            BlockRole::InnerValue => {
                if stmt.select.len() != 1 {
                    return Err(SqlError::bind(
                        "a subquery used with IN/SOME/ANY/ALL must select exactly one column",
                    ));
                }
                match &stmt.select[0] {
                    SelectItem::Wildcard => {
                        return Err(SqlError::bind(
                            "a subquery used with IN/SOME/ANY/ALL cannot select *",
                        ))
                    }
                    SelectItem::Expr(ScalarExpr::Agg { .. }) => {
                        return Err(SqlError::bind(
                            "an aggregate subquery cannot be used with IN/SOME/ANY/ALL; \
                             compare it directly (e.g. `a > (select max(b) ...)`)",
                        ))
                    }
                    SelectItem::Expr(e) => inner_expr = Some(self.bind_scalar(e, scopes)?),
                }
            }
            BlockRole::InnerAgg => {
                if stmt.select.len() != 1 {
                    return Err(SqlError::bind(
                        "a scalar subquery must select exactly one aggregate",
                    ));
                }
                match &stmt.select[0] {
                    SelectItem::Expr(ScalarExpr::Agg { func, arg }) => {
                        agg_func = Some(*func);
                        inner_expr = arg
                            .as_ref()
                            .map(|a| self.bind_scalar(a, scopes))
                            .transpose()?;
                    }
                    _ => {
                        return Err(SqlError::bind(
                            "a scalar subquery used in a comparison must select a single \
                             aggregate (min/max/sum/avg/count); plain-column scalar \
                             subqueries are not supported",
                        ))
                    }
                }
            }
            BlockRole::InnerExists => {
                // `EXISTS (SELECT anything ...)` — the select list is
                // semantically irrelevant; bind it only to validate names.
                for item in &stmt.select {
                    if let SelectItem::Expr(e) = item {
                        self.bind_scalar(e, scopes)?;
                    }
                }
            }
        }

        // Bind the WHERE clause: normalize NOT inward, split the top-level
        // conjunction, classify each conjunct.
        let mut local_preds = Vec::new();
        let mut correlated_preds = Vec::new();
        let mut children = Vec::new();
        if let Some(w) = &stmt.where_clause {
            let normalized = normalize_not(w.clone(), false);
            for conjunct in split_conjuncts(normalized) {
                match conjunct {
                    Predicate::Exists { query, negated } => {
                        let link = if negated {
                            LinkOp::NotExists
                        } else {
                            LinkOp::Exists
                        };
                        let (block, _, _) =
                            self.bind_block(&query, scopes, BlockRole::InnerExists)?;
                        children.push(SubqueryEdge {
                            link,
                            outer_expr: None,
                            inner_expr: None,
                            block,
                        });
                    }
                    Predicate::InSubquery {
                        expr,
                        query,
                        negated,
                    } => {
                        let outer = self.bind_scalar(&expr, scopes)?;
                        let link = if negated {
                            LinkOp::All(CmpOp::Ne)
                        } else {
                            LinkOp::Some(CmpOp::Eq)
                        };
                        let (block, inner, _) =
                            self.bind_block(&query, scopes, BlockRole::InnerValue)?;
                        children.push(SubqueryEdge {
                            link,
                            outer_expr: Some(outer),
                            inner_expr: inner,
                            block,
                        });
                    }
                    Predicate::Quantified {
                        expr,
                        op,
                        quantifier,
                        query,
                    } => {
                        let outer = self.bind_scalar(&expr, scopes)?;
                        let link = match quantifier {
                            Quantifier::Some => LinkOp::Some(op),
                            Quantifier::All => LinkOp::All(op),
                        };
                        let (block, inner, _) =
                            self.bind_block(&query, scopes, BlockRole::InnerValue)?;
                        children.push(SubqueryEdge {
                            link,
                            outer_expr: Some(outer),
                            inner_expr: inner,
                            block,
                        });
                    }
                    Predicate::CmpSubquery { expr, op, query } => {
                        let outer = self.bind_scalar(&expr, scopes)?;
                        let (block, inner, func) =
                            self.bind_block(&query, scopes, BlockRole::InnerAgg)?;
                        children.push(SubqueryEdge {
                            link: LinkOp::Agg {
                                op,
                                func: func.expect("InnerAgg role yields a function"),
                            },
                            outer_expr: Some(outer),
                            inner_expr: inner,
                            block,
                        });
                    }
                    other => {
                        if contains_subquery(&other) {
                            return Err(SqlError::bind(
                                "subquery predicates are only supported as top-level \
                                 conjuncts (not under OR or inside other predicates)",
                            ));
                        }
                        let bound = self.bind_pred(&other, scopes)?;
                        let own = &scopes.last().unwrap().tables;
                        let is_local = bound.columns().iter().all(|c| {
                            c.rsplit_once('.')
                                .map(|(q, _)| own.iter().any(|(_, e, _)| e == q))
                                .unwrap_or(false)
                        });
                        if is_local {
                            local_preds.push(bound);
                        } else {
                            correlated_preds.push(bound);
                        }
                    }
                }
            }
        }

        // The carry lists. SQL scoping lets only this block and its
        // descendants name its columns, and all of them are bound by now:
        // everything they mention outside this block's local predicates.
        // A bare column of the select list is only *read out* at the end,
        // so a single-table block leaves it in storage (`select_only`)
        // unless something else compares or computes with it.
        let late = tables.len() == 1;
        let mut mentioned: Vec<&str> = Vec::new();
        let mut selected: Vec<&str> = Vec::new();
        for (_, expr) in &select {
            match expr.as_column() {
                Some(name) if late => selected.push(name),
                _ => expr.collect_columns(&mut mentioned),
            }
        }
        if let Some(expr) = &inner_expr {
            expr.collect_columns(&mut mentioned);
        }
        for pred in &correlated_preds {
            pred.collect_columns(&mut mentioned);
        }
        for edge in &children {
            collect_mentioned(edge, &mut mentioned);
        }
        let scope = scopes.pop().expect("pushed above");
        for (t, (_, _, schema)) in tables.iter_mut().zip(&scope.tables) {
            let indices = |names: &[&str]| -> Vec<usize> {
                let mut cols: Vec<usize> = names
                    .iter()
                    .filter_map(|name| match name.rsplit_once('.') {
                        Some((qualifier, column)) if qualifier == t.exposed => {
                            schema.try_resolve(column)
                        }
                        _ => None,
                    })
                    .collect();
                cols.sort_unstable();
                cols.dedup();
                cols
            };
            t.carry = indices(&mentioned);
            t.select_only = indices(&selected);
            t.select_only.retain(|c| !t.carry.contains(c));
        }

        Ok((
            QueryBlock {
                id,
                tables,
                select,
                distinct: stmt.distinct && role == BlockRole::Root,
                local_preds,
                correlated_preds,
                children,
            },
            inner_expr,
            agg_func,
        ))
    }

    fn uniquify(&mut self, desired: &str) -> String {
        let mut name = desired.to_string();
        let mut n = 1;
        while !self.used_names.insert(name.clone()) {
            n += 1;
            name = format!("{desired}_{n}");
        }
        name
    }

    fn bind_scalar(&mut self, e: &ScalarExpr, scopes: &[ScopeBlock]) -> Result<BExpr, SqlError> {
        Ok(match e {
            ScalarExpr::Literal(v) => BExpr::Lit(v.clone()),
            ScalarExpr::Column { qualifier, name } => {
                BExpr::Col(self.resolve_column(qualifier.as_deref(), name, scopes)?)
            }
            ScalarExpr::Arith { op, left, right } => BExpr::Arith {
                op: *op,
                left: Box::new(self.bind_scalar(left, scopes)?),
                right: Box::new(self.bind_scalar(right, scopes)?),
            },
            ScalarExpr::Agg { .. } => {
                return Err(SqlError::bind(
                    "aggregates are only allowed as the select item of a scalar subquery",
                ))
            }
        })
    }

    /// SQL scoping: search the current block's tables first, then enclosing
    /// blocks outward.
    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        scopes: &[ScopeBlock],
    ) -> Result<String, SqlError> {
        for scope in scopes.iter().rev() {
            match qualifier {
                Some(q) => {
                    if let Some((_, exposed, schema)) =
                        scope.tables.iter().find(|(written, _, _)| written == q)
                    {
                        return match schema.resolve(name) {
                            Ok(_) => Ok(format!("{exposed}.{name}")),
                            Err(_) => Err(SqlError::bind(format!(
                                "table `{q}` has no column `{name}`"
                            ))),
                        };
                    }
                }
                None => {
                    let matches: Vec<&(String, String, Schema)> = scope
                        .tables
                        .iter()
                        .filter(|(_, _, schema)| schema.try_resolve(name).is_some())
                        .collect();
                    match matches.len() {
                        0 => {}
                        1 => return Ok(format!("{}.{name}", matches[0].1)),
                        _ => return Err(SqlError::bind(format!("column `{name}` is ambiguous"))),
                    }
                }
            }
        }
        Err(SqlError::bind(match qualifier {
            Some(q) => format!("unknown column `{q}.{name}`"),
            None => format!("unknown column `{name}`"),
        }))
    }

    fn bind_pred(&mut self, p: &Predicate, scopes: &[ScopeBlock]) -> Result<BPred, SqlError> {
        Ok(match p {
            Predicate::Cmp { left, op, right } => BPred::Cmp {
                left: self.bind_scalar(left, scopes)?,
                op: *op,
                right: self.bind_scalar(right, scopes)?,
            },
            Predicate::Between {
                expr,
                low,
                high,
                negated,
            } => BPred::Between {
                expr: self.bind_scalar(expr, scopes)?,
                low: self.bind_scalar(low, scopes)?,
                high: self.bind_scalar(high, scopes)?,
                negated: *negated,
            },
            Predicate::IsNull { expr, negated } => BPred::IsNull {
                expr: self.bind_scalar(expr, scopes)?,
                negated: *negated,
            },
            Predicate::InList {
                expr,
                list,
                negated,
            } => BPred::InList {
                expr: self.bind_scalar(expr, scopes)?,
                list: list
                    .iter()
                    .map(|e| self.bind_scalar(e, scopes))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Predicate::And(a, b) => BPred::And(
                Box::new(self.bind_pred(a, scopes)?),
                Box::new(self.bind_pred(b, scopes)?),
            ),
            Predicate::Or(a, b) => BPred::Or(
                Box::new(self.bind_pred(a, scopes)?),
                Box::new(self.bind_pred(b, scopes)?),
            ),
            Predicate::Not(inner) => BPred::Not(Box::new(self.bind_pred(inner, scopes)?)),
            Predicate::Exists { .. }
            | Predicate::InSubquery { .. }
            | Predicate::Quantified { .. }
            | Predicate::CmpSubquery { .. } => {
                return Err(SqlError::bind(
                    "internal: subquery predicate reached bind_pred",
                ))
            }
        })
    }
}

/// Every column name a subquery mentions that could belong to an
/// enclosing block: its linking and linked expressions, its correlated
/// predicates, and the same for the subqueries nested in it (a grandchild
/// correlated to the root mentions the root's column).
fn collect_mentioned<'a>(edge: &'a SubqueryEdge, out: &mut Vec<&'a str>) {
    for expr in edge.outer_expr.iter().chain(&edge.inner_expr) {
        expr.collect_columns(out);
    }
    for pred in &edge.block.correlated_preds {
        pred.collect_columns(out);
    }
    for child in &edge.block.children {
        collect_mentioned(child, out);
    }
}

/// Push `NOT` down to atoms. Exact in three-valued logic: De Morgan for
/// AND/OR, `¬(a θ b) = a θ̄ b`, toggled `negated` flags for the rest, and
/// `¬(A θ ALL q) = A θ̄ SOME q` (and dually) for quantified predicates.
fn normalize_not(p: Predicate, negate: bool) -> Predicate {
    match p {
        Predicate::Not(inner) => normalize_not(*inner, !negate),
        Predicate::And(a, b) => {
            let a = normalize_not(*a, negate);
            let b = normalize_not(*b, negate);
            if negate {
                Predicate::Or(Box::new(a), Box::new(b))
            } else {
                Predicate::And(Box::new(a), Box::new(b))
            }
        }
        Predicate::Or(a, b) => {
            let a = normalize_not(*a, negate);
            let b = normalize_not(*b, negate);
            if negate {
                Predicate::And(Box::new(a), Box::new(b))
            } else {
                Predicate::Or(Box::new(a), Box::new(b))
            }
        }
        Predicate::Cmp { left, op, right } if negate => Predicate::Cmp {
            left,
            op: op.negate(),
            right,
        },
        Predicate::Between {
            expr,
            low,
            high,
            negated,
        } if negate => Predicate::Between {
            expr,
            low,
            high,
            negated: !negated,
        },
        Predicate::IsNull { expr, negated } if negate => Predicate::IsNull {
            expr,
            negated: !negated,
        },
        Predicate::InList {
            expr,
            list,
            negated,
        } if negate => Predicate::InList {
            expr,
            list,
            negated: !negated,
        },
        Predicate::Exists { query, negated } if negate => Predicate::Exists {
            query,
            negated: !negated,
        },
        Predicate::InSubquery {
            expr,
            query,
            negated,
        } if negate => Predicate::InSubquery {
            expr,
            query,
            negated: !negated,
        },
        Predicate::Quantified {
            expr,
            op,
            quantifier,
            query,
        } if negate => {
            let quantifier = match quantifier {
                Quantifier::Some => Quantifier::All,
                Quantifier::All => Quantifier::Some,
            };
            Predicate::Quantified {
                expr,
                op: op.negate(),
                quantifier,
                query,
            }
        }
        // ¬(A θ (select agg ...)) = A θ̄ (select agg ...): a scalar
        // comparison, exact in 3VL.
        Predicate::CmpSubquery { expr, op, query } if negate => Predicate::CmpSubquery {
            expr,
            op: op.negate(),
            query,
        },
        other => other,
    }
}

/// Flatten the top-level conjunction.
fn split_conjuncts(p: Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut v = split_conjuncts(*a);
            v.extend(split_conjuncts(*b));
            v
        }
        other => vec![other],
    }
}

fn contains_subquery(p: &Predicate) -> bool {
    match p {
        Predicate::Exists { .. }
        | Predicate::InSubquery { .. }
        | Predicate::Quantified { .. }
        | Predicate::CmpSubquery { .. } => true,
        Predicate::And(a, b) | Predicate::Or(a, b) => contains_subquery(a) || contains_subquery(b),
        Predicate::Not(inner) => contains_subquery(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::{Column, ColumnType, Table};

    /// Catalog with the paper's R(A,B,C,D), S(E,F,G,H,I), T(J,K,L).
    pub fn rst_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mk = |name: &str, cols: &[&str], pk: &str| {
            let schema = Schema::new(
                cols.iter()
                    .map(|c| {
                        if *c == pk {
                            Column::not_null(*c, ColumnType::Int)
                        } else {
                            Column::new(*c, ColumnType::Int)
                        }
                    })
                    .collect(),
            );
            let mut t = Table::new(name, schema);
            t.set_primary_key(&[pk]).unwrap();
            t
        };
        cat.add_table(mk("r", &["a", "b", "c", "d"], "d")).unwrap();
        cat.add_table(mk("s", &["e", "f", "g", "h", "i"], "i"))
            .unwrap();
        cat.add_table(mk("t", &["j", "k", "l"], "l")).unwrap();
        cat
    }

    const QUERY_Q: &str = "select r.b, r.c, r.d from r \
         where r.a > 1 and r.b not in \
           (select s.e from s where s.f = 5 and r.d = s.g and s.h > all \
              (select t.j from t where t.k = r.c and t.l <> s.i))";

    #[test]
    fn binds_paper_query_q() {
        let cat = rst_catalog();
        let bq = parse_and_bind(QUERY_Q, &cat).unwrap();
        assert_eq!(bq.num_blocks, 3);
        assert_eq!(bq.root.id, 1);
        assert_eq!(bq.root.select.len(), 3);
        assert_eq!(bq.root.local_preds.len(), 1); // r.a > 1
        assert_eq!(bq.root.children.len(), 1);

        let edge2 = &bq.root.children[0];
        assert_eq!(edge2.link, LinkOp::All(CmpOp::Ne)); // NOT IN
        assert_eq!(edge2.outer_expr, Some(BExpr::col("r.b")));
        assert_eq!(edge2.inner_expr, Some(BExpr::col("s.e")));
        let b2 = &edge2.block;
        assert_eq!(b2.id, 2);
        assert_eq!(b2.local_preds.len(), 1); // s.f = 5
        assert_eq!(b2.correlated_preds.len(), 1); // r.d = s.g
        assert_eq!(b2.children.len(), 1);

        let edge3 = &b2.children[0];
        assert_eq!(edge3.link, LinkOp::All(CmpOp::Gt));
        let b3 = &edge3.block;
        assert_eq!(b3.id, 3);
        // t.k = r.c correlates to block 1, t.l <> s.i to block 2.
        assert_eq!(b3.correlated_preds.len(), 2);
        assert!(bq.root.is_linear());
        assert!(!bq.is_linear_correlated(), "block 3 references block 1");
        assert!(!bq.has_mixed_links(), "both links are negative");
    }

    /// One column list per table as `exposed -> column names`, in
    /// depth-first block order.
    fn listed(sql: &str, list: impl Fn(&BoundTable) -> &[usize]) -> Vec<(String, Vec<String>)> {
        let cat = rst_catalog();
        let bq = parse_and_bind(sql, &cat).unwrap();
        let mut out = Vec::new();
        bq.root.visit(&mut |block, _| {
            for t in &block.tables {
                let schema = cat.table(&t.table).unwrap().schema();
                let names = list(t).iter().map(|&i| schema.column(i).name.clone());
                out.push((t.exposed.clone(), names.collect()));
            }
        });
        out
    }

    fn carry_of(sql: &str) -> Vec<(String, Vec<String>)> {
        listed(sql, |t| &t.carry)
    }

    fn select_only_of(sql: &str) -> Vec<(String, Vec<String>)> {
        listed(sql, |t| &t.select_only)
    }

    fn entry(table: &str, cols: &[&str]) -> (String, Vec<String>) {
        (
            table.to_string(),
            cols.iter().map(|c| c.to_string()).collect(),
        )
    }

    #[test]
    fn carry_list_of_query_q_skips_local_only_columns() {
        // r.a and s.f appear in local predicates alone; t.k = r.c is a
        // grandchild's (non-adjacent) correlated predicate, so r.c is
        // carried although block 2 never mentions it.
        assert_eq!(
            carry_of(QUERY_Q),
            vec![
                entry("r", &["b", "c", "d"]),
                entry("s", &["e", "g", "h", "i"]),
                entry("t", &["j", "k", "l"]),
            ]
        );
    }

    #[test]
    fn carry_list_keeps_a_column_only_a_grandchild_mentions() {
        // r.a is in no select list and no predicate of blocks 1 or 2;
        // r.b is only read out at the end, so it is not carried.
        assert_eq!(
            carry_of(
                "select r.b from r where exists (select * from s where s.g = r.d \
                 and exists (select * from t where t.j = r.a and t.k = 1))"
            ),
            vec![
                entry("r", &["a", "d"]),
                entry("s", &["g"]),
                entry("t", &["j"])
            ]
        );
    }

    #[test]
    fn carry_list_covers_computed_linking_and_linked_expressions() {
        assert_eq!(
            carry_of(
                "select r.d from r where r.a + r.b > all (select s.e + 1 from s where s.f = 5)"
            ),
            vec![entry("r", &["a", "b"]), entry("s", &["e"])]
        );
        // COUNT(*) has no linked attribute; an uncorrelated EXISTS block
        // with only local predicates carries nothing at all.
        assert_eq!(
            carry_of("select r.d from r where r.a > (select count(*) from s where s.f = 5)"),
            vec![entry("r", &["a"]), entry("s", &[])]
        );
        assert_eq!(
            carry_of("select r.d from r where exists (select * from s where s.f = 5)"),
            vec![entry("r", &[]), entry("s", &[])]
        );
    }

    #[test]
    fn carry_list_is_per_table_instance_and_in_table_order() {
        // The same table twice: each instance carries its own mentions,
        // listed in schema order whatever order the query names them in.
        assert_eq!(
            carry_of("select r.c, r.b from r where r.d in (select a from r where b = 1 and c > 2)"),
            vec![entry("r", &["d"]), entry("r_2", &["a"])]
        );
        assert_eq!(
            carry_of("select r.a from r where r.d + r.b in (select a from r where c > 2)"),
            vec![entry("r", &["b", "d"]), entry("r_2", &["a"])]
        );
        // A two-table block: the join predicate between its own tables is
        // local, so t carries nothing and s only what others mention.
        assert_eq!(
            carry_of(
                "select r.b from r where r.b in \
                 (select s.e from s, t where s.g = t.j and t.k > 1 and s.h = r.d)"
            ),
            vec![
                entry("r", &["b", "d"]),
                entry("s", &["e", "h"]),
                entry("t", &[])
            ]
        );
        // Nothing compares a column of a flat query: all of it is read out
        // at the end.
        assert_eq!(
            carry_of("select * from t where t.k > 1"),
            vec![entry("t", &[])]
        );
    }

    #[test]
    fn select_only_is_what_nothing_but_the_root_select_reads() {
        // Query Q compares every column it selects.
        assert_eq!(
            select_only_of(QUERY_Q),
            vec![entry("r", &[]), entry("s", &[]), entry("t", &[])]
        );
        // r.c and r.b are read out only; r.d links. Listed in schema order,
        // once, however often and in whatever order the select names them.
        assert_eq!(
            select_only_of(
                "select r.c, r.b, r.c from r where r.d in (select a from r where b = 1)"
            ),
            vec![entry("r", &["b", "c"]), entry("r_2", &[])]
        );
        // A column both selected and compared is carried, not late; so is
        // one a computed select item reads.
        assert_eq!(
            select_only_of("select r.b, r.d, r.a + r.c from r where r.b > all (select e from s)"),
            vec![entry("r", &["d"]), entry("s", &[])]
        );
        assert_eq!(
            carry_of("select r.b, r.d, r.a + r.c from r where r.b > all (select e from s)"),
            vec![entry("r", &["a", "b", "c"]), entry("s", &["e"])]
        );
        // A local predicate is evaluated in storage: filtering on a column
        // does not carry it.
        assert_eq!(
            select_only_of("select * from t where t.k > 1"),
            vec![entry("t", &["j", "k", "l"])]
        );
    }

    #[test]
    fn select_only_is_empty_for_inner_blocks_and_multi_table_roots() {
        // The inner block's select item is the linked attribute: carried.
        assert_eq!(
            select_only_of("select r.b from r where r.d in (select s.e from s where s.f = 5)"),
            vec![entry("r", &["b"]), entry("s", &[])]
        );
        // A two-table root carries what it selects, like any other column.
        let sql = "select r.b, t.j from r, t where r.c = t.k and r.d > all (select e from s)";
        assert_eq!(
            select_only_of(sql),
            vec![entry("r", &[]), entry("t", &[]), entry("s", &[])]
        );
        assert_eq!(
            carry_of(sql),
            vec![
                entry("r", &["b", "d"]),
                entry("t", &["j"]),
                entry("s", &["e"])
            ]
        );
    }

    #[test]
    fn linear_correlated_detection() {
        let cat = rst_catalog();
        // The paper's §4.2.3 variant of Query Q: drop t.k = r.c, change
        // t.l <> s.i to t.l = s.i.
        let bq = parse_and_bind(
            "select r.b from r where r.b not in \
               (select s.e from s where r.d = s.g and s.h > all \
                  (select t.j from t where t.l = s.i))",
            &cat,
        )
        .unwrap();
        assert!(bq.is_linear_correlated());
    }

    #[test]
    fn scoping_resolves_unqualified_names_outward() {
        let cat = rst_catalog();
        let bq = parse_and_bind(
            "select b from r where exists (select * from s where g = d)",
            &cat,
        )
        .unwrap();
        let inner = &bq.root.children[0].block;
        // g resolves to s (inner), d to r (outer) -> correlated.
        assert_eq!(inner.correlated_preds.len(), 1);
        let cols = inner.correlated_preds[0].columns();
        assert!(cols.contains(&"s.g"));
        assert!(cols.contains(&"r.d"));
    }

    #[test]
    fn duplicate_table_reference_is_renamed() {
        let cat = rst_catalog();
        let bq = parse_and_bind(
            "select b from r where b in (select a from r r2 where r2.d = r.d)",
            &cat,
        )
        .unwrap();
        let inner = &bq.root.children[0].block;
        assert_eq!(inner.tables[0].exposed, "r2");
        assert_eq!(bq.owner_block("r2.a"), Some(2));
        assert_eq!(bq.owner_block("r.a"), Some(1));
    }

    #[test]
    fn same_table_same_name_gets_uniquified() {
        let cat = rst_catalog();
        let bq = parse_and_bind(
            "select b from r where exists (select * from r where a = 1)",
            &cat,
        );
        // Inner `r` must be renamed to keep qualifiers query-wide unique.
        let bq = bq.unwrap();
        assert_eq!(bq.root.children[0].block.tables[0].exposed, "r_2");
    }

    #[test]
    fn not_normalization_flips_quantifiers() {
        let cat = rst_catalog();
        let bq =
            parse_and_bind("select b from r where not b > all (select e from s)", &cat).unwrap();
        assert_eq!(bq.root.children[0].link, LinkOp::Some(CmpOp::Le));
    }

    #[test]
    fn not_exists_binds_negated() {
        let cat = rst_catalog();
        let bq = parse_and_bind(
            "select b from r where not exists (select * from s where s.g = r.d)",
            &cat,
        )
        .unwrap();
        assert_eq!(bq.root.children[0].link, LinkOp::NotExists);
        assert!(!bq.all_links_positive());
    }

    #[test]
    fn mixed_links_detected() {
        let cat = rst_catalog();
        let bq = parse_and_bind(
            "select b from r where b in (select e from s) \
             and b > all (select j from t)",
            &cat,
        )
        .unwrap();
        assert!(bq.has_mixed_links());
        assert!(!bq.root.is_linear(), "two children at the root");
        assert_eq!(bq.root.block_count(), 3);
        assert_eq!(bq.root.nesting_depth(), 1);
    }

    #[test]
    fn rejects_subquery_under_or() {
        let cat = rst_catalog();
        let err = parse_and_bind(
            "select b from r where a = 1 or exists (select * from s)",
            &cat,
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Bind(_)));
    }

    #[test]
    fn rejects_reserved_synthetic_prefix() {
        let cat = rst_catalog();
        let err = parse_and_bind("select a from r __b1", &cat).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn rejects_bad_names() {
        let cat = rst_catalog();
        assert!(parse_and_bind("select b from missing", &cat).is_err());
        assert!(parse_and_bind("select nope from r", &cat).is_err());
        assert!(parse_and_bind("select r.nope from r", &cat).is_err());
        assert!(parse_and_bind("select x.b from r", &cat).is_err());
    }

    #[test]
    fn rejects_multi_column_value_subquery() {
        let cat = rst_catalog();
        assert!(parse_and_bind("select b from r where b in (select e, f from s)", &cat).is_err());
        assert!(parse_and_bind("select b from r where b in (select * from s)", &cat).is_err());
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        let cat = rst_catalog();
        // Both r and s are in scope in the inner block: `g` is fine (only
        // s has it) but a column present in both `r` and `t`? None exist,
        // so test within one block with two tables sharing no columns:
        // instead check ambiguity inside a single block listing the same
        // table twice under different aliases.
        let err = parse_and_bind("select a from r x, r y", &cat).unwrap_err();
        assert!(matches!(err, SqlError::Bind(_)));
    }

    #[test]
    fn wildcard_expands_all_from_tables() {
        let cat = rst_catalog();
        let bq = parse_and_bind("select * from t", &cat).unwrap();
        let names: Vec<&str> = bq.root.select.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["t.j", "t.k", "t.l"]);
    }

    #[test]
    fn exists_ignores_select_list() {
        let cat = rst_catalog();
        let bq = parse_and_bind(
            "select b from r where exists (select j, k from t where t.k = r.c)",
            &cat,
        )
        .unwrap();
        assert_eq!(bq.root.children[0].inner_expr, None);
    }
}
