//! Compilation of bound expressions/predicates to index-resolved form.
//!
//! A [`BExpr`]/[`BPred`] references columns by qualified name; compiling it
//! against a concrete [`Schema`] resolves names to positions once, so
//! evaluation inside operator loops is just array indexing.

use std::borrow::Cow;

use nra_sql::{ArithOp, BExpr, BPred};
use nra_storage::{CmpOp, Schema, Truth, Value};

use crate::error::EngineError;

/// An index-resolved scalar expression.
#[derive(Debug, Clone)]
pub enum CExpr {
    Col(usize),
    Lit(Value),
    Arith {
        op: ArithOp,
        left: Box<CExpr>,
        right: Box<CExpr>,
    },
}

impl CExpr {
    /// Compile `expr` against `schema`.
    pub fn compile(expr: &BExpr, schema: &Schema) -> Result<CExpr, EngineError> {
        Ok(match expr {
            BExpr::Col(name) => CExpr::Col(
                schema
                    .try_resolve(name)
                    .ok_or_else(|| EngineError::Column(name.clone()))?,
            ),
            BExpr::Lit(v) => CExpr::Lit(v.clone()),
            BExpr::Arith { op, left, right } => CExpr::Arith {
                op: *op,
                left: Box::new(CExpr::compile(left, schema)?),
                right: Box::new(CExpr::compile(right, schema)?),
            },
        })
    }

    pub fn eval(&self, row: &[Value]) -> Value {
        self.value(row).into_owned()
    }

    /// The expression's value over `row`, borrowed when it is a column or
    /// a literal: comparisons read it in place instead of cloning a
    /// `Value` (strings included) per row. Only arithmetic owns its result.
    pub fn value<'a>(&'a self, row: &'a [Value]) -> Cow<'a, Value> {
        match self {
            CExpr::Col(i) => Cow::Borrowed(&row[*i]),
            CExpr::Lit(v) => Cow::Borrowed(v),
            CExpr::Arith { op, left, right } => {
                Cow::Owned(BExpr::eval_arith(*op, &left.value(row), &right.value(row)))
            }
        }
    }

    /// If this is a bare column, its index.
    pub fn as_col(&self) -> Option<usize> {
        match self {
            CExpr::Col(i) => Some(*i),
            _ => None,
        }
    }

    /// Append every column index this expression reads.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            CExpr::Col(i) => out.push(*i),
            CExpr::Lit(_) => {}
            CExpr::Arith { left, right, .. } => {
                left.collect_cols(out);
                right.collect_cols(out);
            }
        }
    }
}

/// An index-resolved predicate evaluating to a [`Truth`].
#[derive(Debug, Clone)]
pub enum CPred {
    Cmp {
        left: CExpr,
        op: CmpOp,
        right: CExpr,
    },
    Between {
        expr: CExpr,
        low: CExpr,
        high: CExpr,
        negated: bool,
    },
    IsNull {
        expr: CExpr,
        negated: bool,
    },
    InList {
        expr: CExpr,
        list: Vec<CExpr>,
        negated: bool,
    },
    And(Box<CPred>, Box<CPred>),
    Or(Box<CPred>, Box<CPred>),
    Not(Box<CPred>),
    Const(Truth),
}

impl CPred {
    pub fn compile(pred: &BPred, schema: &Schema) -> Result<CPred, EngineError> {
        Ok(match pred {
            BPred::Cmp { left, op, right } => CPred::Cmp {
                left: CExpr::compile(left, schema)?,
                op: *op,
                right: CExpr::compile(right, schema)?,
            },
            BPred::Between {
                expr,
                low,
                high,
                negated,
            } => CPred::Between {
                expr: CExpr::compile(expr, schema)?,
                low: CExpr::compile(low, schema)?,
                high: CExpr::compile(high, schema)?,
                negated: *negated,
            },
            BPred::IsNull { expr, negated } => CPred::IsNull {
                expr: CExpr::compile(expr, schema)?,
                negated: *negated,
            },
            BPred::InList {
                expr,
                list,
                negated,
            } => CPred::InList {
                expr: CExpr::compile(expr, schema)?,
                list: list
                    .iter()
                    .map(|e| CExpr::compile(e, schema))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            },
            BPred::And(a, b) => CPred::And(
                Box::new(CPred::compile(a, schema)?),
                Box::new(CPred::compile(b, schema)?),
            ),
            BPred::Or(a, b) => CPred::Or(
                Box::new(CPred::compile(a, schema)?),
                Box::new(CPred::compile(b, schema)?),
            ),
            BPred::Not(p) => CPred::Not(Box::new(CPred::compile(p, schema)?)),
            BPred::Const(t) => CPred::Const(*t),
        })
    }

    /// Compile a conjunction of predicates.
    pub fn compile_all(preds: &[BPred], schema: &Schema) -> Result<CPred, EngineError> {
        let mut compiled: Vec<CPred> = preds
            .iter()
            .map(|p| CPred::compile(p, schema))
            .collect::<Result<_, _>>()?;
        Ok(match compiled.len() {
            0 => CPred::Const(Truth::True),
            1 => compiled.pop().unwrap(),
            _ => {
                let mut it = compiled.into_iter();
                let first = it.next().unwrap();
                it.fold(first, |acc, p| CPred::And(Box::new(acc), Box::new(p)))
            }
        })
    }

    pub fn eval(&self, row: &[Value]) -> Truth {
        match self {
            CPred::Cmp { left, op, right } => left.value(row).sql_compare(*op, &right.value(row)),
            CPred::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.value(row);
                let t = v
                    .sql_compare(CmpOp::Ge, &low.value(row))
                    .and(v.sql_compare(CmpOp::Le, &high.value(row)));
                if *negated {
                    t.not()
                } else {
                    t
                }
            }
            CPred::IsNull { expr, negated } => {
                // IS [NOT] NULL is two-valued.
                Truth::from_bool(expr.value(row).is_null() != *negated)
            }
            CPred::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.value(row);
                let mut t = Truth::False;
                for e in list {
                    t = t.or(v.sql_compare(CmpOp::Eq, &e.value(row)));
                    if t == Truth::True {
                        break;
                    }
                }
                if *negated {
                    t.not()
                } else {
                    t
                }
            }
            CPred::And(a, b) => a.eval(row).and(b.eval(row)),
            CPred::Or(a, b) => a.eval(row).or(b.eval(row)),
            CPred::Not(p) => p.eval(row).not(),
            CPred::Const(t) => *t,
        }
    }

    /// `WHERE`-clause acceptance: predicate evaluates to `TRUE`.
    pub fn accepts(&self, row: &[Value]) -> bool {
        self.eval(row).is_true()
    }

    /// Append every column index this predicate reads.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            CPred::Cmp { left, right, .. } => {
                left.collect_cols(out);
                right.collect_cols(out);
            }
            CPred::Between {
                expr, low, high, ..
            } => {
                expr.collect_cols(out);
                low.collect_cols(out);
                high.collect_cols(out);
            }
            CPred::IsNull { expr, .. } => expr.collect_cols(out),
            CPred::InList { expr, list, .. } => {
                expr.collect_cols(out);
                for e in list {
                    e.collect_cols(out);
                }
            }
            CPred::And(a, b) | CPred::Or(a, b) => {
                a.collect_cols(out);
                b.collect_cols(out);
            }
            CPred::Not(p) => p.collect_cols(out),
            CPred::Const(_) => {}
        }
    }

    /// The sorted, deduplicated column indices this predicate reads —
    /// the stored lanes a `ValueBatch` borrows to evaluate it.
    pub fn columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_cols(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("t.a", ColumnType::Int),
            Column::new("t.b", ColumnType::Int),
        ])
    }

    fn row(a: Value, b: Value) -> Vec<Value> {
        vec![a, b]
    }

    #[test]
    fn compile_resolves_columns() {
        let e = CExpr::compile(&BExpr::col("t.b"), &schema()).unwrap();
        assert_eq!(e.eval(&row(Value::Int(1), Value::Int(2))), Value::Int(2));
        assert!(CExpr::compile(&BExpr::col("t.zzz"), &schema()).is_err());
    }

    #[test]
    fn arithmetic_evaluates() {
        let e = BExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(BExpr::col("t.a")),
            right: Box::new(BExpr::Lit(Value::Int(10))),
        };
        let c = CExpr::compile(&e, &schema()).unwrap();
        assert_eq!(c.eval(&row(Value::Int(5), Value::Null)), Value::Int(15));
        assert_eq!(c.eval(&row(Value::Null, Value::Null)), Value::Null);
    }

    #[test]
    fn between_three_valued() {
        let p = BPred::Between {
            expr: BExpr::col("t.a"),
            low: BExpr::Lit(Value::Int(1)),
            high: BExpr::Lit(Value::Int(10)),
            negated: false,
        };
        let c = CPred::compile(&p, &schema()).unwrap();
        assert_eq!(c.eval(&row(Value::Int(5), Value::Null)), Truth::True);
        assert_eq!(c.eval(&row(Value::Int(11), Value::Null)), Truth::False);
        assert_eq!(c.eval(&row(Value::Null, Value::Null)), Truth::Unknown);
    }

    #[test]
    fn not_between_of_unknown_stays_unknown() {
        let p = BPred::Between {
            expr: BExpr::col("t.a"),
            low: BExpr::Lit(Value::Int(1)),
            high: BExpr::Lit(Value::Int(10)),
            negated: true,
        };
        let c = CPred::compile(&p, &schema()).unwrap();
        assert_eq!(c.eval(&row(Value::Null, Value::Null)), Truth::Unknown);
        assert!(!c.accepts(&row(Value::Null, Value::Null)));
    }

    #[test]
    fn is_null_is_two_valued() {
        let p = BPred::IsNull {
            expr: BExpr::col("t.a"),
            negated: false,
        };
        let c = CPred::compile(&p, &schema()).unwrap();
        assert_eq!(c.eval(&row(Value::Null, Value::Null)), Truth::True);
        assert_eq!(c.eval(&row(Value::Int(1), Value::Null)), Truth::False);
    }

    #[test]
    fn in_list_with_null_semantics() {
        // 5 NOT IN (1, NULL): 5=1 false, 5=NULL unknown -> IN is unknown,
        // NOT IN is unknown.
        let p = BPred::InList {
            expr: BExpr::col("t.a"),
            list: vec![BExpr::Lit(Value::Int(1)), BExpr::Lit(Value::Null)],
            negated: true,
        };
        let c = CPred::compile(&p, &schema()).unwrap();
        assert_eq!(c.eval(&row(Value::Int(5), Value::Null)), Truth::Unknown);
        // 1 NOT IN (1, NULL) is plainly false.
        assert_eq!(c.eval(&row(Value::Int(1), Value::Null)), Truth::False);
    }

    #[test]
    fn compile_all_conjunction() {
        let preds = vec![
            BPred::cmp(BExpr::col("t.a"), CmpOp::Gt, BExpr::Lit(Value::Int(0))),
            BPred::cmp(BExpr::col("t.b"), CmpOp::Lt, BExpr::Lit(Value::Int(10))),
        ];
        let c = CPred::compile_all(&preds, &schema()).unwrap();
        assert!(c.accepts(&row(Value::Int(1), Value::Int(5))));
        assert!(!c.accepts(&row(Value::Int(1), Value::Int(50))));
        let empty = CPred::compile_all(&[], &schema()).unwrap();
        assert!(empty.accepts(&row(Value::Null, Value::Null)));
    }
}
