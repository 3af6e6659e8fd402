//! Aggregate functions over value sets.
//!
//! The paper focuses on non-aggregate subqueries, but its closing
//! discussion (and the companion "Boolean aggregates" work it cites) notes
//! the nested relational machinery extends to aggregate subqueries
//! naturally: per outer tuple the subquery still yields a *set*, and an
//! aggregate linking predicate `A θ agg{B}` simply folds the set before
//! the comparison instead of quantifying over it. This module provides the
//! fold with standard SQL semantics:
//!
//! * `MIN`/`MAX`/`SUM`/`AVG` skip NULL inputs and return NULL on an empty
//!   (post-skip) set;
//! * `COUNT(*)` counts rows, `COUNT(col)` counts non-NULL values; both
//!   return 0 — not NULL — on the empty set (the classical "count bug"
//!   pitfall of unnesting rewrites).

use crate::value::Value;

/// An SQL aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Min,
    Max,
    Sum,
    Avg,
    /// `COUNT(*)`.
    CountRows,
    /// `COUNT(col)` — non-NULL values only.
    CountNonNull,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::CountRows | AggFunc::CountNonNull => "count",
        }
    }
}

/// Numeric accumulator that stays exact for homogeneous Int/Decimal input
/// and degrades to float otherwise.
enum NumAcc {
    Int(i64),
    Decimal(i64),
    Float(f64),
}

impl NumAcc {
    fn add(self, v: &Value) -> Option<NumAcc> {
        Some(match (self, v) {
            (NumAcc::Int(a), Value::Int(b)) => NumAcc::Int(a + b),
            (NumAcc::Decimal(a), Value::Decimal(b)) => NumAcc::Decimal(a + b),
            (NumAcc::Int(a), Value::Decimal(b)) => NumAcc::Decimal(a * 100 + b),
            (NumAcc::Decimal(a), Value::Int(b)) => NumAcc::Decimal(a + b * 100),
            (acc, Value::Float(b)) => NumAcc::Float(acc.as_f64() + b),
            (NumAcc::Float(a), Value::Int(b)) => NumAcc::Float(a + *b as f64),
            (NumAcc::Float(a), Value::Decimal(b)) => NumAcc::Float(a + *b as f64 / 100.0),
            _ => return None,
        })
    }

    fn as_f64(&self) -> f64 {
        match self {
            NumAcc::Int(a) => *a as f64,
            NumAcc::Decimal(a) => *a as f64 / 100.0,
            NumAcc::Float(a) => *a,
        }
    }

    fn into_value(self) -> Value {
        match self {
            NumAcc::Int(a) => Value::Int(a),
            NumAcc::Decimal(a) => Value::Decimal(a),
            NumAcc::Float(a) => Value::Float(a),
        }
    }
}

/// Fold `values` with `func` under SQL semantics. Non-numeric inputs to
/// `SUM`/`AVG` yield NULL; `MIN`/`MAX` use SQL comparison (and also work
/// on strings and dates).
pub fn aggregate<'a>(func: AggFunc, values: impl Iterator<Item = &'a Value>) -> Value {
    match func {
        AggFunc::CountRows => Value::Int(values.count() as i64),
        AggFunc::CountNonNull => Value::Int(values.filter(|v| !v.is_null()).count() as i64),
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&Value> = None;
            for v in values.filter(|v| !v.is_null()) {
                best = Some(match best {
                    None => v,
                    Some(b) => match v.sql_cmp(b) {
                        Some(std::cmp::Ordering::Less) if func == AggFunc::Min => v,
                        Some(std::cmp::Ordering::Greater) if func == AggFunc::Max => v,
                        _ => b,
                    },
                });
            }
            best.cloned().unwrap_or(Value::Null)
        }
        AggFunc::Sum | AggFunc::Avg => {
            let mut acc: Option<NumAcc> = None;
            let mut count = 0i64;
            for v in values.filter(|v| !v.is_null()) {
                count += 1;
                let cur = match acc.take() {
                    None => NumAcc::Int(0).add(v),
                    Some(a) => a.add(v),
                };
                match cur {
                    Some(a) => acc = Some(a),
                    None => return Value::Null, // non-numeric input
                }
            }
            match (func, acc) {
                (_, None) => Value::Null, // empty set
                (AggFunc::Sum, Some(a)) => a.into_value(),
                (AggFunc::Avg, Some(a)) => match a {
                    NumAcc::Decimal(d) => Value::Decimal(d / count),
                    other => Value::Float(other.as_f64() / count as f64),
                },
                _ => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: &[Value]) -> impl Iterator<Item = &Value> {
        v.iter()
    }

    #[test]
    fn min_max_skip_nulls() {
        let v = [Value::Int(3), Value::Null, Value::Int(1), Value::Int(2)];
        assert_eq!(aggregate(AggFunc::Min, vals(&v)), Value::Int(1));
        assert_eq!(aggregate(AggFunc::Max, vals(&v)), Value::Int(3));
    }

    #[test]
    fn empty_set_semantics() {
        let empty: [Value; 0] = [];
        assert_eq!(aggregate(AggFunc::Min, vals(&empty)), Value::Null);
        assert_eq!(aggregate(AggFunc::Sum, vals(&empty)), Value::Null);
        assert_eq!(aggregate(AggFunc::Avg, vals(&empty)), Value::Null);
        assert_eq!(aggregate(AggFunc::CountRows, vals(&empty)), Value::Int(0));
        assert_eq!(
            aggregate(AggFunc::CountNonNull, vals(&empty)),
            Value::Int(0)
        );
        // all-NULL input behaves like empty for everything but COUNT(*).
        let nulls = [Value::Null, Value::Null];
        assert_eq!(aggregate(AggFunc::Max, vals(&nulls)), Value::Null);
        assert_eq!(aggregate(AggFunc::CountRows, vals(&nulls)), Value::Int(2));
        assert_eq!(
            aggregate(AggFunc::CountNonNull, vals(&nulls)),
            Value::Int(0)
        );
    }

    #[test]
    fn sum_stays_exact_for_ints_and_decimals() {
        let ints = [Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(aggregate(AggFunc::Sum, vals(&ints)), Value::Int(6));
        let decs = [Value::Decimal(150), Value::Decimal(250)];
        assert_eq!(aggregate(AggFunc::Sum, vals(&decs)), Value::Decimal(400));
        let mixed = [Value::Int(1), Value::Decimal(250)];
        assert_eq!(aggregate(AggFunc::Sum, vals(&mixed)), Value::Decimal(350));
    }

    #[test]
    fn avg_types() {
        let ints = [Value::Int(1), Value::Int(2)];
        assert_eq!(aggregate(AggFunc::Avg, vals(&ints)), Value::Float(1.5));
        let decs = [Value::Decimal(100), Value::Decimal(200)];
        assert_eq!(aggregate(AggFunc::Avg, vals(&decs)), Value::Decimal(150));
    }

    #[test]
    fn sum_of_floats() {
        let v = [Value::Float(0.5), Value::Int(1)];
        assert_eq!(aggregate(AggFunc::Sum, vals(&v)), Value::Float(1.5));
    }

    #[test]
    fn non_numeric_sum_is_null() {
        let v = [Value::str("x")];
        assert_eq!(aggregate(AggFunc::Sum, vals(&v)), Value::Null);
    }

    #[test]
    fn min_max_on_strings_and_dates() {
        let s = [Value::str("b"), Value::str("a")];
        assert_eq!(aggregate(AggFunc::Min, vals(&s)), Value::str("a"));
        let d = [Value::Date(10), Value::Date(20)];
        assert_eq!(aggregate(AggFunc::Max, vals(&d)), Value::Date(20));
    }
}
