//! Scalar values and SQL three-valued logic.
//!
//! Every attribute in the flat relational substrate holds a [`Value`]. SQL
//! semantics make `NULL` a first-class citizen: any comparison involving
//! `NULL` yields the third truth value *unknown*, which is modelled by
//! [`Truth`]. The nested relational approach of the paper is specifically
//! designed to stay correct in the presence of `NULL`s (its motivating
//! examples break the classical antijoin rewrites), so the semantics in this
//! module are load-bearing for everything above it.

use std::cmp::Ordering;
use std::fmt;

/// SQL three-valued logic truth value.
///
/// `WHERE` clauses keep a tuple only when the predicate evaluates to
/// [`Truth::True`]; both `False` and `Unknown` reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    /// Kleene conjunction.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)] // 3VL negation, deliberately named `not`
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// `WHERE`-clause semantics: only `TRUE` passes.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }

    /// Convenience constructor from a two-valued bool.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

impl From<bool> for Truth {
    fn from(b: bool) -> Truth {
        Truth::from_bool(b)
    }
}

/// Comparison operators `θ ∈ {=, ≠, <, ≤, >, ≥}` as used in linking and
/// correlated predicates throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering between two non-NULL values.
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// Logical negation: `¬(a θ b) = a θ̄ b`.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Operand swap: `a θ b  ⇔  b θ' a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// SQL spelling, for display and for the parser round-trip tests.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A scalar SQL value.
///
/// `Decimal` is a fixed-point value scaled by 100 (two fractional digits),
/// which covers TPC-H money columns while keeping values hashable and exactly
/// comparable. `Date` counts days since 1970-01-01.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    /// Fixed point, scaled by 100: `Decimal(12345)` is `123.45`.
    Decimal(i64),
    Float(f64),
    Str(String),
    /// Days since the Unix epoch.
    Date(i32),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build a decimal from integral and hundredth parts.
    pub fn decimal(units: i64, cents: i64) -> Value {
        Value::Decimal(units * 100 + cents)
    }

    /// SQL comparison between two values.
    ///
    /// Returns `None` when either side is `NULL` (the comparison is
    /// *unknown*) or when the types are not comparable. Numeric types
    /// (`Int`, `Decimal`, `Float`) compare with each other by numeric value.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Decimal(a), Decimal(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            // Cross-type numeric comparisons.
            (Int(a), Decimal(b)) => (a.checked_mul(100)).map(|a| a.cmp(b)),
            (Decimal(a), Int(b)) => (b.checked_mul(100)).map(|b| a.cmp(&b)),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Decimal(a), Float(b)) => (*a as f64 / 100.0).partial_cmp(b),
            (Float(a), Decimal(b)) => a.partial_cmp(&(*b as f64 / 100.0)),
            _ => None,
        }
    }

    /// Evaluate `self θ other` under SQL three-valued semantics.
    pub fn sql_compare(&self, op: CmpOp, other: &Value) -> Truth {
        match self.sql_cmp(other) {
            Some(ord) => Truth::from_bool(op.eval(ord)),
            None => Truth::Unknown,
        }
    }

    /// Total order used for sorting and ordered indexes (not SQL
    /// semantics): `NULL` sorts first, then values ordered by type tag, then
    /// by value; `Float` uses IEEE total ordering.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn tag(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) => 2,
                Decimal(_) => 3,
                Float(_) => 4,
                Str(_) => 5,
                Date(_) => 6,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Decimal(a), Decimal(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => tag(self).cmp(&tag(other)),
        }
    }

    /// Grouping equality: like SQL `GROUP BY`, `NULL` matches `NULL` and
    /// values must be of the same type.
    pub fn group_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// Feed this value into a hasher consistently with [`Value::group_eq`].
    pub fn group_hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        use Value::*;
        match self {
            Null => 0u8.hash(state),
            Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Decimal(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Float(f) => {
                4u8.hash(state);
                f.to_bits().hash(state);
            }
            Str(s) => {
                5u8.hash(state);
                s.hash(state);
            }
            Date(d) => {
                6u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Decimal(d) => {
                let sign = if *d < 0 { "-" } else { "" };
                let a = d.unsigned_abs();
                write!(f, "{sign}{}.{:02}", a / 100, a % 100)
            }
            Value::Float(x) => write!(f, "{x}"),
            // SQL string literal form: embedded quotes are doubled.
            Value::Str(s) => {
                f.write_str("'")?;
                for (i, part) in s.split('\'').enumerate() {
                    if i > 0 {
                        f.write_str("''")?;
                    }
                    f.write_str(part)?;
                }
                f.write_str("'")
            }
            Value::Date(d) => {
                let (y, m, day) = civil_from_days(*d);
                write!(f, "date '{y:04}-{m:02}-{day:02}'")
            }
        }
    }
}

/// Convert a `(year, month, day)` civil date to days since 1970-01-01
/// (Howard Hinnant's `days_from_civil`).
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((m + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146097 + doe - 719468) as i32
}

/// Parse `YYYY-MM-DD` into days since 1970-01-01; `None` on malformed
/// input.
pub fn parse_date_str(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    // A leading '-' would make the first segment empty: negative years are
    // out of scope for this SQL subset.
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d))
}

/// Convert days since 1970-01-01 to `(year, month, day)` in the proleptic
/// Gregorian calendar (Howard Hinnant's `civil_from_days`).
pub fn civil_from_days(z: i32) -> (i64, u32, u32) {
    let z = z as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_displays_as_sql_literal() {
        assert_eq!(Value::Date(0).to_string(), "date '1970-01-01'");
        assert_eq!(Value::Date(9298).to_string(), "date '1995-06-17'");
        assert_eq!(Value::Date(-1).to_string(), "date '1969-12-31'");
    }

    #[test]
    fn string_displays_as_sql_literal_with_doubled_quotes() {
        for (raw, literal) in [
            ("", "''"),
            ("plain", "'plain'"),
            ("it's", "'it''s'"),
            ("'", "''''"),
            ("''a'", "'''''a'''"),
        ] {
            assert_eq!(Value::str(raw).to_string(), literal, "{raw:?}");
        }
    }

    #[test]
    fn kleene_and_truth_table() {
        use Truth::*;
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(False), False);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
    }

    #[test]
    fn kleene_or_truth_table() {
        use Truth::*;
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(True), True);
        assert_eq!(Unknown.or(True), True);
        assert_eq!(Unknown.or(False), Unknown);
        assert_eq!(Unknown.or(Unknown), Unknown);
    }

    #[test]
    fn kleene_not() {
        use Truth::*;
        assert_eq!(True.not(), False);
        assert_eq!(False.not(), True);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn null_comparisons_are_unknown() {
        let five = Value::Int(5);
        assert_eq!(five.sql_compare(CmpOp::Eq, &Value::Null), Truth::Unknown);
        assert_eq!(Value::Null.sql_compare(CmpOp::Ne, &five), Truth::Unknown);
        assert_eq!(
            Value::Null.sql_compare(CmpOp::Eq, &Value::Null),
            Truth::Unknown
        );
    }

    #[test]
    fn cmp_op_eval() {
        let a = Value::Int(3);
        let b = Value::Int(7);
        assert_eq!(a.sql_compare(CmpOp::Lt, &b), Truth::True);
        assert_eq!(a.sql_compare(CmpOp::Ge, &b), Truth::False);
        assert_eq!(a.sql_compare(CmpOp::Ne, &b), Truth::True);
        assert_eq!(a.sql_compare(CmpOp::Eq, &a.clone()), Truth::True);
    }

    #[test]
    fn cmp_op_negate_flip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_eq!(
                    op.negate().eval(ord),
                    !op.eval(ord),
                    "negate {op:?} {ord:?}"
                );
                assert_eq!(
                    op.flip().eval(ord.reverse()),
                    op.eval(ord),
                    "flip {op:?} {ord:?}"
                );
            }
        }
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(
            Value::Int(5).sql_compare(CmpOp::Eq, &Value::Decimal(500)),
            Truth::True
        );
        assert_eq!(
            Value::Decimal(250).sql_compare(CmpOp::Lt, &Value::Int(3)),
            Truth::True
        );
        assert_eq!(
            Value::Float(2.5).sql_compare(CmpOp::Eq, &Value::Decimal(250)),
            Truth::True
        );
    }

    #[test]
    fn incomparable_types_are_unknown() {
        assert_eq!(
            Value::Int(1).sql_compare(CmpOp::Eq, &Value::str("x")),
            Truth::Unknown
        );
    }

    #[test]
    fn total_cmp_null_first_and_reflexive() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::Decimal(100),
            Value::Float(0.5),
            Value::str("abc"),
            Value::Date(10),
        ];
        for (i, a) in vals.iter().enumerate() {
            assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals[i + 1..] {
                assert_eq!(a.total_cmp(b), Ordering::Less);
                assert_eq!(b.total_cmp(a), Ordering::Greater);
            }
        }
    }

    #[test]
    fn group_eq_matches_nulls() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int(0)));
        assert!(Value::Int(4).group_eq(&Value::Int(4)));
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Value::Decimal(12345).to_string(), "123.45");
        assert_eq!(Value::Decimal(-7).to_string(), "-0.07");
        assert_eq!(Value::decimal(9, 5).to_string(), "9.05");
    }
}
