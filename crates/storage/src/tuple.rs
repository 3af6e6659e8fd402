//! Tuples and hashable grouping keys.

use std::hash::{Hash, Hasher};

use crate::value::Value;

/// A flat tuple: one [`Value`] per schema column.
pub type Tuple = Vec<Value>;

/// A hashable, equatable key extracted from a tuple for grouping, hash
/// joins and hash indexes.
///
/// Uses *grouping* semantics: `NULL` equals `NULL` (like `GROUP BY`), floats
/// compare by bit pattern. SQL join semantics ("NULL matches nothing") are
/// enforced by the operators, not by this key type: equijoin operators must
/// refuse to probe or insert keys containing `NULL` (see
/// `nra-engine::ops::join`).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupKey(pub Vec<Value>);

impl GroupKey {
    /// Extract the key formed by `cols` from `tuple`.
    pub fn from_tuple(tuple: &[Value], cols: &[usize]) -> GroupKey {
        GroupKey(cols.iter().map(|&c| tuple[c].clone()).collect())
    }

    /// Overwrite this key with the one formed by `cols` from `tuple`,
    /// keeping its allocation: probe loops reuse one scratch key instead
    /// of building a `Vec` per row.
    pub fn refill(&mut self, tuple: &[Value], cols: &[usize]) {
        self.0.clear();
        self.0.extend(cols.iter().map(|&c| tuple[c].clone()));
    }

    /// True when any component is `NULL` (such a key can never satisfy an
    /// SQL equality predicate).
    pub fn has_null(&self) -> bool {
        self.0.iter().any(Value::is_null)
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            v.group_hash(state);
        }
    }
}

/// Total-order comparison of two tuples restricted to `cols`, suitable for
/// sorting (see [`Value::total_cmp`]).
pub fn cmp_on(a: &[Value], b: &[Value], cols: &[usize]) -> std::cmp::Ordering {
    for &c in cols {
        let ord = a[c].total_cmp(&b[c]);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Grouping equality of two tuples restricted to `cols` (`NULL` matches
/// `NULL`).
pub fn group_eq_on(a: &[Value], b: &[Value], cols: &[usize]) -> bool {
    cols.iter().all(|&c| a[c].group_eq(&b[c]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn group_key_null_equality() {
        let k1 = GroupKey(vec![Value::Null, Value::Int(1)]);
        let k2 = GroupKey(vec![Value::Null, Value::Int(1)]);
        assert_eq!(k1, k2);
        let mut m = HashMap::new();
        m.insert(k1, 7);
        assert_eq!(m.get(&k2), Some(&7));
    }

    #[test]
    fn group_key_has_null() {
        assert!(GroupKey(vec![Value::Int(1), Value::Null]).has_null());
        assert!(!GroupKey(vec![Value::Int(1)]).has_null());
    }

    #[test]
    fn from_tuple_extracts_columns() {
        let t = vec![Value::Int(1), Value::str("a"), Value::Int(3)];
        let k = GroupKey::from_tuple(&t, &[2, 0]);
        assert_eq!(k.0, vec![Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn refill_overwrites_in_place() {
        let t = vec![Value::Int(1), Value::str("a"), Value::Int(3)];
        let mut k = GroupKey(vec![Value::Null; 4]);
        k.refill(&t, &[2, 0]);
        assert_eq!(k, GroupKey::from_tuple(&t, &[2, 0]));
    }

    #[test]
    fn float_keys_hash_by_bits() {
        let k1 = GroupKey(vec![Value::Float(0.5)]);
        let k2 = GroupKey(vec![Value::Float(0.5)]);
        assert_eq!(k1, k2);
        let mut m = HashMap::new();
        m.insert(k1, ());
        assert!(m.contains_key(&k2));
    }

    #[test]
    fn cmp_on_and_group_eq_on() {
        let a = vec![Value::Int(1), Value::Null];
        let b = vec![Value::Int(1), Value::Null];
        let c = vec![Value::Int(2), Value::Null];
        assert_eq!(cmp_on(&a, &b, &[0, 1]), std::cmp::Ordering::Equal);
        assert!(group_eq_on(&a, &b, &[0, 1]));
        assert!(!group_eq_on(&a, &c, &[0]));
        assert_eq!(cmp_on(&a, &c, &[0]), std::cmp::Ordering::Less);
    }
}
