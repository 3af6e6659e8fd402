//! Secondary indexes over base tables.
//!
//! The paper's baseline ("System A") depends heavily on indexes: nested
//! iteration probes the inner block by index on the correlated column(s),
//! and Section 5 observes that the native plans degrade badly without them.
//! Two kinds are provided, matching the two access patterns the paper
//! describes: equality probes (hash) and ordered scans (B-tree-style).

use std::collections::{BTreeMap, HashMap};

use crate::tuple::{GroupKey, Tuple};
use crate::value::Value;

/// Hash index mapping a key (one or more columns) to the row ids holding it.
///
/// Rows whose key contains `NULL` are indexed under their key like any other
/// (grouping semantics); equality *probes* must skip NULL keys themselves,
/// since SQL equality never matches NULL. [`HashIndex::probe`] implements
/// that rule.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    map: HashMap<GroupKey, Vec<usize>>,
}

impl HashIndex {
    /// Build over `rows`, keyed by `key_cols`.
    pub fn build(rows: &[Tuple], key_cols: &[usize]) -> HashIndex {
        HashIndex::from_keys(
            key_cols,
            rows.iter().map(|row| GroupKey::from_tuple(row, key_cols)),
        )
    }

    /// Build from the key of each row in row-id order (how a table indexes
    /// its stored columns without materializing rows).
    pub fn from_keys(key_cols: &[usize], keys: impl Iterator<Item = GroupKey>) -> HashIndex {
        let mut map: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for (rid, key) in keys.enumerate() {
            map.entry(key).or_default().push(rid);
        }
        HashIndex {
            key_cols: key_cols.to_vec(),
            map,
        }
    }

    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Row ids whose key equals `key` under SQL equality. A probe key
    /// containing `NULL` matches nothing, as does a stored key containing
    /// `NULL`.
    pub fn probe(&self, key: &GroupKey) -> &[usize] {
        if key.has_null() {
            return &[];
        }
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row ids grouped exactly as stored (grouping semantics: includes NULL
    /// keys). Used by grouping-style consumers, not by equality probes.
    pub fn group(&self, key: &GroupKey) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// Key wrapper giving tuples of values a total order, for the ordered index.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdKey(pub Vec<Value>);

impl Eq for OrdKey {}

impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            let ord = a.total_cmp(b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// Ordered (B-tree-style) index: supports equality probes and range scans.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    key_cols: Vec<usize>,
    map: BTreeMap<OrdKey, Vec<usize>>,
}

impl OrderedIndex {
    pub fn build(rows: &[Tuple], key_cols: &[usize]) -> OrderedIndex {
        OrderedIndex::from_keys(
            key_cols,
            rows.iter()
                .map(|row| OrdKey(key_cols.iter().map(|&c| row[c].clone()).collect())),
        )
    }

    /// Build from the key of each row in row-id order.
    pub fn from_keys(key_cols: &[usize], keys: impl Iterator<Item = OrdKey>) -> OrderedIndex {
        let mut map: BTreeMap<OrdKey, Vec<usize>> = BTreeMap::new();
        for (rid, key) in keys.enumerate() {
            map.entry(key).or_default().push(rid);
        }
        OrderedIndex {
            key_cols: key_cols.to_vec(),
            map,
        }
    }

    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Equality probe under SQL semantics (NULL matches nothing).
    pub fn probe(&self, key: &[Value]) -> &[usize] {
        if key.iter().any(Value::is_null) {
            return &[];
        }
        self.map
            .get(&OrdKey(key.to_vec()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Row ids with key in `[lo, hi)` under the total order. `NULL` keys
    /// sort first and are excluded (SQL range predicates never match NULL),
    /// so callers pass non-NULL bounds.
    pub fn range(&self, lo: &[Value], hi: &[Value]) -> Vec<usize> {
        let lo = OrdKey(lo.to_vec());
        let hi = OrdKey(hi.to_vec());
        self.map
            .range(lo..hi)
            .filter(|(k, _)| !k.0.iter().any(Value::is_null))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Tuple> {
        vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(1), Value::str("c")],
            vec![Value::Null, Value::str("d")],
        ]
    }

    #[test]
    fn hash_index_probe() {
        let idx = HashIndex::build(&rows(), &[0]);
        assert_eq!(idx.probe(&GroupKey(vec![Value::Int(1)])), &[0, 2]);
        assert_eq!(idx.probe(&GroupKey(vec![Value::Int(9)])), &[] as &[usize]);
        // NULL probe key matches nothing even though a NULL key is stored.
        assert_eq!(idx.probe(&GroupKey(vec![Value::Null])), &[] as &[usize]);
        // ... but grouping access can still reach it.
        assert_eq!(idx.group(&GroupKey(vec![Value::Null])), &[3]);
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn ordered_index_probe_and_range() {
        let idx = OrderedIndex::build(&rows(), &[0]);
        assert_eq!(idx.probe(&[Value::Int(2)]), &[1]);
        assert_eq!(idx.probe(&[Value::Null]), &[] as &[usize]);
        let in_range = idx.range(&[Value::Int(1)], &[Value::Int(3)]);
        assert_eq!(in_range, vec![0, 2, 1]);
    }

    #[test]
    fn ordered_index_multi_column() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(20)],
            vec![Value::Int(2), Value::Int(10)],
        ];
        let idx = OrderedIndex::build(&rows, &[0, 1]);
        assert_eq!(idx.probe(&[Value::Int(1), Value::Int(20)]), &[1]);
        assert_eq!(idx.probe(&[Value::Int(1), Value::Int(30)]), &[] as &[usize]);
    }

    #[test]
    fn ordkey_total_order() {
        let a = OrdKey(vec![Value::Int(1)]);
        let b = OrdKey(vec![Value::Int(1), Value::Int(0)]);
        assert!(a < b, "shorter prefix sorts first");
    }
}
