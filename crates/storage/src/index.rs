//! The hash index System A's nested iteration probes.
//!
//! The paper's baseline depends on indexes: nested iteration probes the
//! inner block by index on the correlated column(s) ("accessed by index
//! rowid"). The baseline builds one [`HashIndex`] per probed block when it
//! prepares its plan; tables keep none.

use std::collections::HashMap;

use crate::tuple::{GroupKey, Tuple};

/// Hash index mapping a key (one or more columns) to the row ids holding it.
///
/// Rows whose key contains `NULL` are indexed under their key like any other
/// (grouping semantics); equality *probes* must skip NULL keys themselves,
/// since SQL equality never matches NULL. [`HashIndex::probe`] implements
/// that rule.
#[derive(Debug)]
pub struct HashIndex {
    map: HashMap<GroupKey, Vec<usize>>,
}

impl HashIndex {
    /// Build over `rows`, keyed by `key_cols`.
    pub fn build(rows: &[Tuple], key_cols: &[usize]) -> HashIndex {
        let mut map: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for (rid, row) in rows.iter().enumerate() {
            map.entry(GroupKey::from_tuple(row, key_cols))
                .or_default()
                .push(rid);
        }
        HashIndex { map }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn hash_index_probe() {
        let rows = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(1), Value::str("c")],
            vec![Value::Null, Value::str("d")],
        ];
        let idx = HashIndex::build(&rows, &[0]);
        assert_eq!(idx.probe(&GroupKey(vec![Value::Int(1)])), &[0, 2]);
        assert_eq!(idx.probe(&GroupKey(vec![Value::Int(9)])), &[] as &[usize]);
        // NULL probe key matches nothing even though a NULL key is stored.
        assert_eq!(idx.probe(&GroupKey(vec![Value::Null])), &[] as &[usize]);
    }
}
