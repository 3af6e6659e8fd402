//! Nested schemas (paper Definition 1).

use nra_storage::{Column, Schema};

/// A nested relational schema: atomic attributes followed by named
/// subschemas. A flat schema is the special case with no subschemas
/// (depth 0); each level of subschema nesting adds one to the depth.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedSchema {
    pub atoms: Vec<Column>,
    pub subs: Vec<(String, NestedSchema)>,
}

impl NestedSchema {
    /// Depth per Definition 1: `0` for flat, `1 + max(depth of subs)`.
    pub fn depth(&self) -> usize {
        self.subs
            .iter()
            .map(|(_, s)| 1 + s.depth())
            .max()
            .unwrap_or(0)
    }

    /// Position of an atomic attribute by (qualified or bare) name.
    pub fn atom_index(&self, name: &str) -> Option<usize> {
        if let Some(i) = self.atoms.iter().position(|c| c.name == name) {
            return Some(i);
        }
        let matches: Vec<usize> = self
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, c)| c.base_name() == name)
            .map(|(i, _)| i)
            .collect();
        if matches.len() == 1 {
            Some(matches[0])
        } else {
            None
        }
    }

    /// Position of a subschema by name.
    pub fn sub_index(&self, name: &str) -> Option<usize> {
        self.subs.iter().position(|(n, _)| n == name)
    }

    /// The flat schema of the atoms.
    pub fn atom_schema(&self) -> Schema {
        Schema::new(self.atoms.clone())
    }

    /// Total count of atomic attributes at every nesting level.
    pub fn total_atoms(&self) -> usize {
        self.atoms.len()
            + self
                .subs
                .iter()
                .map(|(_, s)| s.total_atoms())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::ColumnType;

    fn flat(names: &[&str]) -> NestedSchema {
        NestedSchema {
            atoms: names
                .iter()
                .map(|n| Column::new(*n, ColumnType::Int))
                .collect(),
            subs: vec![],
        }
    }

    #[test]
    fn depth_counts_levels() {
        let d0 = flat(&["a"]);
        assert_eq!(d0.depth(), 0);
        let d1 = NestedSchema {
            atoms: vec![Column::new("a", ColumnType::Int)],
            subs: vec![("s".into(), flat(&["b"]))],
        };
        assert_eq!(d1.depth(), 1);
        let d2 = NestedSchema {
            atoms: vec![],
            subs: vec![("t".into(), d1.clone()), ("u".into(), flat(&["c"]))],
        };
        assert_eq!(d2.depth(), 2);
        assert_eq!(d2.total_atoms(), 3);
    }

    #[test]
    fn atom_index_by_qualified_and_bare() {
        let s = flat(&["r.a", "r.b", "s.b"]);
        assert_eq!(s.atom_index("r.a"), Some(0));
        assert_eq!(s.atom_index("a"), Some(0));
        assert_eq!(s.atom_index("b"), None, "ambiguous bare name");
        assert_eq!(s.atom_index("s.b"), Some(2));
    }
}
