//! Nested tuples and relations (paper Definition 2).

use std::fmt;

use nra_storage::{Relation, Schema, Tuple, Value};

use super::schema::NestedSchema;

/// A nested tuple: atom values plus one set of nested tuples per subschema.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedTuple {
    pub atoms: Vec<Value>,
    pub sets: Vec<Vec<NestedTuple>>,
}

impl NestedTuple {
    pub fn flat(atoms: Vec<Value>) -> NestedTuple {
        NestedTuple {
            atoms,
            sets: vec![],
        }
    }
}

/// A nested relation: a nested schema plus nested tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedRelation {
    pub schema: NestedSchema,
    pub tuples: Vec<NestedTuple>,
}

impl NestedRelation {
    pub fn new(schema: NestedSchema) -> NestedRelation {
        NestedRelation {
            schema,
            tuples: vec![],
        }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Project away every subschema, keeping the (flat) atoms. This is the
    /// projection the paper leaves implicit after each linking selection.
    pub fn atoms_as_relation(&self) -> Relation {
        let mut out = Relation::new(self.schema.atom_schema());
        for t in &self.tuples {
            out.push_unchecked(t.atoms.clone());
        }
        out
    }

    /// Nest this (possibly already nested) relation by a subset of its
    /// atoms: tuples are grouped by the `n1` atom values (grouping
    /// semantics — `NULL` matches `NULL`), and each group's remaining
    /// atoms *and existing subschemas* become the members of a new
    /// subschema named `sub`. The result is one level deeper — the
    /// "two consecutive nestings" of the paper's §4.2.1 produce exactly
    /// such a two-level nested relation.
    pub fn nest(&self, n1: &[&str], sub: &str) -> Option<NestedRelation> {
        use nra_storage::GroupKey;
        let n1_idx: Vec<usize> = n1
            .iter()
            .map(|name| self.schema.atom_index(name))
            .collect::<Option<_>>()?;
        let rest_idx: Vec<usize> = (0..self.schema.atoms.len())
            .filter(|i| !n1_idx.contains(i))
            .collect();

        let member_schema = NestedSchema {
            atoms: rest_idx
                .iter()
                .map(|&i| self.schema.atoms[i].clone())
                .collect(),
            subs: self.schema.subs.clone(),
        };
        let schema = NestedSchema {
            atoms: n1_idx
                .iter()
                .map(|&i| self.schema.atoms[i].clone())
                .collect(),
            subs: vec![(sub.to_string(), member_schema)],
        };

        // One output tuple per distinct key, in first-occurrence order;
        // the map holds each key's position and is probed with one
        // reused scratch key.
        let mut tuples: Vec<NestedTuple> = Vec::new();
        let mut position: nra_engine::vec::FxHashMap<GroupKey, usize> = Default::default();
        let mut key = GroupKey(Vec::with_capacity(n1_idx.len()));
        for t in &self.tuples {
            key.refill(&t.atoms, &n1_idx);
            let member = NestedTuple {
                atoms: rest_idx.iter().map(|&i| t.atoms[i].clone()).collect(),
                sets: t.sets.clone(),
            };
            match position.get(&key) {
                Some(&g) => tuples[g].sets[0].push(member),
                None => {
                    position.insert(key.clone(), tuples.len());
                    tuples.push(NestedTuple {
                        atoms: key.0.clone(),
                        sets: vec![vec![member]],
                    });
                }
            }
        }
        Some(NestedRelation { schema, tuples })
    }

    /// Unnest one subschema (the inverse of nest, Definition 3): each
    /// member of the set is spliced next to the atoms. Tuples with an
    /// *empty* set disappear — the classical lossy corner of unnest, which
    /// is precisely why the paper keeps primary keys around to distinguish
    /// empty sets after outer joins.
    pub fn unnest(&self, sub: &str) -> Option<NestedRelation> {
        let si = self.schema.sub_index(sub)?;
        let (_, sub_schema) = &self.schema.subs[si];
        if !sub_schema.subs.is_empty() {
            // Splicing a nested subschema would need schema surgery beyond
            // what the algorithms here use.
            return None;
        }
        let mut atoms = self.schema.atoms.clone();
        atoms.extend(sub_schema.atoms.iter().cloned());
        let mut subs = self.schema.subs.clone();
        subs.remove(si);
        let schema = NestedSchema { atoms, subs };
        let mut tuples = Vec::new();
        for t in &self.tuples {
            for member in &t.sets[si] {
                let mut row = t.atoms.clone();
                row.extend(member.atoms.iter().cloned());
                let mut sets = t.sets.clone();
                sets.remove(si);
                tuples.push(NestedTuple { atoms: row, sets });
            }
        }
        Some(NestedRelation { schema, tuples })
    }

    /// Fully flatten a depth-1 relation with a single subschema into a flat
    /// relation (convenience for tests).
    pub fn flatten(&self) -> Option<Relation> {
        if self.schema.subs.len() != 1 {
            return None;
        }
        let un = self.unnest(&self.schema.subs[0].0.clone())?;
        Some(un.atoms_as_relation())
    }

    /// Build a flat `Relation` where each set-valued attribute is rendered
    /// as its member tuples joined in braces (display/debug helper).
    pub fn display_relation(&self) -> Relation {
        let mut cols = self.schema.atoms.clone();
        for (name, _) in &self.schema.subs {
            cols.push(nra_storage::Column::new(
                format!("{{{name}}}"),
                nra_storage::ColumnType::Str,
            ));
        }
        let mut out = Relation::new(Schema::new(cols));
        for t in &self.tuples {
            let mut row: Tuple = t.atoms.clone();
            for set in &t.sets {
                let rendered: Vec<String> = set
                    .iter()
                    .map(|m| {
                        let vals: Vec<String> = m.atoms.iter().map(|v| v.to_string()).collect();
                        format!("({})", vals.join(","))
                    })
                    .collect();
                row.push(Value::str(format!("{{{}}}", rendered.join(", "))));
            }
            out.push_unchecked(row);
        }
        out
    }
}

impl fmt::Display for NestedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_relation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::{Column, ColumnType};

    fn one_level() -> NestedRelation {
        let schema = NestedSchema {
            atoms: vec![Column::new("r.a", ColumnType::Int)],
            subs: vec![(
                "sub".into(),
                NestedSchema {
                    atoms: vec![Column::new("s.b", ColumnType::Int)],
                    subs: vec![],
                },
            )],
        };
        NestedRelation {
            schema,
            tuples: vec![
                NestedTuple {
                    atoms: vec![Value::Int(1)],
                    sets: vec![vec![
                        NestedTuple::flat(vec![Value::Int(10)]),
                        NestedTuple::flat(vec![Value::Int(11)]),
                    ]],
                },
                NestedTuple {
                    atoms: vec![Value::Int(2)],
                    sets: vec![vec![]],
                },
            ],
        }
    }

    #[test]
    fn unnest_splices_and_drops_empty() {
        let r = one_level();
        let u = r.unnest("sub").unwrap();
        assert_eq!(u.schema.depth(), 0);
        assert_eq!(u.len(), 2, "a=2 has an empty set and disappears");
        assert_eq!(u.tuples[0].atoms, vec![Value::Int(1), Value::Int(10)]);
    }

    #[test]
    fn flatten_roundtrip() {
        let r = one_level();
        let flat = r.flatten().unwrap();
        assert_eq!(flat.schema().names(), vec!["r.a", "s.b"]);
        assert_eq!(flat.len(), 2);
    }

    #[test]
    fn atoms_as_relation_drops_sets() {
        let r = one_level();
        let a = r.atoms_as_relation();
        assert_eq!(a.schema().names(), vec!["r.a"]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn display_renders_sets() {
        let s = one_level().to_string();
        assert!(s.contains("{(10), (11)}"), "got: {s}");
        assert!(s.contains("{}"), "empty set rendered");
    }

    #[test]
    fn unnest_unknown_sub_is_none() {
        assert!(one_level().unnest("nope").is_none());
    }

    #[test]
    fn consecutive_nesting_builds_two_levels() {
        // The §4.2.1 observation: nesting a depth-1 relation by a prefix
        // of its atoms yields a depth-2 relation whose inner sets are
        // carried along untouched.
        use nra_storage::{relation, ColumnType};
        let flat: Relation = relation!(
            [
                ("r.a", ColumnType::Int),
                ("s.e", ColumnType::Int),
                ("t.j", ColumnType::Int)
            ],
            [
                [Value::Int(1), Value::Int(10), Value::Int(100)],
                [Value::Int(1), Value::Int(10), Value::Int(101)],
                [Value::Int(1), Value::Int(11), Value::Int(102)],
                [Value::Int(2), Value::Int(12), Value::Int(103)]
            ]
        );
        // First nest: by (r.a, s.e) keeping {t.j}.
        let depth1 = crate::nest::nest(&flat, &["r.a", "s.e"], &["t.j"], "tset").unwrap();
        assert_eq!(depth1.schema.depth(), 1);
        assert_eq!(depth1.len(), 3);
        // Second nest: by the prefix (r.a) — the paper's point: higher
        // levels nest by a prefix of the lower level's nesting attributes.
        let depth2 = depth1.nest(&["r.a"], "sset").unwrap();
        assert_eq!(depth2.schema.depth(), 2);
        assert_eq!(depth2.len(), 2);
        let g1 = &depth2.tuples[0];
        assert_eq!(g1.atoms, vec![Value::Int(1)]);
        assert_eq!(
            g1.sets[0].len(),
            2,
            "two distinct (s.e) members under r.a=1"
        );
        // The inner member (s.e=10) still carries its {t.j} set of size 2.
        let inner = &g1.sets[0][0];
        assert_eq!(inner.atoms, vec![Value::Int(10)]);
        assert_eq!(inner.sets[0].len(), 2);
    }

    #[test]
    fn nest_on_unknown_atom_is_none() {
        assert!(one_level().nest(&["nope"], "x").is_none());
    }
}
