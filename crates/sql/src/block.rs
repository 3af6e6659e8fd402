//! Query blocks and the linking-operator taxonomy of the paper's Section 2.
//!
//! A bound query is a tree of [`QueryBlock`]s, one per SQL query block,
//! connected by [`SubqueryEdge`]s carrying the *linking predicate* (the
//! predicate connecting an inner block to its outer block) and, inside each
//! inner block, the *correlated predicates* referencing outer blocks.

use std::collections::HashMap;

use nra_storage::{AggFunc, CmpOp};

use crate::ast::SetOpKind;
use crate::bound::{BExpr, BPred};

/// The linking operator between an outer and inner query block.
///
/// `IN` is bound as `= SOME` and `NOT IN` as `<> ALL`, the standard-SQL
/// equivalences the paper relies on (both preserve three-valued semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOp {
    /// `EXISTS q` — true iff the subquery result is non-empty.
    Exists,
    /// `NOT EXISTS q` — true iff the subquery result is empty.
    NotExists,
    /// `A θ SOME q` (also spelled `ANY`; `IN` is `= SOME`).
    Some(CmpOp),
    /// `A θ ALL q` (`NOT IN` is `<> ALL`).
    All(CmpOp),
    /// `A θ (SELECT agg(B) ...)` — the aggregate-subquery extension: the
    /// set is folded with `func` before the (scalar, three-valued)
    /// comparison.
    Agg { op: CmpOp, func: AggFunc },
}

impl LinkOp {
    /// The paper's classification: `EXISTS`, `SOME/ANY` and `IN` are
    /// *positive* linking operators; `NOT EXISTS`, `ALL` and `NOT IN` are
    /// *negative*.
    pub fn is_positive(self) -> bool {
        // Aggregate links are treated like negative operators: the empty
        // set matters (COUNT of zero compares meaningfully), so tuples
        // must not be discarded by plain semijoins.
        matches!(self, LinkOp::Exists | LinkOp::Some(_))
    }

    pub fn is_negative(self) -> bool {
        !self.is_positive()
    }

    /// Logical negation, exact in three-valued logic:
    /// `¬(A θ ALL q) ≡ A θ̄ SOME q` and dually, `¬EXISTS ≡ NOT EXISTS`.
    pub fn negate(self) -> LinkOp {
        match self {
            LinkOp::Exists => LinkOp::NotExists,
            LinkOp::NotExists => LinkOp::Exists,
            LinkOp::Some(op) => LinkOp::All(op.negate()),
            LinkOp::All(op) => LinkOp::Some(op.negate()),
            LinkOp::Agg { op, func } => LinkOp::Agg {
                op: op.negate(),
                func,
            },
        }
    }

    pub fn describe(self) -> String {
        match self {
            LinkOp::Exists => "exists".to_string(),
            LinkOp::NotExists => "not exists".to_string(),
            LinkOp::Some(op) => format!("{op} some"),
            LinkOp::All(op) => format!("{op} all"),
            LinkOp::Agg { op, func } => format!("{op} {}(...)", func.name()),
        }
    }
}

/// A `FROM`-clause table instance with its query-wide unique exposed name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTable {
    /// Base table name in the catalog.
    pub table: String,
    /// Unique qualifier used in all bound column names.
    pub exposed: String,
    /// The *carry list*: indices (ascending, into the base table's
    /// schema) of the columns something outside their block's own local
    /// predicates *compares or computes with* — any block's correlated
    /// predicates, the linking/linked expressions on any edge, computed
    /// `select` items. A block's scan evaluates `Δ_i` on the stored lanes
    /// and copies out only these; everything else never leaves the table.
    /// Recorded once by the binder, so it is cached with the plan.
    pub carry: Vec<usize>,
    /// Columns (ascending indices, disjoint from `carry`) mentioned *only*
    /// as bare items of the root `select`: left out of `T_1` and fetched
    /// by row id for the rows that survive. Non-empty only for a
    /// single-table root block; a multi-table block carries its selected
    /// columns like any other.
    pub select_only: Vec<usize>,
}

/// A subquery hanging off an outer block.
#[derive(Debug, Clone, PartialEq)]
pub struct SubqueryEdge {
    pub link: LinkOp,
    /// The linking attribute `A` of the outer block (`None` for
    /// `[NOT] EXISTS`).
    pub outer_expr: Option<BExpr>,
    /// The linked attribute `B`: the inner block's single select item
    /// (`None` for `[NOT] EXISTS`).
    pub inner_expr: Option<BExpr>,
    pub block: QueryBlock,
}

/// One SQL query block.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBlock {
    /// Depth-first preorder number, 1-based, matching the paper's `T_i`.
    pub id: usize,
    pub tables: Vec<BoundTable>,
    /// Projection of the outermost block (empty for inner blocks; inner
    /// select items live on the edge as `inner_expr`).
    pub select: Vec<(String, BExpr)>,
    /// Whether the (root) projection is `SELECT DISTINCT`.
    pub distinct: bool,
    /// `Δ_i`: conjuncts referencing only this block's tables.
    pub local_preds: Vec<BPred>,
    /// `C_ij`: conjuncts referencing at least one outer block's column.
    pub correlated_preds: Vec<BPred>,
    /// Subqueries in left-to-right order of appearance.
    pub children: Vec<SubqueryEdge>,
}

impl QueryBlock {
    /// Number of blocks in this subtree (including self).
    pub fn block_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| c.block.block_count())
            .sum::<usize>()
    }

    /// Nesting depth: 0 for a flat query (per the paper: a query whose
    /// subqueries are all flat is "one-level nested", etc.).
    pub fn nesting_depth(&self) -> usize {
        self.children
            .iter()
            .map(|c| 1 + c.block.nesting_depth())
            .max()
            .unwrap_or(0)
    }

    /// A *nested linear query*: at most one block nested within any block.
    pub fn is_linear(&self) -> bool {
        self.children.len() <= 1 && self.children.iter().all(|c| c.block.is_linear())
    }

    /// Visit each block depth-first, left-to-right (the paper's traversal
    /// order), with the edge leading to it (`None` at the root).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a QueryBlock, Option<&'a SubqueryEdge>)) {
        fn go<'a>(
            block: &'a QueryBlock,
            edge: Option<&'a SubqueryEdge>,
            f: &mut impl FnMut(&'a QueryBlock, Option<&'a SubqueryEdge>),
        ) {
            f(block, edge);
            for child in &block.children {
                go(&child.block, Some(child), f);
            }
        }
        go(self, None, f)
    }
}

/// A fully bound query.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    pub root: QueryBlock,
    /// Map from exposed qualifier to the id of the block owning it.
    pub qualifier_block: HashMap<String, usize>,
    pub num_blocks: usize,
}

impl BoundQuery {
    /// The id of the block owning a qualified column name.
    pub fn owner_block(&self, qualified: &str) -> Option<usize> {
        let (q, _) = qualified.rsplit_once('.')?;
        self.qualifier_block.get(q).copied()
    }

    /// A *linear correlated* query (paper §4.2.3): linear, and every inner
    /// block's correlated predicates reference only the adjacent outer
    /// block. Such queries can be evaluated bottom-up.
    pub fn is_linear_correlated(&self) -> bool {
        if !self.root.is_linear() {
            return false;
        }
        let mut ok = true;
        self.root.visit(&mut |block, edge| {
            if edge.is_none() {
                return;
            }
            // The adjacent outer block of block `i` (in a linear query,
            // ids are consecutive along the spine).
            let parent_id = block.id - 1;
            for pred in &block.correlated_preds {
                for col in pred.columns() {
                    if let Some(owner) = self.owner_block(col) {
                        if owner != block.id && owner != parent_id {
                            ok = false;
                        }
                    }
                }
            }
        });
        ok
    }

    /// Every linking operator in the query, in depth-first order.
    pub fn link_ops(&self) -> Vec<LinkOp> {
        let mut ops = Vec::new();
        self.root.visit(&mut |_, edge| {
            if let Some(e) = edge {
                ops.push(e.link);
            }
        });
        ops
    }

    /// Paper terminology: a query with both positive and negative linking
    /// operators has *mixed* linking operators.
    pub fn has_mixed_links(&self) -> bool {
        let ops = self.link_ops();
        ops.iter().any(|o| o.is_positive()) && ops.iter().any(|o| o.is_negative())
    }

    pub fn all_links_positive(&self) -> bool {
        self.link_ops().iter().all(|o| o.is_positive())
    }
}

/// A bound statement: every `SELECT` arm of a parsed
/// [`Query`](crate::Query), combined left to right by set operations,
/// sorted by output positions and cut to a limit.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundStatement {
    pub first: BoundQuery,
    /// `(operation, ALL, arm)` for every further arm, in order; each arm
    /// has the first arm's arity.
    pub compounds: Vec<(SetOpKind, bool, BoundQuery)>,
    /// `(output position, descending)` sort keys.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<usize>,
}

impl From<BoundQuery> for BoundStatement {
    /// One `SELECT` with no set operation, order or limit.
    fn from(first: BoundQuery) -> BoundStatement {
        BoundStatement {
            first,
            compounds: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_op_classification() {
        assert!(LinkOp::Exists.is_positive());
        assert!(LinkOp::Some(CmpOp::Gt).is_positive());
        assert!(LinkOp::NotExists.is_negative());
        assert!(LinkOp::All(CmpOp::Ne).is_negative());
    }

    #[test]
    fn link_op_negation() {
        assert_eq!(LinkOp::Exists.negate(), LinkOp::NotExists);
        assert_eq!(LinkOp::Some(CmpOp::Lt).negate(), LinkOp::All(CmpOp::Ge));
        assert_eq!(LinkOp::All(CmpOp::Eq).negate(), LinkOp::Some(CmpOp::Ne));
        for op in [
            LinkOp::Exists,
            LinkOp::NotExists,
            LinkOp::Some(CmpOp::Le),
            LinkOp::All(CmpOp::Gt),
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn describe_strings() {
        assert_eq!(LinkOp::Some(CmpOp::Eq).describe(), "= some");
        assert_eq!(LinkOp::NotExists.describe(), "not exists");
    }
}
