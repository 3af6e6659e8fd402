//! Algorithm 1 — the original nested relational approach (paper §4.1).
//!
//! The query is unnested *top-down*: walking the query-block tree
//! depth-first, each block's reduced relation `T_i` is attached to the
//! accumulated relation with a left outer hash join on the block's
//! correlated predicates (or a virtual Cartesian product when there is no
//! correlation). On the way back *up*, each linking predicate is computed
//! by a nest followed by a linking selection:
//!
//! ```text
//! rel = rel ⟕_Cij T_i          -- down
//! rel = compute(child, rel)    -- recurse
//! rel = υ_{N1},{N2}(rel)       -- up: nest by everything but T_i's columns
//! rel = σ_Li(rel) or σ̄_Li(rel) -- linking selection, project back to N1
//! ```
//!
//! Two implementation details the paper spells out:
//!
//! * **Synthesized row ids.** Every `T_i` gets a non-null `__bi.rid`
//!   column playing the role of the paper's carried primary keys: after an
//!   outer join, a `NULL` rid identifies padding, which is how empty sets
//!   are distinguished from sets containing real `NULL`s (Example 1).
//! * **σ vs σ̄.** A pseudo-selection is used whenever a linking predicate
//!   that still remains to be computed is negative; the plain selection is
//!   used at the root (its links are final `WHERE` conjuncts) and when all
//!   remaining links are positive (§4.1, discussion after Example 2).
//!
//! This module holds the operator bodies those steps run as plan nodes
//! ([`crate::plan`] builds the tree): [`prepare_base`], `outer_join`,
//! `append_link_columns` and `nest_link` — the last either two-pass
//! (materialize the nested relation, then select: the paper's "original"
//! variant) or fused into the nest's group scan (§4.2.2, the "optimized"
//! variant).

pub use nra_engine::planning::rid_column;
use nra_engine::planning::{block_base, split_join_conds};
use nra_engine::{join, CExpr, EngineError, JoinKind, JoinSpec};
use nra_sql::{BExpr, BoundQuery, QueryBlock, SubqueryEdge};
use nra_storage::{Catalog, Column, ColumnType, Relation, Schema};

use crate::linking::LinkSelection;
use crate::nest::nest_sort_idx;
use crate::optimize::fused::{fused_nest_select, FusedLink};
pub use crate::plan::edge_selection;

/// Name of the materialized linked-value column for block `id` (used when
/// the subquery's select item is a computed expression).
pub fn lval_column(id: usize) -> String {
    format!("__b{id}.lval")
}

/// Name of the materialized linking-attribute column (used when the outer
/// side of a linking predicate is a computed expression). Owned by the
/// parent block `parent` so it lands among the nesting attributes.
pub fn oval_column(parent: usize, child: usize) -> String {
    format!("__b{parent}.oval{child}")
}

/// Build `T_i` for a block: the carried columns of the rows passing the
/// local predicates, with the synthesized rid appended.
pub fn prepare_base(block: &QueryBlock, catalog: &Catalog) -> Result<Relation, EngineError> {
    block_base(block, catalog, true)
}

/// `left ⟕ right` on `child`'s correlated predicates — an unconditional
/// left outer join (every pair matches) when the subquery is not
/// correlated: the paper's "virtual Cartesian product".
pub(crate) fn outer_join(
    left: &Relation,
    right: &Relation,
    child: &QueryBlock,
) -> Result<Relation, EngineError> {
    let split = split_join_conds(&child.correlated_preds, left.schema(), right.schema())?;
    join(
        left,
        right,
        &JoinSpec::new(JoinKind::LeftOuter, split.eq, split.residual),
    )
}

/// Append a computed column to a relation (consumed: every row it
/// already owns is extended in place).
pub fn append_computed(rel: Relation, name: &str, expr: &BExpr) -> Result<Relation, EngineError> {
    let compiled = CExpr::compile(expr, rel.schema())?;
    let mut schema_cols = rel.schema().columns().to_vec();
    // The computed value's type is not statically known in this small type
    // system; declare Int-compatible and rely on unchecked pushes (the
    // column only feeds comparisons, which are dynamically typed).
    schema_cols.push(Column::new(name.to_string(), ColumnType::Int));
    let mut rows = rel.into_rows();
    for row in &mut rows {
        let value = compiled.eval(row);
        row.push(value);
    }
    Ok(Relation::with_rows(Schema::new(schema_cols), rows))
}

/// For each edge (keyed by child block id): must the linking selection be a
/// pseudo-selection?
///
/// Links are computed bottom-up in post-order; an edge needs σ̄ when any
/// link computed *after* it is negative — except edges at the root, whose
/// links are final `WHERE` conjuncts and can always discard.
pub fn edge_modes(query: &BoundQuery) -> std::collections::HashMap<usize, bool> {
    let mut postorder: Vec<(usize, bool, bool)> = Vec::new(); // (child id, positive, parent_is_root)
    fn walk(block: &QueryBlock, root_id: usize, out: &mut Vec<(usize, bool, bool)>) {
        for edge in &block.children {
            walk(&edge.block, root_id, out);
            out.push((edge.block.id, edge.link.is_positive(), block.id == root_id));
        }
    }
    walk(&query.root, query.root.id, &mut postorder);
    let mut modes = std::collections::HashMap::new();
    for (i, &(id, _, parent_is_root)) in postorder.iter().enumerate() {
        let later_negative = postorder[i + 1..].iter().any(|&(_, pos, _)| !pos);
        modes.insert(id, !parent_is_root && later_negative);
    }
    modes
}

/// Columns of `schema` owned by `block` (its exposed qualifiers plus its
/// synthesized `__b{id}.*` columns).
pub fn owned_columns(schema: &Schema, block: &QueryBlock) -> Vec<usize> {
    let synth = format!("__b{}", block.id);
    schema
        .columns()
        .iter()
        .enumerate()
        .filter(|(_, c)| match c.qualifier() {
            Some(q) => q == synth || block.tables.iter().any(|t| t.exposed == q),
            None => false,
        })
        .map(|(i, _)| i)
        .collect()
}

/// The linking (outer) and linked (inner) column names of the edge from
/// block `parent`: the bare column when the expression is one, else the
/// column `append_link_columns` materializes it into.
pub(crate) fn link_names(parent: usize, edge: &SubqueryEdge) -> (Option<String>, Option<String>) {
    let name = |expr: &Option<BExpr>, computed: &dyn Fn() -> String| {
        (expr.as_ref()).map(|e| e.as_column().map_or_else(computed, str::to_string))
    };
    (
        name(&edge.outer_expr, &|| oval_column(parent, edge.block.id)),
        name(&edge.inner_expr, &|| lval_column(edge.block.id)),
    )
}

/// Materialize the edge's computed linking (`outer`) and linked (`inner`)
/// expressions as columns of `rel`.
pub(crate) fn append_link_columns(
    mut rel: Relation,
    parent: usize,
    edge: &SubqueryEdge,
    outer: bool,
    inner: bool,
) -> Result<Relation, EngineError> {
    if let Some(expr) = edge.outer_expr.as_ref().filter(|_| outer) {
        rel = append_computed(rel, &oval_column(parent, edge.block.id), expr)?;
    }
    if let Some(expr) = edge.inner_expr.as_ref().filter(|_| inner) {
        rel = append_computed(rel, &lval_column(edge.block.id), expr)?;
    }
    Ok(rel)
}

/// υ + linking selection for the edge from `parent` to `child`: nest by
/// everything that is not the child's, then σ — or σ̄ with `pseudo`,
/// padding `parent`'s columns — either as two passes over a materialized
/// nested relation or fused into the nest's group scan.
pub(crate) fn nest_link(
    rel: Relation,
    parent: &QueryBlock,
    child: &QueryBlock,
    selection: &LinkSelection,
    pseudo: bool,
    fused: bool,
) -> Result<Relation, EngineError> {
    let n2 = owned_columns(rel.schema(), child);
    let n1: Vec<usize> = (0..rel.schema().len())
        .filter(|i| !n2.contains(i))
        .collect();
    if fused {
        let pad = match pseudo {
            true => owned_columns(&rel.schema().project(&n1), parent),
            false => Vec::new(),
        };
        let link = FusedLink::from_selection(selection, rel.schema())?;
        return fused_nest_select(rel, &n1, link, pseudo, &pad);
    }
    let nested = nest_sort_idx(&rel, &n1, &n2, "sub")?;
    let selected = if pseudo {
        let own = owned_columns(&nested.schema.atom_schema(), parent);
        let pad: Vec<&str> = (own.iter())
            .map(|&i| nested.schema.atoms[i].name.as_str())
            .collect();
        selection.pseudo_select(&nested, "sub", &pad)?
    } else {
        selection.select(&nested, "sub")?
    };
    Ok(selected.atoms_as_relation())
}
