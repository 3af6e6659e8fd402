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
//! The *nest style* is pluggable: [`NestStyle::TwoPass`] materializes the
//! nested relation and then selects (the paper's "original" variant);
//! [`NestStyle::Fused`] pipelines the linking selection into the nest's
//! group scan (the paper's "optimized" variant, §4.2.2). Both share this
//! driver; the single-sort cascade for linear queries lives in
//! [`crate::optimize::pipeline`].

pub use nra_engine::planning::rid_column;
use nra_engine::planning::{block_base, project_select, split_join_conds};
use nra_engine::{join, CExpr, EngineError, JoinKind, JoinSpec};
use nra_sql::{BExpr, BoundQuery, LinkOp, QueryBlock, SubqueryEdge};
use nra_storage::{Catalog, Column, ColumnType, Relation, Schema};

use crate::linking::{LinkSelection, SetQuant};
use crate::nest::nest_sort_idx;
use crate::optimize::fused::{fused_nest_select, FusedLink};

/// How nest + linking selection are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestStyle {
    /// Materialize the nested relation, then select: two passes over the
    /// intermediate result (the paper's original approach).
    TwoPass,
    /// Pipeline the linking selection into the nest: one pass (§4.2.2).
    Fused,
}

/// Execute with the original (two-pass) nest style.
pub fn execute_original(query: &BoundQuery, catalog: &Catalog) -> Result<Relation, EngineError> {
    execute_with_style(query, catalog, NestStyle::TwoPass)
}

/// Execute Algorithm 1 with the given nest style.
pub fn execute_with_style(
    query: &BoundQuery,
    catalog: &Catalog,
    style: NestStyle,
) -> Result<Relation, EngineError> {
    if style == NestStyle::Fused && query.root.block_count() > 1 {
        // §4.2.2: each separate υ-then-σ pair becomes one fused operator.
        nra_obs::trace::emit(|| {
            let tree = crate::tree_expr::TreeExpr::build(query);
            let edges = tree.node_count() - 1;
            nra_obs::trace::TraceEvent::RewriteStep {
                rule: "fuse-nest-select".to_string(),
                nodes_before: tree.op_count(),
                nodes_after: tree.op_count() - edges,
            }
        });
    }
    let modes = edge_modes(query);
    let ctx = Ctx {
        catalog,
        modes,
        style,
    };
    let rel = prepare_base(&query.root, catalog)?;
    let rel = compute(&ctx, &query.root, rel)?;
    project_select(rel, &query.root, catalog)
}

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

struct Ctx<'a> {
    catalog: &'a Catalog,
    modes: std::collections::HashMap<usize, bool>,
    style: NestStyle,
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

/// Resolve the linking attribute (outer) and linked attribute (inner)
/// columns for an edge, materializing computed expressions as extra
/// columns on `rel` when necessary. Returns the updated relation plus the
/// two column names.
pub(crate) fn resolve_link_columns(
    mut rel: Relation,
    parent: &QueryBlock,
    edge: &SubqueryEdge,
) -> Result<(Relation, Option<String>, Option<String>), EngineError> {
    let outer = match &edge.outer_expr {
        None => None,
        Some(BExpr::Col(c)) => Some(c.clone()),
        Some(expr) => {
            let name = oval_column(parent.id, edge.block.id);
            rel = append_computed(rel, &name, expr)?;
            Some(name)
        }
    };
    let inner = match &edge.inner_expr {
        None => None,
        Some(BExpr::Col(c)) => Some(c.clone()),
        Some(expr) => {
            let name = lval_column(edge.block.id);
            rel = append_computed(rel, &name, expr)?;
            Some(name)
        }
    };
    Ok((rel, outer, inner))
}

/// Build the [`LinkSelection`] for an edge.
pub fn edge_selection(
    edge: &SubqueryEdge,
    outer_col: Option<&str>,
    inner_col: Option<&str>,
) -> Result<LinkSelection, EngineError> {
    fn need<'a>(col: Option<&'a str>, what: &str) -> Result<&'a str, EngineError> {
        col.ok_or_else(|| {
            EngineError::unsupported(format!("{what} link without a linking attribute"))
        })
    }
    let marker = rid_column(edge.block.id);
    Ok(match edge.link {
        LinkOp::Exists => LinkSelection::not_empty(Some(&marker)),
        LinkOp::NotExists => LinkSelection::empty(Some(&marker)),
        LinkOp::Some(op) => LinkSelection::quant(
            need(outer_col, "SOME")?,
            op,
            SetQuant::Some,
            need(inner_col, "SOME")?,
            Some(&marker),
        ),
        LinkOp::All(op) => LinkSelection::quant(
            need(outer_col, "ALL")?,
            op,
            SetQuant::All,
            need(inner_col, "ALL")?,
            Some(&marker),
        ),
        LinkOp::Agg { op, func } => LinkSelection::agg(
            need(outer_col, "aggregate")?,
            op,
            func,
            inner_col, // None for COUNT(*)
            Some(&marker),
        ),
    })
}

/// The recursive body of Algorithm 1.
fn compute(ctx: &Ctx<'_>, block: &QueryBlock, mut rel: Relation) -> Result<Relation, EngineError> {
    for edge in &block.children {
        let _sc = nra_obs::scope(|| format!("b{}", edge.block.id));
        let child_rel = prepare_base(&edge.block, ctx.catalog)?;

        // Down: attach T_child with a left outer join on the correlated
        // predicates (an unconditional left outer join — every pair
        // matches — when the subquery is not correlated: the paper's
        // "virtual Cartesian product").
        let split = split_join_conds(
            &edge.block.correlated_preds,
            rel.schema(),
            child_rel.schema(),
        )?;
        rel = join(
            &rel,
            &child_rel,
            &JoinSpec::new(JoinKind::LeftOuter, split.eq, split.residual),
        )?;

        // Recurse: the child's own subqueries reduce `rel` back to
        // prefix ++ child columns.
        rel = compute(ctx, &edge.block, rel)?;

        // Up: materialize computed linking attributes if needed, nest by
        // everything that is not the child's, and apply the linking
        // selection.
        let (rel2, outer_col, inner_col) = resolve_link_columns(rel, block, edge)?;
        rel = rel2;

        let n2 = owned_columns(rel.schema(), &edge.block);
        let n1: Vec<usize> = (0..rel.schema().len())
            .filter(|i| !n2.contains(i))
            .collect();

        let selection = edge_selection(edge, outer_col.as_deref(), inner_col.as_deref())?;
        let use_pseudo = *ctx.modes.get(&edge.block.id).unwrap_or(&false);

        rel = match ctx.style {
            NestStyle::TwoPass => {
                let nested = nest_sort_idx(&rel, &n1, &n2, "sub")?;
                let selected = if use_pseudo {
                    let pad: Vec<&str> = {
                        let own = owned_columns(&nested.schema.atom_schema(), block);
                        own.iter()
                            .map(|&i| nested.schema.atoms[i].name.as_str())
                            .collect()
                    };
                    selection.pseudo_select(&nested, "sub", &pad)?
                } else {
                    selection.select(&nested, "sub")?
                };
                selected.atoms_as_relation()
            }
            NestStyle::Fused => {
                let pad = owned_columns(&rel.schema().project(&n1), block);
                let link = FusedLink::from_selection(&selection, rel.schema(), &n1)?;
                fused_nest_select(rel, &n1, link, use_pseudo, &pad)?
            }
        };
    }
    Ok(rel)
}
