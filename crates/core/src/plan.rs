//! Physical plans: every strategy is a *builder* that compiles a bound
//! query into one [`PhysPlan`] before anything runs, and one interpreter,
//! [`run`], executes it. The paper writes every variant — Algorithm 1,
//! the §4.2 cascade, bottom-up, push-down, the positive rewrite — as an
//! expression over one operator set (⟕, υ, σ, σ̄); the `Node` kinds are
//! that set plus the scan and the final projection, and each node's body
//! is an operator function that consumes its inputs (DESIGN.md §3.2 maps
//! node to body).
//!
//! [`Strategy::Auto`] tries the builders in order — positive rewrite, then
//! push-down, then the optimized cascade — and builds the first whose
//! applicability condition holds; each one it passes over is recorded in
//! the plan with the condition that failed. A forced strategy whose
//! condition fails returns `Unsupported` with that reason. Nothing is
//! decided while a plan runs, and this is the only module of the crate
//! that constructs `Unsupported`.

use std::collections::HashMap;
use std::sync::Arc;

use nra_engine::baseline::unnest::execute_positive;
use nra_engine::planning::project_select;
use nra_engine::EngineError;
use nra_obs::trace::{self, TraceEvent};
use nra_sql::{BExpr, BoundQuery, LinkOp, QueryBlock, SubqueryEdge};
use nra_storage::{Catalog, CmpOp, Relation};

use crate::compute::{
    append_link_columns, edge_modes, link_names, nest_link, outer_join, prepare_base,
};
use crate::linking::{LinkSelection, SetQuant};
use crate::optimize::{linear, pipeline};
use crate::planner::{emit_decision, Strategy};
use crate::tree_expr::TreeExpr;

/// A compiled query: the strategy that built it, the alternatives it
/// rejected on the way, and the operator tree [`run`] interprets.
#[derive(Debug)]
pub struct PhysPlan {
    query: Arc<BoundQuery>,
    strategy: Strategy,
    /// Built for a strategy the caller named, not by [`Strategy::Auto`].
    forced: bool,
    rejected: Vec<(Strategy, Refusal)>,
    rewrite: Option<Rewrite>,
    root: Node,
}

/// One operator of a [`PhysPlan`]. Blocks are named by id (the paper's
/// `T_i` subscript); an edge by the id of the block it leads to.
#[derive(Debug)]
pub(crate) enum Node {
    /// `T_i`: the block's carry list plus its rid.
    Scan { block: usize },
    /// `left ⟕ right` on block `child`'s correlated predicates. A
    /// bottom-up plan reduces `right` (the subquery) before scanning
    /// `left`.
    OuterJoin {
        left: Box<Node>,
        right: Box<Node>,
        child: usize,
        right_first: bool,
    },
    /// Materialize the edge's computed linking (`outer`) and linked
    /// (`inner`) expressions as columns.
    LinkColumns {
        input: Box<Node>,
        child: usize,
        outer: bool,
        inner: bool,
    },
    /// υ by everything but the child's columns, then σ (or σ̄ when
    /// `pseudo`); `fused` folds the selection into the nest's group scan.
    NestLink {
        input: Box<Node>,
        child: usize,
        selection: LinkSelection,
        pseudo: bool,
        fused: bool,
    },
    /// Sort once by the rid chain, then evaluate every level's link in
    /// one pipelined group scan (§4.2.1–§4.2.2).
    Cascade {
        input: Box<Node>,
        levels: Vec<CascadeLevel>,
    },
    /// Group the reduced `child` by its equality correlation key and
    /// probe it once per `parent` row (§4.2.4). `keys` pairs a parent
    /// column with a child column.
    NestProbe {
        parent: Box<Node>,
        child: Box<Node>,
        edge: usize,
        keys: Vec<(String, String)>,
        selection: LinkSelection,
    },
    /// A reduced child cut down to the columns its parent level reads.
    Shrink { input: Box<Node>, child: usize },
    /// The whole query as a cascade of (generalized) semijoins, projected.
    SemijoinCascade,
    /// The root block's `SELECT` list.
    Project { input: Box<Node> },
}

/// One level of a [`Node::Cascade`]: the link from block `parent` to
/// block `child`.
#[derive(Debug)]
pub(crate) struct CascadeLevel {
    pub(crate) parent: usize,
    pub(crate) child: usize,
    pub(crate) selection: LinkSelection,
    pub(crate) pseudo: bool,
}

/// The §4.2 rewrite a plan embodies, reported as a trace `RewriteStep`.
#[derive(Debug, Clone, Copy)]
enum Rewrite {
    FuseNestSelect,
    SingleSortCascade,
    NestPastJoin,
    PositiveSemijoin,
}

impl Rewrite {
    fn event(self, query: &BoundQuery) -> TraceEvent {
        let tree = TreeExpr::build(query);
        let (rule, after) = match self {
            // Each separate υ-then-σ pair becomes one fused operator.
            Rewrite::FuseNestSelect => (
                "fuse-nest-select",
                tree.op_count() - (tree.node_count() - 1),
            ),
            // Per-level υ + σ pairs collapse into one physical sort plus
            // per-level selections folded into the group scan.
            Rewrite::SingleSortCascade => {
                let n = query.root.block_count();
                ("single-sort-cascade", 2 + n + 2 * (n - 1))
            }
            // Same operator count, but the nest runs on the smaller,
            // pre-join input.
            Rewrite::NestPastJoin => ("nest-past-join", tree.op_count()),
            // Every ⟕ + υ + σ triple collapses into one semijoin.
            Rewrite::PositiveSemijoin => ("positive-semijoin-rewrite", 2 * tree.node_count()),
        };
        TraceEvent::RewriteStep {
            rule: rule.to_string(),
            nodes_before: tree.op_count(),
            nodes_after: after,
        }
    }
}

impl PhysPlan {
    /// The strategy whose builder produced the plan (for `Auto`, the one
    /// it chose).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    pub fn query(&self) -> &Arc<BoundQuery> {
        &self.query
    }

    /// Strategies passed over at plan time, with why, in the order tried.
    pub fn rejected(&self) -> Vec<(Strategy, String)> {
        describe(&self.rejected, &self.query)
    }
}

/// Compile `query` with `strategy`'s builder (for [`Strategy::Auto`], the
/// first builder that applies). A strategy whose applicability condition
/// the query fails returns `Unsupported`.
pub fn build(query: Arc<BoundQuery>, strategy: Strategy) -> Result<PhysPlan, EngineError> {
    let mut rejected = Vec::new();
    let chosen = resolve(&query, strategy, &mut rejected)?;
    let (rewrite, root) = construct(&query, chosen)?;
    Ok(PhysPlan {
        query,
        strategy: chosen,
        forced: strategy != Strategy::Auto,
        rejected,
        rewrite,
        root,
    })
}

/// Execute a plan: log its decision and rewrite (when tracing), then
/// interpret the operator tree.
pub fn run(plan: &PhysPlan, catalog: &Catalog) -> Result<Relation, EngineError> {
    if trace::enabled() {
        {
            let _plan = trace::phase(|| "plan".to_string());
            emit_decision(&plan.query, plan.strategy, &plan.rejected(), plan.forced);
        }
        if let Some(rewrite) = plan.rewrite {
            trace::emit(|| rewrite.event(&plan.query));
        }
    }
    eval(&plan.root, &plan.query, catalog)
}

/// Build, then run.
pub fn execute(
    query: &BoundQuery,
    catalog: &Catalog,
    strategy: Strategy,
) -> Result<Relation, EngineError> {
    run(&build(Arc::new(query.clone()), strategy)?, catalog)
}

/// Why a strategy's builder cannot plan a query: the §4.2 applicability
/// condition it fails. A plan keeps these as data and renders them only
/// when they are read.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    Flat,
    Negative,
    Tree,
    NonAdjacent,
    Uncorrelated(usize),
    NotEquality(usize),
}

impl Refusal {
    /// Why `strategy` cannot plan `query`, if it cannot.
    fn of(query: &BoundQuery, strategy: Strategy) -> Option<Refusal> {
        match strategy {
            // §4.2.5: every linking operator positive, and at least one.
            Strategy::PositiveRewrite if query.root.block_count() == 1 => Some(Refusal::Flat),
            Strategy::PositiveRewrite => (!query.all_links_positive()).then_some(Refusal::Negative),
            // §4.2.3: a linear correlated query.
            Strategy::BottomUp if query.is_linear_correlated() => None,
            Strategy::BottomUp if !query.root.is_linear() => Some(Refusal::Tree),
            Strategy::BottomUp => Some(Refusal::NonAdjacent),
            // §4.2.4: besides, every edge's correlation is an equality.
            Strategy::BottomUpPushdown => Refusal::of(query, Strategy::BottomUp).or_else(|| {
                let (_, edge) =
                    spine(query).find(|(p, e)| equality_keys(query, p.id, &e.block).is_none())?;
                let child = edge.block.id;
                Some(match edge.block.correlated_preds.is_empty() {
                    true => Refusal::Uncorrelated(child),
                    false => Refusal::NotEquality(child),
                })
            }),
            _ => None,
        }
    }

    fn describe(self, query: &BoundQuery) -> String {
        match self {
            Refusal::Flat => "flat query: no linking operators to rewrite".to_string(),
            Refusal::Negative => {
                let negative: Vec<String> = (query.link_ops().iter())
                    .filter(|op| op.is_negative())
                    .map(|op| format!("`{}`", op.describe()))
                    .collect();
                format!(
                    "negative linking operator(s) {} need NULL-aware set semantics a \
                     semijoin discards",
                    negative.join(", ")
                )
            }
            Refusal::Tree => "tree query: a block nests more than one subquery, so there is \
                              no single chain to reduce bottom-up"
                .to_string(),
            Refusal::NonAdjacent => "correlated predicates reference a non-adjacent outer \
                                     block, so inner blocks cannot be reduced before their \
                                     ancestors"
                .to_string(),
            Refusal::Uncorrelated(child) => format!(
                "b{child} is uncorrelated: there is no equality key to nest it by below the \
                 join (§4.2.4), so it reduces bottom-up (§4.2.3)"
            ),
            Refusal::NotEquality(child) => format!(
                "b{child}'s correlation is not an equality on its adjacent outer block, so the \
                 nest cannot commute past the join (§4.2.4); it reduces bottom-up (§4.2.3)"
            ),
        }
    }
}

fn describe(rejected: &[(Strategy, Refusal)], query: &BoundQuery) -> Vec<(Strategy, String)> {
    (rejected.iter())
        .map(|&(strategy, why)| (strategy, why.describe(query)))
        .collect()
}

/// The strategy whose builder runs for `requested`, recording every
/// refusal on the way: `Auto` takes the first of the positive rewrite and
/// the push-down that applies, else the optimized cascade, and a
/// push-down refused for an edge's correlation yields bottom-up.
fn resolve(
    query: &BoundQuery,
    requested: Strategy,
    rejected: &mut Vec<(Strategy, Refusal)>,
) -> Result<Strategy, EngineError> {
    let auto = [
        Strategy::PositiveRewrite,
        Strategy::BottomUpPushdown,
        Strategy::Optimized,
    ];
    let candidates = match requested {
        Strategy::Auto => &auto[..],
        _ => std::slice::from_ref(&requested),
    };
    for &strategy in candidates {
        match Refusal::of(query, strategy) {
            None => return Ok(strategy),
            Some(why @ (Refusal::Uncorrelated(_) | Refusal::NotEquality(_))) => {
                rejected.push((strategy, why));
                return Ok(Strategy::BottomUp);
            }
            Some(why) if requested == Strategy::Auto => rejected.push((strategy, why)),
            Some(why) => return Err(EngineError::unsupported(why.describe(query))),
        }
    }
    unreachable!("the optimized cascade applies to every query")
}

/// The strategy [`Strategy::Auto`] builds for `query`, with the
/// alternatives it rejected.
pub(crate) fn auto(query: &BoundQuery) -> (Strategy, Vec<(Strategy, String)>) {
    let mut rejected = Vec::new();
    let chosen = resolve(query, Strategy::Auto, &mut rejected)
        .expect("`Auto` always reaches the optimized cascade");
    (chosen, describe(&rejected, query))
}

/// Run the builder of `strategy`: the plan's root and the §4.2 rewrite it
/// embodies.
fn construct(
    query: &BoundQuery,
    strategy: Strategy,
) -> Result<(Option<Rewrite>, Node), EngineError> {
    let project = |input| Node::Project {
        input: Box::new(input),
    };
    Ok(match strategy {
        Strategy::Auto => unreachable!("resolved before building"),
        Strategy::Original => (None, project(algorithm1(query, false)?)),
        Strategy::Optimized if !query.root.is_linear() => (
            Some(Rewrite::FuseNestSelect),
            project(algorithm1(query, true)?),
        ),
        // A flat query has no levels: it is scanned and projected.
        Strategy::Optimized => match cascade_levels(query)? {
            levels if levels.is_empty() => (None, project(joins(query))),
            levels => {
                let input =
                    spine(query).fold(joins(query), |rel, (_, e)| link_columns(rel, e, true, true));
                let input = Box::new(input);
                let cascade = Node::Cascade { input, levels };
                (Some(Rewrite::SingleSortCascade), project(cascade))
            }
        },
        Strategy::BottomUp => (None, project(bottom_up(query)?)),
        Strategy::BottomUpPushdown => (
            (query.root.block_count() > 1).then_some(Rewrite::NestPastJoin),
            project(pushdown(query)?),
        ),
        Strategy::PositiveRewrite => (Some(Rewrite::PositiveSemijoin), Node::SemijoinCascade),
    })
}

/// The spine of a linear query: each block with the edge to its one
/// subquery, root first.
pub(crate) fn spine(query: &BoundQuery) -> impl Iterator<Item = (&QueryBlock, &SubqueryEdge)> {
    let first = query.root.children.first().map(|e| (&query.root, e));
    std::iter::successors(first, |(_, e)| {
        e.block.children.first().map(|c| (&e.block, c))
    })
}

/// The block with id `id`.
pub(crate) fn block(query: &BoundQuery, id: usize) -> &QueryBlock {
    if id == query.root.id {
        &query.root
    } else {
        &edge(query, id).1.block
    }
}

/// The edge leading to block `child`, with the block it hangs off.
pub(crate) fn edge(query: &BoundQuery, child: usize) -> (&QueryBlock, &SubqueryEdge) {
    fn find(block: &QueryBlock, child: usize) -> Option<(&QueryBlock, &SubqueryEdge)> {
        (block.children.iter()).find_map(|e| match e.block.id == child {
            true => Some((block, e)),
            false => find(&e.block, child),
        })
    }
    find(&query.root, child).expect("plan nodes name blocks of their own query")
}

fn scan(block: &QueryBlock) -> Box<Node> {
    Box::new(Node::Scan { block: block.id })
}

/// Wrap `input` in a [`Node::LinkColumns`] when the edge has a computed
/// expression on a requested side.
fn link_columns(input: Node, edge: &SubqueryEdge, outer: bool, inner: bool) -> Node {
    let computed = |e: &Option<BExpr>| e.as_ref().is_some_and(|e| e.as_column().is_none());
    let outer = outer && computed(&edge.outer_expr);
    let inner = inner && computed(&edge.inner_expr);
    if !(outer || inner) {
        return input;
    }
    Node::LinkColumns {
        input: Box::new(input),
        child: edge.block.id,
        outer,
        inner,
    }
}

/// The [`LinkSelection`] an edge's υ + σ evaluates, over the columns
/// [`link_names`] names.
fn selection(parent: &QueryBlock, edge: &SubqueryEdge) -> Result<LinkSelection, EngineError> {
    let (outer, inner) = link_names(parent.id, edge);
    edge_selection(edge, outer.as_deref(), inner.as_deref())
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
    let marker = crate::compute::rid_column(edge.block.id);
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

/// Algorithm 1 (§4.1): top-down, each subquery's scan is outer joined
/// on; bottom-up, each link is computed by υ + σ (σ̄ where a negative
/// link remains to be computed).
fn algorithm1(query: &BoundQuery, fused: bool) -> Result<Node, EngineError> {
    fn attach(
        block: &QueryBlock,
        mut rel: Node,
        modes: &HashMap<usize, bool>,
        fused: bool,
    ) -> Result<Node, EngineError> {
        for edge in &block.children {
            let child = edge.block.id;
            rel = Node::OuterJoin {
                left: Box::new(rel),
                right: scan(&edge.block),
                child,
                right_first: false,
            };
            rel = attach(&edge.block, rel, modes, fused)?;
            rel = Node::NestLink {
                input: Box::new(link_columns(rel, edge, true, true)),
                child,
                selection: selection(block, edge)?,
                pseudo: modes[&child],
                fused,
            };
        }
        Ok(rel)
    }
    let modes = edge_modes(query);
    attach(&query.root, *scan(&query.root), &modes, fused)
}

/// The unnesting outer joins of a linear query, root first: the flat
/// intermediate result of the §4.2.1 cascade.
pub(crate) fn joins(query: &BoundQuery) -> Node {
    spine(query).fold(*scan(&query.root), |rel, (_, edge)| Node::OuterJoin {
        left: Box::new(rel),
        right: scan(&edge.block),
        child: edge.block.id,
        right_first: false,
    })
}

fn cascade_levels(query: &BoundQuery) -> Result<Vec<CascadeLevel>, EngineError> {
    let modes = edge_modes(query);
    spine(query)
        .map(|(parent, edge)| {
            Ok(CascadeLevel {
                parent: parent.id,
                child: edge.block.id,
                selection: selection(parent, edge)?,
                pseudo: modes[&edge.block.id],
            })
        })
        .collect()
}

/// Fold the spine of a linear correlated query (`resolve` checked it is
/// one) innermost block first: `level` attaches block `parent` to the
/// reduced relation of its child.
fn reduce_bottom_up(
    query: &BoundQuery,
    level: impl Fn(Node, &QueryBlock, &SubqueryEdge) -> Result<Node, EngineError>,
) -> Result<Node, EngineError> {
    let chain: Vec<_> = spine(query).collect();
    let deepest = chain.last().map_or(&query.root, |(_, e)| &e.block);
    (chain.iter().rev()).try_fold(*scan(deepest), |reduced, &(parent, edge)| {
        level(reduced, parent, edge)
    })
}

/// §4.2.3: each level outer joins its block's scan to the reduced child
/// and keeps the passing parents with a plain σ — the next level's outer
/// join re-creates the empty-set padding.
fn bottom_up(query: &BoundQuery) -> Result<Node, EngineError> {
    reduce_bottom_up(query, |reduced, parent, edge| {
        let child = edge.block.id;
        let joined = Node::OuterJoin {
            left: scan(parent),
            right: Box::new(Node::Shrink {
                input: Box::new(reduced),
                child,
            }),
            child,
            right_first: true,
        };
        Ok(Node::NestLink {
            input: Box::new(link_columns(joined, edge, true, true)),
            child,
            selection: selection(parent, edge)?,
            pseudo: false,
            fused: true,
        })
    })
}

/// §4.2.4: the bottom-up chain with every nest pushed below its join,
/// which needs each edge's correlation to be an equality on its adjacent
/// block (the nesting attribute must be the join attribute).
fn pushdown(query: &BoundQuery) -> Result<Node, EngineError> {
    reduce_bottom_up(query, |reduced, parent, edge| {
        Ok(Node::NestProbe {
            keys: equality_keys(query, parent.id, &edge.block)
                .expect("the push-down applies only when every edge has equality keys"),
            parent: Box::new(link_columns(*scan(parent), edge, true, false)),
            child: Box::new(link_columns(reduced, edge, false, true)),
            edge: edge.block.id,
            selection: selection(parent, edge)?,
        })
    })
}

/// `(parent column, child column)` pairs when every correlated predicate
/// of `block` equates one of its columns with one of `parent`'s (and
/// there is at least one).
fn equality_keys(
    query: &BoundQuery,
    parent: usize,
    block: &QueryBlock,
) -> Option<Vec<(String, String)>> {
    let owner = |col: &str| query.owner_block(col);
    let keys: Option<Vec<_>> = (block.correlated_preds.iter())
        .map(|pred| match pred.as_column_cmp()? {
            (a, CmpOp::Eq, b) if owner(a) == Some(parent) && owner(b) == Some(block.id) => {
                Some((a.to_string(), b.to_string()))
            }
            (a, CmpOp::Eq, b) if owner(a) == Some(block.id) && owner(b) == Some(parent) => {
                Some((b.to_string(), a.to_string()))
            }
            _ => None,
        })
        .collect();
    keys.filter(|keys| !keys.is_empty())
}

/// The interpreter: inputs first, then the node's own operator under its
/// block's profile scope (`b{id}/…`; the root block has none). Every
/// body consumes its inputs.
pub(crate) fn eval(
    node: &Node,
    query: &BoundQuery,
    catalog: &Catalog,
) -> Result<Relation, EngineError> {
    let scope = |id: usize| (id != query.root.id).then(|| nra_obs::scope(|| format!("b{id}")));
    let run = |node: &Node| eval(node, query, catalog);
    Ok(match node {
        Node::Scan { block: id } => {
            let _sc = scope(*id);
            prepare_base(block(query, *id), catalog)?
        }
        Node::OuterJoin {
            left,
            right,
            child,
            right_first,
        } => {
            let (left, right) = if *right_first {
                let right = run(right)?;
                (run(left)?, right)
            } else {
                (run(left)?, run(right)?)
            };
            let _sc = scope(*child);
            outer_join(&left, &right, block(query, *child))?
        }
        Node::LinkColumns {
            input,
            child,
            outer,
            inner,
        } => {
            let (parent, edge) = edge(query, *child);
            append_link_columns(run(input)?, parent.id, edge, *outer, *inner)?
        }
        Node::NestLink {
            input,
            child,
            selection,
            pseudo,
            fused,
        } => {
            let rel = run(input)?;
            let _sc = scope(*child);
            let (parent, edge) = edge(query, *child);
            nest_link(rel, parent, &edge.block, selection, *pseudo, *fused)?
        }
        Node::Cascade { input, levels } => pipeline::cascade(run(input)?, query, levels)?,
        Node::NestProbe {
            parent,
            child,
            edge,
            keys,
            selection,
        } => {
            let reduced = run(child)?;
            let rel = run(parent)?;
            let _sc = scope(*edge);
            linear::nest_probe(rel, reduced, keys, selection)?
        }
        Node::Shrink { input, child } => {
            let reduced = run(input)?;
            let _sc = scope(*child);
            linear::shrink_child(&reduced, edge(query, *child).1)
        }
        Node::SemijoinCascade => execute_positive(query, catalog)?,
        Node::Project { input } => project_select(run(input)?, &query.root, catalog)?,
    })
}
