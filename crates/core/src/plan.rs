//! Physical plans: a statement compiles into one [`PhysPlan`] before
//! anything runs, and one interpreter, [`run`], executes it. Each `SELECT`
//! arm is a subtree built by the requested engine's builder: a
//! nested-relational strategy compiles the arm into the paper's operator
//! set (⟕, υ, σ, σ̄ — Algorithm 1, the §4.2 cascade, bottom-up, push-down,
//! the positive rewrite — plus the scan and the final projection), and the
//! baseline and reference engines are one leaf each. Set-op nodes combine
//! the arms left to right, then sort and limit nodes finish the statement.
//! Each node's body is an operator function that consumes its inputs
//! (DESIGN.md §3.2 maps node to body).
//!
//! [`Strategy::Auto`] tries the builders in order — positive rewrite, then
//! push-down, then the optimized cascade — and builds the first whose
//! applicability condition holds; each one it passes over is recorded in
//! the plan with the condition that failed. A forced strategy whose
//! condition fails returns `Unsupported` with that reason. Nothing is
//! decided while a plan runs, and this is the only module of the crate
//! that constructs `Unsupported`. [`PhysPlan::render`] prints a plan.

use std::cmp::Ordering;
use std::collections::HashMap;

use nra_engine::baseline::unnest::execute_positive;
use nra_engine::ops::setops;
use nra_engine::planning::project_select;
use nra_engine::{baseline, reference, EngineError};
use nra_obs::{Decision, RewriteStep};
use nra_sql::{BExpr, BoundQuery, BoundStatement, LinkOp, QueryBlock, SetOpKind, SubqueryEdge};
use nra_storage::{Catalog, CmpOp, Relation};

use crate::cardinality::{estimate, CardEstimates};
use crate::compute::{
    append_link_columns, edge_modes, link_names, nest_link, outer_join, prepare_base,
};
use crate::linking::{LinkSelection, SetQuant};
use crate::optimize::{linear, pipeline};
use crate::planner::{decisions, Engine, Strategy};

mod render;
pub use render::node_stats;

/// A compiled statement: its `SELECT` arms and the set-op, sort and limit
/// nodes over them.
#[derive(Debug)]
pub struct PhysPlan {
    arms: Vec<Arm>,
    root: Step,
}

/// One `SELECT` arm: the builder that planned it, the alternatives it
/// rejected on the way, and the operator tree that evaluates it.
#[derive(Debug)]
struct Arm {
    query: BoundQuery,
    /// The engine whose builder produced the arm, `Auto` resolved to the
    /// strategy it chose.
    engine: Engine,
    /// Built for a strategy the caller named, not by [`Strategy::Auto`].
    forced: bool,
    rejected: Vec<(Strategy, Refusal)>,
    rewrite: Option<Rewrite>,
    root: Node,
}

/// A statement-level node.
#[derive(Debug)]
enum Step {
    /// Arm `i` (0-based).
    Arm(usize),
    /// `left op arm`, the body one of `ops::setops`.
    SetOp {
        left: Box<Step>,
        arm: usize,
        op: SetOpKind,
        all: bool,
    },
    /// `(output position, descending)` keys; ascending puts `NULL` first.
    Sort {
        input: Box<Step>,
        keys: Vec<(usize, bool)>,
    },
    Limit {
        input: Box<Step>,
        n: usize,
    },
}

/// One operator of an arm. Blocks are named by id (the paper's `T_i`
/// subscript); an edge by the id of the block it leads to.
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
    /// The whole arm through `baseline::execute`.
    Baseline,
    /// The whole arm through `reference::evaluate`.
    Reference,
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

/// The §4.2 rewrite a plan embodies (see [`RewriteStep`]).
#[derive(Debug, Clone, Copy)]
enum Rewrite {
    FuseNestSelect,
    SingleSortCascade,
    NestPastJoin,
    PositiveSemijoin,
}

impl Rewrite {
    /// The rewrite's effect as a delta against the Algorithm-1 pipeline of
    /// the query's `n` blocks: the root π, one base input per block, and
    /// σ + υ + ⟕ per edge.
    fn step(self, query: &BoundQuery) -> RewriteStep {
        let n = query.root.block_count();
        let before = 1 + n + 3 * (n - 1);
        let (rule, after) = match self {
            // Each separate υ-then-σ pair becomes one fused operator.
            Rewrite::FuseNestSelect => ("fuse-nest-select", before - (n - 1)),
            // Per-level υ + σ pairs collapse into one physical sort plus
            // per-level selections folded into the group scan.
            Rewrite::SingleSortCascade => ("single-sort-cascade", 2 + n + 2 * (n - 1)),
            // Same operator count, but the nest runs on the smaller,
            // pre-join input.
            Rewrite::NestPastJoin => ("nest-past-join", before),
            // Every ⟕ + υ + σ triple collapses into one semijoin.
            Rewrite::PositiveSemijoin => ("positive-semijoin-rewrite", 2 * n),
        };
        RewriteStep {
            rule,
            nodes_before: before,
            nodes_after: after,
        }
    }
}

impl PhysPlan {
    /// The engine whose builder planned the first arm, `Auto` resolved to
    /// the strategy it chose.
    pub fn engine(&self) -> Engine {
        self.arms[0].engine
    }

    /// The decision log of every arm, in arm order: why each block runs
    /// under its arm's strategy (a baseline arm: the plan family System A
    /// picks over `catalog`), and the §4.2 rewrite each arm's plan embodies.
    /// A reference arm decides nothing.
    pub fn decisions(&self, catalog: &Catalog) -> (Vec<Decision>, Vec<RewriteStep>) {
        let log = (self.arms.iter()).flat_map(|arm| match arm.engine {
            Engine::NestedRelational(strategy) => {
                let rejected = describe(&arm.rejected, &arm.query);
                decisions(&arm.query, strategy, &rejected, arm.forced)
            }
            Engine::Baseline => {
                let (name, reason, alternatives) = baseline::choice(&arm.query, catalog);
                let block = arm.query.root.id;
                vec![Decision {
                    block,
                    name,
                    reason,
                    alternatives,
                }]
            }
            Engine::Reference => Vec::new(),
        });
        let rewrites = self
            .arms
            .iter()
            .filter_map(|arm| Some(arm.rewrite?.step(&arm.query)));
        (log.collect(), rewrites.collect())
    }

    /// The planner's cardinality estimates under the keys the plan's
    /// lines read: each arm's, qualified by its arm label in a compound
    /// statement.
    pub fn estimate(&self, catalog: &Catalog) -> CardEstimates {
        if let [arm] = &self.arms[..] {
            return estimate(&arm.query, catalog);
        }
        let mut all = CardEstimates::default();
        for (i, arm) in self.arms.iter().enumerate() {
            for (key, est) in estimate(&arm.query, catalog).iter() {
                all.insert(format!("{}/{key}", arm_label(i)), est);
            }
        }
        all
    }

    /// Profile label of arm `i` in a compound statement; `None` for the
    /// one arm of a single `SELECT`, whose names stay unqualified.
    fn label(&self, i: usize) -> Option<String> {
        (self.arms.len() > 1).then(|| arm_label(i))
    }
}

fn arm_label(i: usize) -> String {
    format!("a{}", i + 1)
}

/// Plan every arm of `statement` with `engine`'s builder (for
/// [`Strategy::Auto`], per arm the first builder that applies), then the
/// set operations, sort and limit over them. A strategy whose
/// applicability condition an arm fails returns `Unsupported`.
pub fn build(statement: BoundStatement, engine: Engine) -> Result<PhysPlan, EngineError> {
    let mut arms = vec![plan_arm(statement.first, engine)?];
    let mut root = Step::Arm(0);
    for (op, all, query) in statement.compounds {
        arms.push(plan_arm(query, engine)?);
        let (left, arm) = (Box::new(root), arms.len() - 1);
        root = Step::SetOp { left, arm, op, all };
    }
    if !statement.order_by.is_empty() {
        let (input, keys) = (Box::new(root), statement.order_by);
        root = Step::Sort { input, keys };
    }
    if let Some(n) = statement.limit {
        let input = Box::new(root);
        root = Step::Limit { input, n };
    }
    Ok(PhysPlan { arms, root })
}

fn plan_arm(query: BoundQuery, engine: Engine) -> Result<Arm, EngineError> {
    let mut rejected = Vec::new();
    let (built, rewrite, root) = match engine {
        Engine::NestedRelational(strategy) => {
            let chosen = resolve(&query, strategy, &mut rejected)?;
            let (rewrite, root) = construct(&query, chosen)?;
            (Engine::NestedRelational(chosen), rewrite, root)
        }
        Engine::Baseline => (engine, None, Node::Baseline),
        Engine::Reference => (engine, None, Node::Reference),
    };
    Ok(Arm {
        query,
        engine: built,
        forced: engine != Engine::default(),
        rejected,
        rewrite,
        root,
    })
}

/// Execute a plan: each arm runs its operator tree, then the statement's
/// nodes run over the arms' results.
pub fn run(plan: &PhysPlan, catalog: &Catalog) -> Result<Relation, EngineError> {
    plan.step(&plan.root, catalog)
}

/// Build a one-arm plan for `query` with `strategy`, then run it.
pub fn execute(
    query: &BoundQuery,
    catalog: &Catalog,
    strategy: Strategy,
) -> Result<Relation, EngineError> {
    let plan = build(query.clone().into(), Engine::NestedRelational(strategy))?;
    run(&plan, catalog)
}

impl PhysPlan {
    fn step(&self, step: &Step, catalog: &Catalog) -> Result<Relation, EngineError> {
        Ok(match step {
            Step::Arm(i) => self.run_arm(*i, catalog)?,
            Step::SetOp { left, arm, op, all } => {
                let left = self.step(left, catalog)?;
                let right = self.run_arm(*arm, catalog)?;
                let _sc = nra_obs::scope(|| arm_label(*arm));
                let body = match (op, all) {
                    (SetOpKind::Union, false) => setops::union,
                    (SetOpKind::Union, true) => setops::union_all,
                    (SetOpKind::Intersect, false) => setops::intersect,
                    (SetOpKind::Intersect, true) => setops::intersect_all,
                    (SetOpKind::Except, false) => setops::difference,
                    (SetOpKind::Except, true) => setops::difference_all,
                };
                body(&left, &right)?
            }
            Step::Sort { input, keys } => sort(self.step(input, catalog)?, keys),
            Step::Limit { input, n } => {
                let mut rel = self.step(input, catalog)?;
                let mut sp = nra_obs::span(|| "limit".to_string());
                sp.rows_in(rel.len());
                rel.rows_mut().truncate(*n);
                sp.rows_out(rel.len());
                rel
            }
        })
    }

    fn run_arm(&self, i: usize, catalog: &Catalog) -> Result<Relation, EngineError> {
        let arm = &self.arms[i];
        let _arm = self.label(i).map(|label| nra_obs::prefix_scope(|| label));
        eval(&arm.root, &arm.query, catalog)
    }
}

/// Sort `rel` by `keys` under the values' total order.
fn sort(mut rel: Relation, keys: &[(usize, bool)]) -> Relation {
    let mut sp = nra_obs::span(|| "sort".to_string());
    sp.rows_in(rel.len());
    rel.rows_mut().sort_by(|a, b| {
        (keys.iter())
            .map(|&(i, desc)| match desc {
                true => b[i].total_cmp(&a[i]),
                false => a[i].total_cmp(&b[i]),
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    sp.rows_out(rel.len());
    rel
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
        Node::Baseline => leaf("baseline", || baseline::execute(query, catalog))?,
        Node::Reference => leaf("reference", || reference::evaluate(query, catalog))?,
    })
}

/// An engine leaf: the whole arm under one span named after the engine.
fn leaf(
    name: &str,
    body: impl FnOnce() -> Result<Relation, EngineError>,
) -> Result<Relation, EngineError> {
    let mut sp = nra_obs::span(|| name.to_string());
    let rel = body()?;
    sp.rows_out(rel.len());
    Ok(rel)
}
