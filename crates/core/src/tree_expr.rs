//! The *tree expression* of the paper's Section 4 (Figure 3a): step 2 of
//! the approach builds, from the query blocks, one node `T_i` per block,
//! with edges labelled by the linking predicate `L_i` and the correlated
//! predicates `C_ij`. Figure 3b is `Original`'s [`crate::PhysPlan`],
//! rendered; the predicate and link labels here serve both.

use std::collections::HashMap;
use std::fmt;

use nra_sql::{BExpr, BPred, BoundQuery, LinkOp, QueryBlock, SubqueryEdge};

use crate::compute::edge_modes;

/// One node of the tree expression: a reduced query block `T_i`.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// The paper's `T_i` index (block id).
    pub id: usize,
    /// The block's FROM tables (exposed names).
    pub tables: Vec<String>,
    /// The local predicates `Δ_i` applied when reducing the block.
    pub local: Vec<String>,
    /// Children, each with its edge labels.
    pub children: Vec<TreeEdge>,
}

/// An edge of the tree expression.
#[derive(Debug, Clone)]
pub struct TreeEdge {
    /// The linking predicate `L_i`, rendered.
    pub link: String,
    /// Whether the linking selection for this edge is the pseudo-selection
    /// `σ̄` (negative/mixed context) or the plain `σ`.
    pub pseudo: bool,
    /// The correlated predicates `C_ij`, rendered.
    pub correlated: Vec<String>,
    pub node: TreeNode,
}

/// The tree expression of a bound query.
#[derive(Debug, Clone)]
pub struct TreeExpr {
    pub root: TreeNode,
}

/// A bound scalar expression as plan text.
pub(crate) fn render_expr(e: &BExpr) -> String {
    match e {
        BExpr::Col(c) => c.clone(),
        BExpr::Lit(v) => v.to_string(),
        BExpr::Arith { op, left, right } => {
            let (left, right) = (render_expr(left), render_expr(right));
            format!("({left} {} {right})", op.symbol())
        }
    }
}

/// A bound predicate as plan text.
pub(crate) fn render_pred(p: &BPred) -> String {
    let (e, not) = (
        render_expr,
        |negated: &bool| if *negated { "not " } else { "" },
    );
    match p {
        BPred::Cmp { left, op, right } => format!("{} {op} {}", e(left), e(right)),
        BPred::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "{} {}between {} and {}",
            e(expr),
            not(negated),
            e(low),
            e(high)
        ),
        BPred::IsNull { expr, negated } => format!("{} is {}null", e(expr), not(negated)),
        BPred::InList {
            expr,
            list,
            negated,
        } => {
            let list: Vec<String> = list.iter().map(e).collect();
            format!("{} {}in ({})", e(expr), not(negated), list.join(", "))
        }
        BPred::And(a, b) => format!("({} and {})", render_pred(a), render_pred(b)),
        BPred::Or(a, b) => format!("({} or {})", render_pred(a), render_pred(b)),
        BPred::Not(inner) => format!("not ({})", render_pred(inner)),
        BPred::Const(t) => format!("{t:?}"),
    }
}

/// An edge's linking predicate `L_i` as plan text.
pub(crate) fn render_link(edge: &SubqueryEdge) -> String {
    let outer = edge.outer_expr.as_ref().map_or(String::new(), render_expr);
    let inner = (edge.inner_expr.as_ref())
        .and_then(BExpr::as_column)
        .unwrap_or("·");
    match edge.link {
        LinkOp::Exists => format!("{{{inner}}} ≠ ∅ (exists)"),
        LinkOp::NotExists => format!("{{{inner}}} = ∅ (not exists)"),
        LinkOp::Some(op) => format!("{outer} {op} SOME {{{inner}}}"),
        LinkOp::All(op) => format!("{outer} {op} ALL {{{inner}}}"),
        LinkOp::Agg { op, func } => format!("{outer} {op} {}{{{inner}}}", func.name()),
    }
}

impl TreeExpr {
    /// Build the tree expression for a bound query (the paper's step 2).
    pub fn build(query: &BoundQuery) -> TreeExpr {
        fn node(block: &QueryBlock, modes: &HashMap<usize, bool>) -> TreeNode {
            let preds = |preds: &[BPred]| preds.iter().map(render_pred).collect();
            let edge = |e: &SubqueryEdge| TreeEdge {
                link: render_link(e),
                pseudo: modes[&e.block.id],
                correlated: preds(&e.block.correlated_preds),
                node: node(&e.block, modes),
            };
            TreeNode {
                id: block.id,
                tables: block.tables.iter().map(|t| t.exposed.clone()).collect(),
                local: preds(&block.local_preds),
                children: block.children.iter().map(edge).collect(),
            }
        }
        TreeExpr {
            root: node(&query.root, &edge_modes(query)),
        }
    }
}

impl fmt::Display for TreeExpr {
    /// Render the tree expression itself (the paper's Figure 3a).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(node: &TreeNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(depth);
            write!(f, "{pad}T{}: {}", node.id, node.tables.join(", "))?;
            if !node.local.is_empty() {
                write!(f, "  [Δ: {}]", node.local.join(" ∧ "))?;
            }
            writeln!(f)?;
            for edge in &node.children {
                let pad = "  ".repeat(depth + 1);
                write!(f, "{pad}L: {}", edge.link)?;
                if edge.pseudo {
                    write!(f, "  (σ̄)")?;
                }
                if !edge.correlated.is_empty() {
                    write!(f, "  C: {}", edge.correlated.join(" ∧ "))?;
                }
                writeln!(f)?;
                go(&edge.node, depth + 1, f)?;
            }
            Ok(())
        }
        go(&self.root, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_sql::parse_and_bind;
    use nra_storage::{Catalog, Column, ColumnType, Schema, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols) in [
            ("r", ["a", "b", "c", "d"].as_slice()),
            ("s", &["e", "f", "g", "h", "i"]),
            ("t", &["j", "k", "l"]),
        ] {
            let schema = Schema::new(
                cols.iter()
                    .map(|c| Column::new(*c, ColumnType::Int))
                    .collect(),
            );
            cat.add_table(Table::new(name, schema)).unwrap();
        }
        cat
    }

    const QUERY_Q: &str = "select r.b, r.c, r.d from r \
         where r.a > 1 and r.b not in \
           (select s.e from s where s.f = 5 and r.d = s.g and s.h > all \
              (select t.j from t where t.k = r.c and t.l <> s.i))";

    #[test]
    fn tree_expression_matches_figure_3a() {
        let bq = parse_and_bind(QUERY_Q, &catalog()).unwrap();
        let tree = TreeExpr::build(&bq);
        assert_eq!(tree.root.id, 1);
        assert_eq!(tree.root.children.len(), 1);
        let e2 = &tree.root.children[0];
        assert!(
            e2.link.contains("<> ALL"),
            "NOT IN binds as <> ALL: {}",
            e2.link
        );
        assert!(!e2.pseudo, "the root edge uses the plain σ");
        assert_eq!(e2.correlated, vec!["r.d = s.g"]);
        let e3 = &e2.node.children[0];
        assert!(e3.link.contains("> ALL"));
        assert!(
            e3.pseudo,
            "the inner edge needs σ̄ (a negative link remains)"
        );
        assert_eq!(e3.correlated.len(), 2);
    }

    #[test]
    fn display_renders_the_tree() {
        let bq = parse_and_bind(QUERY_Q, &catalog()).unwrap();
        let s = TreeExpr::build(&bq).to_string();
        assert!(s.contains("T1: r"), "got:\n{s}");
        assert!(s.contains("T2: s"));
        assert!(s.contains("T3: t"));
        assert!(s.contains("(σ̄)"));
        assert!(s.contains("C: r.d = s.g"));
    }

    #[test]
    fn exists_link_rendered_as_emptiness() {
        let bq = parse_and_bind(
            "select a from r where not exists (select * from s where s.g = r.d)",
            &catalog(),
        )
        .unwrap();
        let tree = TreeExpr::build(&bq);
        assert!(tree.root.children[0].link.contains("= ∅"));
    }
}
