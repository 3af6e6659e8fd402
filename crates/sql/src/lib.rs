//! # nra-sql
//!
//! SQL front end for the nested relational subquery processor: a lexer and
//! recursive-descent parser for the SQL subset the paper works with
//! (`SELECT`/`FROM`/`WHERE` with `EXISTS`/`NOT EXISTS`/`IN`/`NOT IN`/
//! `θ SOME/ANY`/`θ ALL` subqueries at any nesting depth), and a binder that
//! produces a [`block::BoundQuery`] — the tree of query blocks, linking
//! predicates and correlated predicates in the paper's Section 2
//! terminology.

pub mod ast;
pub mod binder;
pub mod block;
pub mod bound;
pub mod error;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod token;

pub use ast::{
    ArithOp, CompoundPart, Predicate, Quantifier, Query, ScalarExpr, SelectItem, SelectStmt,
    SetOpKind, TableRef,
};
pub use binder::{bind, bind_statement, parse_and_bind};
pub use block::{BoundQuery, BoundStatement, BoundTable, LinkOp, QueryBlock, SubqueryEdge};
pub use bound::{BExpr, BPred};
pub use error::SqlError;
pub use parser::{parse, parse_analyze, parse_query, parse_statement, Statement};
