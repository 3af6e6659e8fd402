//! Recursive-descent parser for the SQL subset.

use nra_storage::{AggFunc, CmpOp, Value};

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::lex;
use crate::token::{Keyword, Token, TokenKind};

/// Parse a single `SELECT` statement (optionally `;`-terminated).
pub fn parse(input: &str) -> Result<SelectStmt, SqlError> {
    let q = parse_query(input)?;
    if !q.compounds.is_empty() || !q.order_by.is_empty() || q.limit.is_some() {
        return Err(SqlError::parse(
            0,
            "compound queries / ORDER BY / LIMIT are handled at the Query level              (use parse_query)",
        ));
    }
    Ok(q.first)
}

/// Parse a full query: `SELECT ... [UNION/INTERSECT/EXCEPT [ALL] SELECT
/// ...]* [ORDER BY expr [ASC|DESC], ...] [LIMIT n]`, optionally
/// `;`-terminated.
///
/// When a profile is being collected ([`nra_obs::phase`]), the whole lex +
/// parse runs under a `parse` phase that counts the tokens of a statement
/// that parsed.
pub fn parse_query(input: &str) -> Result<Query, SqlError> {
    let mut phase = nra_obs::phase("parse");
    let tokens = lex(input)?;
    let ntokens = tokens.len();
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let first = p.select_stmt()?;

    let mut compounds = Vec::new();
    loop {
        let op = if p.eat_keyword(Keyword::Union) {
            SetOpKind::Union
        } else if p.eat_keyword(Keyword::Intersect) {
            SetOpKind::Intersect
        } else if p.eat_keyword(Keyword::Except) {
            SetOpKind::Except
        } else {
            break;
        };
        let all = p.eat_keyword(Keyword::All);
        let stmt = p.select_stmt()?;
        compounds.push(CompoundPart { op, all, stmt });
    }

    let mut order_by = Vec::new();
    if p.eat_keyword(Keyword::Order) {
        p.expect_keyword(Keyword::By)?;
        loop {
            let expr = p.scalar_expr()?;
            let desc = if p.eat_keyword(Keyword::Desc) {
                true
            } else {
                p.eat_keyword(Keyword::Asc);
                false
            };
            order_by.push((expr, desc));
            if p.peek_kind() != &TokenKind::Comma {
                break;
            }
            p.advance();
        }
    }

    let limit = if p.eat_keyword(Keyword::Limit) {
        match p.peek_kind().clone() {
            TokenKind::Int(n) if n >= 0 => {
                p.advance();
                Some(n as usize)
            }
            other => {
                return Err(SqlError::parse(
                    p.peek().offset,
                    format!("LIMIT takes a non-negative integer, found {other}"),
                ))
            }
        }
    } else {
        None
    };

    if p.peek_kind() == &TokenKind::Semicolon {
        p.advance();
    }
    p.expect(TokenKind::Eof)?;
    phase.rows(ntokens);
    Ok(Query {
        first,
        compounds,
        order_by,
        limit,
    })
}

/// A top-level SQL statement: either a query or a utility statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Box<Query>),
    /// `ANALYZE <table>` — gather row count, per-column NDV and null
    /// counts into the catalog for the planner's cardinality estimates.
    Analyze {
        table: String,
    },
}

/// Parse `ANALYZE <table> [;]` if the input is an ANALYZE statement,
/// returning the table name; `Ok(None)` when the input starts with
/// anything else (so query parsing — and its `parse` phase — run exactly
/// once for regular queries).
pub fn parse_analyze(input: &str) -> Result<Option<String>, SqlError> {
    let tokens = lex(input)?;
    if tokens.first().map(|t| &t.kind) != Some(&TokenKind::Keyword(Keyword::Analyze)) {
        return Ok(None);
    }
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.expect_keyword(Keyword::Analyze)?;
    let table = p.ident()?;
    if p.peek_kind() == &TokenKind::Semicolon {
        p.advance();
    }
    p.expect(TokenKind::Eof)?;
    Ok(Some(table))
}

/// Parse a full statement: `ANALYZE <table>` or a query.
pub fn parse_statement(input: &str) -> Result<Statement, SqlError> {
    match parse_analyze(input)? {
        Some(table) => Ok(Statement::Analyze { table }),
        None => Ok(Statement::Query(Box::new(parse_query(input)?))),
    }
}

/// How deep subqueries, parenthesised predicates and expressions, `NOT`
/// chains, unary minus chains and aggregate arguments may nest. The parser
/// recurses once per level, so an unbounded depth lets one statement
/// overflow the stack and abort the process; past this depth it returns a
/// parse error instead.
const MAX_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    /// Run `parse` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth == MAX_DEPTH {
            return Err(SqlError::parse(
                self.peek().offset,
                format!("query nests deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        self.peek_kind() == &TokenKind::Keyword(k)
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<(), SqlError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(SqlError::parse(
                self.peek().offset,
                format!("expected {k:?}, found {}", self.peek_kind()),
            ))
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), SqlError> {
        if self.peek_kind() == &kind {
            self.advance();
            Ok(())
        } else {
            Err(SqlError::parse(
                self.peek().offset,
                format!("expected {kind}, found {}", self.peek_kind()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(SqlError::parse(
                self.peek().offset,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    /// A `SELECT` block, one nesting level deeper.
    fn select_stmt(&mut self) -> Result<SelectStmt, SqlError> {
        self.nested(Parser::select_block)
    }

    fn select_block(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let select = self.select_list()?;
        self.expect_keyword(Keyword::From)?;
        let from = self.table_refs()?;
        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.predicate()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            select,
            from,
            where_clause,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>, SqlError> {
        if self.peek_kind() == &TokenKind::StarOp {
            self.advance();
            return Ok(vec![SelectItem::Wildcard]);
        }
        let mut items = vec![SelectItem::Expr(self.scalar_expr()?)];
        while self.peek_kind() == &TokenKind::Comma {
            self.advance();
            items.push(SelectItem::Expr(self.scalar_expr()?));
        }
        Ok(items)
    }

    fn table_refs(&mut self) -> Result<Vec<TableRef>, SqlError> {
        let mut refs = vec![self.table_ref()?];
        while self.peek_kind() == &TokenKind::Comma {
            self.advance();
            refs.push(self.table_ref()?);
        }
        Ok(refs)
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let mut table = self.ident()?;
        // Schema-qualified name (`nra_sys.queries`): the dotted pair is
        // kept as one catalog name; the exposed name defaults to the
        // part after the dot (see `TableRef::exposed`).
        if self.peek_kind() == &TokenKind::Dot {
            self.advance();
            let name = self.ident()?;
            table = format!("{table}.{name}");
        }
        let alias =
            if self.eat_keyword(Keyword::As) || matches!(self.peek_kind(), TokenKind::Ident(_)) {
                Some(self.ident()?)
            } else {
                None
            };
        Ok(TableRef { table, alias })
    }

    // ---- predicates ------------------------------------------------------

    fn predicate(&mut self) -> Result<Predicate, SqlError> {
        self.or_pred()
    }

    fn or_pred(&mut self) -> Result<Predicate, SqlError> {
        let mut left = self.and_pred()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.and_pred()?;
            left = Predicate::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_pred(&mut self) -> Result<Predicate, SqlError> {
        let mut left = self.not_pred()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.not_pred()?;
            left = Predicate::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_pred(&mut self) -> Result<Predicate, SqlError> {
        if self.at_keyword(Keyword::Not) && !self.next_is_exists_after_not() {
            self.advance();
            let inner = self.nested(Parser::not_pred)?;
            return Ok(Predicate::Not(Box::new(inner)));
        }
        self.primary_pred()
    }

    /// `NOT EXISTS (...)` is handled in `primary_pred` so the negation flag
    /// lands on the `Exists` node directly.
    fn next_is_exists_after_not(&self) -> bool {
        self.at_keyword(Keyword::Not)
            && self.tokens.get(self.pos + 1).map(|t| &t.kind)
                == Some(&TokenKind::Keyword(Keyword::Exists))
    }

    fn primary_pred(&mut self) -> Result<Predicate, SqlError> {
        // [NOT] EXISTS (subquery)
        if self.at_keyword(Keyword::Exists) || self.next_is_exists_after_not() {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Exists)?;
            self.expect(TokenKind::LParen)?;
            let query = Box::new(self.select_stmt()?);
            self.expect(TokenKind::RParen)?;
            return Ok(Predicate::Exists { query, negated });
        }
        // Parenthesized predicate vs parenthesized scalar expression:
        // try the predicate parse first and backtrack on failure. A
        // successful parenthesized-predicate parse can never be the prefix
        // of a comparison (SQL has no boolean comparisons), so accepting it
        // is safe.
        if self.peek_kind() == &TokenKind::LParen {
            let save = self.pos;
            self.advance();
            if let Ok(p) = self.nested(Parser::predicate) {
                if self.peek_kind() == &TokenKind::RParen {
                    self.advance();
                    return Ok(p);
                }
            }
            self.pos = save;
        }
        let expr = self.scalar_expr()?;
        self.pred_postfix(expr)
    }

    fn pred_postfix(&mut self, expr: ScalarExpr) -> Result<Predicate, SqlError> {
        // IS [NOT] NULL
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Predicate::IsNull { expr, negated });
        }
        // [NOT] BETWEEN / [NOT] IN
        if self.at_keyword(Keyword::Not)
            || self.at_keyword(Keyword::Between)
            || self.at_keyword(Keyword::In)
        {
            let negated = self.eat_keyword(Keyword::Not);
            if self.eat_keyword(Keyword::Between) {
                let low = self.scalar_expr()?;
                self.expect_keyword(Keyword::And)?;
                let high = self.scalar_expr()?;
                return Ok(Predicate::Between {
                    expr,
                    low,
                    high,
                    negated,
                });
            }
            self.expect_keyword(Keyword::In)?;
            self.expect(TokenKind::LParen)?;
            if self.at_keyword(Keyword::Select) {
                let query = Box::new(self.select_stmt()?);
                self.expect(TokenKind::RParen)?;
                return Ok(Predicate::InSubquery {
                    expr,
                    query,
                    negated,
                });
            }
            let mut list = vec![self.scalar_expr()?];
            while self.peek_kind() == &TokenKind::Comma {
                self.advance();
                list.push(self.scalar_expr()?);
            }
            self.expect(TokenKind::RParen)?;
            return Ok(Predicate::InList {
                expr,
                list,
                negated,
            });
        }
        // comparison, possibly quantified
        let op = self.cmp_op()?;
        let quantifier = if self.eat_keyword(Keyword::Any) || self.eat_keyword(Keyword::Some) {
            Some(Quantifier::Some)
        } else if self.eat_keyword(Keyword::All) {
            Some(Quantifier::All)
        } else {
            None
        };
        match quantifier {
            Some(quantifier) => {
                self.expect(TokenKind::LParen)?;
                let query = Box::new(self.select_stmt()?);
                self.expect(TokenKind::RParen)?;
                Ok(Predicate::Quantified {
                    expr,
                    op,
                    quantifier,
                    query,
                })
            }
            None => {
                // `expr θ (SELECT ...)` is a scalar subquery comparison.
                if self.peek_kind() == &TokenKind::LParen
                    && self.tokens.get(self.pos + 1).map(|t| &t.kind)
                        == Some(&TokenKind::Keyword(Keyword::Select))
                {
                    self.advance();
                    let query = Box::new(self.select_stmt()?);
                    self.expect(TokenKind::RParen)?;
                    return Ok(Predicate::CmpSubquery { expr, op, query });
                }
                let right = self.scalar_expr()?;
                Ok(Predicate::Cmp {
                    left: expr,
                    op,
                    right,
                })
            }
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, SqlError> {
        let op = match self.peek_kind() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::NotEq => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::LtEq => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::GtEq => CmpOp::Ge,
            other => {
                return Err(SqlError::parse(
                    self.peek().offset,
                    format!("expected comparison operator, found {other}"),
                ))
            }
        };
        self.advance();
        Ok(op)
    }

    /// Parse the argument list of an aggregate function call; `name` has
    /// already been consumed.
    fn agg_call(&mut self, name: &str) -> Result<ScalarExpr, SqlError> {
        let offset = self.peek().offset;
        let func = match name {
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "count" => AggFunc::CountRows, // refined below for count(col)
            other => {
                return Err(SqlError::parse(
                    offset,
                    format!("unknown function `{other}` (supported: min, max, sum, avg, count)"),
                ))
            }
        };
        self.expect(TokenKind::LParen)?;
        if self.peek_kind() == &TokenKind::StarOp {
            if func != AggFunc::CountRows {
                return Err(SqlError::parse(offset, "`*` is only valid in count(*)"));
            }
            self.advance();
            self.expect(TokenKind::RParen)?;
            return Ok(ScalarExpr::Agg {
                func: AggFunc::CountRows,
                arg: None,
            });
        }
        let arg = self.nested(Parser::scalar_expr)?;
        self.expect(TokenKind::RParen)?;
        let func = if func == AggFunc::CountRows {
            AggFunc::CountNonNull
        } else {
            func
        };
        Ok(ScalarExpr::Agg {
            func,
            arg: Some(Box::new(arg)),
        })
    }

    // ---- scalar expressions ---------------------------------------------

    fn scalar_expr(&mut self) -> Result<ScalarExpr, SqlError> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.term()?;
            left = ScalarExpr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<ScalarExpr, SqlError> {
        let mut left = self.factor()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::StarOp => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.factor()?;
            left = ScalarExpr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<ScalarExpr, SqlError> {
        match self.peek_kind().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Int(v)))
            }
            TokenKind::Decimal(v) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Decimal(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Str(s)))
            }
            TokenKind::Minus => {
                self.advance();
                let inner = self.nested(Parser::factor)?;
                Ok(match inner {
                    ScalarExpr::Literal(Value::Int(v)) => ScalarExpr::Literal(Value::Int(-v)),
                    ScalarExpr::Literal(Value::Decimal(v)) => {
                        ScalarExpr::Literal(Value::Decimal(-v))
                    }
                    ScalarExpr::Literal(Value::Float(v)) => ScalarExpr::Literal(Value::Float(-v)),
                    other => ScalarExpr::Arith {
                        op: ArithOp::Sub,
                        left: Box::new(ScalarExpr::Literal(Value::Int(0))),
                        right: Box::new(other),
                    },
                })
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Null))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(ScalarExpr::Literal(Value::Bool(false)))
            }
            TokenKind::Keyword(Keyword::Date) => {
                self.advance();
                let offset = self.peek().offset;
                match self.peek_kind().clone() {
                    TokenKind::Str(s) => {
                        self.advance();
                        let days = parse_date(&s)
                            .ok_or_else(|| SqlError::parse(offset, "bad date literal"))?;
                        Ok(ScalarExpr::Literal(Value::Date(days)))
                    }
                    other => Err(SqlError::parse(
                        offset,
                        format!("expected date string after DATE, found {other}"),
                    )),
                }
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.nested(Parser::scalar_expr)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(first) => {
                self.advance();
                if self.peek_kind() == &TokenKind::LParen {
                    return self.agg_call(&first);
                }
                if self.peek_kind() == &TokenKind::Dot {
                    self.advance();
                    let name = self.ident()?;
                    Ok(ScalarExpr::Column {
                        qualifier: Some(first),
                        name,
                    })
                } else {
                    Ok(ScalarExpr::Column {
                        qualifier: None,
                        name: first,
                    })
                }
            }
            other => Err(SqlError::parse(
                self.peek().offset,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

/// Parse `YYYY-MM-DD` into days since 1970-01-01 (proleptic Gregorian).
pub fn parse_date(s: &str) -> Option<i32> {
    nra_storage::value::parse_date_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse("select a, t.b from t where a > 1 and b = 'x'").unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from[0].table, "t");
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn parses_wildcard_and_alias() {
        let q = parse("select * from lineitem as l").unwrap();
        assert_eq!(q.select, vec![SelectItem::Wildcard]);
        assert_eq!(q.from[0].exposed(), "l");
        let q2 = parse("select * from lineitem l").unwrap();
        assert_eq!(q2.from[0].exposed(), "l");
    }

    #[test]
    fn parses_paper_query_q() {
        // The two-level nested Query Q from Section 2 of the paper.
        let q = parse(
            "select r.b, r.c, r.d from r \
             where r.a > 1 and r.b not in \
               (select s.e from s where s.f = 5 and r.d = s.g and s.h > all \
                  (select t.j from t where t.k = r.c and t.l <> s.i))",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        match w {
            Predicate::And(_, right) => match *right {
                Predicate::InSubquery { negated, query, .. } => {
                    assert!(negated);
                    match query.where_clause.unwrap() {
                        Predicate::And(_, inner) => {
                            assert!(matches!(
                                *inner,
                                Predicate::Quantified {
                                    quantifier: Quantifier::All,
                                    ..
                                }
                            ));
                        }
                        other => panic!("unexpected inner where: {other}"),
                    }
                }
                other => panic!("expected NOT IN, got {other}"),
            },
            other => panic!("expected AND, got {other}"),
        }
    }

    #[test]
    fn parses_quantifiers_and_exists() {
        let q = parse(
            "select a from t where a > all (select b from u) \
             and a < any (select b from u) and exists (select * from v) \
             and not exists (select * from w)",
        )
        .unwrap();
        let s = q.to_string();
        assert!(s.contains("all"));
        assert!(s.contains("some"));
        assert!(s.contains("not exists"));
    }

    #[test]
    fn not_wraps_predicates() {
        let q = parse("select a from t where not a = 1").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Predicate::Not(_)));
    }

    #[test]
    fn parses_between_and_is_null() {
        let q = parse("select a from t where a between 1 and 10 and b is not null and c is null")
            .unwrap();
        let s = q.to_string();
        assert!(s.contains("between 1 and 10"));
        assert!(s.contains("is not null"));
    }

    #[test]
    fn parses_in_list() {
        let q = parse("select a from t where a not in (1, 2, 3)").unwrap();
        match q.where_clause.unwrap() {
            Predicate::InList { list, negated, .. } => {
                assert!(negated);
                assert_eq!(list.len(), 3);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn parses_parenthesized_predicate_and_expression() {
        let q = parse("select a from t where (a = 1 or b = 2) and (a + b) > 3").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Predicate::And(_, _)));
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let q = parse("select a from t where a + b * 2 > 10").unwrap();
        match q.where_clause.unwrap() {
            Predicate::Cmp {
                left: ScalarExpr::Arith { op, .. },
                ..
            } => {
                assert_eq!(op, ArithOp::Add, "multiplication binds tighter");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn parses_date_literals() {
        let q = parse("select a from t where d >= date '1995-01-01'").unwrap();
        match q.where_clause.unwrap() {
            Predicate::Cmp {
                right: ScalarExpr::Literal(Value::Date(days)),
                ..
            } => {
                assert_eq!(days, 9131); // 25 years * 365.25 ≈ 9131
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn date_epoch_is_zero() {
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
        assert_eq!(parse_date("2000-03-01"), Some(11017));
        assert_eq!(parse_date("nope"), None);
        assert_eq!(parse_date("1970-13-01"), None);
    }

    #[test]
    fn negative_literals() {
        let q = parse("select a from t where a > -5 and b > -2.50").unwrap();
        let s = q.to_string();
        assert!(s.contains("-5"));
        assert!(s.contains("-2.50"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("select from t").is_err());
        assert!(parse("select a t").is_err());
        assert!(parse("select a from t where").is_err());
        assert!(parse("select a from t where a >").is_err());
        assert!(parse("select a from t where a = 1 1").is_err());
        // `from t extra` is legal (alias without AS)
        assert!(parse("select a from t extra").is_ok());
    }

    #[test]
    fn analyze_statement_parses() {
        assert_eq!(
            parse_analyze("analyze orders").unwrap(),
            Some("orders".to_string())
        );
        assert_eq!(
            parse_analyze("ANALYZE Orders;").unwrap(),
            Some("orders".to_string())
        );
        assert_eq!(parse_analyze("select a from t").unwrap(), None);
        assert!(parse_analyze("analyze").is_err());
        assert!(parse_analyze("analyze t extra").is_err());
        match parse_statement("analyze t").unwrap() {
            Statement::Analyze { table } => assert_eq!(table, "t"),
            other => panic!("not an ANALYZE: {other:?}"),
        }
        assert!(matches!(
            parse_statement("select a from t").unwrap(),
            Statement::Query(_)
        ));
    }

    #[test]
    fn display_roundtrip_reparses() {
        let inputs = [
            "select a from t where a > all (select b from u where u.x = t.y)",
            "select r.b from r where r.b not in (select s.e from s where s.f = 5)",
            "select a, b from t, u where t.x = u.y and a between 1 and 2",
        ];
        for input in inputs {
            let once = parse(input).unwrap();
            let twice = parse(&once.to_string()).unwrap();
            assert_eq!(once, twice, "roundtrip failed for {input}");
        }
    }
}
