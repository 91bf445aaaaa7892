//! A recursive-descent parser for OrQL.
//!
//! Grammar (informally):
//!
//! ```text
//! expr     ::= 'let' IDENT '=' expr 'in' expr
//!            | 'if' expr 'then' expr 'else' expr
//!            | orexpr
//! orexpr   ::= andexpr ('||' andexpr)*
//! andexpr  ::= cmpexpr ('&&' cmpexpr)*
//! cmpexpr  ::= addexpr (('=='|'!='|'<='|'<'|'>='|'>') addexpr)?
//! addexpr  ::= mulexpr (('+'|'-') mulexpr)*
//! mulexpr  ::= unary ('*' unary)*
//! unary    ::= '!' unary | atom
//! atom     ::= INT | STRING | 'true' | 'false' | 'unit' | IDENT
//!            | IDENT '(' args ')'                      (builtin call)
//!            | '(' expr ')' | '(' expr ',' expr ')'
//!            | '{' [expr (',' expr)*] '}'
//!            | '{' expr '|' qualifiers '}'
//!            | '<|' [expr (',' expr)*] '|>'
//!            | '<|' expr '|' qualifiers '|>'
//! qualifiers ::= qualifier (',' qualifier)*
//! qualifier  ::= IDENT '<-' expr | expr
//! ```
//!
//! An expression may be at most [`MAX_EXPR_DEPTH`] deep, both as a tree
//! and as source nesting (parentheses count).  A chain `1 + 1 + … + 1` is
//! as deep as it is long, and each qualifier of a comprehension counts one
//! level, since it scopes over the rest (as in the comprehension's
//! translation to the algebra); the elements of a literal and the
//! arguments of a call sit side by side.  Every later pass — type
//! inference, compilation, plan verification, evaluation, even dropping
//! the tree — recurses over it, so a deeper statement is refused here
//! rather than allowed to overflow a thread's stack, which aborts the
//! whole process.

use std::fmt;

use crate::ast::{BinOp, Builtin, Expr, Qualifier};
use crate::lexer::{tokenize, LexError, Token};

/// The deepest expression the parser accepts (see the module docs).
///
/// Chosen by measurement on a 2 MiB thread (a server connection thread's
/// default stack): parse, type inference, interpreter and engine
/// evaluation and drop of 25 expression shapes — chains, parentheses,
/// `!`, pairs, `let`, `if`, sets, or-sets, calls, flat and nested
/// comprehensions.  The tightest is the engine route in a debug build,
/// where plan verification recurses over the compiled morphisms: nested
/// comprehensions with a guard overflow from depth 24, flat
/// comprehensions from 43 generators.  Release builds overflow no
/// measured shape below 280 levels.
pub const MAX_EXPR_DEPTH: usize = 16;

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Index of the offending token.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at token {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            position: e.position,
            message: e.message,
        }
    }
}

/// Parse a complete expression from source text.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let mut parser = Parser::new(tokenize(src)?);
    let expr = parser.expr()?.expr;
    parser.expect(Token::Eof)?;
    Ok(expr)
}

/// A top-level REPL statement: a binding or a bare expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `let name = expr` (without `in`): bind in the session environment.
    Bind(String, Expr),
    /// A bare expression to evaluate.
    Expr(Expr),
}

/// Parse a REPL statement.
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    let mut parser = Parser::new(tokenize(src)?);
    // try `let x = expr <eof>` first
    if parser.peek() == &Token::Let {
        let save = parser.pos;
        parser.advance();
        if let Token::Ident(name) = parser.peek().clone() {
            parser.advance();
            if parser.peek() == &Token::Assign {
                parser.advance();
                let value = parser.expr()?.expr;
                if parser.peek() == &Token::Eof {
                    return Ok(Statement::Bind(name, value));
                }
            }
        }
        parser.pos = save;
    }
    let expr = parser.expr()?.expr;
    parser.expect(Token::Eof)?;
    Ok(Statement::Expr(expr))
}

/// A parsed expression and its height: the nodes on its longest
/// root-to-leaf path.
struct Node {
    expr: Expr,
    height: usize,
}

impl Node {
    fn leaf(expr: Expr) -> Node {
        Node { expr, height: 1 }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expressions open at `pos` (the source nesting depth).
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn expect(&mut self, expected: Token) -> Result<(), ParseError> {
        if *self.peek() == expected {
            self.advance();
            Ok(())
        } else {
            self.error(format!("expected {expected}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    /// `expr` over children of the given heights.
    fn node(
        &self,
        expr: Expr,
        children: impl IntoIterator<Item = usize>,
    ) -> Result<Node, ParseError> {
        self.checked(expr, 1 + children.into_iter().max().unwrap_or(0))
    }

    /// `expr` at `height`, refused past [`MAX_EXPR_DEPTH`].
    fn checked(&self, expr: Expr, height: usize) -> Result<Node, ParseError> {
        if height > MAX_EXPR_DEPTH {
            return self.error(format!("expression deeper than {MAX_EXPR_DEPTH} levels"));
        }
        Ok(Node { expr, height })
    }

    fn binop(&self, op: BinOp, lhs: Node, rhs: Node) -> Result<Node, ParseError> {
        let heights = [lhs.height, rhs.height];
        self.node(
            Expr::BinOp(op, Box::new(lhs.expr), Box::new(rhs.expr)),
            heights,
        )
    }

    /// Run `parse` one source nesting level deeper, refused past
    /// [`MAX_EXPR_DEPTH`] before it recurses.
    fn deeper(
        &mut self,
        parse: fn(&mut Self) -> Result<Node, ParseError>,
    ) -> Result<Node, ParseError> {
        if self.depth == MAX_EXPR_DEPTH {
            return self.error(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            ));
        }
        self.depth += 1;
        let node = parse(self);
        self.depth -= 1;
        node
    }

    fn expr(&mut self) -> Result<Node, ParseError> {
        self.deeper(Self::let_if_or)
    }

    fn let_if_or(&mut self) -> Result<Node, ParseError> {
        match self.peek() {
            Token::Let => {
                self.advance();
                let name = match self.advance() {
                    Token::Ident(n) => n,
                    other => return self.error(format!("expected identifier, found {other}")),
                };
                self.expect(Token::Assign)?;
                let value = self.expr()?;
                self.expect(Token::In)?;
                let body = self.expr()?;
                let heights = [value.height, body.height];
                let expr = Expr::Let {
                    name,
                    value: Box::new(value.expr),
                    body: Box::new(body.expr),
                };
                self.node(expr, heights)
            }
            Token::If => {
                self.advance();
                let cond = self.expr()?;
                self.expect(Token::Then)?;
                let then_branch = self.expr()?;
                self.expect(Token::Else)?;
                let else_branch = self.expr()?;
                let heights = [cond.height, then_branch.height, else_branch.height];
                let expr = Expr::If {
                    cond: Box::new(cond.expr),
                    then_branch: Box::new(then_branch.expr),
                    else_branch: Box::new(else_branch.expr),
                };
                self.node(expr, heights)
            }
            _ => self.or_expr(),
        }
    }

    fn or_expr(&mut self) -> Result<Node, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Token::OrOr) {
            let rhs = self.and_expr()?;
            lhs = self.binop(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Node, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Token::AndAnd) {
            let rhs = self.cmp_expr()?;
            lhs = self.binop(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Node, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Token::Eq => Some(BinOp::Eq),
            Token::Neq => Some(BinOp::Neq),
            Token::Leq => Some(BinOp::Leq),
            Token::Lt => Some(BinOp::Lt),
            Token::Geq => Some(BinOp::Geq),
            Token::Gt => Some(BinOp::Gt),
            _ => None,
        };
        match op {
            Some(op) => {
                self.advance();
                let rhs = self.add_expr()?;
                self.binop(op, lhs, rhs)
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<Node, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = if self.eat(&Token::Plus) {
                BinOp::Add
            } else if self.eat(&Token::Minus) {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.mul_expr()?;
            lhs = self.binop(op, lhs, rhs)?;
        }
    }

    fn mul_expr(&mut self) -> Result<Node, ParseError> {
        let mut lhs = self.unary()?;
        while self.eat(&Token::Star) {
            let rhs = self.unary()?;
            lhs = self.binop(BinOp::Mul, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Node, ParseError> {
        if self.eat(&Token::Bang) {
            let operand = self.deeper(Self::unary)?;
            let height = operand.height;
            self.node(Expr::Not(Box::new(operand.expr)), [height])
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<Node, ParseError> {
        match self.advance() {
            Token::Int(i) => Ok(Node::leaf(Expr::Int(i))),
            Token::Str(s) => Ok(Node::leaf(Expr::Str(s))),
            Token::True => Ok(Node::leaf(Expr::Bool(true))),
            Token::False => Ok(Node::leaf(Expr::Bool(false))),
            Token::Unit => Ok(Node::leaf(Expr::Unit)),
            Token::Ident(name) => {
                if self.peek() == &Token::LParen {
                    let builtin = match Builtin::by_name(&name) {
                        Some(b) => b,
                        None => {
                            return self.error(format!(
                                "unknown function {name} (OrQL has no user-defined functions; \
                                 available builtins are normalize, alpha, flatten, orflatten, \
                                 union, orunion, member, ormember, subset, intersect, \
                                 difference, powerset, toset, toorset, isempty, orisempty, \
                                 fst, snd)"
                            ))
                        }
                    };
                    self.advance(); // '('
                    let mut args: Vec<Node> = Vec::new();
                    if self.peek() != &Token::RParen {
                        args.push(self.expr()?);
                        while self.eat(&Token::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(Token::RParen)?;
                    if args.len() != builtin.arity() {
                        return self.error(format!(
                            "{} expects {} argument(s), got {}",
                            builtin.name(),
                            builtin.arity(),
                            args.len()
                        ));
                    }
                    let heights: Vec<usize> = args.iter().map(|a| a.height).collect();
                    let args = args.into_iter().map(|a| a.expr).collect();
                    self.node(Expr::Call(builtin, args), heights)
                } else {
                    Ok(Node::leaf(Expr::Var(name)))
                }
            }
            Token::LParen => {
                let first = self.expr()?;
                if self.eat(&Token::Comma) {
                    let second = self.expr()?;
                    self.expect(Token::RParen)?;
                    let heights = [first.height, second.height];
                    let pair = Expr::Pair(Box::new(first.expr), Box::new(second.expr));
                    self.node(pair, heights)
                } else {
                    self.expect(Token::RParen)?;
                    Ok(first)
                }
            }
            Token::LBrace => self.collection(Token::RBrace, true),
            Token::LOrSet => self.collection(Token::ROrSet, false),
            other => self.error(format!("unexpected token {other}")),
        }
    }

    /// Parse the inside of `{ … }` or `<| … |>`: either a literal list of
    /// elements or a comprehension.
    fn collection(&mut self, closing: Token, is_set: bool) -> Result<Node, ParseError> {
        // empty collection
        if self.eat(&closing) {
            return Ok(Node::leaf(if is_set {
                Expr::SetLit(Vec::new())
            } else {
                Expr::OrSetLit(Vec::new())
            }));
        }
        let first = self.expr()?;
        if self.eat(&Token::Bar) {
            let (qualifiers, heights) = self.qualifiers()?;
            self.expect(closing)?;
            // each qualifier scopes over the rest and the head, as in the
            // comprehension's translation to the algebra: one level each
            let height = heights
                .iter()
                .rev()
                .fold(first.height, |inner, &h| 1 + inner.max(h));
            let head = Box::new(first.expr);
            let expr = if is_set {
                Expr::SetComp { head, qualifiers }
            } else {
                Expr::OrSetComp { head, qualifiers }
            };
            return self.checked(expr, height);
        }
        let mut height = first.height;
        let mut items = vec![first.expr];
        while self.eat(&Token::Comma) {
            let item = self.expr()?;
            height = height.max(item.height);
            items.push(item.expr);
        }
        self.expect(closing)?;
        let expr = if is_set {
            Expr::SetLit(items)
        } else {
            Expr::OrSetLit(items)
        };
        self.node(expr, [height])
    }

    /// The qualifiers of a comprehension, with the height of each one's
    /// expression.
    fn qualifiers(&mut self) -> Result<(Vec<Qualifier>, Vec<usize>), ParseError> {
        let mut out = Vec::new();
        let mut heights = Vec::new();
        loop {
            // generator: IDENT '<-' expr
            let generator = match (self.peek(), self.tokens.get(self.pos + 1)) {
                (Token::Ident(name), Some(Token::Arrow)) => Some(name.clone()),
                _ => None,
            };
            let qualifier = match generator {
                Some(name) => {
                    self.advance();
                    self.advance();
                    let source = self.expr()?;
                    heights.push(source.height);
                    Qualifier::Generator(name, source.expr)
                }
                None => {
                    let guard = self.expr()?;
                    heights.push(guard.height);
                    Qualifier::Guard(guard.expr)
                }
            };
            out.push(qualifier);
            if !self.eat(&Token::Comma) {
                return Ok((out, heights));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cheap_design_query() {
        let e = parse("<| x | x <- normalize(db), x <= 100 |>").unwrap();
        match e {
            Expr::OrSetComp { qualifiers, .. } => {
                assert_eq!(qualifiers.len(), 2);
                assert!(matches!(qualifiers[0], Qualifier::Generator(..)));
                assert!(matches!(qualifiers[1], Qualifier::Guard(_)));
            }
            other => panic!("expected an or-set comprehension, got {other}"),
        }
    }

    #[test]
    fn parses_literals_and_pairs() {
        assert_eq!(parse("42").unwrap(), Expr::Int(42));
        assert_eq!(
            parse("(1, true)").unwrap(),
            Expr::Pair(Box::new(Expr::Int(1)), Box::new(Expr::Bool(true)))
        );
        assert_eq!(parse("{}").unwrap(), Expr::SetLit(vec![]));
        assert_eq!(parse("<| |>").unwrap(), Expr::OrSetLit(vec![]));
        assert_eq!(
            parse("{1, 2, 2}").unwrap(),
            Expr::SetLit(vec![Expr::Int(1), Expr::Int(2), Expr::Int(2)])
        );
    }

    #[test]
    fn parses_let_and_if() {
        let e = parse("let s = {1,2} in if member(1, s) then 1 else 0").unwrap();
        assert!(matches!(e, Expr::Let { .. }));
    }

    #[test]
    fn operator_precedence() {
        let e = parse("1 + 2 * 3 <= 10 && true").unwrap();
        // (&& ((<=) (+ 1 (* 2 3)) 10) true)
        match e {
            Expr::BinOp(BinOp::And, lhs, _) => match *lhs {
                Expr::BinOp(BinOp::Leq, l, _) => match *l {
                    Expr::BinOp(BinOp::Add, _, r) => {
                        assert!(matches!(*r, Expr::BinOp(BinOp::Mul, _, _)))
                    }
                    other => panic!("expected +, got {other}"),
                },
                other => panic!("expected <=, got {other}"),
            },
            other => panic!("expected &&, got {other}"),
        }
    }

    #[test]
    fn nested_comprehensions_parse() {
        let e = parse("{ (x, y) | x <- {1,2}, y <- {3,4}, x < y }").unwrap();
        match e {
            Expr::SetComp { qualifiers, .. } => assert_eq!(qualifiers.len(), 3),
            other => panic!("expected a set comprehension, got {other}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("let = 3 in x").is_err());
        assert!(parse("foo(1)").is_err());
        assert!(parse("member(1)").is_err());
        assert!(parse("{1, }").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("(1, 2").is_err());
    }

    #[test]
    fn statements_distinguish_bindings_from_expressions() {
        assert!(matches!(
            parse_statement("let db = <|1,2|>").unwrap(),
            Statement::Bind(_, _)
        ));
        assert!(matches!(
            parse_statement("let db = <|1,2|> in db").unwrap(),
            Statement::Expr(_)
        ));
        assert!(matches!(
            parse_statement("1 + 2").unwrap(),
            Statement::Expr(_)
        ));
    }

    #[test]
    fn deep_expressions_are_refused_before_they_overflow_the_stack() {
        // each of these overflows a 2 MiB thread stack — in the parser or in
        // a later pass over the tree — when it is not refused here
        let parens = "(".repeat(10_000) + "1" + &")".repeat(10_000);
        let nots = "!".repeat(10_000) + "true";
        let chain = vec!["1"; 10_000].join("+");
        let long_chain = vec!["1"; 100_000].join("+");
        let lets = "let x = 1 in ".repeat(10_000) + "x";
        for src in [&parens, &nots, &chain, &long_chain, &lets] {
            let err = parse_statement(src).unwrap_err();
            assert!(err.message.contains("deeper than"), "{err}");
        }
    }

    #[test]
    fn depth_counts_nesting_chains_and_qualifiers_but_not_elements() {
        let chain = |terms: usize| vec!["1"; terms].join(" + ");
        assert!(parse(&chain(MAX_EXPR_DEPTH)).is_ok());
        assert!(parse(&chain(MAX_EXPR_DEPTH + 1)).is_err());
        // the outermost expression is one level, each parenthesis another
        let parens = |levels: usize| "(".repeat(levels) + "1" + &")".repeat(levels);
        assert!(parse(&parens(MAX_EXPR_DEPTH - 1)).is_ok());
        assert!(parse(&parens(MAX_EXPR_DEPTH)).is_err());
        // literal elements sit side by side
        let items: Vec<String> = (0..10_000).map(|i| i.to_string()).collect();
        assert!(parse(&format!("{{{}}}", items.join(", "))).is_ok());
        // each qualifier is a level: the head and k generators are k + 1
        let generators = |k: usize| {
            let rest: String = (1..k).map(|i| format!(", x{i} <- db")).collect();
            format!("{{ x0 | x0 <- db{rest} }}")
        };
        assert!(parse(&generators(MAX_EXPR_DEPTH - 1)).is_ok());
        assert!(parse(&generators(MAX_EXPR_DEPTH)).is_err());
    }
}
