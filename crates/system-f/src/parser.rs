//! A recursive-descent parser for the System F concrete syntax.
//!
//! Grammar (terms bind as in the pretty-printer, [`crate::pretty`]):
//!
//! ```text
//! ty    ::= 'fn' '(' ty,* ')' '->' ty
//!         | 'forall' ident,+ '.' ty
//!         | 'list' ty_atom
//!         | ty_atom
//! ty_atom ::= 'int' | 'bool' | 'tuple' '(' ty,* ')' | ident | '(' ty ')'
//!
//! term  ::= 'lam' (ident ':' ty),+ '.' term
//!         | 'biglam' ident,+ '.' term
//!         | 'let' ident '=' term 'in' term
//!         | 'if' term 'then' term 'else' term
//!         | 'fix' ident ':' ty '.' term
//!         | postfix
//! postfix ::= atom ( '(' term,* ')' | '[' ty,+ ']' | '.' INT )*
//! atom  ::= INT | '(' '-' INT ')' | 'true' | 'false' | 'tuple' '(' term,* ')'
//!         | ident            -- primitive names resolve to primitives
//!         | '(' term ')'
//! ```

use crate::lexer::{lex, LexError, Span, Token, TokenKind};
use crate::{Prim, Symbol, Term, Ty};
use std::fmt;

/// Hard ceiling on parser recursion: deep enough for any real program,
/// shallow enough that a pathological `((((…))))` cannot overflow an
/// 8 MB thread stack.
const PARSE_DEPTH_LIMIT: usize = 10_000;

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// An unexpected token.
    Unexpected {
        /// A rendering of the offending token.
        found: String,
        /// What the parser was looking for.
        expected: &'static str,
        /// Where it happened.
        span: Span,
    },
    /// Input continued after a complete term.
    TrailingInput(Span),
    /// Nesting exceeded the recursion-depth limit (the F_G parser's
    /// budget `max_depth`, or either parser's stack-safety ceiling).
    TooDeep {
        /// Where the limit was hit.
        span: Span,
        /// The limit that was in force.
        limit: u64,
    },
    /// An armed fault plan failed the parse (see `telemetry::fault`).
    Injected,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lex error: {e}"),
            ParseError::Unexpected {
                found,
                expected,
                span,
            } => write!(
                f,
                "expected {expected}, found {found} at bytes {}..{}",
                span.start, span.end
            ),
            ParseError::TrailingInput(span) => {
                write!(f, "unexpected trailing input at byte {}", span.start)
            }
            ParseError::TooDeep { span, limit } => write!(
                f,
                "nesting deeper than {limit} at byte {}: depth budget exhausted",
                span.start
            ),
            ParseError::Injected => write!(f, "injected fault"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses a complete System F term.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing tokens.
///
/// ```
/// use system_f::{parse_term, typecheck, Ty};
///
/// let e = parse_term("(lam x: int. iadd(x, 1))(41)")?;
/// assert_eq!(typecheck(&e).unwrap(), Ty::Int);
/// # Ok::<(), system_f::ParseError>(())
/// ```
pub fn parse_term(src: &str) -> Result<Term, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let t = p.term()?;
    p.expect_eof()?;
    Ok(t)
}

/// Parses a complete System F type.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing tokens.
pub fn parse_ty(src: &str) -> Result<Ty, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let t = p.ty()?;
    p.expect_eof()?;
    Ok(t)
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    pub(crate) fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Enters one level of grammar recursion; pair with `ascend`.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > PARSE_DEPTH_LIMIT {
            return Err(ParseError::TooDeep {
                span: self.peek().span,
                limit: PARSE_DEPTH_LIMIT as u64,
            });
        }
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek().kind == kind
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Ident(s) if s.as_str() == kw)
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, expected: &'static str) -> Result<Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn expect_kw(&mut self, kw: &'static str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(kw))
        }
    }

    fn unexpected(&self, expected: &'static str) -> ParseError {
        let t = self.peek();
        ParseError::Unexpected {
            found: t.kind.to_string(),
            expected,
            span: t.span,
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.at(TokenKind::Eof) {
            Ok(())
        } else {
            Err(ParseError::TrailingInput(self.peek().span))
        }
    }

    fn ident(&mut self, expected: &'static str) -> Result<Symbol, ParseError> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    // ------------------------------------------------------------ types

    pub(crate) fn ty(&mut self) -> Result<Ty, ParseError> {
        self.descend()?;
        let out = self.ty_rec();
        self.ascend();
        out
    }

    fn ty_rec(&mut self) -> Result<Ty, ParseError> {
        if self.at_kw("fn") {
            self.bump();
            self.expect(TokenKind::LParen, "`(`")?;
            let params = self.comma_tys(TokenKind::RParen)?;
            self.expect(TokenKind::RParen, "`)`")?;
            self.expect(TokenKind::Arrow, "`->`")?;
            let ret = self.ty()?;
            return Ok(Ty::Fn(params, Box::new(ret)));
        }
        if self.at_kw("forall") {
            self.bump();
            let mut vars = vec![self.ident("type variable")?];
            while self.eat(TokenKind::Comma) {
                vars.push(self.ident("type variable")?);
            }
            self.expect(TokenKind::Dot, "`.`")?;
            let body = self.ty()?;
            return Ok(Ty::Forall(vars, Box::new(body)));
        }
        if self.at_kw("list") {
            self.bump();
            let inner = self.ty_atom()?;
            return Ok(Ty::List(Box::new(inner)));
        }
        self.ty_atom()
    }

    fn ty_atom(&mut self) -> Result<Ty, ParseError> {
        if self.eat_kw("int") {
            return Ok(Ty::Int);
        }
        if self.eat_kw("bool") {
            return Ok(Ty::Bool);
        }
        if self.at_kw("tuple") {
            self.bump();
            self.expect(TokenKind::LParen, "`(`")?;
            let items = self.comma_tys(TokenKind::RParen)?;
            self.expect(TokenKind::RParen, "`)`")?;
            return Ok(Ty::Tuple(items));
        }
        if self.eat(TokenKind::LParen) {
            let t = self.ty()?;
            self.expect(TokenKind::RParen, "`)`")?;
            return Ok(t);
        }
        let name = self.ident("a type")?;
        Ok(Ty::Var(name))
    }

    fn comma_tys(&mut self, terminator: TokenKind) -> Result<Vec<Ty>, ParseError> {
        let mut out = Vec::new();
        if self.at(terminator) {
            return Ok(out);
        }
        out.push(self.ty()?);
        while self.eat(TokenKind::Comma) {
            out.push(self.ty()?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------ terms

    pub(crate) fn term(&mut self) -> Result<Term, ParseError> {
        self.descend()?;
        let out = self.term_rec();
        self.ascend();
        out
    }

    fn term_rec(&mut self) -> Result<Term, ParseError> {
        if self.at_kw("lam") {
            self.bump();
            let mut params = Vec::new();
            loop {
                let x = self.ident("parameter name")?;
                self.expect(TokenKind::Colon, "`:`")?;
                let ty = self.ty()?;
                params.push((x, ty));
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::Dot, "`.`")?;
            let body = self.term()?;
            return Ok(Term::Lam(params, Box::new(body)));
        }
        if self.at_kw("biglam") {
            self.bump();
            let mut vars = vec![self.ident("type variable")?];
            while self.eat(TokenKind::Comma) {
                vars.push(self.ident("type variable")?);
            }
            self.expect(TokenKind::Dot, "`.`")?;
            let body = self.term()?;
            return Ok(Term::TyAbs(vars, Box::new(body)));
        }
        if self.at_kw("let") {
            self.bump();
            let x = self.ident("binding name")?;
            self.expect(TokenKind::Eq, "`=`")?;
            let bound = self.term()?;
            self.expect_kw("in")?;
            let body = self.term()?;
            return Ok(Term::let_(x, bound, body));
        }
        if self.at_kw("if") {
            self.bump();
            let c = self.term()?;
            self.expect_kw("then")?;
            let t = self.term()?;
            self.expect_kw("else")?;
            let e = self.term()?;
            return Ok(Term::if_(c, t, e));
        }
        if self.at_kw("fix") {
            self.bump();
            let x = self.ident("binding name")?;
            self.expect(TokenKind::Colon, "`:`")?;
            let ty = self.ty()?;
            self.expect(TokenKind::Dot, "`.`")?;
            let body = self.term()?;
            return Ok(Term::Fix(x, ty, Box::new(body)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Term, ParseError> {
        let mut e = self.atom()?;
        loop {
            if self.eat(TokenKind::LParen) {
                let mut args = Vec::new();
                if !self.at(TokenKind::RParen) {
                    args.push(self.term()?);
                    while self.eat(TokenKind::Comma) {
                        args.push(self.term()?);
                    }
                }
                self.expect(TokenKind::RParen, "`)`")?;
                e = Term::App(Box::new(e), args);
            } else if self.eat(TokenKind::LBracket) {
                let mut tys = vec![self.ty()?];
                while self.eat(TokenKind::Comma) {
                    tys.push(self.ty()?);
                }
                self.expect(TokenKind::RBracket, "`]`")?;
                e = Term::TyApp(Box::new(e), tys);
            } else if self.at(TokenKind::Dot) {
                // Projection: `.` followed by an integer index.
                let save = self.pos;
                self.bump();
                match self.peek().kind {
                    TokenKind::Int(n) if n >= 0 => {
                        self.bump();
                        e = Term::Nth(Box::new(e), n as usize);
                    }
                    _ => {
                        self.pos = save;
                        break;
                    }
                }
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Term, ParseError> {
        match self.peek().kind {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Term::IntLit(n))
            }
            TokenKind::LParen => {
                self.bump();
                // `(-N)` is a negative literal.
                if self.eat(TokenKind::Minus) {
                    let tok = self.peek();
                    if let TokenKind::Int(n) = tok.kind {
                        self.bump();
                        self.expect(TokenKind::RParen, "`)`")?;
                        return Ok(Term::IntLit(-n));
                    }
                    return Err(self.unexpected("integer literal after `-`"));
                }
                let e = self.term()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident(s) => {
                let name = s.as_str();
                if name == "true" {
                    self.bump();
                    return Ok(Term::BoolLit(true));
                }
                if name == "false" {
                    self.bump();
                    return Ok(Term::BoolLit(false));
                }
                if name == "tuple" {
                    self.bump();
                    self.expect(TokenKind::LParen, "`(`")?;
                    let mut items = Vec::new();
                    if !self.at(TokenKind::RParen) {
                        items.push(self.term()?);
                        while self.eat(TokenKind::Comma) {
                            items.push(self.term()?);
                        }
                    }
                    self.expect(TokenKind::RParen, "`)`")?;
                    return Ok(Term::Tuple(items));
                }
                self.bump();
                if let Some(p) = Prim::from_name(name) {
                    return Ok(Term::Prim(p));
                }
                Ok(Term::Var(s))
            }
            _ => Err(self.unexpected("a term")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, typecheck, Value};

    #[test]
    fn parses_and_runs_arithmetic() {
        let e = parse_term("iadd(1, imult(2, 3))").unwrap();
        assert_eq!(eval(&e), Ok(Value::Int(7)));
    }

    #[test]
    fn parses_lambda_and_application() {
        let e = parse_term("(lam x: int, y: int. isub(x, y))(10, 4)").unwrap();
        assert_eq!(typecheck(&e), Ok(Ty::Int));
        assert_eq!(eval(&e), Ok(Value::Int(6)));
    }

    #[test]
    fn parses_polymorphism() {
        let e = parse_term("(biglam t. lam x: t. x)[int](5)").unwrap();
        assert_eq!(typecheck(&e), Ok(Ty::Int));
        assert_eq!(eval(&e), Ok(Value::Int(5)));
    }

    #[test]
    fn parses_let_if_fix() {
        let src = "let f = fix go: fn(int) -> int. \
                     lam n: int. if ile(n, 0) then 0 else iadd(n, go(isub(n, 1))) \
                   in f(4)";
        let e = parse_term(src).unwrap();
        assert_eq!(typecheck(&e), Ok(Ty::Int));
        assert_eq!(eval(&e), Ok(Value::Int(10)));
    }

    #[test]
    fn parses_tuples_and_projection() {
        let e = parse_term("tuple(1, tuple(true, 2)).1.0").unwrap();
        assert_eq!(typecheck(&e), Ok(Ty::Bool));
        assert_eq!(eval(&e), Ok(Value::Bool(true)));
    }

    #[test]
    fn parses_types() {
        assert_eq!(parse_ty("int").unwrap(), Ty::Int);
        assert_eq!(
            parse_ty("fn(int, bool) -> list int").unwrap(),
            Ty::func(vec![Ty::Int, Ty::Bool], Ty::list(Ty::Int))
        );
        let t = parse_ty("forall t. fn(t) -> t").unwrap();
        assert!(matches!(t, Ty::Forall(..)));
        assert_eq!(
            parse_ty("tuple(fn(int) -> int, int)").unwrap(),
            Ty::Tuple(vec![Ty::func(vec![Ty::Int], Ty::Int), Ty::Int])
        );
    }

    #[test]
    fn parses_negative_literals() {
        let e = parse_term("iadd((-3), 5)").unwrap();
        assert_eq!(eval(&e), Ok(Value::Int(2)));
    }

    #[test]
    fn parses_list_primitives() {
        let e = parse_term("car[int](cons[int](7, nil[int]))").unwrap();
        assert_eq!(typecheck(&e), Ok(Ty::Int));
        assert_eq!(eval(&e), Ok(Value::Int(7)));
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(matches!(
            parse_term("1 2"),
            Err(ParseError::TrailingInput(_))
        ));
    }

    #[test]
    fn error_messages_mention_expectation() {
        let err = parse_term("lam x int. x").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`:`"), "unhelpful message: {msg}");
    }

    #[test]
    fn figure_3_concrete_syntax() {
        // Figure 3 of the paper: the higher-order sum in System F, here
        // with fix for the paper's recursion and [int] instantiation.
        let src = r#"
            let sum = biglam t.
              fix sum: fn(list t, fn(t, t) -> t, t) -> t.
                lam ls: list t, add: fn(t, t) -> t, zero: t.
                  if null[t](ls) then zero
                  else add(car[t](ls), sum(cdr[t](ls), add, zero))
            in
            let ls = cons[int](1, cons[int](2, nil[int])) in
            sum[int](ls, iadd, 0)
        "#;
        let e = parse_term(src).unwrap();
        assert_eq!(typecheck(&e), Ok(Ty::Int));
        assert_eq!(eval(&e), Ok(Value::Int(3)));
    }
}
