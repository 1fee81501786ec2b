//! A recursive-descent parser for the F_G concrete syntax.
//!
//! The syntax follows the paper's Figures 4 and 11, rendered in ASCII:
//!
//! ```text
//! concept Monoid<t> {
//!     refines Semigroup<t>;
//!     identity_elt : t;
//! } in
//! model Monoid<int> { identity_elt = 0; } in
//! let accumulate = biglam t where Monoid<t>. /* ... */ in
//! accumulate[int](ls)
//! ```
//!
//! Grammar sketch (see the module tests for worked examples):
//!
//! ```text
//! expr ::= 'concept' C '<' t̄ '>' '{' citem* '}' 'in' expr
//!        | 'model' C '<' τ̄ '>' '{' mitem* '}' 'in' expr
//!        | 'type' t '=' τ 'in' expr
//!        | 'lam' (x ':' τ),+ '.' expr
//!        | 'biglam' t̄ ['where' constraint,+] '.' expr
//!        | 'let' x '=' expr 'in' expr
//!        | 'if' expr 'then' expr 'else' expr
//!        | 'fix' x ':' τ '.' expr
//!        | postfix
//! citem ::= 'types' s̄ ';' | 'refines' C '<' τ̄ '>' ';'
//!         | 'require' C '<' τ̄ '>' ';' | 'same' τ '==' τ ';'
//!         | x ':' τ [ '=' expr ] ';'
//! mitem ::= 'types' s '=' τ ';' | x '=' expr ';'
//! constraint ::= C '<' τ̄ '>' | τ '==' τ
//! τ ::= 'fn' '(' τ̄ ')' '->' τ | 'forall' t̄ ['where' …] '.' τ
//!     | 'list' τатом | 'int' | 'bool' | t | C '<' τ̄ '>' '.' s | '(' τ ')'
//! postfix ::= atom ( '(' expr,* ')' | '[' τ,+ ']' )*
//! atom ::= INT | '(' '-' INT ')' | 'true' | 'false' | x
//!        | C '<' τ̄ '>' '.' x | '(' expr ')'
//! ```

use std::sync::Arc;

use system_f::lexer::{lex, lex_at, Span, Token, TokenKind};
use system_f::{ParseError, Prim, Symbol};
use telemetry::limits::{Budget, Resource};

/// Hard ceiling on parser recursion even without a budget: deep enough
/// for any real program, shallow enough that pathological nesting
/// cannot overflow an 8 MB thread stack.
const PARSE_DEPTH_FALLBACK: usize = 10_000;

use crate::ast::{
    ConceptDecl, ConceptItem, Constraint, Expr, ExprKind, FgTy, ModelDecl, ModelItem,
};

/// Names that cannot be used as variables or member names.
const KEYWORDS: &[&str] = &[
    "concept", "model", "refines", "require", "requires", "types", "same", "where", "lam",
    "biglam", "let", "in", "if", "then", "else", "fix", "type", "forall", "fn", "list", "int",
    "bool", "true", "false",
];

/// Parses a complete F_G program (a single expression).
///
/// # Errors
///
/// Returns a [`ParseError`] (shared with the System F parser) on malformed
/// input, including trailing tokens.
///
/// ```
/// use fg::parser::parse_expr;
///
/// let e = parse_expr("let x = 1 in iadd(x, 2)")?;
/// # Ok::<(), system_f::ParseError>(())
/// ```
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = FgParser::new(tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// [`parse_expr`] with a shared resource budget: nesting beyond the
/// budget's `max_depth` (or the parser's stack-safety ceiling,
/// whichever is lower) fails with [`ParseError::TooDeep`] and latches
/// the budget, instead of risking a stack overflow.
///
/// # Errors
///
/// As [`parse_expr`], plus [`ParseError::TooDeep`].
pub fn parse_expr_budgeted(src: &str, budget: Arc<Budget>) -> Result<Expr, ParseError> {
    parse_expr_at(src, 0, budget)
}

/// [`parse_expr_budgeted`] for a program body that starts `base` bytes
/// into a larger source (behind a [`crate::prefix::Prefix`]): spans and
/// error positions are those the body has in the whole text.
///
/// # Errors
///
/// As [`parse_expr_budgeted`].
pub fn parse_expr_at(src: &str, base: usize, budget: Arc<Budget>) -> Result<Expr, ParseError> {
    if let Some(mode) = telemetry::fault::hit("parse") {
        match mode {
            telemetry::fault::FaultMode::Error => {
                budget.trip(Resource::Injected, 0);
                return Err(ParseError::TooDeep {
                    span: Span::default(),
                    limit: 0,
                });
            }
            telemetry::fault::FaultMode::Panic => panic!("injected fault panic at parse"),
        }
    }
    parse_tokens(lex_at(src, base)?, budget, false)
}

/// Parses a declaration prefix: a chain of `concept`, `model`, `type`
/// and `let` declarations, each ending in `in`, that stops at the end of
/// the input (the empty chain is the empty input). The result is that
/// chain with [`Expr::hole`] as its innermost body. Only the chain itself
/// may end at the hole: a declaration nested inside a term still needs
/// its body.
///
/// # Errors
///
/// As [`parse_expr_budgeted`]. Unlike it, this visits no fault point:
/// a prefix is library text, parsed apart from any request.
pub fn parse_prefix(src: &str, budget: Arc<Budget>) -> Result<Expr, ParseError> {
    parse_tokens(lex(src)?, budget, true)
}

/// Parses all of `tokens` as one expression under `budget`; `spine`
/// parses it as a prefix's declaration chain.
fn parse_tokens(tokens: Vec<Token>, budget: Arc<Budget>, spine: bool) -> Result<Expr, ParseError> {
    let mut p = FgParser::new(tokens);
    p.set_budget(budget);
    p.spine = spine;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parses a complete F_G type.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing tokens.
pub fn parse_fg_ty(src: &str) -> Result<FgTy, ParseError> {
    let tokens = lex(src)?;
    let mut p = FgParser::new(tokens);
    let t = p.ty()?;
    p.expect_eof()?;
    Ok(t)
}

struct FgParser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
    depth_limit: usize,
    budget: Option<Arc<Budget>>,
    /// Set while the next expression is on the declaration chain of a
    /// prefix ([`parse_prefix`]), where end of input is the hole.
    spine: bool,
}

impl FgParser {
    fn new(tokens: Vec<Token>) -> FgParser {
        FgParser {
            tokens,
            pos: 0,
            depth: 0,
            depth_limit: PARSE_DEPTH_FALLBACK,
            budget: None,
            spine: false,
        }
    }

    /// Attaches a budget: its `max_depth` (clamped by the stack-safety
    /// ceiling) bounds recursion, and exhaustion is latched on it.
    fn set_budget(&mut self, budget: Arc<Budget>) {
        self.depth_limit = budget.limits().max_depth.map_or(PARSE_DEPTH_FALLBACK, |d| {
            usize::try_from(d)
                .unwrap_or(PARSE_DEPTH_FALLBACK)
                .min(PARSE_DEPTH_FALLBACK)
        });
        self.budget = Some(budget);
    }

    /// Enters one level of grammar recursion; pair with `ascend`.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > self.depth_limit {
            let limit = self.depth_limit as u64;
            if let Some(b) = &self.budget {
                b.trip(Resource::Depth, limit);
            }
            return Err(ParseError::TooDeep {
                span: self.peek().span,
                limit,
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

    fn peek_at(&self, offset: usize) -> TokenKind {
        self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].kind
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

    /// An identifier that is not a keyword.
    fn ident(&mut self, expected: &'static str) -> Result<Symbol, ParseError> {
        match self.peek().kind {
            TokenKind::Ident(s) if !KEYWORDS.contains(&s.as_str()) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    // -------------------------------------------------------------- types

    fn ty(&mut self) -> Result<FgTy, ParseError> {
        self.descend()?;
        let out = self.ty_rec();
        self.ascend();
        out
    }

    fn ty_rec(&mut self) -> Result<FgTy, ParseError> {
        if self.at_kw("fn") {
            self.bump();
            self.expect(TokenKind::LParen, "`(`")?;
            let mut params = Vec::new();
            if !self.at(TokenKind::RParen) {
                params.push(self.ty()?);
                while self.eat(TokenKind::Comma) {
                    params.push(self.ty()?);
                }
            }
            self.expect(TokenKind::RParen, "`)`")?;
            self.expect(TokenKind::Arrow, "`->`")?;
            let ret = self.ty()?;
            return Ok(FgTy::Fn(params, Box::new(ret)));
        }
        if self.at_kw("forall") {
            self.bump();
            let (vars, constraints) = self.binders_and_where()?;
            self.expect(TokenKind::Dot, "`.`")?;
            let body = self.ty()?;
            return Ok(FgTy::Forall {
                vars,
                constraints,
                body: Box::new(body),
            });
        }
        if self.at_kw("list") {
            self.bump();
            let inner = self.ty_atom()?;
            return Ok(FgTy::List(Box::new(inner)));
        }
        self.ty_atom()
    }

    fn ty_atom(&mut self) -> Result<FgTy, ParseError> {
        if self.eat_kw("int") {
            return Ok(FgTy::Int);
        }
        if self.eat_kw("bool") {
            return Ok(FgTy::Bool);
        }
        if self.eat(TokenKind::LParen) {
            let t = self.ty()?;
            self.expect(TokenKind::RParen, "`)`")?;
            return Ok(t);
        }
        let name = self.ident("a type")?;
        if self.at(TokenKind::Lt) {
            // Associated-type projection C<τ̄>.s
            let args = self.ty_args()?;
            self.expect(TokenKind::Dot, "`.` (associated type projection)")?;
            let member = self.ident("associated type name")?;
            return Ok(FgTy::Assoc {
                concept: name,
                args,
                name: member,
            });
        }
        Ok(FgTy::Var(name))
    }

    /// Parses `<τ₁, …, τₙ>` (the `<` must be current).
    fn ty_args(&mut self) -> Result<Vec<FgTy>, ParseError> {
        self.expect(TokenKind::Lt, "`<`")?;
        let mut args = vec![self.ty()?];
        while self.eat(TokenKind::Comma) {
            args.push(self.ty()?);
        }
        self.expect(TokenKind::Gt, "`>`")?;
        Ok(args)
    }

    /// Parses `t̄ [where constraint,+]` for `forall` and `biglam`.
    fn binders_and_where(&mut self) -> Result<(Vec<Symbol>, Vec<Constraint>), ParseError> {
        let mut vars = vec![self.ident("type variable")?];
        while self.eat(TokenKind::Comma) {
            vars.push(self.ident("type variable")?);
        }
        let mut constraints = Vec::new();
        if self.eat_kw("where") {
            constraints.push(self.constraint()?);
            while self.eat(TokenKind::Comma) || self.eat(TokenKind::Semi) {
                constraints.push(self.constraint()?);
            }
        }
        Ok((vars, constraints))
    }

    fn constraint(&mut self) -> Result<Constraint, ParseError> {
        // Concept application `C<τ̄>` — possibly the left side of a
        // same-type constraint `C<τ̄>.s == τ`.
        if matches!(self.peek().kind, TokenKind::Ident(s) if !KEYWORDS.contains(&s.as_str()))
            && self.peek_at(1) == TokenKind::Lt
        {
            let name = self.ident("concept name")?;
            let args = self.ty_args()?;
            // Lookahead: `.` ident `==` continues into a same-type
            // constraint; a bare `.` terminates the where clause instead.
            if self.at(TokenKind::Dot)
                && matches!(self.peek_at(1), TokenKind::Ident(_))
                && self.peek_at(2) == TokenKind::EqEq
            {
                self.bump(); // `.`
                let member = self.ident("associated type name")?;
                let lhs = FgTy::Assoc {
                    concept: name,
                    args,
                    name: member,
                };
                self.expect(TokenKind::EqEq, "`==`")?;
                let rhs = self.ty()?;
                return Ok(Constraint::SameTy(lhs, rhs));
            }
            return Ok(Constraint::Model {
                concept: name,
                args,
            });
        }
        let lhs = self.ty()?;
        self.expect(TokenKind::EqEq, "`==`")?;
        let rhs = self.ty()?;
        Ok(Constraint::SameTy(lhs, rhs))
    }

    // -------------------------------------------------------------- terms

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let out = self.expr_rec();
        self.ascend();
        out
    }

    /// The body a declaration scopes over: a prefix's chain continues
    /// into it.
    fn decl_body(&mut self, on_spine: bool) -> Result<Expr, ParseError> {
        self.spine = on_spine;
        self.expr()
    }

    fn expr_rec(&mut self) -> Result<Expr, ParseError> {
        let on_spine = std::mem::take(&mut self.spine);
        let start = self.peek().span;
        if on_spine && self.at(TokenKind::Eof) {
            return Ok(Expr::hole(start));
        }
        if self.at_kw("concept") {
            self.bump();
            let decl = self.concept_decl(start)?;
            self.expect_kw("in")?;
            let body = self.decl_body(on_spine)?;
            return Ok(Expr::spanned(
                ExprKind::Concept(Box::new(decl), Box::new(body)),
                start,
            ));
        }
        if self.at_kw("model") {
            self.bump();
            let decl = self.model_decl(start)?;
            self.expect_kw("in")?;
            let body = self.decl_body(on_spine)?;
            return Ok(Expr::spanned(
                ExprKind::Model(Box::new(decl), Box::new(body)),
                start,
            ));
        }
        if self.at_kw("type") {
            self.bump();
            let name = self.ident("type alias name")?;
            self.expect(TokenKind::Eq, "`=`")?;
            let ty = self.ty()?;
            self.expect_kw("in")?;
            let body = self.decl_body(on_spine)?;
            return Ok(Expr::spanned(
                ExprKind::TypeAlias(name, ty, Box::new(body)),
                start,
            ));
        }
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
            let body = self.expr()?;
            return Ok(Expr::spanned(ExprKind::Lam(params, Box::new(body)), start));
        }
        if self.at_kw("biglam") {
            self.bump();
            let (vars, constraints) = self.binders_and_where()?;
            self.expect(TokenKind::Dot, "`.`")?;
            let body = self.expr()?;
            return Ok(Expr::spanned(
                ExprKind::TyAbs {
                    vars,
                    constraints,
                    body: Box::new(body),
                },
                start,
            ));
        }
        if self.at_kw("let") {
            self.bump();
            let x = self.ident("binding name")?;
            self.expect(TokenKind::Eq, "`=`")?;
            let bound = self.expr()?;
            self.expect_kw("in")?;
            let body = self.decl_body(on_spine)?;
            return Ok(Expr::spanned(
                ExprKind::Let(x, Box::new(bound), Box::new(body)),
                start,
            ));
        }
        if self.at_kw("if") {
            self.bump();
            let c = self.expr()?;
            self.expect_kw("then")?;
            let t = self.expr()?;
            self.expect_kw("else")?;
            let e = self.expr()?;
            return Ok(Expr::spanned(
                ExprKind::If(Box::new(c), Box::new(t), Box::new(e)),
                start,
            ));
        }
        if self.at_kw("fix") {
            self.bump();
            let x = self.ident("binding name")?;
            self.expect(TokenKind::Colon, "`:`")?;
            let ty = self.ty()?;
            self.expect(TokenKind::Dot, "`.`")?;
            let body = self.expr()?;
            return Ok(Expr::spanned(ExprKind::Fix(x, ty, Box::new(body)), start));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let start = self.peek().span;
        let mut e = self.atom()?;
        loop {
            if self.eat(TokenKind::LParen) {
                let mut args = Vec::new();
                if !self.at(TokenKind::RParen) {
                    args.push(self.expr()?);
                    while self.eat(TokenKind::Comma) {
                        args.push(self.expr()?);
                    }
                }
                self.expect(TokenKind::RParen, "`)`")?;
                e = Expr::spanned(ExprKind::App(Box::new(e), args), start);
            } else if self.eat(TokenKind::LBracket) {
                let mut tys = vec![self.ty()?];
                while self.eat(TokenKind::Comma) {
                    tys.push(self.ty()?);
                }
                self.expect(TokenKind::RBracket, "`]`")?;
                e = Expr::spanned(ExprKind::TyApp(Box::new(e), tys), start);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        match self.peek().kind {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::spanned(ExprKind::IntLit(n), span))
            }
            TokenKind::LParen => {
                self.bump();
                if self.eat(TokenKind::Minus) {
                    let tok = self.peek();
                    if let TokenKind::Int(n) = tok.kind {
                        self.bump();
                        self.expect(TokenKind::RParen, "`)`")?;
                        return Ok(Expr::spanned(ExprKind::IntLit(-n), span));
                    }
                    return Err(self.unexpected("integer literal after `-`"));
                }
                let e = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident(s) => {
                let name = s.as_str();
                if name == "true" {
                    self.bump();
                    return Ok(Expr::spanned(ExprKind::BoolLit(true), span));
                }
                if name == "false" {
                    self.bump();
                    return Ok(Expr::spanned(ExprKind::BoolLit(false), span));
                }
                if KEYWORDS.contains(&name) {
                    return Err(self.unexpected("a term"));
                }
                self.bump();
                if self.at(TokenKind::Lt) {
                    // Member access `C<τ̄>.x`.
                    let args = self.ty_args()?;
                    self.expect(TokenKind::Dot, "`.` (model member access)")?;
                    let member = self.ident("member name")?;
                    return Ok(Expr::spanned(
                        ExprKind::MemberAccess {
                            concept: s,
                            args,
                            member,
                        },
                        span,
                    ));
                }
                if let Some(p) = Prim::from_name(name) {
                    return Ok(Expr::spanned(ExprKind::Prim(p), span));
                }
                Ok(Expr::spanned(ExprKind::Var(s), span))
            }
            _ => Err(self.unexpected("a term")),
        }
    }

    // ------------------------------------------------------ declarations

    fn concept_decl(&mut self, span: Span) -> Result<ConceptDecl, ParseError> {
        let name = self.ident("concept name")?;
        self.expect(TokenKind::Lt, "`<`")?;
        let mut params = vec![self.ident("type parameter")?];
        while self.eat(TokenKind::Comma) {
            params.push(self.ident("type parameter")?);
        }
        self.expect(TokenKind::Gt, "`>`")?;
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut items = Vec::new();
        while !self.at(TokenKind::RBrace) {
            items.push(self.concept_item()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(ConceptDecl {
            name,
            params,
            items,
            span,
        })
    }

    fn concept_item(&mut self) -> Result<ConceptItem, ParseError> {
        if self.eat_kw("types") {
            let mut names = vec![self.ident("associated type name")?];
            while self.eat(TokenKind::Comma) {
                names.push(self.ident("associated type name")?);
            }
            self.expect(TokenKind::Semi, "`;`")?;
            return Ok(ConceptItem::AssocTypes(names));
        }
        if self.eat_kw("refines") {
            let concept = self.ident("concept name")?;
            let args = self.ty_args()?;
            self.expect(TokenKind::Semi, "`;`")?;
            return Ok(ConceptItem::Refines { concept, args });
        }
        if self.eat_kw("require") || self.eat_kw("requires") {
            let concept = self.ident("concept name")?;
            let args = self.ty_args()?;
            self.expect(TokenKind::Semi, "`;`")?;
            return Ok(ConceptItem::Requires { concept, args });
        }
        if self.eat_kw("same") {
            let lhs = self.ty()?;
            self.expect(TokenKind::EqEq, "`==`")?;
            let rhs = self.ty()?;
            self.expect(TokenKind::Semi, "`;`")?;
            return Ok(ConceptItem::Same(lhs, rhs));
        }
        let name = self.ident("member name")?;
        self.expect(TokenKind::Colon, "`:`")?;
        let ty = self.ty()?;
        let default = if self.eat(TokenKind::Eq) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(ConceptItem::Member { name, ty, default })
    }

    fn model_decl(&mut self, span: Span) -> Result<ModelDecl, ParseError> {
        // Parameterized model: `model forall t̄ [where …]. C<patterns> { … }`.
        let (params, constraints) = if self.eat_kw("forall") {
            let (vars, constraints) = self.binders_and_where()?;
            self.expect(TokenKind::Dot, "`.`")?;
            (vars, constraints)
        } else {
            (Vec::new(), Vec::new())
        };
        let concept = self.ident("concept name")?;
        let args = self.ty_args()?;
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut items = Vec::new();
        while !self.at(TokenKind::RBrace) {
            if self.eat_kw("types") || self.eat_kw("type") {
                let name = self.ident("associated type name")?;
                self.expect(TokenKind::Eq, "`=`")?;
                let ty = self.ty()?;
                self.expect(TokenKind::Semi, "`;`")?;
                items.push(ModelItem::AssocType(name, ty));
            } else {
                let name = self.ident("member name")?;
                self.expect(TokenKind::Eq, "`=`")?;
                let e = self.expr()?;
                self.expect(TokenKind::Semi, "`;`")?;
                items.push(ModelItem::Member(name, e));
            }
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(ModelDecl {
            params,
            constraints,
            concept,
            args,
            items,
            span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_terms() {
        let e = parse_expr("iadd(1, 2)").unwrap();
        assert!(matches!(e.kind, ExprKind::App(..)));
        let e = parse_expr("let x = 1 in x").unwrap();
        assert!(matches!(e.kind, ExprKind::Let(..)));
    }

    #[test]
    fn parses_concept_declaration() {
        let src = "concept Semigroup<t> { binary_op : fn(t, t) -> t; } in 1";
        let e = parse_expr(src).unwrap();
        let ExprKind::Concept(decl, _) = e.kind else {
            panic!("not a concept: {e:?}");
        };
        assert_eq!(decl.name.as_str(), "Semigroup");
        assert_eq!(decl.params.len(), 1);
        assert_eq!(decl.items.len(), 1);
        assert!(matches!(decl.items[0], ConceptItem::Member { .. }));
    }

    #[test]
    fn parses_refinement_and_assoc_types() {
        let src = "concept Iterator<Iter> {
            types elt;
            next : fn(Iter) -> Iter;
            curr : fn(Iter) -> Iterator<Iter>.elt;
            at_end : fn(Iter) -> bool;
        } in
        concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in 1";
        let e = parse_expr(src).unwrap();
        let ExprKind::Concept(it, rest) = e.kind else {
            panic!()
        };
        assert!(matches!(it.items[0], ConceptItem::AssocTypes(_)));
        let ExprKind::Concept(monoid, _) = rest.kind else {
            panic!()
        };
        assert!(matches!(monoid.items[0], ConceptItem::Refines { .. }));
    }

    #[test]
    fn parses_model_declaration() {
        let src = "model Iterator<list int> {
            types elt = int;
            next = lam ls: list int. cdr[int](ls);
            curr = lam ls: list int. car[int](ls);
            at_end = lam ls: list int. null[int](ls);
        } in 1";
        let e = parse_expr(src).unwrap();
        let ExprKind::Model(decl, _) = e.kind else {
            panic!()
        };
        assert_eq!(decl.concept.as_str(), "Iterator");
        assert_eq!(decl.args, vec![FgTy::list(FgTy::Int)]);
        assert_eq!(decl.items.len(), 4);
        assert!(matches!(decl.items[0], ModelItem::AssocType(..)));
    }

    #[test]
    fn parses_biglam_with_where_clause() {
        let e = parse_expr("biglam t where Monoid<t>. lam x: t. x").unwrap();
        let ExprKind::TyAbs {
            vars, constraints, ..
        } = e.kind
        else {
            panic!()
        };
        assert_eq!(vars.len(), 1);
        assert!(matches!(constraints[0], Constraint::Model { .. }));
    }

    #[test]
    fn parses_same_type_constraints() {
        let e = parse_expr(
            "biglam i1, i2 where Iterator<i1>, Iterator<i2>, \
             Iterator<i1>.elt == Iterator<i2>.elt. 1",
        )
        .unwrap();
        let ExprKind::TyAbs { constraints, .. } = e.kind else {
            panic!()
        };
        assert_eq!(constraints.len(), 3);
        assert!(matches!(constraints[2], Constraint::SameTy(..)));
    }

    #[test]
    fn where_clause_dot_terminator_is_not_a_projection() {
        // After `Monoid<t>` the `.` ends the where clause even though the
        // body starts with an identifier.
        let e = parse_expr("biglam t where Monoid<t>. x").unwrap();
        let ExprKind::TyAbs {
            constraints, body, ..
        } = e.kind
        else {
            panic!()
        };
        assert_eq!(constraints.len(), 1);
        assert!(matches!(body.kind, ExprKind::Var(_)));
    }

    #[test]
    fn parses_member_access() {
        let e = parse_expr("Monoid<int>.binary_op").unwrap();
        let ExprKind::MemberAccess {
            concept,
            args,
            member,
        } = e.kind
        else {
            panic!()
        };
        assert_eq!(concept.as_str(), "Monoid");
        assert_eq!(args, vec![FgTy::Int]);
        assert_eq!(member.as_str(), "binary_op");
    }

    #[test]
    fn parses_member_access_with_assoc_args() {
        let e = parse_expr("Monoid<Iterator<Iter>.elt>.identity_elt").unwrap();
        let ExprKind::MemberAccess { args, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(args[0], FgTy::Assoc { .. }));
    }

    #[test]
    fn parses_type_alias() {
        let e = parse_expr("type pair = fn(int) -> int in 1").unwrap();
        assert!(matches!(e.kind, ExprKind::TypeAlias(..)));
    }

    #[test]
    fn parses_forall_types_with_where() {
        let t = parse_fg_ty("forall t where Monoid<t>. fn(list t) -> t").unwrap();
        let FgTy::Forall {
            vars,
            constraints,
            body,
        } = t
        else {
            panic!()
        };
        assert_eq!(vars.len(), 1);
        assert_eq!(constraints.len(), 1);
        assert!(matches!(*body, FgTy::Fn(..)));
    }

    #[test]
    fn parses_assoc_projection_types() {
        let t = parse_fg_ty("Iterator<Iter>.elt").unwrap();
        assert!(matches!(t, FgTy::Assoc { .. }));
        let t = parse_fg_ty("fn(Iter) -> Iterator<Iter>.elt").unwrap();
        let FgTy::Fn(_, ret) = t else { panic!() };
        assert!(matches!(*ret, FgTy::Assoc { .. }));
    }

    #[test]
    fn parses_defaults_and_requires() {
        let src = "concept Container<c> {
            types iter;
            require Iterator<Container<c>.iter>;
            empty : fn(c) -> bool = lam x: c. true;
        } in 1";
        let e = parse_expr(src).unwrap();
        let ExprKind::Concept(decl, _) = e.kind else {
            panic!()
        };
        assert!(matches!(decl.items[1], ConceptItem::Requires { .. }));
        let ConceptItem::Member { default, .. } = &decl.items[2] else {
            panic!()
        };
        assert!(default.is_some());
    }

    #[test]
    fn keywords_rejected_as_identifiers() {
        assert!(parse_expr("let concept = 1 in concept").is_err());
        assert!(parse_expr("lam where: int. where").is_err());
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(matches!(
            parse_expr("1 1"),
            Err(ParseError::TrailingInput(_))
        ));
    }

    #[test]
    fn figure_5_parses() {
        let src = r#"
            concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
            concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
            let accumulate =
              biglam t where Monoid<t>.
                fix accum: fn(list t) -> t.
                  lam ls: list t.
                    let binary_op = Monoid<t>.binary_op in
                    let identity_elt = Monoid<t>.identity_elt in
                    if null[t](ls) then identity_elt
                    else binary_op(car[t](ls), accum(cdr[t](ls)))
            in
            model Semigroup<int> { binary_op = iadd; } in
            model Monoid<int> { identity_elt = 0; } in
            let ls = cons[int](1, cons[int](2, nil[int])) in
            accumulate[int](ls)
        "#;
        let e = parse_expr(src).unwrap();
        assert!(matches!(e.kind, ExprKind::Concept(..)));
    }

    #[test]
    fn malformed_inputs_report_expectations() {
        let cases: &[(&str, &str)] = &[
            ("concept <t> { } in 1", "concept name"),
            ("concept C<> { } in 1", "type parameter"),
            ("concept C<t> { op fn(t) -> t; } in 1", "`:`"),
            ("concept C<t> { op : fn(t) -> t } in 1", "`;`"),
            ("model C<int> { op = 1 } in 1", "`;`"),
            ("model forall . C<int> { } in 1", "type variable"),
            ("biglam t where . 1", "a type"),
            ("lam x: . x", "a type"),
            ("let = 1 in 2", "binding name"),
            ("type = int in 1", "type alias name"),
            ("C<int>.1", "member name"),
            ("fix f fn(int) -> int. f", "`:`"),
        ];
        for (src, expected) in cases {
            let err = parse_expr(src).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(expected),
                "{src}: expected mention of {expected:?}, got {msg}"
            );
        }
    }

    #[test]
    fn parse_error_spans_point_at_the_problem() {
        let src = "let x = 1 in
@";
        let err = parse_expr(src).unwrap_err();
        match err {
            ParseError::Lex(system_f::lexer::LexError::UnexpectedChar { ch, at }) => {
                assert_eq!(ch, '@');
                assert_eq!(at, 13);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn spans_attach_to_expressions() {
        let src = "iadd(1, 2)";
        let e = parse_expr(src).unwrap();
        assert_eq!(&src[e.span.start..e.span.start + 4], "iadd");
    }

    #[test]
    fn empty_concept_and_model_bodies_parse() {
        let e = parse_expr("concept C<t> { } in model C<int> { } in 1").unwrap();
        let ExprKind::Concept(decl, _) = e.kind else { panic!() };
        assert!(decl.items.is_empty());
    }

    #[test]
    fn deeply_nested_parens_parse() {
        let mut src = String::from("1");
        for _ in 0..64 {
            src = format!("({src})");
        }
        assert!(parse_expr(&src).is_ok());
    }

    #[test]
    fn same_constraint_with_semicolon_separator() {
        let e = parse_expr(
            "biglam i1, i2 where Iterator<i1>, Iterator<i2>; \
             Iterator<i1>.elt == Iterator<i2>.elt. 1",
        )
        .unwrap();
        let ExprKind::TyAbs { constraints, .. } = e.kind else {
            panic!()
        };
        assert_eq!(constraints.len(), 3);
    }
}
