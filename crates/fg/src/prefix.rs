//! Declaration prefixes, checked once and reused by many program bodies.
//!
//! F_G's concepts and models are lexically scoped (the paper's Figure 6),
//! so a library written as a chain of declarations — `concept … in model
//! … in let … in` — fixes the whole concept and model environment at the
//! point where a program body begins. That is the one-unit core of
//! separately checked units ("A Language for Generic Programming in the
//! Large"): the library can be checked once.
//!
//! * A [`Prefix`] is such a chain, parsed, with a hole ([`Expr::hole`])
//!   where the body goes. Bodies are lexed at the prefix's length, so
//!   their spans, diagnostics and AST dumps are those of the whole text.
//! * A [`Snapshot`] is the prefix checked: the [`Checker`] at the hole,
//!   the prefix's translation and elaboration with holes of their own,
//!   and — built on first use — the System F typing context and value
//!   environment at the hole. [`Snapshot::check_body`] checks a body
//!   against a clone of the checker and then rolls the shared type
//!   interner back to the mark taken at the hole, so the snapshot does
//!   not grow with the number of bodies it serves.
//!
//! A program with no library has the empty prefix ([`Prefix::empty`]):
//! every program takes the same path.

use std::cell::{OnceCell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use system_f::lexer::Span;
use system_f::{Ctx, Env, EvalError, ParseError, Symbol, Term, TypeError, Value};
use telemetry::limits::{Budget, Limits};
use telemetry::trace::{SpanId, Tracer};

use crate::ast::{hole_symbol, Expr};
use crate::check::{CheckStats, Checker, Compiled};
use crate::error::CheckError;
use crate::rty::InternMark;

/// A parsed declaration prefix: the text in front of a program body, the
/// text behind it, and the declarations with a hole for the body.
#[derive(Debug, Clone)]
pub struct Prefix {
    head: String,
    tail: String,
    expr: Expr,
}

impl Prefix {
    /// The empty prefix: the body is the whole program.
    pub fn empty() -> Prefix {
        Prefix {
            head: String::new(),
            tail: String::new(),
            expr: Expr::hole(Span::default()),
        }
    }

    /// Parses `head` as a chain of declarations ending in `in`. A whole
    /// program is then `head`, a body, and `tail` (whitespace).
    ///
    /// # Errors
    ///
    /// Returns the parse error, or an error at the end of the chain if
    /// `head` is a complete program rather than a prefix.
    pub fn parse(head: &str, tail: &str, budget: Arc<Budget>) -> Result<Prefix, ParseError> {
        let expr = crate::parser::parse_prefix(head, budget)?;
        let mut end = &expr;
        while !end.is_hole() {
            match end.decl_body() {
                Some(body) => end = body,
                None => {
                    return Err(ParseError::Unexpected {
                        found: "a complete program".to_owned(),
                        expected: "a declaration prefix ending in `in`",
                        span: end.span,
                    })
                }
            }
        }
        Ok(Prefix {
            head: head.to_owned(),
            tail: tail.to_owned(),
            expr,
        })
    }

    /// The whole program's source: the prefix's text around `body`.
    pub fn source_with(&self, body: &str) -> String {
        format!("{}{body}{}", self.head, self.tail)
    }

    /// Parses a program body as it sits in the hole: positions are those
    /// of [`Prefix::source_with`]`(body)`.
    ///
    /// # Errors
    ///
    /// As [`crate::parser::parse_expr_budgeted`].
    pub fn parse_body(&self, body: &str, budget: Arc<Budget>) -> Result<Expr, ParseError> {
        let text = format!("{body}{}", self.tail);
        crate::parser::parse_expr_at(&text, self.head.len(), budget)
    }

    /// The whole program: the declarations with `body` in the hole.
    pub fn splice(&self, body: Expr) -> Expr {
        self.expr
            .fill_hole(body)
            .expect("a parsed prefix ends in its hole")
    }
}

/// A checked [`Prefix`]: everything a body needs from it.
///
/// The snapshot holds the type interner its checker shares (an `Rc`), so
/// it lives on the thread that built it.
#[derive(Debug)]
pub struct Snapshot {
    prefix: Rc<Prefix>,
    /// The checker in the scope at the hole.
    checker: Checker,
    /// The interner's extent at the hole.
    mark: InternMark,
    /// The `dict_build` spans open at the hole: the models' spans enclose
    /// the body, as they do in a whole-program check.
    open: Vec<SpanId>,
    /// The prefix's elaboration and translation, each with a hole.
    elaborated: Expr,
    term: Term,
    /// Caps for the lazily built value environment (under a budget of
    /// its own, like the check).
    limits: Limits,
    /// The System F typing context at the hole, built on first use.
    sf_ctx: RefCell<Option<Ctx>>,
    /// The value environment at the hole, built on first use.
    sf_env: OnceCell<Env>,
}

impl Snapshot {
    /// Checks `prefix`, reporting to `tracer` and charging `budget`. The
    /// prefix's identifiers and `reserved` — a body's ([`Expr::names`])
    /// — are never generated as names, so checking that body here binds
    /// exactly the names a whole-program check binds. A snapshot shared
    /// by many bodies reserves none and serves each body it does not
    /// [capture](Snapshot::captures).
    ///
    /// # Errors
    ///
    /// Returns the first [`CheckError`] in the prefix.
    pub fn check(
        prefix: Rc<Prefix>,
        reserved: impl IntoIterator<Item = Symbol>,
        tracer: Tracer,
        budget: Arc<Budget>,
    ) -> Result<Snapshot, CheckError> {
        let limits = *budget.limits();
        let mut checker = Checker::new();
        checker.set_tracer(tracer);
        checker.set_budget(budget);
        let names = prefix.expr.names().into_iter().chain(reserved);
        checker.names.reserve(names);
        let (frames, open) = checker.enter_spine(&prefix.expr)?;
        let hole = (Term::Var(hole_symbol()), Expr::hole(Span::default()));
        let (term, elaborated) = frames
            .into_iter()
            .rev()
            .fold(hole, |(term, elab), frame| frame.wrap(term, elab));
        Ok(Snapshot {
            mark: checker.interner().mark(),
            prefix,
            checker,
            open,
            elaborated,
            term,
            limits,
            sf_ctx: RefCell::new(None),
            sf_env: OnceCell::new(),
        })
    }

    /// Whether a body spelling `names` would meet a name this snapshot
    /// generated: checked here, its binder could capture the prefix's, so
    /// it needs a snapshot of its own that reserves `names`.
    pub fn captures(&self, names: &HashSet<Symbol>) -> bool {
        let minted = self.checker.names.minted();
        minted.iter().any(|n| names.contains(n))
    }

    /// The prefix this snapshot checked.
    pub fn prefix(&self) -> &Prefix {
        &self.prefix
    }

    /// The checker in the scope at the hole.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Checks a body in the hole ([`Checker::check_body`]): its type, its
    /// translation and elaboration (the body's own; see the `splice_*`
    /// methods), and counters for its work alone, on failure too.
    /// Afterwards the shared interner is back at the snapshot's mark.
    ///
    /// # Errors
    ///
    /// The outcome is the first [`CheckError`] in the body.
    pub fn check_body(
        &self,
        body: &Expr,
        tracer: Tracer,
        budget: Arc<Budget>,
    ) -> (Result<Compiled, CheckError>, CheckStats) {
        let (checked, stats) = self.checker.check_body(body, tracer, budget);
        self.checker.close_spine(&self.open, checked.is_ok());
        self.checker.interner().truncate(&self.mark);
        (checked, stats)
    }

    /// The whole program's elaboration: the prefix's around `body`'s.
    pub fn splice_elaborated(&self, body: Expr) -> Expr {
        self.elaborated
            .fill_hole(body)
            .expect("a snapshot's elaboration ends in its hole")
    }

    /// The whole program's translation: the prefix's bindings around
    /// `body`'s translation.
    pub fn splice_term(&self, body: Term) -> Term {
        let mut out = self.term.clone();
        let mut slot = &mut out;
        while let Term::Let(_, _, rest) = slot {
            slot = rest;
        }
        *slot = body;
        out
    }

    /// Typechecks a body's translation in the System F context at the
    /// hole, typing the prefix's bindings on first use. The result is
    /// what typechecking [`Snapshot::splice_term`] gives.
    ///
    /// # Errors
    ///
    /// Returns the first [`TypeError`].
    pub fn typecheck_body(&self, term: &Term) -> Result<system_f::Ty, TypeError> {
        let mut slot = self.sf_ctx.borrow_mut();
        let ctx = match slot.take() {
            Some(ctx) => slot.insert(ctx),
            None => {
                let mut ctx = Ctx::default();
                ctx.bind_lets(&self.term)?;
                slot.insert(ctx)
            }
        };
        system_f::typecheck_in(term, ctx)
    }

    /// Evaluates a body's translation under `budget` in the value
    /// environment at the hole. The prefix's bindings are evaluated on
    /// first use, under a budget of their own made from the snapshot's
    /// limits; if that one runs out, `budget` is tripped alike.
    ///
    /// # Errors
    ///
    /// Returns the first [`EvalError`].
    pub fn eval_body(&self, term: &Term, budget: &Budget) -> Result<Value, EvalError> {
        let env = match self.sf_env.get() {
            Some(env) => env,
            None => {
                let own = Budget::new(self.limits);
                let (env, _) = system_f::eval_lets(&self.term, &Env::new(), &own)
                    .inspect_err(|_| relay_exhaustion(&own, budget))?;
                self.sf_env.get_or_init(|| env)
            }
        };
        system_f::eval_in(term, env, budget)
    }
}

/// Trips `to` with `from`'s exhaustion, if `from` ran out: work done
/// under a budget of its own still fails the request it was done for
/// the way the request's own budget would.
pub fn relay_exhaustion(from: &Budget, to: &Budget) {
    if let Some(x) = from.exhausted() {
        to.trip(x.resource, x.limit);
    }
}
