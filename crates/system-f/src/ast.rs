//! Abstract syntax of System F, following Figure 2 of the paper.
//!
//! The paper's target language is System F with multi-parameter functions
//! and type abstractions, tuples with `nth` projection (used to represent
//! concept dictionaries), and `let`. To make the example programs of the
//! paper executable (Figures 3, 5, 6) we also include the base types and
//! primitive operations the paper assumes: integers with `iadd`/`imult`/…,
//! booleans with `if`, lists with `cons`/`car`/`cdr`/`null`/`nil`, and a
//! `fix` form for the recursion the paper writes as `.x (λ sum. …)`.

use crate::Symbol;
use std::sync::Arc;

/// System F types.
///
/// Per Figure 2: type variables, multi-parameter function types, tuple
/// types, and universal quantification — plus the base types `int`, `bool`,
/// and `list τ` used by the paper's examples.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// A type variable `t`.
    Var(Symbol),
    /// The type of integers.
    Int,
    /// The type of booleans.
    Bool,
    /// `list τ`.
    List(Box<Ty>),
    /// `fn(τ₁,…,τₙ) -> τ`.
    Fn(Vec<Ty>, Box<Ty>),
    /// `tuple(τ₁,…,τₙ)` — dictionary types are nested tuples.
    Tuple(Vec<Ty>),
    /// `forall t₁,…,tₙ. τ`.
    Forall(Vec<Symbol>, Box<Ty>),
}

impl Ty {
    /// Convenience constructor for `fn(params…) -> ret`.
    pub fn func(params: Vec<Ty>, ret: Ty) -> Ty {
        Ty::Fn(params, Box::new(ret))
    }

    /// Convenience constructor for `list τ`.
    pub fn list(elem: Ty) -> Ty {
        Ty::List(Box::new(elem))
    }

    /// Convenience constructor for `forall vars. τ`.
    pub fn forall(vars: Vec<Symbol>, body: Ty) -> Ty {
        Ty::Forall(vars, Box::new(body))
    }
}

/// Primitive constants.
///
/// Each primitive carries its own (possibly polymorphic) type; see
/// [`Prim::ty`]. List primitives are polymorphic constants instantiated
/// with type application, e.g. `nil[int]` or `cons[int](1, nil[int])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// Integer addition `fn(int,int) -> int`.
    IAdd,
    /// Integer subtraction `fn(int,int) -> int`.
    ISub,
    /// Integer multiplication `fn(int,int) -> int`.
    IMult,
    /// Integer negation `fn(int) -> int`.
    INeg,
    /// Integer equality `fn(int,int) -> bool`.
    IEq,
    /// Integer less-than `fn(int,int) -> bool`.
    ILt,
    /// Integer less-or-equal `fn(int,int) -> bool`.
    ILe,
    /// Boolean negation `fn(bool) -> bool`.
    BNot,
    /// Boolean conjunction `fn(bool,bool) -> bool`.
    BAnd,
    /// Boolean disjunction `fn(bool,bool) -> bool`.
    BOr,
    /// Boolean equality `fn(bool,bool) -> bool`.
    BEq,
    /// The empty list `forall t. list t`.
    Nil,
    /// List construction `forall t. fn(t, list t) -> list t`.
    Cons,
    /// Head of a list `forall t. fn(list t) -> t`.
    Car,
    /// Tail of a list `forall t. fn(list t) -> list t`.
    Cdr,
    /// Emptiness test `forall t. fn(list t) -> bool`.
    Null,
}

impl Prim {
    /// The primitive's type scheme.
    pub fn ty(self) -> Ty {
        let t = Symbol::intern("t");
        let tv = || Ty::Var(t);
        match self {
            Prim::IAdd | Prim::ISub | Prim::IMult => {
                Ty::func(vec![Ty::Int, Ty::Int], Ty::Int)
            }
            Prim::INeg => Ty::func(vec![Ty::Int], Ty::Int),
            Prim::IEq | Prim::ILt | Prim::ILe => Ty::func(vec![Ty::Int, Ty::Int], Ty::Bool),
            Prim::BNot => Ty::func(vec![Ty::Bool], Ty::Bool),
            Prim::BAnd | Prim::BOr | Prim::BEq => Ty::func(vec![Ty::Bool, Ty::Bool], Ty::Bool),
            Prim::Nil => Ty::forall(vec![t], Ty::list(tv())),
            Prim::Cons => Ty::forall(
                vec![t],
                Ty::func(vec![tv(), Ty::list(tv())], Ty::list(tv())),
            ),
            Prim::Car => Ty::forall(vec![t], Ty::func(vec![Ty::list(tv())], tv())),
            Prim::Cdr => Ty::forall(vec![t], Ty::func(vec![Ty::list(tv())], Ty::list(tv()))),
            Prim::Null => Ty::forall(vec![t], Ty::func(vec![Ty::list(tv())], Ty::Bool)),
        }
    }

    /// The surface-syntax name of the primitive.
    pub fn name(self) -> &'static str {
        match self {
            Prim::IAdd => "iadd",
            Prim::ISub => "isub",
            Prim::IMult => "imult",
            Prim::INeg => "ineg",
            Prim::IEq => "ieq",
            Prim::ILt => "ilt",
            Prim::ILe => "ile",
            Prim::BNot => "bnot",
            Prim::BAnd => "band",
            Prim::BOr => "bor",
            Prim::BEq => "beq",
            Prim::Nil => "nil",
            Prim::Cons => "cons",
            Prim::Car => "car",
            Prim::Cdr => "cdr",
            Prim::Null => "null",
        }
    }

    /// Looks up a primitive by surface name.
    pub fn from_name(name: &str) -> Option<Prim> {
        Some(match name {
            "iadd" => Prim::IAdd,
            "isub" => Prim::ISub,
            "imult" => Prim::IMult,
            "ineg" => Prim::INeg,
            "ieq" => Prim::IEq,
            "ilt" => Prim::ILt,
            "ile" => Prim::ILe,
            "bnot" => Prim::BNot,
            "band" => Prim::BAnd,
            "bor" => Prim::BOr,
            "beq" => Prim::BEq,
            "nil" => Prim::Nil,
            "cons" => Prim::Cons,
            "car" => Prim::Car,
            "cdr" => Prim::Cdr,
            "null" => Prim::Null,
            _ => return None,
        })
    }

    /// All primitives, in a fixed order (used by random program
    /// generators and exhaustive tests).
    pub const ALL: [Prim; 16] = [
        Prim::IAdd,
        Prim::ISub,
        Prim::IMult,
        Prim::INeg,
        Prim::IEq,
        Prim::ILt,
        Prim::ILe,
        Prim::BNot,
        Prim::BAnd,
        Prim::BOr,
        Prim::BEq,
        Prim::Nil,
        Prim::Cons,
        Prim::Car,
        Prim::Cdr,
        Prim::Null,
    ];
}

/// System F terms, per Figure 2 plus the executable extensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A term variable `x`.
    Var(Symbol),
    /// An integer literal.
    IntLit(i64),
    /// A boolean literal.
    BoolLit(bool),
    /// A primitive constant.
    Prim(Prim),
    /// Application `f(e₁,…,eₙ)`.
    App(Box<Term>, Vec<Term>),
    /// Abstraction `lam x₁:τ₁,…,xₙ:τₙ. e`. The body is shared: a
    /// closure holds the term's own allocation, not a copy.
    Lam(Vec<(Symbol, Ty)>, Arc<Term>),
    /// Type abstraction `biglam t₁,…,tₙ. e`, with a shared body.
    TyAbs(Vec<Symbol>, Arc<Term>),
    /// Type application `e[τ₁,…,τₙ]`.
    TyApp(Box<Term>, Vec<Ty>),
    /// `let x = e₁ in e₂`.
    Let(Symbol, Box<Term>, Box<Term>),
    /// Tuple construction `tuple(e₁,…,eₙ)` — dictionaries are tuples.
    Tuple(Vec<Term>),
    /// Projection `e.i` (the paper's `nth e i`), zero-based.
    Nth(Box<Term>, usize),
    /// `if e₁ then e₂ else e₃`.
    If(Box<Term>, Box<Term>, Box<Term>),
    /// `fix x:τ. e` — recursive binding; `e` must evaluate without forcing
    /// `x` (in practice `e` is a `lam`). The body is shared.
    Fix(Symbol, Ty, Arc<Term>),
}

impl Term {
    /// Convenience constructor for variables.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Convenience constructor for application.
    pub fn app(f: Term, args: Vec<Term>) -> Term {
        Term::App(Box::new(f), args)
    }

    /// Convenience constructor for `lam`.
    pub fn lam(params: Vec<(Symbol, Ty)>, body: Term) -> Term {
        Term::Lam(params, Arc::new(body))
    }

    /// Convenience constructor for type application.
    pub fn tyapp(f: Term, args: Vec<Ty>) -> Term {
        Term::TyApp(Box::new(f), args)
    }

    /// Convenience constructor for `let`.
    pub fn let_(name: Symbol, bound: Term, body: Term) -> Term {
        Term::Let(name, Box::new(bound), Box::new(body))
    }

    /// Convenience constructor for projection.
    pub fn nth(e: Term, i: usize) -> Term {
        Term::Nth(Box::new(e), i)
    }

    /// Convenience constructor for `if`.
    pub fn if_(c: Term, t: Term, e: Term) -> Term {
        Term::If(Box::new(c), Box::new(t), Box::new(e))
    }

    /// Builds the literal list `cons[τ](v₁, cons[τ](v₂, … nil[τ]))`.
    pub fn int_list(items: &[i64]) -> Term {
        let mut acc = Term::tyapp(Term::Prim(Prim::Nil), vec![Ty::Int]);
        for &x in items.iter().rev() {
            acc = Term::app(
                Term::tyapp(Term::Prim(Prim::Cons), vec![Ty::Int]),
                vec![Term::IntLit(x), acc],
            );
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_names_round_trip() {
        for p in Prim::ALL {
            assert_eq!(Prim::from_name(p.name()), Some(p));
        }
        assert_eq!(Prim::from_name("frobnicate"), None);
    }

    #[test]
    fn prim_types_are_well_formed_schemes() {
        for p in Prim::ALL {
            match p.ty() {
                Ty::Fn(..) | Ty::Forall(..) => {}
                other => panic!("unexpected shape for {p:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn int_list_builds_nested_cons() {
        let l = Term::int_list(&[1, 2]);
        match &l {
            Term::App(f, args) => {
                assert!(matches!(**f, Term::TyApp(..)));
                assert_eq!(args.len(), 2);
                assert_eq!(args[0], Term::IntLit(1));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn builders_build_expected_shapes() {
        let t = Ty::func(vec![Ty::Int], Ty::Bool);
        assert_eq!(t, Ty::Fn(vec![Ty::Int], Box::new(Ty::Bool)));
        let e = Term::if_(Term::BoolLit(true), Term::IntLit(1), Term::IntLit(2));
        assert!(matches!(e, Term::If(..)));
    }
}
