//! Precedence-aware pretty-printing for System F types and terms.
//!
//! The printed form is exactly the concrete syntax accepted by
//! [`crate::parse_term`] / [`crate::parse_ty`], so `parse ∘ pretty` is the
//! identity up to primitive-name resolution (a property test in
//! `tests/prop_roundtrip.rs` checks this).

use crate::{Term, Ty};
use std::fmt;

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ty(self, f)
    }
}

fn ty_is_atom(ty: &Ty) -> bool {
    matches!(ty, Ty::Var(_) | Ty::Int | Ty::Bool | Ty::Tuple(_))
}

fn fmt_ty_atom(ty: &Ty, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ty_is_atom(ty) {
        fmt_ty(ty, f)
    } else {
        write!(f, "(")?;
        fmt_ty(ty, f)?;
        write!(f, ")")
    }
}

fn fmt_ty(ty: &Ty, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match ty {
        Ty::Var(v) => write!(f, "{v}"),
        Ty::Int => write!(f, "int"),
        Ty::Bool => write!(f, "bool"),
        Ty::List(t) => {
            write!(f, "list ")?;
            fmt_ty_atom(t, f)
        }
        Ty::Fn(params, ret) => {
            write!(f, "fn(")?;
            for (i, p) in params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_ty(p, f)?;
            }
            write!(f, ") -> ")?;
            fmt_ty(ret, f)
        }
        Ty::Tuple(items) => {
            write!(f, "tuple(")?;
            for (i, t) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_ty(t, f)?;
            }
            write!(f, ")")
        }
        Ty::Forall(vars, body) => {
            write!(f, "forall ")?;
            for (i, v) in vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ". ")?;
            fmt_ty(body, f)
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_term(self, f)
    }
}

/// Returns `true` for terms printable without parentheses in head/postfix
/// position.
fn term_is_postfix_safe(t: &Term) -> bool {
    matches!(
        t,
        Term::Var(_)
            | Term::IntLit(_)
            | Term::BoolLit(_)
            | Term::Prim(_)
            | Term::Tuple(_)
            | Term::App(..)
            | Term::TyApp(..)
            | Term::Nth(..)
    )
}

fn fmt_term_postfix(t: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if term_is_postfix_safe(t) {
        fmt_term(t, f)
    } else {
        write!(f, "(")?;
        fmt_term(t, f)?;
        write!(f, ")")
    }
}

fn fmt_term(t: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t {
        Term::Var(x) => write!(f, "{x}"),
        Term::IntLit(n) => {
            if *n < 0 {
                // Negative literals print parenthesized so they re-lex as a
                // single token argument where needed.
                write!(f, "({n})")
            } else {
                write!(f, "{n}")
            }
        }
        Term::BoolLit(b) => write!(f, "{b}"),
        Term::Prim(p) => write!(f, "{}", p.name()),
        Term::App(func, args) => {
            fmt_term_postfix(func, f)?;
            write!(f, "(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_term(a, f)?;
            }
            write!(f, ")")
        }
        Term::Lam(params, body) => {
            write!(f, "lam ")?;
            for (i, (x, ty)) in params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{x}: {ty}")?;
            }
            write!(f, ". ")?;
            fmt_term(body, f)
        }
        Term::TyAbs(vars, body) => {
            write!(f, "biglam ")?;
            for (i, v) in vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ". ")?;
            fmt_term(body, f)
        }
        Term::TyApp(func, args) => {
            fmt_term_postfix(func, f)?;
            write!(f, "[")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_ty(a, f)?;
            }
            write!(f, "]")
        }
        Term::Let(x, bound, body) => {
            write!(f, "let {x} = ")?;
            fmt_term(bound, f)?;
            write!(f, " in ")?;
            fmt_term(body, f)
        }
        Term::Tuple(items) => {
            write!(f, "tuple(")?;
            for (i, e) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_term(e, f)?;
            }
            write!(f, ")")
        }
        Term::Nth(e, i) => {
            fmt_term_postfix(e, f)?;
            write!(f, ".{i}")
        }
        Term::If(c, t, e) => {
            write!(f, "if ")?;
            fmt_term(c, f)?;
            write!(f, " then ")?;
            fmt_term(t, f)?;
            write!(f, " else ")?;
            fmt_term(e, f)
        }
        Term::Fix(x, ty, body) => {
            write!(f, "fix {x}: {ty}. ")?;
            fmt_term(body, f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Prim, Symbol};
    use std::sync::Arc;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn type_display() {
        assert_eq!(Ty::Int.to_string(), "int");
        assert_eq!(Ty::list(Ty::Int).to_string(), "list int");
        assert_eq!(
            Ty::list(Ty::func(vec![Ty::Int], Ty::Int)).to_string(),
            "list (fn(int) -> int)"
        );
        assert_eq!(
            Ty::func(vec![Ty::Int, Ty::Bool], Ty::list(Ty::Int)).to_string(),
            "fn(int, bool) -> list int"
        );
        assert_eq!(
            Ty::forall(vec![s("t")], Ty::func(vec![Ty::Var(s("t"))], Ty::Var(s("t"))))
                .to_string(),
            "forall t. fn(t) -> t"
        );
        assert_eq!(
            Ty::Tuple(vec![Ty::Int, Ty::Bool]).to_string(),
            "tuple(int, bool)"
        );
        assert_eq!(Ty::Tuple(vec![]).to_string(), "tuple()");
    }

    #[test]
    fn term_display() {
        let e = Term::app(
            Term::Prim(Prim::IAdd),
            vec![Term::IntLit(1), Term::IntLit(2)],
        );
        assert_eq!(e.to_string(), "iadd(1, 2)");
        let lam = Term::lam(vec![(s("x"), Ty::Int)], Term::var("x"));
        assert_eq!(lam.to_string(), "lam x: int. x");
        let applied = Term::app(lam, vec![Term::IntLit(3)]);
        assert_eq!(applied.to_string(), "(lam x: int. x)(3)");
    }

    #[test]
    fn postfix_chains_display_unparenthesized() {
        let e = Term::nth(
            Term::app(
                Term::tyapp(Term::var("f"), vec![Ty::Int]),
                vec![Term::IntLit(1)],
            ),
            0,
        );
        assert_eq!(e.to_string(), "f[int](1).0");
    }

    #[test]
    fn negative_literal_parenthesized() {
        assert_eq!(Term::IntLit(-3).to_string(), "(-3)");
    }

    #[test]
    fn let_if_fix_display() {
        let e = Term::let_(
            s("x"),
            Term::IntLit(1),
            Term::if_(Term::BoolLit(true), Term::var("x"), Term::IntLit(0)),
        );
        assert_eq!(e.to_string(), "let x = 1 in if true then x else 0");
        let f = Term::Fix(s("g"), Ty::Int, Arc::new(Term::IntLit(1)));
        assert_eq!(f.to_string(), "fix g: int. 1");
    }
}
