//! The System F typechecker.
//!
//! The rules are standard (the paper omits them as such); the one addition
//! is the `let` rule quoted in §3 of the paper and rules for the executable
//! extensions (literals, primitives, `if`, `fix`, tuples).

use crate::types::{alpha_eq, free_ty_vars, subst};
use crate::{Symbol, Term, Ty};
use std::collections::HashMap;
use std::fmt;

/// A System F type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// Reference to an unbound term variable.
    UnboundVar(Symbol),
    /// Reference to a type variable not in scope.
    UnboundTyVar(Symbol),
    /// Applied a non-function.
    NotAFunction(Ty),
    /// Wrong number of arguments (or type arguments).
    ArityMismatch {
        /// How many the function expects.
        expected: usize,
        /// How many were supplied.
        found: usize,
    },
    /// An argument's type did not match the parameter type.
    ArgMismatch {
        /// The parameter type.
        expected: Ty,
        /// The argument's actual type.
        found: Ty,
    },
    /// Type application of a non-`forall` term.
    NotAForall(Ty),
    /// Projection from a non-tuple.
    NotATuple(Ty),
    /// Tuple projection index out of bounds.
    BadIndex {
        /// The requested index.
        index: usize,
        /// The tuple width.
        len: usize,
    },
    /// `if` condition was not `bool`.
    CondNotBool(Ty),
    /// `if` branches disagree.
    BranchMismatch(Ty, Ty),
    /// `fix x:τ. e` body does not have type τ.
    FixMismatch {
        /// The annotated type.
        annotated: Ty,
        /// The body's type.
        found: Ty,
    },
    /// Binder list contains a repeated name where distinctness is required.
    DuplicateBinder(Symbol),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            TypeError::UnboundTyVar(t) => write!(f, "unbound type variable `{t}`"),
            TypeError::NotAFunction(t) => write!(f, "expected a function, found `{t}`"),
            TypeError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} argument(s), found {found}")
            }
            TypeError::ArgMismatch { expected, found } => {
                write!(f, "argument type mismatch: expected `{expected}`, found `{found}`")
            }
            TypeError::NotAForall(t) => {
                write!(f, "expected a polymorphic term, found `{t}`")
            }
            TypeError::NotATuple(t) => write!(f, "expected a tuple, found `{t}`"),
            TypeError::BadIndex { index, len } => {
                write!(f, "tuple index {index} out of bounds for width {len}")
            }
            TypeError::CondNotBool(t) => {
                write!(f, "condition must be `bool`, found `{t}`")
            }
            TypeError::BranchMismatch(a, b) => {
                write!(f, "branches of `if` disagree: `{a}` vs `{b}`")
            }
            TypeError::FixMismatch { annotated, found } => {
                write!(f, "fix body has type `{found}`, annotation says `{annotated}`")
            }
            TypeError::DuplicateBinder(x) => write!(f, "duplicate binder `{x}`"),
        }
    }
}

impl std::error::Error for TypeError {}

/// A typing context: term-variable bindings plus type variables in scope.
#[derive(Debug, Clone, Default)]
pub struct Ctx {
    vars: Vec<(Symbol, Ty)>,
    ty_vars: Vec<Symbol>,
}

impl Ctx {
    /// Typechecks the bound terms of `term`'s chain of `let`s, each in
    /// the context of the ones before it, and binds them; returns the
    /// chain's innermost body, left unchecked. `typecheck_in(body)` then
    /// types the body exactly as `typecheck` types it inside the chain.
    ///
    /// # Errors
    ///
    /// Returns the first [`TypeError`] in a bound term; the context then
    /// holds the bindings before it.
    pub fn bind_lets<'t>(&mut self, mut term: &'t Term) -> Result<&'t Term, TypeError> {
        while let Term::Let(x, bound, body) = term {
            let bty = check(bound, self)?;
            self.vars.push((*x, bty));
            term = body;
        }
        Ok(term)
    }

    fn lookup(&self, x: Symbol) -> Option<&Ty> {
        self.vars.iter().rev().find(|(n, _)| *n == x).map(|(_, t)| t)
    }

    fn ty_in_scope(&self, t: Symbol) -> bool {
        self.ty_vars.contains(&t)
    }
}

/// Typechecks a closed System F term, returning its type.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered in a leftmost-innermost
/// traversal.
///
/// ```
/// use system_f::{typecheck, Term, Ty};
///
/// let e = Term::app(Term::Prim(system_f::Prim::IAdd),
///                   vec![Term::IntLit(1), Term::IntLit(2)]);
/// assert_eq!(typecheck(&e)?, Ty::Int);
/// # Ok::<(), system_f::TypeError>(())
/// ```
pub fn typecheck(term: &Term) -> Result<Ty, TypeError> {
    check(term, &mut Ctx::default())
}

/// Typechecks a term that may mention the given free type variables.
pub fn typecheck_open(term: &Term, ty_vars: &[Symbol]) -> Result<Ty, TypeError> {
    let mut ctx = Ctx {
        vars: Vec::new(),
        ty_vars: ty_vars.to_vec(),
    };
    check(term, &mut ctx)
}

/// Typechecks `term` in `ctx`, leaving `ctx` as it found it.
///
/// # Errors
///
/// As [`typecheck`].
pub fn typecheck_in(term: &Term, ctx: &mut Ctx) -> Result<Ty, TypeError> {
    let (vars, ty_vars) = (ctx.vars.len(), ctx.ty_vars.len());
    let ty = check(term, ctx);
    ctx.vars.truncate(vars);
    ctx.ty_vars.truncate(ty_vars);
    ty
}

fn well_formed(ty: &Ty, ctx: &Ctx) -> Result<(), TypeError> {
    for fv in free_ty_vars(ty) {
        if !ctx.ty_in_scope(fv) {
            return Err(TypeError::UnboundTyVar(fv));
        }
    }
    Ok(())
}

fn distinct(names: &[Symbol]) -> Result<(), TypeError> {
    for (i, n) in names.iter().enumerate() {
        if names[..i].contains(n) {
            return Err(TypeError::DuplicateBinder(*n));
        }
    }
    Ok(())
}

fn check(term: &Term, ctx: &mut Ctx) -> Result<Ty, TypeError> {
    match term {
        Term::Var(x) => ctx
            .lookup(*x)
            .cloned()
            .ok_or(TypeError::UnboundVar(*x)),
        Term::IntLit(_) => Ok(Ty::Int),
        Term::BoolLit(_) => Ok(Ty::Bool),
        Term::Prim(p) => Ok(p.ty()),
        Term::App(f, args) => {
            let fty = check(f, ctx)?;
            let Ty::Fn(params, ret) = fty else {
                return Err(TypeError::NotAFunction(fty));
            };
            if params.len() != args.len() {
                return Err(TypeError::ArityMismatch {
                    expected: params.len(),
                    found: args.len(),
                });
            }
            for (param, arg) in params.iter().zip(args) {
                let aty = check(arg, ctx)?;
                if !alpha_eq(param, &aty) {
                    return Err(TypeError::ArgMismatch {
                        expected: param.clone(),
                        found: aty,
                    });
                }
            }
            Ok(*ret)
        }
        Term::Lam(params, body) => {
            distinct(&params.iter().map(|(n, _)| *n).collect::<Vec<_>>())?;
            for (_, t) in params {
                well_formed(t, ctx)?;
            }
            let n = ctx.vars.len();
            ctx.vars.extend(params.iter().cloned());
            let ret = check(body, ctx);
            ctx.vars.truncate(n);
            Ok(Ty::Fn(
                params.iter().map(|(_, t)| t.clone()).collect(),
                Box::new(ret?),
            ))
        }
        Term::TyAbs(vars, body) => {
            distinct(vars)?;
            let n = ctx.ty_vars.len();
            ctx.ty_vars.extend_from_slice(vars);
            let bty = check(body, ctx);
            ctx.ty_vars.truncate(n);
            Ok(Ty::Forall(vars.clone(), Box::new(bty?)))
        }
        Term::TyApp(f, args) => {
            let fty = check(f, ctx)?;
            let Ty::Forall(vars, body) = fty else {
                return Err(TypeError::NotAForall(fty));
            };
            if vars.len() != args.len() {
                return Err(TypeError::ArityMismatch {
                    expected: vars.len(),
                    found: args.len(),
                });
            }
            for a in args {
                well_formed(a, ctx)?;
            }
            let map: HashMap<Symbol, Ty> =
                vars.iter().copied().zip(args.iter().cloned()).collect();
            Ok(subst(&body, &map))
        }
        Term::Let(x, bound, body) => {
            let bty = check(bound, ctx)?;
            ctx.vars.push((*x, bty));
            let r = check(body, ctx);
            ctx.vars.pop();
            r
        }
        Term::Tuple(items) => {
            let mut tys = Vec::with_capacity(items.len());
            for e in items {
                tys.push(check(e, ctx)?);
            }
            Ok(Ty::Tuple(tys))
        }
        Term::Nth(e, i) => {
            let ety = check(e, ctx)?;
            let Ty::Tuple(items) = ety else {
                return Err(TypeError::NotATuple(ety));
            };
            items
                .get(*i)
                .cloned()
                .ok_or(TypeError::BadIndex {
                    index: *i,
                    len: items.len(),
                })
        }
        Term::If(c, t, e) => {
            let cty = check(c, ctx)?;
            if !alpha_eq(&cty, &Ty::Bool) {
                return Err(TypeError::CondNotBool(cty));
            }
            let tty = check(t, ctx)?;
            let ety = check(e, ctx)?;
            if !alpha_eq(&tty, &ety) {
                return Err(TypeError::BranchMismatch(tty, ety));
            }
            Ok(tty)
        }
        Term::Fix(x, ty, body) => {
            well_formed(ty, ctx)?;
            ctx.vars.push((*x, ty.clone()));
            let bty = check(body, ctx);
            ctx.vars.pop();
            let bty = bty?;
            if !alpha_eq(&bty, ty) {
                return Err(TypeError::FixMismatch {
                    annotated: ty.clone(),
                    found: bty,
                });
            }
            Ok(bty)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prim;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn literals() {
        assert_eq!(typecheck(&Term::IntLit(7)), Ok(Ty::Int));
        assert_eq!(typecheck(&Term::BoolLit(true)), Ok(Ty::Bool));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        assert_eq!(
            typecheck(&Term::var("x")),
            Err(TypeError::UnboundVar(s("x")))
        );
    }

    #[test]
    fn identity_function() {
        let id = Term::TyAbs(
            vec![s("t")],
            Box::new(Term::lam(
                vec![(s("x"), Ty::Var(s("t")))],
                Term::var("x"),
            )),
        );
        let ty = typecheck(&id).unwrap();
        assert!(alpha_eq(
            &ty,
            &Ty::forall(vec![s("u")], Ty::func(vec![Ty::Var(s("u"))], Ty::Var(s("u"))))
        ));
        // Instantiate and apply.
        let applied = Term::app(Term::tyapp(id, vec![Ty::Int]), vec![Term::IntLit(3)]);
        assert_eq!(typecheck(&applied), Ok(Ty::Int));
    }

    #[test]
    fn application_checks_arity_and_types() {
        let add = Term::Prim(Prim::IAdd);
        let bad_arity = Term::app(add.clone(), vec![Term::IntLit(1)]);
        assert!(matches!(
            typecheck(&bad_arity),
            Err(TypeError::ArityMismatch { .. })
        ));
        let bad_arg = Term::app(add, vec![Term::IntLit(1), Term::BoolLit(true)]);
        assert!(matches!(typecheck(&bad_arg), Err(TypeError::ArgMismatch { .. })));
    }

    #[test]
    fn let_rule_from_the_paper() {
        // Γ ⊢ f1 : s   Γ, x:s ⊢ f2 : t  ⇒  Γ ⊢ let x = f1 in f2 : t
        let e = Term::let_(
            s("x"),
            Term::IntLit(1),
            Term::app(
                Term::Prim(Prim::IAdd),
                vec![Term::var("x"), Term::var("x")],
            ),
        );
        assert_eq!(typecheck(&e), Ok(Ty::Int));
    }

    #[test]
    fn tuples_and_projection() {
        let e = Term::Tuple(vec![Term::IntLit(1), Term::BoolLit(false)]);
        assert_eq!(
            typecheck(&e),
            Ok(Ty::Tuple(vec![Ty::Int, Ty::Bool]))
        );
        assert_eq!(typecheck(&Term::nth(e.clone(), 1)), Ok(Ty::Bool));
        assert!(matches!(
            typecheck(&Term::nth(e, 5)),
            Err(TypeError::BadIndex { index: 5, len: 2 })
        ));
    }

    #[test]
    fn nested_dictionary_projection() {
        // The shape of Fig. 7: Monoid dict = ((iadd), 0).
        let dict = Term::Tuple(vec![
            Term::Tuple(vec![Term::Prim(Prim::IAdd)]),
            Term::IntLit(0),
        ]);
        let binop = Term::nth(Term::nth(dict.clone(), 0), 0);
        assert_eq!(
            typecheck(&binop),
            Ok(Ty::func(vec![Ty::Int, Ty::Int], Ty::Int))
        );
        let idelt = Term::nth(dict, 1);
        assert_eq!(typecheck(&idelt), Ok(Ty::Int));
    }

    #[test]
    fn if_requires_bool_and_agreeing_branches() {
        let bad_cond = Term::if_(Term::IntLit(0), Term::IntLit(1), Term::IntLit(2));
        assert!(matches!(typecheck(&bad_cond), Err(TypeError::CondNotBool(_))));
        let bad_branches = Term::if_(Term::BoolLit(true), Term::IntLit(1), Term::BoolLit(false));
        assert!(matches!(
            typecheck(&bad_branches),
            Err(TypeError::BranchMismatch(..))
        ));
    }

    #[test]
    fn polymorphic_list_primitives() {
        let l = Term::int_list(&[1, 2, 3]);
        assert_eq!(typecheck(&l), Ok(Ty::list(Ty::Int)));
        let hd = Term::app(
            Term::tyapp(Term::Prim(Prim::Car), vec![Ty::Int]),
            vec![l],
        );
        assert_eq!(typecheck(&hd), Ok(Ty::Int));
    }

    #[test]
    fn fix_requires_matching_annotation() {
        let fty = Ty::func(vec![Ty::Int], Ty::Int);
        let ok = Term::Fix(
            s("f"),
            fty.clone(),
            Box::new(Term::lam(vec![(s("n"), Ty::Int)], Term::var("n"))),
        );
        assert_eq!(typecheck(&ok), Ok(fty.clone()));
        let bad = Term::Fix(s("f"), fty, Box::new(Term::IntLit(3)));
        assert!(matches!(typecheck(&bad), Err(TypeError::FixMismatch { .. })));
    }

    #[test]
    fn tyapp_requires_forall_and_arity() {
        let not_forall = Term::tyapp(Term::IntLit(1), vec![Ty::Int]);
        assert!(matches!(typecheck(&not_forall), Err(TypeError::NotAForall(_))));
        let nil2 = Term::tyapp(Term::Prim(Prim::Nil), vec![Ty::Int, Ty::Bool]);
        assert!(matches!(
            typecheck(&nil2),
            Err(TypeError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unbound_type_variable_rejected() {
        let e = Term::lam(vec![(s("x"), Ty::Var(s("ghost")))], Term::var("x"));
        assert!(matches!(typecheck(&e), Err(TypeError::UnboundTyVar(_))));
        assert!(typecheck_open(&e, &[s("ghost")]).is_ok());
    }

    #[test]
    fn duplicate_binders_rejected() {
        let e = Term::lam(
            vec![(s("x"), Ty::Int), (s("x"), Ty::Bool)],
            Term::var("x"),
        );
        assert!(matches!(typecheck(&e), Err(TypeError::DuplicateBinder(_))));
        let e = Term::TyAbs(vec![s("t"), s("t")], Box::new(Term::IntLit(1)));
        assert!(matches!(typecheck(&e), Err(TypeError::DuplicateBinder(_))));
    }

    #[test]
    fn shadowing_of_term_variables_is_innermost() {
        let e = Term::let_(
            s("x"),
            Term::IntLit(1),
            Term::let_(s("x"), Term::BoolLit(true), Term::var("x")),
        );
        assert_eq!(typecheck(&e), Ok(Ty::Bool));
    }

    #[test]
    fn higher_order_sum_figure_3() {
        // Figure 3 of the paper, transcribed with fix.
        let t = Ty::Int;
        let sum_ty = Ty::func(
            vec![
                Ty::list(t.clone()),
                Ty::func(vec![t.clone(), t.clone()], t.clone()),
                t.clone(),
            ],
            t.clone(),
        );
        let ls = s("ls");
        let add = s("add");
        let zero = s("zero");
        let body = Term::if_(
            Term::app(
                Term::tyapp(Term::Prim(Prim::Null), vec![t.clone()]),
                vec![Term::Var(ls)],
            ),
            Term::Var(zero),
            Term::app(
                Term::Var(add),
                vec![
                    Term::app(
                        Term::tyapp(Term::Prim(Prim::Car), vec![t.clone()]),
                        vec![Term::Var(ls)],
                    ),
                    Term::app(
                        Term::var("sum"),
                        vec![
                            Term::app(
                                Term::tyapp(Term::Prim(Prim::Cdr), vec![t.clone()]),
                                vec![Term::Var(ls)],
                            ),
                            Term::Var(add),
                            Term::Var(zero),
                        ],
                    ),
                ],
            ),
        );
        let sum = Term::Fix(
            s("sum"),
            sum_ty,
            Box::new(Term::lam(
                vec![
                    (ls, Ty::list(t.clone())),
                    (add, Ty::func(vec![t.clone(), t.clone()], t.clone())),
                    (zero, t.clone()),
                ],
                body,
            )),
        );
        let call = Term::app(
            sum,
            vec![
                Term::int_list(&[1, 2]),
                Term::Prim(Prim::IAdd),
                Term::IntLit(0),
            ],
        );
        assert_eq!(typecheck(&call), Ok(Ty::Int));
    }
}
