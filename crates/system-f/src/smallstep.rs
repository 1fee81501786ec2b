//! A substitution-based small-step (structural operational) semantics for
//! System F.
//!
//! The paper's type-safety argument for F_G is: the translation preserves
//! typing (Theorems 1 and 2), "which together with the fact that System F
//! is type safe \[48\], ensures the type safety of F_G". This module makes
//! the second half of that argument *testable*: [`step`] implements
//! call-by-value reduction by capture-avoiding substitution, and the
//! property suite checks **progress** (a well-typed closed term is a value
//! or steps) and **preservation** (stepping preserves the type) on every
//! translated program.
//!
//! The big-step evaluator in [`crate::eval`] is the fast path; this one is
//! the specification. A differential property test asserts they agree.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::types::{free_ty_vars, free_ty_vars_into, subst as subst_ty_map};
use crate::{Prim, Symbol, Term, Ty};

/// Returns `true` if `t` is a value: literals, primitives, abstractions,
/// tuples of values, and list values (`nil[τ]` and `cons[τ](v, v)`).
pub fn is_value(t: &Term) -> bool {
    match t {
        Term::IntLit(_) | Term::BoolLit(_) | Term::Prim(_) | Term::Lam(..) | Term::TyAbs(..) => {
            true
        }
        Term::Tuple(items) => items.iter().all(is_value),
        // nil[τ]
        Term::TyApp(f, _) => matches!(**f, Term::Prim(p) if prim_tyapp_is_value(p)),
        // cons[τ](v, vs)
        Term::App(f, args) => is_cons_head(f) && args.iter().all(is_value),
        _ => false,
    }
}

/// Polymorphic primitives whose type instantiation is itself a value
/// (rather than a redex awaiting arguments).
fn prim_tyapp_is_value(p: Prim) -> bool {
    matches!(p, Prim::Nil | Prim::Cons | Prim::Car | Prim::Cdr | Prim::Null)
}

fn is_cons_head(f: &Term) -> bool {
    matches!(f, Term::TyApp(g, _) if matches!(**g, Term::Prim(Prim::Cons)))
}

/// The free term variables of `t`.
pub fn free_vars(t: &Term) -> Vec<Symbol> {
    fn go(t: &Term, bound: &mut Vec<Symbol>, out: &mut Vec<Symbol>) {
        match t {
            Term::Var(x) => {
                if !bound.contains(x) && !out.contains(x) {
                    out.push(*x);
                }
            }
            Term::IntLit(_) | Term::BoolLit(_) | Term::Prim(_) => {}
            Term::App(f, args) => {
                go(f, bound, out);
                for a in args {
                    go(a, bound, out);
                }
            }
            Term::Lam(params, body) => {
                let n = bound.len();
                bound.extend(params.iter().map(|(x, _)| *x));
                go(body, bound, out);
                bound.truncate(n);
            }
            Term::TyAbs(_, body) => go(body, bound, out),
            Term::TyApp(f, _) => go(f, bound, out),
            Term::Let(x, e1, e2) => {
                go(e1, bound, out);
                bound.push(*x);
                go(e2, bound, out);
                bound.pop();
            }
            Term::Tuple(items) => {
                for i in items {
                    go(i, bound, out);
                }
            }
            Term::Nth(e, _) => go(e, bound, out),
            Term::If(c, a, b) => {
                go(c, bound, out);
                go(a, bound, out);
                go(b, bound, out);
            }
            Term::Fix(x, _, body) => {
                bound.push(*x);
                go(body, bound, out);
                bound.pop();
            }
        }
    }
    let mut out = Vec::new();
    go(t, &mut Vec::new(), &mut out);
    out
}

/// Capture-avoiding substitution of a term for a variable: `[x ↦ v]t`.
pub fn subst_term(t: &Term, x: Symbol, v: &Term) -> Term {
    let v_fvs = free_vars(v);
    go(t, x, v, &v_fvs)
}

fn go(t: &Term, x: Symbol, v: &Term, v_fvs: &[Symbol]) -> Term {
    match t {
        Term::Var(y) => {
            if *y == x {
                v.clone()
            } else {
                t.clone()
            }
        }
        Term::IntLit(_) | Term::BoolLit(_) | Term::Prim(_) => t.clone(),
        Term::App(f, args) => Term::App(
            Box::new(go(f, x, v, v_fvs)),
            args.iter().map(|a| go(a, x, v, v_fvs)).collect(),
        ),
        Term::Lam(params, body) => {
            if params.iter().any(|(y, _)| *y == x) {
                return t.clone();
            }
            // Rename any parameter that would capture a free variable of v.
            let names: Vec<Symbol> = params.iter().map(|p| p.0).collect();
            let mut params = params.clone();
            let mut body = (**body).clone();
            let renamed = rename_binders(&names, x, v_fvs, &body);
            for (p, fresh) in params.iter_mut().zip(renamed) {
                if p.0 != fresh {
                    body = subst_term(&body, p.0, &Term::Var(fresh));
                    p.0 = fresh;
                }
            }
            Term::Lam(params, Arc::new(go(&body, x, v, v_fvs)))
        }
        Term::TyAbs(vars, body) => Term::TyAbs(vars.clone(), Arc::new(go(body, x, v, v_fvs))),
        Term::TyApp(f, tys) => Term::TyApp(Box::new(go(f, x, v, v_fvs)), tys.clone()),
        Term::Let(y, e1, e2) => {
            let e1 = go(e1, x, v, v_fvs);
            if *y == x {
                Term::Let(*y, Box::new(e1), e2.clone())
            } else if v_fvs.contains(y) {
                let fresh = rename_binders(&[*y], x, v_fvs, e2)[0];
                let e2r = subst_term(e2, *y, &Term::Var(fresh));
                Term::Let(fresh, Box::new(e1), Box::new(go(&e2r, x, v, v_fvs)))
            } else {
                Term::Let(*y, Box::new(e1), Box::new(go(e2, x, v, v_fvs)))
            }
        }
        Term::Tuple(items) => {
            Term::Tuple(items.iter().map(|i| go(i, x, v, v_fvs)).collect())
        }
        Term::Nth(e, i) => Term::Nth(Box::new(go(e, x, v, v_fvs)), *i),
        Term::If(c, a, b) => Term::If(
            Box::new(go(c, x, v, v_fvs)),
            Box::new(go(a, x, v, v_fvs)),
            Box::new(go(b, x, v, v_fvs)),
        ),
        Term::Fix(y, ty, body) => {
            if *y == x {
                t.clone()
            } else if v_fvs.contains(y) {
                let fresh = rename_binders(&[*y], x, v_fvs, body)[0];
                let bodyr = subst_term(body, *y, &Term::Var(fresh));
                Term::Fix(fresh, ty.clone(), Arc::new(go(&bodyr, x, v, v_fvs)))
            } else {
                Term::Fix(*y, ty.clone(), Arc::new(go(body, x, v, v_fvs)))
            }
        }
    }
}

/// The `binders` of `scope` renamed for `[x ↦ v]` to go under them
/// ([`Symbol::rename_binders`]); none is renamed to `x`.
fn rename_binders(binders: &[Symbol], x: Symbol, v_fvs: &[Symbol], scope: &Term) -> Vec<Symbol> {
    let in_scope = |s| s == x || free_vars(scope).contains(&s);
    Symbol::rename_binders(binders, |s| v_fvs.contains(&s), in_scope)
}

/// The free type variables of the types annotating `t`.
fn free_ty_vars_in_term(t: &Term) -> HashSet<Symbol> {
    let mut out = HashSet::new();
    free_ty_vars_in_term_into(t, &mut Vec::new(), &mut out);
    out
}

fn free_ty_vars_in_term_into(t: &Term, bound: &mut Vec<Symbol>, out: &mut HashSet<Symbol>) {
    let (tys, terms): (Vec<&Ty>, Vec<&Term>) = match t {
        Term::Var(_) | Term::IntLit(_) | Term::BoolLit(_) | Term::Prim(_) => return,
        Term::App(f, args) => (Vec::new(), std::iter::once(&**f).chain(args).collect()),
        Term::Lam(params, body) => (params.iter().map(|(_, ty)| ty).collect(), vec![body]),
        Term::TyAbs(vars, body) => {
            let n = bound.len();
            bound.extend_from_slice(vars);
            free_ty_vars_in_term_into(body, bound, out);
            bound.truncate(n);
            return;
        }
        Term::TyApp(f, tys) => (tys.iter().collect(), vec![f]),
        Term::Let(_, a, b) => (Vec::new(), vec![a, b]),
        Term::Tuple(items) => (Vec::new(), items.iter().collect()),
        Term::Nth(e, _) => (Vec::new(), vec![e]),
        Term::If(c, a, b) => (Vec::new(), vec![c, a, b]),
        Term::Fix(_, ty, body) => (vec![ty], vec![body]),
    };
    for ty in tys {
        free_ty_vars_into(ty, bound, out);
    }
    for t in terms {
        free_ty_vars_in_term_into(t, bound, out);
    }
}

/// Capture-avoiding substitution of types for type variables throughout a
/// term: `[t̄ ↦ σ̄]e`.
pub fn subst_ty_in_term(t: &Term, map: &HashMap<Symbol, Ty>) -> Term {
    if map.is_empty() {
        return t.clone();
    }
    match t {
        Term::Var(_) | Term::IntLit(_) | Term::BoolLit(_) | Term::Prim(_) => t.clone(),
        Term::App(f, args) => Term::App(
            Box::new(subst_ty_in_term(f, map)),
            args.iter().map(|a| subst_ty_in_term(a, map)).collect(),
        ),
        Term::Lam(params, body) => Term::Lam(
            params
                .iter()
                .map(|(x, ty)| (*x, subst_ty_map(ty, map)))
                .collect(),
            Arc::new(subst_ty_in_term(body, map)),
        ),
        Term::TyAbs(vars, body) => {
            // Drop shadowed mappings; rename binders that would capture a
            // free type variable of the substituted types.
            let mut inner: HashMap<Symbol, Ty> = map
                .iter()
                .filter(|(k, _)| !vars.contains(k))
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            let range_fvs: HashSet<Symbol> = inner.values().flat_map(free_ty_vars).collect();
            let in_body = |s| free_ty_vars_in_term(body).contains(&s);
            let new_vars = Symbol::rename_binders(vars, |s| range_fvs.contains(&s), in_body);
            for (&v, &n) in vars.iter().zip(&new_vars).filter(|(v, n)| v != n) {
                inner.insert(v, Ty::Var(n));
            }
            Term::TyAbs(new_vars, Arc::new(subst_ty_in_term(body, &inner)))
        }
        Term::TyApp(f, tys) => Term::TyApp(
            Box::new(subst_ty_in_term(f, map)),
            tys.iter().map(|ty| subst_ty_map(ty, map)).collect(),
        ),
        Term::Let(x, e1, e2) => Term::Let(
            *x,
            Box::new(subst_ty_in_term(e1, map)),
            Box::new(subst_ty_in_term(e2, map)),
        ),
        Term::Tuple(items) => {
            Term::Tuple(items.iter().map(|i| subst_ty_in_term(i, map)).collect())
        }
        Term::Nth(e, i) => Term::Nth(Box::new(subst_ty_in_term(e, map)), *i),
        Term::If(c, a, b) => Term::If(
            Box::new(subst_ty_in_term(c, map)),
            Box::new(subst_ty_in_term(a, map)),
            Box::new(subst_ty_in_term(b, map)),
        ),
        Term::Fix(x, ty, body) => Term::Fix(
            *x,
            subst_ty_map(ty, map),
            Arc::new(subst_ty_in_term(body, map)),
        ),
    }
}

/// Why a term cannot take a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stuck {
    /// The term is a value (normal form) — not an error.
    Value,
    /// `car`/`cdr` of `nil` — the one legitimate runtime failure.
    EmptyList(Prim),
    /// Anything else: only reachable on ill-typed input.
    IllTyped(String),
}

/// Performs one call-by-value reduction step, or explains why none exists.
///
/// # Errors
///
/// Returns [`Stuck::Value`] for normal forms, [`Stuck::EmptyList`] for
/// `car`/`cdr` of `nil`, and [`Stuck::IllTyped`] only for terms that do
/// not typecheck.
pub fn step(t: &Term) -> Result<Term, Stuck> {
    if is_value(t) {
        return Err(Stuck::Value);
    }
    match t {
        Term::App(f, args) => {
            if !is_value(f) {
                return Ok(Term::App(Box::new(step(f)?), args.clone()));
            }
            // Reduce arguments left to right.
            for (i, a) in args.iter().enumerate() {
                if !is_value(a) {
                    let mut args = args.clone();
                    args[i] = step(a)?;
                    return Ok(Term::App(f.clone(), args));
                }
            }
            apply_value(f, args)
        }
        Term::TyApp(f, tys) => {
            if !is_value(f) {
                return Ok(Term::TyApp(Box::new(step(f)?), tys.clone()));
            }
            match &**f {
                Term::TyAbs(vars, body) => {
                    if vars.len() != tys.len() {
                        return Err(Stuck::IllTyped("type-arity mismatch".into()));
                    }
                    let map: HashMap<Symbol, Ty> =
                        vars.iter().copied().zip(tys.iter().cloned()).collect();
                    Ok(subst_ty_in_term(body, &map))
                }
                _ => Err(Stuck::IllTyped(format!("cannot type-apply {f}"))),
            }
        }
        Term::Let(x, e1, e2) => {
            if is_value(e1) {
                Ok(subst_term(e2, *x, e1))
            } else {
                Ok(Term::Let(*x, Box::new(step(e1)?), e2.clone()))
            }
        }
        Term::Tuple(items) => {
            for (i, item) in items.iter().enumerate() {
                if !is_value(item) {
                    let mut items = items.clone();
                    items[i] = step(item)?;
                    return Ok(Term::Tuple(items));
                }
            }
            Err(Stuck::Value)
        }
        Term::Nth(e, i) => {
            if !is_value(e) {
                return Ok(Term::Nth(Box::new(step(e)?), *i));
            }
            match &**e {
                Term::Tuple(items) => items
                    .get(*i)
                    .cloned()
                    .ok_or_else(|| Stuck::IllTyped("projection out of bounds".into())),
                _ => Err(Stuck::IllTyped(format!("cannot project from {e}"))),
            }
        }
        Term::If(c, a, b) => {
            if !is_value(c) {
                return Ok(Term::If(Box::new(step(c)?), a.clone(), b.clone()));
            }
            match &**c {
                Term::BoolLit(true) => Ok((**a).clone()),
                Term::BoolLit(false) => Ok((**b).clone()),
                _ => Err(Stuck::IllTyped("non-boolean condition".into())),
            }
        }
        Term::Fix(x, _ty, body) => Ok(subst_term(body, *x, t)),
        Term::Var(x) => Err(Stuck::IllTyped(format!("free variable {x}"))),
        _ => Err(Stuck::Value),
    }
}

/// β / δ reduction of a value applied to value arguments.
fn apply_value(f: &Term, args: &[Term]) -> Result<Term, Stuck> {
    match f {
        Term::Lam(params, body) => {
            if params.len() != args.len() {
                return Err(Stuck::IllTyped("arity mismatch".into()));
            }
            let mut out = (**body).clone();
            // Simultaneous substitution via fresh staging to avoid one
            // argument's free variables colliding with a later parameter —
            // arguments are closed in whole-program stepping, but stay safe.
            for ((x, _), a) in params.iter().zip(args) {
                out = subst_term(&out, *x, a);
            }
            Ok(out)
        }
        Term::Prim(p) => delta(*p, args),
        Term::TyApp(inner, _tys) => match &**inner {
            Term::Prim(p) => delta(*p, args),
            _ => Err(Stuck::IllTyped(format!("cannot apply {f}"))),
        },
        _ => Err(Stuck::IllTyped(format!("cannot apply {f}"))),
    }
}

fn delta(p: Prim, args: &[Term]) -> Result<Term, Stuck> {
    fn int2(args: &[Term]) -> Result<(i64, i64), Stuck> {
        match args {
            [Term::IntLit(a), Term::IntLit(b)] => Ok((*a, *b)),
            _ => Err(Stuck::IllTyped("bad primitive arguments".into())),
        }
    }
    fn bool2(args: &[Term]) -> Result<(bool, bool), Stuck> {
        match args {
            [Term::BoolLit(a), Term::BoolLit(b)] => Ok((*a, *b)),
            _ => Err(Stuck::IllTyped("bad primitive arguments".into())),
        }
    }
    /// Views a value as a list: `Some(None)` for nil, `Some(Some((h, t)))`
    /// for cons.
    #[allow(clippy::type_complexity)]
    fn as_list(v: &Term) -> Option<Option<(Term, Term)>> {
        match v {
            Term::TyApp(f, _) if matches!(**f, Term::Prim(Prim::Nil)) => Some(None),
            Term::App(f, args) if is_cons_head(f) && args.len() == 2 => {
                Some(Some((args[0].clone(), args[1].clone())))
            }
            _ => None,
        }
    }
    match p {
        Prim::IAdd => int2(args).map(|(a, b)| Term::IntLit(a.wrapping_add(b))),
        Prim::ISub => int2(args).map(|(a, b)| Term::IntLit(a.wrapping_sub(b))),
        Prim::IMult => int2(args).map(|(a, b)| Term::IntLit(a.wrapping_mul(b))),
        Prim::INeg => match args {
            [Term::IntLit(a)] => Ok(Term::IntLit(a.wrapping_neg())),
            _ => Err(Stuck::IllTyped("bad ineg argument".into())),
        },
        Prim::IEq => int2(args).map(|(a, b)| Term::BoolLit(a == b)),
        Prim::ILt => int2(args).map(|(a, b)| Term::BoolLit(a < b)),
        Prim::ILe => int2(args).map(|(a, b)| Term::BoolLit(a <= b)),
        Prim::BNot => match args {
            [Term::BoolLit(a)] => Ok(Term::BoolLit(!a)),
            _ => Err(Stuck::IllTyped("bad bnot argument".into())),
        },
        Prim::BAnd => bool2(args).map(|(a, b)| Term::BoolLit(a && b)),
        Prim::BOr => bool2(args).map(|(a, b)| Term::BoolLit(a || b)),
        Prim::BEq => bool2(args).map(|(a, b)| Term::BoolLit(a == b)),
        Prim::Nil | Prim::Cons => Err(Stuck::Value),
        Prim::Car => match args {
            [v] => match as_list(v) {
                Some(Some((h, _))) => Ok(h),
                Some(None) => Err(Stuck::EmptyList(Prim::Car)),
                None => Err(Stuck::IllTyped("car of non-list".into())),
            },
            _ => Err(Stuck::IllTyped("bad car arity".into())),
        },
        Prim::Cdr => match args {
            [v] => match as_list(v) {
                Some(Some((_, t))) => Ok(t),
                Some(None) => Err(Stuck::EmptyList(Prim::Cdr)),
                None => Err(Stuck::IllTyped("cdr of non-list".into())),
            },
            _ => Err(Stuck::IllTyped("bad cdr arity".into())),
        },
        Prim::Null => match args {
            [v] => match as_list(v) {
                Some(opt) => Ok(Term::BoolLit(opt.is_none())),
                None => Err(Stuck::IllTyped("null of non-list".into())),
            },
            _ => Err(Stuck::IllTyped("bad null arity".into())),
        },
    }
}

/// Runs a term to a normal form by repeated [`step`], bounded by `fuel`.
///
/// Returns the normal form and the number of steps taken, or the
/// irreducible non-value state.
///
/// # Errors
///
/// `Err((last_term, stuck))` when reduction stops for a reason other than
/// reaching a value, or when fuel runs out (`Stuck::IllTyped("out of
/// fuel")`).
pub fn normalize(t: &Term, fuel: usize) -> Result<(Term, usize), (Term, Stuck)> {
    let mut cur = t.clone();
    for n in 0..fuel {
        match step(&cur) {
            Ok(next) => cur = next,
            Err(Stuck::Value) => return Ok((cur, n)),
            Err(stuck) => return Err((cur, stuck)),
        }
    }
    Err((cur, Stuck::IllTyped("out of fuel".into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_term, typecheck};

    fn norm(src: &str) -> Term {
        let t = parse_term(src).unwrap();
        typecheck(&t).unwrap();
        normalize(&t, 100_000).map(|(v, _)| v).unwrap()
    }

    #[test]
    fn values_do_not_step() {
        for src in ["1", "true", "lam x: int. x", "tuple(1, 2)", "nil[int]",
                    "cons[int](1, nil[int])", "biglam t. lam x: t. x"] {
            let t = parse_term(src).unwrap();
            assert!(is_value(&t), "{src} should be a value");
            assert_eq!(step(&t), Err(Stuck::Value), "{src}");
        }
    }

    #[test]
    fn beta_reduction() {
        assert_eq!(norm("(lam x: int. iadd(x, 1))(41)"), Term::IntLit(42));
    }

    #[test]
    fn type_beta_reduction() {
        assert_eq!(norm("(biglam t. lam x: t. x)[int](7)"), Term::IntLit(7));
    }

    #[test]
    fn delta_rules() {
        assert_eq!(norm("imult(6, 7)"), Term::IntLit(42));
        assert_eq!(norm("ilt(1, 2)"), Term::BoolLit(true));
        assert_eq!(norm("car[int](cons[int](9, nil[int]))"), Term::IntLit(9));
        assert_eq!(norm("null[int](nil[int])"), Term::BoolLit(true));
    }

    #[test]
    fn let_and_if() {
        assert_eq!(norm("let x = 2 in if ieq(x, 2) then 10 else 20"), Term::IntLit(10));
    }

    #[test]
    fn fix_unrolls() {
        let src = "(fix go: fn(int) -> int. \
                      lam n: int. if ile(n, 0) then 0 else iadd(n, go(isub(n, 1))))(5)";
        assert_eq!(norm(src), Term::IntLit(15));
    }

    #[test]
    fn capture_avoidance_in_beta() {
        // (lam f: fn(int) -> int. lam x: int. f(x))(lam y: int. x) would
        // capture x if substitution were naive — but the argument has a
        // free variable only in open terms; simulate via let.
        let body = parse_term("lam x: int. f(x)").unwrap();
        let arg = parse_term("lam y: int. x").unwrap(); // free x
        let out = subst_term(&body, crate::Symbol::intern("f"), &arg);
        // The binder x must have been renamed: the free x of arg survives.
        let fvs = free_vars(&out);
        assert!(fvs.contains(&crate::Symbol::intern("x")), "{out}");
    }

    #[test]
    fn car_of_nil_is_legitimately_stuck() {
        let t = parse_term("car[int](nil[int])").unwrap();
        typecheck(&t).unwrap();
        let err = normalize(&t, 100).unwrap_err();
        assert_eq!(err.1, Stuck::EmptyList(Prim::Car));
    }

    #[test]
    fn preservation_along_a_trace() {
        let t = parse_term(
            "let f = lam x: int, y: int. iadd(imult(x, x), y) in f(3, if true then 1 else 2)",
        )
        .unwrap();
        let ty = typecheck(&t).unwrap();
        let mut cur = t;
        loop {
            match step(&cur) {
                Ok(next) => {
                    let nty = typecheck(&next).unwrap_or_else(|e| {
                        panic!("preservation violated at {next}: {e}")
                    });
                    assert!(crate::types::alpha_eq(&nty, &ty), "{nty} vs {ty}");
                    cur = next;
                }
                Err(Stuck::Value) => break,
                Err(s) => panic!("progress violated: {s:?}"),
            }
        }
        assert_eq!(cur, Term::IntLit(10));
    }

    #[test]
    fn smallstep_agrees_with_bigstep() {
        let srcs = [
            "iadd(1, imult(2, 3))",
            "(lam x: int. iadd(x, x))(21)",
            "let l = cons[int](1, cons[int](2, nil[int])) in \
             iadd(car[int](l), car[int](cdr[int](l)))",
            "(fix go: fn(int) -> int. lam n: int. \
               if ile(n, 1) then 1 else imult(n, go(isub(n, 1))))(6)",
        ];
        for src in srcs {
            let t = parse_term(src).unwrap();
            typecheck(&t).unwrap();
            let (nf, _) = normalize(&t, 1_000_000).unwrap();
            let big = crate::eval(&t).unwrap();
            match (nf, big) {
                (Term::IntLit(a), crate::Value::Int(b)) => assert_eq!(a, b, "{src}"),
                (Term::BoolLit(a), crate::Value::Bool(b)) => assert_eq!(a, b, "{src}"),
                (nf, big) => panic!("{src}: {nf} vs {big}"),
            }
        }
    }
}
