//! Operations on System F types: free variables, capture-avoiding
//! substitution, and alpha-equivalence.

use crate::{Symbol, Ty};
use std::collections::{HashMap, HashSet};

/// Collects the free type variables of `ty` into `out`.
pub fn free_ty_vars_into(ty: &Ty, bound: &mut Vec<Symbol>, out: &mut HashSet<Symbol>) {
    match ty {
        Ty::Var(v) => {
            if !bound.contains(v) {
                out.insert(*v);
            }
        }
        Ty::Int | Ty::Bool => {}
        Ty::List(t) => free_ty_vars_into(t, bound, out),
        Ty::Fn(params, ret) => {
            for p in params {
                free_ty_vars_into(p, bound, out);
            }
            free_ty_vars_into(ret, bound, out);
        }
        Ty::Tuple(items) => {
            for t in items {
                free_ty_vars_into(t, bound, out);
            }
        }
        Ty::Forall(vars, body) => {
            let n = bound.len();
            bound.extend_from_slice(vars);
            free_ty_vars_into(body, bound, out);
            bound.truncate(n);
        }
    }
}

/// The free type variables of `ty` (the paper's FTV).
pub fn free_ty_vars(ty: &Ty) -> HashSet<Symbol> {
    let mut out = HashSet::new();
    free_ty_vars_into(ty, &mut Vec::new(), &mut out);
    out
}

/// Simultaneous capture-avoiding substitution `[t̄ ↦ σ̄]τ`.
///
/// A `forall` binder that would capture a free variable of the
/// substituted types is renamed ([`Symbol::rename_binders`]).
pub fn subst(ty: &Ty, map: &HashMap<Symbol, Ty>) -> Ty {
    if map.is_empty() {
        return ty.clone();
    }
    match ty {
        Ty::Var(v) => map.get(v).cloned().unwrap_or_else(|| ty.clone()),
        Ty::Int | Ty::Bool => ty.clone(),
        Ty::List(t) => Ty::List(Box::new(subst(t, map))),
        Ty::Fn(params, ret) => Ty::Fn(
            params.iter().map(|p| subst(p, map)).collect(),
            Box::new(subst(ret, map)),
        ),
        Ty::Tuple(items) => Ty::Tuple(items.iter().map(|t| subst(t, map)).collect()),
        Ty::Forall(vars, body) => {
            // Drop shadowed mappings; rename binders that would capture.
            let mut inner: HashMap<Symbol, Ty> = map
                .iter()
                .filter(|(k, _)| !vars.contains(k))
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            let range_fvs: HashSet<Symbol> = inner.values().flat_map(free_ty_vars).collect();
            let in_body = |s| free_ty_vars(body).contains(&s);
            let new_vars = Symbol::rename_binders(vars, |s| range_fvs.contains(&s), in_body);
            for (&v, &n) in vars.iter().zip(&new_vars).filter(|(v, n)| v != n) {
                inner.insert(v, Ty::Var(n));
            }
            Ty::Forall(new_vars, Box::new(subst(body, &inner)))
        }
    }
}

/// Substitutes a single variable.
pub fn subst_one(ty: &Ty, var: Symbol, replacement: &Ty) -> Ty {
    let mut map = HashMap::new();
    map.insert(var, replacement.clone());
    subst(ty, &map)
}

/// Alpha-equivalence of types: equality up to consistent renaming of
/// `forall`-bound variables.
pub fn alpha_eq(a: &Ty, b: &Ty) -> bool {
    fn go(a: &Ty, b: &Ty, env_a: &mut Vec<Symbol>, env_b: &mut Vec<Symbol>) -> bool {
        match (a, b) {
            (Ty::Var(x), Ty::Var(y)) => {
                // De Bruijn-style comparison through the binder stacks.
                let ia = env_a.iter().rposition(|v| v == x);
                let ib = env_b.iter().rposition(|v| v == y);
                match (ia, ib) {
                    (Some(i), Some(j)) => i == j,
                    (None, None) => x == y,
                    _ => false,
                }
            }
            (Ty::Int, Ty::Int) | (Ty::Bool, Ty::Bool) => true,
            (Ty::List(x), Ty::List(y)) => go(x, y, env_a, env_b),
            (Ty::Fn(ps, r), Ty::Fn(qs, s)) => {
                ps.len() == qs.len()
                    && ps.iter().zip(qs).all(|(p, q)| go(p, q, env_a, env_b))
                    && go(r, s, env_a, env_b)
            }
            (Ty::Tuple(xs), Ty::Tuple(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| go(x, y, env_a, env_b))
            }
            (Ty::Forall(vs, x), Ty::Forall(ws, y)) => {
                if vs.len() != ws.len() {
                    return false;
                }
                let (na, nb) = (env_a.len(), env_b.len());
                env_a.extend_from_slice(vs);
                env_b.extend_from_slice(ws);
                let r = go(x, y, env_a, env_b);
                env_a.truncate(na);
                env_b.truncate(nb);
                r
            }
            _ => false,
        }
    }
    go(a, b, &mut Vec::new(), &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Ty {
        Ty::Var(Symbol::intern(name))
    }
    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn ftv_of_open_type() {
        let t = Ty::func(vec![v("a")], Ty::list(v("b")));
        let fvs = free_ty_vars(&t);
        assert!(fvs.contains(&s("a")) && fvs.contains(&s("b")));
        assert_eq!(fvs.len(), 2);
    }

    #[test]
    fn ftv_excludes_bound() {
        let t = Ty::forall(vec![s("a")], Ty::func(vec![v("a")], v("b")));
        let fvs = free_ty_vars(&t);
        assert!(!fvs.contains(&s("a")));
        assert!(fvs.contains(&s("b")));
    }

    #[test]
    fn subst_replaces_free_occurrences() {
        let t = Ty::func(vec![v("a")], v("a"));
        let r = subst_one(&t, s("a"), &Ty::Int);
        assert_eq!(r, Ty::func(vec![Ty::Int], Ty::Int));
    }

    #[test]
    fn subst_respects_shadowing() {
        let t = Ty::forall(vec![s("a")], v("a"));
        let r = subst_one(&t, s("a"), &Ty::Int);
        assert!(alpha_eq(&r, &t));
    }

    #[test]
    fn subst_avoids_capture() {
        // [b ↦ a](forall a. fn(a) -> b)  must NOT become forall a. fn(a)->a.
        let t = Ty::forall(vec![s("a")], Ty::func(vec![v("a")], v("b")));
        let r = subst_one(&t, s("b"), &v("a"));
        let bad = Ty::forall(vec![s("a")], Ty::func(vec![v("a")], v("a")));
        assert!(!alpha_eq(&r, &bad));
        // It should be alpha-equal to forall c. fn(c) -> a.
        let good = Ty::forall(vec![s("c")], Ty::func(vec![v("c")], v("a")));
        assert!(alpha_eq(&r, &good));
    }

    #[test]
    fn capturing_binder_takes_the_first_name_free_in_range_and_body() {
        // [b ↦ a](forall a. fn(a, a_0) -> b): `a_0` is free in the body.
        let t = Ty::forall(vec![s("a")], Ty::func(vec![v("a"), v("a_0")], v("b")));
        let r = subst_one(&t, s("b"), &v("a"));
        let want = Ty::forall(vec![s("a_1")], Ty::func(vec![v("a_1"), v("a_0")], v("a")));
        assert_eq!(r, want);
        assert_eq!(
            subst_one(&t, s("b"), &v("a")),
            r,
            "the same inputs, the same name"
        );
    }

    #[test]
    fn alpha_eq_renames_binders() {
        let t1 = Ty::forall(vec![s("a")], Ty::func(vec![v("a")], v("a")));
        let t2 = Ty::forall(vec![s("b")], Ty::func(vec![v("b")], v("b")));
        assert!(alpha_eq(&t1, &t2));
    }

    #[test]
    fn alpha_eq_distinguishes_structure() {
        let t1 = Ty::forall(vec![s("a"), s("b")], Ty::func(vec![v("a")], v("b")));
        let t2 = Ty::forall(vec![s("a"), s("b")], Ty::func(vec![v("b")], v("a")));
        assert!(!alpha_eq(&t1, &t2));
    }

    #[test]
    fn alpha_eq_free_vars_by_name() {
        assert!(alpha_eq(&v("a"), &v("a")));
        assert!(!alpha_eq(&v("a"), &v("b")));
    }

    #[test]
    fn alpha_eq_mixed_bound_free_fails() {
        // forall a. a  vs  forall b. a  (second body is free)
        let t1 = Ty::forall(vec![s("a")], v("a"));
        let t2 = Ty::forall(vec![s("b")], v("a"));
        assert!(!alpha_eq(&t1, &t2));
    }

    #[test]
    fn simultaneous_subst_is_parallel() {
        // [a ↦ b, b ↦ a] swaps, rather than cascading.
        let t = Ty::func(vec![v("a")], v("b"));
        let mut map = HashMap::new();
        map.insert(s("a"), v("b"));
        map.insert(s("b"), v("a"));
        let r = subst(&t, &map);
        assert_eq!(r, Ty::func(vec![v("b")], v("a")));
    }
}
