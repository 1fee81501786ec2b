//! Property test: pretty-printing then parsing is the identity on System F
//! ASTs (types and terms), for arbitrary — not necessarily well-typed —
//! syntax trees.

use proptest::prelude::*;
use std::sync::Arc;
use system_f::{parse_term, parse_ty, Prim, Symbol, Term, Ty};

/// Identifier pool, chosen to avoid keywords and primitive names so the
/// round-trip is exact (a variable that happened to be called `iadd` would
/// legitimately re-parse as the primitive).
const NAMES: &[&str] = &["x", "y", "z", "w", "acc", "foo", "bar", "t1", "u1", "elt"];

fn name() -> impl Strategy<Value = Symbol> {
    (0..NAMES.len()).prop_map(|i| Symbol::intern(NAMES[i]))
}

fn ty_strategy() -> BoxedStrategy<Ty> {
    let leaf = prop_oneof![
        Just(Ty::Int),
        Just(Ty::Bool),
        name().prop_map(Ty::Var),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|t| Ty::List(Box::new(t))),
            (proptest::collection::vec(inner.clone(), 0..3), inner.clone())
                .prop_map(|(ps, r)| Ty::Fn(ps, Box::new(r))),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Ty::Tuple),
            (proptest::collection::vec(name(), 1..3), inner)
                .prop_map(|(vs, b)| Ty::Forall(vs, Box::new(b))),
        ]
    })
    .boxed()
}

fn prim_strategy() -> impl Strategy<Value = Prim> {
    (0..Prim::ALL.len()).prop_map(|i| Prim::ALL[i])
}

fn term_strategy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        name().prop_map(Term::Var),
        any::<i32>().prop_map(|n| Term::IntLit(n as i64)),
        any::<bool>().prop_map(Term::BoolLit),
        prim_strategy().prop_map(Term::Prim),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        let ty = ty_strategy();
        prop_oneof![
            (inner.clone(), proptest::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| Term::App(Box::new(f), args)),
            (
                proptest::collection::vec((name(), ty.clone()), 1..3),
                inner.clone()
            )
                .prop_map(|(ps, b)| Term::Lam(ps, Arc::new(b))),
            (proptest::collection::vec(name(), 1..3), inner.clone())
                .prop_map(|(vs, b)| Term::TyAbs(vs, Arc::new(b))),
            (inner.clone(), proptest::collection::vec(ty.clone(), 1..3))
                .prop_map(|(f, tys)| Term::TyApp(Box::new(f), tys)),
            (name(), inner.clone(), inner.clone())
                .prop_map(|(x, a, b)| Term::let_(x, a, b)),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Term::Tuple),
            (inner.clone(), 0usize..4).prop_map(|(e, i)| Term::Nth(Box::new(e), i)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Term::if_(c, t, e)),
            (name(), ty, inner).prop_map(|(x, t, b)| Term::Fix(x, t, Arc::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ty_roundtrips_through_concrete_syntax(ty in ty_strategy()) {
        let printed = ty.to_string();
        let reparsed = parse_ty(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse {printed:?}: {e}"));
        prop_assert_eq!(reparsed, ty);
    }

    #[test]
    fn term_roundtrips_through_concrete_syntax(term in term_strategy()) {
        let printed = term.to_string();
        let reparsed = parse_term(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse {printed:?}: {e}"));
        prop_assert_eq!(reparsed, term);
    }
}
