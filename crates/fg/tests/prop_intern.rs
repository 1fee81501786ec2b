//! Differential tests for the hash-consing type interner: interned
//! equality, substitution, and congruence queries must agree with the
//! plain tree-walking definitions on random `RTy` values, and the
//! per-concept indexed model resolution must preserve the paper's
//! Figure 6 scoped-overlap semantics.
//!
//! The `RTy` generator draws binder lists from a fixed pool (`[s]` or
//! `[s, u]`), so any two alpha-equivalent values it produces are also
//! structurally equal — which makes plain `==` the tree-walking oracle
//! for the congruence differential. Alpha-equivalence across *different*
//! binder names is covered separately by a unit test below.

use std::collections::HashMap;
use std::sync::Arc;

use fg::limits::{compile_with_budget, Budget, Limits, PipelineError, Resource};
use fg::rty::{subst, ConceptId, RConstraint, RTy, TyInterner};
use fg::typeeq::TypeEq;
use proptest::prelude::*;
use system_f::Symbol;

fn sym(name: &str) -> Symbol {
    Symbol::intern(name)
}

/// Free/bound variable pool. Binders only ever use `s` and `u` (fixed
/// order), so alpha-equivalence degenerates to structural equality; see
/// the module comment.
fn var_strategy() -> BoxedStrategy<Symbol> {
    prop_oneof![Just("a"), Just("b"), Just("s"), Just("u"), Just("t")]
        .prop_map(sym)
        .boxed()
}

fn leaf_strategy() -> BoxedStrategy<RTy> {
    prop_oneof![
        Just(RTy::Int),
        Just(RTy::Bool),
        var_strategy().prop_map(RTy::Var).boxed(),
    ]
    .boxed()
}

fn constraint_strategy(inner: BoxedStrategy<RTy>) -> BoxedStrategy<RConstraint> {
    prop_oneof![
        (0u32..3, proptest::collection::vec(inner.clone(), 1..3)).prop_map(|(c, args)| {
            RConstraint::Model {
                concept: ConceptId(c),
                concept_name: sym(&format!("C{c}")),
                args,
            }
        }),
        (inner.clone(), inner).prop_map(|(l, r)| RConstraint::SameTy(l, r)),
    ]
    .boxed()
}

fn rty_strategy() -> BoxedStrategy<RTy> {
    leaf_strategy().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(RTy::list),
            (proptest::collection::vec(inner.clone(), 0..3), inner.clone())
                .prop_map(|(ps, r)| RTy::func(ps, r)),
            (0u32..3, proptest::collection::vec(inner.clone(), 1..3)).prop_map(|(c, args)| {
                RTy::Assoc {
                    concept: ConceptId(c),
                    concept_name: sym(&format!("C{c}")),
                    args,
                    name: sym("elt"),
                }
            }),
            (
                prop_oneof![Just(vec!["s"]), Just(vec!["s", "u"])],
                proptest::collection::vec(constraint_strategy(inner.clone()), 0..2),
                inner.clone(),
            )
                .prop_map(|(vars, constraints, body)| RTy::Forall {
                    vars: vars.into_iter().map(sym).collect(),
                    constraints,
                    body: Box::new(body),
                }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Hash-consing is bijective with tree structure: two types intern
    /// to the same id exactly when they are equal as trees, and
    /// interning round-trips losslessly.
    #[test]
    fn intern_ids_agree_with_tree_equality(a in rty_strategy(), b in rty_strategy()) {
        let interner = TyInterner::new();
        let ia = interner.intern(&a);
        let ib = interner.intern(&b);
        prop_assert_eq!(ia == ib, a == b, "{a:?} vs {b:?}");
        prop_assert_eq!(interner.to_rty(ia), a);
        prop_assert_eq!(interner.to_rty(ib), b);
        // Interning is idempotent: a second pass allocates nothing.
        let before = interner.stats().arena_types;
        prop_assert_eq!(interner.intern(&a), ia);
        prop_assert_eq!(interner.stats().arena_types, before);
    }

    /// With no assertions in scope, the congruence-backed `eq` and
    /// `resolve` agree with tree-walking: equality is structural and
    /// resolution is the identity. After asserting `a == b`, the pair
    /// (and every congruent wrapping of it) must be equal.
    #[test]
    fn typeeq_agrees_with_tree_walking(a in rty_strategy(), b in rty_strategy()) {
        let mut teq = TypeEq::new();
        let it = teq.interner();
        let (ia, ib) = (it.intern(&a), it.intern(&b));
        prop_assert_eq!(teq.eq(ia, ib), a == b, "{a:?} vs {b:?}");
        prop_assert_eq!(it.to_rty(teq.resolve(ia)), a.clone());
        prop_assert_eq!(it.to_rty(teq.resolve(ib)), b.clone());
        // Re-querying after the encode caches warm must not change the
        // answer.
        prop_assert_eq!(teq.eq(ia, ib), a == b);

        let mut teq = TypeEq::new();
        let it = teq.interner();
        let (ia, ib) = (it.intern(&a), it.intern(&b));
        teq.assert_eq(ia, ib);
        prop_assert!(teq.eq(ia, ib));
        prop_assert!(teq.eq(
            it.intern(&RTy::list(a.clone())),
            it.intern(&RTy::list(b.clone())),
        ));
        prop_assert!(teq.eq(
            it.intern(&RTy::func(vec![a.clone()], RTy::Int)),
            it.intern(&RTy::func(vec![b.clone()], RTy::Int)),
        ));
    }

    /// Substitution through the interner (`SubstId` + cache) produces
    /// exactly the tree the tree-walking `subst` builds, binder names
    /// included: both leave a node none of whose free variables the map
    /// touches as it is.
    #[test]
    fn interned_subst_agrees_with_tree_subst(
        a in rty_strategy(),
        x in var_strategy(),
        r in rty_strategy(),
    ) {
        let mut map = HashMap::new();
        map.insert(x, r.clone());
        let expect = subst(&a, &map);

        let interner = TyInterner::new();
        let sid = interner.subst_id(&[(x, interner.intern(&r))]);
        let got = interner.to_rty(interner.subst(interner.intern(&a), sid));
        prop_assert_eq!(
            &got,
            &expect,
            "subst [{:?} := {:?}] in {:?}",
            x,
            r,
            a
        );
        // And again, through the now-warm substitution cache: the memo
        // must return the very same node.
        let again = interner.to_rty(interner.subst(interner.intern(&a), sid));
        prop_assert_eq!(again, got);
    }
}

/// Universal types are compared up to alpha-equivalence (binders are
/// canonicalized to de Bruijn indices in the congruence encoding), which
/// the structural oracle above deliberately sidesteps.
#[test]
fn forall_equality_is_alpha_equivalence() {
    let fa = RTy::Forall {
        vars: vec![sym("x")],
        constraints: Vec::new(),
        body: Box::new(RTy::func(vec![RTy::Var(sym("x"))], RTy::Var(sym("x")))),
    };
    let fb = RTy::Forall {
        vars: vec![sym("y")],
        constraints: Vec::new(),
        body: Box::new(RTy::func(vec![RTy::Var(sym("y"))], RTy::Var(sym("y")))),
    };
    let free = RTy::Forall {
        vars: vec![sym("y")],
        constraints: Vec::new(),
        body: Box::new(RTy::func(vec![RTy::Var(sym("y"))], RTy::Var(sym("x")))),
    };
    let mut teq = TypeEq::new();
    let it = teq.interner();
    let (fa, fb, free) = (it.intern(&fa), it.intern(&fb), it.intern(&free));
    assert!(teq.eq(fa, fb), "alpha-renamed foralls must be equal");
    assert!(!teq.eq(fa, free), "free variable capture must not equate");
}

/// The paper's Figure 6: with the per-concept model index in place, the
/// two lexically scoped `Monoid<int>` models (sum and product) must
/// still resolve *per scope*. The end-to-end value 100·sum + product =
/// 302 is only produced when each instantiation of `accumulate` picks
/// its own scope's model — a lookup answer leaking across the scope
/// boundary would yield 300 or 103 instead.
#[test]
fn fig6_overlapping_models_resolve_per_scope() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig6_overlapping.fg"
    );
    let src = std::fs::read_to_string(path).expect("read fig6 example");
    let v = fg::run(&src).expect("fig6 runs");
    assert_eq!(v, system_f::Value::Int(302));
}

/// Scope push/pop with identical constraint keys: the same `M<int>`
/// requirement discharged in two sibling scopes with different models
/// must pick each scope's own model even though the lookup
/// `(concept, args)` is identical — the index bucket popped on leaving
/// the first scope must not answer for the second.
#[test]
fn memo_does_not_leak_across_sibling_scopes() {
    let src = r#"
        concept M<t> { v : t; } in
        let first  = model M<int> { v = 1; } in (biglam t where M<t>. M<t>.v)[int] in
        let second = model M<int> { v = 2; } in (biglam t where M<t>. M<t>.v)[int] in
        iadd(imult(10, first), second)
    "#;
    let v = fg::run(src).expect("scoped program runs");
    assert_eq!(v, system_f::Value::Int(12));
}

/// Satellite: interner arena growth is metered. A program small enough
/// to need almost no congruence work still trips `max_cc_terms` when the
/// cap is below its interning footprint, exactly at the boundary.
#[test]
fn interner_arena_growth_charges_the_cc_terms_meter() {
    const PROGRAM: &str = r#"
        concept M<t> { v : t; } in
        model M<int> { v = 7; } in
        lam f: fn(list int, fn(bool) -> list bool) -> int.
          lam g: list (list (fn(int) -> bool)).
            (biglam t where M<t>. M<t>.v)[int]
    "#;
    // Measure the exact footprint with no caps.
    let budget = Arc::new(Budget::new(Limits::UNLIMITED));
    compile_with_budget(PROGRAM, &budget).expect("program compiles clean");
    let measured = budget.cc_terms();
    assert!(
        measured > 8,
        "program must exercise the interner meter (cc_terms = {measured})"
    );

    // Pass at the measured consumption…
    let mut limits = Limits::UNLIMITED;
    limits.max_cc_terms = Some(measured);
    let budget = Arc::new(Budget::new(limits));
    compile_with_budget(PROGRAM, &budget).expect("passes at the exact boundary");

    // …and trip one unit below it, with the structured resource error.
    let mut limits = Limits::UNLIMITED;
    limits.max_cc_terms = Some(measured - 1);
    let budget = Arc::new(Budget::new(limits));
    let err = compile_with_budget(PROGRAM, &budget).expect_err("trips one below");
    match err {
        PipelineError::Check(e) => {
            let rendered = format!("{e}");
            assert!(
                rendered.contains("congruence") || rendered.contains("budget"),
                "diagnostic names the resource: {rendered}"
            );
        }
        other => panic!("expected a check-stage resource error, got {other:?}"),
    }
    assert_eq!(
        budget.exhausted().map(|x| x.resource),
        Some(Resource::CcTerms)
    );
}
