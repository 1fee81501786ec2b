//! Workspace-level reproduction tests: every figure and worked example of
//! the paper runs end-to-end across all three crates — F_G front end →
//! dictionary-passing translation → System F typechecker and evaluator —
//! and produces the value the paper's prose implies.
//!
//! Experiment ids refer to DESIGN.md §3 and EXPERIMENTS.md.

use fg_lang::fg::{self, corpus};
use fg_lang::system_f;

/// Parses and checks `src`, panicking on any error.
fn compile(src: &str) -> fg::Compiled {
    let expr = fg::parser::parse_expr(src).expect("parse");
    fg::check_program(&expr).expect("compile")
}

/// F1, F5, F6, §3.1, §5, §5.2: each corpus program typechecks, its
/// translation typechecks in System F (Theorems 1/2), and both execution
/// paths produce the paper's expected value.
#[test]
fn every_corpus_program_reproduces_the_paper() {
    for p in corpus::ALL {
        let expr = fg::parser::parse_expr(p.source)
            .unwrap_or_else(|e| panic!("{}: parse: {e}", p.id));
        let compiled = fg::check_program(&expr)
            .unwrap_or_else(|e| panic!("{}: typecheck: {e}", p.id));
        system_f::typecheck(&compiled.term)
            .unwrap_or_else(|e| panic!("{}: translation ill-typed: {e}", p.id));
        let v = system_f::eval(&compiled.term)
            .unwrap_or_else(|e| panic!("{}: eval: {e}", p.id));
        assert!(
            p.expected.matches(&v),
            "{} ({}): got {v}, expected {:?}",
            p.id,
            p.title,
            p.expected
        );
        let d = fg::interp::run_direct(&compiled.elaborated)
            .unwrap_or_else(|e| panic!("{}: direct eval: {e}", p.id));
        assert!(d.agrees_with(&v), "{}: direct {d} != translated {v}", p.id);
    }
}

/// F3: Figure 3's higher-order sum really is plain System F — it parses,
/// typechecks, and evaluates to 3 without any F_G machinery.
#[test]
fn figure_3_higher_order_sum_in_system_f() {
    let term = system_f::parse_term(corpus::FIG3_SUM_SYSTEM_F).expect("parse");
    assert_eq!(system_f::typecheck(&term), Ok(system_f::Ty::Int));
    assert_eq!(system_f::eval(&term).unwrap(), system_f::Value::Int(3));
}

/// F7: the translation of Figure 6's model declarations produces the
/// dictionary shapes drawn in Figure 7 — `Semigroup = (iadd)` and
/// `Monoid = (Semigroup-dict, 0)` — bound by `let` and consumed by `nth`
/// projections.
#[test]
fn figure_7_dictionary_representation() {
    let src = "
        concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
        concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
        model Semigroup<int> { binary_op = iadd; } in
        model Monoid<int> { identity_elt = 0; } in
        Monoid<int>.binary_op(40, 2)";
    let compiled = compile(src);
    let printed = compiled.term.to_string();

    // The Semigroup dictionary is a 1-tuple holding iadd (via a member let).
    assert!(printed.contains("binary_op_"), "missing member let: {printed}");
    assert!(printed.contains("tuple(binary_op_"), "Semigroup dict shape: {printed}");
    // The Monoid dictionary embeds the Semigroup dictionary first.
    assert!(printed.contains("tuple(Semigroup_"), "Monoid dict shape: {printed}");
    // Member access through refinement is a nested nth path: dict.0.0.
    assert!(printed.contains(".0.0"), "refinement projection path: {printed}");

    assert_eq!(
        system_f::eval(&compiled.term).unwrap(),
        system_f::Value::Int(42)
    );
}

/// §4's translation of `accumulate`: the where clause becomes a dictionary
/// parameter — `biglam t. lam Monoid_NN: <dict type>. body` — and the
/// instantiation applies the dictionary.
#[test]
fn where_clause_translates_to_dictionary_parameter() {
    let p = corpus::FIG5_ACCUMULATE;
    let compiled = compile(p.source);
    let printed = compiled.term.to_string();
    assert!(
        printed.contains("biglam t. lam Monoid_"),
        "expected dictionary-lambda translation: {printed}"
    );
    // The instantiation `accumulate[int](ls)` becomes `accumulate[int](dict)(ls)`.
    assert!(
        printed.contains("accumulate[int](Monoid_"),
        "expected dictionary application at the call site: {printed}"
    );
}

/// §5.2's merge translation: one type parameter per associated type, a
/// single representative in dictionary types.
#[test]
fn merge_translation_collapses_element_types() {
    let p = corpus::SEC5_MERGE;
    let compiled = compile(p.source);
    let printed = compiled.term.to_string();
    // Two elt binders (one per Iterator constraint)…
    let binders = printed
        .split("biglam I1, I2, Out, ")
        .nth(1)
        .expect("merge biglam present");
    let binder_list: String = binders.chars().take_while(|c| *c != '.').collect();
    assert_eq!(
        binder_list.matches("elt_").count(),
        2,
        "expected two lifted elt parameters in {binder_list:?}"
    );
    // …but only the representative appears in the dictionary types: the
    // second elt binder occurs exactly once (its binding occurrence).
    let second_elt = binder_list.split(", ").last().unwrap().trim().to_owned();
    assert_eq!(
        printed.matches(&second_elt).count(),
        1,
        "non-representative {second_elt} should only occur at its binder"
    );
}

/// The congruence-closure substrate is what decides the same-type
/// constraints above; sanity-check it directly on the paper's scenario.
#[test]
fn congruence_decides_iterator_element_equality() {
    use fg_lang::congruence::{Congruence, Op};

    let mut cc = Congruence::new();
    let elt = Op(0); // Iterator<->.elt as an uninterpreted operator
    let i1 = cc.constant(Op(1));
    let i2 = cc.constant(Op(2));
    let e1 = cc.term(elt, &[i1]);
    let e2 = cc.term(elt, &[i2]);
    assert!(!cc.eq(e1, e2), "opaque associated types start distinct");
    cc.merge(e1, e2); // the same-type constraint
    assert!(cc.eq(e1, e2));
    // Congruence: list(e1) = list(e2) follows.
    let list = Op(3);
    let l1 = cc.term(list, &[e1]);
    let l2 = cc.term(list, &[e2]);
    assert!(cc.eq(l1, l2));
}

/// The prelude (a small STL) typechecks, translates, and runs — the
/// "generic programming in the large" claim on a library-sized program.
#[test]
fn stl_prelude_end_to_end() {
    let src = fg::stdlib::with_prelude(
        "iadd(accumulate[int](range(1, 11)),
              count_if[list int](reverse[int](range(0, 100)), lam x: int. ilt(x, 5)))",
    );
    let compiled = compile(&src);
    system_f::typecheck(&compiled.term).expect("translation well-typed");
    assert_eq!(
        system_f::eval(&compiled.term).unwrap(),
        system_f::Value::Int(60)
    );
}
