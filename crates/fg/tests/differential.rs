//! Differential testing: the direct F_G interpreter, the
//! translate-to-System-F pipeline (tree-walking evaluator), and the
//! bytecode VM must produce the same value for every well-typed program.
//! This validates that the dictionary-passing translation (the paper's
//! semantics) and the intended direct semantics coincide — the semantic
//! counterpart of Theorems 1 and 2.

use std::sync::Arc;

use fg::corpus;
use fg::interp::run_direct;
use fg::parser::parse_expr;
use fg::stdlib::with_prelude;
use system_f::{eval, typecheck};
use telemetry::limits::Budget;
use telemetry::trace::Tracer;

fn assert_agree(src: &str, label: &str) {
    let expr = parse_expr(src).unwrap_or_else(|e| panic!("{label}: parse error: {e}"));
    let compiled =
        fg::check_program(&expr).unwrap_or_else(|e| panic!("{label}: type error: {e}"));
    typecheck(&compiled.term)
        .unwrap_or_else(|e| panic!("{label}: ill-typed translation: {e}"));
    let translated = eval(&compiled.term)
        .unwrap_or_else(|e| panic!("{label}: translated eval failed: {e}"));
    let direct = run_direct(&compiled.elaborated)
        .unwrap_or_else(|e| panic!("{label}: direct eval failed: {e}"));
    assert!(
        direct.agrees_with(&translated),
        "{label}: direct {direct} != translated {translated}"
    );
    let vm = system_f::vm::compile(&compiled.term)
        .and_then(|p| system_f::vm::run_budgeted(&p, &Budget::unlimited()))
        .unwrap_or_else(|e| panic!("{label}: vm failed: {e}"));
    assert!(
        vm.agrees_with(&translated),
        "{label}: vm {vm} != translated {translated}"
    );
}

#[test]
fn corpus_programs_agree() {
    for p in corpus::ALL {
        assert_agree(p.source, p.id);
    }
}

#[test]
fn corpus_programs_match_paper_expectations_via_both_paths() {
    for p in corpus::ALL {
        let expr = parse_expr(p.source).unwrap();
        let compiled = fg::check_program(&expr).unwrap();
        let v = eval(&compiled.term).unwrap();
        assert!(
            p.expected.matches(&v),
            "{}: translated path produced {v}, expected {:?}",
            p.id,
            p.expected
        );
        let d = run_direct(&compiled.elaborated).unwrap();
        assert!(
            d.agrees_with(&v),
            "{}: direct path produced {d}, translated {v}",
            p.id
        );
    }
}

#[test]
fn stdlib_programs_agree() {
    let bodies = [
        "accumulate[int](range(1, 5))",
        "it_accumulate[list int](range(1, 11))",
        "length[int](reverse[int](range(0, 7)))",
        "count_if[list int](range(0, 10), lam x: int. ilt(x, 3))",
        "min_element[list int](cons[int](4, cons[int](2, cons[int](9, nil[int]))))",
        "contains[list int](range(0, 5), 3)",
        "EqualityComparable<int>.not_equal(1, 2)",
        "Group<int>.binary_op(Group<int>.inverse(5), Group<int>.identity_elt)",
        "all_of[list int](range(0, 10), lam x: int. ilt(x, 100))",
        "copy_to[list int, list int](range(0, 5), nil[int])",
    ];
    for body in bodies {
        assert_agree(&with_prelude(body), body);
    }
}

#[test]
fn scoped_overlap_agrees() {
    let src = with_prelude(
        "let product =
           model Semigroup<int> { binary_op = imult; } in
           model Monoid<int> { identity_elt = 1; } in
           accumulate[int]
         in
         iadd(imult(100, accumulate[int](range(1, 4))), product(range(1, 4)))",
    );
    assert_agree(&src, "scoped overlap");
}

#[test]
fn defaults_agree() {
    let src = "
        concept Eq<t> {
            equal : fn(t, t) -> bool;
            not_equal : fn(t, t) -> bool
                = lam a: t, b: t. bnot(Eq<t>.equal(a, b));
        } in
        model Eq<int> { equal = ieq; } in
        Eq<int>.not_equal(3, 3)";
    assert_agree(src, "defaults");
}

#[test]
fn parameterized_models_agree() {
    let cases = [
        // Unconstrained template at two instantiations.
        "concept Size<t> { size : fn(t) -> int; } in
         model forall t. Size<list t> {
             size = fix go: fn(list t) -> int.
                 lam ls: list t. if null[t](ls) then 0 else iadd(1, go(cdr[t](ls)));
         } in
         iadd(Size<list int>.size(cons[int](1, cons[int](2, nil[int]))),
              Size<list bool>.size(cons[bool](true, nil[bool])))",
        // Constrained template with recursive resolution (Eq on nested lists).
        "concept Eq<t> { equal : fn(t, t) -> bool; } in
         model Eq<int> { equal = ieq; } in
         model forall t where Eq<t>. Eq<list t> {
             equal = fix go: fn(list t, list t) -> bool.
                 lam xs: list t, ys: list t.
                   if null[t](xs) then null[t](ys)
                   else if null[t](ys) then false
                   else band(Eq<t>.equal(car[t](xs), car[t](ys)),
                             go(cdr[t](xs), cdr[t](ys)));
         } in
         Eq<list (list int)>.equal(
             cons[list int](cons[int](1, nil[int]), nil[list int]),
             cons[list int](cons[int](1, nil[int]), nil[list int]))",
        // Parameterized iterator model feeding a generic algorithm.
        "concept Iterator<i> {
             types elt;
             next : fn(i) -> i; curr : fn(i) -> Iterator<i>.elt;
             at_end : fn(i) -> bool;
         } in
         model forall t. Iterator<list t> {
             types elt = t;
             next = lam ls: list t. cdr[t](ls);
             curr = lam ls: list t. car[t](ls);
             at_end = lam ls: list t. null[t](ls);
         } in
         let second = biglam i where Iterator<i>. lam it: i.
             Iterator<i>.curr(Iterator<i>.next(it))
         in
         second[list int](cons[int](1, cons[int](42, nil[int])))",
        // Specific model shadowing a template, and vice versa.
        "concept Size<t> { size : fn(t) -> int; } in
         model forall t. Size<list t> { size = lam ls: list t. 0; } in
         model Size<list int> { size = lam ls: list int. 1; } in
         iadd(Size<list int>.size(nil[int]),
              model forall u. Size<list u> { size = lam ls: list u. 10; } in
              Size<list int>.size(nil[int]))",
    ];
    for (i, src) in cases.iter().enumerate() {
        assert_agree(src, &format!("parameterized case {i}"));
    }
}

#[test]
fn graph_library_agrees() {
    use fg::graph::{with_graph_lib, COMPLETE_MODEL, CYCLE_MODEL, PATH_MODEL};
    for (model, body) in [
        (CYCLE_MODEL, "edge_count[int](5)"),
        (CYCLE_MODEL, "reachable[int](5, 3, 1)"),
        (PATH_MODEL, "reachable[int](4, 3, 0)"),
        (PATH_MODEL, "is_connected[int](3)"),
        (COMPLETE_MODEL, "degree[int](5, 2)"),
    ] {
        assert_agree(&with_graph_lib(model, body), body);
    }
}

#[test]
fn linalg_library_agrees() {
    use fg::linalg::with_linalg;
    for body in [
        "dot[int](range_vec(1, 4), range_vec(4, 7))",
        "dot[bool](cons[bool](true, nil[bool]), cons[bool](true, nil[bool]))",
        "horner[int](range_vec(1, 4), 10)",
        "vec_sum[int](mat_vec[int](cons[list int](range_vec(0, 4), nil[list int]), range_vec(0, 4)))",
        "Ring<int>.sub(10, 3)",
    ] {
        assert_agree(&with_linalg(body), body);
    }
}

#[test]
fn implicit_instantiation_agrees() {
    let src = fg::stdlib::with_prelude(
        "iadd(accumulate(range(1, 5)), length(reverse(range(0, 3))))",
    );
    assert_agree(&src, "implicit instantiation");
}

#[test]
fn type_alias_agrees() {
    let src = "
        type adder = fn(int, int) -> int in
        let f = lam g: adder. g(1, 2) in
        f(iadd)";
    assert_agree(src, "type alias");
}

/// Telemetry differential: the direct interpreter and the
/// translate-then-check lane must agree on how many dictionaries a
/// program constructs. Both lanes build exactly one dictionary per
/// `model` declaration they process (and one per parameterized-model
/// instantiation), so `dicts_built`/`dict_instantiations` are a
/// lane-independent property of the program. Model *lookup* counts are
/// intentionally NOT compared for equality: the checker resolves each
/// `Concept<ty>.member` use site once at compile time, while the direct
/// interpreter re-resolves on every dynamic member access, so the direct
/// lane legitimately performs at least as many lookups (e.g. Fig. 5:
/// 8 runtime vs 4 compile-time lookups).
#[test]
fn dictionary_counts_agree_across_lanes() {
    for p in [&corpus::FIG5_ACCUMULATE, &corpus::FIG6_OVERLAPPING] {
        let expr = parse_expr(p.source).unwrap();
        let compiled = fg::check_program(&expr).unwrap();
        let (_, direct) = fg::interp::run_direct_budgeted(
            &compiled.elaborated,
            Tracer::disabled(),
            Arc::new(Budget::unlimited()),
        )
        .unwrap_or_else(|e| panic!("{}: direct eval failed: {e}", p.id));
        let check = compiled.check_stats;
        assert_eq!(
            direct.dicts_built, check.dicts_built,
            "{}: dictionary construction counts diverge across lanes",
            p.id
        );
        assert_eq!(
            direct.dict_instantiations, check.dict_instantiations,
            "{}: dictionary instantiation counts diverge across lanes",
            p.id
        );
        // Both lanes resolve models, and on well-typed concrete-model
        // programs every lookup is a hit.
        for (lane, lookups, hits, misses) in [
            ("check", check.model_lookups, check.model_hits, check.model_misses),
            ("direct", direct.model_lookups, direct.model_hits, direct.model_misses),
        ] {
            assert!(lookups > 0, "{}: {lane} lane resolved no models", p.id);
            assert_eq!(lookups, hits + misses, "{}: {lane} lane lost a lookup", p.id);
            assert_eq!(misses, 0, "{}: {lane} lane missed a lookup", p.id);
        }
        assert!(
            direct.model_lookups >= check.model_lookups,
            "{}: runtime resolution should be at least as frequent as compile-time",
            p.id
        );
    }
    // Golden values for the paper figures: one dictionary per model
    // declaration (Fig. 5 declares 2 models, Fig. 6 declares 4).
    let fig5 = fg::check_program(&parse_expr(corpus::FIG5_ACCUMULATE.source).unwrap()).unwrap();
    assert_eq!(fig5.check_stats.dicts_built, 2);
    let fig6 = fg::check_program(&parse_expr(corpus::FIG6_OVERLAPPING.source).unwrap()).unwrap();
    assert_eq!(fig6.check_stats.dicts_built, 4);
}
