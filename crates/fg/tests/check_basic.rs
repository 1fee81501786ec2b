//! End-to-end tests of the base F_G language (Figures 4–9 of the paper):
//! concepts, refinement, models, where clauses, member access, and the
//! dictionary-passing translation.
//!
//! Every positive test also typechecks the System F output — each run is a
//! point-check of Theorem 1 (translation preserves well-typing).

use fg::{check_program, parser::parse_expr, ErrorKind};
use system_f::{eval, typecheck, Value};

fn compile(src: &str) -> Result<fg::Compiled, Box<dyn std::error::Error>> {
    Ok(check_program(&parse_expr(src)?)?)
}

/// Compiles, typechecks the translation, and runs it.
fn run_ok(src: &str) -> Value {
    let compiled = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    typecheck(&compiled.term).unwrap_or_else(|e| {
        panic!(
            "translation is ill-typed (Theorem 1 violation): {e}\ntranslation: {}",
            compiled.term
        )
    });
    eval(&compiled.term).unwrap_or_else(|e| panic!("evaluation failed: {e}"))
}

/// Compiles expecting a type error; returns it for inspection.
fn check_err(src: &str) -> fg::CheckError {
    let expr = fg::parser::parse_expr(src).expect("parse failed");
    match fg::check_program(&expr) {
        Ok(c) => panic!("expected a type error, got type {}", c.ty),
        Err(e) => e,
    }
}

const SEMIGROUP_MONOID: &str = "
    concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
";

#[test]
fn member_access_through_model() {
    let src = "
        concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
        model Semigroup<int> { binary_op = iadd; } in
        Semigroup<int>.binary_op(20, 22)";
    assert_eq!(run_ok(src), Value::Int(42));
}

#[test]
fn member_access_through_refinement() {
    // Monoid<int>.binary_op reaches Semigroup's member via the refinement
    // path — the paper's example "the following would return the iadd
    // function: Monoid<int>.binary_op".
    let src = format!(
        "{SEMIGROUP_MONOID}
        model Semigroup<int> {{ binary_op = iadd; }} in
        model Monoid<int> {{ identity_elt = 0; }} in
        Monoid<int>.binary_op(Monoid<int>.identity_elt, 7)"
    );
    assert_eq!(run_ok(&src), Value::Int(7));
}

#[test]
fn figure_5_generic_accumulate() {
    let src = format!(
        "{SEMIGROUP_MONOID}
        let accumulate =
          biglam t where Monoid<t>.
            fix accum: fn(list t) -> t.
              lam ls: list t.
                let binary_op = Monoid<t>.binary_op in
                let identity_elt = Monoid<t>.identity_elt in
                if null[t](ls) then identity_elt
                else binary_op(car[t](ls), accum(cdr[t](ls)))
        in
        model Semigroup<int> {{ binary_op = iadd; }} in
        model Monoid<int> {{ identity_elt = 0; }} in
        let ls = cons[int](1, cons[int](2, nil[int])) in
        accumulate[int](ls)"
    );
    assert_eq!(run_ok(&src), Value::Int(3));
}

#[test]
fn figure_6_overlapping_models_sum() {
    // sum: models with iadd/0 in scope at the instantiation.
    let src = format!(
        "{SEMIGROUP_MONOID}
        let accumulate =
          biglam t where Monoid<t>.
            fix accum: fn(list t) -> t.
              lam ls: list t.
                if null[t](ls) then Monoid<t>.identity_elt
                else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
        in
        let sum =
          model Semigroup<int> {{ binary_op = iadd; }} in
          model Monoid<int> {{ identity_elt = 0; }} in
          accumulate[int]
        in
        let product =
          model Semigroup<int> {{ binary_op = imult; }} in
          model Monoid<int> {{ identity_elt = 1; }} in
          accumulate[int]
        in
        let ls = cons[int](1, cons[int](2, nil[int])) in
        iadd(imult(sum(ls), 100), product(ls))"
    );
    // sum = 3, product = 2 → 302. This is Figure 6: the two Monoid<int>
    // models coexist because they live in separate lexical scopes.
    assert_eq!(run_ok(&src), Value::Int(302));
}

#[test]
fn figure_7_dictionaries_are_nested_tuples() {
    // The translation of the model declarations must bind a 1-tuple for
    // Semigroup and a pair (semigroup-dict, identity) for Monoid.
    let src = format!(
        "{SEMIGROUP_MONOID}
        model Semigroup<int> {{ binary_op = iadd; }} in
        model Monoid<int> {{ identity_elt = 0; }} in
        Monoid<int>.identity_elt"
    );
    let compiled = compile(&src).unwrap();
    let printed = compiled.term.to_string();
    // Member implementations are let-bound then tupled; the Monoid dict
    // embeds the Semigroup dict as its first component.
    assert!(
        printed.contains("tuple(binary_op_"),
        "expected a Semigroup dictionary tuple in: {printed}"
    );
    assert!(
        printed.contains("tuple(Semigroup_"),
        "expected the Monoid dictionary to embed the Semigroup dictionary: {printed}"
    );
    typecheck(&compiled.term).unwrap();
    assert_eq!(eval(&compiled.term).unwrap(), Value::Int(0));
}

#[test]
fn inner_model_shadows_outer() {
    let src = "
        concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
        model Semigroup<int> { binary_op = iadd; } in
        model Semigroup<int> { binary_op = imult; } in
        Semigroup<int>.binary_op(3, 4)";
    assert_eq!(run_ok(src), Value::Int(12));
}

#[test]
fn where_clause_provides_proxy_model() {
    // Inside the biglam body, Semigroup<t> is usable both directly and via
    // the Monoid refinement.
    let src = format!(
        "{SEMIGROUP_MONOID}
        let twice = biglam t where Monoid<t>. lam x: t.
            Semigroup<t>.binary_op(x, x)
        in
        model Semigroup<int> {{ binary_op = iadd; }} in
        model Monoid<int> {{ identity_elt = 0; }} in
        twice[int](21)"
    );
    assert_eq!(run_ok(&src), Value::Int(42));
}

#[test]
fn multiparameter_concepts() {
    let src = "
        concept Converts<a, b> { convert : fn(a) -> b; } in
        model Converts<int, bool> { convert = lam x: int. ilt(0, x); } in
        let apply = biglam a, b where Converts<a, b>. lam x: a.
            Converts<a, b>.convert(x)
        in
        apply[int, bool](5)";
    assert_eq!(run_ok(src), Value::Bool(true));
}

#[test]
fn nested_generic_functions() {
    // A generic function calling another generic function with the proxy
    // model satisfying the inner where clause.
    let src = format!(
        "{SEMIGROUP_MONOID}
        let double = biglam t where Semigroup<t>. lam x: t.
            Semigroup<t>.binary_op(x, x)
        in
        let quadruple = biglam u where Monoid<u>. lam x: u.
            double[u](double[u](x))
        in
        model Semigroup<int> {{ binary_op = iadd; }} in
        model Monoid<int> {{ identity_elt = 0; }} in
        quadruple[int](3)"
    );
    assert_eq!(run_ok(&src), Value::Int(12));
}

#[test]
fn models_at_type_variables() {
    // A model declared inside a biglam at the bound type variable.
    let src = "
        concept Defaultable<t> { default_value : t; } in
        let f = biglam t. lam d: t.
            model Defaultable<t> { default_value = d; } in
            Defaultable<t>.default_value
        in
        f[int](9)";
    assert_eq!(run_ok(src), Value::Int(9));
}

#[test]
fn same_member_name_in_two_concepts() {
    // Unlike Haskell type classes, two concepts in the same scope may share
    // a member name (§2 of the paper).
    let src = "
        concept A<t> { op : fn(t) -> t; } in
        concept B<t> { op : fn(t, t) -> t; } in
        model A<int> { op = ineg; } in
        model B<int> { op = isub; } in
        B<int>.op(A<int>.op(3), 4)";
    assert_eq!(run_ok(src), Value::Int(-7));
}

#[test]
fn diamond_refinement() {
    // D refines B and C, both of which refine A: the classic diamond. The
    // where clause for D must produce exactly one proxy for A's member.
    let src = "
        concept A<t> { base : t; } in
        concept B<t> { refines A<t>; bee : fn(t) -> t; } in
        concept C<t> { refines A<t>; cee : fn(t) -> t; } in
        concept D<t> { refines B<t>; refines C<t>; } in
        let f = biglam t where D<t>. lam x: t.
            B<t>.bee(C<t>.cee(A<t>.base))
        in
        model A<int> { base = 10; } in
        model B<int> { bee = lam x: int. iadd(x, 1); } in
        model C<int> { cee = lam x: int. imult(x, 2); } in
        model D<int> { } in
        f[int](0)";
    assert_eq!(run_ok(src), Value::Int(21));
}

#[test]
fn no_model_in_scope_is_an_error() {
    let err = check_err(
        "concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
         Semigroup<int>.binary_op(1, 2)",
    );
    assert!(matches!(err.kind, ErrorKind::NoModel { .. }), "{err}");
}

#[test]
fn instantiation_without_model_is_an_error() {
    let err = check_err(
        "concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
         let f = biglam t where Semigroup<t>. lam x: t. x in
         f[int](1)",
    );
    assert!(matches!(err.kind, ErrorKind::NoModel { .. }), "{err}");
}

#[test]
fn model_must_provide_all_members() {
    let err = check_err(
        "concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
         model Semigroup<int> { } in 1",
    );
    assert!(matches!(err.kind, ErrorKind::MissingMember { .. }), "{err}");
}

#[test]
fn model_member_type_must_match() {
    let err = check_err(
        "concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
         model Semigroup<int> { binary_op = lam x: int. x; } in 1",
    );
    assert!(
        matches!(err.kind, ErrorKind::MemberTypeMismatch { .. }),
        "{err}"
    );
}

#[test]
fn model_of_refined_concept_required() {
    let err = check_err(&format!(
        "{SEMIGROUP_MONOID} model Monoid<int> {{ identity_elt = 0; }} in 1"
    ));
    assert!(
        matches!(err.kind, ErrorKind::MissingRefinedModel { .. }),
        "{err}"
    );
}

#[test]
fn unknown_concept_is_an_error() {
    let err = check_err("Ghost<int>.op");
    assert!(matches!(err.kind, ErrorKind::UnknownConcept(_)), "{err}");
}

#[test]
fn unknown_member_is_an_error() {
    let err = check_err(
        "concept A<t> { op : t; } in
         model A<int> { op = 1; } in
         A<int>.nope",
    );
    assert!(matches!(err.kind, ErrorKind::UnknownMember { .. }), "{err}");
}

#[test]
fn extraneous_model_member_is_an_error() {
    let err = check_err(
        "concept A<t> { op : t; } in
         model A<int> { op = 1; other = 2; } in 1",
    );
    assert!(
        matches!(err.kind, ErrorKind::UnknownMemberInModel { .. }),
        "{err}"
    );
}

#[test]
fn concept_arity_is_checked() {
    let err = check_err(
        "concept A<t> { op : t; } in
         model A<int, bool> { op = 1; } in 1",
    );
    assert!(matches!(err.kind, ErrorKind::ArityMismatch { .. }), "{err}");
}

#[test]
fn shadowed_concept_names_resolve_lexically() {
    // The inner concept A shadows the outer one; the model and access refer
    // to the inner A.
    let src = "
        concept A<t> { op : t; } in
        concept A<t> { op : fn(t) -> t; } in
        model A<int> { op = lam x: int. iadd(x, 1); } in
        A<int>.op(41)";
    assert_eq!(run_ok(src), Value::Int(42));
}

#[test]
fn plain_polymorphism_still_works() {
    let src = "(biglam t. lam x: t. x)[int](7)";
    assert_eq!(run_ok(src), Value::Int(7));
}

#[test]
fn translation_arity_mismatch_errors() {
    let err = check_err("(biglam t. lam x: t. x)[int, bool](7)");
    assert!(matches!(err.kind, ErrorKind::ArityMismatch { .. }), "{err}");
}

#[test]
fn branch_and_cond_errors() {
    let err = check_err("if 1 then 2 else 3");
    assert!(matches!(err.kind, ErrorKind::CondNotBool(_)), "{err}");
    let err = check_err("if true then 2 else false");
    assert!(matches!(err.kind, ErrorKind::BranchMismatch(..)), "{err}");
}

#[test]
fn unbound_names_error() {
    assert!(matches!(
        check_err("missing").kind,
        ErrorKind::UnboundVar(_)
    ));
    assert!(matches!(
        check_err("lam x: ghost. x").kind,
        ErrorKind::UnboundTyVar(_)
    ));
}

#[test]
fn generic_function_used_at_two_types() {
    let src = "
        concept Show<t> { display : fn(t) -> int; } in
        model Show<int> { display = lam x: int. x; } in
        model Show<bool> { display = lam b: bool. if b then 1 else 0; } in
        let show = biglam t where Show<t>. lam x: t. Show<t>.display(x) in
        iadd(show[int](40), show[bool](true).. )";
    // (typo guard: build the real source below)
    let src = src.replace(".. )", ")");
    assert_eq!(run_ok(&src), Value::Int(41));
}

#[test]
fn higher_order_use_of_member_functions() {
    // Members are first-class: store one in a let and pass it around.
    let src = "
        concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
        model Semigroup<int> { binary_op = imult; } in
        let apply2 = lam f: fn(int, int) -> int. f(6, 7) in
        apply2(Semigroup<int>.binary_op)";
    assert_eq!(run_ok(src), Value::Int(42));
}

#[test]
fn fix_in_generic_context() {
    // Recursion through fix inside a constrained type abstraction.
    let src = "
        concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
        let pow = biglam t where Semigroup<t>.
          fix go: fn(t, int) -> t.
            lam x: t, n: int.
              if ile(n, 1) then x
              else Semigroup<t>.binary_op(x, go(x, isub(n, 1)))
        in
        model Semigroup<int> { binary_op = imult; } in
        pow[int](2, 10)";
    assert_eq!(run_ok(src), Value::Int(1024));
}
