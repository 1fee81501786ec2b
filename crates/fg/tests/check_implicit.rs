//! Tests for implicit instantiation (§6 of the paper: "Implicit
//! instantiation of type abstractions … two interesting restrictions that
//! are decidable: … restriction of type arguments to monomorphic types").
//!
//! A polymorphic function applied directly to value arguments has its type
//! arguments inferred by first-order matching of parameter types against
//! argument types. The checker records the choice by *elaborating* the
//! program — inserting the explicit `[τ̄]` — so the direct interpreter
//! executes exactly what was typechecked.

use fg::{check_program, parser::parse_expr, ErrorKind};
use system_f::{eval, typecheck, Value};

fn compile(src: &str) -> Result<fg::Compiled, Box<dyn std::error::Error>> {
    Ok(check_program(&parse_expr(src)?)?)
}

fn run_ok(src: &str) -> Value {
    let compiled = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    typecheck(&compiled.term).unwrap_or_else(|e| {
        panic!("translation ill-typed: {e}\ntranslation: {}", compiled.term)
    });
    eval(&compiled.term).unwrap_or_else(|e| panic!("evaluation failed: {e}"))
}

fn check_err(src: &str) -> fg::CheckError {
    let expr = parse_expr(src).expect("parse failed");
    match check_program(&expr) {
        Ok(c) => panic!("expected a type error, got type {}", c.ty),
        Err(e) => e,
    }
}

#[test]
fn identity_without_type_arguments() {
    assert_eq!(run_ok("(biglam t. lam x: t. x)(5)"), Value::Int(5));
    assert_eq!(run_ok("(biglam t. lam x: t. x)(true)"), Value::Bool(true));
}

#[test]
fn inference_through_compound_types() {
    let src = "
        let first = biglam t. lam ls: list t. car[t](ls) in
        first(cons[int](7, nil[int]))";
    assert_eq!(run_ok(src), Value::Int(7));
    let src = "
        let apply = biglam a, b. lam f: fn(a) -> b, x: a. f(x) in
        apply(ineg, 4)";
    assert_eq!(run_ok(src), Value::Int(-4));
}

#[test]
fn constrained_inference_resolves_dictionaries() {
    // Figure 5's accumulate called *without* the [int]: the type argument
    // is inferred from the list, and the Monoid dictionary passed as usual.
    let src = "
        concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
        concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
        let accumulate = biglam t where Monoid<t>.
            fix accum: fn(list t) -> t.
              lam ls: list t.
                if null[t](ls) then Monoid<t>.identity_elt
                else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
        in
        model Semigroup<int> { binary_op = iadd; } in
        model Monoid<int> { identity_elt = 0; } in
        accumulate(cons[int](1, cons[int](2, nil[int])))";
    assert_eq!(run_ok(src), Value::Int(3));
}

#[test]
fn inference_with_associated_types() {
    // The iterator type is inferred from the argument; the element-type
    // constraint then resolves through the inferred instantiation.
    let src = "
        concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
        concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
        concept Iterator<i> {
            types elt;
            next : fn(i) -> i;
            curr : fn(i) -> Iterator<i>.elt;
            at_end : fn(i) -> bool;
        } in
        model forall t. Iterator<list t> {
            types elt = t;
            next = lam ls: list t. cdr[t](ls);
            curr = lam ls: list t. car[t](ls);
            at_end = lam ls: list t. null[t](ls);
        } in
        let it_sum = biglam i where Iterator<i>, Monoid<Iterator<i>.elt>.
            fix go: fn(i) -> Iterator<i>.elt.
              lam it: i.
                if Iterator<i>.at_end(it) then Monoid<Iterator<i>.elt>.identity_elt
                else Monoid<Iterator<i>.elt>.binary_op(
                       Iterator<i>.curr(it), go(Iterator<i>.next(it)))
        in
        model Semigroup<int> { binary_op = iadd; } in
        model Monoid<int> { identity_elt = 0; } in
        it_sum(cons[int](20, cons[int](22, nil[int])))";
    assert_eq!(run_ok(src), Value::Int(42));
}

#[test]
fn prelude_algorithms_work_without_type_arguments() {
    use fg::stdlib::with_prelude;
    for (body, expected) in [
        ("accumulate(range(1, 5))", Value::Int(10)),
        ("length(reverse(range(0, 7)))", Value::Int(7)),
        ("contains(range(0, 5), 3)", Value::Bool(true)),
        ("it_accumulate(range(1, 11))", Value::Int(55)),
        (
            "min_element(cons[int](4, cons[int](2, nil[int])))",
            Value::Int(2),
        ),
        (
            "count_if(range(0, 10), lam x: int. ilt(x, 3))",
            Value::Int(3),
        ),
    ] {
        assert_eq!(run_ok(&with_prelude(body)), expected, "{body}");
    }
}

#[test]
fn underdetermined_arguments_are_rejected() {
    // t does not occur in the parameter types, so it cannot be inferred.
    let err = check_err("(biglam t. lam x: int. x)(5)");
    assert!(
        matches!(err.kind, ErrorKind::CannotInferTypeArgs { .. }),
        "{err}"
    );
}

#[test]
fn mismatched_inferred_arguments_are_rejected() {
    // t would have to be both int and bool.
    let src = "
        let pair_first = biglam t. lam x: t, y: t. x in
        pair_first(1, true)";
    let err = check_err(src);
    assert!(matches!(err.kind, ErrorKind::ArgMismatch { .. }), "{err}");
}

#[test]
fn explicit_instantiation_still_works() {
    assert_eq!(run_ok("(biglam t. lam x: t. x)[int](5)"), Value::Int(5));
}

#[test]
fn elaboration_inserts_explicit_instantiation() {
    let src = "let id = biglam t. lam x: t. x in id(5)";
    let compiled = compile(src).unwrap();
    let printed = compiled.elaborated.to_string();
    assert!(printed.contains("id[int](5)"), "{printed}");
    // The elaborated program re-parses, re-checks to the same type, and is
    // a fixed point of elaboration.
    let reparsed = parse_expr(&printed).unwrap();
    let recompiled = check_program(&reparsed).unwrap();
    assert_eq!(recompiled.ty, compiled.ty);
    assert_eq!(recompiled.elaborated.to_string(), printed);
}

#[test]
fn elaborated_program_runs_on_the_direct_interpreter() {
    let src = "
        concept S<t> { op : fn(t, t) -> t; } in
        model S<int> { op = imult; } in
        let double = biglam t where S<t>. lam x: t. S<t>.op(x, x) in
        double(6)";
    let expr = parse_expr(src).unwrap();
    let compiled = check_program(&expr).unwrap();
    let translated = eval(&compiled.term).unwrap();
    assert_eq!(translated, Value::Int(36));
    let direct = fg::interp::run_direct(&compiled.elaborated).unwrap();
    assert!(direct.agrees_with(&translated));
}

#[test]
fn inference_of_multiple_type_arguments() {
    let src = "
        let swap_apply = biglam a, b. lam f: fn(a, b) -> b, x: a, y: b. f(x, y) in
        swap_apply(lam n: int, c: bool. band(c, ilt(0, n)), 3, true)";
    assert_eq!(run_ok(src), Value::Bool(true));
}

#[test]
fn inference_inside_generic_function_bodies() {
    // The inner call infers its type argument as the outer binder t.
    let src = "
        let id = biglam t. lam x: t. x in
        let outer = biglam u. lam y: u. id(y) in
        outer(9)";
    assert_eq!(run_ok(src), Value::Int(9));
}
