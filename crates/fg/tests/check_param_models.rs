//! Tests for *parameterized models* (§6 of the paper: "Parameterized
//! models (equivalent to parameterized instances in Haskell) are important
//! for the case when the modeling type is parameterized, such as
//! list<T>").
//!
//! A parameterized model `model forall t where K<t>. C<list t> { … }`
//! translates to a dictionary *constructor* — a System F type abstraction
//! over `t` (and the constraints' associated types) returning a function
//! from the constraint dictionaries to the dictionary tuple. Each use
//! instantiates the constructor, recursively resolving the constraints.

use fg::{check_program, parser::parse_expr, ErrorKind};
use system_f::{eval, typecheck, Value};

fn compile(src: &str) -> Result<fg::Compiled, Box<dyn std::error::Error>> {
    Ok(check_program(&parse_expr(src)?)?)
}

fn run_ok(src: &str) -> Value {
    let compiled = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    typecheck(&compiled.term).unwrap_or_else(|e| {
        panic!(
            "translation is ill-typed: {e}\ntranslation: {}",
            compiled.term
        )
    });
    eval(&compiled.term).unwrap_or_else(|e| panic!("evaluation failed: {e}"))
}

fn check_err(src: &str) -> fg::CheckError {
    let expr = fg::parser::parse_expr(src).expect("parse failed");
    match fg::check_program(&expr) {
        Ok(c) => panic!("expected a type error, got type {}", c.ty),
        Err(e) => e,
    }
}

/// The Iterator concept modeled for `list t` at *every* element type.
const LIST_ITERATOR: &str = "
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
";

#[test]
fn parameterized_model_used_at_two_element_types() {
    let src = format!(
        "{LIST_ITERATOR}
        let second = biglam i where Iterator<i>. lam it: i.
            Iterator<i>.curr(Iterator<i>.next(it))
        in
        let a = second[list int](cons[int](1, cons[int](9, nil[int]))) in
        let b = second[list bool](cons[bool](false, cons[bool](true, nil[bool]))) in
        if b then a else 0"
    );
    assert_eq!(run_ok(&src), Value::Int(9));
}

#[test]
fn parameterized_assoc_type_resolves() {
    // Iterator<list int>.elt must normalize to int through the
    // parameterized model.
    let src = format!(
        "{LIST_ITERATOR}
        (lam x: Iterator<list int>.elt. iadd(x, 1))(41)"
    );
    assert_eq!(run_ok(&src), Value::Int(42));
}

#[test]
fn parameterized_assoc_type_at_nested_lists() {
    // Iterator<list (list int)>.elt = list int.
    let src = format!(
        "{LIST_ITERATOR}
        let inner = Iterator<list (list int)>.curr(
            cons[list int](cons[int](5, nil[int]), nil[list int])) in
        car[int](inner)"
    );
    assert_eq!(run_ok(&src), Value::Int(5));
}

#[test]
fn constrained_parameterized_model() {
    // Haskell's `instance Eq a => Eq [a]`, in F_G: elementwise list
    // equality, usable at list int AND list (list int) by recursive
    // constraint resolution.
    let src = "
        concept Eq<t> { equal : fn(t, t) -> bool; } in
        model Eq<int> { equal = ieq; } in
        model forall t where Eq<t>. Eq<list t> {
            equal =
              fix go: fn(list t, list t) -> bool.
                lam xs: list t, ys: list t.
                  if null[t](xs) then null[t](ys)
                  else if null[t](ys) then false
                  else band(Eq<t>.equal(car[t](xs), car[t](ys)),
                            go(cdr[t](xs), cdr[t](ys)));
        } in
        let l1 = cons[int](1, cons[int](2, nil[int])) in
        let l2 = cons[int](1, cons[int](2, nil[int])) in
        let l3 = cons[int](1, nil[int]) in
        let nested1 = cons[list int](l1, nil[list int]) in
        let nested2 = cons[list int](l2, nil[list int]) in
        band(Eq<list int>.equal(l1, l2),
             band(bnot(Eq<list int>.equal(l1, l3)),
                  Eq<list (list int)>.equal(nested1, nested2)))";
    assert_eq!(run_ok(src), Value::Bool(true));
}

#[test]
fn constrained_parameterized_model_in_generic_function() {
    // The constraint is resolved at the *instantiation*, through the
    // caller's where-clause proxy.
    let src = "
        concept Eq<t> { equal : fn(t, t) -> bool; } in
        model forall t where Eq<t>. Eq<list t> {
            equal =
              fix go: fn(list t, list t) -> bool.
                lam xs: list t, ys: list t.
                  if null[t](xs) then null[t](ys)
                  else if null[t](ys) then false
                  else band(Eq<t>.equal(car[t](xs), car[t](ys)),
                            go(cdr[t](xs), cdr[t](ys)));
        } in
        let singleton_eq = biglam u where Eq<u>. lam a: u, b: u.
            Eq<list u>.equal(cons[u](a, nil[u]), cons[u](b, nil[u]))
        in
        model Eq<int> { equal = ieq; } in
        singleton_eq[int](7, 7)";
    assert_eq!(run_ok(src), Value::Bool(true));
}

#[test]
fn missing_constraint_at_use_is_an_error() {
    // No Eq<bool> model in scope, so Eq<list bool> cannot be resolved.
    let src = "
        concept Eq<t> { equal : fn(t, t) -> bool; } in
        model forall t where Eq<t>. Eq<list t> {
            equal = lam xs: list t, ys: list t. true;
        } in
        Eq<list bool>.equal(nil[bool], nil[bool])";
    let err = check_err(src);
    assert!(matches!(err.kind, ErrorKind::NoModel { .. }), "{err}");
}

#[test]
fn parameterized_model_with_refinement() {
    // The parameterized model's refinement obligation is satisfied by
    // another parameterized model, resolved recursively.
    let src = "
        concept S<t> { sop : fn(t, t) -> t; } in
        concept M<t> { refines S<t>; munit : t; } in
        model forall t. S<list t> {
            sop = fix app: fn(list t, list t) -> list t.
                    lam xs: list t, ys: list t.
                      if null[t](xs) then ys
                      else cons[t](car[t](xs), app(cdr[t](xs), ys));
        } in
        model forall t. M<list t> { munit = nil[t]; } in
        let joined = M<list int>.sop(cons[int](1, nil[int]), M<list int>.munit) in
        car[int](joined)";
    assert_eq!(run_ok(src), Value::Int(1));
}

#[test]
fn specific_model_shadows_parameterized() {
    // A later, specific model for list int wins over the generic one.
    let src = "
        concept Size<t> { size : fn(t) -> int; } in
        model forall t. Size<list t> { size = lam ls: list t. 0; } in
        model Size<list int> { size = lam ls: list int. 999; } in
        Size<list int>.size(nil[int])";
    assert_eq!(run_ok(src), Value::Int(999));
}

#[test]
fn parameterized_model_shadows_specific_when_newer() {
    let src = "
        concept Size<t> { size : fn(t) -> int; } in
        model Size<list int> { size = lam ls: list int. 999; } in
        model forall t. Size<list t> { size = lam ls: list t. 0; } in
        Size<list int>.size(nil[int])";
    assert_eq!(run_ok(src), Value::Int(0));
}

#[test]
fn parameterized_model_in_where_clause_instantiation() {
    // A generic function's constraint satisfied by a parameterized model.
    let src = format!(
        "{LIST_ITERATOR}
        concept Semigroup<t> {{ binary_op : fn(t, t) -> t; }} in
        concept Monoid<t> {{ refines Semigroup<t>; identity_elt : t; }} in
        let it_sum = biglam i where Iterator<i>, Monoid<Iterator<i>.elt>.
            fix go: fn(i) -> Iterator<i>.elt.
              lam it: i.
                if Iterator<i>.at_end(it) then Monoid<Iterator<i>.elt>.identity_elt
                else Monoid<Iterator<i>.elt>.binary_op(
                       Iterator<i>.curr(it), go(Iterator<i>.next(it)))
        in
        model Semigroup<int> {{ binary_op = iadd; }} in
        model Monoid<int> {{ identity_elt = 0; }} in
        it_sum[list int](cons[int](20, cons[int](22, nil[int])))"
    );
    assert_eq!(run_ok(&src), Value::Int(42));
}

#[test]
fn doubly_nested_constraint_chain() {
    // Eq<list (list (list int))> resolves through three levels of the
    // parameterized model.
    let src = "
        concept Eq<t> { equal : fn(t, t) -> bool; } in
        model Eq<int> { equal = ieq; } in
        model forall t where Eq<t>. Eq<list t> {
            equal = lam xs: list t, ys: list t.
                if null[t](xs) then null[t](ys)
                else if null[t](ys) then false
                else Eq<t>.equal(car[t](xs), car[t](ys));
        } in
        Eq<list (list (list int))>.equal(
            nil[list (list int)], nil[list (list int)])";
    assert_eq!(run_ok(src), Value::Bool(true));
}

#[test]
fn unconstrained_parameter_not_matching_is_rejected() {
    // The pattern is list t; asking for Eq<int> must not match.
    let src = "
        concept Eq<t> { equal : fn(t, t) -> bool; } in
        model forall t. Eq<list t> { equal = lam a: list t, b: list t. true; } in
        Eq<int>.equal(1, 2)";
    let err = check_err(src);
    assert!(matches!(err.kind, ErrorKind::NoModel { .. }), "{err}");
}

#[test]
fn parameterized_model_with_defaulted_member() {
    let src = "
        concept Eq<t> {
            equal : fn(t, t) -> bool;
            not_equal : fn(t, t) -> bool
                = lam a: t, b: t. bnot(Eq<t>.equal(a, b));
        } in
        model forall t. Eq<list t> {
            equal = lam a: list t, b: list t. band(null[t](a), null[t](b));
        } in
        Eq<list int>.not_equal(cons[int](1, nil[int]), nil[int])";
    assert_eq!(run_ok(src), Value::Bool(true));
}

#[test]
fn translation_produces_dictionary_constructor() {
    let src = "
        concept Size<t> { size : fn(t) -> int; } in
        model forall t. Size<list t> { size = lam ls: list t. 7; } in
        Size<list int>.size(nil[int])";
    let compiled = compile(src).unwrap();
    let printed = compiled.term.to_string();
    // The dictionary is a type abstraction…
    assert!(
        printed.contains("let Size_") && printed.contains("biglam t."),
        "expected a dictionary constructor: {printed}"
    );
    // …instantiated at the use site.
    assert!(
        printed.contains("[list int]") || printed.contains("[int]"),
        "expected constructor instantiation: {printed}"
    );
}
