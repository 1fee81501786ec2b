//! End-to-end tests of §5 of the paper: associated types, same-type
//! constraints, type aliases — and the §6 extensions (nested requirements,
//! concept-member defaults).
//!
//! Every positive test typechecks the System F output, point-checking
//! Theorem 2 (the translation with associated types preserves typing).

use fg::{check_program, parser::parse_expr, ErrorKind};
use system_f::{eval, typecheck, Value};

fn compile(src: &str) -> Result<fg::Compiled, Box<dyn std::error::Error>> {
    Ok(check_program(&parse_expr(src)?)?)
}

fn run_ok(src: &str) -> Value {
    let compiled = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    typecheck(&compiled.term).unwrap_or_else(|e| {
        panic!(
            "translation is ill-typed (Theorem 2 violation): {e}\ntranslation: {}",
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

/// The paper's Iterator concept (§5) with a model at `list int`.
const ITERATOR: &str = "
    concept Iterator<Iter> {
        types elt;
        next : fn(Iter) -> Iter;
        curr : fn(Iter) -> Iterator<Iter>.elt;
        at_end : fn(Iter) -> bool;
    } in
    model Iterator<list int> {
        types elt = int;
        next = lam ls: list int. cdr[int](ls);
        curr = lam ls: list int. car[int](ls);
        at_end = lam ls: list int. null[int](ls);
    } in
";

#[test]
fn iterator_model_with_assoc_type() {
    let src = format!("{ITERATOR} Iterator<list int>.curr(cons[int](7, nil[int]))");
    assert_eq!(run_ok(&src), Value::Int(7));
}

#[test]
fn assoc_projection_equals_assignment() {
    // A lam annotated with the projection accepts an int, because the model
    // assigns elt = int.
    let src = format!(
        "{ITERATOR}
        (lam x: Iterator<list int>.elt. iadd(x, 1))(41)"
    );
    assert_eq!(run_ok(&src), Value::Int(42));
}

#[test]
fn section_5_accumulate_over_iterators() {
    // The paper's accumulate rewritten to take an iterator instead of a
    // list: parameterized on the iterator type, with the element type
    // required to model Monoid via the projection.
    let src = format!(
        "concept Semigroup<t> {{ binary_op : fn(t, t) -> t; }} in
        concept Monoid<t> {{ refines Semigroup<t>; identity_elt : t; }} in
        {ITERATOR}
        let accumulate =
          biglam Iter where Iterator<Iter>, Monoid<Iterator<Iter>.elt>.
            fix accum: fn(Iter) -> Iterator<Iter>.elt.
              lam it: Iter.
                if Iterator<Iter>.at_end(it)
                then Monoid<Iterator<Iter>.elt>.identity_elt
                else Monoid<Iterator<Iter>.elt>.binary_op(
                       Iterator<Iter>.curr(it),
                       accum(Iterator<Iter>.next(it)))
        in
        model Semigroup<int> {{ binary_op = iadd; }} in
        model Monoid<int> {{ identity_elt = 0; }} in
        accumulate[list int](cons[int](1, cons[int](2, cons[int](3, nil[int]))))"
    );
    assert_eq!(run_ok(&src), Value::Int(6));
}

#[test]
fn copy_translation_gains_assoc_type_parameter() {
    // §5.2: the translated copy takes an extra type parameter for elt.
    let src = format!(
        "concept OutputIterator<Out, T> {{
            put : fn(Out, T) -> Out;
        }} in
        {ITERATOR}
        let copy =
          biglam Iter, Out where Iterator<Iter>, OutputIterator<Out, Iterator<Iter>.elt>.
            fix go: fn(Iter, Out) -> Out.
              lam it: Iter, out: Out.
                if Iterator<Iter>.at_end(it) then out
                else go(Iterator<Iter>.next(it),
                        OutputIterator<Out, Iterator<Iter>.elt>.put(out, Iterator<Iter>.curr(it)))
        in
        model OutputIterator<int, int> {{ put = iadd; }} in
        copy[list int, int](cons[int](1, cons[int](2, nil[int])), 0)"
    );
    assert_eq!(run_ok(&src), Value::Int(3));
    // Inspect the translation: the biglam for copy must bind three type
    // variables (Iter, Out, and the fresh elt parameter).
    let compiled = compile(&src).unwrap();
    let printed = compiled.term.to_string();
    assert!(
        printed.contains("biglam Iter, Out, elt_"),
        "expected an extra elt type parameter in: {printed}"
    );
}

#[test]
fn merge_with_same_type_constraint() {
    // §5: merge requires the two iterators' element types to coincide.
    let src = format!(
        "concept LessThanComparable<T> {{ less : fn(T, T) -> bool; }} in
        {ITERATOR}
        let merge_heads =
          biglam I1, I2 where Iterator<I1>, Iterator<I2>,
                 LessThanComparable<Iterator<I1>.elt>,
                 Iterator<I1>.elt == Iterator<I2>.elt.
            lam a: I1, b: I2.
              if LessThanComparable<Iterator<I1>.elt>.less(
                   Iterator<I1>.curr(a), Iterator<I2>.curr(b))
              then Iterator<I1>.curr(a)
              else Iterator<I2>.curr(b)
        in
        model LessThanComparable<int> {{ less = ilt; }} in
        merge_heads[list int, list int](
            cons[int](4, nil[int]),
            cons[int](2, nil[int]))"
    );
    assert_eq!(run_ok(&src), Value::Int(2));
}

#[test]
fn same_type_constraint_collapses_to_one_parameter() {
    // §5.2: in the translation only one representative element type is
    // used, though both get binders.
    let src = format!(
        "{ITERATOR}
        let both =
          biglam I1, I2 where Iterator<I1>, Iterator<I2>,
                 Iterator<I1>.elt == Iterator<I2>.elt.
            lam a: I1, b: I2, combine: fn(Iterator<I1>.elt, Iterator<I2>.elt) -> Iterator<I1>.elt.
              combine(Iterator<I1>.curr(a), Iterator<I2>.curr(b))
        in
        both[list int, list int](
            cons[int](40, nil[int]),
            cons[int](2, nil[int]),
            iadd)"
    );
    assert_eq!(run_ok(&src), Value::Int(42));
}

#[test]
fn same_type_violation_at_instantiation() {
    let src = "
        concept Pairish<a, b> { first : fn(a) -> b; } in
        let f = biglam a, b where Pairish<a, b>, a == b. lam x: a. x in
        model Pairish<int, bool> { first = lam x: int. true; } in
        f[int, bool](1)";
    let err = check_err(src);
    assert!(
        matches!(err.kind, ErrorKind::SameTypeViolation(..)),
        "{err}"
    );
}

#[test]
fn merge_without_same_type_constraint_fails() {
    // Without the constraint, passing curr(b) where I1's element is
    // expected must be rejected: associated types are opaque.
    let src = format!(
        "{ITERATOR}
        let bad =
          biglam I1, I2 where Iterator<I1>, Iterator<I2>.
            lam a: I1, b: I2, combine: fn(Iterator<I1>.elt, Iterator<I1>.elt) -> Iterator<I1>.elt.
              combine(Iterator<I1>.curr(a), Iterator<I2>.curr(b))
        in 1"
    );
    let err = check_err(&src);
    assert!(matches!(err.kind, ErrorKind::ArgMismatch { .. }), "{err}");
}

#[test]
fn section_52_refinement_with_assoc_types() {
    // The paper's A/B example: B has an associated type z, refines A at z,
    // and bar produces a z consumed by A's foo.
    let src = "
        concept A<u> { foo : fn(u) -> u; } in
        concept B<t> { types z; refines A<B<t>.z>; bar : fn(t) -> B<t>.z; } in
        let f = biglam r where B<r>. lam x: r.
            A<B<r>.z>.foo(B<r>.bar(x))
        in
        model A<bool> { foo = bnot; } in
        model B<int> { types z = bool; bar = lam x: int. ilt(0, x); } in
        f[int](5)";
    assert_eq!(run_ok(src), Value::Bool(false));
}

#[test]
fn same_clause_inside_concept() {
    // A concept demanding that two associated types coincide.
    let src = "
        concept Conv<a> { types src; types dst; same Conv<a>.src == Conv<a>.dst;
                          through : fn(Conv<a>.src) -> Conv<a>.dst; } in
        model Conv<int> { types src = int; types dst = int; through = ineg; } in
        Conv<int>.through(5)";
    assert_eq!(run_ok(src), Value::Int(-5));
}

#[test]
fn same_clause_violation_in_model() {
    let src = "
        concept Conv<a> { types src; types dst; same Conv<a>.src == Conv<a>.dst;
                          through : fn(Conv<a>.src) -> Conv<a>.dst; } in
        model Conv<int> { types src = int; types dst = bool;
                          through = lam x: int. true; } in 1";
    let err = check_err(src);
    assert!(
        matches!(err.kind, ErrorKind::SameTypeViolation(..)),
        "{err}"
    );
}

#[test]
fn missing_assoc_assignment_is_an_error() {
    let src = "
        concept HasT<a> { types t; } in
        model HasT<int> { } in 1";
    let err = check_err(src);
    assert!(
        matches!(err.kind, ErrorKind::MissingAssocAssignment { .. }),
        "{err}"
    );
}

#[test]
fn unknown_assoc_assignment_is_an_error() {
    let src = "
        concept HasT<a> { types t; } in
        model HasT<int> { types t = int; types u = bool; } in 1";
    let err = check_err(src);
    assert!(
        matches!(err.kind, ErrorKind::UnknownAssocType { .. }),
        "{err}"
    );
}

#[test]
fn type_alias_is_transparent() {
    let src = "
        type pair_maker = fn(int) -> int in
        let f = lam g: pair_maker. g(20) in
        f(lam x: int. iadd(x, x))";
    assert_eq!(run_ok(src), Value::Int(40));
}

#[test]
fn type_alias_of_assoc_projection() {
    let src = format!(
        "{ITERATOR}
        type element = Iterator<list int>.elt in
        (lam x: element. imult(x, 3))(14)"
    );
    assert_eq!(run_ok(&src), Value::Int(42));
}

#[test]
fn nested_requirements_extension() {
    // §6 "Nested Requirements": a Container's iterator type must itself
    // model Iterator; `require` makes the obligation explicit and brings
    // the iterator's model into scope through the container's model.
    let src = format!(
        "{ITERATOR}
        concept Container<c> {{
            types iter;
            require Iterator<Container<c>.iter>;
            begin : fn(c) -> Container<c>.iter;
        }} in
        model Container<list int> {{
            types iter = list int;
            begin = lam ls: list int. ls;
        }} in
        let first = biglam C where Container<C>.
            lam c: C. Iterator<Container<C>.iter>.curr(Container<C>.begin(c))
        in
        first[list int](cons[int](11, nil[int]))"
    );
    assert_eq!(run_ok(&src), Value::Int(11));
}

#[test]
fn nested_requirement_missing_model_is_an_error() {
    let src = "
        concept It<i> { advance : fn(i) -> i; } in
        concept Cont<c> { types iter; require It<Cont<c>.iter>; } in
        model Cont<int> { types iter = bool; } in 1";
    let err = check_err(src);
    assert!(
        matches!(err.kind, ErrorKind::MissingRefinedModel { .. }),
        "{err}"
    );
}

#[test]
fn member_defaults_extension() {
    // §6 "Defaults for concept members": ne defaults to the negation of eq;
    // the int model relies on the default, the bool model overrides it.
    let src = "
        concept Eq<t> {
            equal : fn(t, t) -> bool;
            not_equal : fn(t, t) -> bool
                = lam a: t, b: t. bnot(Eq<t>.equal(a, b));
        } in
        model Eq<int> { equal = ieq; } in
        model Eq<bool> { equal = beq; not_equal = lam a: bool, b: bool. false; } in
        band(Eq<int>.not_equal(1, 2), bnot(Eq<bool>.not_equal(true, false)))";
    assert_eq!(run_ok(src), Value::Bool(true));
}

#[test]
fn default_referencing_later_member_is_an_error() {
    let src = "
        concept Weird<t> {
            first : fn(t) -> t = lam x: t. Weird<t>.second(x);
            second : fn(t) -> t;
        } in
        model Weird<int> { second = ineg; } in 1";
    let err = check_err(src);
    assert!(
        matches!(err.kind, ErrorKind::DefaultUsesLaterMember { .. }),
        "{err}"
    );
}

#[test]
fn default_using_refined_concept_member() {
    // A default body reaching a member of the refined concept: resolved
    // against the (already complete) model of the refinement.
    let src = "
        concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
        concept Doubler<t> {
            refines Semigroup<t>;
            double : fn(t) -> t = lam x: t. Semigroup<t>.binary_op(x, x);
        } in
        model Semigroup<int> { binary_op = iadd; } in
        model Doubler<int> { } in
        Doubler<int>.double(21)";
    assert_eq!(run_ok(src), Value::Int(42));
}

#[test]
fn opaque_assoc_types_are_not_ints() {
    // Inside a generic function the associated type is opaque: using it as
    // an int must fail.
    let src = format!(
        "{ITERATOR}
        let bad = biglam I where Iterator<I>. lam it: I.
            iadd(Iterator<I>.curr(it), 1)
        in 1"
    );
    let err = check_err(&src);
    assert!(matches!(err.kind, ErrorKind::ArgMismatch { .. }), "{err}");
}

#[test]
fn two_iterator_models_with_different_elements() {
    // Iterator over list int and over int-as-counter with bool elements;
    // a generic algorithm instantiated at both.
    let src = "
        concept Iterator<Iter> {
            types elt;
            next : fn(Iter) -> Iter;
            curr : fn(Iter) -> Iterator<Iter>.elt;
            at_end : fn(Iter) -> bool;
        } in
        model Iterator<list int> {
            types elt = int;
            next = lam ls: list int. cdr[int](ls);
            curr = lam ls: list int. car[int](ls);
            at_end = lam ls: list int. null[int](ls);
        } in
        model Iterator<int> {
            types elt = bool;
            next = lam n: int. isub(n, 1);
            curr = lam n: int. ilt(0, n);
            at_end = lam n: int. ile(n, 0);
        } in
        let second = biglam I where Iterator<I>. lam it: I.
            Iterator<I>.curr(Iterator<I>.next(it))
        in
        let a = second[list int](cons[int](1, cons[int](9, nil[int]))) in
        let b = second[int](2) in
        if b then a else 0";
    assert_eq!(run_ok(src), Value::Int(9));
}
