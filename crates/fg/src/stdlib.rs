//! An STL-flavoured generic-programming prelude, written in F_G.
//!
//! The paper's motivation is a decade of C++ generic-library practice
//! (the STL and the Boost Graph Library): concepts exist to organize
//! *libraries*. This module exercises F_G the way those libraries exercise
//! C++ — a hierarchy of algebraic and iterator concepts, models for the
//! built-in types, and a set of generic algorithms written against the
//! concepts, all in F_G source.
//!
//! [`PRELUDE`] is an open chain of `concept … in model … in let … in`
//! declarations; [`with_prelude`] appends a program body to it, and
//! [`prelude_prefix`] parses it as a [`Prefix`] to check once and reuse.
//!
//! Declared concepts:
//!
//! | concept | members |
//! |---|---|
//! | `Semigroup<t>` | `binary_op` |
//! | `Monoid<t>` | refines `Semigroup`; `identity_elt` |
//! | `Group<t>` | refines `Monoid`; `inverse` |
//! | `EqualityComparable<t>` | `equal`, `not_equal` (defaulted) |
//! | `LessThanComparable<t>` | `less`, `less_equal` (defaulted) |
//! | `Iterator<i>` | `types elt`; `next`, `curr`, `at_end` |
//! | `OutputIterator<o, v>` | `put` |
//!
//! Generic algorithms: `accumulate`, `it_accumulate`, `copy_to`,
//! `count_if`, `all_of`, `any_of`, `min_element`, `contains`, plus the
//! list utilities `length`, `append`, `range`, `reverse`.

use std::sync::Arc;

use system_f::ParseError;
use telemetry::limits::Budget;

use crate::prefix::Prefix;

/// The prelude source. Ends expecting a body expression (see
/// [`with_prelude`]).
pub const PRELUDE: &str = r#"
// ---- algebraic hierarchy -------------------------------------------------
concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
concept Group<t> { refines Monoid<t>; inverse : fn(t) -> t; } in

// ---- comparison concepts (with defaulted members) ------------------------
concept EqualityComparable<t> {
    equal : fn(t, t) -> bool;
    not_equal : fn(t, t) -> bool
        = lam a: t, b: t. bnot(EqualityComparable<t>.equal(a, b));
} in
concept LessThanComparable<t> {
    less : fn(t, t) -> bool;
    less_equal : fn(t, t) -> bool
        = lam a: t, b: t. bor(LessThanComparable<t>.less(a, b), bnot(LessThanComparable<t>.less(b, a)));
} in

// ---- iterator concepts (associated types, the heart of 5) ----------------
concept Iterator<i> {
    types elt;
    next : fn(i) -> i;
    curr : fn(i) -> Iterator<i>.elt;
    at_end : fn(i) -> bool;
} in
concept OutputIterator<o, v> { put : fn(o, v) -> o; } in

// ---- models for the built-in types ---------------------------------------
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
model Group<int> { inverse = ineg; } in
model EqualityComparable<int> { equal = ieq; } in
model EqualityComparable<bool> { equal = beq; } in
model LessThanComparable<int> { less = ilt; } in
// Parameterized models (6): every list type is iterable, every list of
// equality-comparable elements is equality-comparable, and every list is a
// prepending output iterator for its element type.
model forall t. Iterator<list t> {
    types elt = t;
    next = lam ls: list t. cdr[t](ls);
    curr = lam ls: list t. car[t](ls);
    at_end = lam ls: list t. null[t](ls);
} in
model forall t. OutputIterator<list t, t> {
    put = lam out: list t, x: t. cons[t](x, out);
} in
model forall t where EqualityComparable<t>. EqualityComparable<list t> {
    equal =
      fix go: fn(list t, list t) -> bool.
        lam xs: list t, ys: list t.
          if null[t](xs) then null[t](ys)
          else if null[t](ys) then false
          else band(EqualityComparable<t>.equal(car[t](xs), car[t](ys)),
                    go(cdr[t](xs), cdr[t](ys)));
} in
model forall t. Semigroup<list t> {
    binary_op =
      fix app: fn(list t, list t) -> list t.
        lam xs: list t, ys: list t.
          if null[t](xs) then ys
          else cons[t](car[t](xs), app(cdr[t](xs), ys));
} in
model forall t. Monoid<list t> { identity_elt = nil[t]; } in

// ---- list utilities -------------------------------------------------------
let length = biglam t.
    fix len: fn(list t) -> int.
      lam ls: list t.
        if null[t](ls) then 0 else iadd(1, len(cdr[t](ls)))
in
let append = biglam t.
    fix app: fn(list t, list t) -> list t.
      lam xs: list t, ys: list t.
        if null[t](xs) then ys
        else cons[t](car[t](xs), app(cdr[t](xs), ys))
in
let range = // [lo, hi)
    fix go: fn(int, int) -> list int.
      lam lo: int, hi: int.
        if ile(hi, lo) then nil[int]
        else cons[int](lo, go(iadd(lo, 1), hi))
in

// ---- generic algorithms ----------------------------------------------------
// Figure 5: fold a Monoid over a list.
let accumulate = biglam t where Monoid<t>.
    fix accum: fn(list t) -> t.
      lam ls: list t.
        if null[t](ls) then Monoid<t>.identity_elt
        else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
in
// 5: fold a Monoid over any Iterator whose element type models Monoid.
let it_accumulate = biglam i where Iterator<i>, Monoid<Iterator<i>.elt>.
    fix accum: fn(i) -> Iterator<i>.elt.
      lam it: i.
        if Iterator<i>.at_end(it) then Monoid<Iterator<i>.elt>.identity_elt
        else Monoid<Iterator<i>.elt>.binary_op(Iterator<i>.curr(it), accum(Iterator<i>.next(it)))
in
// 5.2: copy from an input iterator to an output iterator.
let copy_to = biglam i, o where Iterator<i>, OutputIterator<o, Iterator<i>.elt>.
    fix go: fn(i, o) -> o.
      lam it: i, out: o.
        if Iterator<i>.at_end(it) then out
        else go(Iterator<i>.next(it), OutputIterator<o, Iterator<i>.elt>.put(out, Iterator<i>.curr(it)))
in
// Reverse a list by copying through the prepending output iterator.
let reverse = biglam t. lam ls: list t. copy_to[list t, list t](ls, nil[t]) in
let count_if = biglam i where Iterator<i>.
    fix go: fn(i, fn(Iterator<i>.elt) -> bool) -> int.
      lam it: i, pred: fn(Iterator<i>.elt) -> bool.
        if Iterator<i>.at_end(it) then 0
        else iadd(if pred(Iterator<i>.curr(it)) then 1 else 0,
                  go(Iterator<i>.next(it), pred))
in
let all_of = biglam i where Iterator<i>.
    fix go: fn(i, fn(Iterator<i>.elt) -> bool) -> bool.
      lam it: i, pred: fn(Iterator<i>.elt) -> bool.
        if Iterator<i>.at_end(it) then true
        else band(pred(Iterator<i>.curr(it)), go(Iterator<i>.next(it), pred))
in
let any_of = biglam i where Iterator<i>.
    fix go: fn(i, fn(Iterator<i>.elt) -> bool) -> bool.
      lam it: i, pred: fn(Iterator<i>.elt) -> bool.
        if Iterator<i>.at_end(it) then false
        else bor(pred(Iterator<i>.curr(it)), go(Iterator<i>.next(it), pred))
in
// Smallest element reachable from a (non-empty) iterator.
let min_element = biglam i where Iterator<i>, LessThanComparable<Iterator<i>.elt>.
    lam start: i.
      (fix go: fn(i, Iterator<i>.elt) -> Iterator<i>.elt.
        lam it: i, best: Iterator<i>.elt.
          if Iterator<i>.at_end(it) then best
          else go(Iterator<i>.next(it),
                  if LessThanComparable<Iterator<i>.elt>.less(Iterator<i>.curr(it), best)
                  then Iterator<i>.curr(it) else best))
      (Iterator<i>.next(start), Iterator<i>.curr(start))
in
let contains = biglam i where Iterator<i>, EqualityComparable<Iterator<i>.elt>.
    fix go: fn(i, Iterator<i>.elt) -> bool.
      lam it: i, needle: Iterator<i>.elt.
        if Iterator<i>.at_end(it) then false
        else bor(EqualityComparable<Iterator<i>.elt>.equal(Iterator<i>.curr(it), needle),
                 go(Iterator<i>.next(it), needle))
in
"#;

/// Appends a program body to the prelude.
///
/// ```
/// use fg::stdlib::with_prelude;
/// use fg::run;
///
/// let v = run(&with_prelude("accumulate[int](range(1, 5))")).unwrap();
/// assert_eq!(v, system_f::Value::Int(10));
/// ```
pub fn with_prelude(body: &str) -> String {
    format!("{PRELUDE}\n{body}\n")
}

/// The prelude as a declaration [`Prefix`], to be checked once and
/// reused: its source around a body is exactly [`with_prelude`]'s.
///
/// # Errors
///
/// Returns a parse error only if `budget` is too tight for the prelude.
pub fn prelude_prefix(budget: Arc<Budget>) -> Result<Prefix, ParseError> {
    Prefix::parse(&format!("{PRELUDE}\n"), "\n", budget)
}

#[cfg(test)]
mod tests {
    use super::{prelude_prefix, with_prelude};
    use crate::run;
    use system_f::Value;

    #[test]
    fn prelude_prefix_surrounds_a_body_as_with_prelude_does() {
        let prefix = prelude_prefix(Default::default()).unwrap();
        for body in ["", "accumulate[int](range(1, 5))", "  x\n"] {
            assert_eq!(prefix.source_with(body), with_prelude(body));
        }
    }

    fn run_p(body: &str) -> Value {
        run(&with_prelude(body)).unwrap_or_else(|e| panic!("{body}: {e}"))
    }

    #[test]
    fn prelude_typechecks_and_runs() {
        assert_eq!(run_p("accumulate[int](range(1, 5))"), Value::Int(10));
    }

    #[test]
    fn iterator_accumulate() {
        assert_eq!(
            run_p("it_accumulate[list int](range(1, 11))"),
            Value::Int(55)
        );
    }

    #[test]
    fn copy_and_reverse() {
        assert_eq!(
            run_p("car[int](reverse[int](range(1, 4)))"),
            Value::Int(3)
        );
        assert_eq!(run_p("length[int](reverse[int](range(0, 7)))"), Value::Int(7));
    }

    #[test]
    fn count_if_and_quantifiers() {
        assert_eq!(
            run_p("count_if[list int](range(0, 10), lam x: int. ilt(x, 3))"),
            Value::Int(3)
        );
        assert_eq!(
            run_p("all_of[list int](range(0, 10), lam x: int. ilt(x, 100))"),
            Value::Bool(true)
        );
        assert_eq!(
            run_p("any_of[list int](range(0, 10), lam x: int. ilt(x, 0))"),
            Value::Bool(false)
        );
    }

    #[test]
    fn min_element_and_contains() {
        assert_eq!(
            run_p("min_element[list int](cons[int](4, cons[int](2, cons[int](9, nil[int]))))"),
            Value::Int(2)
        );
        assert_eq!(
            run_p("contains[list int](range(0, 5), 3)"),
            Value::Bool(true)
        );
        assert_eq!(
            run_p("contains[list int](range(0, 5), 9)"),
            Value::Bool(false)
        );
    }

    #[test]
    fn defaulted_comparisons_work() {
        assert_eq!(
            run_p("EqualityComparable<int>.not_equal(1, 2)"),
            Value::Bool(true)
        );
        assert_eq!(
            run_p("LessThanComparable<int>.less_equal(2, 2)"),
            Value::Bool(true)
        );
    }

    #[test]
    fn group_refines_through_two_levels() {
        assert_eq!(
            run_p("Group<int>.binary_op(Group<int>.inverse(5), Group<int>.identity_elt)"),
            Value::Int(-5)
        );
    }

    #[test]
    fn list_utilities() {
        assert_eq!(run_p("length[int](range(3, 9))"), Value::Int(6));
        assert_eq!(
            run_p("length[int](append[int](range(0, 3), range(0, 4)))"),
            Value::Int(7)
        );
    }

    #[test]
    fn parameterized_list_models() {
        // The list Monoid (concatenation): accumulate over a list of lists.
        assert_eq!(
            run_p(
                "length[int](accumulate[list int](cons[list int](range(0, 2), \
                 cons[list int](range(0, 3), nil[list int]))))"
            ),
            Value::Int(5)
        );
        // Structural equality at lists and nested lists, via the
        // constrained parameterized model (Haskell's `Eq a => Eq [a]`).
        assert_eq!(
            run_p("EqualityComparable<list int>.equal(range(0, 3), range(0, 3))"),
            Value::Bool(true)
        );
        assert_eq!(
            run_p(
                "EqualityComparable<list (list int)>.not_equal(nil[list int], \
                 cons[list int](nil[int], nil[list int]))"
            ),
            Value::Bool(true)
        );
        // The iterator template works at any element type.
        assert_eq!(
            run_p(
                "car[bool](reverse[bool](cons[bool](true, cons[bool](false, nil[bool]))))"
            ),
            Value::Bool(false)
        );
        assert_eq!(
            run_p(
                "length[int](it_accumulate[list (list int)](\
                 cons[list int](range(0, 4), nil[list int])))"
            ),
            Value::Int(4)
        );
    }

    #[test]
    fn users_can_shadow_prelude_models() {
        // Multiplicative monoid in a local scope — Figure 6 with the
        // prelude's additive model as the outer scope.
        let body = "
            let product =
              model Semigroup<int> { binary_op = imult; } in
              model Monoid<int> { identity_elt = 1; } in
              accumulate[int]
            in
            iadd(imult(100, accumulate[int](range(1, 4))), product(range(1, 4)))";
        assert_eq!(run_p(body), Value::Int(606));
    }
}
