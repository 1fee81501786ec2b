//! Workload generators shared by the benchmark suite (and its tests).
//!
//! Each generator corresponds to an experiment id in DESIGN.md §3:
//!
//! * [`congruence_chain`] / C1 — equality chains for the Nelson–Oppen vs
//!   naive-closure scaling comparison;
//! * [`monomorphic_sum`] and the translated Figure 5 program / C2 — the
//!   dictionary-passing-overhead comparison;
//! * [`refinement_chain_program`] / C3 — concept hierarchies of growing
//!   depth;
//! * [`many_models_program`] / C4 — scopes with many models, stressing
//!   model lookup.

pub mod runner;

use std::sync::Arc;
use system_f::{Prim, Symbol, Term, Ty};

/// Builds an F_G program whose concept hierarchy is a refinement chain of
/// `depth` concepts (`C0 … C_{depth-1}`, each refining the previous), with
/// a model of each at `int`, a generic function constrained by the deepest
/// concept that touches a member of every level, and an instantiation.
pub fn refinement_chain_program(depth: usize) -> String {
    assert!(depth >= 1);
    let mut out = String::new();
    for i in 0..depth {
        out.push_str(&format!("concept C{i}<t> {{ "));
        if i > 0 {
            out.push_str(&format!("refines C{}<t>; ", i - 1));
        }
        out.push_str(&format!("m{i} : fn(t) -> t; }} in\n"));
    }
    for i in 0..depth {
        out.push_str(&format!(
            "model C{i}<int> {{ m{i} = lam x: int. iadd(x, {i}); }} in\n"
        ));
    }
    let deepest = depth - 1;
    out.push_str(&format!("let f = biglam t where C{deepest}<t>. lam x: t. "));
    // Compose every level's member: m0(m1(…(x)…)).
    for i in 0..depth {
        out.push_str(&format!("C{i}<t>.m{i}("));
    }
    out.push('x');
    out.push_str(&")".repeat(depth));
    out.push_str(" in\nf[int](0)\n");
    out
}

/// The expected result of [`refinement_chain_program`]: `Σ 0..depth`.
pub fn refinement_chain_expected(depth: usize) -> i64 {
    (0..depth as i64).sum()
}

/// Builds an F_G program that declares `width` sibling concepts each with a
/// model at `int`, then accesses a member of the *first-declared* one —
/// the worst case for the newest-first model lookup.
pub fn many_models_program(width: usize) -> String {
    assert!(width >= 1);
    let mut out = String::new();
    for i in 0..width {
        out.push_str(&format!("concept D{i}<t> {{ v{i} : t; }} in\n"));
    }
    for i in 0..width {
        out.push_str(&format!("model D{i}<int> {{ v{i} = {i}; }} in\n"));
    }
    out.push_str("D0<int>.v0\n");
    out
}

/// Builds an F_G program with a diamond lattice of the given `layers` (each
/// layer refines everything in the previous layer), stressing the
/// deduplication of diamond refinements (§5.2).
pub fn diamond_program(layers: usize, width: usize) -> String {
    assert!(layers >= 1 && width >= 1);
    let mut out = String::new();
    out.push_str("concept Base<t> { types a; base : fn(t) -> Base<t>.a; } in\n");
    let mut prev: Vec<String> = vec!["Base".to_owned()];
    for l in 1..layers {
        let mut cur = Vec::new();
        for w in 0..width {
            let name = format!("L{l}W{w}");
            out.push_str(&format!("concept {name}<t> {{ "));
            for p in &prev {
                out.push_str(&format!("refines {p}<t>; "));
            }
            out.push_str("} in\n");
            cur.push(name);
        }
        prev = cur;
    }
    out.push_str("model Base<int> { types a = int; base = lam x: int. x; } in\n");
    let mut declared: Vec<String> = vec!["Base".to_owned()];
    for l in 1..layers {
        for w in 0..width {
            let name = format!("L{l}W{w}");
            out.push_str(&format!("model {name}<int> {{ }} in\n"));
            declared.push(name);
        }
    }
    let top = declared.last().unwrap().clone();
    out.push_str(&format!(
        "let f = biglam t where {top}<t>. lam x: t. Base<t>.base(x) in f[int](7)\n"
    ));
    out
}

/// Builds an F_G program whose where clause chains `k` iterators with
/// `k-1` same-type constraints over their associated element types — the
/// workload that §5.1's congruence closure decides during typechecking.
pub fn same_type_chain_program(k: usize) -> String {
    assert!(k >= 1);
    let mut out = String::from(
        "concept It<i> { types elt; curr : fn(i) -> It<i>.elt; } in\n\
         model forall t. It<list t> { types elt = t; curr = lam ls: list t. car[t](ls); } in\n",
    );
    let vars: Vec<String> = (0..k).map(|i| format!("i{i}")).collect();
    out.push_str(&format!("let f = biglam {}", vars.join(", ")));
    out.push_str(" where ");
    let mut constraints: Vec<String> = vars.iter().map(|v| format!("It<{v}>")).collect();
    for w in vars.windows(2) {
        constraints.push(format!("It<{}>.elt == It<{}>.elt", w[0], w[1]));
    }
    out.push_str(&constraints.join(", "));
    out.push_str(". lam ");
    let params: Vec<String> = vars.iter().enumerate().map(|(i, v)| format!("x{i}: {v}")).collect();
    out.push_str(&params.join(", "));
    // Combine all currs with a binary function over the shared element type.
    out.push_str(&format!(
        ", h: fn(It<{0}>.elt, It<{0}>.elt) -> It<{0}>.elt. ",
        vars[0]
    ));
    let mut body = format!("It<{}>.curr(x0)", vars[0]);
    for (i, v) in vars.iter().enumerate().skip(1) {
        body = format!("h({body}, It<{v}>.curr(x{i}))");
    }
    out.push_str(&body);
    out.push_str(" in\nf[");
    out.push_str(&vec!["list int"; k].join(", "));
    out.push_str("](");
    let args: Vec<String> = (0..k).map(|_| "cons[int](1, nil[int])".to_owned()).collect();
    out.push_str(&args.join(", "));
    out.push_str(", iadd)\n");
    out
}

/// A hand-monomorphized System F `sum` over an int list of length `n` —
/// the baseline a C++-style compiler would produce by specialization,
/// against which the dictionary-passing translation is measured (C2).
pub fn monomorphic_sum(n: usize) -> Term {
    let t = Ty::Int;
    let fty = Ty::func(vec![Ty::list(t.clone())], t.clone());
    let ls = Symbol::intern("ls");
    let go = Symbol::intern("go");
    let body = Term::lam(
        vec![(ls, Ty::list(t.clone()))],
        Term::if_(
            Term::app(
                Term::tyapp(Term::Prim(Prim::Null), vec![t.clone()]),
                vec![Term::Var(ls)],
            ),
            Term::IntLit(0),
            Term::app(
                Term::Prim(Prim::IAdd),
                vec![
                    Term::app(
                        Term::tyapp(Term::Prim(Prim::Car), vec![t.clone()]),
                        vec![Term::Var(ls)],
                    ),
                    Term::app(
                        Term::Var(go),
                        vec![Term::app(
                            Term::tyapp(Term::Prim(Prim::Cdr), vec![t.clone()]),
                            vec![Term::Var(ls)],
                        )],
                    ),
                ],
            ),
        ),
    );
    let f = Term::Fix(go, fty, Arc::new(body));
    Term::app(f, vec![int_list(n)])
}

/// The Figure 5 generic accumulate applied to an int list of length `n`
/// (the dictionary-passing side of C2), as F_G source.
pub fn generic_accumulate_program(n: usize) -> String {
    format!(
        "concept Semigroup<t> {{ binary_op : fn(t, t) -> t; }} in
         concept Monoid<t> {{ refines Semigroup<t>; identity_elt : t; }} in
         let accumulate = biglam t where Monoid<t>.
             fix accum: fn(list t) -> t.
               lam ls: list t.
                 if null[t](ls) then Monoid<t>.identity_elt
                 else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
         in
         model Semigroup<int> {{ binary_op = iadd; }} in
         model Monoid<int> {{ identity_elt = 0; }} in
         accumulate[int]({})",
        int_list_src(n)
    )
}

/// `cons[int](0, cons[int](1, … nil[int]))` as a System F term.
pub fn int_list(n: usize) -> Term {
    let items: Vec<i64> = (0..n as i64).collect();
    Term::int_list(&items)
}

/// The same list as F_G/System F source text.
pub fn int_list_src(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!("cons[int]({i}, "));
    }
    out.push_str("nil[int]");
    out.push_str(&")".repeat(n));
    out
}

/// Expected sum of `int_list(n)`.
pub fn sum_expected(n: usize) -> i64 {
    (0..n as i64).sum()
}

/// Drives `size` merges through a congruence implementation via the
/// `congruence_chain` workload: terms `f^i(a)` for `i ≤ size`, asserting
/// `f^k(a) = a` for two coprime strides so everything collapses, then
/// querying. Returns the number of equal pairs found (for verification).
pub fn congruence_chain(size: usize, use_naive: bool) -> usize {
    use congruence::{Congruence, NaiveClosure, Op};
    let f = Op(0);
    let mut equal_pairs = 0;
    if use_naive {
        let mut cc = NaiveClosure::new();
        let a = cc.constant(Op(1));
        let mut terms = vec![a];
        for _ in 0..size {
            let prev = *terms.last().unwrap();
            terms.push(cc.term(f, &[prev]));
        }
        cc.merge(terms[size / 2], a);
        cc.merge(terms[size / 2 + 1], a);
        for w in terms.windows(2) {
            if cc.eq(w[0], w[1]) {
                equal_pairs += 1;
            }
        }
    } else {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(1));
        let mut terms = vec![a];
        for _ in 0..size {
            let prev = *terms.last().unwrap();
            terms.push(cc.term(f, &[prev]));
        }
        cc.merge(terms[size / 2], a);
        cc.merge(terms[size / 2 + 1], a);
        for w in terms.windows(2) {
            if cc.eq(w[0], w[1]) {
                equal_pairs += 1;
            }
        }
    }
    equal_pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_chain_programs_run_correctly() {
        for depth in [1, 2, 5] {
            let src = refinement_chain_program(depth);
            let v = fg::run(&src).unwrap_or_else(|e| panic!("depth {depth}: {e}\n{src}"));
            assert_eq!(
                v,
                system_f::Value::Int(refinement_chain_expected(depth)),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn many_models_programs_run_correctly() {
        for width in [1, 5, 20] {
            let src = many_models_program(width);
            let v = fg::run(&src).unwrap();
            assert_eq!(v, system_f::Value::Int(0), "width {width}");
        }
    }

    #[test]
    fn diamond_programs_run_correctly() {
        for (layers, width) in [(1, 1), (2, 2), (3, 2)] {
            let src = diamond_program(layers, width);
            let v = fg::run(&src).unwrap_or_else(|e| panic!("{layers}x{width}: {e}\n{src}"));
            assert_eq!(v, system_f::Value::Int(7), "{layers}x{width}");
        }
    }

    #[test]
    fn sum_paths_agree() {
        for n in [0, 1, 10, 50] {
            let mono = monomorphic_sum(n);
            system_f::typecheck(&mono).unwrap();
            let mv = system_f::eval(&mono).unwrap();
            assert_eq!(mv, system_f::Value::Int(sum_expected(n)));
            let gen_src = generic_accumulate_program(n);
            let gv = fg::run(&gen_src).unwrap();
            assert_eq!(gv, mv, "n = {n}");
        }
    }

    #[test]
    fn same_type_chain_programs_run_correctly() {
        for k in [1, 2, 4] {
            let src = same_type_chain_program(k);
            let v = fg::run(&src).unwrap_or_else(|e| panic!("k={k}: {e}\n{src}"));
            assert_eq!(v, system_f::Value::Int(k as i64), "k = {k}");
        }
    }

    #[test]
    fn congruence_chain_implementations_agree() {
        for size in [4, 16, 64] {
            assert_eq!(
                congruence_chain(size, false),
                congruence_chain(size, true),
                "size {size}"
            );
        }
    }
}
