//! Metatheory property tests for System F itself, independent of F_G:
//! randomly generated *well-typed* terms satisfy progress and
//! preservation under the small-step semantics, and the small-step normal
//! form agrees with the big-step evaluator.
//!
//! This is the "System F is type safe" half of the paper's type-safety
//! argument, tested directly on the target language.

use proptest::prelude::*;
use system_f::smallstep::{normalize, step, Stuck};
use system_f::types::alpha_eq;
use system_f::{eval, typecheck, Symbol, Term, Ty, Value};
use telemetry::limits::Budget;

/// Deterministic SplitMix64 RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

/// A typing context of generated variables.
struct Ctx {
    vars: Vec<(Symbol, Ty)>,
    counter: usize,
}

impl Ctx {
    fn fresh(&mut self, ty: Ty) -> Symbol {
        let s = Symbol::intern(&format!("g{}", self.counter));
        self.counter += 1;
        self.vars.push((s, ty));
        s
    }

    fn of_type(&self, ty: &Ty) -> Vec<Symbol> {
        self.vars
            .iter()
            .filter(|(_, t)| t == ty)
            .map(|(n, _)| *n)
            .collect()
    }
}

/// Generates a closed, well-typed term of type `ty`.
fn gen_term(rng: &mut Rng, ctx: &mut Ctx, ty: &Ty, depth: usize) -> Term {
    // Variables of the right type are always candidates.
    let candidates = ctx.of_type(ty);
    if depth == 0 {
        if !candidates.is_empty() && rng.chance(60) {
            return Term::Var(candidates[rng.below(candidates.len())]);
        }
        return ground(rng, ctx, ty);
    }
    if !candidates.is_empty() && rng.chance(20) {
        return Term::Var(candidates[rng.below(candidates.len())]);
    }
    match rng.below(6) {
        // let-binding of a random type.
        0 => {
            let bound_ty = random_ty(rng, 1);
            let bound = gen_term(rng, ctx, &bound_ty, depth - 1);
            let n = ctx.vars.len();
            let x = ctx.fresh(bound_ty);
            let body = gen_term(rng, ctx, ty, depth - 1);
            ctx.vars.truncate(n);
            Term::let_(x, bound, body)
        }
        // if at the target type.
        1 => Term::if_(
            gen_term(rng, ctx, &Ty::Bool, depth - 1),
            gen_term(rng, ctx, ty, depth - 1),
            gen_term(rng, ctx, ty, depth - 1),
        ),
        // beta-redex: (lam x: σ. body)(arg).
        2 => {
            let param_ty = random_ty(rng, 1);
            let arg = gen_term(rng, ctx, &param_ty, depth - 1);
            let n = ctx.vars.len();
            let x = ctx.fresh(param_ty.clone());
            let body = gen_term(rng, ctx, ty, depth - 1);
            ctx.vars.truncate(n);
            Term::app(
                Term::lam(vec![(x, param_ty)], body),
                vec![arg],
            )
        }
        // polymorphic identity redex: (biglam a. lam x: a. x)[ty](e).
        3 => {
            let a = Symbol::intern("a");
            let x = Symbol::intern("x");
            let id = Term::TyAbs(
                vec![a],
                Box::new(Term::lam(vec![(x, Ty::Var(a))], Term::Var(x))),
            );
            Term::app(
                Term::tyapp(id, vec![ty.clone()]),
                vec![gen_term(rng, ctx, ty, depth - 1)],
            )
        }
        // tuple-projection redex: tuple(…, e, …).i
        4 => {
            let before = rng.below(2);
            let mut items = Vec::new();
            for _ in 0..before {
                items.push(gen_term(rng, ctx, &Ty::Int, 0));
            }
            items.push(gen_term(rng, ctx, ty, depth - 1));
            Term::nth(Term::Tuple(items), before)
        }
        _ => ground(rng, ctx, ty),
    }
}

/// A shallow term of the requested type.
fn ground(rng: &mut Rng, ctx: &mut Ctx, ty: &Ty) -> Term {
    match ty {
        Ty::Int => {
            if rng.chance(30) {
                Term::app(
                    Term::Prim(system_f::Prim::IAdd),
                    vec![
                        Term::IntLit(rng.below(10) as i64),
                        Term::IntLit(rng.below(10) as i64),
                    ],
                )
            } else {
                Term::IntLit(rng.below(100) as i64)
            }
        }
        Ty::Bool => {
            if rng.chance(30) {
                Term::app(
                    Term::Prim(system_f::Prim::ILt),
                    vec![
                        Term::IntLit(rng.below(10) as i64),
                        Term::IntLit(rng.below(10) as i64),
                    ],
                )
            } else {
                Term::BoolLit(rng.chance(50))
            }
        }
        Ty::List(elem) => {
            let mut out = Term::tyapp(Term::Prim(system_f::Prim::Nil), vec![(**elem).clone()]);
            for _ in 0..rng.below(3) {
                let head = ground(rng, ctx, elem);
                out = Term::app(
                    Term::tyapp(Term::Prim(system_f::Prim::Cons), vec![(**elem).clone()]),
                    vec![head, out],
                );
            }
            out
        }
        Ty::Fn(params, ret) => {
            let n = ctx.vars.len();
            let binders: Vec<(Symbol, Ty)> = params
                .iter()
                .map(|p| (ctx.fresh(p.clone()), p.clone()))
                .collect();
            let body = gen_term(rng, ctx, ret, 1);
            ctx.vars.truncate(n);
            Term::Lam(binders, Box::new(body))
        }
        Ty::Tuple(items) => Term::Tuple(
            items.iter().map(|t| ground(rng, ctx, t)).collect(),
        ),
        Ty::Forall(..) | Ty::Var(_) => {
            // Only closed monomorphic targets are generated.
            Term::IntLit(0)
        }
    }
}

/// A random closed monomorphic type.
fn random_ty(rng: &mut Rng, depth: usize) -> Ty {
    if depth == 0 {
        return if rng.chance(50) { Ty::Int } else { Ty::Bool };
    }
    match rng.below(5) {
        0 => Ty::Int,
        1 => Ty::Bool,
        2 => Ty::list(random_ty(rng, depth - 1)),
        3 => Ty::func(vec![random_ty(rng, depth - 1)], random_ty(rng, depth - 1)),
        _ => Ty::Tuple(vec![random_ty(rng, depth - 1), random_ty(rng, depth - 1)]),
    }
}

fn generate(seed: u64) -> (Term, Ty) {
    let mut rng = Rng(seed);
    let d = 1 + rng.below(2);
    let ty = random_ty(&mut rng, d);
    let mut ctx = Ctx {
        vars: Vec::new(),
        counter: 0,
    };
    let term = gen_term(&mut rng, &mut ctx, &ty, 3);
    (term, ty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Generated terms typecheck at their target type.
    #[test]
    fn generator_produces_well_typed_terms(seed in any::<u64>()) {
        let (term, ty) = generate(seed);
        let checked = typecheck(&term)
            .unwrap_or_else(|e| panic!("ill-typed generation: {e}\n{term}"));
        prop_assert!(alpha_eq(&checked, &ty), "{checked} vs {ty}\n{term}");
    }

    /// Progress + preservation along the full reduction trace.
    #[test]
    fn progress_and_preservation(seed in any::<u64>()) {
        let (term, _) = generate(seed);
        let ty = typecheck(&term).unwrap();
        let mut cur = term;
        let mut done = false;
        for _ in 0..2_000 {
            match step(&cur) {
                Ok(next) => {
                    let nty = typecheck(&next).unwrap_or_else(|e| {
                        panic!("PRESERVATION violated: {e}\nbefore: {cur}\nafter: {next}")
                    });
                    prop_assert!(alpha_eq(&nty, &ty), "{nty} vs {ty}");
                    cur = next;
                }
                Err(Stuck::Value) | Err(Stuck::EmptyList(_)) => {
                    done = true;
                    break;
                }
                Err(s) => panic!("PROGRESS violated: {s:?}\nterm: {cur}"),
            }
        }
        prop_assert!(done, "generated term did not terminate within fuel");
    }

    /// The bytecode VM agrees with the big-step evaluator.
    #[test]
    fn vm_agrees_with_bigstep(seed in any::<u64>()) {
        let (term, _) = generate(seed);
        let big = eval(&term).unwrap();
        let vm = system_f::vm::compile(&term)
            .and_then(|p| system_f::vm::run_budgeted(&p, &Budget::unlimited()))
            .unwrap_or_else(|e| panic!("vm failed: {e}\n{term}"));
        prop_assert!(vm.agrees_with(&big), "vm {vm} vs eval {big}\n{term}");
    }

    /// Small-step normal forms agree with the big-step evaluator on
    /// ground results.
    #[test]
    fn smallstep_agrees_with_bigstep(seed in any::<u64>()) {
        let (term, _) = generate(seed);
        let (nf, _) = normalize(&term, 100_000)
            .unwrap_or_else(|(t, s)| panic!("stuck: {s:?} at {t}"));
        let big = eval(&term).unwrap();
        let agree = match (&nf, &big) {
            (Term::IntLit(a), Value::Int(b)) => a == b,
            (Term::BoolLit(a), Value::Bool(b)) => a == b,
            _ => true,
        };
        prop_assert!(agree, "small {nf} vs big {big}\n{term}");
    }
}
