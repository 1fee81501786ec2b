//! F_G: System F with concepts — the language of "Essential Language
//! Support for Generic Programming" (Siek and Lumsdaine, PLDI 2005).
//!
//! F_G extends System F with the abstractions that a decade of C++ generic
//! library practice identified as essential:
//!
//! * **concepts** — named, lexically scoped bundles of requirements over
//!   type parameters (operations, refinements of other concepts,
//!   associated types, same-type constraints);
//! * **models** — lexically scoped declarations that particular types
//!   satisfy a concept (Haskell's instances, but scoped: overlapping
//!   models coexist in different scopes, the paper's Figure 6);
//! * **where clauses** on type abstractions, which constrain instantiation
//!   and implicitly pass the matching models into the generic function;
//! * **associated types** and **same-type constraints**, with type
//!   equality decided by congruence closure (Nelson–Oppen).
//!
//! The semantics is given — exactly as in the paper — by a type-directed,
//! dictionary-passing translation to System F ([`check_program`]), which
//! this crate pairs with a direct big-step interpreter ([`interp`]) used
//! for differential testing.
//!
//! # Quick start
//!
//! The paper's running example (Figure 5): a generic `accumulate` over any
//! `Monoid`:
//!
//! ```
//! use fg::{check_program, parser::parse_expr};
//!
//! let program = r#"
//!     concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
//!     concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
//!     let accumulate =
//!       biglam t where Monoid<t>.
//!         fix accum: fn(list t) -> t.
//!           lam ls: list t.
//!             if null[t](ls) then Monoid<t>.identity_elt
//!             else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
//!     in
//!     model Semigroup<int> { binary_op = iadd; } in
//!     model Monoid<int> { identity_elt = 0; } in
//!     accumulate[int](cons[int](1, cons[int](2, nil[int])))
//! "#;
//! let compiled = check_program(&parse_expr(program)?)?;
//! assert_eq!(system_f::eval(&compiled.term).unwrap(), system_f::Value::Int(3));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`ast`] | surface syntax (Figures 4 and 11) |
//! | [`parser`] | recursive-descent parser for the concrete syntax |
//! | [`rty`] | the checker's hash-consed type arena ([`rty::TyInterner`], [`rty::TyId`]) and the tree form [`rty::RTy`] for diagnostics and the interpreter |
//! | [`concepts`] | the checked concept table |
//! | [`typeeq`] | congruence-closure type equality (§5.1) |
//! | [`check`] | the typechecker and translation to System F (Figures 9, 13) |
//! | [`interp`] | direct big-step interpreter (differential oracle) |
//! | [`limits`] | resource budgets: governed, panic-free pipeline entry points |
//! | [`pool`] | persistent big-stack worker pool + compile cache behind the CLI and `fg serve` |
//! | [`prefix`] | declaration prefixes (libraries) checked once, with a hole for program bodies |
//! | [`pretty`] | pretty-printer for the surface syntax |
//! | [`stdlib`] | an STL-flavoured concept library written in F_G |
//! | [`corpus`] | the paper's figures as runnable programs |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// CheckError carries the offending types inline for rich diagnostics; the
// checker is not a hot path that would benefit from boxing them.
#![allow(clippy::result_large_err)]

pub mod ast;
pub mod check;
pub mod concepts;
pub mod corpus;
pub mod error;
pub mod format;
pub mod graph;
pub mod linalg;
pub mod interp;
pub mod limits;
pub mod parser;
pub mod pool;
pub mod prefix;
pub mod pretty;
pub mod rty;
pub mod stdlib;
pub mod typeeq;

pub use check::{check_program, CheckStats, Checker, Compiled};
pub use error::{CheckError, ErrorKind};
pub use typeeq::TypeEqStats;

/// Parses, compiles, and runs an F_G program on the System F evaluator,
/// returning the final value: [`limits::run_budgeted`] without caps.
///
/// # Errors
///
/// Returns the phase-tagged [`limits::PipelineError`], boxed.
pub fn run(src: &str) -> Result<system_f::Value, Box<dyn std::error::Error>> {
    Ok(limits::run_budgeted(src, limits::Limits::UNLIMITED)?)
}
