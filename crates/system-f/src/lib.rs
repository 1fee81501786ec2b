//! System F — the polymorphic lambda calculus — as an executable library.
//!
//! This crate implements the *target* language of the PLDI 2005 paper
//! "Essential Language Support for Generic Programming" by Siek and
//! Lumsdaine. The paper gives the semantics of its F_G language (System F +
//! concepts) by translation into System F, where concept *models* become
//! nested-tuple *dictionaries* passed as ordinary arguments. To execute and
//! test that translation, this crate provides:
//!
//! * an [AST](Term) for System F with multi-parameter functions and type
//!   abstractions, tuples with projection, `let` (the paper's Figure 2),
//!   plus the base machinery the paper's examples assume — integers,
//!   booleans, lists, `if`, and `fix`;
//! * a [typechecker](typecheck) with precise [errors](TypeError);
//! * a call-by-value [evaluator](eval);
//! * a [parser](parse_term) and pretty-printer for a concrete syntax that
//!   round-trips.
//!
//! # Quick start
//!
//! Figure 3 of the paper — a generic `sum` written in plain System F by
//! passing `add` and `zero` explicitly:
//!
//! ```
//! use system_f::{parse_term, typecheck, eval, Value};
//!
//! let program = r#"
//!     let sum = biglam t.
//!       fix sum: fn(list t, fn(t, t) -> t, t) -> t.
//!         lam ls: list t, add: fn(t, t) -> t, zero: t.
//!           if null[t](ls) then zero
//!           else add(car[t](ls), sum(cdr[t](ls), add, zero))
//!     in
//!     let ls = cons[int](1, cons[int](2, nil[int])) in
//!     sum[int](ls, iadd, 0)
//! "#;
//! let term = parse_term(program)?;
//! typecheck(&term).expect("well typed");
//! assert_eq!(eval(&term).unwrap(), Value::Int(3));
//! # Ok::<(), system_f::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod eval;
pub mod lexer;
mod parser;
mod pretty;
pub mod smallstep;
mod symbol;
pub mod vm;
mod typeck;
pub mod types;

pub use ast::{Prim, Term, Ty};
pub use eval::{
    apply, eval, eval_budgeted, eval_in, eval_lets, Env, EvalError, VList, VListIter, Value,
};
pub use parser::{parse_term, parse_ty, ParseError};
pub use symbol::{NameSupply, Symbol};
pub use typeck::{typecheck, typecheck_in, typecheck_open, Ctx, TypeError};
