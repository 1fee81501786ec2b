//! Resource governance for the whole F_G pipeline.
//!
//! Re-exports the shared budget machinery from the `telemetry` crate and
//! adds governed one-shot entry points: [`compile_with_budget`] and
//! [`run_budgeted`] thread one [`Budget`] through every stage (parser
//! recursion depth, checker fuel and dictionary nodes, congruence nodes,
//! evaluator fuel/depth, and the wall-clock deadline).
//!
//! Every layer has exactly one function that does its work, and that
//! function takes the budget: [`crate::parser::parse_expr_budgeted`],
//! [`crate::check::check_program_budgeted`],
//! [`system_f::eval_budgeted`], [`system_f::vm::run_budgeted`] and
//! [`crate::interp::run_direct_budgeted`]. The short names
//! ([`crate::parser::parse_expr`], [`crate::check_program`],
//! [`system_f::eval`], [`crate::interp::run_direct`], [`crate::run`])
//! call them with a fresh unlimited budget, so no caller reaches an
//! ungoverned code path by picking the shorter name.
//!
//! The governance protocol is *sticky exhaustion*: the first failed charge
//! latches an [`Exhausted`] record on the budget, every later charge
//! short-circuits, and fallible layers poll [`Budget::ok`] to convert the
//! latched record into a structured, phase-tagged error. Infallible hot
//! paths (congruence hash-consing, dictionary-plan construction) charge
//! and degrade gracefully; the nearest fallible caller reports the trip.
//! See DESIGN.md §10 for the full model.
//!
//! ```
//! use fg::limits::{run_budgeted, Limits, PipelineError};
//!
//! // Ω diverges; a fuel budget turns that into a structured error.
//! let omega = "(fix f: fn(int) -> int. lam x: int. f(x))(0)";
//! let limits = Limits { fuel: Some(500), max_depth: Some(64), ..Limits::UNLIMITED };
//! let err = run_budgeted(omega, limits).unwrap_err();
//! assert!(matches!(err, PipelineError::Eval(_)));
//! assert!(err.exhausted().is_some());
//! ```

use std::fmt;
use std::sync::Arc;

pub use telemetry::fault::{FaultMode, FaultPlan};
pub use telemetry::limits::{Budget, Exhausted, Limits, Resource};

use crate::check::{check_program_budgeted, Compiled};
use crate::error::CheckError;
use crate::parser::parse_expr_budgeted;
use system_f::{EvalError, ParseError};
use telemetry::trace::Tracer;

/// A failure in any stage of the governed pipeline, tagged by phase.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The parser rejected the program (including depth exhaustion).
    Parse(ParseError),
    /// The checker rejected the program (including budget exhaustion).
    Check(CheckError),
    /// Evaluation failed (including budget exhaustion).
    Eval(EvalError),
}

impl PipelineError {
    /// The pipeline phase that failed: `"parse"`, `"check"`, or `"eval"`.
    pub fn phase(&self) -> &'static str {
        match self {
            PipelineError::Parse(_) => "parse",
            PipelineError::Check(_) => "check",
            PipelineError::Eval(_) => "eval",
        }
    }

    /// The budget-exhaustion record, if this failure was a resource trip
    /// rather than an ordinary diagnostic.
    pub fn exhausted(&self) -> Option<Exhausted> {
        match self {
            PipelineError::Parse(ParseError::TooDeep { limit, .. }) => Some(Exhausted {
                resource: Resource::Depth,
                limit: *limit,
            }),
            PipelineError::Parse(ParseError::Injected) => Some(Exhausted {
                resource: Resource::Injected,
                limit: 0,
            }),
            PipelineError::Parse(_) => None,
            PipelineError::Check(e) => match e.kind {
                crate::ErrorKind::ResourceExhausted { exhausted, .. } => Some(exhausted),
                _ => None,
            },
            PipelineError::Eval(EvalError::ResourceExhausted(x)) => Some(*x),
            PipelineError::Eval(_) => None,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::Check(e) => write!(f, "{e}"),
            PipelineError::Eval(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Parses, typechecks, and translates under a caller-owned budget
/// (shared across stages or inspected afterwards for `fuel_spent` and
/// friends).
///
/// # Errors
///
/// A phase-tagged [`PipelineError`]: any ordinary diagnostic the stages
/// produce, or a structured exhaustion error once the budget trips.
pub fn compile_with_budget(src: &str, budget: &Arc<Budget>) -> Result<Compiled, PipelineError> {
    let expr = parse_expr_budgeted(src, budget.clone()).map_err(PipelineError::Parse)?;
    check_program_budgeted(&expr, Tracer::disabled(), budget.clone())
        .map_err(PipelineError::Check)
}

/// Parses, compiles, and evaluates (on the System F evaluator) under a
/// fresh budget enforcing `limits`.
///
/// # Errors
///
/// As [`compile_with_budget`], plus evaluation failures.
pub fn run_budgeted(src: &str, limits: Limits) -> Result<system_f::Value, PipelineError> {
    let budget = Arc::new(Budget::new(limits));
    let compiled = compile_with_budget(src, &budget)?;
    system_f::eval_budgeted(&compiled.term, &budget).map_err(PipelineError::Eval)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_compiles_and_runs() {
        let v = run_budgeted("iadd(40, 2)", Limits::UNLIMITED).unwrap();
        assert_eq!(v, system_f::Value::Int(42));
    }

    #[test]
    fn omega_trips_fuel_not_forever() {
        let omega = "(fix f: fn(int) -> int. lam x: int. f(x))(0)";
        // Small caps: Ω deepens the Rust stack as it burns fuel, and test
        // threads have small stacks. The depth cap backstops the fuel cap.
        let err = run_budgeted(
            omega,
            Limits {
                fuel: Some(500),
                max_depth: Some(64),
                ..Limits::UNLIMITED
            },
        )
        .unwrap_err();
        let x = err.exhausted().unwrap();
        assert!(
            matches!(x.resource, Resource::Fuel | Resource::Depth),
            "{x:?}"
        );
        assert_eq!(err.phase(), "eval");
    }

    #[test]
    fn deep_nesting_trips_parser_depth() {
        let mut src = String::new();
        src.push_str(&"(".repeat(200));
        src.push('1');
        src.push_str(&")".repeat(200));
        let budget = Arc::new(Budget::new(Limits {
            max_depth: Some(64),
            ..Limits::UNLIMITED
        }));
        let err = compile_with_budget(&src, &budget).unwrap_err();
        assert_eq!(err.phase(), "parse");
        assert_eq!(err.exhausted().unwrap().resource, Resource::Depth);
    }

    #[test]
    fn exhaustion_is_latched_on_the_shared_budget() {
        let budget = Arc::new(Budget::new(Limits {
            fuel: Some(5),
            ..Limits::UNLIMITED
        }));
        let err = compile_with_budget("iadd(iadd(1, 2), iadd(3, 4))", &budget).unwrap_err();
        assert!(err.exhausted().is_some());
        assert_eq!(budget.exhausted().unwrap().resource, Resource::Fuel);
    }
}
