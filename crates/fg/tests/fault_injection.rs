//! Deterministic fault injection across the pipeline: every instrumented
//! point can be made to fail (structured error) or panic, the failure
//! surfaces as a clean diagnostic, and — crucially — nothing is poisoned:
//! the very next run of the same program, without the plan, succeeds.

// Test helpers deliberately return the full `PipelineError` so the
// assertions can inspect it; its size is irrelevant here.
#![allow(clippy::result_large_err)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use std::sync::Arc;

use fg::limits::{
    compile_with_budget, run_budgeted, Budget, FaultPlan, Limits, PipelineError, Resource,
};
use telemetry::fault::with_plan;

const PROGRAM: &str = r#"
concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
model Semigroup<int> { binary_op = iadd; } in
Semigroup<int>.binary_op(20, 22)
"#;

fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).unwrap()
}

/// Runs the translated lane end to end.
fn run() -> Result<system_f::Value, fg::limits::PipelineError> {
    run_budgeted(PROGRAM, Limits::UNLIMITED)
}

/// [`run`] against a caller-owned budget, so tests can inspect the latch.
fn run_on(budget: &Arc<Budget>) -> Result<system_f::Value, PipelineError> {
    compile_with_budget(PROGRAM, budget)
        .and_then(|c| system_f::eval_budgeted(&c.term, budget).map_err(PipelineError::Eval))
}

#[test]
fn error_faults_surface_as_structured_diagnostics_at_every_point() {
    for point in ["parse", "check.expr", "sf.eval"] {
        let budget = Arc::new(Budget::unlimited());
        let err = with_plan(plan(point), || run_on(&budget)).expect_err(point);
        // The error is structured and phase-tagged...
        assert!(
            err.exhausted().is_some(),
            "{point}: expected an exhaustion error, got {err}"
        );
        // ...and the budget latch records the injection itself.
        assert_eq!(
            budget.exhausted().unwrap().resource,
            Resource::Injected,
            "{point}"
        );
        // Clean state: the same program immediately succeeds.
        let v = run().unwrap_or_else(|e| panic!("{point} poisoned state: {e}"));
        assert_eq!(v, system_f::Value::Int(42), "{point}");
    }
}

#[test]
fn where_enter_fault_fires_on_constrained_generics() {
    // `check.where_enter` guards where-clause entry, so it needs a
    // constrained `biglam` to fire.
    let src = r#"
concept C<t> { f : fn(t) -> t; } in
model C<int> { f = lam x: int. x; } in
(biglam t where C<t>. C<t>.f)[int](7)
"#;
    let budget = Arc::new(Budget::unlimited());
    let err = with_plan(plan("check.where_enter"), || {
        compile_with_budget(src, &budget)
    })
    .expect_err("where_enter fault must fire");
    assert!(err.exhausted().is_some(), "got {err}");
    assert_eq!(budget.exhausted().unwrap().resource, Resource::Injected);
    assert!(run_budgeted(src, Limits::UNLIMITED).is_ok());
}

#[test]
fn resolve_model_fault_surfaces_as_an_injected_fault() {
    // `check.resolve_model` trips the budget and reports a miss; the
    // checker polls the budget on a miss, so the diagnostic names the
    // injected fault, not a missing model.
    let budget = Arc::new(Budget::unlimited());
    let err = with_plan(plan("check.resolve_model"), || run_on(&budget)).unwrap_err();
    assert!(
        err.exhausted().is_some(),
        "expected an exhaustion error, got: {err}"
    );
    assert!(
        err.to_string().contains("injected fault"),
        "expected the injected fault to be named, got: {err}"
    );
    assert_eq!(budget.exhausted().unwrap().resource, Resource::Injected);
    assert_eq!(run().unwrap(), system_f::Value::Int(42));
}

#[test]
fn interp_and_vm_points_fire_on_their_lanes() {
    let expr = fg::parser::parse_expr(PROGRAM).unwrap();
    let compiled = fg::check_program(&expr).unwrap();

    let err = with_plan(plan("interp.eval"), || {
        fg::interp::run_direct_budgeted(
            &compiled.elaborated,
            telemetry::trace::Tracer::disabled(),
            std::sync::Arc::default(),
        )
    })
    .unwrap_err();
    assert!(matches!(
        err,
        fg::interp::RuntimeError::ResourceExhausted(x) if x.resource == Resource::Injected
    ));

    let program = system_f::vm::compile(&compiled.term).unwrap();
    let budget = telemetry::limits::Budget::unlimited();
    let err = with_plan(plan("vm.run"), || {
        system_f::vm::run_budgeted(&program, &budget)
    })
    .unwrap_err();
    assert!(matches!(
        err,
        system_f::vm::VmError::ResourceExhausted(x) if x.resource == Resource::Injected
    ));
    // Both lanes run clean afterwards.
    assert!(fg::interp::run_direct(&compiled.elaborated).is_ok());
    assert!(system_f::vm::run_budgeted(&program, &Budget::unlimited()).is_ok());
}

#[test]
fn panic_faults_unwind_cleanly_and_disarm_on_unwind() {
    // A panic-mode fault blows through `catch_unwind`; the scoped plan's
    // drop guard must disarm it even on the unwind path, so the rerun
    // succeeds without any plan leaking.
    let outcome = catch_unwind(AssertUnwindSafe(|| with_plan(plan("check.expr:panic"), run)));
    assert!(outcome.is_err(), "expected the injected panic to propagate");
    let v = run().expect("state must not be poisoned after an injected panic");
    assert_eq!(v, system_f::Value::Int(42));
}

#[test]
fn arm_counts_select_the_nth_visit() {
    // The first two expression nodes check clean; the third trips. With a
    // high arm the plan never fires at all.
    let err = with_plan(plan("check.expr@3"), run).expect_err("arm 3 must fire");
    assert_eq!(err.exhausted().unwrap().resource, Resource::Injected);
    assert!(with_plan(plan("check.expr@100000"), run).is_ok());
}

#[test]
fn plans_are_thread_scoped() {
    // A plan armed on this thread must not affect a sibling thread.
    with_plan(plan("check.expr"), || {
        let sibling = std::thread::spawn(|| run().map(|v| v.to_string()));
        assert_eq!(sibling.join().unwrap().unwrap(), "42");
        assert!(run().is_err(), "the scoped plan still fires locally");
    });
}
