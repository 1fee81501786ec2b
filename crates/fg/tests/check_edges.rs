//! Edge cases and error-path coverage for the F_G checker: duplicate
//! detection, scoping corners, equality-driven elimination forms, and
//! diagnostic rendering.

use fg::limits::Budget;
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

// ---------------------------------------------------------------- duplicates

#[test]
fn duplicate_biglam_binders_rejected() {
    let err = check_err("biglam t, t. lam x: t. x");
    assert!(matches!(err.kind, ErrorKind::DuplicateBinder(_)), "{err}");
}

#[test]
fn duplicate_lam_params_rejected() {
    let err = check_err("lam x: int, x: bool. x");
    assert!(matches!(err.kind, ErrorKind::DuplicateBinder(_)), "{err}");
}

#[test]
fn duplicate_concept_params_rejected() {
    let err = check_err("concept C<t, t> { op : t; } in 1");
    assert!(matches!(err.kind, ErrorKind::DuplicateBinder(_)), "{err}");
}

#[test]
fn duplicate_concept_members_rejected() {
    let err = check_err("concept C<t> { op : t; op : fn(t) -> t; } in 1");
    assert!(
        matches!(err.kind, ErrorKind::DuplicateConceptItem(_)),
        "{err}"
    );
}

#[test]
fn assoc_type_colliding_with_param_rejected() {
    let err = check_err("concept C<t> { types t; } in 1");
    assert!(
        matches!(err.kind, ErrorKind::DuplicateConceptItem(_)),
        "{err}"
    );
}

#[test]
fn duplicate_model_member_rejected() {
    let err = check_err(
        "concept C<t> { op : t; } in
         model C<int> { op = 1; op = 2; } in 1",
    );
    assert!(matches!(err.kind, ErrorKind::DuplicateModelItem(_)), "{err}");
}

#[test]
fn duplicate_assoc_assignment_rejected() {
    let err = check_err(
        "concept C<t> { types a; } in
         model C<int> { types a = int; types a = bool; } in 1",
    );
    assert!(matches!(err.kind, ErrorKind::DuplicateModelItem(_)), "{err}");
}

#[test]
fn duplicate_parameterized_model_params_rejected() {
    let err = check_err(
        "concept C<t> { op : t; } in
         model forall w, w. C<list w> { op = nil[w]; } in 1",
    );
    assert!(matches!(err.kind, ErrorKind::DuplicateBinder(_)), "{err}");
}

// ---------------------------------------------------------------- scoping

#[test]
fn biglam_shadowing_outer_type_variable() {
    let src = "
        let outer = biglam t. lam x: t.
            (biglam t. lam y: t. y)[bool](true)
        in outer[int](1)";
    assert_eq!(run_ok(src), Value::Bool(true));
}

#[test]
fn alias_shadowed_by_biglam_binder() {
    // Inside the biglam, `t` is the binder, not the alias.
    let src = "
        type t = bool in
        (biglam t. lam x: t. x)[int](7)";
    assert_eq!(run_ok(src), Value::Int(7));
}

#[test]
fn alias_to_alias_chain() {
    let src = "
        type a = int in
        type b = a in
        type c = fn(b) -> b in
        (lam f: c. f(20))(lam x: a. imult(x, 2))";
    assert_eq!(run_ok(src), Value::Int(40));
}

#[test]
fn concept_visible_only_in_its_body() {
    let err = check_err("let x = concept C<t> { op : t; } in 1 in model C<int> { op = 1; } in x");
    assert!(matches!(err.kind, ErrorKind::UnknownConcept(_)), "{err}");
}

#[test]
fn model_visible_only_in_its_body() {
    let err = check_err(
        "concept C<t> { op : t; } in
         let x = model C<int> { op = 1; } in C<int>.op in
         C<int>.op",
    );
    assert!(matches!(err.kind, ErrorKind::NoModel { .. }), "{err}");
}

#[test]
fn member_access_inside_nested_scopes() {
    let src = "
        concept C<t> { op : t; } in
        model C<int> { op = 5; } in
        let f = lam x: int. iadd(x, C<int>.op) in
        model C<int> { op = 100; } in
        iadd(f(0), C<int>.op)";
    // f captured the outer model's dictionary; the access after the inner
    // model sees the newer one.
    assert_eq!(run_ok(src), Value::Int(105));
}

// ------------------------------------------- equality-driven elimination

#[test]
fn application_through_type_alias_function() {
    let src = "
        type binop = fn(int, int) -> int in
        (lam f: binop. f(6, 7))(imult)";
    assert_eq!(run_ok(src), Value::Int(42));
}

#[test]
fn application_through_same_type_constraint() {
    // Inside the biglam, x : t where t == fn(int) -> int, so x is callable.
    let src = "
        let call = biglam t where t == fn(int) -> int. lam x: t. x(21)
        in call[fn(int) -> int](lam n: int. iadd(n, n))";
    assert_eq!(run_ok(src), Value::Int(42));
}

#[test]
fn condition_through_same_type_constraint() {
    let src = "
        let pick = biglam t where t == bool. lam c: t, a: int, b: int.
            if c then a else b
        in pick[bool](true, 1, 2)";
    assert_eq!(run_ok(src), Value::Int(1));
}

#[test]
fn same_type_constraint_not_satisfied_at_instantiation() {
    let src = "
        let call = biglam t where t == fn(int) -> int. lam x: t. x(21)
        in call[int](5)";
    let err = check_err(src);
    assert!(
        matches!(err.kind, ErrorKind::SameTypeViolation(..)),
        "{err}"
    );
}

// ---------------------------------------------------------------- members

#[test]
fn own_member_shadows_refined_member_with_same_name() {
    // Both concepts declare `v`; access through D must find D's own.
    let src = "
        concept B<t> { v : t; } in
        concept D<t> { refines B<t>; v : t; } in
        model B<int> { v = 1; } in
        model D<int> { v = 2; } in
        iadd(D<int>.v, B<int>.v)";
    assert_eq!(run_ok(src), Value::Int(3));
}

#[test]
fn deep_refinement_member_paths() {
    // Four levels; access the root member through the deepest concept.
    let src = "
        concept C0<t> { m0 : t; } in
        concept C1<t> { refines C0<t>; } in
        concept C2<t> { refines C1<t>; } in
        concept C3<t> { refines C2<t>; } in
        model C0<int> { m0 = 42; } in
        model C1<int> { } in
        model C2<int> { } in
        model C3<int> { } in
        C3<int>.m0";
    assert_eq!(run_ok(src), Value::Int(42));
    // The translation projects through three dictionary layers.
    let compiled = compile(src).unwrap();
    assert!(
        compiled.term.to_string().contains(".0.0.0.0"),
        "{}",
        compiled.term
    );
}

#[test]
fn requires_members_are_not_inherited() {
    // `require` brings the model into scope but does not re-export members.
    let src = "
        concept A<t> { av : t; } in
        concept B<t> { require A<t>; } in
        model A<int> { av = 1; } in
        model B<int> { } in
        B<int>.av";
    let err = check_err(src);
    assert!(matches!(err.kind, ErrorKind::UnknownMember { .. }), "{err}");
}

#[test]
fn required_models_are_in_scope_for_generic_bodies() {
    let src = "
        concept A<t> { av : t; } in
        concept B<t> { require A<t>; } in
        let f = biglam t where B<t>. A<t>.av in
        model A<int> { av = 9; } in
        model B<int> { } in
        f[int]";
    assert_eq!(run_ok(src), Value::Int(9));
}

// ---------------------------------------------------------------- rendering

#[test]
fn errors_render_with_line_and_column() {
    let src = "let x = 1 in\nghost";
    let expr = parse_expr(src).unwrap();
    let err = check_program(&expr).unwrap_err();
    let rendered = err.render(src);
    assert!(
        rendered.starts_with("2:1: error: unbound variable `ghost`"),
        "{rendered}"
    );
}

#[test]
fn every_error_kind_displays_nonempty() {
    // Exercise Display for a sampling of structured error kinds.
    let samples = [
        check_err("ghost").to_string(),
        check_err("lam x: ghost. x").to_string(),
        check_err("Ghost<int>.op").to_string(),
        check_err("1(2)").to_string(),
        check_err("1[int]").to_string(),
        check_err("if 1 then 2 else 3").to_string(),
        check_err("if true then 2 else false").to_string(),
        check_err("fix f: int. true").to_string(),
        check_err("(biglam t. lam x: int. x)(5)").to_string(),
    ];
    for s in samples {
        assert!(!s.is_empty());
        assert!(s.is_ascii() || !s.is_empty());
    }
}

// ---------------------------------------------------------------- stress

#[test]
fn many_nested_generic_instantiations() {
    // Deeply composed generic calls with dictionaries at every level.
    let src = "
        concept S<t> { op : fn(t, t) -> t; } in
        model S<int> { op = iadd; } in
        let dbl = biglam t where S<t>. lam x: t. S<t>.op(x, x) in
        dbl[int](dbl[int](dbl[int](dbl[int](dbl[int](1)))))";
    assert_eq!(run_ok(src), Value::Int(32));
}

#[test]
fn wide_concept_with_many_members() {
    let mut concept = String::from("concept Wide<t> { ");
    let mut model = String::from("model Wide<int> { ");
    let mut body = String::from("0");
    for i in 0..24 {
        concept.push_str(&format!("m{i} : t; "));
        model.push_str(&format!("m{i} = {i}; "));
        body = format!("iadd({body}, Wide<int>.m{i})");
    }
    concept.push_str("} in ");
    model.push_str("} in ");
    let src = format!("{concept}{model}{body}");
    assert_eq!(run_ok(&src), Value::Int((0..24).sum()));
}

#[test]
fn vm_runs_the_stress_programs() {
    let src = "
        concept S<t> { op : fn(t, t) -> t; } in
        model S<int> { op = imult; } in
        let pow = biglam t where S<t>.
          fix go: fn(t, int) -> t.
            lam x: t, n: int.
              if ile(n, 1) then x
              else S<t>.op(x, go(x, isub(n, 1)))
        in pow[int](2, 16)";
    let compiled = compile(src).unwrap();
    let program = system_f::vm::compile(&compiled.term).unwrap();
    let v = system_f::vm::run_budgeted(&program, &Budget::unlimited()).unwrap();
    assert!(v.agrees_with(&system_f::Value::Int(65536)));
}

// ------------------------------------------------- structured error paths
//
// The checker has no panicking paths left: deep programs (checked on a
// dedicated thread), parameterized-model matching, and where-clause
// proxies all report structured `CheckError`s.

/// A program nested deeper than the inline-checking threshold (40), so
/// `check_program` routes it through the big-stack checker thread.
fn deep_program(leaf: &str) -> String {
    let mut src = String::new();
    for i in 0..60 {
        src.push_str(&format!("let x{i} = {i} in "));
    }
    src.push_str(leaf);
    src
}

#[test]
fn deep_ill_typed_program_reports_structured_error_across_thread() {
    // The type error must cross the checker-thread boundary as a value,
    // not as a panic (`check_program` used to `.expect()` the join).
    let expr = parse_expr(&deep_program("missing_var")).expect("parse failed");
    #[allow(clippy::result_large_err)]
    let result = std::panic::catch_unwind(|| check_program(&expr))
        .expect("check_program panicked instead of returning an error");
    let err = result.expect_err("expected a type error");
    assert!(matches!(err.kind, ErrorKind::UnboundVar(_)), "{err}");
}

#[test]
fn deep_well_typed_program_checks_on_the_big_stack_thread() {
    let v = run_ok(&deep_program("iadd(x0, x59)"));
    assert_eq!(v, Value::Int(59));
}

#[test]
fn model_param_absent_from_head_is_rejected_at_declaration() {
    // `w` cannot be determined by matching the head `C<int>` at any use
    // site; resolution used to skip the entry silently (and an unbound
    // parameter would have been an index panic in the dictionary
    // instantiation). Now the declaration itself is rejected.
    let err = check_err(
        "concept C<t> { op : fn(t) -> t; } in
         model forall w. C<int> { op = lam x: int. x; } in
         C<int>.op(1)",
    );
    assert!(
        matches!(err.kind, ErrorKind::UnusedModelParam { .. }),
        "{err}"
    );
    assert!(err.to_string().contains('w'), "{err}");
}

#[test]
fn proxy_with_unknown_assoc_projection_is_structured() {
    // Where-clause proxies register one projection per *declared*
    // associated type (the site formerly indexed a substitution map);
    // projecting an undeclared one is an ordinary type error.
    let err = check_err(
        "concept Container<c> { types elt; first : fn(c) -> Container<c>.elt; } in
         biglam c where Container<c>. lam xs: Container<c>.nope. xs",
    );
    assert!(
        matches!(err.kind, ErrorKind::UnknownAssocType { .. }),
        "{err}"
    );
}
