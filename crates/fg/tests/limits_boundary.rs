//! Table-driven exactness tests for the resource budget: each cap
//! triggers at exactly the configured limit (pass at the measured
//! consumption, trip one unit below it), exhaustion errors render through
//! `CheckError::render` like any other diagnostic, and the CLI's default
//! caps pass the entire paper corpus untouched.

// Test helpers deliberately return the full `PipelineError` so the
// assertions can inspect it; its size is irrelevant here.
#![allow(clippy::result_large_err)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg::limits::{
    compile_with_budget, run_budgeted, Budget, Limits, PipelineError, Resource,
};
use telemetry::trace::Tracer;

/// A program that exercises every governed stage: concepts with
/// refinement (dict nodes), a where-clause (congruence work), and a
/// recursive function (evaluator fuel and depth).
const PROGRAM: &str = r#"
concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
let accumulate =
  biglam t where Monoid<t>.
    fix accum: fn(list t) -> t.
      lam ls: list t.
        if null[t](ls) then Monoid<t>.identity_elt
        else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
in
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
accumulate[int](cons[int](1, cons[int](2, cons[int](3, nil[int]))))
"#;

/// Runs the whole pipeline with `limits` against a caller-owned budget.
fn run_with(limits: Limits) -> (Result<system_f::Value, PipelineError>, Arc<Budget>) {
    let budget = Arc::new(Budget::new(limits));
    let out = compile_with_budget(PROGRAM, &budget)
        .and_then(|c| system_f::eval_budgeted(&c.term, &budget).map_err(PipelineError::Eval));
    (out, budget)
}

#[test]
fn each_cap_trips_at_exactly_the_configured_limit() {
    // Measure the program's exact consumption with no caps.
    let (ok, measured) = run_with(Limits::UNLIMITED);
    let v = ok.expect("program runs clean without caps");
    assert_eq!(v, system_f::Value::Int(6));
    let fuel = measured.fuel_spent();
    let depth = measured.depth_peak();
    let cc = measured.cc_terms();
    let dict = measured.dict_nodes();
    assert!(fuel > 0 && depth > 0 && cc > 0 && dict > 0, "program must exercise every meter (fuel={fuel} depth={depth} cc={cc} dict={dict})");

    struct Case {
        name: &'static str,
        resource: Resource,
        measured: u64,
        set: fn(&mut Limits, Option<u64>),
    }
    let table = [
        Case {
            name: "fuel",
            resource: Resource::Fuel,
            measured: fuel,
            set: |l, v| l.fuel = v,
        },
        Case {
            name: "depth",
            resource: Resource::Depth,
            measured: depth,
            set: |l, v| l.max_depth = v,
        },
        Case {
            name: "cc-terms",
            resource: Resource::CcTerms,
            measured: cc,
            set: |l, v| l.max_cc_terms = v,
        },
        Case {
            name: "dict-nodes",
            resource: Resource::DictNodes,
            measured: dict,
            set: |l, v| l.max_dict_nodes = v,
        },
    ];

    for case in table {
        // Exactly the measured consumption: must pass.
        let mut limits = Limits::UNLIMITED;
        (case.set)(&mut limits, Some(case.measured));
        let (out, budget) = run_with(limits);
        assert!(
            out.is_ok(),
            "{}: limit == measured ({}) must pass, got {:?}",
            case.name,
            case.measured,
            out.unwrap_err()
        );
        assert!(budget.exhausted().is_none());

        // One unit below: must trip with exactly this resource.
        let mut limits = Limits::UNLIMITED;
        (case.set)(&mut limits, Some(case.measured - 1));
        let (out, budget) = run_with(limits);
        let err = out.expect_err(&format!(
            "{}: limit == measured-1 ({}) must trip",
            case.name,
            case.measured - 1
        ));
        let x = err
            .exhausted()
            .unwrap_or_else(|| panic!("{}: expected an exhaustion error, got {err}", case.name));
        assert_eq!(x.resource, case.resource, "{}: wrong resource", case.name);
        assert_eq!(x.limit, case.measured - 1, "{}: wrong limit", case.name);
        assert_eq!(budget.exhausted().unwrap().resource, case.resource);
    }
}

#[test]
fn zero_deadline_trips_wall_clock_and_huge_deadline_passes() {
    // The deadline is polled every 1024 fuel charges, so drive the VM on
    // divergent bytecode: it burns fuel in batches and must notice a 0 ms
    // deadline on the first poll, and never notice a huge one.
    let omega = "(fix f: fn(int) -> int. lam x: int. f(x))(0)";
    let expr = fg::parser::parse_expr(omega).unwrap();
    let compiled = fg::check_program(&expr).unwrap();
    let program = system_f::vm::compile(&compiled.term).unwrap();

    let tight = Budget::new(Limits {
        timeout_ms: Some(0),
        ..Limits::UNLIMITED
    });
    let err = system_f::vm::run_budgeted(&program, &tight).unwrap_err();
    assert!(
        matches!(
            err,
            system_f::vm::VmError::ResourceExhausted(x) if x.resource == Resource::WallClock
        ),
        "expected wall-clock trip, got {err:?}"
    );

    // A generous deadline with a fuel cap: the fuel cap must win.
    let fuelled = Budget::new(Limits {
        fuel: Some(100_000),
        timeout_ms: Some(3_600_000),
        ..Limits::UNLIMITED
    });
    let err = system_f::vm::run_budgeted(&program, &fuelled).unwrap_err();
    assert!(
        matches!(
            err,
            system_f::vm::VmError::ResourceExhausted(x) if x.resource == Resource::Fuel
        ),
        "expected fuel trip, got {err:?}"
    );
}

#[test]
fn exhaustion_errors_render_with_position_and_excerpt() {
    let budget = Arc::new(Budget::new(Limits {
        fuel: Some(3),
        ..Limits::UNLIMITED
    }));
    let err = compile_with_budget("iadd(40, 2)", &budget).unwrap_err();
    let PipelineError::Check(check_err) = err else {
        panic!("expected a check-phase error, got {err}");
    };
    let rendered = check_err.render("iadd(40, 2)");
    assert!(
        rendered.contains("error: fuel budget of 3 exhausted during check"),
        "unexpected render:\n{rendered}"
    );
    assert!(
        rendered.contains('^'),
        "expected a caret excerpt:\n{rendered}"
    );
}

#[test]
fn default_caps_pass_the_entire_paper_corpus() {
    for p in fg::corpus::ALL {
        let v = run_budgeted(p.source, Limits::DEFAULT_CAPS)
            .unwrap_or_else(|e| panic!("{} must pass under default caps: {e}", p.id));
        assert!(
            p.expected.matches(&v),
            "{}: wrong value {v} under default caps",
            p.id
        );
    }
}

/// One execution lane under a fresh budget with the CLI's default caps,
/// checking and running on the same budget as the CLI does. The error is
/// rendered, since values are not `Send`.
fn run_lane(lane: &str, src: &str) -> Result<String, String> {
    if lane == "run" {
        return run_budgeted(src, Limits::DEFAULT_CAPS)
            .map(|v| v.to_string())
            .map_err(|e| e.to_string());
    }
    let budget = Arc::new(Budget::new(Limits::DEFAULT_CAPS));
    let compiled = compile_with_budget(src, &budget).map_err(|e| e.to_string())?;
    if lane == "vm" {
        let program = system_f::vm::compile(&compiled.term).map_err(|e| e.to_string())?;
        system_f::vm::run_budgeted(&program, &budget)
            .map(|v| v.to_string())
            .map_err(|e| e.to_string())
    } else {
        fg::interp::run_direct_budgeted(&compiled.elaborated, Tracer::disabled(), budget)
            .map(|(v, _)| v.to_string())
            .map_err(|e| e.to_string())
    }
}

#[test]
fn adversarial_corpus_dies_structured_under_default_caps() {
    // The committed adversarial examples must each produce a structured
    // pipeline error (not a panic, not success) under the CLI defaults,
    // in every execution lane, within a wall bound with ample room (the
    // slowest takes about 1 s unoptimized on a 2-vCPU host).
    let wall = Duration::from_secs(if cfg!(debug_assertions) { 6 } else { 2 });
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/adversarial");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/adversarial exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "fg") {
            continue;
        }
        seen += 1;
        for lane in ["run", "vm", "direct"] {
            let src = std::fs::read_to_string(&path).unwrap();
            let display = format!("{lane} {}", path.display());
            // The default depth cap (4096) is deeper than a test thread's
            // stack allows in debug builds; run on a big-stack worker like
            // the CLI does, so the *budget* is what stops the program.
            let started = Instant::now();
            let outcome = std::thread::Builder::new()
                .stack_size(256 * 1024 * 1024)
                .spawn(move || run_lane(lane, &src))
                .unwrap()
                .join()
                .unwrap_or_else(|_| panic!("{display} PANICKED"));
            let took = started.elapsed();
            // Every adversarial failure is a phase-tagged diagnostic with
            // a non-empty rendering.
            let err = outcome.expect_err(&format!("{display} must be rejected"));
            assert!(!err.is_empty());
            assert!(took < wall, "{display}: took {took:?}");
        }
    }
    assert!(seen >= 4, "expected at least 4 adversarial examples, saw {seen}");
}

/// Checks `src` on a big-stack pool worker, as the CLI does, against a
/// fresh budget enforcing `limits`. Returns the rendered error (if any),
/// the checker's counters (kept on failure too) and the budget.
fn check_counted(src: &str, limits: Limits) -> (Result<(), String>, fg::CheckStats, Arc<Budget>) {
    let src = src.to_owned();
    let budget = Arc::new(Budget::new(limits));
    let shared = budget.clone();
    let pool = fg::pool::WorkerPool::new(1).expect("spawn worker");
    let (outcome, stats) = pool
        .run_one(move || {
            let expr = fg::parser::parse_expr(&src).expect("parses");
            let (checked, stats) = fg::Checker::new().check_body(&expr, Tracer::disabled(), shared);
            (checked.map(drop).map_err(|e| e.render(&src)), stats)
        })
        .expect("no panic");
    (outcome, stats, budget)
}

#[test]
fn refinement_diamond_shares_its_plan_and_is_charged_as_a_tree() {
    // The plan of `C20<t>` unfolds to 2^21 - 1 nodes; the dict-node cap
    // still counts that tree and trips at `limit + 1`, with the same
    // diagnostic, but only the 21 distinct nodes are built.
    let src = include_str!("../../../examples/adversarial/refinement_diamond.fg");
    let started = Instant::now();
    let (outcome, stats, budget) = check_counted(src, Limits::DEFAULT_CAPS);
    let took = started.elapsed();
    assert_eq!(
        outcome.unwrap_err(),
        "26:2: error: dict-nodes budget of 250000 exhausted during check; \
         raise the limit or simplify the program\n  \
         |   (biglam t where C20<t>. 0)[int]\n  \
         |    ^^^^^^"
    );
    assert_eq!(budget.dict_nodes(), 250_001);
    assert_eq!(budget.fuel_spent(), 64);
    assert!(stats.plan_nodes_built <= 64, "{stats:?}");
    assert_eq!(stats.plan_nodes_built, 21);
    assert!(took < Duration::from_secs(2), "took {took:?}");
}

#[test]
fn distinct_closure_lattice_trips_the_dict_node_cap_as_it_builds() {
    // `C_i<t>` refines `C_{i-1}<list t>` and `C_{i-1}<fn(t) -> int>`: no
    // two nodes of the closure are equal, so sharing saves nothing and
    // the plan has 2^25 - 1 distinct nodes. Each fresh node is charged
    // as it is built, so the walk stops at the cap instead of building
    // the closure first.
    let mut src = String::from("concept C0<t> { base : t; } in\n");
    for i in 1..=24 {
        let p = i - 1;
        src.push_str(&format!(
            "concept C{i}<t> {{ refines C{p}<list t>; refines C{p}<fn(t) -> int>; }} in\n"
        ));
    }
    src.push_str("(biglam t where C24<t>. 0)[int]\n");
    let limit = 10_000;
    let started = Instant::now();
    let (outcome, stats, budget) = check_counted(
        &src,
        Limits {
            max_dict_nodes: Some(limit),
            ..Limits::DEFAULT_CAPS
        },
    );
    let took = started.elapsed();
    let err = outcome.unwrap_err();
    assert!(err.contains("dict-nodes budget of 10000 exhausted"), "{err}");
    assert_eq!(budget.dict_nodes(), limit + 1);
    assert!(stats.plan_nodes_built <= limit + 1, "{stats:?}");
    let wall = Duration::from_secs(if cfg!(debug_assertions) { 6 } else { 2 });
    assert!(took < wall, "took {took:?}");
}
