//! End-to-end tests of the `fg` binary.

use std::io::Write;
use std::process::{Command, Stdio};

const FIG5: &str = "
    concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = biglam t where Monoid<t>.
        fix accum: fn(list t) -> t.
          lam ls: list t.
            if null[t](ls) then Monoid<t>.identity_elt
            else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
    in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int](cons[int](1, cons[int](2, nil[int])))
";

fn run_fg(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fg"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fg");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn run_subcommand_evaluates() {
    let (stdout, stderr, ok) = run_fg(&["run", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "3");
}

#[test]
fn direct_subcommand_evaluates() {
    let (stdout, _, ok) = run_fg(&["direct", "-"], FIG5);
    assert!(ok);
    assert_eq!(stdout.trim(), "3");
}

#[test]
fn check_subcommand_prints_the_type() {
    let (stdout, _, ok) = run_fg(&["check", "-"], FIG5);
    assert!(ok);
    assert_eq!(stdout.trim(), "int");
    let (stdout, _, ok) = run_fg(
        &["check", "-"],
        "biglam t. lam x: t, y: int. x",
    );
    assert!(ok);
    assert_eq!(stdout.trim(), "forall t. fn(t, int) -> t");
}

#[test]
fn translate_subcommand_prints_system_f() {
    let (stdout, _, ok) = run_fg(&["translate", "-"], FIG5);
    assert!(ok);
    assert!(stdout.contains("biglam t. lam Monoid_"), "{stdout}");
    // The output must itself be valid System F of the right type.
    let term = system_f::parse_term(&stdout).expect("translation parses");
    assert_eq!(system_f::typecheck(&term), Ok(system_f::Ty::Int));
    assert_eq!(system_f::eval(&term).unwrap(), system_f::Value::Int(3));
}

#[test]
fn vm_subcommand_evaluates() {
    let (stdout, stderr, ok) = run_fg(&["vm", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "3");
}

#[test]
fn repl_smoke() {
    let (stdout, _, ok) = run_fg(
        &["repl"],
        "let x = 40
iadd(x, 2)
:type x
:quit
",
    );
    assert!(ok);
    assert!(stdout.contains("defined (let)"), "{stdout}");
    assert!(stdout.contains("42 : int"), "{stdout}");
    assert!(stdout.contains("int"), "{stdout}");
}

#[test]
fn fmt_subcommand_reformats() {
    let (stdout, _, ok) = run_fg(&["fmt", "-"], FIG5);
    assert!(ok);
    assert!(stdout.contains("concept Semigroup<t> {\n"), "{stdout}");
    // The formatted output still runs.
    let (out2, _, ok2) = run_fg(&["run", "-"], &stdout);
    assert!(ok2);
    assert_eq!(out2.trim(), "3");
}

#[test]
fn bytecode_subcommand_disassembles() {
    let (stdout, _, ok) = run_fg(&["bytecode", "-"], FIG5);
    assert!(ok);
    assert!(stdout.contains("fn f0"), "{stdout}");
    assert!(stdout.contains("closure"), "{stdout}");
}

#[test]
fn prelude_flag_provides_the_stdlib() {
    let (stdout, stderr, ok) = run_fg(
        &["--prelude", "run", "-"],
        "accumulate[int](range(1, 101))",
    );
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "5050");
}

#[test]
fn type_errors_are_reported_with_position() {
    let (_, stderr, ok) = run_fg(
        &["check", "-"],
        "concept A<t> { op : t; } in\nA<int>.op",
    );
    assert!(!ok);
    assert!(
        stderr.contains("no model for `A<int>`"),
        "unhelpful error: {stderr}"
    );
    // Line:column rendering from CheckError::render.
    assert!(stderr.contains("2:"), "missing position: {stderr}");
}

#[test]
fn parse_errors_fail_cleanly() {
    let (_, stderr, ok) = run_fg(&["run", "-"], "lam x int. x");
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn usage_on_bad_invocation() {
    let (_, stderr, ok) = run_fg(&["frobnicate", "-"], "");
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// Every key the `fg-metrics/1` schema promises for a `vm` invocation.
/// Downstream tooling (benches, EXPERIMENTS.md scripts) parses these
/// names, so renaming or dropping one is a breaking change — update the
/// schema version in the `telemetry` crate if this test has to change.
#[test]
fn metrics_json_schema_is_stable() {
    let (stdout, stderr, ok) = run_fg(&["vm", "--metrics-json", "-", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    // The value line comes first, then the JSON document.
    let (value, json) = stdout.split_once('\n').expect("value line + json");
    assert_eq!(value.trim(), "3");
    assert!(json.trim_start().starts_with('{'), "not a json object: {json}");
    assert!(json.trim_end().ends_with('}'), "unterminated json: {json}");
    for key in [
        "\"schema\": \"fg-metrics/1\"",
        "\"command\": \"vm\"",
        "\"source\": \"-\"",
        "\"phases_ns\"",
        "\"counters\"",
    ] {
        assert!(json.contains(key), "missing {key} in: {json}");
    }
    for phase in ["parse", "check_translate", "vm_compile", "vm_run"] {
        assert!(json.contains(&format!("\"{phase}\": ")), "missing phase {phase}: {json}");
    }
    for group in ["\"check\": {", "\"congruence\": {", "\"vm_dispatch\": {", "\"limits\": {"] {
        assert!(json.contains(group), "missing group {group}: {json}");
    }
    for counter in [
        // check group
        "model_lookups", "model_hits", "model_misses", "candidates_scanned",
        "plan_nodes_built", "max_scope_depth", "dicts_built", "dict_instantiations",
        // congruence group
        "eq_queries", "assertions", "resolves", "merges", "unions", "finds",
        "terms", "term_bank_peak",
        // vm_dispatch group: the instruction total, every opcode, gauges
        "instructions", "max_frame_depth", "max_stack_depth",
        // limits group: resource-budget consumption gauges
        "fuel_spent", "depth_peak", "cc_terms", "dict_nodes", "elapsed_ms",
    ] {
        assert!(json.contains(&format!("\"{counter}\": ")), "missing counter {counter}");
    }
    for opcode in system_f::vm::OPCODE_NAMES {
        assert!(json.contains(&format!("\"{opcode}\": ")), "missing opcode {opcode}");
    }
}

/// Dictionary plans are shared within a where clause, but the budget
/// and the fuel still count the paper's nested-tuple trees: a 12-layer,
/// width-2 refinement diamond reads the same `dict_nodes` and
/// `fuel_spent` as when every sub-plan was copied, while the checker
/// builds each distinct sub-plan once.
#[test]
fn metrics_json_counts_shared_dictionary_plans_as_trees() {
    let (stdout, stderr, code) = run_fg_code(
        &["--metrics-json", "-", "check", "-"],
        &bench::diamond_program(12, 2),
    );
    assert_eq!(code, 0, "{stderr}");
    let (ty, json) = stdout.split_once('\n').expect("type line + json");
    assert_eq!(ty, "Base<int>.a");
    let doc = telemetry::json::Json::parse(json).unwrap();
    let counter = |group: &str, key: &str| {
        doc.get("counters")
            .and_then(|c| c.get(group))
            .and_then(|g| g.get(key))
            .and_then(telemetry::json::Json::as_i64)
            .unwrap_or_else(|| panic!("no {group}.{key} in {json}"))
    };
    assert_eq!(counter("limits", "dict_nodes"), 6_142);
    assert_eq!(counter("limits", "fuel_spent"), 6_328);
    // The distinct closure of `L11W1<t>` is itself, the two concepts of
    // each of the ten layers below it, and `Base`: 22 nodes, planned once
    // for the abstraction's where clause and once for `f[int]`.
    assert_eq!(counter("check", "plan_nodes_built"), 2 * 22);
}

#[test]
fn metrics_json_writes_to_a_file() {
    let path = format!(
        "{}/metrics-{}.json",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let (stdout, stderr, ok) = run_fg(&["direct", "--metrics-json", &path, "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "3");
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"schema\": \"fg-metrics/1\""), "{json}");
    assert!(json.contains("\"command\": \"direct\""), "{json}");
    // The direct lane reports its runtime counters.
    assert!(json.contains("\"direct_eval\": {"), "{json}");
    assert!(json.contains("\"eval_steps\": "), "{json}");
}

/// The `fg-trace/1` JSONL contract: a header object naming the schema,
/// command, and source, followed by one event object per line, each with
/// the `ev`/`span`/`name`/`ts_ns` keys and balanced begin/end pairs.
#[test]
fn trace_flag_writes_fg_trace_jsonl() {
    let path = format!(
        "{}/trace-{}.jsonl",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let (stdout, stderr, ok) = run_fg(&["check", "--trace", &path, "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "int", "tracing must not pollute stdout");
    let jsonl = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let mut lines = jsonl.lines();
    let header = lines.next().expect("header line");
    for key in [
        "\"schema\":\"fg-trace/1\"",
        "\"command\":\"check\"",
        "\"source\":\"-\"",
        "\"events\":",
        "\"dropped\":0",
    ] {
        assert!(header.contains(key), "missing {key} in header: {header}");
    }
    let (mut begins, mut ends, mut total) = (0, 0, 0);
    for line in lines {
        total += 1;
        assert!(
            line.starts_with("{\"ev\":\"") && line.ends_with('}'),
            "not an event object: {line}"
        );
        for key in ["\"span\":", "\"name\":", "\"ts_ns\":"] {
            assert!(line.contains(key), "missing {key} in event: {line}");
        }
        if line.starts_with("{\"ev\":\"begin\"") {
            begins += 1;
        } else if line.starts_with("{\"ev\":\"end\"") {
            ends += 1;
        }
    }
    assert!(header.contains(&format!("\"events\":{total}")), "{header}");
    assert_eq!(begins, ends, "unbalanced spans in:\n{jsonl}");
    // The check lane traced actual resolution work, not just the phases.
    assert!(jsonl.contains("\"name\":\"model_resolve\""), "{jsonl}");
    assert!(jsonl.contains("\"name\":\"model_selected\""), "{jsonl}");
}

#[test]
fn trace_chrome_flag_writes_trace_event_json() {
    let (stdout, stderr, ok) = run_fg(&["run", "--trace-chrome", "-", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    // The value line comes first, then the Chrome trace JSON document.
    let (value, json) = stdout.split_once('\n').expect("value line + json");
    assert_eq!(value.trim(), "3");
    assert!(json.trim_start().starts_with('{'), "not a json object: {json}");
    assert!(json.contains("\"displayTimeUnit\":\"ns\""), "{json}");
    assert!(json.contains("\"traceEvents\":["), "{json}");
    for needle in ["\"ph\":\"B\"", "\"ph\":\"E\"", "\"name\":\"parse\""] {
        assert!(json.contains(needle), "missing {needle} in: {json}");
    }
}

/// The headline acceptance scenario: on the Fig. 6 overlapping-models
/// program, `fg explain` must name, for each of the two call sites, the
/// distinct lexically scoped model that was selected.
#[test]
fn explain_subcommand_names_both_scoped_models_on_fig6() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig6_overlapping.fg"
    );
    let (stdout, stderr, ok) = run_fg(&["explain", path], "");
    assert!(ok, "stderr: {stderr}");
    for needle in [
        // First arm: the call at 16:3 selects the model declared at 15:3.
        "instantiation <int> at 16:3",
        "selected #1: model Monoid<int> declared at 15:3",
        // Second arm: the call at 21:3 selects the model declared at 20:3.
        "instantiation <int> at 21:3",
        "selected #1: model Monoid<int> declared at 20:3",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    // The decision trees show the resolution sites and scope depths.
    assert!(
        stdout.contains("resolve Monoid<int> (site instantiate, 2 models in scope) -> hit"),
        "{stdout}"
    );
}

#[test]
fn profile_flag_prints_a_table_to_stderr() {
    let (stdout, stderr, ok) = run_fg(&["check", "--profile", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "int", "profiling must not pollute stdout");
    for needle in ["parse", "check_translate", "model_lookups", "dicts_built", "finds"] {
        assert!(stderr.contains(needle), "missing {needle} in table:\n{stderr}");
    }
}

/// Like [`run_fg`] but reports the raw exit code, for the crash-vs-
/// diagnostic contract (0 ok, 1 diagnostic, 2 usage, 3 caught crash).
fn run_fg_code(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fg"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fg");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Budget exhaustion is a *diagnostic* (exit 1), lands in the `limits`
/// metrics group, and emits the `budget_exhausted` trace instant in the
/// fg-trace/1 vocabulary.
#[test]
fn budget_exhaustion_emits_trace_instant_and_limits_counters() {
    let trace = format!(
        "{}/trace-exhaust-{}.jsonl",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let metrics = format!(
        "{}/metrics-exhaust-{}.json",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let (_, stderr, code) = run_fg_code(
        &["check", "--fuel", "5", "--trace", &trace, "--metrics-json", &metrics, "-"],
        FIG5,
    );
    assert_eq!(code, 1, "exhaustion must be a diagnostic exit: {stderr}");
    assert!(
        stderr.contains("fuel budget of 5 exhausted"),
        "unstructured exhaustion report: {stderr}"
    );

    let jsonl = std::fs::read_to_string(&trace).expect("trace file written on the error path");
    std::fs::remove_file(&trace).ok();
    let instant = jsonl
        .lines()
        .find(|l| l.contains("\"name\":\"budget_exhausted\""))
        .unwrap_or_else(|| panic!("no budget_exhausted instant in:\n{jsonl}"));
    assert!(instant.contains("\"ev\":\"instant\""), "{instant}");
    assert!(instant.contains("\"resource\":\"fuel\""), "{instant}");
    assert!(instant.contains("\"limit\":5"), "{instant}");

    let json = std::fs::read_to_string(&metrics).expect("metrics written on the error path");
    std::fs::remove_file(&metrics).ok();
    assert!(json.contains("\"limits\": {"), "{json}");
    assert!(json.contains("\"exhausted\": 1"), "{json}");
    assert!(json.contains("\"fuel_spent\": "), "{json}");
}

/// An injected panic is *caught*: reported as an internal error with
/// exit 3, distinct from a diagnostic's exit 1.
#[test]
fn injected_panic_is_caught_with_a_crash_exit_code() {
    let (_, stderr, code) = run_fg_code(&["check", "--inject-fault", "check.expr:panic", "-"], FIG5);
    assert_eq!(code, 3, "caught crash must exit 3: {stderr}");
    assert!(
        stderr.contains("internal error") && stderr.contains("injected fault panic"),
        "crash not reported: {stderr}"
    );
}

/// Batch mode keeps serving after a crashing file and reports the worst
/// exit code across the batch.
#[test]
fn batch_mode_survives_a_crashing_file() {
    let good = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig5_accumulate.fg");
    let (stdout, stderr, code) = run_fg_code(
        &["check", "--inject-fault", "check.expr@1:panic", good, good],
        "",
    );
    // The first file crashes on the injected fault; the plan is exhausted
    // (one arm), so the second file completes and prints its type.
    assert_eq!(code, 3, "worst code wins: {stderr}");
    assert!(stdout.contains("int"), "second file must still run: {stdout}\n{stderr}");
}

/// The wall-clock bound on one adversarial run: ten times the slowest
/// file's release-build time on a 2-vCPU host, with more room for an
/// unoptimized build.
const ADVERSARIAL_WALL: std::time::Duration =
    std::time::Duration::from_secs(if cfg!(debug_assertions) { 6 } else { 2 });

/// Every committed adversarial example dies as a structured diagnostic
/// (exit 1) under the default caps in every execution lane (`run`, `vm`
/// and `direct`) — never a crash, never a hang. Ω stops at the depth cap
/// on the VM too, not after burning the whole fuel cap.
#[test]
fn adversarial_corpus_exits_with_diagnostics() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/adversarial");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("adversarial corpus present") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "fg") {
            continue;
        }
        seen += 1;
        let p = path.to_str().unwrap();
        for lane in ["run", "vm", "direct"] {
            let started = std::time::Instant::now();
            let (_, stderr, code) = run_fg_code(&[lane, p], "");
            let took = started.elapsed();
            assert_eq!(code, 1, "{lane} {p}: want a diagnostic exit, got {code}: {stderr}");
            assert!(!stderr.trim().is_empty(), "{lane} {p}: diagnostic must be reported");
            assert!(took < ADVERSARIAL_WALL, "{lane} {p}: took {took:?}");
            if p.ends_with("omega.fg") {
                assert!(
                    stderr.contains("depth budget of 4096 exhausted"),
                    "{lane} {p}: {stderr}"
                );
            }
        }
    }
    assert!(seen >= 4, "expected at least 4 adversarial examples, saw {seen}");
}

/// A 12-level refinement lattice whose 8191 dictionary-plan nodes are
/// all distinct (each level refines the one below at `list t` and at
/// `fn(t) -> int`): about a second of where-clause planning in a release
/// build, none of it in expression nodes.
fn distinct_lattice(levels: usize) -> String {
    let mut src = String::from("concept C0<t> { op : fn(t) -> int; } in\n");
    for i in 1..=levels {
        let j = i - 1;
        src.push_str(&format!(
            "concept C{i}<t> {{ refines C{j}<list t>; refines C{j}<fn(t) -> int>; }} in\n"
        ));
    }
    src.push_str(&format!("let f = biglam t where C{levels}<t>. lam x: t. 0 in 0\n"));
    src
}

/// The deadline binds inside where-clause entry: planning, typing and
/// registering a lattice's dictionaries poll it per plan node.
#[test]
fn deadline_binds_inside_where_clause_planning() {
    let started = std::time::Instant::now();
    let (_, stderr, code) =
        run_fg_code(&["--timeout-ms", "200", "check", "-"], &distinct_lattice(12));
    let took = started.elapsed();
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("deadline of 200 ms exceeded during check"), "{stderr}");
    assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
}

/// A fault spec naming no instrumented point is a usage error (exit 2)
/// from the flag and from `FG_FAULT` alike.
#[test]
fn unknown_fault_points_are_usage_errors() {
    // A file argument, not stdin: `fg` exits before it would read input.
    let good = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig5_accumulate.fg");
    for spec in ["bogus.point", "sf.parse", "check.expr,bogus@2"] {
        let (_, stderr, code) = run_fg_code(&["--inject-fault", spec, "check", good], "");
        assert_eq!(code, 2, "{spec}: {stderr}");
        assert!(stderr.contains("unknown fault point"), "{spec}: {stderr}");
        let out = Command::new(env!("CARGO_BIN_EXE_fg"))
            .env("FG_FAULT", spec)
            .args(["check", good])
            .stdin(Stdio::null())
            .output()
            .expect("run fg");
        assert_eq!(out.status.code(), Some(2), "FG_FAULT={spec}");
    }
}

/// Every listed fault point fires under some command: in error mode it
/// turns that command's success (exit 0) into a diagnostic (exit 1).
#[test]
fn every_fault_point_fires_in_some_command() {
    // What each point's diagnostic says: every one names the fault.
    let table = [
        ("parse", "check", "injected fault"),
        ("check.expr", "check", "injected fault"),
        ("check.resolve_model", "check", "injected fault"),
        ("check.where_enter", "check", "injected fault"),
        ("interp.eval", "direct", "injected fault"),
        ("sf.eval", "run", "injected fault"),
        ("vm.run", "vm", "injected fault"),
    ];
    let listed: Vec<&str> = table.iter().map(|(point, _, _)| *point).collect();
    assert_eq!(listed, telemetry::fault::POINTS, "one row per listed point");
    for (point, cmd, cause) in table {
        let (_, stderr, code) = run_fg_code(&[cmd, "-"], FIG5);
        assert_eq!(code, 0, "{cmd} without a fault: {stderr}");
        let (stdout, stderr, code) = run_fg_code(&["--inject-fault", point, cmd, "-"], FIG5);
        assert_eq!(code, 1, "{point} under {cmd}: {stdout}{stderr}");
        assert!(
            stderr.contains(cause),
            "{point} under {cmd} must say `{cause}`: {stderr}"
        );
    }
}

/// A scratch file under the test target directory, unique per process.
fn scratch_file(name: &str, contents: &str) -> String {
    let path = format!("{}/{}-{name}", env!("CARGO_TARGET_TMPDIR"), std::process::id());
    std::fs::write(&path, contents).expect("write scratch file");
    path
}

/// A stdout whose reader has gone is a diagnostic (exit 1, one line on
/// stderr), not a panic — on the sequential path and under `--jobs`.
#[test]
fn closed_stdout_is_a_diagnostic_not_a_panic() {
    let a = scratch_file("closed-a.fg", "accumulate[int](range(1, 5))");
    let b = scratch_file("closed-b.fg", "accumulate[int](range(1, 6))");
    for jobs in [&["--jobs", "1"][..], &[][..]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_fg"))
            .arg("--prelude")
            .args(jobs)
            .args(["run", &a, &b])
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("run fg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{jobs:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{jobs:?}: {stderr}");
        assert_eq!(
            stderr.matches("fg: cannot write output: ").count(),
            1,
            "{jobs:?}: {stderr}"
        );
    }
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

/// A stderr that is full or closed loses the diagnostic but keeps the
/// exit code: a missing file still exits 1, not a panic's 101.
#[test]
fn unwritable_stderr_keeps_the_exit_code() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let (reader, closed) = std::io::pipe().expect("pipe");
    drop(reader);
    for stderr in [Stdio::from(full), Stdio::from(closed)] {
        let status = Command::new(env!("CARGO_BIN_EXE_fg"))
            .args(["check", "missing.fg"])
            .stdout(Stdio::null())
            .stderr(stderr)
            .status()
            .expect("run fg");
        assert_eq!(status.code(), Some(1));
    }
}

/// The `check.*`, `congruence.*` and `limits.fuel_spent` counters of
/// an `fg --metrics-json` run on `paths`.
fn body_counters(args: &[&str], paths: &[&str]) -> Vec<(String, i64)> {
    let metrics = scratch_file("counters.json", "");
    let mut argv = vec!["--metrics-json", metrics.as_str()];
    argv.extend_from_slice(args);
    argv.push("check");
    argv.extend_from_slice(paths);
    let (_, stderr, code) = run_fg_code(&argv, "");
    assert_eq!(code, 0, "{stderr}");
    let doc = telemetry::json::Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    std::fs::remove_file(&metrics).ok();
    let counters = doc.get("counters").expect("counters");
    let mut out = Vec::new();
    for group in ["check", "congruence"] {
        let Some(telemetry::json::Json::Obj(fields)) = counters.get(group) else {
            panic!("no {group} group in {doc:?}");
        };
        for (key, value) in fields {
            out.push((format!("{group}.{key}"), value.as_i64().unwrap()));
        }
    }
    let fuel = counters.get("limits").and_then(|l| l.get("fuel_spent"));
    out.push((
        "limits.fuel_spent".to_owned(),
        fuel.and_then(|f| f.as_i64()).unwrap(),
    ));
    out
}

/// With `--prelude`, a request's counters cover its body alone: two
/// bodies that differ in a literal count the same, whichever runs first
/// on the worker, and far less than the whole program re-checked.
#[test]
fn prelude_request_counters_cover_the_body_alone() {
    let a = scratch_file("count-a.fg", "accumulate[int](range(1, 10))");
    let b = scratch_file("count-b.fg", "accumulate[int](range(1, 11))");
    let whole = scratch_file(
        "count-whole.fg",
        &fg::stdlib::with_prelude("accumulate[int](range(1, 10))"),
    );
    let prelude = ["--prelude", "--jobs", "1"];
    let alone_a = body_counters(&prelude, &[&a]);
    let alone_b = body_counters(&prelude, &[&b]);
    assert_eq!(alone_a, alone_b);
    let batch = body_counters(&prelude, &[&a, &b]);
    for ((key, one), (bkey, both)) in alone_a.iter().zip(&batch) {
        assert_eq!(key, bkey);
        assert_eq!(
            *both,
            2 * one,
            "{key}: the batch's second body counted differently"
        );
    }
    let whole_counters = body_counters(&[], &[&whole]);
    for key in [
        "check.model_lookups",
        "check.candidates_scanned",
        "limits.fuel_spent",
    ] {
        let get = |c: &[(String, i64)]| c.iter().find(|(k, _)| k == key).unwrap().1;
        assert!(
            get(&alone_a) * 4 < get(&whole_counters),
            "{key}: body {} vs whole program {}",
            get(&alone_a),
            get(&whole_counters)
        );
    }
    for f in [a, b, whole] {
        std::fs::remove_file(f).ok();
    }
}

/// Fault plans still reach inside the prelude: an injected fault on the
/// third checked expression fires in the prelude's declarations (exit 1,
/// as for the whole program), and its panic mode is still caught (3).
#[test]
fn injected_faults_fire_inside_the_prelude() {
    let body = scratch_file("fault.fg", "accumulate[int](range(1, 10))");
    let fault = |spec| ["--prelude", "--inject-fault", spec, "check", &body];
    let (_, stderr, code) = run_fg_code(&fault("check.expr@3"), "");
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("injected fault"), "{stderr}");
    // The third checked expression is the third concept declaration.
    assert!(stderr.contains("concept Group<t>"), "{stderr}");
    let (_, stderr, code) = run_fg_code(&fault("check.expr@3:panic"), "");
    assert_eq!(code, 3, "{stderr}");
    std::fs::remove_file(body).ok();
}
