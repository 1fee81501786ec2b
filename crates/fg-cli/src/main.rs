//! `fg` — the command-line driver for the F_G language.
//!
//! ```text
//! fg check <file.fg>...     typecheck, print the program's F_G type
//! fg translate <file.fg>... print the System F translation
//! fg run <file.fg>...       translate and evaluate on the System F machine
//! fg direct <file.fg>...    evaluate with the direct interpreter
//! fg explain <file.fg>...   explain model resolution and type equalities
//! fg ast <file.fg>...       print the parsed AST (debug form)
//! fg bench-json             run the benchmark suite, emit fg-bench/1 JSON
//! fg serve --addr H:P       fg-rpc/1 check daemon over TCP
//! fg rpc --addr H:P ...     one-shot fg-rpc/1 client (tests, scripts)
//! ```
//!
//! Pass `-` as the file to read from stdin, or `--prelude` before the
//! subcommand to wrap the program in the STL-flavoured prelude of
//! `fg::stdlib` (checked once per worker; see the `prelude` module).
//! Several files may be given; they are processed in order and the worst
//! outcome determines the exit code.
//!
//! Every command that runs the pipeline runs it on a worker of
//! `fg::pool`, whose threads are the only ones with a stack big enough
//! for the recursive checker and evaluators: the file loop, `repl` and
//! `bench-json` use a one-worker pool.
//!
//! # Parallel batches and the check daemon
//!
//! `--jobs N` (or `--jobs auto`) runs a batch on a persistent pool of
//! `N` worker threads (`fg::pool`): one shared FIFO queue, per-task
//! panic isolation, deterministic input-order output, and a merged
//! telemetry report with a `pool.*` counter group. `fg serve
//! --addr 127.0.0.1:0` exposes the same pipeline as a line-delimited
//! JSON-over-TCP daemon speaking `fg-rpc/1` (see DESIGN.md §12), with a
//! content-hash compile cache; `fg rpc` is the matching client.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | diagnostic: the program was rejected or failed at runtime |
//! | 2 | usage error |
//! | 3 | internal crash, caught and isolated (a bug in `fg`, not in the program) |
//!
//! # Resource limits
//!
//! Every stage of the pipeline runs under a resource budget
//! (`fg::limits`): `--fuel N` caps total work, `--max-depth N` caps
//! recursion, `--max-terms N` caps congruence nodes, `--max-dict-nodes N`
//! caps dictionary-plan nodes, and `--timeout-ms N` sets a wall-clock
//! deadline. `0` or `none` lifts a cap. The environment variables
//! `FG_FUEL`, `FG_MAX_DEPTH`, `FG_MAX_TERMS`, `FG_MAX_DICT_NODES`, and
//! `FG_TIMEOUT_MS` are read first; flags win. Exhaustion is a structured
//! diagnostic (exit 1), never an abort.
//!
//! `--inject-fault <point[@N][:panic]>` (or `FG_FAULT=`) arms the
//! deterministic fault-injection points listed in
//! `telemetry::fault::POINTS` for robustness testing; an unknown point
//! name is a usage error (exit 2).
//!
//! # Telemetry
//!
//! `--profile` prints a phase/counter table to stderr after the command
//! finishes; `--metrics-json <path>` writes the same data as an
//! `fg-metrics/1` JSON document (`-` for stdout). Both flags may appear
//! anywhere before the file argument and work with every subcommand that
//! runs the pipeline (`check`, `translate`, `elaborate`, `run`, `direct`,
//! `vm`, `bytecode`). Telemetry is emitted on error paths too, including
//! the `limits.*` counter group and a `budget_exhausted` trace instant
//! when a budget tripped. See the `telemetry` crate for the schema and
//! DESIGN.md for the counter glossary.
//!
//! `--trace <path>` writes an `fg-trace/1` JSONL record of the run's
//! spans and events (`-` for stdout); `--trace-chrome <path>` writes the
//! same record as Chrome trace-event JSON for Perfetto or
//! `chrome://tracing`. `fg explain <file.fg>` typechecks the program with
//! tracing on and prints, per instantiation site, the model-resolution
//! decision tree and the proof chain of every same-type constraint.

use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use fg::pool::WorkerPool;
use telemetry::limits::{Budget, Limits};
use telemetry::trace::{self, Event, Tracer};
use telemetry::Metrics;

mod batch;
mod explain;
mod prelude;
mod repl;
mod serve;
#[cfg(test)]
mod tests;

use prelude::Prelude;

/// Every subcommand that runs the pipeline on a source program (and so
/// every pipeline method of `fg serve`).
const PIPELINE_METHODS: [&str; 10] = [
    "check", "translate", "run", "direct", "elaborate", "explain", "vm", "bytecode", "fmt", "ast",
];

/// Exit code: the program was rejected or failed at runtime.
const EXIT_DIAGNOSTIC: u8 = 1;
/// Exit code: the command line was malformed.
const EXIT_USAGE: u8 = 2;
/// Exit code: the pipeline itself crashed (caught panic).
const EXIT_CRASH: u8 = 3;

/// The full usage text, shared by `--help` (stdout, exit 0) and usage
/// errors (stderr, exit 2).
fn usage_text() -> &'static str {
    "usage: fg [--prelude] [--profile] [--metrics-json <path>] [--trace <path>] [--trace-chrome <path>]\n\
     \x20         [--fuel <n>] [--max-depth <n>] [--max-terms <n>] [--max-dict-nodes <n>] [--timeout-ms <n>]\n\
     \x20         [--inject-fault <spec>] [--jobs <n|auto>]\n\
     \x20         <check|translate|run|direct|elaborate|explain|vm|bytecode|fmt|ast> <file.fg|->...\n\
     \x20  |  fg [--prelude] repl  |  fg bench-json [--quick] [--out <path>]\n\
     \x20  |  fg serve --addr <host:port>  |  fg rpc --addr <host:port> <method> [file.fg|-]\n\
     \n\
     check      typecheck and print the F_G type\n\
     translate  print the dictionary-passing System F translation\n\
     run        translate, typecheck the output, and evaluate it\n\
     direct     evaluate with the direct F_G interpreter\n\
     elaborate  print the program with inferred type arguments inserted\n\
     explain    explain model resolution and same-type proofs\n\
     vm         translate, compile to bytecode, and run on the VM\n\
     bytecode   print the compiled bytecode (disassembly)\n\
     fmt        reformat the program\n\
     ast        print the parsed AST\n\
     repl       interactive session (no file argument)\n\
     bench-json run the benchmark suite, write an fg-bench/1 report\n\
     serve      fg-rpc/1 check daemon: line-delimited JSON over TCP\n\
     rpc        one-shot fg-rpc/1 client: send one request, print the reply\n\
     \n\
     --prelude             wrap the program in the stdlib prelude\n\
     --profile             print phase timings and counters to stderr\n\
     --metrics-json <path> write an fg-metrics/1 JSON report (- for stdout)\n\
     --trace <path>        write an fg-trace/1 JSONL trace (- for stdout)\n\
     --trace-chrome <path> write a Chrome trace-event JSON trace (- for stdout)\n\
     --fuel <n>            total work budget (0 or none = unlimited)\n\
     --max-depth <n>       recursion-depth budget\n\
     --max-terms <n>       congruence-node budget\n\
     --max-dict-nodes <n>  dictionary-plan-node budget\n\
     --timeout-ms <n>      wall-clock deadline in milliseconds\n\
     --inject-fault <spec> arm fault points: point[@N][:panic], comma-separated\n\
     --jobs <n|auto>       run the batch on a pool of n worker threads\n\
     --help                print this help and exit"
}

fn usage() -> u8 {
    print_err(&format!("{}\n", usage_text()));
    EXIT_USAGE
}

/// Flags accepted in any order before the positional arguments.
///
/// The limit fields are three-valued: `None` = flag absent (defaults and
/// environment apply), `Some(None)` = cap explicitly lifted,
/// `Some(Some(n))` = cap explicitly set.
#[derive(Default)]
struct Flags {
    use_prelude: bool,
    profile: bool,
    metrics_json: Option<String>,
    trace: Option<String>,
    trace_chrome: Option<String>,
    fuel: Option<Option<u64>>,
    max_depth: Option<Option<u64>>,
    max_terms: Option<Option<u64>>,
    max_dict_nodes: Option<Option<u64>>,
    timeout_ms: Option<Option<u64>>,
    inject_fault: Option<String>,
    /// `--jobs`: pool width for batch mode. `None` = one file at a time
    /// on a one-worker pool, `Some(0)` = `auto` (one worker per
    /// available core).
    jobs: Option<usize>,
    help: bool,
}

impl Flags {
    /// The effective limits: CLI default caps, then environment
    /// variables, then explicit flags (strongest).
    fn limits(&self) -> Limits {
        let mut l = Limits::DEFAULT_CAPS.with_env();
        for (flag, slot) in [
            (&self.fuel, &mut l.fuel),
            (&self.max_depth, &mut l.max_depth),
            (&self.max_terms, &mut l.max_cc_terms),
            (&self.max_dict_nodes, &mut l.max_dict_nodes),
            (&self.timeout_ms, &mut l.timeout_ms),
        ] {
            if let Some(v) = flag {
                *slot = *v;
            }
        }
        l
    }

    /// Whether any flag asked for an event trace (which forces per-file
    /// tracers on and disables the batch compile cache).
    fn wants_trace(&self, cmd: &str) -> bool {
        cmd == "explain" || self.trace.is_some() || self.trace_chrome.is_some()
    }

    /// The pool width `--jobs` asked for, with `auto` (0) resolved to
    /// the number of available cores.
    fn jobs_resolved(&self) -> usize {
        match self.jobs {
            Some(0) | None => std::thread::available_parallelism().map_or(1, usize::from),
            Some(n) => n,
        }
    }
}

/// Parses a limit value: `0`, `none`, and `unlimited` lift the cap.
fn parse_limit(v: &str) -> Result<Option<u64>, ()> {
    let v = v.trim();
    if v.eq_ignore_ascii_case("none") || v.eq_ignore_ascii_case("unlimited") || v == "0" {
        return Ok(None);
    }
    v.parse::<u64>().map(Some).map_err(|_| ())
}

fn parse_flags(args: &mut Vec<String>) -> Result<Flags, u8> {
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let take_value = |args: &mut Vec<String>| -> Result<String, u8> {
            if i + 1 >= args.len() {
                print_err(&format!("fg: {arg} needs an argument\n"));
                return Err(usage());
            }
            args.remove(i);
            Ok(args.remove(i))
        };
        match arg.as_str() {
            "--prelude" => {
                flags.use_prelude = true;
                args.remove(i);
            }
            "--profile" => {
                flags.profile = true;
                args.remove(i);
            }
            "--help" | "-h" => {
                flags.help = true;
                args.remove(i);
            }
            "--jobs" => {
                let raw = take_value(args)?;
                let jobs = if raw.eq_ignore_ascii_case("auto") {
                    Some(0)
                } else {
                    raw.parse::<usize>().ok().filter(|&n| n > 0)
                };
                let Some(jobs) = jobs else {
                    print_err(&format!("fg: --jobs: `{raw}` is not a positive number or `auto`\n"));
                    return Err(usage());
                };
                flags.jobs = Some(jobs);
            }
            "--metrics-json" => flags.metrics_json = Some(take_value(args)?),
            "--trace" => flags.trace = Some(take_value(args)?),
            "--trace-chrome" => flags.trace_chrome = Some(take_value(args)?),
            "--inject-fault" => flags.inject_fault = Some(take_value(args)?),
            "--fuel" | "--max-depth" | "--max-terms" | "--max-dict-nodes" | "--timeout-ms" => {
                let raw = take_value(args)?;
                let Ok(v) = parse_limit(&raw) else {
                    print_err(&format!("fg: {arg}: `{raw}` is not a number, `0`, or `none`\n"));
                    return Err(usage());
                };
                match arg.as_str() {
                    "--fuel" => flags.fuel = Some(v),
                    "--max-depth" => flags.max_depth = Some(v),
                    "--max-terms" => flags.max_terms = Some(v),
                    "--max-dict-nodes" => flags.max_dict_nodes = Some(v),
                    _ => flags.timeout_ms = Some(v),
                }
            }
            _ => i += 1,
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    ExitCode::from(real_main())
}

fn real_main() -> u8 {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&mut args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    if flags.help {
        print_out(&format!("{}\n", usage_text()));
        return 0;
    }
    // Arm fault injection (flag wins over FG_FAULT) before any pipeline
    // work runs.
    let fault_spec = flags
        .inject_fault
        .clone()
        .or_else(|| std::env::var("FG_FAULT").ok());
    if let Some(spec) = fault_spec {
        match telemetry::fault::FaultPlan::parse(&spec) {
            Ok(plan) => telemetry::fault::install(plan),
            Err(e) => {
                print_err(&format!("fg: bad fault spec `{spec}`: {e}\n"));
                return usage();
            }
        }
    }
    if args.first().map(String::as_str) == Some("bench-json") {
        return bench_json(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve::serve_main(&flags, &args[1..]);
    }
    if args.first().map(String::as_str) == Some("rpc") {
        return serve::rpc_main(&flags, &args[1..]);
    }
    if args.as_slice() == ["repl"] {
        let (use_prelude, limits) = (flags.use_prelude, flags.limits());
        let session = one_worker_pool().map(|pool| {
            pool.run_one(move || {
                let stdin = std::io::stdin();
                repl::run_repl(stdin.lock(), std::io::stdout(), use_prelude, limits)
            })
        });
        return match session {
            Err(code) => code,
            Ok(Ok(Ok(()))) => 0,
            Ok(Ok(Err(e))) => {
                print_err(&format!("fg: io error: {e}\n"));
                EXIT_DIAGNOSTIC
            }
            Ok(Err(msg)) => {
                print_err(&format!("fg: internal error: repl crashed: {msg}\n"));
                EXIT_CRASH
            }
        };
    }
    let Some((cmd, paths)) = args.split_first() else {
        return usage();
    };
    if paths.is_empty() || !PIPELINE_METHODS.contains(&cmd.as_str()) {
        return usage();
    }
    // Every file runs as an isolated pool task, so one crashing input
    // cannot take down the rest of the batch. The exit code is the worst
    // outcome seen. With `--jobs`, the files share a pool of that width
    // and one merged report; without it, they run one at a time on a
    // one-worker pool, each with its own report.
    if flags.jobs.is_some() {
        return batch::run_batch(cmd, paths, &flags);
    }
    let pool = match one_worker_pool() {
        Ok(pool) => pool,
        Err(code) => return code,
    };
    let mut worst = 0u8;
    for path in paths {
        worst = worst.max(run_file(&pool, cmd, path, &flags));
    }
    worst
}

/// The pool for commands that run one request at a time.
fn one_worker_pool() -> Result<WorkerPool, u8> {
    WorkerPool::new(1).map_err(|e| {
        print_err(&format!("fg: cannot spawn worker pool: {e}\n"));
        EXIT_CRASH
    })
}

/// `fg bench-json [--quick] [--out <path>]` — runs the benchmark suite
/// in-process and writes the `fg-bench/1` JSON report to `--out`
/// (default stdout). `--quick` shrinks the measurement budgets for CI
/// smoke runs; progress goes to stderr so stdout stays machine-readable.
fn bench_json(args: &[String]) -> u8 {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    print_err("fg: --out needs an argument\n");
                    return usage();
                };
                out = Some(path.clone());
                i += 1;
            }
            other => {
                print_err(&format!("fg: bench-json: unknown argument `{other}`\n"));
                return usage();
            }
        }
        i += 1;
    }
    print_err(&format!(
        "fg: running benchmark suite ({} mode)...\n",
        if quick { "quick" } else { "full" }
    ));
    let suite = one_worker_pool().map(|pool| pool.run_one(move || bench::runner::run_suite(quick)));
    let report = match suite {
        Err(code) => return code,
        Ok(Ok(report)) => report,
        Ok(Err(msg)) => {
            print_err(&format!("fg: internal error: bench-json crashed: {msg}\n"));
            return EXIT_CRASH;
        }
    };
    for e in &report.entries {
        print_err(&format!(
            "  {:<50} {:>12} ns/iter (n={})\n",
            format!("{}/{}{}{}", e.group, e.id, if e.param.is_empty() { "" } else { "/" }, e.param),
            e.mean_ns(),
            e.iters,
        ));
    }
    let json = report.to_json();
    match out.as_deref() {
        None | Some("-") => {
            print_out(&json);
            0
        }
        Some(path) => match std::fs::write(path, json) {
            Ok(()) => {
                print_err(&format!("fg: wrote {path}\n"));
                0
            }
            Err(e) => {
                print_err(&format!("fg: cannot write {path}: {e}\n"));
                EXIT_DIAGNOSTIC
            }
        },
    }
}

/// One request's buffered outcome: the exit code plus everything the
/// pipeline would have printed. Buffering is what makes the pipeline
/// reentrant — the pool prints batches in input order, the daemon ships
/// output over the wire, and the compile cache replays it verbatim.
struct RunOutput {
    code: u8,
    stdout: String,
    stderr: String,
    metrics: Metrics,
}

/// Runs one file as a task on `pool`, translating a panic into
/// [`EXIT_CRASH`] instead of aborting the batch.
fn run_file(pool: &WorkerPool, cmd: &str, path: &str, flags: &Flags) -> u8 {
    // `explain` always needs the event record; otherwise tracing is on
    // only when an export was requested.
    let tracer = if flags.wants_trace(cmd) {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let task = {
        let (cmd, path, tracer) = (cmd.to_owned(), path.to_owned(), tracer.clone());
        let (use_prelude, limits) = (flags.use_prelude, flags.limits());
        move || load_and_run(&cmd, &path, use_prelude, limits, &tracer)
    };
    match pool.run_one(task) {
        Ok(output) => {
            print_out(&output.stdout);
            print_err(&output.stderr);
            let emitted = emit_telemetry(
                flags,
                &output.metrics,
                cmd,
                path,
                &tracer.events(),
                tracer.dropped(),
            );
            output.code.max(emitted)
        }
        Err(msg) => {
            print_err(&format!("fg: internal error: {path}: pipeline crashed: {msg}\n"));
            EXIT_CRASH
        }
    }
}

/// Reads `path`, applies the prelude, and runs the pipeline, buffering
/// all output.
fn load_and_run(cmd: &str, path: &str, use_prelude: bool, limits: Limits, tracer: &Tracer) -> RunOutput {
    let source = match read_source(path) {
        Ok(s) => s,
        Err(e) => {
            return RunOutput {
                code: EXIT_DIAGNOSTIC,
                stdout: String::new(),
                stderr: format!("fg: cannot read {path}: {e}\n"),
                metrics: Metrics::new(),
            }
        }
    };
    run_request(cmd, path, &source, use_prelude, limits, tracer)
}

/// The reentrant pipeline entry point: parses, checks, and runs one
/// program according to `cmd` under a fresh budget, emitting telemetry
/// on success *and* failure paths. Shared by the sequential driver, the
/// `--jobs` pool, and `fg serve`.
fn run_request(
    cmd: &str,
    path: &str,
    source: &str,
    use_prelude: bool,
    limits: Limits,
    tracer: &Tracer,
) -> RunOutput {
    let mut metrics = Metrics::new();
    metrics.set_command(cmd);
    metrics.set_source(path);
    let budget = Arc::new(Budget::new(limits));
    let prelude = Prelude::for_request(use_prelude, tracer);
    let mut out = String::new();
    let mut err = String::new();
    let status = stages(
        cmd,
        path,
        source,
        prelude,
        &budget,
        tracer,
        &mut metrics,
        &mut out,
        &mut err,
    );
    record_limits(&mut metrics, &budget, tracer);
    RunOutput {
        code: status.err().unwrap_or(0),
        stdout: out,
        stderr: err,
        metrics,
    }
}

/// The command pipeline proper: everything from parse to output. The
/// body `source` is parsed and checked on its own, against the
/// `prelude`'s checked prefix; only the lanes that print or run the
/// whole program splice the two together. All output goes into the
/// `out`/`err` buffers so the caller decides where it lands (terminal,
/// batch slot, RPC response, cache entry).
#[allow(clippy::too_many_arguments)]
fn stages(
    cmd: &str,
    path: &str,
    source: &str,
    prelude: Prelude,
    budget: &Arc<Budget>,
    tracer: &Tracer,
    metrics: &mut Metrics,
    out: &mut String,
    err: &mut String,
) -> Result<(), u8> {
    let sp = tracer.begin("parse", vec![("source", path.into())]);
    let parsed = metrics.phase("parse", || {
        let prefix = prelude.prefix(budget)?;
        let body = prefix.parse_body(source, budget.clone())?;
        Ok::<_, system_f::ParseError>((prefix, body))
    });
    tracer.end(sp);
    let (prefix, body) = match parsed {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(err, "fg: parse error: {e}");
            return Err(EXIT_DIAGNOSTIC);
        }
    };

    if cmd == "ast" {
        let _ = writeln!(out, "{:#?}", prefix.splice(body));
        return Ok(());
    }
    if cmd == "fmt" {
        let _ = write!(out, "{}", fg::format::format_program(&prefix.splice(body)));
        return Ok(());
    }
    let sp = tracer.begin("check", vec![("source", path.into())]);
    let mut counters = None;
    // A large Err variant is fine here: this runs once per invocation.
    #[allow(clippy::result_large_err)]
    let checked = metrics.phase("check_translate", || {
        let snapshot = prelude.snapshot(&prefix, &body, tracer, budget)?;
        let (compiled, stats) = snapshot.check_body(&body, tracer.clone(), budget.clone());
        counters = Some(stats);
        Ok::<_, fg::CheckError>((snapshot, compiled?))
    });
    tracer.end(sp);
    if let Some(stats) = counters {
        record_check_counters(metrics, &stats);
    }
    let (snapshot, compiled) = match checked {
        Ok(c) => c,
        Err(e) => {
            let _ = writeln!(err, "fg: {}", e.render(&prefix.source_with(source)));
            return Err(EXIT_DIAGNOSTIC);
        }
    };
    record_check_stats(metrics, &compiled);

    match cmd {
        "check" => {
            let _ = writeln!(out, "{}", compiled.ty);
            Ok(())
        }
        "explain" => {
            let _ = write!(
                out,
                "{}",
                explain::render(&tracer.events(), &prefix.source_with(source))
            );
            Ok(())
        }
        "elaborate" => {
            let _ = writeln!(out, "{}", snapshot.splice_elaborated(compiled.elaborated));
            Ok(())
        }
        "direct" => {
            let program = snapshot.splice_elaborated(compiled.elaborated);
            let sp = tracer.begin("direct_eval", Vec::new());
            let outcome = metrics.phase("direct_eval", || {
                fg::interp::run_direct_budgeted(&program, tracer.clone(), budget.clone())
            });
            tracer.end(sp);
            match outcome {
                Ok((v, stats)) => {
                    record_eval_stats(metrics, &stats);
                    let _ = writeln!(out, "{v}");
                    Ok(())
                }
                Err(e) => {
                    let _ = writeln!(err, "fg: runtime error: {e}");
                    Err(EXIT_DIAGNOSTIC)
                }
            }
        }
        "translate" => {
            let _ = writeln!(out, "{}", snapshot.splice_term(compiled.term));
            Ok(())
        }
        "bytecode" => {
            let program = snapshot.splice_term(compiled.term);
            let outcome = metrics.phase("vm_compile", || system_f::vm::compile(&program));
            match outcome {
                Ok(p) => {
                    let _ = write!(out, "{p}");
                    Ok(())
                }
                Err(e) => {
                    let _ = writeln!(err, "fg: compile error: {e}");
                    Err(EXIT_DIAGNOSTIC)
                }
            }
        }
        "vm" => {
            let term = snapshot.splice_term(compiled.term);
            let sp = tracer.begin("vm_compile", Vec::new());
            let program = metrics.phase("vm_compile", || system_f::vm::compile(&term));
            tracer.end(sp);
            match program {
                Ok(p) => {
                    let sp = tracer.begin("vm_run", Vec::new());
                    let outcome = metrics.phase("vm_run", || {
                        system_f::vm::run_profiled_budgeted(&p, budget)
                    });
                    tracer.end(sp);
                    match outcome {
                        Ok((v, stats)) => {
                            record_vm_stats(metrics, &stats);
                            let _ = writeln!(out, "{v}");
                            Ok(())
                        }
                        Err(e) => {
                            let _ = writeln!(err, "fg: vm error: {e}");
                            Err(EXIT_DIAGNOSTIC)
                        }
                    }
                }
                Err(e) => {
                    let _ = writeln!(err, "fg: compile error: {e}");
                    Err(EXIT_DIAGNOSTIC)
                }
            }
        }
        "run" => {
            let sp = tracer.begin("sf_typecheck", Vec::new());
            let well_typed =
                metrics.phase("sf_typecheck", || snapshot.typecheck_body(&compiled.term));
            tracer.end(sp);
            if let Err(e) = well_typed {
                let _ = writeln!(err, "fg: internal error: translation is ill-typed: {e}");
                return Err(EXIT_DIAGNOSTIC);
            }
            let sp = tracer.begin("sf_eval", Vec::new());
            let outcome =
                metrics.phase("sf_eval", || snapshot.eval_body(&compiled.term, budget));
            tracer.end(sp);
            match outcome {
                Ok(v) => {
                    let _ = writeln!(out, "{v}");
                    Ok(())
                }
                Err(e) => {
                    let _ = writeln!(err, "fg: runtime error: {e}");
                    Err(EXIT_DIAGNOSTIC)
                }
            }
        }
        other => {
            let _ = writeln!(err, "fg: unknown command `{other}`");
            Err(EXIT_USAGE)
        }
    }
}

/// The checker's model-lookup and dictionary counters (the `check`
/// group), recorded whether or not the check succeeded.
fn record_check_counters(metrics: &mut Metrics, cs: &fg::CheckStats) {
    for (key, value) in [
        ("model_lookups", cs.model_lookups),
        ("model_hits", cs.model_hits),
        ("model_misses", cs.model_misses),
        ("candidates_scanned", cs.candidates_scanned),
        ("plan_nodes_built", cs.plan_nodes_built),
        ("max_scope_depth", cs.max_scope_depth),
        ("dicts_built", cs.dicts_built),
        ("dict_instantiations", cs.dict_instantiations),
    ] {
        metrics.set_counter("check", key, value);
    }
}

/// A successful check's interning (the `intern` group) and
/// congruence-closure work (the `congruence` group).
fn record_check_stats(metrics: &mut Metrics, compiled: &fg::Compiled) {
    let is = compiled.intern_stats;
    for (key, value) in [
        ("hits", is.hits),
        ("misses", is.misses),
        ("subst_hits", is.subst_hits),
        ("subst_misses", is.subst_misses),
        ("arena_types", is.arena_types),
        ("arena_constraints", is.arena_constraints),
    ] {
        metrics.set_counter("intern", key, value);
    }
    let ts = compiled.type_eq_stats;
    for (key, value) in [
        ("eq_queries", ts.eq_queries),
        ("assertions", ts.assertions),
        ("resolves", ts.resolves),
        ("merges", ts.merges),
        ("unions", ts.unions),
        ("finds", ts.finds),
        ("terms", ts.terms),
        ("term_bank_peak", ts.term_bank_peak),
    ] {
        metrics.set_counter("congruence", key, value);
    }
}

/// The direct interpreter's runtime counters (the `direct_eval` group).
fn record_eval_stats(metrics: &mut Metrics, stats: &fg::interp::EvalStats) {
    for (key, value) in [
        ("eval_steps", stats.eval_steps),
        ("model_lookups", stats.model_lookups),
        ("model_hits", stats.model_hits),
        ("model_misses", stats.model_misses),
        ("candidates_scanned", stats.candidates_scanned),
        ("max_scope_depth", stats.max_scope_depth),
        ("dicts_built", stats.dicts_built),
        ("dict_instantiations", stats.dict_instantiations),
    ] {
        metrics.set_counter("direct_eval", key, value);
    }
}

/// The VM's per-opcode dispatch counts and stack gauges (the
/// `vm_dispatch` group).
fn record_vm_stats(metrics: &mut Metrics, stats: &system_f::vm::VmStats) {
    metrics.set_counter("vm_dispatch", "instructions", stats.instructions());
    for &(name, count) in &stats.by_opcode {
        metrics.set_counter("vm_dispatch", name, count);
    }
    metrics.set_counter("vm_dispatch", "max_frame_depth", stats.max_frame_depth);
    metrics.set_counter("vm_dispatch", "max_stack_depth", stats.max_stack_depth);
}

/// The budget's consumption gauges (the `limits` group), plus a
/// `budget_exhausted` trace instant if a cap tripped.
fn record_limits(metrics: &mut Metrics, budget: &Budget, tracer: &Tracer) {
    for (key, value) in [
        ("fuel_spent", budget.fuel_spent()),
        ("depth_peak", budget.depth_peak()),
        ("cc_terms", budget.cc_terms()),
        ("dict_nodes", budget.dict_nodes()),
        ("elapsed_ms", budget.elapsed_ms()),
    ] {
        metrics.set_counter("limits", key, value);
    }
    if let Some(x) = budget.exhausted() {
        metrics.set_counter("limits", "exhausted", 1);
        tracer.instant(
            "budget_exhausted",
            vec![
                ("resource", x.resource.as_str().into()),
                ("limit", x.limit.into()),
            ],
        );
    }
}

/// A cached request outcome: exit code plus the buffered streams. The
/// value a [`fg::pool::CompileCache`] replays on a hit.
type CachedRun = (u8, String, String);

/// The pool's dispatch and cache counters (the `pool` counter group),
/// merged into the batch report and served by the daemon's `stats`
/// method.
fn record_pool_stats(
    metrics: &mut Metrics,
    workers: usize,
    stats: &fg::pool::PoolStats,
    cache: &fg::pool::CompileCache<CachedRun>,
) {
    for (key, value) in [
        ("workers", workers as u64),
        ("jobs", stats.jobs),
        ("queue_depth_peak", stats.queue_depth_peak),
        ("panics", stats.panics),
        ("cache_hits", cache.hits()),
        ("cache_misses", cache.misses()),
        ("cache_entries", cache.len() as u64),
    ] {
        metrics.set_counter("pool", key, value);
    }
    for (id, ns) in stats.worker_busy_ns.iter().enumerate() {
        metrics.set_counter("pool", &format!("worker{id}_busy_ns"), *ns);
    }
}

/// Emits a run's telemetry as the flags request: the `--profile` table,
/// the `--metrics-json` report, and the `--trace`/`--trace-chrome`
/// event record, labelled `label`. Shared by the file-at-a-time path
/// and the `--jobs` batch. Attempts every report and returns
/// [`EXIT_DIAGNOSTIC`] if any could not be written, else 0.
fn emit_telemetry(
    flags: &Flags,
    metrics: &Metrics,
    cmd: &str,
    label: &str,
    events: &[Event],
    dropped: u64,
) -> u8 {
    if flags.profile {
        print_err(&metrics.render_table());
    }
    let mut code = 0;
    let mut write = |path: &str, contents: String| {
        if write_report(path, &contents).is_err() {
            code = EXIT_DIAGNOSTIC;
        }
    };
    if let Some(path) = &flags.metrics_json {
        write(path, metrics.to_json());
    }
    if let Some(path) = &flags.trace {
        write(path, trace::render_jsonl(cmd, label, events, dropped));
    }
    if let Some(path) = &flags.trace_chrome {
        write(path, trace::render_chrome_json(events));
    }
    code
}

/// Writes a rendered report to `path` (`-` for stdout).
fn write_report(path: &str, contents: &str) -> Result<(), ()> {
    if path == "-" {
        print_out(contents);
        return Ok(());
    }
    std::fs::write(path, contents).map_err(|e| {
        print_err(&format!("fg: cannot write {path}: {e}\n"));
    })
}

/// Writes `text` to stdout: the one way `fg` prints its results. A
/// closed pipe or a full disk is a diagnostic, not a crash: `fg` reports
/// it once on stderr and exits with [`EXIT_DIAGNOSTIC`] at once, since
/// nothing after it could be printed either.
fn print_out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        print_err(&format!("fg: cannot write output: {e}\n"));
        std::process::exit(i32::from(EXIT_DIAGNOSTIC));
    }
}

/// Writes `text` to stderr: the one way `fg` prints diagnostics. A
/// closed or full stderr loses the text but never changes the exit code
/// (`eprint!` would panic there, and a panic exits 101).
fn print_err(text: &str) {
    let mut stderr = std::io::stderr().lock();
    let _ = stderr.write_all(text.as_bytes()).and_then(|()| stderr.flush());
}

fn read_source(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path)
    }
}
