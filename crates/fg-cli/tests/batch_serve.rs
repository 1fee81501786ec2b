//! End-to-end tests of the `--jobs` pooled batch driver and the
//! `fg serve` / `fg rpc` daemon pair (DESIGN.md §12).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

/// Figure 5, the everything-works corpus entry: checks to `int`.
const GOOD: &str = "
    concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
    model Semigroup<int> { binary_op = iadd; } in
    Semigroup<int>.binary_op(1, 2)
";

/// A program with a type error: a diagnostic (exit 1), not a crash.
const BAD: &str = "
    concept C<t> { op : t; } in
    (biglam u where C<u>. 0)[int]
";

fn run_fg(args: &[&str], stdin: &str) -> (String, String, i32) {
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

/// Writes `source` under a unique name in the cargo-managed temp dir
/// and returns the path.
fn temp_file(name: &str, source: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, source).expect("write temp source");
    path
}

// ---------------------------------------------------------------------
// --jobs batches
// ---------------------------------------------------------------------

/// Worst-code-wins over a mixed good/diagnostic batch, with every
/// file's output present and in input order.
#[test]
fn jobs_batch_mixed_corpus_exit_code_contract() {
    let good = temp_file("batch_good.fg", GOOD);
    let bad = temp_file("batch_bad.fg", BAD);
    let (stdout, stderr, code) = run_fg(
        &["--jobs", "2", "check", &good, &bad, &good],
        "",
    );
    assert_eq!(code, 1, "diagnostic beats success: {stderr}");
    assert_eq!(
        stdout.lines().filter(|l| l.trim() == "int").count(),
        2,
        "both good files must print their type: {stdout}"
    );
    assert!(
        stderr.contains("no model for `C<int>`"),
        "the bad file's diagnostic must be reported: {stderr}"
    );
}

/// A usage-level outcome stays intact under --jobs: unreadable files
/// are diagnostics, deterministic and per-file.
#[test]
fn jobs_batch_reports_unreadable_files() {
    let good = temp_file("batch_readable.fg", GOOD);
    let (stdout, stderr, code) = run_fg(
        &["--jobs", "2", "check", "/nonexistent/missing.fg", &good],
        "",
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("cannot read /nonexistent/missing.fg"), "{stderr}");
    assert!(stdout.contains("int"), "the readable file still runs: {stdout}");
}

/// One worker's injected panic is isolated: the batch finishes, the
/// other files print their results, and the worst code is 3.
#[test]
fn jobs_batch_isolates_an_injected_crash() {
    let good = temp_file("batch_crashy_sibling.fg", GOOD);
    let (stdout, stderr, code) = run_fg(
        &[
            "--jobs",
            "2",
            "--inject-fault",
            "check.expr@1:panic",
            "check",
            &good,
            &good,
            &good,
        ],
        "",
    );
    // The fault plan arms one panic at the first check.expr visit;
    // under parallel dispatch *which* file trips it is scheduling-
    // dependent, but exactly one does and the rest must complete.
    assert_eq!(code, 3, "caught crash is the worst code: {stderr}");
    assert_eq!(
        stdout.lines().filter(|l| l.trim() == "int").count(),
        2,
        "the two unfaulted files still complete: {stdout}\n{stderr}"
    );
    assert!(stderr.contains("pipeline crashed"), "{stderr}");
}

/// Batch output is byte-identical run to run — the deterministic-
/// ordering contract, exercised with files whose types differ.
#[test]
fn jobs_batch_output_is_deterministic() {
    let a = temp_file("batch_det_a.fg", GOOD);
    let b = temp_file("batch_det_b.fg", "lam x: int. x");
    let c = temp_file("batch_det_c.fg", "true");
    let args = ["--jobs", "4", "check", &a, &b, &c, &a];
    let (first, _, code) = run_fg(&args, "");
    assert_eq!(code, 0);
    assert_eq!(
        first.lines().collect::<Vec<_>>(),
        vec!["int", "fn(int) -> int", "bool", "int"],
        "results print in input order: {first}"
    );
    for _ in 0..3 {
        let (again, _, _) = run_fg(&args, "");
        assert_eq!(again, first, "output must not depend on scheduling");
    }
}

/// The merged batch report carries the pool.* counter group, and a
/// repeated identical file is a recorded compile-cache hit.
#[test]
fn jobs_batch_metrics_merge_and_count_cache_hits() {
    let dup = temp_file("batch_dup.fg", GOOD);
    let metrics_path = format!("{}/batch_metrics.json", env!("CARGO_TARGET_TMPDIR"));
    // --jobs 1: the two identical files run sequentially on one
    // worker, so the second is deterministically a cache hit.
    let (_, stderr, code) = run_fg(
        &["--jobs", "1", "--metrics-json", &metrics_path, "check", &dup, &dup],
        "",
    );
    assert_eq!(code, 0, "{stderr}");
    let doc = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let json = telemetry::json::Json::parse(&doc).expect("fg-metrics/1 parses");
    assert_eq!(
        json.get("schema").and_then(telemetry::json::Json::as_str),
        Some("fg-metrics/1")
    );
    let pool = json.get("counters").and_then(|c| c.get("pool")).expect("pool group");
    let counter = |key: &str| pool.get(key).and_then(telemetry::json::Json::as_i64);
    assert_eq!(counter("workers"), Some(1));
    assert_eq!(counter("jobs"), Some(2));
    assert_eq!(counter("cache_hits"), Some(1), "second identical file hits");
    assert_eq!(counter("cache_misses"), Some(1));
    assert_eq!(counter("panics"), Some(0));
    assert!(counter("worker0_busy_ns").unwrap_or(0) > 0, "busy time recorded");
    // The per-file check counters merged (two files' worth).
    let check = json.get("counters").and_then(|c| c.get("check")).expect("check group");
    assert!(
        check.get("model_lookups").and_then(telemetry::json::Json::as_i64) >= Some(1),
        "per-file metrics merged into the batch report"
    );
}

// ---------------------------------------------------------------------
// fg serve / fg rpc
// ---------------------------------------------------------------------

/// A serve daemon bound to an ephemeral port, killed on drop so a
/// failing test cannot leak the process.
struct ServeGuard {
    child: Child,
    addr: String,
}

impl ServeGuard {
    fn spawn() -> ServeGuard {
        ServeGuard::spawn_with(&[])
    }

    /// [`ServeGuard::spawn`] with global flags (such as `--jobs 1`).
    fn spawn_with(flags: &[&str]) -> ServeGuard {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fg"))
            .args(flags)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fg serve");
        // The daemon's one startup line announces the bound address.
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut line)
            .expect("read serve banner");
        let addr = line
            .trim()
            .strip_prefix("fg: serving fg-rpc/1 on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_owned();
        ServeGuard { child, addr }
    }

    /// Sends one request via the `fg rpc` client and returns its
    /// parsed response plus the client's exit code.
    fn rpc(&self, method: &str, file: Option<&str>) -> (telemetry::json::Json, i32) {
        self.rpc_with(&[], method, file)
    }

    /// [`ServeGuard::rpc`] with client flags (`--prelude`) in front.
    fn rpc_with(
        &self,
        flags: &[&str],
        method: &str,
        file: Option<&str>,
    ) -> (telemetry::json::Json, i32) {
        let mut args = flags.to_vec();
        args.extend(["rpc", "--addr", self.addr.as_str(), method]);
        if let Some(f) = file {
            args.push(f);
        }
        let (stdout, stderr, code) = run_fg(&args, "");
        let line = stdout.lines().next().unwrap_or_else(|| {
            panic!("no response line: stdout={stdout} stderr={stderr}")
        });
        (
            telemetry::json::Json::parse(line).expect("response is JSON"),
            code,
        )
    }

    /// Asks the daemon to shut down and asserts the clean-exit
    /// contract (exit 0).
    fn shutdown(mut self) {
        let (resp, code) = self.rpc("shutdown", None);
        assert_eq!(code, 0, "shutdown rpc maps exit 0");
        assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(true)));
        let status = self.child.wait().expect("serve exits");
        assert_eq!(status.code(), Some(0), "clean shutdown exits 0");
        // Disarm the drop-kill: the child is already gone.
        std::mem::forget(self);
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn as_str<'j>(v: &'j telemetry::json::Json, key: &str) -> &'j str {
    v.get(key).and_then(telemetry::json::Json::as_str).unwrap_or("")
}

/// Round trip: check over the wire, repeat for a recorded cache hit,
/// observe it in `stats`, shut down cleanly.
#[test]
fn serve_round_trip_cache_hit_and_clean_shutdown() {
    let file = temp_file("serve_good.fg", GOOD);
    let daemon = ServeGuard::spawn();

    let (resp, code) = daemon.rpc("check", Some(&file));
    assert_eq!(code, 0);
    assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(true)));
    assert_eq!(resp.get("cached"), Some(&telemetry::json::Json::Bool(false)));
    assert_eq!(as_str(&resp, "output"), "int\n");

    let (resp, code) = daemon.rpc("check", Some(&file));
    assert_eq!(code, 0);
    assert_eq!(
        resp.get("cached"),
        Some(&telemetry::json::Json::Bool(true)),
        "identical request replays from the compile cache"
    );
    assert_eq!(as_str(&resp, "output"), "int\n");

    let (stats, _) = daemon.rpc("stats", None);
    let doc = telemetry::json::Json::parse(as_str(&stats, "output"))
        .expect("stats payload is fg-metrics/1");
    let pool = doc.get("counters").and_then(|c| c.get("pool")).expect("pool group");
    assert_eq!(
        pool.get("cache_hits").and_then(telemetry::json::Json::as_i64),
        Some(1),
        "the hit is a recorded pool.cache_hits metric"
    );

    daemon.shutdown();
}

/// Diagnostics travel over the wire with the exit-code contract: a
/// type error is ok=false / exit=1, and the client exits 1.
#[test]
fn serve_reports_diagnostics_with_exit_one() {
    let file = temp_file("serve_bad.fg", BAD);
    let daemon = ServeGuard::spawn();
    let (resp, code) = daemon.rpc("check", Some(&file));
    assert_eq!(code, 1, "client mirrors the diagnostic exit");
    assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(false)));
    assert_eq!(resp.get("exit"), Some(&telemetry::json::Json::Int(1)));
    assert!(
        as_str(&resp, "diagnostics").contains("no model for `C<int>`"),
        "diagnostics carried in the response"
    );
    daemon.shutdown();
}

/// Editing a source invalidates its cache entry: the daemon re-checks
/// the paper's Figure 6 after an edit and serves the *new* outcome.
#[test]
fn serve_cache_invalidates_when_fig6_is_edited() {
    let fig6 = fg::corpus::FIG6_OVERLAPPING.source;
    let file = temp_file("serve_fig6.fg", fig6);
    let daemon = ServeGuard::spawn();

    let (resp, _) = daemon.rpc("run", Some(&file));
    assert_eq!(as_str(&resp, "output"), "302\n", "Figure 6 evaluates to 302");
    let (resp, _) = daemon.rpc("run", Some(&file));
    assert_eq!(resp.get("cached"), Some(&telemetry::json::Json::Bool(true)));

    // Edit the program (100 -> 1000 in the final expression): the
    // content hash moves, so the stale entry must not be served.
    let edited = fig6.replace("iadd(imult(100, sum(ls)), product(ls))",
                              "iadd(imult(1000, sum(ls)), product(ls))");
    assert_ne!(edited, fig6, "the edit must change the source");
    std::fs::write(&file, &edited).unwrap();
    let (resp, code) = daemon.rpc("run", Some(&file));
    assert_eq!(code, 0);
    assert_eq!(
        resp.get("cached"),
        Some(&telemetry::json::Json::Bool(false)),
        "edited source is a cache miss"
    );
    assert_eq!(as_str(&resp, "output"), "3002\n", "the new outcome is served");

    daemon.shutdown();
}

/// Malformed requests get a protocol error response; the daemon keeps
/// serving on the same connection, and shuts down while it is open.
#[test]
fn serve_rejects_malformed_requests_and_keeps_serving() {
    use std::net::TcpStream;
    let daemon = ServeGuard::spawn();
    let stream = TcpStream::connect(&daemon.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    for (request, want_error) in [
        ("this is not json", true),
        (r#"{"v":"fg-rpc/9","id":1,"method":"check","source":"true"}"#, true),
        (r#"{"v":"fg-rpc/1","id":2,"method":"frobnicate"}"#, true),
        (r#"{"v":"fg-rpc/1","id":3,"method":"check"}"#, true),
        (r#"{"v":"fg-rpc/1","id":4,"method":"check","source":"true"}"#, false),
    ] {
        writeln!(writer, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = telemetry::json::Json::parse(line.trim()).expect("response is JSON");
        if want_error {
            assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(false)), "{line}");
            assert!(resp.get("error").is_some(), "{line}");
        } else {
            assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(true)), "{line}");
            assert_eq!(as_str(&resp, "output"), "bool\n");
        }
    }
    daemon.shutdown();
}

// ---------------------------------------------------------------------
// Concurrent connections
// ---------------------------------------------------------------------

/// How long a test waits for a reply that a concurrent daemon sends at
/// once, before it counts the daemon as wedged.
const PROMPT: std::time::Duration = std::time::Duration::from_secs(1);

/// A connection to the daemon whose reads give up after [`PROMPT`], so
/// a wedged daemon fails a test instead of hanging it.
fn connect(daemon: &ServeGuard) -> std::net::TcpStream {
    let stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(PROMPT))
        .expect("client timeout");
    stream
}

/// Sends one request line on a fresh connection and reads the reply.
fn request(daemon: &ServeGuard, line: &str) -> telemetry::json::Json {
    let mut stream = connect(daemon);
    writeln!(stream, "{line}").expect("send request");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .unwrap_or_else(|e| panic!("no reply within {PROMPT:?} to {line}: {e}"));
    telemetry::json::Json::parse(reply.trim_end()).expect("reply is JSON")
}

/// A pipeline request line for `source`.
fn pipeline_request(method: &str, source: &str, prelude: bool) -> String {
    format!(
        r#"{{"v":"fg-rpc/1","id":1,"method":"{method}","source":{},"prelude":{prelude}}}"#,
        telemetry::json::escape(source),
    )
}

/// One counter of the `serve` group in the daemon's `stats`.
fn serve_counter(daemon: &ServeGuard, key: &str) -> i64 {
    let stats = request(daemon, r#"{"v":"fg-rpc/1","id":1,"method":"stats"}"#);
    let doc = telemetry::json::Json::parse(as_str(&stats, "output")).expect("fg-metrics/1");
    doc.get("counters")
        .and_then(|c| c.get("serve"))
        .and_then(|g| g.get(key))
        .and_then(telemetry::json::Json::as_i64)
        .unwrap_or_else(|| panic!("no serve.{key} in {doc:?}"))
}

/// One client that connects and sends nothing does not hold up another
/// client's request.
#[test]
fn serve_answers_a_client_while_another_stays_silent() {
    let daemon = ServeGuard::spawn();
    // `connect` returns once the connection waits in the daemon's accept
    // queue, so the silent one is accepted before any later one.
    let silent = connect(&daemon);
    let start = std::time::Instant::now();
    let resp = request(&daemon, &pipeline_request("check", GOOD, false));
    assert!(start.elapsed() < PROMPT, "took {:?}", start.elapsed());
    assert_eq!(as_str(&resp, "output"), "int\n");
    assert!(serve_counter(&daemon, "connections_peak") >= 2);
    assert_eq!(serve_counter(&daemon, "connections_timed_out"), 0);
    // The silent client, the check and three `stats` connections.
    assert_eq!(serve_counter(&daemon, "connections_accepted"), 5);
    drop(silent);
    daemon.shutdown();
}

/// A request line over the size cap gets an error reply and its
/// connection is closed; the next client is served as usual.
#[test]
fn serve_rejects_an_oversized_request_and_serves_the_next_client() {
    use std::io::Read;
    let daemon = ServeGuard::spawn();
    let mut stream = connect(&daemon);
    let huge = pipeline_request("check", &"1".repeat(1 << 20), false);
    writeln!(stream, "{huge}").expect("send request");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("a reply to the oversized line");
    let resp = telemetry::json::Json::parse(reply.trim_end()).expect("reply is JSON");
    assert_eq!(
        resp.get("ok"),
        Some(&telemetry::json::Json::Bool(false)),
        "{reply}"
    );
    assert!(
        as_str(&resp, "error").contains("longer than 1048576 bytes"),
        "{reply}"
    );
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("the daemon closes the connection");
    assert!(rest.is_empty(), "nothing after the error reply");

    let resp = request(&daemon, &pipeline_request("check", GOOD, false));
    assert_eq!(as_str(&resp, "output"), "int\n");
    assert_eq!(serve_counter(&daemon, "requests_oversized"), 1);
    daemon.shutdown();
}

/// `shutdown` ends the daemon (exit 0) at once while another client
/// holds an idle connection open.
#[test]
fn serve_shuts_down_while_a_connection_idles() {
    let mut daemon = ServeGuard::spawn();
    let _idle = connect(&daemon);
    let start = std::time::Instant::now();
    let resp = request(&daemon, r#"{"v":"fg-rpc/1","id":1,"method":"shutdown"}"#);
    assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(true)));
    let status = loop {
        if let Some(status) = daemon.child.try_wait().expect("poll serve") {
            break status;
        }
        assert!(
            start.elapsed() < PROMPT,
            "fg serve still running after shutdown"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(0));
}

/// Two clients translating the examples at the same time, in opposite
/// orders, with and without the prelude, each get exactly what a
/// one-shot `fg translate` prints: concurrent requests share nothing.
#[test]
fn concurrent_translate_matches_one_shot() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("examples")
        .map(|e| e.expect("entry").path().to_string_lossy().into_owned())
        .filter(|p| p.ends_with(".fg"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no examples in {dir}");
    let mut cases = Vec::new();
    for prelude in [false, true] {
        for file in &files {
            let flags: &[&str] = if prelude { &["--prelude"] } else { &[] };
            let (stdout, stderr, code) =
                run_fg(&[flags, &["translate", file.as_str()]].concat(), "");
            let source = std::fs::read_to_string(file).expect("read example");
            cases.push((
                pipeline_request("translate", &source, prelude),
                stdout,
                stderr,
                code,
            ));
        }
    }
    let daemon = ServeGuard::spawn();
    std::thread::scope(|s| {
        for reverse in [false, true] {
            let (cases, daemon) = (&cases, &daemon);
            s.spawn(move || {
                let mut order: Vec<usize> = (0..cases.len()).collect();
                if reverse {
                    order.reverse();
                }
                for i in order {
                    let (line, stdout, stderr, code) = &cases[i];
                    let resp = request(daemon, line);
                    assert_eq!(as_str(&resp, "output"), stdout, "case {i}");
                    assert_eq!(as_str(&resp, "diagnostics"), stderr, "case {i}");
                    assert_eq!(
                        resp.get("exit").and_then(telemetry::json::Json::as_i64),
                        Some(i64::from(*code)),
                        "case {i}"
                    );
                }
            });
        }
    });
    daemon.shutdown();
}

/// `--help` exits 0 and documents every user-facing surface this PR
/// adds (the ci.sh lint stage greps README's flag table against it).
#[test]
fn help_exits_zero_and_mentions_the_new_surfaces() {
    let (stdout, _, code) = run_fg(&["--help"], "");
    assert_eq!(code, 0);
    for needle in ["--jobs", "serve", "rpc", "--prelude", "--inject-fault"] {
        assert!(stdout.contains(needle), "help must mention {needle}: {stdout}");
    }
}

// ---------------------------------------------------------------------
// Generated names: a function of the program alone
// ---------------------------------------------------------------------

/// A prelude body, and a body that binds the name the prelude's
/// `Monoid<int>` dictionary gets (`Monoid_2`).
const BODY: &str = "accumulate[int](range(1, 5))";
const CAPTURE: &str = "let Monoid_2 = 7 in iadd(Monoid_2, accumulate[int](range(1, 5)))";

/// Parses, typechecks and evaluates a printed translation, as any System
/// F consumer would (on a big stack: the prelude's let chain is deep).
fn eval_translation(text: &str) -> String {
    let text = text.to_owned();
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let term = system_f::parse_term(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            if let Err(e) = system_f::typecheck(&term) {
                panic!("ill-typed translation: {e}: {text}");
            }
            system_f::eval(&term).expect("evaluates").to_string()
        })
        .expect("spawn")
        .join()
        .expect("translation checks")
}

/// A body checked after another on a worker's cached prelude gets the
/// names it gets alone: its `Monoid_2` is not captured by the prelude's.
#[test]
fn batch_prelude_does_not_capture_a_body_binder() {
    let body = temp_file("names_body.fg", BODY);
    let capture = temp_file("names_capture.fg", CAPTURE);
    for lane in ["run", "vm", "direct"] {
        let (alone, _, _) = run_fg(&["--prelude", lane, &capture], "");
        assert_eq!(alone, "17\n", "{lane} alone");
        let args = ["--jobs", "1", "--prelude", lane, &body, &capture];
        let (out, err, code) = run_fg(&args, "");
        assert_eq!((out.as_str(), code), ("10\n17\n", 0), "{lane}: {err}");
    }
    let args = ["--jobs", "1", "--prelude", "translate", &body, &capture];
    let (out, err, code) = run_fg(&args, "");
    assert_eq!(code, 0, "{err}");
    let values: Vec<String> = out.lines().map(eval_translation).collect();
    assert_eq!(values, ["10", "17"]);
}

/// The same two bodies through one daemon worker.
#[test]
fn serve_prelude_does_not_capture_a_body_binder() {
    let body = temp_file("names_serve_body.fg", BODY);
    let capture = temp_file("names_serve_capture.fg", CAPTURE);
    let daemon = ServeGuard::spawn_with(&["--jobs", "1"]);
    for lane in ["run", "vm", "direct", "translate"] {
        for (file, want) in [(&body, "10"), (&capture, "17")] {
            let (resp, code) = daemon.rpc_with(&["--prelude"], lane, Some(file));
            assert_eq!(code, 0, "{lane} of {file}: {resp:?}");
            let out = as_str(&resp, "output");
            let got = match lane {
                "translate" => eval_translation(out.trim_end()),
                _ => out.trim_end().to_owned(),
            };
            assert_eq!(got, want, "{lane} of {file}");
        }
    }
    daemon.shutdown();
}

/// A program's own `Monoid_0` is never a generated dictionary name,
/// alone or after another program in the same batch.
#[test]
fn generated_names_skip_the_programs_identifiers() {
    // The model's dictionary is the first name generated: `Monoid_0`
    // unless the program's own is reserved.
    let source = "
        concept Monoid<t> { binary_op : fn(t, t) -> t; identity_elt : t; } in
        let Monoid_0 = 5 in
        model Monoid<int> { binary_op = iadd; identity_elt = 2; } in
        iadd(Monoid_0, Monoid<int>.identity_elt)
    ";
    let file = temp_file("names_monoid_0.fg", source);
    let fig5 = format!(
        "{}/../../examples/fig5_accumulate.fg",
        env!("CARGO_MANIFEST_DIR")
    );
    for lane in ["run", "vm", "direct"] {
        let (out, err, code) = run_fg(&[lane, &file], "");
        assert_eq!((out.as_str(), code), ("7\n", 0), "{lane}: {err}");
        let (out, err, _) = run_fg(&["--jobs", "1", lane, &fig5, &file], "");
        assert_eq!(out, "3\n7\n", "{lane} after fig5: {err}");
    }
    let (out, err, code) = run_fg(&["translate", &file], "");
    assert_eq!(code, 0, "{err}");
    assert_eq!(eval_translation(out.trim_end()), "7");
}

/// The methods that print generated names print the same bytes for
/// both examples alone, in `--jobs` batches of every width and order,
/// and from a daemon on a cache miss and on a hit.
#[test]
fn generated_names_do_not_depend_on_history() {
    let examples = ["fig5_accumulate.fg", "fig6_overlapping.fg"]
        .map(|f| format!("{}/../../examples/{f}", env!("CARGO_MANIFEST_DIR")));
    let daemon = ServeGuard::spawn();
    for method in ["translate", "elaborate", "bytecode", "explain"] {
        for flags in [&[][..], &["--prelude"][..]] {
            let alone: Vec<String> = examples
                .iter()
                .map(|f| run_fg(&[flags, &[method, f.as_str()]].concat(), "").0)
                .collect();
            for jobs in ["1", "2", "4"] {
                for [x, y] in [[0, 1], [1, 0]] {
                    let batch = ["--jobs", jobs, method, &examples[x], &examples[y]];
                    let (out, err, _) = run_fg(&[flags, &batch[..]].concat(), "");
                    assert_eq!(
                        out,
                        format!("{}{}", alone[x], alone[y]),
                        "{method} {flags:?} --jobs {jobs} {x}{y}: {err}"
                    );
                }
            }
            for (file, alone) in examples.iter().zip(&alone) {
                for cached in [false, true] {
                    let (resp, _) = daemon.rpc_with(flags, method, Some(file));
                    assert_eq!(
                        resp.get("cached"),
                        Some(&telemetry::json::Json::Bool(cached)),
                        "{method} {flags:?} {file}"
                    );
                    assert_eq!(as_str(&resp, "output"), alone, "{method} {flags:?} {file}");
                }
            }
        }
    }
    daemon.shutdown();
}
