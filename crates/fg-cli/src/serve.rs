//! `fg serve` — a check daemon speaking `fg-rpc/1`, line-delimited JSON
//! over TCP — and `fg rpc`, its one-shot client.
//!
//! # Protocol (`fg-rpc/1`)
//!
//! One request per line, one response per line. Requests:
//!
//! ```text
//! {"v":"fg-rpc/1","id":1,"method":"check","source":"iadd(1, 2)","prelude":false}
//! {"v":"fg-rpc/1","id":2,"method":"stats"}
//! {"v":"fg-rpc/1","id":3,"method":"shutdown"}
//! ```
//!
//! `method` is any pipeline command (`check`, `explain`, `run`,
//! `direct`, `translate`, `elaborate`, `vm`, `bytecode`, `fmt`, `ast`)
//! or one of the daemon methods `stats`, `shutdown`.
//! Responses:
//!
//! ```text
//! {"v":"fg-rpc/1","id":1,"ok":true,"exit":0,"cached":false,"output":"int\n","diagnostics":""}
//! {"v":"fg-rpc/1","id":9,"ok":false,"error":"..."}        (malformed request)
//! ```
//!
//! `exit` carries the CLI exit-code contract (0 ok, 1 diagnostic,
//! 3 caught crash); `output`/`diagnostics` are the buffered stdout and
//! stderr of the request. `stats` returns its fg-metrics/1 JSON
//! document as a string in `output`.
//!
//! # Execution model
//!
//! Requests dispatch onto the same [`fg::pool::WorkerPool`] as
//! `--jobs` batches, each under a fresh [`telemetry::limits::Budget`]
//! from the server's CLI flags, each isolated by `catch_unwind`.
//! Finished pipeline outcomes are memoized in a content-hash
//! [`fg::pool::CompileCache`]; a repeated identical request is a
//! recorded `pool.cache_hits` hit that replays the buffered outcome
//! without re-checking. Connections are accepted sequentially — the
//! parallelism is per-batch inside the pool, and the intended client is
//! a build driver holding one connection.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use telemetry::json::{self, Json};
use telemetry::trace::Tracer;
use telemetry::Metrics;

use crate::{CachedRun, Flags, EXIT_CRASH, EXIT_DIAGNOSTIC, PIPELINE_METHODS};

/// Compile-cache bound for the daemon (epoch-flushed when exceeded).
const CACHE_CAPACITY: usize = 4096;

/// Shared daemon state: the pool, the cache, and the server's limits.
struct Daemon {
    pool: fg::pool::WorkerPool,
    cache: Arc<fg::pool::CompileCache<CachedRun>>,
    limits: telemetry::limits::Limits,
    limits_key: String,
    default_prelude: bool,
}

/// `fg serve --addr <host:port>`: binds, prints the bound address (so
/// `--addr 127.0.0.1:0` is discoverable), and serves until a `shutdown`
/// request. Returns 0 on a clean shutdown.
pub fn serve_main(flags: &Flags, args: &[String]) -> u8 {
    let Some(addr) = parse_addr(args) else {
        crate::print_err("fg: serve: expected `--addr <host:port>`\n");
        return crate::usage();
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            crate::print_err(&format!("fg: serve: cannot bind {addr}: {e}\n"));
            return EXIT_DIAGNOSTIC;
        }
    };
    let local = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(_) => addr.clone(),
    };
    let pool = match fg::pool::WorkerPool::new(flags.jobs_resolved()) {
        Ok(p) => p,
        Err(e) => {
            crate::print_err(&format!("fg: serve: cannot spawn worker pool: {e}\n"));
            return EXIT_CRASH;
        }
    };
    let limits = flags.limits();
    let daemon = Daemon {
        pool,
        cache: Arc::new(fg::pool::CompileCache::new(CACHE_CAPACITY)),
        limits,
        limits_key: format!("{limits:?}"),
        default_prelude: flags.use_prelude,
    };
    // The bound address is the daemon's one startup line: clients (and
    // the CI smoke test) read it to discover a port-0 allocation.
    crate::print_out(&format!("fg: serving fg-rpc/1 on {local}\n"));

    for stream in listener.incoming() {
        match stream {
            Ok(stream) => match handle_connection(stream, &daemon) {
                ConnOutcome::KeepServing => {}
                ConnOutcome::Shutdown => return 0,
            },
            Err(e) => {
                crate::print_err(&format!("fg: serve: accept failed: {e}\n"));
            }
        }
    }
    0
}

/// What a finished connection tells the accept loop.
enum ConnOutcome {
    KeepServing,
    Shutdown,
}

/// Serves one connection: request per line, response per line, until
/// EOF or a `shutdown` request.
fn handle_connection(stream: TcpStream, daemon: &Daemon) -> ConnOutcome {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            crate::print_err(&format!("fg: serve: cannot clone connection: {e}\n"));
            return ConnOutcome::KeepServing;
        }
    };
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => return ConnOutcome::KeepServing,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handle_request(&line, daemon);
        if writeln!(writer, "{response}").is_err() || writer.flush().is_err() {
            return ConnOutcome::KeepServing;
        }
        if shutdown {
            return ConnOutcome::Shutdown;
        }
    }
    ConnOutcome::KeepServing
}

/// Parses and dispatches one request line; returns the one-line
/// response and whether the daemon should shut down.
fn handle_request(line: &str, daemon: &Daemon) -> (String, bool) {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return (error_response(0, &format!("bad request: {e}")), false),
    };
    let id = req.get("id").and_then(Json::as_i64).unwrap_or(0);
    if req.get("v").and_then(Json::as_str) != Some("fg-rpc/1") {
        return (error_response(id, "unsupported protocol: expected v=\"fg-rpc/1\""), false);
    }
    let Some(method) = req.get("method").and_then(Json::as_str) else {
        return (error_response(id, "missing method"), false);
    };
    match method {
        "shutdown" => (
            format!("{{\"v\":\"fg-rpc/1\",\"id\":{id},\"ok\":true,\"exit\":0,\"shutdown\":true}}"),
            true,
        ),
        "stats" => {
            let mut metrics = Metrics::new();
            metrics.set_command("serve");
            metrics.set_source("<daemon>");
            crate::record_pool_stats(
                &mut metrics,
                daemon.pool.jobs(),
                &daemon.pool.stats(),
                &daemon.cache,
            );
            (doc_response(id, &metrics.to_json()), false)
        }
        m if PIPELINE_METHODS.contains(&m) => {
            let Some(source) = req.get("source").and_then(Json::as_str) else {
                return (error_response(id, "missing source"), false);
            };
            let prelude = req
                .get("prelude")
                .and_then(Json::as_bool)
                .unwrap_or(daemon.default_prelude);
            (pipeline_response(id, m, source, prelude, daemon), false)
        }
        other => (error_response(id, &format!("unknown method `{other}`")), false),
    }
}

/// Runs a pipeline method on the pool, consulting the compile cache
/// first. The cache key covers everything that determines the outcome:
/// method, prelude flag, server limits, and the source text.
fn pipeline_response(id: i64, method: &str, source: &str, prelude: bool, daemon: &Daemon) -> String {
    let key = fg::pool::fnv1a(&[
        method.as_bytes(),
        &[u8::from(prelude)],
        daemon.limits_key.as_bytes(),
        source.as_bytes(),
    ]);
    if let Some((code, stdout, stderr)) = daemon.cache.lookup(key) {
        return run_response(id, code, true, &stdout, &stderr);
    }
    let method_owned = method.to_owned();
    let source_owned = source.to_owned();
    let limits = daemon.limits;
    let outcome = daemon.pool.run_one(move || {
        let tracer = if method_owned == "explain" {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let output = crate::run_request(
            &method_owned,
            "<rpc>",
            &source_owned,
            prelude,
            limits,
            &tracer,
        );
        (output.code, output.stdout, output.stderr)
    });
    match outcome {
        Ok((code, stdout, stderr)) => {
            daemon.cache.insert(key, (code, stdout.clone(), stderr.clone()));
            run_response(id, code, false, &stdout, &stderr)
        }
        Err(panic) => crash_response(id, &panic),
    }
}

/// A successful (possibly nonzero-exit) pipeline response.
fn run_response(id: i64, code: u8, cached: bool, stdout: &str, stderr: &str) -> String {
    format!(
        "{{\"v\":\"fg-rpc/1\",\"id\":{id},\"ok\":{},\"exit\":{code},\"cached\":{cached},\"output\":{},\"diagnostics\":{}}}",
        code == 0,
        json::escape(stdout),
        json::escape(stderr),
    )
}

/// A response carrying a whole JSON document (the `stats`
/// fg-metrics/1 report) as a string payload.
fn doc_response(id: i64, doc: &str) -> String {
    format!(
        "{{\"v\":\"fg-rpc/1\",\"id\":{id},\"ok\":true,\"exit\":0,\"output\":{}}}",
        json::escape(doc),
    )
}

/// A caught-panic response: the request crashed the pipeline, the
/// daemon is fine (exit-code 3 contract over the wire).
fn crash_response(id: i64, panic: &str) -> String {
    format!(
        "{{\"v\":\"fg-rpc/1\",\"id\":{id},\"ok\":false,\"exit\":{EXIT_CRASH},\"cached\":false,\"output\":\"\",\"diagnostics\":{}}}",
        json::escape(&format!("fg: internal error: pipeline crashed: {panic}\n")),
    )
}

/// A protocol-level error response (malformed request, unknown method).
fn error_response(id: i64, msg: &str) -> String {
    format!(
        "{{\"v\":\"fg-rpc/1\",\"id\":{id},\"ok\":false,\"error\":{}}}",
        json::escape(msg),
    )
}

/// Pulls `--addr <value>` out of a subcommand argument list.
fn parse_addr(args: &[String]) -> Option<String> {
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--addr" {
            return args.get(i + 1).cloned();
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------
// fg rpc — the one-shot client
// ---------------------------------------------------------------------

/// `fg rpc --addr <host:port> <method> [file.fg|-]`: sends one
/// `fg-rpc/1` request, prints the response payload, and maps the
/// response back onto the CLI exit-code contract. The tests and ci.sh
/// use this as the protocol's reference client.
pub fn rpc_main(flags: &Flags, args: &[String]) -> u8 {
    let Some(addr) = parse_addr(args) else {
        crate::print_err("fg: rpc: expected `--addr <host:port>`\n");
        return crate::usage();
    };
    let positional: Vec<&String> = {
        let mut rest = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--addr" {
                i += 2;
                continue;
            }
            rest.push(&args[i]);
            i += 1;
        }
        rest
    };
    let Some(method) = positional.first() else {
        crate::print_err("fg: rpc: expected a method (`check`, `stats`, `shutdown`, ...)\n");
        return crate::usage();
    };
    let mut request = format!(
        "{{\"v\":\"fg-rpc/1\",\"id\":1,\"method\":{}",
        json::escape(method),
    );
    if PIPELINE_METHODS.contains(&method.as_str()) {
        let Some(path) = positional.get(1) else {
            crate::print_err(&format!("fg: rpc: method `{method}` needs a file argument\n"));
            return crate::usage();
        };
        let source = match crate::read_source(path) {
            Ok(s) => s,
            Err(e) => {
                crate::print_err(&format!("fg: cannot read {path}: {e}\n"));
                return EXIT_DIAGNOSTIC;
            }
        };
        let _ = write!(
            request,
            ",\"source\":{},\"prelude\":{}",
            json::escape(&source),
            flags.use_prelude,
        );
    }
    request.push('}');

    let stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            crate::print_err(&format!("fg: rpc: cannot connect to {addr}: {e}\n"));
            return EXIT_DIAGNOSTIC;
        }
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            crate::print_err(&format!("fg: rpc: cannot clone connection: {e}\n"));
            return EXIT_DIAGNOSTIC;
        }
    });
    let mut writer = BufWriter::new(stream);
    if writeln!(writer, "{request}").is_err() || writer.flush().is_err() {
        crate::print_err("fg: rpc: cannot send request\n");
        return EXIT_DIAGNOSTIC;
    }
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) | Err(_) => {
            crate::print_err("fg: rpc: connection closed before a response arrived\n");
            return EXIT_DIAGNOSTIC;
        }
        Ok(_) => {}
    }
    // The raw response line is the client's stdout: scripts pipe it
    // into a JSON-aware consumer.
    crate::print_out(&format!("{}\n", response.trim_end()));
    let Ok(parsed) = Json::parse(response.trim_end()) else {
        crate::print_err("fg: rpc: response is not valid JSON\n");
        return EXIT_DIAGNOSTIC;
    };
    match parsed.get("exit").and_then(Json::as_i64) {
        Some(code) => u8::try_from(code).unwrap_or(EXIT_CRASH),
        // Protocol-level error with no exit code: a usage-shaped error.
        None => crate::EXIT_USAGE,
    }
}
