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
//! without re-checking.
//!
//! # Connections
//!
//! Connections are served concurrently by a fixed set of handler
//! threads, [`HANDLERS_PER_WORKER`] per pool worker and never fewer
//! than [`MIN_HANDLERS`]. Each handler calls `accept` on the shared
//! listener itself and serves that connection to its end; no thread is
//! spawned per connection. Handlers do only socket I/O and JSON on
//! default-sized stacks: every pipeline run goes to the pool's workers,
//! so the per-worker prelude snapshot and allocator memory stay bounded
//! by `--jobs`. Scoped models make requests shared-nothing, so
//! concurrent requests cannot change one another's output.
//!
//! Three limits keep one client from holding a handler for long:
//!
//! - A request line must arrive whole within [`READ_TIMEOUT`] of the
//!   moment the handler starts waiting for it. A connection that stays
//!   silent (or trickles bytes) that long is closed without a reply.
//! - A reply that the client does not read within [`WRITE_TIMEOUT`]
//!   closes the connection.
//! - A request line longer than [`MAX_REQUEST_BYTES`] gets an `ok:false`
//!   error reply, and the connection is closed.
//!
//! While every handler holds a connection, new connections wait in the
//! listen backlog; the read timeout bounds that wait. `shutdown` is
//! answered (written and flushed) by the handler that receives it, which
//! then wakes `serve_main`; the process exits at once with code 0,
//! without waiting for handlers blocked in `accept` or on idle clients.
//!
//! `stats` adds the `serve` counter group: connections accepted, peak
//! concurrent connections, connections closed by the read timeout, and
//! requests rejected for size.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use telemetry::json::{self, Json};
use telemetry::trace::Tracer;
use telemetry::Metrics;

use crate::{CachedRun, Flags, EXIT_CRASH, EXIT_DIAGNOSTIC, PIPELINE_METHODS};

/// Compile-cache bound for the daemon (epoch-flushed when exceeded).
const CACHE_CAPACITY: usize = 4096;

/// Connection-handler threads per pool worker: enough that every worker
/// has a request to run while other handlers read or write sockets.
const HANDLERS_PER_WORKER: usize = 2;

/// The fewest handler threads, so that a couple of silent clients on a
/// one-worker daemon still leave a handler free.
const MIN_HANDLERS: usize = 4;

/// How long a connection may take to deliver one whole request line,
/// counted from when the handler starts waiting for it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How long one reply write may block on a client that does not read.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The longest request line accepted, in bytes (without its newline).
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The per-connection limits, gathered so tests can shorten them.
#[derive(Clone, Copy)]
struct ConnLimits {
    read_timeout: Duration,
    write_timeout: Duration,
    max_request_bytes: usize,
}

/// The limits `fg serve` runs under.
const CONN_LIMITS: ConnLimits = ConnLimits {
    read_timeout: READ_TIMEOUT,
    write_timeout: WRITE_TIMEOUT,
    max_request_bytes: MAX_REQUEST_BYTES,
};

/// Shared daemon state: the pool, the cache, the server's limits and
/// the connection counters.
struct Daemon {
    pool: fg::pool::WorkerPool,
    cache: Arc<fg::pool::CompileCache<CachedRun>>,
    limits: telemetry::limits::Limits,
    limits_key: String,
    default_prelude: bool,
    conn: ConnLimits,
    counters: ConnCounters,
}

/// The `serve` counter group reported by `stats`.
#[derive(Default)]
struct ConnCounters {
    accepted: AtomicU64,
    open: AtomicU64,
    peak: AtomicU64,
    timed_out: AtomicU64,
    oversized: AtomicU64,
}

impl ConnCounters {
    /// Counts a newly accepted connection as open until the guard drops.
    fn open(&self) -> OpenConn<'_> {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let now = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        OpenConn(self)
    }

    fn record(&self, metrics: &mut Metrics) {
        for (key, counter) in [
            ("connections_accepted", &self.accepted),
            ("connections_peak", &self.peak),
            ("connections_timed_out", &self.timed_out),
            ("requests_oversized", &self.oversized),
        ] {
            metrics.set_counter("serve", key, counter.load(Ordering::Relaxed));
        }
    }
}

/// An open connection, counted in [`ConnCounters::open`].
struct OpenConn<'a>(&'a ConnCounters);

impl Drop for OpenConn<'_> {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::Relaxed);
    }
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
    let daemon = match Daemon::new(flags, CONN_LIMITS) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            crate::print_err(&format!("fg: serve: cannot spawn worker pool: {e}\n"));
            return EXIT_CRASH;
        }
    };
    let handlers = (HANDLERS_PER_WORKER * daemon.pool.jobs()).max(MIN_HANDLERS);
    // The bound address is the daemon's one startup line: clients (and
    // the CI smoke test) read it to discover a port-0 allocation.
    crate::print_out(&format!("fg: serving fg-rpc/1 on {local}\n"));
    match serve(listener, &daemon, handlers) {
        Ok(()) => 0,
        Err(e) => {
            crate::print_err(&format!("fg: serve: {e}\n"));
            EXIT_CRASH
        }
    }
}

impl Daemon {
    fn new(flags: &Flags, conn: ConnLimits) -> io::Result<Daemon> {
        let limits = flags.limits();
        Ok(Daemon {
            pool: fg::pool::WorkerPool::new(flags.jobs_resolved())?,
            cache: Arc::new(fg::pool::CompileCache::new(CACHE_CAPACITY)),
            limits,
            limits_key: format!("{limits:?}"),
            default_prelude: flags.use_prelude,
            conn,
            counters: ConnCounters::default(),
        })
    }
}

/// Starts `handlers` threads that accept and serve connections on
/// `listener`, and returns once one of them has answered `shutdown`.
/// The handlers are never joined: they may be blocked in `accept` or on
/// an idle client, and the process exits when `serve_main` returns.
fn serve(listener: TcpListener, daemon: &Arc<Daemon>, handlers: usize) -> io::Result<()> {
    let listener = Arc::new(listener);
    let (shutdown, requested) = mpsc::channel();
    for id in 0..handlers {
        let (listener, daemon, shutdown) =
            (Arc::clone(&listener), Arc::clone(daemon), shutdown.clone());
        std::thread::Builder::new()
            .name(format!("fg-serve-{id}"))
            .spawn(move || accept_loop(&listener, &daemon, &shutdown))
            .map_err(|e| io::Error::other(format!("cannot spawn connection handler: {e}")))?;
    }
    drop(shutdown);
    // Every handler holds a sender, so this fails only if all of them
    // are gone without a shutdown.
    requested
        .recv()
        .map_err(|_| io::Error::other("every connection handler exited"))
}

/// One handler thread: accept a connection, serve it to its end, repeat
/// until a connection asks for `shutdown`.
fn accept_loop(listener: &TcpListener, daemon: &Daemon, shutdown: &mpsc::Sender<()>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if let ConnOutcome::Shutdown = handle_connection(stream, daemon) {
                    let _ = shutdown.send(());
                    return;
                }
            }
            Err(e) => crate::print_err(&format!("fg: serve: accept failed: {e}\n")),
        }
    }
}

/// What a finished connection tells its handler.
enum ConnOutcome {
    KeepServing,
    Shutdown,
}

/// Serves one connection: request per line, response per line, until
/// EOF, a read timeout, an oversized request or a `shutdown` request.
fn handle_connection(stream: TcpStream, daemon: &Daemon) -> ConnOutcome {
    let _open = daemon.counters.open();
    let conn = daemon.conn;
    let reader = match stream
        .set_write_timeout(Some(conn.write_timeout))
        .and_then(|()| stream.try_clone())
    {
        Ok(s) => s,
        Err(e) => {
            crate::print_err(&format!("fg: serve: cannot set up connection: {e}\n"));
            return ConnOutcome::KeepServing;
        }
    };
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        let (response, shutdown) = match read_request(&mut reader, &mut line, &conn) {
            Incoming::Line => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => handle_request(text, daemon),
                Err(_) => (error_response(0, "bad request: not UTF-8"), false),
            },
            Incoming::Closed => return ConnOutcome::KeepServing,
            Incoming::TimedOut => {
                daemon.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                return ConnOutcome::KeepServing;
            }
            Incoming::TooLong => {
                daemon.counters.oversized.fetch_add(1, Ordering::Relaxed);
                let msg = format!("request line longer than {} bytes", conn.max_request_bytes);
                if writeln!(writer, "{}", error_response(0, &msg)).is_ok() && writer.flush().is_ok()
                {
                    linger(&mut reader, &conn);
                }
                return ConnOutcome::KeepServing;
            }
        };
        if writeln!(writer, "{response}").is_err() || writer.flush().is_err() {
            return ConnOutcome::KeepServing;
        }
        if shutdown {
            return ConnOutcome::Shutdown;
        }
    }
}

/// How a wait for the next request line ended.
enum Incoming {
    /// A request line is in the buffer (its newline, and a `\r` before
    /// it, stripped). The last line before EOF needs no newline.
    Line,
    /// EOF before any byte of a line, or a socket error.
    Closed,
    /// The line did not arrive within the read timeout.
    TimedOut,
    /// The line exceeds the size cap.
    TooLong,
}

/// Reads the next request line into `line`. The whole line must arrive
/// within `conn.read_timeout` and fit in `conn.max_request_bytes`.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    conn: &ConnLimits,
) -> Incoming {
    line.clear();
    let deadline = Instant::now() + conn.read_timeout;
    loop {
        match fill_by(reader, deadline) {
            Ok(true) => {}
            Ok(false) if line.is_empty() => return Incoming::Closed,
            Ok(false) => return Incoming::Line,
            // An expired socket timeout reads as `WouldBlock` on Unix.
            Err(e) => {
                return match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Incoming::TimedOut,
                    _ => Incoming::Closed,
                }
            }
        }
        let buf = reader.buffer();
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(buf.len());
        if line.len() + take > conn.max_request_bytes {
            return Incoming::TooLong;
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Incoming::Line;
        }
    }
}

/// Makes sure `reader`'s buffer holds unread bytes, reading with the
/// socket's read timeout set to what is left until `deadline`. Returns
/// `false` at EOF.
fn fill_by(reader: &mut BufReader<TcpStream>, deadline: Instant) -> io::Result<bool> {
    if !reader.buffer().is_empty() {
        return Ok(true);
    }
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        reader.get_ref().set_read_timeout(Some(left))?;
        match reader.fill_buf() {
            Ok(buf) => return Ok(!buf.is_empty()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Closes a connection whose client may still be sending: stops
/// sending, then discards what arrives until the client closes or the
/// read timeout passes. Closing with unread input would reset the
/// connection and could destroy the reply before the client reads it.
fn linger(reader: &mut BufReader<TcpStream>, conn: &ConnLimits) {
    let _ = reader.get_ref().shutdown(Shutdown::Write);
    let deadline = Instant::now() + conn.read_timeout;
    while let Ok(true) = fill_by(reader, deadline) {
        let n = reader.buffer().len();
        reader.consume(n);
    }
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
            daemon.counters.record(&mut metrics);
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

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use super::{serve, ConnLimits, Daemon};
    use crate::Flags;

    /// A connection is closed once it has been silent for the read
    /// timeout, whether it sent nothing since its last reply or stopped
    /// inside a request line, and each closure is counted.
    #[test]
    fn silent_connections_are_closed_at_the_read_timeout() {
        let read_timeout = Duration::from_millis(200);
        let conn = ConnLimits {
            read_timeout,
            write_timeout: Duration::from_secs(5),
            max_request_bytes: 1024,
        };
        let flags = Flags {
            jobs: Some(1),
            ..Flags::default()
        };
        let daemon = Arc::new(Daemon::new(&flags, conn).expect("pool"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        let server = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || serve(listener, &daemon, 2))
        };
        let connect = || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("client timeout");
            stream
        };
        // Closed after a reply, then mid-line: each read ends in EOF
        // once the handler gives up, not before.
        let mut answered = connect();
        let check = r#"{"v":"fg-rpc/1","id":1,"method":"check","source":"true"}"#;
        writeln!(answered, "{check}").expect("send");
        let mut reader = BufReader::new(answered.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.contains(r#""output":"bool\n""#), "{reply}");
        let mut partial = connect();
        partial.write_all(br#"{"v":"fg-rpc/1","#).expect("send");
        let start = Instant::now();
        for stream in [&mut reader as &mut dyn Read, &mut partial] {
            let mut rest = Vec::new();
            let read = stream.read_to_end(&mut rest);
            read.expect("EOF, not a client timeout");
            assert!(rest.is_empty(), "no reply to a timed-out line: {rest:?}");
        }
        assert!(start.elapsed() >= read_timeout - Duration::from_millis(50));
        assert_eq!(daemon.counters.timed_out.load(Ordering::Relaxed), 2);
        assert_eq!(daemon.counters.accepted.load(Ordering::Relaxed), 2);

        let mut stop = connect();
        writeln!(stop, r#"{{"v":"fg-rpc/1","id":2,"method":"shutdown"}}"#).expect("send");
        let served = server.join().expect("serve thread");
        served.expect("clean shutdown");
    }
}
