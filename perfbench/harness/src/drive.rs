//! Driving the real `fg` binary: the `fg serve` daemon over `fg-rpc/1`,
//! `fg --jobs N run` batch processes, and the answer-key checks of every
//! reply.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use telemetry::json::{self, Json};

use crate::inputs::{Answer, Input, Method};

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A running `fg serve --addr 127.0.0.1:0`. Dropping it kills and reaps
/// the process; [`Daemon::shutdown`] stops it cleanly.
pub struct Daemon {
    child: Child,
    addr: String,
}

/// One `fg-rpc/1` pipeline reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub exit: u8,
    pub cached: bool,
    pub output: String,
}

impl Daemon {
    /// Spawns the daemon and waits for its banner, which names the port.
    pub fn spawn(fg: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(fg)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut banner = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut banner));
        let addr = banner.trim().rsplit_once(" on ").map(|(_, a)| a.to_owned());
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(invalid(format!("fg serve printed no address: {banner:?}")))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a connection of its own, as `fg rpc` does (the
    /// daemon serves one connection at a time).
    fn call_raw(&self, line: &str) -> io::Result<Json> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        crate::sys::reset_on_close(&stream)?;
        let mut writer = &stream;
        writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply)?;
        Json::parse(reply.trim_end()).map_err(invalid)
    }

    /// Sends one pipeline request and parses the reply. A protocol error
    /// (no `exit`) is an `Err`.
    pub fn call(&self, input: &Input, id: u64) -> io::Result<Reply> {
        let line = format!(
            "{{\"v\":\"fg-rpc/1\",\"id\":{id},\"method\":\"{}\",\"source\":{},\"prelude\":{}}}\n",
            input.method.name(),
            json::escape(&input.source),
            input.prelude,
        );
        let reply = self.call_raw(&line)?;
        let exit = reply
            .get("exit")
            .and_then(Json::as_i64)
            .and_then(|e| u8::try_from(e).ok())
            .ok_or_else(|| invalid(format!("no exit code in reply {reply:?}")))?;
        Ok(Reply {
            exit,
            cached: reply.get("cached").and_then(Json::as_bool).unwrap_or(false),
            output: reply
                .get("output")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        })
    }

    /// The daemon's `pool` counter group, from its `stats` method.
    pub fn pool_counters(&self) -> io::Result<HashMap<String, f64>> {
        let reply = self.call_raw("{\"v\":\"fg-rpc/1\",\"id\":0,\"method\":\"stats\"}\n")?;
        let doc = reply
            .get("output")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("stats reply has no output"))?;
        pool_group(doc)
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let sent = self.call_raw("{\"v\":\"fg-rpc/1\",\"id\":0,\"method\":\"shutdown\"}\n");
        if sent.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait()?;
        sent?;
        if status.success() {
            Ok(())
        } else {
            Err(invalid(format!("fg serve exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `pool` counter group of an `fg-metrics/1` document.
pub fn pool_group(doc: &str) -> io::Result<HashMap<String, f64>> {
    let doc = Json::parse(doc).map_err(invalid)?;
    let Some(Json::Obj(pool)) = doc.get("counters").and_then(|c| c.get("pool")) else {
        return Err(invalid("fg-metrics/1 document has no pool group"));
    };
    Ok(pool
        .iter()
        .filter_map(|(k, v)| v.as_i64().map(|n| (k.clone(), n as f64)))
        .collect())
}

/// Runs `fg --jobs <jobs> run` over a batch written to `dir`, returning
/// the exit code, stdout, and the wall time from spawn to exit.
pub fn run_batch(
    fg: &Path,
    jobs: usize,
    dir: &Path,
    batch: &[Input],
    extra: &[&str],
) -> io::Result<(u8, String, f64)> {
    let mut files: Vec<PathBuf> = Vec::with_capacity(batch.len());
    for (k, input) in batch.iter().enumerate() {
        let path = dir.join(format!("b{k}.fg"));
        std::fs::write(&path, input.full_source())?;
        files.push(path);
    }
    let method = batch.first().map_or("run", |i| i.method.name());
    let start = Instant::now();
    let out = Command::new(fg)
        .arg("--jobs")
        .arg(jobs.to_string())
        .args(extra)
        .arg(method)
        .args(&files)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()?;
    let secs = start.elapsed().as_secs_f64();
    let code = out
        .status
        .code()
        .and_then(|c| u8::try_from(c).ok())
        .unwrap_or(255);
    let stdout = String::from_utf8(out.stdout).map_err(|e| invalid(e.to_string()))?;
    Ok((code, stdout, secs))
}

/// The stdout a batch must print: each program's expected stdout, in input
/// order.
pub fn batch_expected(batch: &[Input]) -> Option<String> {
    batch.iter().map(|i| i.expected_stdout().1).collect()
}

// ---------------------------------------------------------------------
// Answer-key checks
// ---------------------------------------------------------------------

/// The outcome of checking one reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the answer key, byte for byte.
    Ok,
    /// A correct `translate` (it typechecks and evaluates to the expected
    /// value) whose text differs from a fresh `fg translate` of the same
    /// source: the output depends on what the process ran before. Counted
    /// against `ok_share`, reported per method, and not a wrong answer.
    Impure,
    /// A wrong exit code, type or value, a refused or failed request, or
    /// a translation that is not a correct program.
    Wrong,
}

/// Checks a reply whose key is known without running `fg`: every method
/// except the text of a successful `translate` (see [`TranslateKeys`]).
pub fn check_reply(input: &Input, reply: &Reply) -> Option<Verdict> {
    let (exit, stdout) = input.expected_stdout();
    let verdict = match &stdout {
        Some(stdout) if reply.exit == exit && reply.output == *stdout => Verdict::Ok,
        None if reply.exit == exit => return None,
        _ => Verdict::Wrong,
    };
    if verdict == Verdict::Wrong {
        report_wrong(
            &format!(
                "{} {} of {}",
                input.method.name(),
                input.family,
                input.source
            ),
            &format!("exit {exit}: {}", stdout.unwrap_or_default()),
            &format!("exit {}: {}", reply.exit, reply.output),
        );
    }
    Some(verdict)
}

/// Prints the first few wrong replies of a run to stderr.
pub fn report_wrong(what: &str, expected: &str, got: &str) {
    static SHOWN: AtomicUsize = AtomicUsize::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
        let clip = |s: &str| s.chars().take(300).collect::<String>();
        eprintln!(
            "wrong reply: {}\n  expected {}\n  got      {}",
            clip(what),
            clip(expected),
            clip(got)
        );
    }
}

/// Answer keys for `translate` replies: a fresh `fg translate` process per
/// distinct source (the purity rule: the same source must give the same
/// bytes whatever ran before), plus a check that the reply itself is a
/// correct translation.
#[derive(Default)]
pub struct TranslateKeys {
    fresh: HashMap<(bool, String), String>,
    semantic: HashMap<(String, String), bool>,
}

impl TranslateKeys {
    /// Judges a successful translate reply. Spawns `fg translate` the first
    /// time a source is seen.
    pub fn judge(&mut self, fg: &Path, input: &Input, output: &str) -> io::Result<Verdict> {
        let Answer::Value(value) = input.answer else {
            return Ok(Verdict::Wrong);
        };
        let sem_key = (input.full_source(), output.to_owned());
        let correct = *self.semantic.entry(sem_key).or_insert_with(|| {
            system_f::parse_term(output)
                .ok()
                .filter(|t| system_f::typecheck(t).is_ok())
                .and_then(|t| system_f::eval(&t).ok())
                .is_some_and(|v| value.matches(&v))
        });
        if !correct {
            report_wrong(
                &format!("translate {} of {}", input.family, input.source),
                "a translation that evaluates to the expected value",
                output,
            );
            return Ok(Verdict::Wrong);
        }
        let key = (input.prelude, input.source.clone());
        if !self.fresh.contains_key(&key) {
            let fresh = fresh_translate(fg, input)?;
            self.fresh.insert(key.clone(), fresh);
        }
        Ok(if self.fresh[&key] == output {
            Verdict::Ok
        } else {
            Verdict::Impure
        })
    }
}

/// `fg [--prelude] translate -` in a new process.
fn fresh_translate(fg: &Path, input: &Input) -> io::Result<String> {
    let mut cmd = Command::new(fg);
    if input.prelude {
        cmd.arg("--prelude");
    }
    let mut child = cmd
        .args([Method::Translate.name(), "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    if let Some(mut stdin) = child.stdin.take() {
        stdin.write_all(input.source.as_bytes())?;
    }
    let out = child.wait_with_output()?;
    if !out.status.success() {
        return Err(invalid(format!(
            "fresh fg translate failed: {}",
            out.status
        )));
    }
    String::from_utf8(out.stdout).map_err(|e| invalid(e.to_string()))
}
