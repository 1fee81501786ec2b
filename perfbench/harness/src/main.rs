//! `fg-perfbench`: the seeded end-to-end benchmark of the `fg` CLI, its
//! `--jobs` batch driver and its `fg serve` daemon, with a traced
//! per-layer run. See `perfbench/README.md` for the workloads, metrics and
//! how to run it; `perfbench/run.py` builds `fg` and this harness and
//! passes `--fg`.
//!
//! ```text
//! fg-perfbench --fg <path/to/fg> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: it reads `examples/adversarial` and
//! writes its scratch files to `perfbench/.work`.
//!
//! The last line of stdout is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads /proc and getrusage of 64-bit Linux");

mod drive;
mod e2e;
mod inputs;
mod layers;
mod sys;

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::Input;

/// Requests in the traced run's in-process pass and round trips.
const TRACED_INPUTS: u64 = 240;
/// Seconds of the workload's own load in the traced run (pool counters).
const TRACED_LOAD_S: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PreludeServe,
    CorpusBatch,
    DaemonMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "prelude_serve" => Some(Workload::PreludeServe),
            "corpus_batch" => Some(Workload::CorpusBatch),
            "daemon_mixed" => Some(Workload::DaemonMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PreludeServe => "prelude_serve",
            Workload::CorpusBatch => "corpus_batch",
            Workload::DaemonMixed => "daemon_mixed",
        }
    }

    /// Closed-loop clients against the daemon.
    fn clients(self) -> u64 {
        match self {
            Workload::DaemonMixed => sys::nproc() as u64,
            _ => 1,
        }
    }
}

struct Args {
    fg: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut fg = None;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--fg" => fg = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        fg: fg.ok_or("--fg is required")?,
        work: PathBuf::from("perfbench").join(".work"),
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The workload's request stream: `next(client, i)`.
fn request_stream(args: &Args) -> io::Result<Box<dyn Fn(u64, u64) -> Input + Sync>> {
    let seed = args.seed;
    Ok(match args.workload {
        Workload::PreludeServe => Box::new(move |_, i| inputs::prelude_serve(seed, i)),
        Workload::DaemonMixed => {
            let adversarial = inputs::adversarial_sources(Path::new("."))?;
            let clients = args.workload.clients();
            Box::new(move |c, i| inputs::daemon_mixed(seed, c, clients, i, &adversarial))
        }
        Workload::CorpusBatch => Box::new(move |_, i| {
            let batch = inputs::corpus_batch(seed, i / inputs::BATCH_SIZE);
            batch[(i % inputs::BATCH_SIZE) as usize].clone()
        }),
    })
}

/// The last stdout line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn timed(args: &Args, next: &(dyn Fn(u64, u64) -> Input + Sync)) -> io::Result<String> {
    let w = args.workload;
    let r = match w {
        Workload::CorpusBatch => {
            e2e::batch_workload(&args.fg, &args.work, args.seed, args.seconds)?
        }
        _ => e2e::daemon_workload(&args.fg, args.seed, w.clients(), args.seconds, next)?,
    };
    let total = r.total();
    let attempted = total.ok + total.impure + total.wrong;
    if r.windows.is_empty() {
        return Err(io::Error::other("a timed run measures at least one second"));
    }
    if r.windows.iter().any(|w| w.inputs == 0) {
        return Err(io::Error::other("a measured window completed no input"));
    }
    let unit = if w == Workload::CorpusBatch {
        "batches"
    } else {
        "requests"
    };
    // The timing metrics pool the windows of least steal (see `e2e`).
    let kept = r.kept();
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    let kept_inputs: u64 = kept.iter().map(|w| w.inputs).sum();
    let kept_cpu_s: f64 = kept.iter().map(|w| w.cpu_s).sum();
    let metrics = [
        ("setup_s", sys::median(&r.setup_samples_s), "s"),
        ("latency_p50_ms", sys::quantile(&latencies, 0.50), "ms"),
        ("latency_p99_ms", sys::quantile(&latencies, 0.99), "ms"),
        (
            "throughput_per_s",
            kept_inputs as f64 / (kept.len() as f64 * e2e::WINDOW.as_secs_f64()),
            "1/s",
        ),
        ("ok_share", total.ok as f64 / attempted as f64, "share"),
        ("peak_rss_mb", r.peak_rss_mb, "MB"),
        (
            "cpu_ms_per_input",
            kept_cpu_s * 1e3 / kept_inputs as f64,
            "ms",
        ),
    ];
    let pct = |x: f64| x * 100.0;
    let steal_all = r.windows.iter().map(|w| w.steal).sum::<f64>() / r.windows.len() as f64;
    let steal_kept = kept.iter().map(|w| w.steal).fold(0.0, f64::max);
    println!(
        "{} seed {} nproc {} clients {}: kept {} of {} windows of {} s, steal at most {:.1}% in them, {:.1}% over all",
        w.name(),
        args.seed,
        sys::nproc(),
        w.clients(),
        kept.len(),
        r.windows.len(),
        e2e::WINDOW.as_secs_f64(),
        pct(steal_kept),
        pct(steal_all),
    );
    let samples = latencies.len();
    let inputs: u64 = r.windows.iter().map(|w| w.inputs).sum();
    let notes = [
        format!("median of {} cold starts", r.setup_samples_s.len()),
        format!("{samples} {unit} in the kept windows"),
        format!("{} beyond it", samples - (samples * 99).div_ceil(100)),
        format!("{kept_inputs} inputs in the kept windows, {inputs} in all"),
        format!("{attempted} replies"),
        if w == Workload::CorpusBatch {
            String::from("largest batch process")
        } else {
            format!("daemon's peak at its reply {}", e2e::RSS_AFTER_REPLIES)
        },
        format!("{kept_cpu_s:.2} s CPU in the kept windows"),
    ];
    for ((name, value, unit), note) in metrics.iter().zip(&notes) {
        println!("  {name:<18} {value:>12.4} {unit:<5}  ({note})");
    }
    println!(
        "  compile-cache hits seen by clients: {}",
        r.cache_hits_seen
    );
    for (method, t) in &r.by_method {
        println!(
            "  answer key {method:<9} ok {:>6}  not byte-identical to a fresh fg translate {:>5}  wrong {:>3}",
            t.ok, t.impure, t.wrong
        );
    }
    // A translation that is correct but not byte-identical to a fresh
    // `fg translate` lowers `ok_share`; it is not a failed request.
    let correct = total.wrong == 0 && r.wrong_untimed == 0;
    Ok(result_line(correct, attempted, total.wrong, &metrics))
}

fn traced(args: &Args, next: &(dyn Fn(u64, u64) -> Input + Sync)) -> io::Result<String> {
    let w = args.workload;
    let clients = w.clients();
    let sample: Vec<Input> = (0..TRACED_INPUTS)
        .map(|k| next(k % clients, k / clients))
        .collect();
    let load_s = TRACED_LOAD_S.min(args.seconds);
    let trace_out = args.work.join(format!("{}.trace.jsonl", w.name()));
    let report = layers::traced_run(
        &args.fg,
        sample,
        || match w {
            Workload::CorpusBatch => {
                let batches: Vec<_> = (0..16)
                    .map(|j| inputs::corpus_batch(args.seed, j))
                    .collect();
                layers::batch_pool_view(&args.fg, &args.work, &batches)
            }
            _ => layers::daemon_pool_view(&args.fg, clients, load_s, next),
        },
        &trace_out,
    )?;
    println!(
        "{} seed {} nproc {} traced run",
        w.name(),
        args.seed,
        sys::nproc()
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    println!("  spans written to {}", trace_out.display());
    Ok(result_line(
        report.failed == 0,
        report.attempted,
        report.failed,
        &report.metrics,
    ))
}

fn run(args: &Args) -> io::Result<String> {
    std::fs::create_dir_all(&args.work)?;
    if !args.fg.is_file() {
        return Err(io::Error::other(format!(
            "no fg binary at {}",
            args.fg.display()
        )));
    }
    let next = request_stream(args)?;
    if args.trace {
        traced(args, &*next)
    } else {
        timed(args, &*next)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fg-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fg-perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
