//! The `--jobs N` batch driver: dispatches a file batch onto a
//! persistent [`fg::pool::WorkerPool`] and merges the per-file
//! telemetry into one report.
//!
//! Contracts (see DESIGN.md §12):
//!
//! * **Deterministic output** — results print in input order no matter
//!   which worker finished first.
//! * **Worst-code-wins** — the batch exit code is the worst per-file
//!   outcome, exactly like the sequential path.
//! * **Isolation** — a panic inside one file's pipeline is caught by
//!   the pool and reported as exit 3 for that file only.
//! * **One report** — `--profile`, `--metrics-json`, `--trace`, and
//!   `--trace-chrome` emit a single merged record with a `pool.*`
//!   counter group instead of one record per file.

use std::sync::Arc;

use telemetry::trace::{self, Tracer};
use telemetry::Metrics;

use crate::{CachedRun, Flags, RunOutput, EXIT_CRASH, EXIT_DIAGNOSTIC};

/// Compile-cache bound for one batch: enough for any realistic corpus,
/// flushed wholesale if a pathological batch exceeds it.
const CACHE_CAPACITY: usize = 1024;

/// Runs `cmd` over `paths` on a pool of `--jobs` workers. See the
/// [module docs](self) for the contracts.
pub fn run_batch(cmd: &str, paths: &[String], flags: &Flags) -> u8 {
    let trace_on = flags.wants_trace(cmd);
    // Read every source up front on the main thread: unreadable-file
    // diagnostics stay deterministic and `-` (stdin) keeps working.
    let inputs: Vec<Result<String, String>> = paths
        .iter()
        .map(|path| {
            crate::read_source(path).map_err(|e| format!("fg: cannot read {path}: {e}\n"))
        })
        .collect();
    // Per-file tracers are created together on the main thread so their
    // timestamps share one epoch and merge into one coherent timeline.
    let tracers: Vec<Tracer> = paths
        .iter()
        .map(|_| if trace_on { Tracer::enabled() } else { Tracer::disabled() })
        .collect();
    let pool = match fg::pool::WorkerPool::new(flags.jobs_resolved()) {
        Ok(p) => p,
        Err(e) => {
            crate::print_err(&format!("fg: cannot spawn worker pool: {e}\n"));
            return EXIT_CRASH;
        }
    };
    let cache = Arc::new(fg::pool::CompileCache::<CachedRun>::new(CACHE_CAPACITY));
    // Armed fault plans count point visits globally, so replaying a
    // cached outcome would change which visit fires; tracing wants real
    // per-file event streams. Both bypass the cache.
    let use_cache = !telemetry::fault::armed() && !trace_on;
    let limits = flags.limits();
    let limits_key = format!("{limits:?}");

    let tasks: Vec<_> = paths
        .iter()
        .zip(inputs)
        .zip(&tracers)
        .map(|((path, input), tracer)| {
            let cmd = cmd.to_owned();
            let path = path.clone();
            let tracer = tracer.clone();
            let cache = Arc::clone(&cache);
            let limits_key = limits_key.clone();
            let use_prelude = flags.use_prelude;
            move || -> RunOutput {
                let source = match input {
                    Ok(s) => s,
                    Err(msg) => {
                        return RunOutput {
                            code: EXIT_DIAGNOSTIC,
                            stdout: String::new(),
                            stderr: msg,
                            metrics: Metrics::new(),
                        }
                    }
                };
                let key = fg::pool::fnv1a(&[
                    cmd.as_bytes(),
                    &[u8::from(use_prelude)],
                    limits_key.as_bytes(),
                    source.as_bytes(),
                ]);
                if use_cache {
                    if let Some((code, stdout, stderr)) = cache.lookup(key) {
                        return RunOutput {
                            code,
                            stdout,
                            stderr,
                            metrics: Metrics::new(),
                        };
                    }
                }
                let output = crate::run_request(&cmd, &path, &source, use_prelude, limits, &tracer);
                if use_cache {
                    cache.insert(key, (output.code, output.stdout.clone(), output.stderr.clone()));
                }
                output
            }
        })
        .collect();

    let results = pool.run_batch(tasks);

    let label = format!("<batch of {}>", paths.len());
    let mut merged = Metrics::new();
    merged.set_command(cmd);
    merged.set_source(&label);
    let mut worst = 0u8;
    for (path, result) in paths.iter().zip(results) {
        match result {
            Ok(output) => {
                crate::print_out(&output.stdout);
                crate::print_err(&output.stderr);
                merged.merge(&output.metrics);
                worst = worst.max(output.code);
            }
            Err(msg) => {
                crate::print_err(&format!("fg: internal error: {path}: pipeline crashed: {msg}\n"));
                worst = worst.max(EXIT_CRASH);
            }
        }
    }
    crate::record_pool_stats(&mut merged, pool.jobs(), &pool.stats(), &cache);

    let (events, dropped) =
        trace::merge_worker_events(tracers.iter().map(|t| (t.events(), t.dropped())).collect());
    worst.max(crate::emit_telemetry(flags, &merged, cmd, &label, &events, dropped))
}
