//! Programmatic driver for the benchmark suite — the engine behind
//! `fg bench-json`.
//!
//! Runs the model-lookup, STL-prelude, and congruence-scaling groups
//! through [`criterion::measure`] (the same calibrate → warm-up →
//! median-of-samples loop `cargo bench` uses) and returns the results
//! as a [`telemetry::BenchReport`] (`fg-bench/1`), so CI can diff runs
//! without scraping bench stdout.

use std::hint::black_box;

use telemetry::{BenchEntry, BenchReport};

/// Harness name stamped into the report.
pub const HARNESS: &str = "fg-bench-json";

fn entry(
    group: &str,
    id: &str,
    param: impl ToString,
    f: impl FnMut(&mut criterion::Bencher),
) -> BenchEntry {
    let (iters, total_ns) = criterion::measure(f);
    BenchEntry {
        group: group.to_owned(),
        id: id.to_owned(),
        param: param.to_string(),
        iters,
        total_ns,
    }
}

/// Runs the suite and collects the `fg-bench/1` report.
///
/// With `quick`, sets `FG_BENCH_QUICK=1` so [`criterion::measure`]
/// shrinks its warm-up and sample budgets (~30ms per benchmark) — the
/// CI smoke-gate configuration. Without it the environment is left
/// alone, so an externally set `FG_BENCH_QUICK` still applies.
pub fn run_suite(quick: bool) -> BenchReport {
    if quick {
        std::env::set_var("FG_BENCH_QUICK", "1");
    }
    let mut entries = Vec::new();

    // model_lookup — worst-case (first-declared) member access as the
    // number of in-scope models grows; mirrors benches/model_lookup.rs.
    for width in [1usize, 8, 32, 128] {
        let src = crate::many_models_program(width);
        let expr = fg::parser::parse_expr(&src).expect("generated program parses");
        entries.push(entry("model_lookup", "worst_case_access", width, |b| {
            b.iter(|| fg::check_program(black_box(&expr)).unwrap())
        }));
    }

    // stl_prelude — library-scale parse / check+translate / eval.
    let src = fg::stdlib::with_prelude("accumulate[int](range(1, 10))");
    entries.push(entry("stl_prelude", "parse", "", |b| {
        b.iter(|| fg::parser::parse_expr(black_box(&src)).unwrap())
    }));
    let expr = fg::parser::parse_expr(&src).expect("prelude parses");
    entries.push(entry("stl_prelude", "check_translate", "", |b| {
        b.iter(|| fg::check_program(black_box(&expr)).unwrap())
    }));
    let compiled = fg::check_program(&expr).expect("prelude checks");
    entries.push(entry("stl_prelude", "eval", "", |b| {
        b.iter(|| system_f::eval(black_box(&compiled.term)).unwrap())
    }));

    // congruence_scaling — Nelson–Oppen closure vs the naive fixpoint
    // baseline (capped: it is O(n³)-ish); mirrors
    // benches/congruence_scaling.rs.
    for size in [16usize, 64, 256, 1024, 4096] {
        entries.push(entry("congruence_scaling", "nelson_oppen", size, |b| {
            b.iter(|| black_box(crate::congruence_chain(black_box(size), false)))
        }));
        if size <= 256 {
            entries.push(entry("congruence_scaling", "naive_baseline", size, |b| {
                b.iter(|| black_box(crate::congruence_chain(black_box(size), true)))
            }));
        }
    }

    // throughput — whole-pipeline batch checking through the persistent
    // worker pool (`fg::pool`) at increasing widths. One iteration is
    // one whole batch of THROUGHPUT_FILES files, so ns/iter converts to
    // files/sec as `THROUGHPUT_FILES / (ns * 1e-9)`, and the ratio of
    // the jobs=1 to jobs=4 means is the parallel speed-up the CI gate
    // checks (tools/bench_gate.py scaling).
    let sources: Vec<String> = (0..THROUGHPUT_FILES)
        // Widths cycle so the batch is cost-skewed: the cheap files
        // drain early while the costly ones still occupy workers.
        .map(|i| crate::many_models_program(4 + (i % 4) * 8))
        .collect();
    for jobs in [1usize, 2, 4] {
        let pool = fg::pool::WorkerPool::new(jobs).expect("spawn bench pool");
        entries.push(entry("throughput", "check_batch", jobs, |b| {
            b.iter(|| {
                let tasks: Vec<_> = sources
                    .iter()
                    .map(|src| {
                        let src = src.clone();
                        move || {
                            let expr = fg::parser::parse_expr(&src).expect("parses");
                            black_box(fg::check_program(&expr).expect("checks"));
                        }
                    })
                    .collect();
                for r in pool.run_batch(tasks) {
                    r.expect("no task panics");
                }
            })
        }));
    }

    BenchReport {
        harness: HARNESS.to_owned(),
        entries,
    }
}

/// Files per throughput-batch iteration.
const THROUGHPUT_FILES: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_produces_a_well_formed_report() {
        // The width-128 workload nests a few hundred binders; debug
        // frames overflow the default 2 MiB test-thread stack, so run
        // the suite on a pool worker, as `fg bench-json` does.
        let report = fg::pool::WorkerPool::new(1)
            .expect("spawn bench worker")
            .run_one(|| run_suite(true))
            .expect("suite does not panic");
        assert_eq!(report.harness, HARNESS);
        // Every planned benchmark reported, every measurement nonzero.
        assert_eq!(report.entries.len(), 4 + 3 + 5 + 3 + 3);
        for e in &report.entries {
            assert!(e.iters >= 1, "{e:?}");
            assert!(e.total_ns > 0, "{e:?}");
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"fg-bench/1\""), "{json}");
        assert!(json.contains("worst_case_access"), "{json}");
        assert!(json.contains("nelson_oppen"), "{json}");
        assert!(json.contains("check_batch"), "{json}");
    }
}
