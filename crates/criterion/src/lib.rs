//! An offline, dependency-free subset of the [criterion] benchmarking API,
//! vendored into the workspace so `cargo build --offline` works with no
//! registry access.
//!
//! [criterion]: https://docs.rs/criterion
//!
//! The subset covers what `crates/bench` uses: [`Criterion`],
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId::new`],
//! [`Bencher::iter`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros.
//!
//! # Modes
//!
//! * **Test mode** (no `--bench` argument — what `cargo test` uses for
//!   `harness = false` bench targets): every benchmark body runs exactly
//!   once, verifying it works without spending wall-clock time.
//! * **Bench mode** (`cargo bench` passes `--bench`): each benchmark is
//!   calibrated with one timed iteration, warmed up until the warm-up
//!   budget is spent (priming caches and allocator arenas, so the
//!   first sample is not systematically slow), then measured as the *median* of several
//!   equally sized samples; the median ns/iteration is printed to
//!   stdout and collected into an `fg-bench/1` JSON report (see the
//!   `telemetry` crate for the schema). Setting `FG_BENCH_QUICK=1`
//!   shrinks the warm-up and sample budgets (~30ms per benchmark
//!   instead of ~250ms) for CI smoke runs.
//!
//! # JSON output
//!
//! In bench mode the report is written to `$FG_BENCH_JSON` if that
//! environment variable is set, else to `fg-bench-<harness>.json` in the
//! working directory (ignored by git).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use telemetry::{BenchEntry, BenchReport};

/// Bench-mode time budgets. The median of [`samples`](Budgets::samples)
/// equal batches is reported, which rides out scheduler noise and the
/// one-off costs a single 200ms batch used to absorb into its mean
/// (the `model_lookup/worst_case_access/1` flakiness).
struct Budgets {
    warmup_ns: u64,
    sample_ns: u64,
    samples: usize,
}

impl Budgets {
    fn get() -> Budgets {
        let quick = std::env::var("FG_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
        if quick {
            Budgets {
                warmup_ns: 5_000_000,
                sample_ns: 8_000_000,
                samples: 3,
            }
        } else {
            Budgets {
                warmup_ns: 50_000_000,
                sample_ns: 40_000_000,
                samples: 5,
            }
        }
    }
}

static ENTRIES: Mutex<Vec<BenchEntry>> = Mutex::new(Vec::new());

/// The benchmark driver handed to `criterion_group!` target functions.
#[derive(Debug)]
pub struct Criterion {
    bench_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            bench_mode: std::env::args().any(|a| a == "--bench"),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Benchmarks `f` under `id` outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        run_one(self.bench_mode, "", &id, f);
        self
    }
}

/// A named group of benchmarks; created by [`Criterion::benchmark_group`].
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        run_one(self.criterion.bench_mode, &self.name, &id, |b| f(b));
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_one(self.criterion.bench_mode, &self.name, &id, |b| f(b, input));
        self
    }

    /// Ends the group. (Statistics are flushed by [`criterion_main!`].)
    pub fn finish(self) {}
}

/// Identifies one benchmark: a name plus an optional parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// An id for benchmark `name` at parameter `param`.
    pub fn new(name: impl Into<String>, param: impl Display) -> BenchmarkId {
        BenchmarkId {
            name: name.into(),
            param: param.to_string(),
        }
    }
}

/// Conversion into [`BenchmarkId`] accepted by `bench_function`.
pub trait IntoBenchmarkId {
    /// Performs the conversion.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            name: self.to_owned(),
            param: String::new(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            name: self,
            param: String::new(),
        }
    }
}

/// Times the body of one benchmark; handed to the closure by the harness.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed_ns: u64,
}

impl Bencher {
    /// Runs `f` for the harness-chosen number of iterations, timing the
    /// whole batch.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}

/// Calibrates, warms up, and measures `f`, returning the median sample
/// as `(iters, total_ns)`. Honors `FG_BENCH_QUICK`. This is the whole
/// bench-mode measurement loop, shared with programmatic drivers such
/// as `fg bench-json`.
pub fn measure<F>(mut f: F) -> (u64, u64)
where
    F: FnMut(&mut Bencher),
{
    let budgets = Budgets::get();
    // Calibrate with one timed iteration.
    let mut b = Bencher {
        iters: 1,
        elapsed_ns: 0,
    };
    f(&mut b);
    let mut per_iter = b.elapsed_ns.max(1);
    // Warm up on the same (fixed) corpus until the budget is spent,
    // refining the per-iteration estimate as batches complete.
    let mut spent = u128::from(b.elapsed_ns);
    while spent < u128::from(budgets.warmup_ns) {
        let left = budgets.warmup_ns.saturating_sub(spent as u64).max(1);
        let n = (left / per_iter).clamp(1, 1_000_000);
        let mut b = Bencher {
            iters: n,
            elapsed_ns: 0,
        };
        f(&mut b);
        per_iter = (b.elapsed_ns / n).max(1);
        spent += u128::from(b.elapsed_ns.max(1));
    }
    // Measure: the median of several equal batches.
    let iters = (budgets.sample_ns / per_iter).clamp(1, 10_000_000);
    let mut totals = Vec::with_capacity(budgets.samples);
    for _ in 0..budgets.samples {
        let mut b = Bencher {
            iters,
            elapsed_ns: 0,
        };
        f(&mut b);
        totals.push(b.elapsed_ns);
    }
    totals.sort_unstable();
    (iters, totals[totals.len() / 2])
}

fn run_one<F>(bench_mode: bool, group: &str, id: &BenchmarkId, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if !bench_mode {
        // Test mode: one iteration, no reporting.
        let mut b = Bencher {
            iters: 1,
            elapsed_ns: 0,
        };
        f(&mut b);
        return;
    }
    let samples = Budgets::get().samples;
    let (iters, total_ns) = measure(&mut f);
    let entry = BenchEntry {
        group: group.to_owned(),
        id: id.name.clone(),
        param: id.param.clone(),
        iters,
        total_ns,
    };
    let label = [group, &id.name, &id.param]
        .iter()
        .filter(|s| !s.is_empty())
        .cloned()
        .collect::<Vec<_>>()
        .join("/");
    println!(
        "{label:<55} {:>12} ns/iter (n={iters}, median of {samples})",
        entry.mean_ns(),
    );
    ENTRIES.lock().expect("bench entry lock").push(entry);
}

/// Flushes the collected report; called by [`criterion_main!`] after all
/// groups have run. In bench mode, writes the `fg-bench/1` JSON document.
pub fn finalize() {
    let entries = std::mem::take(&mut *ENTRIES.lock().expect("bench entry lock"));
    if entries.is_empty() {
        return;
    }
    let harness = std::env::args()
        .next()
        .map(|a| {
            std::path::Path::new(&a)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| a.clone())
        })
        .unwrap_or_else(|| "bench".to_owned());
    // Strip the `-<hash>` cargo appends to executable names.
    let harness = match harness.rsplit_once('-') {
        Some((stem, suffix))
            if suffix.len() == 16 && suffix.chars().all(|c| c.is_ascii_hexdigit()) =>
        {
            stem.to_owned()
        }
        _ => harness,
    };
    let report = BenchReport { harness, entries };
    let path = std::env::var("FG_BENCH_JSON")
        .unwrap_or_else(|_| format!("fg-bench-{}.json", report.harness));
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("criterion: cannot write {path}: {e}"),
    }
}

/// Defines a function running each target against one [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Defines `main`, running each group then flushing the JSON report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::finalize();
        }
    };
}
