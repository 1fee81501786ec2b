//! The benchmark suite — the one place a micro-benchmark is defined, and
//! the engine behind `fg bench-json`.
//!
//! Each group reproduces an experiment of DESIGN.md §3 (C1–C5, F1–F7)
//! or guards a hot path (`stl_prelude`, `throughput`). Every benchmark
//! is calibrated with one timed iteration, warmed up until a budget is
//! spent (priming caches and allocator arenas, so the first sample is
//! not systematically slow), then measured as the *median* of several
//! equally sized samples. The results come back as a
//! [`telemetry::BenchReport`] (`fg-bench/1`), so CI can diff runs
//! without scraping stdout.

use std::hint::black_box;
use std::time::Instant;

use fg::corpus;
use telemetry::limits::Budget;
use telemetry::{BenchEntry, BenchReport};

/// Harness name stamped into the report.
pub const HARNESS: &str = "fg-bench-json";

/// Runs the suite and collects the `fg-bench/1` report.
///
/// `quick` shrinks the warm-up and sample budgets to ~30ms per
/// benchmark (instead of ~250ms) — the CI smoke-gate configuration.
pub fn run_suite(quick: bool) -> BenchReport {
    let mut suite = Suite {
        budgets: Budgets::new(quick),
        entries: Vec::new(),
    };
    model_lookup(&mut suite);
    stl_prelude(&mut suite);
    congruence_scaling(&mut suite);
    throughput(&mut suite);
    dictionary_overhead(&mut suite);
    refinement_and_same_type(&mut suite);
    paper_figures(&mut suite);
    figure_3_system_f(&mut suite);
    BenchReport {
        harness: HARNESS.to_owned(),
        entries: suite.entries,
    }
}

/// Measurement budgets. The median of [`samples`](Budgets::samples)
/// equal batches is reported, which rides out scheduler noise and the
/// one-off costs a single long batch would absorb into its mean.
struct Budgets {
    warmup_ns: u64,
    sample_ns: u64,
    samples: usize,
}

impl Budgets {
    fn new(quick: bool) -> Budgets {
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

/// One suite run: the budgets and the entries measured so far.
struct Suite {
    budgets: Budgets,
    entries: Vec<BenchEntry>,
}

impl Suite {
    /// Measures `body` and records it under `(group, id, param)`.
    fn bench<O>(&mut self, group: &str, id: &str, param: impl ToString, body: impl FnMut() -> O) {
        let (iters, total_ns) = measure(&self.budgets, body);
        self.entries.push(BenchEntry {
            group: group.to_owned(),
            id: id.to_owned(),
            param: param.to_string(),
            iters,
            total_ns,
        });
    }
}

/// Runs `body` `iters` times; returns the elapsed nanoseconds.
fn time<O>(iters: u64, body: &mut impl FnMut() -> O) -> u64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(body());
    }
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calibrates, warms up, and measures `body`, returning the median
/// sample as `(iters, total_ns)`.
fn measure<O>(budgets: &Budgets, mut body: impl FnMut() -> O) -> (u64, u64) {
    // Calibrate with one timed iteration.
    let first = time(1, &mut body);
    let mut per_iter = first.max(1);
    // Warm up on the same (fixed) input until the budget is spent,
    // refining the per-iteration estimate as batches complete.
    let mut spent = u128::from(first);
    while spent < u128::from(budgets.warmup_ns) {
        let left = budgets.warmup_ns.saturating_sub(spent as u64).max(1);
        let n = (left / per_iter).clamp(1, 1_000_000);
        let elapsed = time(n, &mut body);
        per_iter = (elapsed / n).max(1);
        spent += u128::from(elapsed.max(1));
    }
    // Measure: the median of several equal batches.
    let iters = (budgets.sample_ns / per_iter).clamp(1, 10_000_000);
    let mut totals: Vec<u64> = (0..budgets.samples).map(|_| time(iters, &mut body)).collect();
    totals.sort_unstable();
    (iters, totals[totals.len() / 2])
}

/// C4 — scoped model lookup: member access resolving against the
/// *first-declared* of `width` in-scope models, the worst case for
/// newest-first search. Expected shape: linear in the number of models.
fn model_lookup(suite: &mut Suite) {
    for width in [1usize, 8, 32, 128] {
        let src = crate::many_models_program(width);
        let expr = fg::parser::parse_expr(&src).expect("generated program parses");
        suite.bench("model_lookup", "worst_case_access", width, || {
            fg::check_program(black_box(&expr)).unwrap()
        });
    }
}

/// The body every `stl_prelude` entry runs on top of the prelude.
const PRELUDE_BODY: &str = "accumulate[int](range(1, 10))";

/// A library-scale program — the full STL-flavoured prelude plus a
/// body — through parse, check+translate, and evaluation; and the body
/// alone checked against the prelude's snapshot (`check_body`), the
/// cost of a `--prelude` request's check once its worker is warm.
fn stl_prelude(suite: &mut Suite) {
    let src = fg::stdlib::with_prelude(PRELUDE_BODY);
    suite.bench("stl_prelude", "parse", "", || {
        fg::parser::parse_expr(black_box(&src)).unwrap()
    });
    let expr = fg::parser::parse_expr(&src).expect("prelude parses");
    suite.bench("stl_prelude", "check_translate", "", || {
        fg::check_program(black_box(&expr)).unwrap()
    });
    let compiled = fg::check_program(&expr).expect("prelude checks");
    suite.bench("stl_prelude", "eval", "", || {
        system_f::eval(black_box(&compiled.term)).unwrap()
    });
    let prefix = fg::stdlib::prelude_prefix(Default::default()).expect("prelude parses");
    let prefix = std::rc::Rc::new(prefix);
    let snapshot = fg::prefix::Snapshot::check(prefix, [], <_>::default(), <_>::default())
        .expect("prelude checks");
    let body = snapshot
        .prefix()
        .parse_body(PRELUDE_BODY, Default::default())
        .expect("body parses");
    suite.bench("stl_prelude", "check_body", "", || {
        snapshot
            .check_body(
                black_box(&body),
                telemetry::trace::Tracer::disabled(),
                Default::default(),
            )
            .0
            .unwrap()
    });
}

/// C1 — §5.1's "efficient O(n log n) algorithm" (Nelson–Oppen, cited
/// as [41]): union-find congruence closure against the naive fixpoint
/// baseline on growing equality chains. Expected shape: near-linear
/// versus super-quadratic; the naive baseline is O(n³)-ish here, so its
/// sizes are capped to keep the suite finishing.
fn congruence_scaling(suite: &mut Suite) {
    for size in [16usize, 64, 256, 1024, 4096] {
        suite.bench("congruence_scaling", "nelson_oppen", size, || {
            crate::congruence_chain(black_box(size), false)
        });
        if size <= 256 {
            suite.bench("congruence_scaling", "naive_baseline", size, || {
                crate::congruence_chain(black_box(size), true)
            });
        }
    }
}

/// Files per throughput-batch iteration.
const THROUGHPUT_FILES: usize = 16;

/// Whole-pipeline batch checking through the persistent worker pool
/// (`fg::pool`) at increasing widths. One iteration is one whole batch
/// of [`THROUGHPUT_FILES`] files, so ns/iter converts to files/sec as
/// `THROUGHPUT_FILES / (ns * 1e-9)`, and the ratio of the jobs=1 to
/// jobs=4 means is the parallel speed-up the CI gate checks
/// (tools/bench_gate.py scaling).
fn throughput(suite: &mut Suite) {
    let sources: Vec<String> = (0..THROUGHPUT_FILES)
        // Widths cycle so the batch is cost-skewed: the cheap files
        // drain early while the costly ones still occupy workers.
        .map(|i| crate::many_models_program(4 + (i % 4) * 8))
        .collect();
    for jobs in [1usize, 2, 4] {
        let pool = fg::pool::WorkerPool::new(jobs).expect("spawn bench pool");
        suite.bench("throughput", "check_batch", jobs, || {
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
        });
    }
}

/// C2 — the runtime cost of the dictionary-passing translation. Figure
/// 5's `accumulate[int]` (translated, dictionary-passing) on the
/// evaluator and on the bytecode VM, against a hand-monomorphized
/// System F `sum` — what a C++-style compiler would produce by
/// specialization — and Figure 3's higher-order style, where the
/// operations travel as ordinary arguments. Expected shape: all linear
/// in the list length; the dictionary version pays a constant factor.
fn dictionary_overhead(suite: &mut Suite) {
    const GROUP: &str = "dictionary_overhead";
    for n in [16usize, 64, 256, 1024] {
        let expr = fg::parser::parse_expr(&crate::generic_accumulate_program(n)).expect("parses");
        let generic = fg::check_program(&expr).expect("fig 5 compiles");
        system_f::typecheck(&generic.term).expect("translation typechecks");
        suite.bench(GROUP, "translated_generic", n, || {
            system_f::eval(black_box(&generic.term)).unwrap()
        });
        let vm_prog = system_f::vm::compile(&generic.term).expect("translation compiles");
        suite.bench(GROUP, "translated_generic_vm", n, || {
            system_f::vm::run_budgeted(black_box(&vm_prog), &Budget::unlimited()).unwrap()
        });
        let mono = crate::monomorphic_sum(n);
        system_f::typecheck(&mono).expect("monomorphic sum typechecks");
        suite.bench(GROUP, "monomorphized", n, || system_f::eval(black_box(&mono)).unwrap());
        let fig3_style = system_f::parse_term(&format!(
            "let sum = biglam t.
               fix sum: fn(list t, fn(t, t) -> t, t) -> t.
                 lam ls: list t, add: fn(t, t) -> t, zero: t.
                   if null[t](ls) then zero
                   else add(car[t](ls), sum(cdr[t](ls), add, zero))
             in sum[int]({}, iadd, 0)",
            crate::int_list_src(n)
        ))
        .expect("fig 3 sum parses");
        system_f::typecheck(&fig3_style).expect("fig 3 sum typechecks");
        suite.bench(GROUP, "higher_order_fig3", n, || {
            system_f::eval(black_box(&fig3_style)).unwrap()
        });
    }
}

/// C3 and C5 — checker+translator cost against concept-hierarchy shape
/// (§5.2's two complications) and against same-type constraints (§5.1
/// in situ):
///
/// * `refinement_chain`: depth-`d` refinement chains; each level
///   re-instantiates its ancestors, so roughly quadratic in depth.
/// * `diamond_lattice`: 3-layer lattices of growing width, each layer
///   refining every concept of the previous one, and a depth sweep of
///   width-2 lattices from 2 to 14 layers. Associated types and
///   dictionary plans are deduplicated, but the dictionary's
///   nested-tuple type and proxies are not, so cost grows as 2^depth.
/// * `same_type_chain`: `k` iterators with `k-1` same-type constraints,
///   the congruence-closure work of checking.
fn refinement_and_same_type(suite: &mut Suite) {
    let mut check = |group: &str, id: &str, param: usize, src: String| {
        let expr = fg::parser::parse_expr(&src).expect("generated program parses");
        suite.bench(group, id, param, || fg::check_program(black_box(&expr)).unwrap());
    };
    for depth in [1usize, 2, 4, 8, 16] {
        check("refinement_chain", "check_translate", depth, crate::refinement_chain_program(depth));
    }
    for width in [1usize, 2, 3, 4] {
        check("diamond_lattice", "layers3_width", width, crate::diamond_program(3, width));
    }
    for layers in 2usize..=14 {
        check("diamond_lattice", "width2_layers", layers, crate::diamond_program(layers, 2));
    }
    for k in [1usize, 2, 4, 8, 16] {
        check("same_type_chain", "check_translate", k, crate::same_type_chain_program(k));
    }
}

/// F1–F7 — every figure-level program of the paper through the full
/// pipeline, stage by stage: parse, check+translate, evaluate the
/// translation, and evaluate directly.
fn paper_figures(suite: &mut Suite) {
    const GROUP: &str = "paper_figures";
    for p in corpus::ALL {
        suite.bench(GROUP, &format!("{}/parse", p.id), "", || {
            fg::parser::parse_expr(black_box(p.source)).unwrap()
        });
        let expr = fg::parser::parse_expr(p.source).expect("corpus program parses");
        suite.bench(GROUP, &format!("{}/check_translate", p.id), "", || {
            fg::check_program(black_box(&expr)).unwrap()
        });
        let compiled = fg::check_program(&expr).expect("corpus program checks");
        suite.bench(GROUP, &format!("{}/eval_translated", p.id), "", || {
            system_f::eval(black_box(&compiled.term)).unwrap()
        });
        suite.bench(GROUP, &format!("{}/eval_direct", p.id), "", || {
            fg::interp::run_direct(black_box(&expr)).unwrap()
        });
    }
}

/// Figure 3's plain System F `sum` — the language the paper starts
/// from — so the F_G front-end cost is visible against raw System F.
fn figure_3_system_f(suite: &mut Suite) {
    const GROUP: &str = "figure_3_system_f";
    suite.bench(GROUP, "parse", "", || {
        system_f::parse_term(black_box(corpus::FIG3_SUM_SYSTEM_F)).unwrap()
    });
    let term = system_f::parse_term(corpus::FIG3_SUM_SYSTEM_F).expect("fig 3 parses");
    suite.bench(GROUP, "typecheck", "", || system_f::typecheck(black_box(&term)).unwrap());
    suite.bench(GROUP, "eval", "", || system_f::eval(black_box(&term)).unwrap());
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashSet;

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
        // Every planned benchmark reported, group by group.
        let groups = [
            ("model_lookup", 4),
            ("stl_prelude", 4),
            ("congruence_scaling", 5 + 3),
            ("throughput", 3),
            ("dictionary_overhead", 4 * 4),
            ("refinement_chain", 5),
            ("diamond_lattice", 4 + 13),
            ("same_type_chain", 5),
            ("paper_figures", 4 * corpus::ALL.len()),
            ("figure_3_system_f", 3),
        ];
        for (group, count) in groups {
            let got = report.entries.iter().filter(|e| e.group == group).count();
            assert_eq!(got, count, "entries in group {group}");
        }
        let total: usize = groups.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 97);
        assert_eq!(report.entries.len(), total);
        // Keys are unique, and every measurement is nonzero.
        let mut keys = HashSet::new();
        for e in &report.entries {
            assert!(keys.insert((&e.group, &e.id, &e.param)), "duplicate {e:?}");
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
