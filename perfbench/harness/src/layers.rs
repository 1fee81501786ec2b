//! The traced run: per-layer time and work, measured from outside the
//! program by spans around the calls into each layer's public functions,
//! recorded with the repository's own `telemetry::trace::Tracer`
//! (`fg-trace/1`).
//!
//! The pass runs every input through parse, check, the System F
//! typechecker and all three execution lanes in-process, alternating an
//! untraced and a traced copy of each input (their ratio is
//! `trace.overhead_share`). The checker itself gets a disabled tracer:
//! enabling its internal events would switch off its where-clause memo
//! and change the work being measured. Then the same inputs go through
//! `WorkerPool::run_batch` at one and at `nproc` workers, through a
//! daemon one at a time (round-trip spans on the client side), and
//! through the workload's own load for the pool and cache counters.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use telemetry::limits::{Budget, Limits};
use telemetry::trace::{self, Tracer, TreeItem};

use crate::drive::{self, Daemon, TranslateKeys, Verdict};
use crate::e2e;
use crate::inputs::{Answer, Input, Method};
use crate::sys;

/// The budget every in-process stage runs under: the CLI's defaults, so
/// the adversarial inputs trip exactly as they do in `fg`.
const LIMITS: Limits = Limits::DEFAULT_CAPS;
/// Stack for the in-process pass, as the CLI's per-file worker has.
const STACK: usize = 256 << 20;
/// Spans per input: the request and at most seven layer calls.
const SPANS_PER_INPUT: usize = 8;

/// Work counters summed over the traced pass.
#[derive(Default)]
struct Counts {
    model_lookups: u64,
    model_hits: u64,
    candidates_scanned: u64,
    dicts_built: u64,
    intern_hits: u64,
    intern_misses: u64,
    eq_queries: u64,
    unions: u64,
    finds: u64,
    fuel_spent: u64,
    dict_nodes: u64,
    cc_terms: u64,
    vm_instructions: u64,
    eval_steps: u64,
}

/// Runs one input through every layer in-process. Returns whether the
/// outcome matches the answer key. `counts` is filled on the traced copy.
fn pipeline(input: &Input, id: u64, tracer: &Tracer, counts: Option<&mut Counts>) -> bool {
    let req = tracer.begin(
        "request",
        vec![
            ("req", id.into()),
            ("family", input.family.into()),
            ("method", input.method.name().into()),
        ],
    );
    let ok = layers(input, tracer, counts);
    tracer.end(req);
    ok
}

fn layers(input: &Input, tracer: &Tracer, counts: Option<&mut Counts>) -> bool {
    let span = |name: &'static str| tracer.begin(name, Vec::new());
    let full = input.full_source();
    let budget = Arc::new(Budget::new(LIMITS));
    let mut scratch = Counts::default();
    let counts = counts.unwrap_or(&mut scratch);
    let record_budget = |counts: &mut Counts| {
        counts.fuel_spent += budget.fuel_spent();
        counts.dict_nodes += budget.dict_nodes();
        counts.cc_terms += budget.cc_terms();
    };
    let rejected = input.answer == Answer::Rejected;

    let sp = span("parse");
    let parsed = fg::parser::parse_expr_budgeted(&full, budget.clone());
    tracer.end(sp);
    let Ok(expr) = parsed else {
        record_budget(counts);
        return rejected;
    };
    let sp = span("check");
    let checked = fg::check::check_program_budgeted(&expr, Tracer::disabled(), budget.clone());
    tracer.end(sp);
    let Ok(compiled) = checked else {
        record_budget(counts);
        return rejected;
    };
    let cs = compiled.check_stats;
    counts.model_lookups += cs.model_lookups;
    counts.model_hits += cs.model_hits;
    counts.candidates_scanned += cs.candidates_scanned;
    counts.dicts_built += cs.dicts_built;
    counts.intern_hits += compiled.intern_stats.hits;
    counts.intern_misses += compiled.intern_stats.misses;
    counts.eq_queries += compiled.type_eq_stats.eq_queries;
    counts.unions += compiled.type_eq_stats.unions;
    counts.finds += compiled.type_eq_stats.finds;

    let sp = span("sf_typecheck");
    let typed = system_f::typecheck(&compiled.term);
    tracer.end(sp);
    let sp = span("sf_eval");
    let value = system_f::eval_budgeted(&compiled.term, &budget);
    tracer.end(sp);
    record_budget(counts);
    let (Ok(_), Ok(value)) = (typed, value) else {
        return rejected;
    };
    let Answer::Value(expected) = input.answer else {
        return false;
    };

    let sp = span("vm");
    let vm_budget = Budget::new(LIMITS);
    let vm = system_f::vm::compile(&compiled.term)
        .ok()
        .and_then(|p| system_f::vm::run_profiled_budgeted(&p, &vm_budget).ok());
    tracer.end(sp);
    let sp = span("direct");
    let direct = fg::interp::run_direct_budgeted(
        &compiled.elaborated,
        Tracer::disabled(),
        Arc::new(Budget::new(LIMITS)),
    );
    tracer.end(sp);
    let vm_ok = vm.is_some_and(|(v, stats)| {
        counts.vm_instructions += stats.instructions();
        v.agrees_with(&value)
    });
    let direct_ok = direct.is_ok_and(|(v, stats)| {
        counts.eval_steps += stats.eval_steps;
        v.agrees_with(&value)
    });
    expected.matches(&value) && vm_ok && direct_ok
}

/// Layer spans of one input, in milliseconds.
#[derive(Default)]
struct Spans(HashMap<&'static str, f64>);

impl Spans {
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// In-process time of the input's own method: what the daemon runs
    /// for it, without the other lanes.
    fn method_ms(&self, method: Method) -> f64 {
        let front = self.get("parse") + self.get("check");
        front
            + match method {
                Method::Check | Method::Translate => 0.0,
                Method::Run => self.get("sf_typecheck") + self.get("sf_eval"),
                Method::Vm => self.get("vm"),
                Method::Direct => self.get("direct"),
            }
    }
}

/// Per-request layer spans, rebuilt from the `fg-trace/1` event record.
fn request_spans(events: &[trace::Event]) -> Vec<Spans> {
    trace::build_tree(events)
        .into_iter()
        .filter_map(|item| match item {
            TreeItem::Span(node) if node.name == "request" => Some(node),
            _ => None,
        })
        .map(|node| {
            let mut spans = Spans::default();
            for child in node.items {
                if let TreeItem::Span(c) = child {
                    *spans.0.entry(c.name).or_default() += c.dur_ns.unwrap_or(0) as f64 / 1e6;
                }
            }
            spans
        })
        .collect()
}

/// What the in-process pass returns.
struct Pass {
    spans: Vec<Spans>,
    counts: Counts,
    wrong: u64,
    traced_s: f64,
    untraced_s: f64,
    trace_jsonl: String,
}

fn in_process(inputs: &[Input]) -> io::Result<Pass> {
    let tracer = Tracer::with_capacity(2 * SPANS_PER_INPUT * inputs.len() + 16);
    let mut counts = Counts::default();
    let (mut wrong, mut traced_s, mut untraced_s) = (0, 0.0, 0.0);
    for (id, input) in inputs.iter().enumerate() {
        // Alternate which copy goes first, so neither always finds the
        // caches warm.
        for traced_copy in [id % 2 == 0, id % 2 != 0] {
            let t = Instant::now();
            let ok = if traced_copy {
                pipeline(input, id as u64, &tracer, Some(&mut counts))
            } else {
                pipeline(input, id as u64, &Tracer::disabled(), None)
            };
            let secs = t.elapsed().as_secs_f64();
            if traced_copy {
                traced_s += secs;
            } else {
                untraced_s += secs;
            }
            wrong += u64::from(!ok);
        }
    }
    if tracer.dropped() > 0 {
        return Err(io::Error::other(format!(
            "trace ring buffer wrapped: {} events dropped",
            tracer.dropped()
        )));
    }
    let events = tracer.events();
    let spans = request_spans(&events);
    if spans.len() != inputs.len() {
        return Err(io::Error::other("traced pass lost a request span"));
    }
    Ok(Pass {
        spans,
        counts,
        wrong,
        traced_s,
        untraced_s,
        trace_jsonl: tracer.to_jsonl("perfbench", "<in-process pass>"),
    })
}

/// Batch wall time of the inputs on `fg::pool::WorkerPool` at 1 and at
/// `nproc` workers, alternated three times; the median ratio.
fn pool_scaling(inputs: &[Input], tracer: &Tracer) -> io::Result<f64> {
    let nproc = sys::nproc();
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let mut secs = [0.0; 2];
        for (slot, jobs) in [1, nproc].into_iter().enumerate() {
            let pool = fg::pool::WorkerPool::new(jobs)?;
            let tasks: Vec<_> = inputs
                .iter()
                .cloned()
                .enumerate()
                .map(|(id, input)| move || pipeline(&input, id as u64, &Tracer::disabled(), None))
                .collect();
            let sp = tracer.begin("pool.run_batch", vec![("jobs", jobs.into())]);
            let t = Instant::now();
            let results = pool.run_batch(tasks);
            secs[slot] = t.elapsed().as_secs_f64();
            tracer.end(sp);
            if results.iter().any(|r| !matches!(r, Ok(true))) {
                return Err(io::Error::other("a pooled pipeline gave a wrong answer"));
            }
        }
        ratios.push(secs[0] / secs[1]);
    }
    Ok(sys::median(&ratios))
}

/// Round trips of the inputs through a fresh daemon, one at a time, with a
/// client-side span per request. Returns per-input round-trip ms, `None`
/// for a reply the daemon replayed from its compile cache, and the number
/// of wrong replies.
fn round_trips(
    fg: &Path,
    inputs: &[Input],
    tracer: &Tracer,
) -> io::Result<(Vec<Option<f64>>, u64)> {
    let daemon = Daemon::spawn(fg)?;
    let mut keys = TranslateKeys::default();
    let mut rtts = Vec::with_capacity(inputs.len());
    let mut wrong = 0;
    for (id, input) in inputs.iter().enumerate() {
        let sp = tracer.begin(
            "rpc",
            vec![("req", id.into()), ("method", input.method.name().into())],
        );
        let t = Instant::now();
        let reply = daemon.call(input, id as u64);
        let rtt = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(sp);
        let cached = reply.as_ref().is_ok_and(|r| r.cached);
        rtts.push((!cached).then_some(rtt));
        let verdict = match reply {
            Ok(r) => match drive::check_reply(input, &r) {
                Some(v) => v,
                None => keys.judge(fg, input, &r.output)?,
            },
            Err(_) => Verdict::Wrong,
        };
        wrong += u64::from(verdict == Verdict::Wrong);
    }
    daemon.shutdown()?;
    Ok((rtts, wrong))
}

/// Pool and cache counters of the workload's own process under its own
/// load: busy share, steals per job, peak queue depth, cache hit share.
pub struct PoolView {
    busy_share: f64,
    steals_per_job: f64,
    queue_depth_peak: f64,
    cache_hit_share: f64,
}

fn delta(after: &HashMap<String, f64>, before: &HashMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

fn busy_ns(c: &HashMap<String, f64>) -> f64 {
    c.iter()
        .filter(|(k, _)| k.ends_with("_busy_ns"))
        .map(|(_, v)| v)
        .sum()
}

/// Under a daemon workload: `stats` before and after a short closed loop.
pub fn daemon_pool_view(
    fg: &Path,
    clients: u64,
    seconds: f64,
    next: &(dyn Fn(u64, u64) -> Input + Sync),
) -> io::Result<PoolView> {
    let daemon = Daemon::spawn(fg)?;
    let before = daemon.pool_counters()?;
    let t = Instant::now();
    e2e::daemon_load(
        &daemon,
        clients,
        Duration::ZERO,
        Duration::from_secs_f64(seconds),
        next,
    )?;
    let wall_ns = t.elapsed().as_secs_f64() * 1e9;
    let after = daemon.pool_counters()?;
    daemon.shutdown()?;
    let workers = after.get("workers").copied().unwrap_or(1.0);
    let jobs = delta(&after, &before, "jobs").max(1.0);
    let hits = delta(&after, &before, "cache_hits");
    let misses = delta(&after, &before, "cache_misses");
    Ok(PoolView {
        busy_share: (busy_ns(&after) - busy_ns(&before)) / (workers * wall_ns),
        steals_per_job: delta(&after, &before, "steals") / jobs,
        queue_depth_peak: after.get("queue_depth_peak").copied().unwrap_or(0.0),
        cache_hit_share: hits / (hits + misses).max(1.0),
    })
}

/// Under `corpus_batch`: the merged `--metrics-json` report of batches.
pub fn batch_pool_view(fg: &Path, work: &Path, batches: &[Vec<Input>]) -> io::Result<PoolView> {
    let report = work.join("batch-metrics.json");
    let report_arg = report.to_string_lossy().into_owned();
    let (mut busy, mut wall_ns, mut steals, mut jobs, mut depth, mut hits, mut misses) =
        (0.0, 0.0, 0.0, 0.0, 0.0f64, 0.0, 0.0);
    for batch in batches {
        let (code, stdout, secs) = drive::run_batch(
            fg,
            sys::nproc(),
            work,
            batch,
            &["--metrics-json", &report_arg],
        )?;
        if code != 0 || Some(stdout) != drive::batch_expected(batch) {
            return Err(io::Error::other("a batch gave a wrong answer"));
        }
        let c = drive::pool_group(&std::fs::read_to_string(&report)?)?;
        let workers = c.get("workers").copied().unwrap_or(1.0);
        busy += busy_ns(&c);
        wall_ns += workers * secs * 1e9;
        steals += c.get("steals").copied().unwrap_or(0.0);
        jobs += c.get("jobs").copied().unwrap_or(0.0);
        depth = depth.max(c.get("queue_depth_peak").copied().unwrap_or(0.0));
        hits += c.get("cache_hits").copied().unwrap_or(0.0);
        misses += c.get("cache_misses").copied().unwrap_or(0.0);
    }
    Ok(PoolView {
        busy_share: busy / wall_ns.max(1.0),
        steals_per_job: steals / jobs.max(1.0),
        queue_depth_peak: depth,
        cache_hit_share: hits / (hits + misses).max(1.0),
    })
}

/// The per-layer report of one workload.
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the traced measurements over `inputs` (the workload's first
/// requests) and folds in the pool view taken under the workload's load.
pub fn traced_run(
    fg: &Path,
    inputs: Vec<Input>,
    pool_view: impl FnOnce() -> io::Result<PoolView>,
    trace_out: &Path,
) -> io::Result<LayerReport> {
    let n = inputs.len() as f64;
    let tracer = Tracer::with_capacity(64 + 2 * (inputs.len() + 8));
    // The in-process layers recurse: give them the CLI worker's stack.
    let (pass, scaling, inputs) = std::thread::Builder::new()
        .name("perfbench-layers".into())
        .stack_size(STACK)
        .spawn({
            let tracer = tracer.clone();
            move || -> io::Result<(Pass, f64, Vec<Input>)> {
                let pass = in_process(&inputs)?;
                let scaling = pool_scaling(&inputs, &tracer)?;
                Ok((pass, scaling, inputs))
            }
        })?
        .join()
        .map_err(|_| io::Error::other("in-process pass panicked"))??;
    let (rtts, rpc_wrong) = round_trips(fg, &inputs, &tracer)?;
    let pool = pool_view()?;
    if tracer.dropped() > 0 {
        return Err(io::Error::other("client trace ring buffer wrapped"));
    }
    std::fs::write(
        trace_out,
        format!(
            "{}{}",
            pass.trace_jsonl,
            tracer.to_jsonl("perfbench", "<pool and round trips>")
        ),
    )?;

    let mean_span = |name: &str| pass.spans.iter().map(|s| s.get(name)).sum::<f64>() / n;
    // A cached reply skipped the pipeline, so there is no in-process time
    // to subtract from it: both serve metrics cover uncached replies only.
    let uncached: Vec<(f64, f64)> = inputs
        .iter()
        .zip(&pass.spans)
        .zip(&rtts)
        .filter_map(|((input, spans), rtt)| rtt.map(|r| (r, spans.method_ms(input.method))))
        .collect();
    let uncached_n = uncached.len().max(1) as f64;
    let rtt_ms = uncached.iter().map(|(r, _)| r).sum::<f64>() / uncached_n;
    let overhead = uncached.iter().map(|(r, m)| r - m).sum::<f64>() / uncached_n;
    let c = &pass.counts;
    let per = |x: u64| x as f64 / n;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let metrics = vec![
        ("parser.ms", mean_span("parse"), "ms"),
        ("check.ms", mean_span("check"), "ms"),
        ("check.model_lookups", per(c.model_lookups), "count"),
        (
            "check.candidates_scanned",
            per(c.candidates_scanned),
            "count",
        ),
        (
            "check.hit_ratio",
            ratio(c.model_hits, c.candidates_scanned),
            "share",
        ),
        ("check.dicts_built", per(c.dicts_built), "count"),
        (
            "intern.hit_ratio",
            ratio(c.intern_hits, c.intern_hits + c.intern_misses),
            "share",
        ),
        ("congruence.eq_queries", per(c.eq_queries), "count"),
        ("congruence.unions", per(c.unions), "count"),
        ("congruence.finds", per(c.finds), "count"),
        ("budget.fuel_spent", per(c.fuel_spent), "count"),
        ("budget.dict_nodes", per(c.dict_nodes), "count"),
        ("budget.cc_terms", per(c.cc_terms), "count"),
        ("sf_typecheck.ms", mean_span("sf_typecheck"), "ms"),
        ("sf_eval.ms", mean_span("sf_eval"), "ms"),
        ("vm.ms", mean_span("vm"), "ms"),
        ("vm.instructions", per(c.vm_instructions), "count"),
        ("direct.ms", mean_span("direct"), "ms"),
        ("direct.eval_steps", per(c.eval_steps), "count"),
        ("pool.scaling", scaling, "ratio"),
        ("pool.busy_share", pool.busy_share, "share"),
        ("pool.steals", pool.steals_per_job, "share"),
        ("pool.queue_depth_peak", pool.queue_depth_peak, "count"),
        ("cache.hit_share", pool.cache_hit_share, "share"),
        ("serve.rtt_ms", rtt_ms, "ms"),
        ("serve.overhead_ms", overhead, "ms"),
        (
            "trace.overhead_share",
            pass.traced_s / pass.untraced_s,
            "ratio",
        ),
    ];
    Ok(LayerReport {
        metrics,
        attempted: inputs.len() as u64,
        failed: pass.wrong + rpc_wrong,
    })
}
