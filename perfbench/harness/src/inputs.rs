//! Seeded inputs and their answer keys.
//!
//! Every program comes from a generator that already exists in the
//! repository: the `bench` crate's program builders, `fg::corpus::ALL`,
//! `fg::stdlib::with_prelude`, `fg::graph::with_graph_lib`,
//! `fg::linalg::with_linalg` and the files of `examples/adversarial`.
//! The expected value of each program is taken from the same place (a
//! `bench::*_expected` function, a corpus `Expected`, a value documented by
//! the generator, or arithmetic over the generator's parameters), never
//! from running `fg`. The one exception is the byte text of a `translate`
//! reply, whose key is a fresh `fg translate` of the same source (see
//! `drive::TranslateKeys`).
//!
//! Inputs are index-addressable: input `i` of a workload depends only on
//! the seed and `i`, so a closed loop can run as far as its time allows
//! and the same seed always yields the same inputs.

use fg::corpus::Expected;

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one (seed, stream, index) triple, so that inputs
    /// can be built in any order.
    pub fn at(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 ^= r
            .next()
            .wrapping_add(index.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Skewed towards small values: `lo + ⌊(hi − lo + 1) · u³⌋` for a
    /// uniform `u`, so most draws are cheap and a few are expensive.
    pub fn skewed(&mut self, lo: usize, hi: usize) -> usize {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (((hi - lo + 1) as f64) * u * u * u) as usize
    }
}

/// A pipeline method of `fg` and of the `fg-rpc/1` daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Check,
    Run,
    Vm,
    Direct,
    Translate,
}

impl Method {
    pub fn name(self) -> &'static str {
        match self {
            Method::Check => "check",
            Method::Run => "run",
            Method::Vm => "vm",
            Method::Direct => "direct",
            Method::Translate => "translate",
        }
    }

    /// One of the four value-producing lanes, chosen uniformly.
    fn pick(rng: &mut Rng) -> Method {
        [Method::Check, Method::Run, Method::Vm, Method::Direct][rng.below(4) as usize]
    }
}

/// What a reply must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Exit 0; `check` prints the value's type, the lanes print the value.
    Value(Expected),
    /// Exit 1 with nothing on stdout: an ill-typed program or a budget trip.
    Rejected,
}

/// One request: a method, a source and its answer key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Input {
    pub family: &'static str,
    pub method: Method,
    /// Whether the prelude is pasted in front (`--prelude`, `"prelude":true`).
    pub prelude: bool,
    pub source: String,
    pub answer: Answer,
}

impl Input {
    /// The whole program the pipeline sees.
    pub fn full_source(&self) -> String {
        if self.prelude {
            fg::stdlib::with_prelude(&self.source)
        } else {
            self.source.clone()
        }
    }

    /// The expected exit code and stdout. `None` for the stdout of a
    /// successful `translate`, whose key is a fresh `fg translate`.
    pub fn expected_stdout(&self) -> (u8, Option<String>) {
        match (self.answer, self.method) {
            (Answer::Rejected, _) => (1, Some(String::new())),
            (Answer::Value(_), Method::Translate) => (0, None),
            (Answer::Value(v), Method::Check) => (0, Some(format!("{}\n", type_of(v)))),
            (Answer::Value(v), _) => (0, Some(format!("{}\n", render(v)))),
        }
    }
}

/// The F_G type `fg check` prints for a value.
pub fn type_of(v: Expected) -> &'static str {
    match v {
        Expected::Int(_) => "int",
        Expected::Bool(_) => "bool",
    }
}

/// A value as every lane prints it.
pub fn render(v: Expected) -> String {
    match v {
        Expected::Int(n) => n.to_string(),
        Expected::Bool(b) => b.to_string(),
    }
}

// ---------------------------------------------------------------------
// Program families
// ---------------------------------------------------------------------

/// A short-list call of one of the prelude's generic algorithms, run with
/// the prelude pasted in front. Chosen because the prelude is then about
/// 95% of the request: this is the cost a pre-checked prelude removes.
/// `lo` makes the body unique, so the daemon's compile cache never hits.
/// Lists hold 2 to 6 elements.
fn prelude_body(rng: &mut Rng, lo: i64) -> (&'static str, String, Expected) {
    let len = 2 + rng.below(5);
    prelude_call(rng, lo, len)
}

/// One of the prelude's algorithms over `range(lo, lo + len)`.
fn prelude_call(rng: &mut Rng, lo: i64, len: u64) -> (&'static str, String, Expected) {
    let len = len as i64;
    let hi = lo + len;
    let c = lo + rng.below(len as u64 + 1) as i64;
    let sum: i64 = (lo..hi).sum();
    match rng.below(6) {
        0 => (
            "prelude.accumulate",
            format!("accumulate[int](range({lo}, {hi}))"),
            Expected::Int(sum),
        ),
        1 => (
            "prelude.it_accumulate",
            format!("it_accumulate[list int](range({lo}, {hi}))"),
            Expected::Int(sum),
        ),
        2 => (
            "prelude.reverse_length",
            format!("length[int](reverse[int](range({lo}, {hi})))"),
            Expected::Int(len),
        ),
        3 => (
            "prelude.count_if",
            format!("count_if[list int](range({lo}, {hi}), lam x: int. ilt(x, {c}))"),
            Expected::Int(c - lo),
        ),
        4 => (
            "prelude.contains",
            format!("contains[list int](range({lo}, {hi}), {c})"),
            Expected::Bool(c < hi),
        ),
        _ => (
            "prelude.min_element",
            format!("min_element[list int](reverse[int](range({lo}, {hi})))"),
            Expected::Int(lo),
        ),
    }
}

/// A program over one of the larger F_G libraries (graph algorithms or
/// linear algebra, each on top of the prelude), sent without the prelude
/// flag because the source already holds it. Chosen as the heaviest
/// requests of the daemon mix: they set its tail latency.
fn library_program(rng: &mut Rng, salt: i64) -> (&'static str, String, Expected) {
    if rng.below(2) == 0 {
        let n = 2 + rng.below(4) as i64;
        let (model, edges) = match rng.below(3) {
            0 => (fg::graph::CYCLE_MODEL, n),
            1 => (fg::graph::PATH_MODEL, n - 1),
            _ => (fg::graph::COMPLETE_MODEL, n * (n - 1)),
        };
        (
            "graph.edge_count",
            fg::graph::with_graph_lib(model, &format!("iadd({salt}, edge_count[int]({n}))")),
            Expected::Int(salt + edges),
        )
    } else {
        let k = 2 + rng.below(4) as i64;
        let b = rng.below(10) as i64;
        let dot: i64 = (0..k).map(|i| (salt + i) * (b + i)).sum();
        (
            "linalg.dot",
            fg::linalg::with_linalg(&format!(
                "dot[int](range_vec({salt}, {}), range_vec({b}, {}))",
                salt + k,
                b + k
            )),
            Expected::Int(dot),
        )
    }
}

/// A self-contained program from the `bench` generators or the paper
/// corpus, with cost-skewed sizes. Chosen because its checking cost is the
/// user's own code: refinement chains, many models, diamond lattices and
/// same-type chains stress model lookup, dictionary construction and
/// congruence closure with no prelude involved. The program is wrapped so
/// that its value depends on `salt`: distinct salts give distinct sources
/// and a stale or misrouted reply cannot match.
fn plain_program(rng: &mut Rng, salt: i64) -> (&'static str, String, Expected) {
    let (family, program, value) = match rng.below(6) {
        0 => {
            let d = rng.skewed(1, 24);
            (
                "bench.refinement_chain",
                bench::refinement_chain_program(d),
                Expected::Int(bench::refinement_chain_expected(d)),
            )
        }
        1 => {
            let w = rng.skewed(1, 64);
            // The generator reads the first of `w` models: value 0.
            (
                "bench.many_models",
                bench::many_models_program(w),
                Expected::Int(0),
            )
        }
        2 => {
            let layers = rng.skewed(1, 4);
            let width = 1 + rng.below(2) as usize;
            // The generator's instantiation `f[int](7)` returns 7.
            (
                "bench.diamond",
                bench::diamond_program(layers, width),
                Expected::Int(7),
            )
        }
        3 => {
            let k = rng.skewed(1, 12);
            // `h` is `iadd` over k one-element lists of 1: value k.
            (
                "bench.same_type_chain",
                bench::same_type_chain_program(k),
                Expected::Int(k as i64),
            )
        }
        4 => {
            let n = rng.skewed(0, 40);
            (
                "bench.generic_accumulate",
                bench::generic_accumulate_program(n),
                Expected::Int(bench::sum_expected(n)),
            )
        }
        _ => {
            let p = &fg::corpus::ALL[rng.below(fg::corpus::ALL.len() as u64) as usize];
            ("corpus", p.source.to_owned(), p.expected)
        }
    };
    let (source, value) = salted(&program, value, salt);
    (family, source, value)
}

/// Wraps a program's final expression so that its result depends on
/// `salt`. The wrap goes inside the scope of the program's models: the
/// final expression's type may be an associated type (`Base<int>.a`) that
/// normalizes to `int` only there.
fn salted(program: &str, value: Expected, salt: i64) -> (String, Expected) {
    let cut = program
        .rmatch_indices(" in")
        .map(|(k, _)| k + 3)
        .find(|&k| program[k..].starts_with(char::is_whitespace))
        .expect("generated programs end in `... in <expression>`");
    let (scope, last) = program.split_at(cut);
    let last = last.trim();
    match value {
        Expected::Int(v) => (
            format!("{scope} iadd({salt}, {last})"),
            Expected::Int(salt + v),
        ),
        Expected::Bool(b) => (
            format!("{scope} if ({last}) then {salt} else {}", salt + 1),
            Expected::Int(if b { salt } else { salt + 1 }),
        ),
    }
}

/// An ill-typed program (exit 1). With the prelude: a fold at `bool`,
/// which has no `Monoid` model, so model lookup fails. Without: a
/// refinement chain instantiated at `bool`, which models none of its
/// concepts. Both run the checker's error path.
fn ill_typed(rng: &mut Rng, salt: i64, prelude: bool) -> (&'static str, String) {
    if prelude {
        (
            "ill_typed.prelude_no_model",
            format!("iadd({salt}, accumulate[bool](cons[bool](true, nil[bool])))"),
        )
    } else {
        let d = 1 + rng.below(8) as usize;
        let program = bench::refinement_chain_program(d);
        let body = program
            .strip_suffix("f[int](0)\n")
            .expect("refinement_chain_program ends with its instantiation");
        (
            "ill_typed.refinement_at_bool",
            format!("iadd({salt}, ({body}f[bool](true)))"),
        )
    }
}

/// The sources of `examples/adversarial/*.fg` in file-name order, each of
/// which must trip a budget or be rejected (exit 1) under the CLI's
/// default caps.
pub fn adversarial_sources(root: &std::path::Path) -> std::io::Result<Vec<String>> {
    let dir = root.join("examples").join("adversarial");
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "fg") {
            paths.push(path);
        }
    }
    if paths.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no .fg files in {}", dir.display()),
        ));
    }
    paths.sort();
    paths.iter().map(std::fs::read_to_string).collect()
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// Streams that keep the workloads' random choices independent.
const PRELUDE_STREAM: u64 = 1;
const BATCH_STREAM: u64 = 2;
const MIXED_STREAM: u64 = 3;
const SETUP_STREAM: u64 = 4;

/// A value that differs per seed and keeps literals short.
fn base(seed: u64, stream: u64) -> i64 {
    Rng::at(seed, stream, u64::MAX).below(100_000) as i64
}

/// Every this many `prelude_serve` requests, one runs over a long list.
const LONG_LIST_EVERY: u64 = 25;

/// `prelude_serve` request `i`: a unique prelude body, `check` or `run`
/// in strict alternation. One request in 25 is a `run` over a list of 400
/// to 500 elements, which takes about three times as long: the workload's
/// tail is then this known 4% of its requests, so `latency_p99_ms` follows
/// the program's own cost rather than the rate of host stalls, which sets
/// the p99 of uniform requests and varies from run to run.
pub fn prelude_serve(seed: u64, i: u64) -> Input {
    let mut rng = Rng::at(seed, PRELUDE_STREAM, i);
    let lo = base(seed, PRELUDE_STREAM) + 10 * i as i64;
    let long = i % LONG_LIST_EVERY == LONG_LIST_EVERY - 1;
    let (family, source, value) = if long {
        let len = 400 + rng.below(101);
        prelude_call(&mut rng, lo, len)
    } else {
        prelude_body(&mut rng, lo)
    };
    Input {
        family,
        method: if !long && i.is_multiple_of(2) {
            Method::Check
        } else {
            Method::Run
        },
        prelude: true,
        source,
        answer: Answer::Value(value),
    }
}

/// Programs per `corpus_batch` invocation: enough that the pool has work
/// to balance, few enough that a run holds well over a thousand batches.
pub const BATCH_SIZE: u64 = 8;

/// `corpus_batch` batch `j`: `BATCH_SIZE` distinct no-prelude programs,
/// all `run`.
pub fn corpus_batch(seed: u64, j: u64) -> Vec<Input> {
    (0..BATCH_SIZE)
        .map(|slot| {
            let k = j * BATCH_SIZE + slot;
            let mut rng = Rng::at(seed, BATCH_STREAM, k);
            let (family, source, value) =
                plain_program(&mut rng, base(seed, BATCH_STREAM) + k as i64);
            Input {
                family,
                method: Method::Run,
                prelude: false,
                source,
                answer: Answer::Value(value),
            }
        })
        .collect()
}

/// The roles of one 40-request `daemon_mixed` cycle, shuffled per cycle.
/// The counts fix the mix exactly: 20% repeats (compile-cache hits), 5%
/// ill-typed, 2.5% `translate`, 5% library programs, about 25% with the
/// prelude, and one adversarial file every fourth cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Repeat,
    IllTyped { prelude: bool },
    Translate,
    Library,
    Prelude,
    Plain,
}

const CYCLE: [(Role, usize); 7] = [
    (Role::Repeat, 8),
    (Role::IllTyped { prelude: true }, 1),
    (Role::IllTyped { prelude: false }, 1),
    (Role::Translate, 1),
    (Role::Library, 2),
    (Role::Prelude, 9),
    (Role::Plain, 18),
];
const CYCLE_LEN: u64 = 40;
/// An adversarial file replaces one `Plain` request every this many cycles.
const ADVERSARIAL_EVERY: u64 = 4;
/// A repeat re-sends one of the client's last this many fresh requests.
const REPEAT_WINDOW: u64 = 8;

fn role_of(seed: u64, client: u64, i: u64) -> Role {
    let cycle = i / CYCLE_LEN;
    let mut roles: Vec<Role> = CYCLE
        .iter()
        .flat_map(|&(r, n)| std::iter::repeat_n(r, n))
        .collect();
    let mut rng = Rng::at(seed, MIXED_STREAM ^ (client << 32), cycle);
    for k in (1..roles.len()).rev() {
        roles.swap(k, rng.below(k as u64 + 1) as usize);
    }
    roles[(i % CYCLE_LEN) as usize]
}

/// `daemon_mixed` request `i` of client `client` (of `clients`).
pub fn daemon_mixed(seed: u64, client: u64, clients: u64, i: u64, adversarial: &[String]) -> Input {
    let role = role_of(seed, client, i);
    if role == Role::Repeat {
        // Re-send an earlier fresh request of the same client: a cache hit.
        let mut rng = Rng::at(seed, MIXED_STREAM ^ (client << 32) ^ 0xFF, i);
        let back = rng.below(REPEAT_WINDOW);
        let mut seen = 0;
        for t in (0..i).rev() {
            if role_of(seed, client, t) != Role::Repeat {
                if seen == back {
                    return daemon_mixed(seed, client, clients, t, adversarial);
                }
                seen += 1;
            }
        }
        // Nothing earlier to repeat (the first requests): fall through to
        // a fresh plain request.
    }
    let mut rng = Rng::at(seed, MIXED_STREAM ^ (client << 32) ^ 0xAA, i);
    let salt = base(seed, MIXED_STREAM) + 10 * (i * clients + client) as i64;
    let fresh = |family, method, prelude, source, value| Input {
        family,
        method,
        prelude,
        source,
        answer: Answer::Value(value),
    };
    match role {
        Role::IllTyped { prelude } => {
            let (family, source) = ill_typed(&mut rng, salt, prelude);
            Input {
                family,
                method: Method::pick(&mut rng),
                prelude,
                source,
                answer: Answer::Rejected,
            }
        }
        Role::Translate => {
            // Mostly self-contained programs; one in four over the prelude.
            if rng.below(4) == 0 {
                let (family, source, value) = prelude_body(&mut rng, salt);
                fresh(family, Method::Translate, true, source, value)
            } else {
                let (family, source, value) = plain_program(&mut rng, salt);
                fresh(family, Method::Translate, false, source, value)
            }
        }
        Role::Library => {
            let (family, source, value) = library_program(&mut rng, salt);
            fresh(family, Method::pick(&mut rng), false, source, value)
        }
        Role::Prelude => {
            let (family, source, value) = prelude_body(&mut rng, salt);
            fresh(family, Method::pick(&mut rng), true, source, value)
        }
        Role::Plain | Role::Repeat => {
            let cycle = i / CYCLE_LEN;
            let first_plain = (0..CYCLE_LEN)
                .map(|k| cycle * CYCLE_LEN + k)
                .find(|&t| role_of(seed, client, t) == Role::Plain);
            if role == Role::Plain
                && cycle % ADVERSARIAL_EVERY == ADVERSARIAL_EVERY - 1
                && first_plain == Some(i)
            {
                let k = (cycle / ADVERSARIAL_EVERY + client) as usize;
                let source = adversarial[k % adversarial.len()].trim_end();
                // `run` and `direct` reject every file within milliseconds.
                // `check` and `translate` accept omega.fg (it is well
                // typed), and `vm` spends about 4 s and 1.5 GB on it before
                // its fuel cap trips, a stall that would swamp the mix.
                // The salt, in a trailing comment, keeps the compile cache
                // from replaying the rejection: the daemon runs into the
                // budget every time, on whichever worker takes the request.
                return Input {
                    family: "adversarial",
                    method: [Method::Run, Method::Direct][rng.below(2) as usize],
                    prelude: false,
                    source: format!("{source}\n// request {salt}\n"),
                    answer: Answer::Rejected,
                };
            }
            let (family, source, value) = plain_program(&mut rng, salt);
            fresh(family, Method::pick(&mut rng), false, source, value)
        }
    }
}

/// The request a cold start sends first: a prelude `check` for the daemon
/// workloads (the first reply pays for everything start-up leaves
/// undone), one small corpus program for `corpus_batch`. The family is
/// fixed so that seeds change only literals.
pub fn setup_input(seed: u64, k: u64, daemon: bool) -> Input {
    let lo = base(seed, SETUP_STREAM) + 10 * k as i64;
    if daemon {
        Input {
            family: "setup.prelude_check",
            method: Method::Check,
            prelude: true,
            source: format!("accumulate[int](range({lo}, {}))", lo + 4),
            answer: Answer::Value(Expected::Int(4 * lo + 6)),
        }
    } else {
        let (source, value) = salted(
            fg::corpus::FIG5_ACCUMULATE.source,
            fg::corpus::FIG5_ACCUMULATE.expected,
            lo,
        );
        Input {
            family: "setup.fig5",
            method: Method::Run,
            prelude: false,
            source,
            answer: Answer::Value(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adversarial() -> Vec<String> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        adversarial_sources(&root).expect("examples/adversarial is readable")
    }

    fn all_inputs(seed: u64, adv: &[String]) -> Vec<Input> {
        let mut v: Vec<Input> = (0..200).map(|i| prelude_serve(seed, i)).collect();
        v.extend((0..25).flat_map(|j| corpus_batch(seed, j)));
        for c in 0..2 {
            v.extend((0..400).map(|i| daemon_mixed(seed, c, 2, i, adv)));
        }
        v.extend((0..5).flat_map(|k| [setup_input(seed, k, true), setup_input(seed, k, false)]));
        v
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_answer_keys() {
        let adv = adversarial();
        for seed in [0, 1, 0xDEAD_BEEF] {
            let a = all_inputs(seed, &adv);
            let b = all_inputs(seed, &adv);
            assert_eq!(a, b, "seed {seed}");
            let other = all_inputs(seed + 7, &adv);
            assert_ne!(a, other, "seeds {seed} and {} must differ", seed + 7);
        }
    }

    #[test]
    fn daemon_mixed_repeats_exactly_one_fifth_of_each_cycle() {
        let adv = adversarial();
        for c in 0..2 {
            let repeats = (0..CYCLE_LEN)
                .filter(|&i| role_of(9, c, 4 * CYCLE_LEN + i) == Role::Repeat)
                .count();
            assert_eq!(repeats, 8);
        }
        // A repeat is byte-identical to an earlier request of its client.
        let inputs: Vec<Input> = (0..200).map(|i| daemon_mixed(9, 1, 2, i, &adv)).collect();
        for (i, input) in inputs.iter().enumerate().skip(40) {
            if role_of(9, 1, i as u64) == Role::Repeat {
                assert!(inputs[..i].contains(input), "request {i}");
            }
        }
    }

    #[test]
    fn every_salted_family_and_corpus_program_keeps_its_value() {
        let mut programs: Vec<(String, Expected)> = fg::corpus::ALL
            .iter()
            .map(|p| (p.source.to_owned(), p.expected))
            .collect();
        for n in 1..4 {
            programs.push((
                bench::refinement_chain_program(n),
                Expected::Int(bench::refinement_chain_expected(n)),
            ));
            programs.push((bench::many_models_program(n), Expected::Int(0)));
            programs.push((bench::diamond_program(n, 2), Expected::Int(7)));
            programs.push((bench::same_type_chain_program(n), Expected::Int(n as i64)));
            programs.push((
                bench::generic_accumulate_program(n),
                Expected::Int(bench::sum_expected(n)),
            ));
        }
        for (program, value) in programs {
            let (source, want) = salted(&program, value, 1000);
            let got = fg::run(&source).unwrap_or_else(|e| panic!("{e}\n{source}"));
            assert!(want.matches(&got), "{source}");
        }
    }

    /// The answer keys come from the generators; this checks them against
    /// the library pipeline once, so a wrong key is a test failure here
    /// rather than a benchmark run that reports the program as wrong.
    #[test]
    fn answer_keys_match_the_library_pipeline() {
        let adv = adversarial();
        let limits = telemetry::limits::Limits::DEFAULT_CAPS;
        let inputs = all_inputs(3, &adv);
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(move || {
                for input in inputs.iter().step_by(3) {
                    let got = fg::limits::run_budgeted(&input.full_source(), limits);
                    match input.answer {
                        Answer::Value(v) => {
                            let got = got.unwrap_or_else(|e| panic!("{}: {e}", input.family));
                            assert!(v.matches(&got), "{}: {got} vs {v:?}", input.family);
                        }
                        Answer::Rejected => assert!(got.is_err(), "{}", input.family),
                    }
                }
            })
            .expect("spawn")
            .join()
            .expect("keys match");
    }
}
