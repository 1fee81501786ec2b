//! The prelude snapshot against the whole program: for every pipeline
//! method, a `--prelude` request on a body must print exactly what a
//! request without the prelude prints for `with_prelude(body)` — as a
//! worker's first request, and after the worker has served others.

use telemetry::limits::Limits;
use telemetry::trace::Tracer;

use crate::{run_request, PIPELINE_METHODS};

/// The bodies compared: the prelude bodies of `fg::stdlib`'s tests and
/// of `check_implicit.rs`, the six algorithm families the end-to-end
/// benchmark sends, an ill-typed body, a parse error, a lex error, and
/// the empty body.
const BODIES: &[&str] = &[
    "accumulate[int](range(1, 5))",
    "it_accumulate[list int](range(1, 11))",
    "car[int](reverse[int](range(1, 4)))",
    "length[int](reverse[int](range(0, 7)))",
    "count_if[list int](range(0, 10), lam x: int. ilt(x, 3))",
    "all_of[list int](range(0, 10), lam x: int. ilt(x, 100))",
    "any_of[list int](range(0, 10), lam x: int. ilt(x, 0))",
    "min_element[list int](cons[int](4, cons[int](2, cons[int](9, nil[int]))))",
    "contains[list int](range(0, 5), 3)",
    "contains[list int](range(0, 5), 9)",
    "EqualityComparable<int>.not_equal(1, 2)",
    "LessThanComparable<int>.less_equal(2, 2)",
    "Group<int>.binary_op(Group<int>.inverse(5), Group<int>.identity_elt)",
    "length[int](range(3, 9))",
    "length[int](append[int](range(0, 3), range(0, 4)))",
    "length[int](accumulate[list int](cons[list int](range(0, 2), cons[list int](range(0, 3), nil[list int]))))",
    "EqualityComparable<list int>.equal(range(0, 3), range(0, 3))",
    "EqualityComparable<list (list int)>.not_equal(nil[list int], cons[list int](nil[int], nil[list int]))",
    "car[bool](reverse[bool](cons[bool](true, cons[bool](false, nil[bool]))))",
    "length[int](it_accumulate[list (list int)](cons[list int](range(0, 4), nil[list int])))",
    "let product =
       model Semigroup<int> { binary_op = imult; } in
       model Monoid<int> { identity_elt = 1; } in
       accumulate[int]
     in
     iadd(imult(100, accumulate[int](range(1, 4))), product(range(1, 4)))",
    "accumulate(range(1, 5))",
    "length(reverse(range(0, 7)))",
    "contains(range(0, 5), 3)",
    "it_accumulate(range(1, 11))",
    "min_element(cons[int](4, cons[int](2, nil[int])))",
    "count_if(range(0, 10), lam x: int. ilt(x, 3))",
    "accumulate[int](range(7, 19))",
    "it_accumulate[list int](range(7, 19))",
    "length[int](reverse[int](range(7, 19)))",
    "count_if[list int](range(7, 19), lam x: int. ilt(x, 11))",
    "contains[list int](range(7, 19), 11)",
    "min_element[list int](reverse[int](range(7, 19)))",
    "accumulate[bool](nil[bool])",
    "iadd(1,",
    "1 + 2",
    "",
];

/// Methods whose output holds fresh names: compared after renumbering.
const FRESH_NAMED: [&str; 4] = ["translate", "elaborate", "bytecode", "explain"];

/// Renumbers `name_N` fresh-name suffixes in order of first occurrence:
/// fresh names come from a process-wide counter, so only their pattern
/// is a function of the source.
fn renumber(text: &str) -> String {
    let mut seen: Vec<String> = Vec::new();
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
        if !is_word(bytes[i]) {
            out.push(char::from(bytes[i]));
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_word(bytes[i]) {
            i += 1;
        }
        let word = &text[start..i];
        match word.rsplit_once('_') {
            Some((base, n))
                if !base.is_empty() && !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) =>
            {
                let k = seen.iter().position(|w| w == word).unwrap_or_else(|| {
                    seen.push(word.to_owned());
                    seen.len() - 1
                });
                out.push_str(&format!("{base}_#{k}"));
            }
            _ => out.push_str(word),
        }
    }
    out
}

/// One request's visible outcome, as `run_file` builds it.
fn request(method: &str, source: &str, use_prelude: bool) -> (u8, String, String) {
    let tracer = if method == "explain" {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let out = run_request(
        method,
        "<body>",
        source,
        use_prelude,
        Limits::DEFAULT_CAPS,
        &tracer,
    );
    if FRESH_NAMED.contains(&method) {
        (out.code, renumber(&out.stdout), renumber(&out.stderr))
    } else {
        (out.code, out.stdout, out.stderr)
    }
}

#[test]
fn snapshot_requests_match_whole_program_requests() {
    let pool = fg::pool::WorkerPool::new(1).expect("spawn pool");
    let expected: Vec<Vec<(u8, String, String)>> = pool
        .run_one(|| {
            BODIES
                .iter()
                .map(|body| {
                    let whole = fg::stdlib::with_prelude(body);
                    PIPELINE_METHODS
                        .iter()
                        .map(|m| request(m, &whole, false))
                        .collect()
                })
                .collect()
        })
        .expect("reference requests");
    for (b, body) in BODIES.iter().enumerate() {
        for (m, method) in PIPELINE_METHODS.iter().enumerate() {
            let (method, body) = (*method, *body);
            // A new worker: the snapshot is built by this very request.
            let first = fg::pool::WorkerPool::new(1)
                .expect("spawn pool")
                .run_one(move || request(method, body, true))
                .expect("first request");
            assert_eq!(
                first, expected[b][m],
                "{method} of {body:?}, first on its worker"
            );
        }
    }
    // A worker that has served 50 other requests (every method, several
    // bodies, errors among them) before each comparison.
    let warm = fg::pool::WorkerPool::new(1).expect("spawn pool");
    warm.run_one(|| {
        for k in 0..50 {
            let body = BODIES[(k * 7) % BODIES.len()];
            request(PIPELINE_METHODS[k % PIPELINE_METHODS.len()], body, true);
        }
    })
    .expect("warm-up requests");
    for (b, body) in BODIES.iter().enumerate() {
        let body = *body;
        let got = warm
            .run_one(move || {
                PIPELINE_METHODS
                    .iter()
                    .map(|m| request(m, body, true))
                    .collect::<Vec<_>>()
            })
            .expect("warm requests");
        for (m, method) in PIPELINE_METHODS.iter().enumerate() {
            assert_eq!(
                got[m], expected[b][m],
                "{method} of {body:?}, on a warm worker"
            );
        }
    }
}

#[test]
fn renumbering_follows_first_occurrence() {
    assert_eq!(
        renumber("let Monoid_17 = x in Semigroup_3(Monoid_17, y_2')"),
        "let Monoid_#0 = x in Semigroup_#1(Monoid_#0, y_2')"
    );
}
