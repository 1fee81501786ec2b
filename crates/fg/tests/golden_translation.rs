//! Golden translations: the F_G type and the System F translation of every
//! paper-corpus program, every `examples/*.fg` file and two prelude
//! bodies, pinned byte for byte in `tests/golden/`.
//!
//! A change to the checker that is meant to be invisible (a refactor, a
//! new cache) must leave these files as they are. Regenerate them only
//! for an intended change of the translation:
//!
//! ```text
//! FG_BLESS=1 cargo test -p fg --test golden_translation
//! ```

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

use fg::parser::parse_expr;
use fg::prefix::Snapshot;
use fg::stdlib::{prelude_prefix, with_prelude};
use telemetry::trace::Tracer;

/// The bodies ci.sh's smoke stage sends with `--prelude`.
const PRELUDE_BODIES: &[(&str, &str)] = &[
    ("prelude_accumulate", "accumulate[int](range(1, 10))\n"),
    (
        "prelude_count_if",
        "count_if[list int](range(0, 10), lam x: int. ilt(x, 4))\n",
    ),
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned text: the type on the first line, the translation after.
fn render(ty: &impl std::fmt::Display, term: &impl std::fmt::Display) -> String {
    format!("type: {ty}\n{term}\n")
}

/// Compares `got` with the golden file `name`, or writes it under
/// `FG_BLESS=1`.
fn check_golden(name: &str, got: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("FG_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (bless with FG_BLESS=1)", path.display()));
    assert!(
        got == want,
        "{name}: translation differs from {}\n--- want\n{want}\n--- got\n{got}",
        path.display()
    );
}

/// Runs `f` on a pool worker: checking the prelude wants a big stack.
fn on_worker<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    fg::pool::WorkerPool::new(1)
        .expect("spawn pool")
        .run_one(f)
        .expect("worker task")
}

fn whole_program(src: &str) -> String {
    let expr = parse_expr(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    let compiled = fg::check_program(&expr).unwrap_or_else(|e| panic!("check: {e}\n{src}"));
    render(&compiled.ty, &compiled.term)
}

#[test]
fn corpus_programs_translate_as_pinned() {
    for p in fg::corpus::ALL {
        check_golden(&format!("corpus_{}", p.id), &whole_program(p.source));
    }
}

#[test]
fn example_files_translate_as_pinned() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read examples")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "fg"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no examples/*.fg found");
    for path in files {
        let src = std::fs::read_to_string(&path).expect("read example");
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 name");
        check_golden(&format!("example_{stem}"), &whole_program(&src));
    }
}

#[test]
fn prelude_bodies_translate_as_pinned() {
    for &(name, body) in PRELUDE_BODIES {
        let whole = on_worker(move || whole_program(&with_prelude(body)));
        check_golden(name, &whole);
    }
}

/// The snapshot path (the prelude checked once, the body in its hole)
/// pins the same bytes as the whole program.
#[test]
fn prelude_bodies_on_a_snapshot_translate_as_pinned() {
    for &(name, body) in PRELUDE_BODIES {
        let got = on_worker(move || {
            let prefix = Rc::new(prelude_prefix(Arc::default()).expect("prelude parses"));
            let snapshot = Snapshot::check(Rc::clone(&prefix), [], Tracer::disabled(), Arc::default())
                .expect("prelude checks");
            let expr = prefix.parse_body(body, Arc::default()).expect("body parses");
            let (checked, _) = snapshot.check_body(&expr, Tracer::disabled(), Arc::default());
            let compiled = checked.expect("body checks");
            render(&compiled.ty, &snapshot.splice_term(compiled.term))
        });
        if std::env::var_os("FG_BLESS").is_none() {
            check_golden(name, &got);
        }
    }
}
