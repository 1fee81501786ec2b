//! Checked declaration prefixes (`fg::prefix`): a body parsed and checked
//! against the prelude's snapshot gives what the whole program gives, and
//! the snapshot does not grow with the bodies it serves.

use std::rc::Rc;
use std::sync::Arc;

use fg::parser::parse_expr;
use fg::prefix::{Prefix, Snapshot};
use fg::stdlib::{prelude_prefix, with_prelude};
use telemetry::limits::Budget;
use telemetry::trace::Tracer;

/// Runs `f` on a pool worker: checking the prelude wants a big stack.
fn on_worker<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    fg::pool::WorkerPool::new(1)
        .expect("spawn pool")
        .run_one(f)
        .expect("worker task")
}

fn shared_prelude() -> Snapshot {
    let prefix = Rc::new(prelude_prefix(Arc::default()).expect("prelude parses"));
    Snapshot::check_shared(prefix, Arc::default()).expect("prelude checks")
}

#[test]
fn bodies_parse_at_the_prelude_offset() {
    let prefix = prelude_prefix(Arc::default()).unwrap();
    for body in ["accumulate[int](range(1, 5))", "let x = 1 in\n  iadd(x, x)"] {
        let spliced = prefix.splice(prefix.parse_body(body, Arc::default()).unwrap());
        assert_eq!(spliced, parse_expr(&with_prelude(body)).unwrap(), "{body}");
    }
    for body in ["", "iadd(1,", "1 + 2", "/* open"] {
        let alone = prefix.parse_body(body, Arc::default()).unwrap_err();
        let whole = parse_expr(&with_prelude(body)).unwrap_err();
        assert_eq!(alone.to_string(), whole.to_string(), "{body:?}");
    }
}

#[test]
fn the_empty_prefix_is_the_body_alone() {
    let prefix = Prefix::empty();
    assert_eq!(prefix.source_with("iadd(1, 2)"), "iadd(1, 2)");
    let body = prefix.parse_body("iadd(1, 2)", Arc::default()).unwrap();
    assert_eq!(prefix.splice(body.clone()), body);
}

#[test]
fn a_prefix_must_end_in_its_hole() {
    let budget: Arc<Budget> = Arc::default();
    assert!(Prefix::parse("concept C<t> { } in", "", budget.clone()).is_ok());
    // A complete program is no prefix, and neither is a term whose
    // nested declaration lacks a body.
    for head in ["1", "let x = 1 in x", "lam x: int. concept C<t> { } in"] {
        assert!(Prefix::parse(head, "", budget.clone()).is_err(), "{head}");
    }
}

#[test]
fn checking_a_body_matches_checking_the_whole_program() {
    on_worker(|| {
        let snapshot = shared_prelude();
        for body in [
            "accumulate[int](range(1, 5))",
            "it_accumulate(range(1, 11))",
            "let product = model Semigroup<int> { binary_op = imult; } in \
             model Monoid<int> { identity_elt = 1; } in accumulate[int] in product(range(1, 5))",
        ] {
            let parsed = snapshot.prefix().parse_body(body, Arc::default()).unwrap();
            let alone = snapshot
                .check_body(&parsed, Tracer::disabled(), Arc::default())
                .unwrap();
            let whole = fg::compile(&with_prelude(body)).unwrap();
            assert_eq!(alone.ty, whole.ty, "{body}");
            let term = snapshot.splice_term(alone.term.clone());
            assert_eq!(
                system_f::eval(&term).unwrap(),
                system_f::eval(&whole.term).unwrap(),
                "{body}"
            );
            assert_eq!(
                snapshot
                    .eval_body(&alone.term, &Budget::unlimited())
                    .unwrap(),
                system_f::eval(&whole.term).unwrap(),
                "{body}"
            );
            assert_eq!(
                snapshot.typecheck_body(&alone.term).unwrap(),
                system_f::typecheck(&term).unwrap(),
                "{body}"
            );
            // The counters cover the body: far fewer lookups than the
            // whole program's, which re-checks the prelude.
            assert!(
                alone.check_stats.model_lookups < whole.check_stats.model_lookups,
                "{body}: {:?} vs {:?}",
                alone.check_stats,
                whole.check_stats
            );
        }
    });
}

#[test]
fn the_arena_stays_at_its_mark_over_a_thousand_bodies() {
    on_worker(|| {
        let snapshot = shared_prelude();
        let arena = || snapshot.checker().intern_stats().arena_types;
        let check = |k: usize| {
            let body =
                format!("iadd({k}, count_if[list int](range(0, {k}), lam x: int. ilt(x, {k})))");
            let parsed = snapshot.prefix().parse_body(&body, Arc::default()).unwrap();
            snapshot
                .check_body(&parsed, Tracer::disabled(), Arc::default())
                .unwrap()
        };
        let first = check(0);
        let after_first = arena();
        assert!(after_first > 0);
        for k in 1..1000 {
            let checked = check(k);
            assert_eq!(checked.check_stats, first.check_stats, "body {k}");
            assert_eq!(checked.intern_stats, first.intern_stats, "body {k}");
            assert_eq!(arena(), after_first, "arena grew at body {k}");
        }
    });
}
