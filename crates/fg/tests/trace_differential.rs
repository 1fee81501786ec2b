//! Cross-lane trace differential: the typechecker (which resolves models
//! at compile time, emitting dictionaries) and the direct interpreter
//! (which resolves the same lookups at run time) must make the *same
//! sequence of model-selection decisions* on the paper corpus.
//!
//! The comparison key is the ordered projection of `model_selected`
//! instants onto `(site, concept, args)`, restricted to the sites both
//! lanes share one-for-one: `instantiate` (where-clause discharge at a
//! type application) and `model_decl` (refinement/requirement children of
//! a model declaration). Member-access and normalization lookups are
//! excluded — the checker resolves each member once while the interpreter
//! resolves per evaluation — so they legitimately differ in multiplicity.

use std::sync::Arc;

use fg::check::check_program_budgeted;
use fg::interp::run_direct_budgeted;
use fg::parser::parse_expr;
use telemetry::trace::{first_divergence, instant_sequence, Event, Tracer};

/// The ordered `(site, concept, head)` rows of the lane-comparable
/// model-selection decisions. The *selected model's declared head* is the
/// stable key: the query arguments may print differently across lanes
/// (the checker keeps associated-type projections that equality discharges
/// through the congruence; the interpreter normalizes them away), but both
/// lanes must pick the same declaration.
fn selection_sequence(events: &[Event]) -> Vec<Vec<String>> {
    instant_sequence(events, "model_selected", &["site", "concept", "head"])
        .into_iter()
        .filter(|row| row[0] == "instantiate" || row[0] == "model_decl")
        .collect()
}

fn lanes_agree(name: &str, src: &str) {
    let expr = parse_expr(src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
    let check_tracer = Tracer::enabled();
    let compiled = check_program_budgeted(&expr, check_tracer.clone(), Arc::default())
        .unwrap_or_else(|e| panic!("{name}: check error: {e}"));
    let direct_tracer = Tracer::enabled();
    run_direct_budgeted(&compiled.elaborated, direct_tracer.clone(), Arc::default())
        .unwrap_or_else(|e| panic!("{name}: runtime error: {e}"));
    let check_seq = selection_sequence(&check_tracer.events());
    let direct_seq = selection_sequence(&direct_tracer.events());
    if let Some((i, a, b)) = first_divergence(&check_seq, &direct_seq) {
        panic!(
            "{name}: lanes diverge at selection #{i}:\n  check lane:  {a:?}\n  direct lane: {b:?}\n\
             full check sequence: {check_seq:?}\nfull direct sequence: {direct_seq:?}"
        );
    }
}

#[test]
fn corpus_lanes_make_identical_selection_sequences() {
    for p in fg::corpus::ALL {
        lanes_agree(p.id, p.source);
    }
}

#[test]
fn fig5_example_file_selection_sequences_agree_and_are_nonempty() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig5_accumulate.fg");
    let src = std::fs::read_to_string(path).expect("read fig5 example");
    lanes_agree("fig5_accumulate.fg", &src);
}

#[test]
fn fig6_example_file_selects_the_two_scoped_models_in_order() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig6_overlapping.fg");
    let src = std::fs::read_to_string(path).expect("read fig6 example");
    lanes_agree("fig6_overlapping.fg", &src);

    // The overlap test proper: the check-lane trace must show, at each of
    // the two `accumulate[int]` sites, a `Monoid<int>` selected from a
    // *different* scope entry (the lexically innermost model of each arm).
    let expr = parse_expr(&src).expect("parse fig6");
    let tracer = Tracer::enabled();
    check_program_budgeted(&expr, tracer.clone(), Arc::default()).expect("check fig6");
    let selections: Vec<(String, String)> = tracer
        .events()
        .iter()
        .filter(|e| {
            matches!(e, Event::Instant { .. })
                && e.name() == "model_selected"
                && e.attr("site").and_then(|v| v.as_str()) == Some("instantiate")
        })
        .map(|e| {
            (
                e.attr("concept").unwrap().render(),
                e.attr("decl_start").unwrap().render(),
            )
        })
        .collect();
    let monoids: Vec<&(String, String)> =
        selections.iter().filter(|(c, _)| c == "Monoid").collect();
    assert_eq!(
        monoids.len(),
        2,
        "expected two instantiate-site Monoid selections, got {selections:?}"
    );
    assert_ne!(
        monoids[0].1, monoids[1].1,
        "the two call sites must select models from distinct declarations"
    );
}
