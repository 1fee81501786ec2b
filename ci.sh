#!/bin/sh
# Local CI gate: everything a PR must pass, runnable fully offline.
#
# Usage: ./ci.sh [build|test|lint|smoke|robustness|bench|all]...
#
# Stages run in the order given (default: all of them, in the order
# below). Each stage is timed and recorded; after the run a stage table
# is printed and a machine-readable ci-summary.json (fg-ci/1) is
# written next to this script. The first failing stage marks the rest
# skipped. All scratch files live in a mktemp -d directory that a trap
# removes on any exit, including a forced mid-stage failure.
#
#   build       release build of the whole workspace
#   test        unit, doc, and integration tests
#   lint        clippy -D warnings, sh -n, py_compile, README-vs---help
#   smoke       trace/explain validation, --jobs batch, serve round trip
#   robustness  adversarial corpus, fuzz, fault injection, grep gates
#   bench       quick fg-bench/1 runs, schema + regression + scaling gates
set -eu

FG=target/release/fg
SUMMARY=ci-summary.json
CI_TMP=$(mktemp -d "${TMPDIR:-/tmp}/fg-ci.XXXXXX")
trap 'rm -rf "$CI_TMP"' EXIT INT TERM

# ---------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------

need_fg() {
    [ -x "$FG" ] || { echo "ci.sh: $FG not built — run './ci.sh build' first"; exit 1; }
}

stage_build() {
    # Every crate, fg-cli included (as does a bare build, through
    # default-members), so the gates below never run a stale `fg`.
    cargo build --release --workspace --offline
}

stage_test() {
    cargo test -q --offline
    # The CLI's timing-sensitive tests (deadlines, wall bounds) also run
    # against the optimized binary users run: a deadline that a debug
    # build hits can be one a release build never reaches.
    cargo test -q --release --offline -p fg-cli
    # The end-to-end benchmark harness lives outside the workspace but
    # builds against fg::pool and fg::check; its own tests (answer keys,
    # input generators) must keep passing with every change to them.
    cargo test -q --release --offline --manifest-path perfbench/harness/Cargo.toml --target-dir target
}

stage_lint() {
    need_fg
    cargo clippy --workspace --all-targets --offline -- -D warnings

    # The CI harness itself must parse, and so must every tool it runs.
    sh -n ci.sh
    python3 -m py_compile tools/*.py

    # Docs-vs-binary drift gate: every `--flag` in README's flag tables
    # must be accepted vocabulary in `fg --help`.
    "$FG" --help > "$CI_TMP/help.txt"
    sed -n 's/^| *`\(--[a-z-]*\).*/\1/p' README.md | sort -u > "$CI_TMP/readme-flags.txt"
    [ -s "$CI_TMP/readme-flags.txt" ] || { echo "FAIL: no flag table found in README.md"; exit 1; }
    while IFS= read -r flag; do
        grep -q -- "$flag" "$CI_TMP/help.txt" \
            || { echo "FAIL: README documents $flag but 'fg --help' does not mention it"; exit 1; }
    done < "$CI_TMP/readme-flags.txt"
    echo "lint: $(wc -l < "$CI_TMP/readme-flags.txt") README flags all present in --help"
}

stage_smoke() {
    need_fg
    # Trace/explain smoke: every example must check with tracing on,
    # emit fg-trace/1 JSONL whose every line is valid JSON with the
    # required keys, and render an explain report.
    for f in examples/*.fg; do
        "$FG" check --trace "$CI_TMP/trace.jsonl" "$f" > /dev/null
        python3 - "$CI_TMP/trace.jsonl" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as fh:
    lines = fh.read().splitlines()
assert lines, "empty trace"
header = json.loads(lines[0])
for key in ("schema", "command", "source", "events", "dropped"):
    assert key in header, f"header missing {key}: {header}"
assert header["schema"] == "fg-trace/1", header
assert header["events"] == len(lines) - 1, (header, len(lines))
for line in lines[1:]:
    ev = json.loads(line)
    for key in ("ev", "span", "name", "ts_ns"):
        assert key in ev, f"event missing {key}: {ev}"
    assert ev["ev"] in ("begin", "end", "instant"), ev
PYEOF
        "$FG" explain "$f" > /dev/null
    done

    # Trace parity: tracing observes a check without changing it, so the
    # work and budget counters of a traced check equal the plain one's,
    # on every example and on one prelude body.
    trace_parity() {
        "$FG" --metrics-json "$CI_TMP/plain.json" "$@" > /dev/null
        "$FG" --metrics-json "$CI_TMP/traced.json" --trace "$CI_TMP/parity.jsonl" "$@" > /dev/null
        python3 - "$CI_TMP/plain.json" "$CI_TMP/traced.json" "$*" <<'PYEOF'
import json, sys
def groups(path):
    counters = json.load(open(path))["counters"]
    counters["limits"].pop("elapsed_ms")
    return {g: counters.get(g) for g in ("limits", "check", "congruence", "intern")}
plain, traced = groups(sys.argv[1]), groups(sys.argv[2])
assert plain == traced, f"{sys.argv[3]}: --trace changed the counters: {plain} vs {traced}"
PYEOF
    }
    for f in examples/*.fg; do
        trace_parity check "$f"
    done
    printf 'contains[list int](range(3, 7), 5)\n' > "$CI_TMP/parity-body.fg"
    trace_parity --prelude check "$CI_TMP/parity-body.fg"
    echo "smoke: traced and plain counters agree on every example and a prelude body"

    # Parallel batch smoke: the full example corpus (good files plus
    # adversarial diagnostics) under --jobs 4 must finish with the
    # worst-code-wins exit (1: diagnostics, no crashes) and a merged
    # fg-metrics/1 report carrying the pool.* counter group.
    code=0
    "$FG" --jobs 4 --metrics-json "$CI_TMP/batch-metrics.json" \
        check examples/*.fg examples/adversarial/*.fg > /dev/null 2>&1 || code=$?
    [ "$code" -eq 1 ] || { echo "FAIL: --jobs 4 batch exited $code (want 1)"; exit 1; }
    python3 - "$CI_TMP/batch-metrics.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "fg-metrics/1", doc
pool = doc["counters"]["pool"]
for key in ("workers", "jobs", "queue_depth_peak", "panics",
            "cache_hits", "cache_misses"):
    assert key in pool, f"pool group missing {key}: {pool}"
assert pool["workers"] == 4, pool
assert pool["jobs"] >= 6, pool
assert pool["panics"] == 0, pool
assert any(k.startswith("worker") and k.endswith("_busy_ns") for k in pool), pool
PYEOF

    # Serve smoke: boot the daemon on an ephemeral port, check a file
    # twice over fg-rpc/1 (the repeat must be a recorded cache hit),
    # confirm the hit in `stats`, and shut down cleanly (exit 0), all
    # while another client holds an idle connection.
    "$FG" serve --addr 127.0.0.1:0 > "$CI_TMP/serve.out" 2> "$CI_TMP/serve.err" &
    serve_pid=$!
    trap 'kill "$serve_pid" 2> /dev/null || true' EXIT
    tries=0
    until addr=$(sed -n 's|^fg: serving fg-rpc/1 on ||p' "$CI_TMP/serve.out") && [ -n "$addr" ]; do
        tries=$((tries + 1))
        [ "$tries" -le 50 ] || { echo "FAIL: serve did not announce an address"; exit 1; }
        sleep 0.1
    done
    # One idle client must not wedge the daemon: hold a connection open
    # and silent while every request below is served, through shutdown.
    python3 -c '
import socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
conn = socket.create_connection((host, int(port)))
open(sys.argv[2], "w").close()
time.sleep(120)
' "$addr" "$CI_TMP/idle.up" &
    idle_pid=$!
    trap 'kill "$serve_pid" "$idle_pid" 2> /dev/null || true' EXIT
    tries=0
    until [ -e "$CI_TMP/idle.up" ]; do
        tries=$((tries + 1))
        [ "$tries" -le 50 ] || { echo "FAIL: the idle client did not connect"; exit 1; }
        sleep 0.1
    done
    timeout 10 "$FG" rpc --addr "$addr" check examples/fig5_accumulate.fg > "$CI_TMP/rpc1.json" \
        || { echo "FAIL: no check reply while a client idles"; exit 1; }
    "$FG" rpc --addr "$addr" check examples/fig5_accumulate.fg > "$CI_TMP/rpc2.json"
    "$FG" rpc --addr "$addr" stats > "$CI_TMP/rpc-stats.json"
    python3 - "$CI_TMP/rpc1.json" "$CI_TMP/rpc2.json" "$CI_TMP/rpc-stats.json" <<'PYEOF'
import json, sys
first, second, stats = (json.load(open(p)) for p in sys.argv[1:4])
for r in (first, second):
    assert r["v"] == "fg-rpc/1" and r["ok"] and r["exit"] == 0, r
    assert r["output"].strip() == "int", r
assert first["cached"] is False, first
assert second["cached"] is True, "repeat request must hit the compile cache"
pool = json.loads(stats["output"])["counters"]["pool"]
assert pool["cache_hits"] >= 1, pool
serve = json.loads(stats["output"])["counters"]["serve"]
assert serve["connections_peak"] >= 2 and serve["connections_timed_out"] == 0, serve
PYEOF
    # Prelude bodies through the daemon: each worker checks the prelude
    # once and every later body runs against that snapshot, so each reply
    # must equal a one-shot run of the same body, generated names and all.
    printf 'accumulate[int](range(1, 10))\n' > "$CI_TMP/body1.fg"
    printf 'count_if[list int](range(0, 10), lam x: int. ilt(x, 4))\n' > "$CI_TMP/body2.fg"
    for method in check run translate elaborate; do
        for body in body1 body2; do
            "$FG" --prelude rpc --addr "$addr" "$method" "$CI_TMP/$body.fg" \
                > "$CI_TMP/rpc-$method-$body.json" || true
            code=0
            "$FG" --prelude "$method" "$CI_TMP/$body.fg" \
                > "$CI_TMP/one-$method-$body.out" 2> /dev/null || code=$?
            python3 - "$CI_TMP/rpc-$method-$body.json" "$CI_TMP/one-$method-$body.out" "$code" <<'PYEOF'
import json, sys
reply = json.load(open(sys.argv[1]))
one_shot = open(sys.argv[2]).read()
assert reply["exit"] == int(sys.argv[3]), (reply, sys.argv[3])
assert reply["output"] == one_shot, (reply, one_shot)
PYEOF
        done
    done
    # A batch prints what its files print alone, byte for byte.
    for f in examples/*.fg; do "$FG" translate "$f"; done > "$CI_TMP/translate-one.out"
    "$FG" --jobs 2 translate examples/*.fg > "$CI_TMP/translate-batch.out"
    cmp -s "$CI_TMP/translate-one.out" "$CI_TMP/translate-batch.out" \
        || { echo "FAIL: --jobs 2 translate differs from one-shot runs"; exit 1; }
    timeout 10 "$FG" rpc --addr "$addr" shutdown > /dev/null \
        || { echo "FAIL: no shutdown reply while a client idles"; exit 1; }
    code=0
    wait "$serve_pid" || code=$?
    kill "$idle_pid" 2> /dev/null || true
    wait "$idle_pid" 2> /dev/null || true
    trap - EXIT
    [ "$code" -eq 0 ] || { echo "FAIL: serve shutdown exited $code (want 0)"; exit 1; }
}

stage_robustness() {
    need_fg
    # Every adversarial program must die as a structured diagnostic
    # (exit 1) under the default caps — not a crash (3), not a success
    # (0), not a hang — in every execution lane, so runtime bombs count
    # on the tree evaluator, the VM and the direct interpreter alike.
    for f in examples/adversarial/*.fg; do
        for lane in run vm direct; do
            code=0
            timeout 60 "$FG" "$lane" "$f" > /dev/null 2>&1 || code=$?
            [ "$code" -eq 1 ] || { echo "FAIL: $lane $f exited $code (want 1)"; exit 1; }
        done
    done

    # The 20-level refinement diamond is charged as the 2^21-node tree of
    # the paper's nested tuples, so the dict-node cap trips at limit + 1,
    # but the shipped checker builds only its distinct sub-plans.
    code=0
    "$FG" --metrics-json - check examples/adversarial/refinement_diamond.fg \
        > "$CI_TMP/diamond.json" 2> /dev/null || code=$?
    [ "$code" -eq 1 ] || { echo "FAIL: refinement_diamond check exited $code (want 1)"; exit 1; }
    python3 - "$CI_TMP/diamond.json" <<'PYEOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
dict_nodes = counters["limits"]["dict_nodes"]
built = counters["check"]["plan_nodes_built"]
assert dict_nodes == 250001, f"dict_nodes {dict_nodes}, want 250001"
assert built <= 64, f"plan_nodes_built {built}, want <= 64 (shared sub-plans)"
print(f"robustness: refinement_diamond dict_nodes {dict_nodes}, plan_nodes_built {built}")
PYEOF

    # Fixed-seed no-panic fuzz smoke: 1000 generated programs through
    # the governed pipeline, zero panics, bounded wall-clock.
    cargo test -q -p fg --test fuzz_pipeline --offline

    # Fault injection is contained: error mode surfaces as a diagnostic
    # (exit 1), panic mode as a caught internal error (exit 3) — on the
    # sequential path and on the pooled path alike.
    code=0
    "$FG" check --inject-fault check.expr examples/fig5_accumulate.fg > /dev/null 2>&1 || code=$?
    [ "$code" -eq 1 ] || { echo "FAIL: injected error exited $code (want 1)"; exit 1; }
    code=0
    "$FG" check --inject-fault check.expr:panic examples/fig5_accumulate.fg > /dev/null 2>&1 || code=$?
    [ "$code" -eq 3 ] || { echo "FAIL: injected panic exited $code (want 3)"; exit 1; }
    code=0
    "$FG" --jobs 2 --inject-fault check.expr@1:panic \
        check examples/fig5_accumulate.fg examples/fig6_overlapping.fg > "$CI_TMP/pool-fault.out" 2>&1 || code=$?
    [ "$code" -eq 3 ] || { echo "FAIL: pooled injected panic exited $code (want 3)"; exit 1; }
    grep -q "int" "$CI_TMP/pool-fault.out" \
        || { echo "FAIL: pooled batch did not survive one worker's panic"; exit 1; }

    # Grep gate: no panic!/unwrap() in the parser hot paths — both
    # parsers must stay panic-free outside their #[cfg(test)] modules.
    # The one sanctioned panic is the "injected fault" hook (panic-mode
    # injection exists precisely to prove the isolation layer catches it).
    for p in crates/fg/src/parser.rs crates/system-f/src/parser.rs; do
        awk '/#\[cfg\(test\)\]/{exit}
             /^[[:space:]]*\/\//{next}
             /injected fault/{next}
             /\.unwrap\(\)|panic!/{print FILENAME ":" NR ": " $0; bad=1}
             END{exit bad}' "$p" \
            || { echo "FAIL: panic site in $p hot path"; exit 1; }
    done

    # Grep gate: the congruence encoding hot path (typeeq.rs, between
    # the markers) must stay allocation-free — no format!/String keys on
    # the TyId -> TermId path that PR 4 removed them from.
    awk '/--- begin congruence encoding/{inside=1; next}
         /--- end congruence encoding/{inside=0}
         inside && /^[[:space:]]*\/\//{next}
         inside && /format!|String|to_string|to_owned|push_str/{print FILENAME ":" NR ": " $0; bad=1}
         END{exit bad}' crates/fg/src/typeeq.rs \
        || { echo "FAIL: string allocation in the congruence encoding hot path"; exit 1; }

    # Grep gate: the checker and the equality engine substitute only
    # through the interner (`TyInterner::subst`); the tree-walking
    # `rty::subst`/`subst_constraint` belong to the direct interpreter and
    # to the tests that compare the two.
    for p in crates/fg/src/check.rs crates/fg/src/typeeq.rs; do
        awk '/#\[cfg\(test\)\]/{exit}
             /^[[:space:]]*\/\//{next}
             /fn subst\(/{next}
             /rty::subst|(^|[^_a-z.])subst\(|subst_constraint\(&/{print FILENAME ":" NR ": " $0; bad=1}
             END{exit bad}' "$p" \
            || { echo "FAIL: tree substitution in $p"; exit 1; }
    done
}

stage_bench() {
    need_fg
    # Perf smoke gate: run the quick benchmark suite three times
    # (scheduler noise only inflates a measurement, so the gate reduces
    # bench-wise to the minimum), validate the committed artifacts and both fresh
    # runs against the fg-bench/1 schema, then fail on a >25% per-group
    # geomean regression in the gated groups relative to the committed
    # quick-mode baseline.
    for i in 1 2 3; do
        "$FG" bench-json --quick --out "$CI_TMP/bench-$i.json" 2> /dev/null
    done
    python3 tools/bench_gate.py validate BENCH_PR4.json BENCH_PR5.json
    python3 tools/bench_gate.py compare tools/bench_baseline_quick.json \
        "$CI_TMP/bench-1.json" "$CI_TMP/bench-2.json" "$CI_TMP/bench-3.json"

    # Parallel-throughput gate: jobs=4 must be >= 1.5x jobs=1 on the
    # quick throughput batch. On a host with fewer than 4 cores the
    # speed-up is physically unobtainable, so skip with a notice
    # instead of asserting a falsehood.
    cores=$(nproc 2> /dev/null || echo 1)
    if [ "$cores" -ge 4 ]; then
        python3 tools/bench_gate.py scaling "$CI_TMP/bench-1.json"
    else
        echo "bench: SKIP throughput scaling gate: host has $cores core(s), need >= 4"
    fi
}

# ---------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------

ALL_STAGES="build test lint smoke robustness bench"
RESULTS_FILE="$CI_TMP/results.txt"
: > "$RESULTS_FILE"
overall=0

run_stage() {
    name=$1
    if [ "$overall" -ne 0 ]; then
        echo "ci.sh: --- $name: skipped (earlier stage failed)"
        printf '%s skipped -1 0\n' "$name" >> "$RESULTS_FILE"
        return 0
    fi
    echo "ci.sh: === stage $name ==="
    start=$(date +%s)
    # Subshell with -e restored: the stage fails fast internally, while
    # the driver survives to time it, record it, and write the summary.
    set +e
    ( set -eu; "stage_$name" )
    rc=$?
    set -e
    seconds=$(( $(date +%s) - start ))
    if [ "$rc" -eq 0 ]; then
        echo "ci.sh: --- $name: ok (${seconds}s)"
        printf '%s ok %s %s\n' "$name" "$rc" "$seconds" >> "$RESULTS_FILE"
    else
        echo "ci.sh: --- $name: FAILED (exit $rc after ${seconds}s)"
        printf '%s failed %s %s\n' "$name" "$rc" "$seconds" >> "$RESULTS_FILE"
        overall=1
    fi
}

write_summary() {
    python3 - "$RESULTS_FILE" "$SUMMARY" "$overall" <<'PYEOF'
import json, sys
rows = []
with open(sys.argv[1]) as fh:
    for line in fh:
        name, status, rc, seconds = line.split()
        rows.append({"name": name, "status": status,
                     "exit": int(rc), "seconds": int(seconds)})
doc = {"schema": "fg-ci/1", "ok": sys.argv[3] == "0", "stages": rows}
with open(sys.argv[2], "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")
PYEOF
    echo "ci.sh: stage summary ($SUMMARY)"
    awk '{printf "  %-12s %-8s %ss\n", $1, $2, $4}' "$RESULTS_FILE"
}

case "${1:-all}" in
    -h|--help)
        sed -n '2,18p' "$0"
        exit 0
        ;;
esac

stages="$*"
[ -n "$stages" ] || stages=all
[ "$stages" = all ] && stages=$ALL_STAGES
for name in $stages; do
    case " $ALL_STAGES " in
        *" $name "*) ;;
        *) echo "ci.sh: unknown stage \`$name' (stages: $ALL_STAGES, or all)"; exit 2 ;;
    esac
done

for name in $stages; do
    run_stage "$name"
done
write_summary
if [ "$overall" -eq 0 ]; then
    echo "ci.sh: all gates passed"
else
    echo "ci.sh: FAILED"
fi
exit "$overall"
