#!/usr/bin/env python3
"""fg-bench/1 schema validation and performance regression gate.

Usage:
    bench_gate.py validate FILE...
    bench_gate.py compare BASELINE CURRENT...
    bench_gate.py scaling FILE [MIN_SPEEDUP]

``validate`` strictly checks each FILE against the fg-bench/1 schema
emitted by ``fg bench-json``: a top-level object with ``schema`` = "fg-bench/1", a ``harness`` string,
and a ``benches`` array whose entries carry exactly ``group``, ``id``,
``param``, ``iters``, ``total_ns``, and ``mean_ns`` with consistent
values (mean_ns == total_ns // iters).

``compare`` gates the groups in GATED_GROUPS on a per-group geometric
mean of ``mean_ns``. CURRENT may be several runs of the same suite;
they are reduced bench-wise to their minimum first, because scheduler
noise only ever inflates a measurement. The gate fails when a run
lacks a gated baseline bench (one without ``@`` in its id), so a
renamed or dropped bench cannot leave the gate silently, and when a
gated group's reduced geomean exceeds THRESHOLD x the baseline's
geomean.
Per-bench ratios are printed for diagnosis either way.

``scaling`` reads the ``throughput/check_batch`` benches of FILE and
fails unless the jobs=4 batch is at least MIN_SPEEDUP (default
SCALING_MIN_SPEEDUP) times faster than the jobs=1 batch. ci.sh runs
this only when the host has >= 4 cores; a single-core host cannot
express the speed-up and the stage is skipped with a notice instead.
"""

import json
import math
import sys

GATED_GROUPS = ("model_lookup", "congruence_scaling", "throughput")
THRESHOLD = 1.25
SCALING_MIN_SPEEDUP = 1.5

ENTRY_FIELDS = {"group", "id", "param", "iters", "total_ns", "mean_ns"}


def fail(msg):
    print(f"bench_gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"{path}: cannot read as JSON: {e}")


def validate(path):
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    if doc.get("schema") != "fg-bench/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, want 'fg-bench/1'")
    if not isinstance(doc.get("harness"), str) or not doc["harness"]:
        fail(f"{path}: harness must be a non-empty string")
    benches = doc.get("benches")
    if not isinstance(benches, list) or not benches:
        fail(f"{path}: benches must be a non-empty array")
    seen = set()
    for e in benches:
        if not isinstance(e, dict) or set(e) != ENTRY_FIELDS:
            fail(f"{path}: bench entry fields {sorted(e)} != {sorted(ENTRY_FIELDS)}")
        for k in ("group", "id", "param"):
            if not isinstance(e[k], str):
                fail(f"{path}: {k} must be a string: {e}")
        for k in ("iters", "total_ns", "mean_ns"):
            if not isinstance(e[k], int) or e[k] < 0:
                fail(f"{path}: {k} must be a non-negative integer: {e}")
        if e["iters"] < 1 or e["total_ns"] < 1:
            fail(f"{path}: empty measurement: {e}")
        if e["mean_ns"] != e["total_ns"] // e["iters"]:
            fail(f"{path}: mean_ns inconsistent with total_ns/iters: {e}")
        key = (e["group"], e["id"], e["param"])
        if key in seen:
            fail(f"{path}: duplicate bench {key}")
        seen.add(key)
    print(f"bench_gate: {path}: schema ok ({len(benches)} benches)")
    return doc


def means_by_key(doc):
    return {
        (e["group"], e["id"], e["param"]): e["mean_ns"]
        for e in doc["benches"]
    }


def compare(baseline_path, current_paths):
    base = means_by_key(validate(baseline_path))
    runs = [means_by_key(validate(p)) for p in current_paths]
    # Bench-wise minimum across runs: noise only inflates.
    current = {}
    for key in runs[0]:
        vals = [r[key] for r in runs if key in r]
        current[key] = min(vals)

    gated = [k for k in base if k[0] in GATED_GROUPS and "@" not in k[1]]
    for path, run in zip(current_paths, runs):
        missing = sorted(k for k in gated if k not in run)
        if missing:
            fail(f"{path}: lacks gated baseline benches: {missing}")

    bad = []
    for group in GATED_GROUPS:
        keys = sorted(k for k in gated if k[0] == group)
        if not keys:
            fail(f"{baseline_path}: no '{group}' benches to gate")
        for k in keys:
            ratio = current[k] / base[k]
            print(
                f"bench_gate:   {k[0]}/{k[1]}"
                f"{('/' + k[2]) if k[2] else '':<6} "
                f"{base[k]:>12} -> {current[k]:>12} ns/iter  ({ratio:5.2f}x)"
            )
        geo = lambda m: math.exp(sum(math.log(m[k]) for k in keys) / len(keys))
        ratio = geo(current) / geo(base)
        verdict = "ok" if ratio <= THRESHOLD else "REGRESSION"
        print(f"bench_gate: group {group}: geomean ratio {ratio:.2f}x ({verdict})")
        if ratio > THRESHOLD:
            bad.append((group, ratio))
    if bad:
        fail(
            "; ".join(
                f"group {g} regressed {r:.2f}x (> {THRESHOLD}x allowed)"
                for g, r in bad
            )
        )
    print("bench_gate: no regression beyond threshold")


def scaling(path, min_speedup):
    means = means_by_key(validate(path))
    by_jobs = {
        k[2]: v for k, v in means.items()
        if k[0] == "throughput" and k[1] == "check_batch"
    }
    if "1" not in by_jobs or "4" not in by_jobs:
        fail(f"{path}: no throughput/check_batch benches for jobs=1 and jobs=4")
    for jobs in sorted(by_jobs, key=int):
        speedup = by_jobs["1"] / by_jobs[jobs]
        print(
            f"bench_gate:   throughput/check_batch/{jobs} "
            f"{by_jobs[jobs]:>12} ns/batch  ({speedup:5.2f}x vs jobs=1)"
        )
    speedup = by_jobs["1"] / by_jobs["4"]
    if speedup < min_speedup:
        fail(
            f"jobs=4 speed-up {speedup:.2f}x is below the "
            f"{min_speedup}x floor"
        )
    print(f"bench_gate: scaling ok: jobs=4 is {speedup:.2f}x jobs=1")


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "validate":
        for path in sys.argv[2:]:
            validate(path)
    elif len(sys.argv) >= 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) in (3, 4) and sys.argv[1] == "scaling":
        floor = float(sys.argv[3]) if len(sys.argv) == 4 else SCALING_MIN_SPEEDUP
        scaling(sys.argv[2], floor)
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
