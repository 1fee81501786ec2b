#!/usr/bin/env python3
"""Builds `fg` and the benchmark harness from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `fg-cli` and the harness package
`perfbench/harness` with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `target`) and runs the harness, whose last
stdout line is the JSON result. See perfbench/README.md.

    python3 perfbench/run.py --report [--runs 10] [--seconds 10]

is the steadiness report: it runs each workload `--runs` times, each with
another seed, taking the workloads in turn (run k of every workload before
run k + 1 of any), so a change of the host's speed that lasts minutes
falls on all workloads rather than on part of one workload's runs. It
prints every end-to-end metric's median and quartiles, the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, `nproc`,
and the host's CPU steal share over the runs (from /proc/stat).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["prelude_serve", "corpus_batch", "daemon_mixed"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds both binaries; returns (fg, harness) paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "fg-cli"))):
        die("run from the repository root: Cargo.toml and crates/fg-cli are missing")
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "harness", "Cargo.toml")
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "fg-cli"],
                ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "fg"), os.path.join(release, "fg-perfbench")


def harness_cmd(fg, harness, workload, seed, seconds, trace):
    return [harness, "--fg", fg, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs since boot."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def report(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    fg, harness = build()
    steal0, total0 = cpu_jiffies()
    values = {w: {} for w in WORKLOADS}
    for k in range(args.runs):
        seed = k + 1
        for w in WORKLOADS:
            out = subprocess.run(harness_cmd(fg, harness, w, seed, args.seconds, 0),
                                 capture_output=True, text=True)
            if out.returncode != 0:
                die(f"{w} seed {seed} failed:\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            if not result["correct"]:
                die(f"{w} seed {seed}: a reply did not match its answer key\n{out.stderr}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    steal1, total1 = cpu_jiffies()
    worst = (0.0, "")
    for w in WORKLOADS:
        print(f"{w}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, xs in values[w].items():
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, (spread / bounds[name], f"{w}/{name}"))
            print(f"  {name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} {bounds[name]:>6}")
    print(f"nproc {os.cpu_count()}, CPU steal {(steal1 - steal0) / max(1, total1 - total0):.2%} "
          f"over the runs; largest spread / bound {worst[0]:.2f} ({worst[1]})")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    if args.report:
        if args.seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        report(args)
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        die("--workload, --seed and --seconds are required")
    fg, harness = build()
    return subprocess.run(harness_cmd(fg, harness, args.workload, args.seed,
                                      args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
