#!/usr/bin/env python3
"""End-to-end benchmark runner for ocelot (see README.md in this directory).

Builds bench_e2e from the source tree this file sits in, then either

  * runs one workload and prints one JSON result line (the command
    BENCHMARK.json at the repository root names):

        python3 bench/e2e/run.py --workload archive-1w --seed 1 \\
            --seconds 16 --trace 0

  * or, without --workload, runs every workload and prints each metric
    by name with its unit, plus a host fingerprint:

        python3 bench/e2e/run.py                      # one run each
        python3 bench/e2e/run.py --repeat 10          # medians, quartiles
        python3 bench/e2e/run.py --repeat 10 --alternate
        python3 bench/e2e/run.py --trace              # per-layer metrics
        python3 bench/e2e/run.py --smoke              # short check run
        python3 bench/e2e/run.py --self-test          # checks must fire

Everything the build and the runs write stays under .bench_build/ at the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
BINARY = BUILD_DIR / "bench_e2e"
BUILD_TYPE = "Release"
# Fresh processes per run whose median set-up time is reported.
SETUP_PROCESSES = 7
# One run, set-up processes included, must end well within 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures once, then builds bench_e2e incrementally."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--parallel", "4",
                  "--target", "bench_e2e"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})")


def run_binary(args, deadline):
    """Runs bench_e2e in the build directory; returns (exit code, result)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([str(BINARY)] + args, cwd=BUILD_DIR, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e {' '.join(args)} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def check_names(metrics, expected, what):
    got = list(metrics)
    if sorted(got) != sorted(expected):
        fail(f"{what} metric names {sorted(got)} do not match BENCHMARK.json "
             f"{sorted(expected)}")


def run_workload(bench, workload, seed, seconds, trace, smoke=False, self_test=False):
    """One run of one workload; returns (exit code, result dict or None)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    flags = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        flags.append("--smoke")
    setup = []
    if not trace and not self_test:
        for _ in range(1 if smoke else SETUP_PROCESSES):
            code, result = run_binary(flags + ["--setup-only"], deadline)
            if code != 0 or result is None:
                return code or 1, None
            setup.append(result["metrics"]["setup_s"]["value"])
    code, result = run_binary(flags + (["--trace"] if trace else [])
                              + (["--self-test"] if self_test else []), deadline)
    if result is None:
        return code or 1, None
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    kind = "per_layer" if trace else "end_to_end"
    if not self_test:
        check_names(result["metrics"], [m["name"] for m in bench[kind]],
                    f"{workload} {kind}")
    return code, result


def fingerprint(seed):
    cpu = "unknown"
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu == "unknown":
                cpu = value.strip()
            if key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    cache = {}
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", BUILD_TYPE),
        "seed": seed,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(bound_metric, base, other):
    """Relative change of `other` against `base` in the worse direction."""
    if base == 0:
        return 0.0
    change = (other - base) / base
    return change if bound_metric["better"] == "lower" else -change


def print_table(workload, metrics_by_set, defs, alternate):
    print(f"\n== {workload}")
    header = f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
    header += f" {'spread':>7s}"
    if alternate:
        header += f" {'B median':>12s} {'B vs A':>7s}"
    print(header)
    flagged = []
    for d in defs:
        name = d["name"]
        a = [m[name]["value"] for m in metrics_by_set[0]]
        if not any(a):
            continue  # a layer this workload bypasses
        q1, med, q3 = quartiles(a)
        s = spread(a)
        line = f"  {name:40s} {d['unit']:6s} {med:12.5g} {q1:12.5g} {q3:12.5g} {s:7.1%}"
        bound = d.get("bound")
        if bound is not None and name != "setup_s" and len(a) > 1 and s > bound:
            flagged.append(f"{workload}/{name}: spread {s:.1%} > bound {bound:.0%}")
            line += "  SPREAD>BOUND"
        if alternate:
            b = [m[name]["value"] for m in metrics_by_set[1]]
            bq1, bmed, bq3 = quartiles(b)
            w = worse_by(d, med, bmed) if bound is not None else 0.0
            line += f" {bmed:12.5g} {w:+7.1%}"
            if bound is not None and w > bound:
                flagged.append(f"{workload}/{name}: set B median worse by {w:.1%} "
                               f"> bound {bound:.0%}")
                line += "  B-WORSE>BOUND"
            line += f"  (B q1 {bq1:.5g}, q3 {bq3:.5g})"
        print(line)
    return flagged


def runner(bench, opts):
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    defs = bench["per_layer"] if opts.trace else bench["end_to_end"]
    print(json.dumps({"fingerprint": fingerprint(opts.seed)}))

    if opts.self_test:
        missed = []
        for w in workloads:
            code, result = run_workload(bench, w, opts.seed, seconds, False,
                                        smoke=True, self_test=True)
            fired = code != 0 and result is not None and not result["correct"]
            print(f"  self-test {w:14s} {'check fired' if fired else 'CHECK DID NOT FIRE'}")
            if not fired:
                missed.append(w)
        sys.exit(1 if missed else 0)

    sets = 2 if opts.alternate else 1
    results = {w: [[] for _ in range(sets)] for w in workloads}
    started = time.monotonic()
    for r in range(opts.repeat):
        seed = opts.seed + r
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            set_order = range(sets) if r % 2 == 0 else reversed(range(sets))
            for s in set_order:
                t = time.monotonic()
                code, result = run_workload(bench, w, seed, seconds, opts.trace,
                                            smoke=opts.smoke)
                if code != 0 or result is None or not result["correct"]:
                    fail(f"{w} seed {seed} failed (exit {code}): {result}")
                results[w][s].append(result["metrics"])
                print(f"  run {r + 1}/{opts.repeat} set {'AB'[s]} {w:14s} seed {seed} "
                      f"{time.monotonic() - t:6.1f} s  attempted {result['attempted']}",
                      flush=True)
    flagged = []
    for w in workloads:
        flagged += print_table(w, results[w], defs, opts.alternate)
    print(f"\ntotal wall {time.monotonic() - started:.1f} s")
    for f in flagged:
        print(f"FLAG {f}")
    sys.exit(1 if flagged else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run one workload and print one JSON line")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement window per run (default: run_seconds)")
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"],
                   help="print per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="an eighth of the window, one set-up process")
    p.add_argument("--self-test", action="store_true",
                   help="corrupt one result per workload; the checks must fire")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--alternate", action="store_true",
                   help="two interleaved sets of runs, compared against the bounds")
    opts = p.parse_args()
    opts.trace = opts.trace == "1"

    bench = load_benchmark()
    build()
    if opts.workload is None:
        runner(bench, opts)
    if opts.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {opts.workload}")
    seconds = opts.seconds or bench["run_seconds"]
    code, result = run_workload(bench, opts.workload, opts.seed, seconds, opts.trace,
                                smoke=opts.smoke, self_test=opts.self_test)
    if result is None:
        fail(f"{opts.workload} produced no result (exit {code})")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
