#!/usr/bin/env python3
"""Repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the two drivers in .bench_build/perfbench from this checkout's src/
(perfbench/CMakeLists.txt; the first run compiles the library), then runs
the workload and checks its outputs.

--trace 0 runs the end-to-end driver and reports every end-to-end metric
of BENCHMARK.json. --trace 1 runs the end-to-end driver for half the window
and then the traced driver on the same seed for the whole window, and
reports every per-layer metric, including trace.overhead_ratio (untraced
ops_per_s / traced ops_per_s). The per-layer metrics of a layer the
workload bypasses (BYPASSED below) read 0; any other metric missing from
a driver's result is an error.

A driver run measured while the hypervisor took more than 0.4 % of the
machine's CPU time (steal: other tenants of a shared host) is measured
once more, and the less disturbed attempt is reported; the notes give the
attempts made and the steal share of the one kept. A run whose checks
fail is reported at once, never retried.

Standard output: host facts, checks and notes as readable lines, then the
result as one JSON line: {"correct", "attempted", "failed", "metrics"}.
A run whose checks fail reports correct: false and no metrics. Each result
is also kept, with its host facts, in .bench_build/perfbench/results/, and
the spans of the last traced attempt in
.bench_build/perfbench/traces/<workload>.csv.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
BUILD_JOBS = "2"
# Per driver process, beyond its window: its 2 s warm-up and set-up. A
# --trace 1 run starts two drivers and each may be retried (below): four
# at most.
DRIVER_SLACK_S = 17
# On a shared host steal comes and goes over tens of seconds. During a
# 15 % burst the contended workload loses 3x and ticket_durable's fsync
# path already slows by a fifth at 1-3 %; such a measurement is repeated.
STEAL_RETRY_SHARE = 0.004
MAX_ATTEMPTS = 2
# The layers each workload does not reach (see its "why" in
# BENCHMARK.json); their per-layer metrics are reported as 0.
BYPASSED = {
    "rw_read_mostly": ("storage", "concurrency"),
    "ticket_durable": ("concurrency",),
    "ticket_durable_async": (),
}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root", 2)
    return json.loads(spec_path.read_text())


def build():
    if not (ROOT / "src" / "core" / "moderator.hpp").is_file():
        fail("library sources (src/) not found next to perfbench/", 2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_driver(binary, args):
    budget = float(args[args.index("--seconds") + 1]) + DRIVER_SLACK_S
    proc = subprocess.run([str(BUILD_DIR / binary)] + args,
                          stdout=subprocess.PIPE, timeout=budget, text=True)
    if proc.returncode != 0:
        fail(f"{binary} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{binary} printed no result")
    return json.loads(lines[-1])


def run_measured(binary, args):
    """run_driver, repeated while the host stole more than
    STEAL_RETRY_SHARE of the CPU time; returns the least disturbed run."""
    best = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        result = run_driver(binary, args)
        if not result["correct"]:
            return result
        steal = result["info"]["host_steal_share"]
        if best is None or steal < best["info"]["host_steal_share"]:
            best = result
        best["info"]["attempts"] = attempt
        if steal <= STEAL_RETRY_SHARE:
            break
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    build()

    work_dir = BUILD_DIR / "work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--work-dir", str(work_dir)]
    try:
        if not args.trace:
            result = run_measured("perfbench_run", common)
        else:
            half = common[:]
            half[half.index("--seconds") + 1] = repr(args.seconds / 2)
            reference = run_measured("perfbench_run", half)
            trace_dir = BUILD_DIR / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            result = run_measured(
                "perfbench_trace",
                common + ["--trace-out",
                          str(trace_dir / f"{args.workload}.csv")])
            result["correct"] = result["correct"] and reference["correct"]
            for name, ok in reference["checks"].items():
                result["checks"]["untraced." + name] = ok
            untraced = reference["metrics"]["ops_per_s"]["value"]
            traced = result["metrics"]["trace.ops_per_s"]["value"]
            result["metrics"]["trace.overhead_ratio"] = {
                "value": untraced / traced if traced > 0 else 0.0,
                "unit": "ratio"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    expected = spec["per_layer" if args.trace else "end_to_end"]
    for m in expected:
        layer = m["name"].split(".", 1)[0]
        if args.trace and layer in BYPASSED[args.workload]:
            result["metrics"].setdefault(
                m["name"], {"value": 0.0, "unit": m["unit"]})
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the result")

    print("host " + json.dumps(result["host"]))
    for name, ok in result["checks"].items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    for name, value in result["info"].items():
        print(f"note {name} = {value}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    correct = bool(result["correct"])
    metrics = {m["name"]: result["metrics"][m["name"]] for m in expected}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics if correct else {}}))


if __name__ == "__main__":
    main()
