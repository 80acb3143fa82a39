#!/usr/bin/env python3
"""Self-test of the benchmark: a very short run of every workload.

    python3 perfbench/selftest.py

For each workload of BENCHMARK.json it runs perfbench/run.py with a
one-second window, untraced and traced, and asserts that
  * the result line is well formed and correct,
  * every end-to-end (untraced) or per-layer (traced) metric is present
    with its unit,
  * every output check of the workload ran and passed,
  * the layers the workload is meant to exercise report non-zero figures.
Exits 0 when all pass.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DURABLE_CHECKS = [
    "durable.reopen",
    "durable.recovered_opens_equal_acked",
    "durable.recovered_assigns_equal_acked",
    "durable.recovered_pending_zero",
    "durable.replayed_equals_acked_commits",
    "durable.assigns_fifo",
    "durable.no_failed_calls",
]
CHECKS = {
    "rw_read_mostly": [
        "stats.admitted_equals_completed",
        "stats.admitted_sum_equals_attempted",
        "seats.holders_are_clients",
        "seats.available_equals_empty",
        "seats.match_client_ledgers",
    ],
    "ticket_durable": DURABLE_CHECKS,
    "ticket_durable_async": DURABLE_CHECKS,
}

# Per-layer figures that must be non-zero on a workload that exercises
# the layer.
EXERCISED = {
    "rw_read_mostly": ["core.admit_us.p50", "core.complete_us.p50",
                       "apps.body_us.p50", "runtime.self_us_per_call"],
    "ticket_durable": ["core.admit_us.p50", "core.complete_us.p50",
                       "storage.log_bytes_per_commit",
                       "storage.replay_us_per_commit",
                       "storage.recovery_s"],
    "ticket_durable_async": ["concurrency.park_us.p50",
                             "concurrency.wake_us_per_call",
                             "concurrency.progress_us_per_call",
                             "concurrency.parked_bytes_per_call",
                             "storage.log_bytes_per_commit",
                             "storage.replay_us_per_commit"],
}


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    assert proc.returncode == 0, f"{workload}: run.py exited {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    checks = {}
    for line in lines[:-1]:
        if line.startswith("check "):
            name, verdict = line[len("check "):].rsplit(": ", 1)
            checks[name] = verdict
    return result, checks


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            try:
                result, checks = run(workload, trace)
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, "result keys"
                assert result["correct"] is True, "run not correct"
                assert result["attempted"] >= 1, "nothing attempted"
                for m in spec[kind]:
                    got = result["metrics"].get(m["name"])
                    assert got is not None, f"missing metric {m['name']}"
                    assert got["unit"] == m["unit"], f"unit of {m['name']}"
                    assert isinstance(got["value"], (int, float))
                for name in CHECKS[workload]:
                    prefix = "untraced." if trace else ""
                    for key in {name, prefix + name}:
                        assert checks.get(key) == "pass", f"check {key}"
                if trace:
                    for name in EXERCISED[workload]:
                        assert result["metrics"][name]["value"] > 0, \
                            f"{name} is zero"
                print(f"ok   {label}")
            except AssertionError as e:
                failures.append(f"{label}: {e}")
                print(f"FAIL {label}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
