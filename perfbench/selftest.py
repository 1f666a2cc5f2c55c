#!/usr/bin/env python3
"""Short-mode self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds S]

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
asserts that the result line has exactly the contract's keys, that every
metric BENCHMARK.json names appears with its unit, that no operation failed
(home-only triggers are the documented exception and are reported apart),
that no shm segment is left behind, and that a directory holding only
BENCHMARK.json and perfbench/ makes the benchmark fail without a result.
Exits non-zero on the first violation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(cwd, workload, seconds, trace):
    cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def check_result(bench, workload, trace, proc):
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures = [l for l in lines if l.startswith("failure:")]
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"failed={result['failed']} {failures[:5]}")
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics/units differ: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            fail(f"{workload}: malformed metric {name}: {metric}")
        if not trace and not metric["value"] > 0:
            fail(f"{workload}: end-to-end metric {name} is {metric['value']}")
    if trace:
        metrics = result["metrics"]
        if metrics["check.fail_frac"]["value"] != 0:
            fail(f"{workload}: check.fail_frac {metrics['check.fail_frac']['value']}")
        if not any(l.startswith("trace2flame:") for l in lines):
            fail(f"{workload}: no trace2flame summary")
        if workload == "realloc_churn":
            print(f"  realloc_churn home-only triggers missed: "
                  f"{metrics['check.home_only_missed_frac']['value']:.2f} (documented defect)")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result = check_result(bench, workload, trace, run(ROOT, workload, args.seconds, trace))
            print(f"selftest: {workload} trace={trace}: ok "
                  f"({result['attempted']} checked operations)")

    leftovers = [n for n in os.listdir("/dev/shm") if n.startswith("nspb")]
    if leftovers:
        fail(f"shm segments left: {leftovers}")

    # Without the sources the benchmark must fail, quickly and without a result.
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="bare-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 1, 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("a directory without the sources produced a result")
    print("selftest: bare checkout fails without a result: ok")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
