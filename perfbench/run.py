#!/usr/bin/env python3
"""End-to-end benchmark of numashare's core-reallocation loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a numashare checkout. Builds perfbench/ (and the
numashare sources it drives) in Release into .bench_build/, runs one workload,
checks that the run left no shared-memory segment behind, and prints as the
last stdout line one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
The full record, with sample counts and the host/build stamp, is written to
.bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("task_stream", "realloc_churn", "arbiter_scale")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "runtime.hpp")):
        log("numashare sources (src/) not found next to perfbench/; nothing to build")
        return None
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log("build failed: " + " ".join(cmd))
            return None
    return build_dir


def cpu_times():
    """Aggregate /proc/stat CPU counters (user .. steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after):
    """Share of CPU time the hypervisor gave to other guests during the run.
    Latency numbers taken while it is high are not comparable."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def shm_segments(prefix):
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    except OSError:
        return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")

    build_dir = build()
    if build_dir is None:
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--source-digest", source_digest()]
    times_before = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        stdout = None
    steal = steal_frac(times_before, cpu_times())
    # A run that crashed or hung leaves its segments behind: clean them, and
    # count any left by a run that did finish as failures.
    leaked = shm_segments(f"nspb{proc.pid}-")
    for name in leaked:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    if stdout is None or proc.returncode != 0:
        if stdout:
            sys.stderr.write(stdout)
        log(f"{args.workload} exited with code {proc.returncode}")
        return 1

    lines = stdout.rstrip("\n").split("\n")
    try:
        meta = json.loads(lines[0])["meta"]
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (ValueError, KeyError, IndexError):
        sys.stderr.write(stdout)
        log("could not parse the benchmark output")
        return 1
    # BENCHMARK.json names the metrics each mode reports. A per-layer metric
    # whose layer the workload bypasses reads 0; a missing end-to-end metric
    # or a unit that disagrees is a benchmark bug.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    reported = {}
    for m in spec:
        got = metrics.get(m["name"])
        if got is None and args.trace:
            got = {"value": 0, "unit": m["unit"], "samples": 0}
        if got is None or got["unit"] != m["unit"]:
            log(f"{args.workload}: metric {m['name']} missing or not in {m['unit']}: {got}")
            return 1
        reported[m["name"]] = got
    failures = [l[len("failure: "):] for l in lines if l.startswith("failure: ")]
    failed = int(result["failed"])
    if leaked:
        failed += len(leaked)
        failures.append(f"{len(leaked)} shm segment(s) left after exit")
    correct = bool(result["correct"]) and not leaked
    trace_summary = None
    if args.trace == 1:
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        check = subprocess.run([os.path.join(build_dir, "trace2flame"), trace_path, "--summary"],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        trace_summary = check.stdout.strip()
        if check.returncode != 0:
            failed += 1
            correct = False
            failures.append("trace2flame cannot load " + trace_path)

    meta["host_steal_frac"] = steal
    record = {"meta": meta, "correct": correct, "attempted": int(result["attempted"]),
              "failed": failed, "failures": failures, "metrics": reported,
              "other_metrics": {k: v for k, v in metrics.items() if k not in reported},
              "trace_summary": trace_summary}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print(f"{'metric':32s} {'value':>16s} {'unit':6s} {'samples':>10s}")
    for name, m in reported.items():
        print(f"{name:32s} {m['value']:16.6g} {m['unit']:6s} {m['samples']:10d}")
    if trace_summary:
        print("trace2flame:", trace_summary)
    if steal is not None:
        print(f"host steal during the run: {100 * steal:.1f}%")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
