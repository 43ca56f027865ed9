#!/usr/bin/env python3
"""End-to-end benchmark of the SWIFT hybrid analysis.

Usage (from the repository root):

    python3 perfbench/run.py --workload ts-table2 --seed 0 --seconds 40 --trace 0

Workloads: ts-table2, clients-hybrid, serve-edits (see perfbench/README.md).
The script builds perfbench/swift_perfbench from ../src with CMake into the
directory named by $CARGO_TARGET_DIR (default .bench_build), runs one
workload in one process, checks its outputs and prints a short summary
followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Exit code 0 on a completed run (correct or
not), 1 on a build or benchmark-binary error, 2 on bad usage.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ts-table2", "clients-hybrid", "serve-edits")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds swift_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("analysis sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out] + gen, check=True,
                       stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "swift_perfbench")


def declared_metrics(trace):
    """(name -> unit) of the metric list the result must carry."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(binary, args, extra=()):
    """Runs one workload; returns swift_perfbench's result object."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("swift_perfbench exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def binary_digest(binary):
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_repeatable(binary, res):
    """Count-valued metrics must repeat exactly across runs of one seed and
    one build: the first run records them, later runs compare. Returns a
    list of mismatches."""
    key = {"counts": res["counts"], "steps": res["steps"]}
    d = os.path.join(build_dir(), "counts", binary_digest(binary))
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-seed%d.json" % (res["workload"], res["seed"]))
    if not os.path.exists(path):
        with open(path + ".tmp", "w") as f:
            json.dump(key, f, sort_keys=True)
        os.replace(path + ".tmp", path)
        return []
    with open(path) as f:
        first = json.load(f)
    diffs = []
    for group in ("counts", "steps"):
        for name in sorted(set(first[group]) | set(key[group])):
            a, b = first[group].get(name), key[group].get(name)
            if a != b:
                diffs.append("%s %s: %s in an earlier run, %s now" % (group, name, a, b))
    return diffs


def summarize(res, metrics, failures):
    """One screen per workload run."""
    print("== %s  seed %d  trace %d  rounds %d  attempted %d  failed %d =="
          % (res["workload"], res["seed"], res["trace"], res["rounds"],
             res["attempted"], res["failed"]))
    for f in failures[:8]:
        print("  FAIL " + f)
    items = ["%-36s %12.6g %-5s" % (k, v["value"], v["unit"])
             for k, v in sorted(metrics.items()) if v["value"] != 0]
    half = (len(items) + 1) // 2
    for i in range(half):
        right = items[i + half] if i + half < len(items) else ""
        print("  " + items[i] + "  " + right)
    idle = sorted(k for k, v in metrics.items() if v["value"] == 0)
    if idle:
        print("  zero (layer idle on this workload): %d metrics, e.g. %s"
              % (len(idle), ", ".join(idle[:4])))
    if res["counts"]:
        print("  counts: " + ", ".join("%s=%d" % kv for kv in sorted(res["counts"].items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
        res = run_bench(binary, args)
        want = declared_metrics(args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1

    got = res["metrics"]
    missing = sorted(set(want) - set(got))
    if missing:
        log("error: swift_perfbench did not report %s" % ", ".join(missing))
        return 1
    bad_units = sorted(n for n in want if got[n]["unit"] != want[n])
    if bad_units:
        log("error: unit mismatch for %s" % ", ".join(bad_units))
        return 1
    metrics = {n: {"value": got[n]["value"], "unit": want[n]} for n in want}

    failures = list(res["failures"])
    failed = res["failed"]
    repeat = check_repeatable(binary, res)
    if repeat:
        failures += ["not repeatable: " + d for d in repeat]
        failed += 1
    attempted = max(1, res["attempted"])
    if "fail_frac" in metrics:
        metrics["fail_frac"]["value"] = failed / attempted

    summarize(res, metrics, failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
