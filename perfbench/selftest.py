#!/usr/bin/env python3
"""Self-test of the benchmark: metric names and units, output checks,
repeatability, and agreement with BENCH_baseline.json.

Usage (from the repository root, about a minute):

    python3 perfbench/selftest.py

Checks, in order:
  1. BENCHMARK.json is well formed (keys, name/unit syntax, bounds).
  2. Each workload, run small (--quick), reports exactly the declared
     metric names with the declared units under --trace 0 and --trace 1,
     with no failed operation.
  3. Each output check fires: a run with one corrupted output
     (--inject CHECK) must report a failed operation.
  4. Count-valued metrics repeat exactly across two runs of one seed.
  5. At the default seed, ts-table2's TD and SWIFT steps
     (budget.td_steps + budget.sync_bu_steps) equal BENCH_baseline.json's
     bench_table2 "steps" for the same configs.
Exit code 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
INJECTIONS = {
    "ts-coincidence": "ts-table2",
    "clients-coincidence": "clients-hybrid",
    "serve-final": "serve-edits",
    "determinism": "ts-table2",
}

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def spec_checks():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names), "metric/workload name syntax")
    check(len(names) == len(set(names)), "names used once")
    check(set(w["name"] for w in spec["workloads"]) == set(run.WORKLOADS),
          "workloads match run.py")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "workload whys are one short line")
    metrics = spec["end_to_end"] + spec["per_layer"]
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in metrics), "units and directions")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "end-to-end bounds within (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s present with the largest bound")


class Quick:
    """run.py's argument object for a small self-test run."""

    def __init__(self, workload, trace, seed=0):
        self.workload, self.trace, self.seed, self.seconds = workload, trace, seed, 1


def metric_checks(binary):
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            res = run.run_bench(binary, Quick(workload, trace), ["--quick"])
            want = run.declared_metrics(trace)
            got = {n: m["unit"] for n, m in res["metrics"].items() if n in want}
            check(got == want, "%s trace %d: declared names and units" % (workload, trace))
            nonzero = [n for n in ("verdict_s", "setup_s", "rss_peak_mib")
                       if n in want and res["metrics"][n]["value"] <= 0]
            check(not nonzero, "%s trace %d: end-to-end metrics nonzero" % (workload, trace))
            check(res["failed"] == 0 and res["attempted"] > 0,
                  "%s trace %d: no failed operation %s" % (workload, trace, res["failures"]))


def injection_checks(binary):
    print("(the FAIL: lines below come from deliberately corrupted runs)")
    for inject, workload in INJECTIONS.items():
        res = run.run_bench(binary, Quick(workload, 0), ["--quick", "--inject", inject])
        check(res["failed"] > 0, "--inject %s is caught (%s)" % (inject, res["failures"][:1]))


def repeat_checks(binary):
    for workload in run.WORKLOADS:
        a = run.run_bench(binary, Quick(workload, 0, seed=7), ["--quick"])
        b = run.run_bench(binary, Quick(workload, 1, seed=7), ["--quick"])
        check(a["counts"] == b["counts"] and a["steps"] == b["steps"] and a["counts"],
              "%s: counts repeat across runs of one seed" % workload)


def baseline_checks(binary):
    path = os.path.join(run.ROOT, "BENCH_baseline.json")
    if not os.path.exists(path):
        print("skip  BENCH_baseline.json not found")
        return
    with open(path) as f:
        base = json.load(f)
    want = {}
    for row in base["rows"]:
        mode = {"td": "td", "swift_k5_th2": "swift"}.get(row["config"])
        if mode:
            want["%s/%s" % (row["workload"], mode)] = int(row["metrics"]["steps"])
    res = run.run_bench(binary, Quick("ts-table2", 0))
    for op, steps in sorted(res["steps"].items()):
        check(want.get(op) == steps,
              "ts-table2 %s steps %d == baseline %s" % (op, steps, want.get(op)))


def main():
    spec_checks()
    try:
        binary = run.build()
        metric_checks(binary)
        injection_checks(binary)
        repeat_checks(binary)
        baseline_checks(binary)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        check(False, "benchmark error: %s" % e)
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
