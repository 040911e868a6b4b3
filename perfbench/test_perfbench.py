#!/usr/bin/env python3
"""The benchmark's own test, on the small size of every workload.

Run from the repository root (about half a minute):

    python3 perfbench/test_perfbench.py

It checks that every metric BENCHMARK.json names is printed with its
unit, that the correctness checks fire on a corrupted expected answer,
and that the deterministic counts repeat exactly for one seed.  It is
not part of `dune runtest`: the benchmark is timed, and tier-1 keeps no
wall-clock gate.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))

# Per-layer metrics that are pure functions of the seed and the size.
DETERMINISTIC = [
    "mechanism.local_combine_frac",
    "mechanism.probe_per_req",
    "mechanism.response_per_req",
    "mechanism.update_per_req",
    "mechanism.release_per_req",
    "mechanism.sntupdates_len",
    "policy.lease_grants_per_req",
    "policy.lease_breaks_per_req",
    "sharded.windows_per_kreq",
    "sharded.stalls",
    "sharded.model_speedup",
    "sharded.balance",
    "mailbox.crossings_per_req",
    "mailbox.hwm",
    "frame.pool_hwm",
    "frame.created",
    "telemetry.audit_checks",
    "telemetry.lag_p99_windows",
    "partition.edge_cut",
    "partition.planned_balance",
]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seed=7, fault=False):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "small"]
    if fault:
        cmd.append("--inject-fault")
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


# rww-open-2d runs and checks its answers like the others but is not in
# BENCHMARK.json (NOTES.md, finding 9), so it is named here.
WORKLOADS = [x["name"] for x in SPEC["workloads"]] + ["rww-open-2d"]


def main():
    for w in WORKLOADS:
        first = {}
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            rc, r = run(w, trace)
            check(rc == 0 and r is not None, f"{w} trace={trace}: exits 0 with a result")
            if r is None:
                continue
            first[trace] = r["metrics"]
            check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                  f"{w} trace={trace}: result keys")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{w} trace={trace}: all checks pass")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {m: v["unit"] for m, v in r["metrics"].items()}
            check(got == want, f"{w} trace={trace}: every {key} metric with its unit")
            if trace == 0:
                check(all(r["metrics"][m]["value"] > 0 for m in want),
                      f"{w}: every end-to-end metric is nonzero")
        if len(first) < 2:
            continue
        _, again = run(w, 0)
        check(again["metrics"]["msgs_per_req"] == first[0]["msgs_per_req"],
              f"{w}: msgs_per_req repeats for one seed")
        _, again = run(w, 1)
        differ = [m for m in DETERMINISTIC if again["metrics"][m] != first[1][m]]
        check(not differ, f"{w}: deterministic counts repeat for one seed {differ or ''}")
        rc, r = run(w, 0, fault=True)
        check(rc != 0 and r is not None and not r["correct"] and r["failed"] > 0,
              f"{w}: a corrupted expected answer fails the run")
    print("FAILED: %d" % len(failures) if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
