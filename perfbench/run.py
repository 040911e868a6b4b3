#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, relay its result.

Run from the repository root:

    python3 perfbench/run.py --workload rww-seq --seed 1 --seconds 10 --trace 0

Workloads: rww-seq, rww-open-2d, monitor-2d.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is non-zero if the build fails, a correctness
check misses, or the run overruns its time limit; then no result is
printed unless the program printed one itself.  See perfbench/NOTES.md.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_LIMIT_S = 840
RUN_LIMIT_S = 170


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit(f"perfbench: {root} is not the repository root (no dune-project and lib/)")
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_LIMIT_S)
    except FileNotFoundError:
        sys.exit("perfbench: dune not found on PATH")
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")
    # The benchmark starts one process per round: run it in its own
    # process group, so that a timeout or a termination stops the whole
    # group.
    run = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)

    def stop():
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()

    def terminated(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    signal.signal(signal.SIGINT, terminated)
    try:
        sys.exit(run.wait(timeout=RUN_LIMIT_S))
    except subprocess.TimeoutExpired:
        stop()
        sys.exit(f"perfbench: run exceeded {RUN_LIMIT_S} s")


if __name__ == "__main__":
    main()
