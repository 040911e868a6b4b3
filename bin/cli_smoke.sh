#!/bin/sh
# CLI totality smoke test: every bad input below must end in exactly one
# line of output and a nonzero exit, never in an uncaught exception
# (cmdliner reports those with exit 125; 126 and up are the shell's; an
# uncaught OCaml exception prints "Fatal error" and exits 2, so the exit
# code alone cannot catch it).
#
#   sh bin/cli_smoke.sh path/to/oat_cli.exe path/to/bench/main.exe
#
# Runs in a scratch directory; "no-such-dir" must not exist there.

cli="$1"
bench="$2"
case "$cli" in */*) ;; *) cli="./$cli" ;; esac
case "$bench" in */*) ;; *) bench="./$bench" ;; esac
fail=0

expect_error() {
  prog="$1"
  shift
  out=$("$prog" "$@" 2>&1)
  code=$?
  lines=$(printf '%s\n' "$out" | wc -l)
  if [ "$code" -eq 0 ] || [ "$code" -ge 125 ] || [ "$lines" -ne 1 ] \
     || printf '%s\n' "$out" | grep -qi -e 'uncaught exception' -e 'fatal error'
  then
    echo "cli-smoke: FAIL (exit $code): $prog $*"
    printf '%s\n' "$out" | head -5
    fail=1
  else
    echo "cli-smoke: ok (exit $code): $prog $* -> $out"
  fi
}

# A good input must run to exit 0: the checks above must not refuse it.
expect_ok() {
  out=$("$@" 2>&1)
  code=$?
  if [ "$code" -ne 0 ] \
     || printf '%s\n' "$out" | grep -qi -e 'uncaught exception' -e 'fatal error'
  then
    echo "cli-smoke: FAIL (exit $code): $*"
    printf '%s\n' "$out" | tail -5
    fail=1
  else
    echo "cli-smoke: ok (exit 0): $*"
  fi
}

expect_error "$cli" simulate --nodes 0
expect_error "$cli" simulate --nodes 0 --tree binary
expect_error "$cli" simulate --nodes 1 --tree star
expect_error "$cli" simulate --nodes 15 --metrics no-such-dir/m.json
expect_error "$cli" simulate --nodes 15 --trace no-such-dir/t.json
expect_error "$cli" simulate --nodes 15 --series no-such-dir/s.csv
expect_error "$cli" simulate --nodes 15 --domains 2 --metrics no-such-dir/m.json
expect_error "$cli" simulate --nodes 15 --faults drop=0.1 --metrics no-such-dir/m.json
expect_error "$cli" record --nodes 15 -o no-such-dir/w.trace
expect_error "$cli" simulate --churn crash=99999@1+1
expect_error "$cli" simulate --churn crash=99999@1+1 --domains 2
expect_error "$cli" simulate --churn leave=0@1
expect_error "$cli" simulate --churn leave=0@1 --domains 2
expect_error "$cli" simulate --tree path --nodes 5 --churn crash=3@1+10,leave=4@5
expect_error "$cli" simulate --tree path --nodes 5 --churn crash=3@1+10,leave=4@5 --domains 2
expect_error "$cli" simulate --tree path --nodes 5 --churn flap=3@1+10*1:5,leave=4@5
expect_error "$cli" simulate --tree path --nodes 5 --churn flap=3@1+10*1:5,leave=4@5 --domains 2
expect_error "$cli" simulate --read-fraction 2
expect_error "$cli" simulate --domains 0
expect_error "$cli" simulate --policy bogus
expect_error "$cli" simulate --policy bogus --report
expect_error "$bench" --gcgate
expect_error "$bench" --gc-gate extra
# the crash window ends before the leave
expect_ok "$cli" simulate --tree path --nodes 5 --churn crash=3@1+2,leave=4@5
expect_ok "$cli" simulate --tree path --nodes 5 --churn crash=3@1+2,leave=4@5 --domains 2
# the handoff neighbour restarts one time unit before the leave: on one
# domain its Hello reaches the leaver after the leave is due, and the
# runner puts the leave off until it has
expect_ok "$cli" simulate --tree path --nodes 5 --churn crash=3@1+3,leave=4@5
expect_ok "$cli" simulate --tree path --nodes 5 --churn crash=3@1+3,leave=4@5 --domains 2
# the instrumented runs: virtual time (one domain), the fleet exporter
# (two domains), the fault runner's registry, and the metrics and
# latency subcommands; their files go into the working directory
expect_ok "$cli" simulate --nodes 15 --report --trace t.json --metrics m.json --series s.csv
expect_ok "$cli" simulate --nodes 15 --report --trace t.json --metrics m.json --series s.csv --domains 2
expect_ok "$cli" simulate --nodes 15 --faults drop=0.1,dup=0.05 --metrics f.json
expect_ok "$cli" metrics --nodes 15
expect_ok "$cli" latency --nodes 15
# the sequential runs on Baselines.Algorithm: the static baselines, the
# per-request profile, the sweep, the adversary, the lease graph, and a
# recorded workload replayed
expect_ok "$cli" simulate --nodes 15 --policy astrolabe
expect_ok "$cli" simulate --nodes 15 --policy mds2
expect_ok "$cli" profile --nodes 15
expect_ok "$cli" sweep --nodes 15
expect_ok "$cli" adversary
expect_ok "$cli" dot --nodes 15
expect_ok "$cli" record --nodes 15 -o w.trace
expect_ok "$cli" replay w.trace --nodes 15
exit $fail
