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
expect_error "$bench" --gcgate
expect_error "$bench" --gc-gate extra
# the crash window ends before the leave
expect_ok "$cli" simulate --tree path --nodes 5 --churn crash=3@1+2,leave=4@5
expect_ok "$cli" simulate --tree path --nodes 5 --churn crash=3@1+2,leave=4@5 --domains 2
exit $fail
