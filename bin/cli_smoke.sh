#!/bin/sh
# CLI totality smoke test: every bad input below must end in exactly one
# line of output and a nonzero exit, never in an uncaught exception
# (cmdliner reports those with exit 125; 126 and up are the shell's).
#
#   sh bin/cli_smoke.sh path/to/oat_cli.exe
#
# Runs in a scratch directory; "no-such-dir" must not exist there.

cli="$1"
case "$cli" in */*) ;; *) cli="./$cli" ;; esac
fail=0

expect_error() {
  out=$("$cli" "$@" 2>&1)
  code=$?
  lines=$(printf '%s\n' "$out" | wc -l)
  if [ "$code" -eq 0 ] || [ "$code" -ge 125 ] || [ "$lines" -ne 1 ] \
     || printf '%s\n' "$out" | grep -qi 'uncaught exception'; then
    echo "cli-smoke: FAIL (exit $code): oat-cli $*"
    printf '%s\n' "$out" | head -5
    fail=1
  else
    echo "cli-smoke: ok (exit $code): oat-cli $* -> $out"
  fi
}

expect_error simulate --nodes 0
expect_error simulate --nodes 0 --tree binary
expect_error simulate --nodes 1 --tree star
expect_error simulate --nodes 15 --metrics no-such-dir/m.json
expect_error simulate --nodes 15 --trace no-such-dir/t.json
expect_error simulate --nodes 15 --series no-such-dir/s.csv
expect_error simulate --nodes 15 --domains 2 --metrics no-such-dir/m.json
expect_error simulate --nodes 15 --faults drop=0.1 --metrics no-such-dir/m.json
expect_error record --nodes 15 -o no-such-dir/w.trace
exit $fail
