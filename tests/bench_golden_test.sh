#!/usr/bin/env bash
#===- tests/bench_golden_test.sh - Pinned experiment outputs -------------===#
#
# Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
# allocation / instruction scheduling framework.
#
# Pins the stdout of every experiment binary under bench/ byte for byte:
# each golden file <name>.stdout in the golden directory is the expected
# output of bench/<name>. Every binary runs in its own temporary
# directory (some write BENCH_*.json next to them) with the PIRA_BENCH_*
# knobs unset, so the defaults the EXPERIMENTS tables quote are in force.
#
# A change that moves a figure must regenerate the golden file and say
# why in the same commit:
#
#   bench/<name> > tests/golden/<name>.stdout
#
# Usage: bench_golden_test.sh /path/to/build/bench /path/to/tests/golden
#
#===----------------------------------------------------------------------===#

set -u

BENCH_DIR=${1:?usage: bench_golden_test.sh BENCH_DIR GOLDEN_DIR}
GOLDEN_DIR=${2:?usage: bench_golden_test.sh BENCH_DIR GOLDEN_DIR}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

unset PIRA_BENCH_ITERS PIRA_BENCH_SEED

FAILURES=0
CHECKED=0

for golden in "$GOLDEN_DIR"/*.stdout; do
  name=$(basename "$golden" .stdout)
  CHECKED=$((CHECKED + 1))
  run="$WORK/$name"
  mkdir "$run"
  if ! (cd "$run" && "$BENCH_DIR/$name" > stdout 2> stderr); then
    echo "FAIL: $name exited nonzero" >&2
    cat "$run/stderr" >&2
    FAILURES=$((FAILURES + 1))
  elif ! diff -u "$golden" "$run/stdout"; then
    echo "FAIL: $name stdout differs from $golden" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $name"
  fi
done

if [ "$CHECKED" -eq 0 ]; then
  echo "FAIL: no golden files in $GOLDEN_DIR" >&2
  exit 1
fi
if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES of $CHECKED experiment outputs differ" >&2
  exit 1
fi
echo "all $CHECKED experiment outputs match"
