#!/usr/bin/env bash
#===- tests/pirac_cli_test.sh - pirac exit-code taxonomy -----------------===#
#
# Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
# allocation / instruction scheduling framework.
#
# Pins the documented exit-code contract from the outside, through a
# real shell spawn of the installed binary:
#
#   0  every input compiled and verified clean
#   1  at least one input failed to compile or verify
#   2  usage error (bad flag or flag value)
#   3  a report could not be written
#
# Usage: pirac_cli_test.sh /path/to/pirac
#
#===----------------------------------------------------------------------===#

set -u

PIRAC=${1:?usage: pirac_cli_test.sh /path/to/pirac}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

FAILURES=0

# expect <wanted-exit> <label> -- cmd args...
expect() {
  local want=$1 label=$2
  shift 3
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label: expected exit $want, got $got: $*" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $label (exit $got)"
  fi
}

# expect_usage <flag> -- cmd args...: a usage error (exit 2) whose
# message names <flag>.
expect_usage() {
  local flag=$1
  shift 2
  local err got
  err=$("$@" 2>&1 > /dev/null)
  got=$?
  if [ "$got" -ne 2 ] || ! printf '%s' "$err" | grep -q -- "$flag"; then
    echo "FAIL: $flag: expected exit 2 naming it, got $got ($err): $*" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $flag rejected (exit 2): $*"
  fi
}

# fail_check <label>: records a failed inline check.
fail_check() {
  echo "FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

cat > good.pir <<'EOF'
func @good regs 8 {
  array a 4
block entry:
  %s0 = li 1
  %s1 = li 2
  %s2 = add %s0, %s1
  store a[0], %s2
  ret %s2
}
EOF

cat > bad.pir <<'EOF'
func @bad regs 8 {
block entry:
  %s0 = frobnicate 1
  ret %s0
}
EOF

# %s4294967295 is the parser's "no register" sentinel, not a register.
cat > noreg.pir <<'EOF'
func @noreg regs 2 {
block entry:
  %s0 = li 1
  %s1 = add %s0, %s4294967295
  ret %s1
}
EOF

# --- exit 0: clean compiles -------------------------------------------------
expect 0 "clean single function"        -- "$PIRAC" good.pir
expect 0 "clean batch"                  -- "$PIRAC" good.pir good.pir --jobs 2
# A thread count far above the batch size is capped at one per input.
expect 0 "--jobs far above the batch"   -- "$PIRAC" good.pir good.pir \
                                             --jobs 4294967295
expect 0 "PIRA_JOBS far above the batch" -- env PIRA_JOBS=4294967295 \
                                             "$PIRAC" good.pir good.pir
# A deadline past the clock's range never expires.
expect 0 "--deadline-ms at its maximum" -- "$PIRAC" good.pir good.pir \
                                             --deadline-ms 18446744073709551615
expect 0 "--version"                    -- "$PIRAC" --version
expect 0 "stats to stdout"              -- "$PIRAC" good.pir --stats-out -
expect 0 "trace to stdout"              -- "$PIRAC" good.pir good.pir --trace-out -
expect 0 "progress batch"               -- "$PIRAC" good.pir good.pir --progress
expect 0 "empty generated tournament"   -- "$PIRAC" --tournament --corpus-count 0 \
                                             --stats-out t0.json
expect 1 "tournament all inputs bad"    -- "$PIRAC" --tournament bad.pir \
                                             --stats-out t1.json

# Both empty-corpus tournaments must still emit a valid zero-row
# pira.tournament report — never fall back to a generated corpus.
for f in t0.json t1.json; do
  if grep -q '"schema": *"pira.tournament"' "$f" \
     && grep -q '"functions": *\[\]' "$f"; then
    echo "ok: $f is a zero-row tournament report"
  else
    echo "FAIL: $f missing schema or non-empty functions" >&2
    FAILURES=$((FAILURES + 1))
  fi
done

# A stdout sink must leave stdout machine-clean: exactly one parsable
# JSON document, no human chatter mixed in.
for sink in --stats-out --trace-out; do
  "$PIRAC" good.pir good.pir "$sink" - > sink.out 2> /dev/null
  if python3 -m json.tool sink.out > /dev/null 2>&1 \
     && ! grep -q 'batch of' sink.out; then
    echo "ok: $sink - leaves stdout machine-clean"
  else
    fail_check "$sink - mixed human output into stdout"
  fi
done

# --cache-dir selects the batch driver, which owns the cache, even for a
# single input: the compile must leave an entry behind.
"$PIRAC" good.pir --cache-dir one_dir > /dev/null 2>&1
if ls one_dir/*.json > /dev/null 2>&1; then
  echo "ok: a single input with --cache-dir fills the cache"
else
  fail_check "a single input with --cache-dir left no cache entry"
fi

# --- exit 1: compile/verify failures ----------------------------------------
expect 1 "unparsable input"             -- "$PIRAC" bad.pir
expect 1 "unreadable input path"        -- "$PIRAC" no-such-file.pir

# A lone input that never compiles still gets both reports: a
# single-function stats report carrying its diagnostic, and a trace.
check_failed_report() {
  local input=$1 code=$2
  rm -f s.json t.json
  "$PIRAC" "$input" --stats-out s.json --trace-out t.json > /dev/null 2>&1
  local got=$?
  if [ "$got" -eq 1 ] && python3 - "$code" 2> /dev/null <<'PY'
import json, sys
s = json.load(open("s.json"))
json.load(open("t.json"))
p = s["pipeline"]
assert s["schema"] == "pira.stats" and s["version"] == 8, s
assert p["success"] is False, p
assert p["diagnostic"]["code"] == sys.argv[1], p["diagnostic"]
PY
  then
    echo "ok: failed lone input $input still writes its reports"
  else
    fail_check "failed lone input $input: exit $got or reports missing"
  fi
}
check_failed_report bad.pir parse-error
check_failed_report noreg.pir parse-error
check_failed_report no-such-file.pir invalid-argument
expect 1 "mixed batch still reports 1"  -- "$PIRAC" good.pir bad.pir --jobs 2
expect 1 "budget rejection"             -- "$PIRAC" good.pir --max-instructions 1

# --- SIGPIPE: a vanished stdout reader is a structured failure --------------
# With SIGPIPE ignored process-wide, a --stats-out - pipe whose reader
# quits early must surface as a report-write failure (exit 3), never as
# a signal death (exit 141). Enough inputs to overflow the pipe buffer
# make the EPIPE deterministic.
SINK_INPUTS=$(for _ in $(seq 1 200); do printf 'good.pir '; done)
# shellcheck disable=SC2086
"$PIRAC" $SINK_INPUTS --stats-out - 2> /dev/null | head -c 1 > /dev/null
got=${PIPESTATUS[0]}
if [ "$got" -eq 3 ]; then
  echo "ok: EPIPE on stdout report is exit 3"
else
  echo "FAIL: EPIPE on stdout report: expected exit 3, got $got" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- exit 2: usage errors ---------------------------------------------------
expect 2 "unknown flag"                 -- "$PIRAC" --definitely-not-a-flag
expect 2 "unknown strategy"             -- "$PIRAC" good.pir --strategy bogus
expect 2 "missing flag value"           -- "$PIRAC" good.pir --max-blocks
expect 2 "non-numeric flag value"       -- "$PIRAC" good.pir --max-blocks banana
expect 2 "bad fault spec"               -- "$PIRAC" good.pir --fault-inject nope
# Only one report may claim stdout; two "-" sinks would interleave.
expect 2 "two stdout report sinks"      -- "$PIRAC" good.pir \
                                             --stats-out - --trace-out -
expect 2 "cache bound without a dir"    -- "$PIRAC" good.pir good.pir \
                                             --cache-max-mb 1
# Daemon and remote-cache flags are unknown options, never silently
# ignored.
expect 2 "removed flag --client"        -- "$PIRAC" --client good.pir
expect 2 "removed flag --cache-remote"  -- "$PIRAC" good.pir --cache-remote 1234
expect 2 "removed flag --socket"        -- "$PIRAC" good.pir --socket x
# So are the process-isolation and journal flags.
expect 2 "removed flag --isolate"       -- "$PIRAC" good.pir good.pir --isolate
expect 2 "removed flag --journal"       -- "$PIRAC" good.pir good.pir --journal x
expect 2 "removed flag --resume"        -- "$PIRAC" good.pir good.pir --resume
expect 2 "removed flag --worker"        -- "$PIRAC" --worker
# So is the Prometheus textfile sink.
expect 2 "removed flag --metrics-out"   -- "$PIRAC" good.pir good.pir \
                                             --metrics-out m.prom
# A flag the selected mode cannot honour is a usage error, not ignored.
expect_usage --dump-graphs  -- "$PIRAC" good.pir good.pir --dump-graphs
expect_usage --dump-graphs  -- "$PIRAC" good.pir --jobs 2 --dump-graphs
expect_usage --strategy     -- "$PIRAC" --tournament --strategy combined
expect_usage --no-degrade   -- "$PIRAC" --tournament --no-degrade
expect_usage --progress     -- "$PIRAC" --tournament --progress
expect_usage --dump-graphs  -- "$PIRAC" --tournament --dump-graphs
expect_usage --cache        -- "$PIRAC" --tournament --cache on
expect_usage --cache-dir    -- "$PIRAC" --tournament --cache-dir D
expect_usage --cache-max-mb -- "$PIRAC" --tournament --cache-max-mb 1
expect_usage --corpus-count -- "$PIRAC" good.pir --corpus-count 5
expect_usage --corpus-insts -- "$PIRAC" good.pir --corpus-insts 8
expect_usage --corpus-seed  -- "$PIRAC" --corpus-seed 3

# --- exit 3: a report could not be written ----------------------------------
# A stats path whose directory cannot exist fails the report write.
expect 3 "unwritable stats path"        -- "$PIRAC" good.pir \
                                             --stats-out /no/such/dir/s.json
expect 3 "unwritable trace path"        -- "$PIRAC" good.pir \
                                             --trace-out /no/such/dir/t.json

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES taxonomy check(s) failed" >&2
  exit 1
fi
echo "all exit-code taxonomy checks passed"
