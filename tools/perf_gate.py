#!/usr/bin/env python3
"""Perf-regression gate over "pira.bench" reports.

Compares a fresh BENCH_perf_algorithms.json against a committed baseline
and fails (exit 1) when a gated metric regresses by more than the
threshold. The primary gates are *ratios between benchmarks from the
same run* — the set-based-closure / bitset-closure speedup, the
reference / incremental Section 4 coloring speedup and the share of a
warm-cache batch spent computing cache keys — because a ratio divides
out the machine: a slow CI runner slows both numerator and denominator,
while a real regression (say the bitset closure losing its word-parallel
inner loop) collapses the ratio no matter the host.

Each ratio isolates one mechanism. The cache gate divides key
computation alone by a batch of cache hits (key, lookup, entry decode
and compileBatch's own bookkeeping), so it falls when the hit path
slows down and does not move when compiles get faster; a cold / warm
speedup would read every compiler speedup as a cache regression.

Absolute wall-clock gates (--absolute) are also available for
same-machine comparisons, e.g. a developer re-running the suite before
and after a change on one box.

Exit codes: 0 all gates pass, 1 regression, 2 usage / unreadable or
mismatched inputs.
"""

import argparse
import json
import sys

# (label, numerator benchmark, denominator benchmark). Higher is better
# for all: the numerator is the slow reference or, for the cache, the
# work a hit cannot avoid; the denominator is the path under guard.
RATIO_GATES = [
    ("closure_speedup_256",
     "BM_TransitiveClosureSetBased/256", "BM_TransitiveClosure/256"),
    ("closure_reduction_speedup_1024",
     "BM_TransitiveClosureUnreduced/1024", "BM_TransitiveClosure/1024"),
    ("closure_sweep_speedup_128",
     "BM_TransitiveClosureUnreduced/128", "BM_TransitiveClosure/128"),
    ("warm_cache_key_share",
     "BM_CacheKey/real_time", "BM_CompileBatchWarmCache/real_time"),
    ("pinter_color_speedup_128",
     "BM_PinterColorReference/128", "BM_PinterColor/128"),
]

# Hard floors on the *fresh* ratio itself, enforced in addition to the
# baseline-relative threshold. These encode standing acceptance criteria
# (the schedule-graph closure sweep must keep beating plain Warshall by 2x
# at 1k-instruction blocks and by 1.5x at 128, the size where the DAG
# reduction it replaced lost to Warshall; incremental Section 4 coloring
# must keep beating its reference loop by 10x at 128 instructions) so a
# slowly drifting committed baseline cannot ratchet a requirement away.
RATIO_FLOORS = {
    "closure_reduction_speedup_1024": 2.0,
    "closure_sweep_speedup_128": 1.5,
    "pinter_color_speedup_128": 10.0,
}


def fail_usage(msg):
    print("perf_gate: error: " + msg, file=sys.stderr)
    sys.exit(2)


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail_usage("cannot read %s: %s" % (path, e))
    if doc.get("schema") != "pira.bench":
        fail_usage("%s is not a pira.bench report" % path)
    times = {}
    for row in doc.get("results", []):
        if "error" in row:
            continue
        try:
            value = float(row["real_time_ns"])
        except (KeyError, TypeError, ValueError):
            fail_usage("%s: result %r has no numeric real_time_ns"
                       % (path, row.get("name", "?")))
        if not value > 0.0:
            # A zero or negative time would silently pass (or divide by
            # zero in) every ratio gate downstream; it can only mean a
            # broken producer, so refuse the report outright.
            fail_usage("%s: benchmark %r reports non-positive time %r"
                       % (path, row.get("name", "?"), value))
        times[row["name"]] = value
    if not times:
        fail_usage("%s has no usable benchmark results" % path)
    return doc, times


def check_provenance(base_doc, fresh_doc):
    """Refuse cross-build-type comparisons: Debug-vs-Release deltas are
    build-flag artifacts, not regressions. Git SHAs are expected to
    differ and are only reported."""
    base = base_doc.get("provenance", {})
    fresh = fresh_doc.get("provenance", {})
    problems = []
    for key in ("build_type", "ndebug"):
        if key in base and key in fresh and base[key] != fresh[key]:
            problems.append("%s: baseline=%r fresh=%r"
                            % (key, base[key], fresh[key]))
    return problems


def main():
    ap = argparse.ArgumentParser(
        description="Gate fresh pira.bench results against a baseline.")
    ap.add_argument("baseline", help="committed baseline BENCH_*.json")
    ap.add_argument("fresh", help="freshly produced BENCH_*.json")
    ap.add_argument("--threshold-pct", type=float, default=25.0,
                    help="allowed regression in percent (default 25)")
    ap.add_argument("--absolute", action="store_true",
                    help="also gate absolute real_time_ns of every "
                         "benchmark present in both reports (only "
                         "meaningful on the same machine)")
    ap.add_argument("--no-provenance-check", action="store_true",
                    help="compare even across build types")
    args = ap.parse_args()
    if not 0 <= args.threshold_pct < 100:
        fail_usage("--threshold-pct must be in [0, 100)")

    base_doc, base_times = load_report(args.baseline)
    fresh_doc, fresh_times = load_report(args.fresh)

    mismatches = check_provenance(base_doc, fresh_doc)
    if mismatches and not args.no_provenance_check:
        fail_usage("build provenance mismatch (pass --no-provenance-check "
                   "to override): " + "; ".join(mismatches))

    base_sha = base_doc.get("provenance", {}).get("git_sha", "?")
    fresh_sha = fresh_doc.get("provenance", {}).get("git_sha", "?")
    print("perf_gate: baseline git %s vs fresh git %s, threshold %.0f%%"
          % (base_sha, fresh_sha, args.threshold_pct))

    slack = args.threshold_pct / 100.0
    rows = []
    failed = []

    def record(label, base_val, fresh_val, floor, ok):
        rows.append((label, base_val, fresh_val, floor, ok))
        if not ok:
            failed.append(label)

    for label, num, den in RATIO_GATES:
        missing = [n for n in (num, den)
                   if n not in base_times or n not in fresh_times]
        if missing:
            fail_usage("gate %s: benchmark(s) %s missing from a report"
                       % (label, ", ".join(missing)))
        base_ratio = base_times[num] / base_times[den]
        fresh_ratio = fresh_times[num] / fresh_times[den]
        floor = max(base_ratio * (1.0 - slack),
                    RATIO_FLOORS.get(label, 0.0))
        record(label, base_ratio, fresh_ratio, floor,
               fresh_ratio >= floor)

    if args.absolute:
        for name in sorted(set(base_times) & set(fresh_times)):
            ceil = base_times[name] * (1.0 + slack)
            record(name + " ns", base_times[name], fresh_times[name],
                   ceil, fresh_times[name] <= ceil)

    if not rows:
        fail_usage("no gates were evaluated (empty benchmark set)")
    width = max(len(r[0]) for r in rows)
    print("  %-*s  %12s  %12s  %12s  %s"
          % (width, "gate", "baseline", "fresh", "limit", "status"))
    for label, base_val, fresh_val, limit, ok in rows:
        print("  %-*s  %12.3f  %12.3f  %12.3f  %s"
              % (width, label, base_val, fresh_val, limit,
                 "ok" if ok else "REGRESSED"))

    if failed:
        print("perf_gate: FAIL: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    print("perf_gate: all %d gates pass" % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
