#!/usr/bin/env python3
"""Compare two BENCH_*.json result files and flag regressions.

The figure benches append one JSON object per line (see
bench/bench_util.h::EmitBenchResult):

    {"bench":"...","config":"...","metric":"...","value":1.23,"unit":"ms"}

Usage:

    scripts/diff_bench.py BASELINE.json CANDIDATE.json [--threshold 10]
    scripts/diff_bench.py --help

Rows are keyed by (bench, config, metric). For latency-like units (ms, s,
ns, us) and for percentages (%, e.g. trace_overhead's overhead_pct) bigger
is worse; for throughput-like units (pages_per_sec, mbps, ops_per_sec,
per_sec) smaller is worse. A row whose worse-direction change
exceeds the threshold (percent, default 10) is flagged as a REGRESSION and
the exit status is 1; improvements and small drifts are reported but pass.
Rows present in only one file are listed as added/removed and do not fail
the comparison.
"""

import argparse
import json
import sys

# Units where a larger value means slower/worse. The only "%" rows are
# overheads, where a larger share is worse too.
LOWER_IS_BETTER_UNITS = {"ms", "s", "ns", "us", "seconds", "%"}


def load(path):
    """Returns {(bench, config, metric): (value, unit)} from a results file.

    Duplicate keys keep the last occurrence: benches append on re-runs, so
    the newest line is the current measurement.
    """
    rows = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as err:
                    print(f"{path}:{lineno}: skipping unparseable line: {err}",
                          file=sys.stderr)
                    continue
                key = (obj.get("bench", ""), obj.get("config", ""),
                       obj.get("metric", ""))
                rows[key] = (float(obj.get("value", 0.0)), obj.get("unit", ""))
    except OSError as err:
        sys.exit(f"error: cannot read {path}: {err}")
    return rows


def worse_direction_change(base, cand, unit):
    """Signed percent change in the 'worse' direction (positive = worse)."""
    if base == 0.0:
        return 0.0 if cand == 0.0 else float("inf")
    change = (cand - base) / abs(base) * 100.0
    if unit.lower() in LOWER_IS_BETTER_UNITS:
        return change  # Bigger latency or overhead is worse.
    return -change  # Smaller throughput is worse.


def main():
    parser = argparse.ArgumentParser(
        description="Flag >threshold%% regressions between two BENCH_*.json files.")
    parser.add_argument("baseline", help="baseline results file")
    parser.add_argument("candidate", help="candidate results file")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default: 10)")
    args = parser.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    regressions = []
    improvements = []
    common = sorted(set(base) & set(cand))
    for key in common:
        base_value, unit = base[key]
        cand_value, _ = cand[key]
        worse = worse_direction_change(base_value, cand_value, unit)
        label = "/".join(key)
        if worse > args.threshold:
            regressions.append((label, base_value, cand_value, unit, worse))
        elif worse < -args.threshold:
            improvements.append((label, base_value, cand_value, unit, worse))

    for label, b, c, unit, worse in regressions:
        print(f"REGRESSION  {label}: {b:g} -> {c:g} {unit} ({worse:+.1f}% worse)")
    for label, b, c, unit, worse in improvements:
        print(f"improved    {label}: {b:g} -> {c:g} {unit} ({-worse:+.1f}% better)")
    for key in sorted(set(cand) - set(base)):
        print(f"added       {'/'.join(key)}: {cand[key][0]:g} {cand[key][1]}")
    for key in sorted(set(base) - set(cand)):
        print(f"removed     {'/'.join(key)}")

    print(f"{len(common)} compared, {len(regressions)} regression(s), "
          f"{len(improvements)} improvement(s), threshold {args.threshold:g}%")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
