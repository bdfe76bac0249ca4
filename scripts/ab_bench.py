#!/usr/bin/env python3
"""Paired perfbench runs of two revisions: median, IQR and win count.

    scripts/ab_bench.py REV_A REV_B --workload W[,W...] --pairs N --seconds S

Exports each git revision (`git archive`) into a fresh temporary directory,
builds `perfbench` there once, then, for each workload in turn, runs the two
binaries alternately: pair i runs both at seed `--seed + i`, A first in even
pairs and B first in odd ones, so slow drift of the host hits both sides
alike. Nothing is written under the checkout's perfbench/ or .bench_build/.

For each workload and every end-to-end metric that BENCHMARK.json declares
(every metric the binary prints, when the file is missing) it prints each
side's median and interquartile range, and in how many pairs B beat A (ties
count for neither). It also reports the share of failed ops, whether the
two sides' exact-count fingerprints agree, and the host's CPU steal over
each side's runs (from /proc/stat, where the host has one): a tail metric
that moves while steal does is the host, not the change. Set TMPDIR to
choose where the exports and builds go; `--keep` leaves them there.

The exit code is nonzero when a build fails, a run fails or reports an
incorrect result, or the fingerprints of A and B differ.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
WORKLOADS = ("rand_fault", "vm_qsort", "open_rpc")


def log(message):
    print(f"ab_bench: {message}", file=sys.stderr, flush=True)


def export_and_build(rev, workdir):
    """Exports `rev` into workdir/src and builds perfbench; returns the binary."""
    src = workdir / "src"
    src.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(src)], input=archive, check=True)
    build = workdir / "build"
    configure = ["cmake", "-S", str(src / "perfbench"), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs]):
        subprocess.run(step, stdout=subprocess.DEVNULL, stderr=sys.stderr, check=True)
    return build / "perfbench", src


def cpu_ticks():
    """(steal, total) jiffies of the host's aggregate cpu line, or None."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]; the
    # guest times are already counted in user and nice.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_once(binary, cwd, workload, seed, seconds):
    """Runs one untraced perfbench; returns (result JSON, fingerprint lines).

    The result gains "steal_pct": the host's CPU steal over the run, or None.
    """
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    before = cpu_ticks()
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=cwd,
                          timeout=RUN_TIMEOUT_S)
    after = cpu_ticks()
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result.get("correct", False):
        raise RuntimeError(f"{binary} seed {seed} exited {proc.returncode}, "
                           f"correct={result.get('correct')}")
    steal = None
    if before and after and after[1] > before[1]:
        steal = 100.0 * (after[0] - before[0]) / (after[1] - before[1])
    result["steal_pct"] = steal
    return result, [line for line in lines if line.startswith("fingerprint ")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_metrics(results):
    """[(name, better)] from BENCHMARK.json, or every metric printed."""
    declared = ROOT / "BENCHMARK.json"
    if declared.exists():
        return [(m["name"], m["better"]) for m in json.loads(declared.read_text())["end_to_end"]]
    names = sorted({name for result in results for name in result["metrics"]})
    return [(name, "lower") for name in names]


def report(rev_a, rev_b, workload, side_a, side_b):
    metrics = end_to_end_metrics([r for r, _ in side_a + side_b])
    print(f"{workload}: A = {rev_a}, B = {rev_b}, {len(side_a)} pairs")
    print(f"{'metric':<20} {'A median':>12} {'A IQR':>12} {'B median':>12} {'B IQR':>12} "
          f"{'B/A':>7} {'B wins':>7}")
    for name, better in metrics:
        a = [r["metrics"][name]["value"] for r, _ in side_a if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r, _ in side_b if name in r["metrics"]]
        if len(a) != len(side_a) or len(b) != len(side_b):
            continue
        a1, a2, a3 = quartiles(a)
        b1, b2, b3 = quartiles(b)
        wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        ratio = f"{b2 / a2:.3f}" if a2 else "-"
        tie_note = f" ({ties} tied)" if ties else ""
        print(f"{name:<20} {a2:>12.4g} {a3 - a1:>12.4g} {b2:>12.4g} {b3 - b1:>12.4g} "
              f"{ratio:>7} {wins:>4}/{len(a)}{tie_note}")
    for label, side in (("A", side_a), ("B", side_b)):
        failed = sum(r["failed"] for r, _ in side)
        attempted = sum(r["attempted"] for r, _ in side)
        print(f"failed ops {label}: {failed}/{attempted}")
    for label, side in (("A", side_a), ("B", side_b)):
        steal = [r["steal_pct"] for r, _ in side if r["steal_pct"] is not None]
        if steal:
            print(f"host steal {label}: median {statistics.median(steal):.2f}%, "
                  f"max {max(steal):.2f}%")


def run_pairs(args, workload, bin_a, cwd_a, bin_b, cwd_b):
    """Runs the alternating pairs of one workload; returns (side_a, side_b, mismatched)."""
    side_a, side_b = [], []
    mismatched = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("A", bin_a, cwd_a, side_a), ("B", bin_b, cwd_b, side_b)]
        if i % 2:
            order.reverse()
        prints = {}
        steal = {}
        for label, binary, cwd, side in order:
            result, prints[label] = run_once(binary, cwd, workload, seed, args.seconds)
            side.append((result, prints[label]))
            steal[label] = result["steal_pct"]
        if prints["A"] != prints["B"]:
            mismatched += 1
            log(f"{workload} pair {i} (seed {seed}): fingerprints differ\n  A {prints['A']}\n"
                f"  B {prints['B']}")
        steal_note = ", ".join(f"{label} {value:.2f}%" for label, value in sorted(steal.items())
                               if value is not None)
        log(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done"
            + (f"; host steal {steal_note}" if steal_note else ""))
    return side_a, side_b, mismatched


def workload_list(text):
    workloads = [w for w in text.split(",") if w]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if not workloads or unknown:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of {', '.join(WORKLOADS)}; got {text!r}")
    return workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True, type=workload_list,
                        help="one workload, or a comma-separated list run in turn")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--keep", action="store_true", help="keep the exports and builds")
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="ab_bench_"))
    try:
        log(f"building {args.rev_a} and {args.rev_b} under {workdir}")
        bin_a, cwd_a = export_and_build(args.rev_a, workdir / "a")
        bin_b, cwd_b = export_and_build(args.rev_b, workdir / "b")
        any_mismatch = False
        for n, workload in enumerate(args.workload):
            side_a, side_b, mismatched = run_pairs(args, workload, bin_a, cwd_a, bin_b, cwd_b)
            if n:
                print()
            report(args.rev_a, args.rev_b, workload, side_a, side_b)
            print(f"fingerprints: {args.pairs - mismatched}/{args.pairs} pairs identical")
            sys.stdout.flush()
            any_mismatch = any_mismatch or mismatched > 0
        return 1 if any_mismatch else 0
    except (subprocess.CalledProcessError, RuntimeError, json.JSONDecodeError,
            subprocess.TimeoutExpired) as error:
        log(f"failed: {error}")
        return 2
    finally:
        if args.keep:
            log(f"kept {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
