#!/usr/bin/env python3
"""End-to-end pager benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload rand_fault|vm_qsort|open_rpc \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (and the pager libraries under src/) into .bench_build/perfbench;
later calls only rebuild what changed. The binary's human-readable report
goes to stdout first; the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is nonzero when the build fails, the binary fails or times
out, any op failed or mis-verified, or the exact-count fingerprint of this
workload and seed differs from an earlier run of the same binary.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
FINGERPRINTS = ROOT / ".bench_build" / "fingerprints"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def check_fingerprint(workload, seed, lines):
    """Compares this run's exact counts with an earlier run of the same
    binary, workload and seed. Returns False on a difference."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    FINGERPRINTS.mkdir(parents=True, exist_ok=True)
    path = FINGERPRINTS / f"{workload}-{seed}.txt"
    record = "\n".join([digest] + lines) + "\n"
    if path.exists():
        previous = path.read_text()
        if previous.split("\n", 1)[0] == digest:
            if previous != record:
                log(f"fingerprint differs from an earlier run:\n  was {previous.strip()}\n"
                    f"  now {record.strip()}")
                return False
            log("fingerprint repeats an earlier run of this binary exactly")
            return True
    path.write_text(record)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["rand_fault", "vm_qsort", "open_rpc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 3
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode} and no result")
        return 5
    for line in lines[:-1]:
        print(line)
    code = proc.returncode
    fingerprints = [l for l in lines if l.startswith("fingerprint ")]
    if fingerprints and not check_fingerprint(args.workload, args.seed, fingerprints):
        result["correct"] = False
        code = code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
