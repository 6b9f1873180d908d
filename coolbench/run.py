#!/usr/bin/env python3
"""Builds the coolopt benchmark from source and runs one workload.

    python3 coolbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 coolbench/run.py --selftest

Run from the root of a coolopt checkout. The first run configures and
builds coolbench/ (which compiles the checkout's src/ in Release) under
.bench_build/coolbench, or under $CARGO_TARGET_DIR/coolbench when that is
set; later runs only re-check the build. Build output goes to stderr, so the
last stdout line is the benchmark's JSON result. Exits nonzero without a
result when the checkout has no coolopt sources to build.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "coolbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)
    return out


# Metrics whose value depends only on the seed: two runs with the same seed
# must print them identically (everything else is a timing).
EXACT_METRICS = {
    "plan_power_w",
    "service.wire.response_bytes",
    "service.quarantine_changed_share",
    "service.shed_share",
    "core.solves",
    "core.lp.fallback_share",
    "core.memo.hit_share",
    "core.memo.lookups",
    "core.incremental.replans_per_req",
    "core.incremental.event_rebuilds_per_req",
    "core.incremental.cold_builds",
    "fleet.pool_workers",
    "obs.trace.spans_per_req",
}


def run_json(binary, workload, seed, seconds, trace):
    result = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def selftest(out):
    """Unit self-tests, then the exact-count check: every workload run
    twice per mode with one seed differs only in its timing metrics."""
    subprocess.run([os.path.join(out, "coolbench_selftest")], check=True)
    binary = os.path.join(out, "coolbench")
    workloads = subprocess.run([binary, "--list"], check=True,
                               stdout=subprocess.PIPE, text=True).stdout.split()
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            before = failures
            a = run_json(binary, workload, 11, 2, trace)
            b = run_json(binary, workload, 11, 2, trace)
            for run in (a, b):
                if not run["correct"] or run["failed"] != 0:
                    print(f"FAIL {workload} trace={trace}: run not correct")
                    failures += 1
            if set(a["metrics"]) != set(b["metrics"]):
                print(f"FAIL {workload} trace={trace}: metric sets differ")
                failures += 1
            for name in sorted(set(a["metrics"]) & EXACT_METRICS):
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                if va != vb:
                    print(f"FAIL {workload} trace={trace}: {name} {va} != {vb}")
                    failures += 1
            if failures == before:
                print(f"ok   {workload} trace={trace}: exact metrics repeat")
    if failures:
        print(f"{failures} self-test failure(s)")
        return 1
    print("all self-tests passed")
    return 0


def main(argv):
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"coolbench: build failed: {error}", file=sys.stderr)
        return 2
    if argv == ["--selftest"]:
        return selftest(out)
    return subprocess.run([os.path.join(out, "coolbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
