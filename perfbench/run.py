#!/usr/bin/env python3
"""Builds and runs the canonical SSTBAN benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark and the library under .bench_build/perfbench (about a minute);
later runs rebuild only what changed. The benchmark's own self-test runs
before every measurement. Untraced, the workload is also set up alone in two
more processes, and setup_s is the median of the three cold set-ups. The last
line printed is the result object, checked against BENCHMARK.json's metric
names and units. Workloads, metrics and the known defects they show are
described in NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 20
EXTRA_SETUPS = 2


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build():
    """Configures (once) and builds; returns an error message or None."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                return f"build failed ({' '.join(cmd)}):\n{tail}"
    return None


def check_result(line, trace):
    """Returns an error message when the result line breaks the contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    metrics = result["metrics"]
    names = [m["name"] for m in want]
    if sorted(metrics) != sorted(names):
        return f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json"
    for m in want:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            return f"metric {m['name']}: {got}, want unit {m['unit']}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no library sources under {ROOT}/src; run from a full checkout", 2)
    error = build()
    if error:
        return fail(error, 3)
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode:
        return fail(f"self-test failed:\n{selftest.stdout}", 4)

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    setups = []
    for _ in range(EXTRA_SETUPS if args.trace == 0 else 0):
        try:
            alone = subprocess.run(cmd + ["--setup-only", "1"], cwd=ROOT,
                                   stdout=subprocess.PIPE, text=True,
                                   timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return fail(f"no set-up within {SETUP_TIMEOUT_S} s", 5)
        if alone.returncode:
            return fail(f"set-up alone exited {alone.returncode}", 5)
        setups.append(json.loads(alone.stdout.rstrip("\n").split("\n")[-1]))
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"no result within {RUN_TIMEOUT_S} s", 5)
    lines = run.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace) if run.returncode in (0, 1) else None
    if not error and setups:
        result = json.loads(lines[-1])
        setup = result["metrics"]["setup_s"]
        cpu = [setup["value"]] + [x["setup_s"] for x in setups]
        wall = [x["setup_wall_s"] for x in setups]
        setup["value"] = statistics.median(cpu)
        lines[-1:] = [f"setup_s {setup['value']!r} (median of {len(cpu)} cold "
                      f"set-ups, cpu s: {' '.join(map(repr, cpu))}; wall s of "
                      f"the extra ones: {' '.join(map(repr, wall))})",
                      json.dumps(result)]
    print("\n".join(lines[:-1] if error else lines), flush=True)
    if error:
        return fail(error, 6)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
