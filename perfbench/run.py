#!/usr/bin/env python3
"""Serving-path benchmark of the ssdse simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call builds the simulator and
the ssdse_perfbench binary (CMake, Release) under .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls reuse the build. The workload's
sizes come from perfbench/workloads.json; each run is one fresh process.

The last line of stdout is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1, exactly the names and units
BENCHMARK.json declares. Any failure to build, run or validate exits
non-zero without printing a result. `--size smoke` runs the small sizes
the benchmark's own test uses.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to perfbench/", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "ssdse_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)
    exe = build_dir / "ssdse_perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}", 2)
    return exe


def binary_args(workload, seed, seconds, trace, size):
    with open(HERE / "workloads.json") as f:
        spec = json.load(f)["workloads"].get(workload)
    if spec is None:
        fail(f"unknown workload {workload!r}", 2)
    sizes = dict(spec["sizes"])
    timed = spec["timed_per_second"] * seconds
    if size == "smoke":
        smoke = dict(spec["smoke"])
        timed = smoke.pop("timed")
        sizes.update(smoke)
    sizes[spec.get("timed_key", "queries")] = timed
    args = [f"--workload={workload}", f"--seed={seed}", f"--trace={trace}"]
    args += [f"--{k}={v}" for k, v in sizes.items()]
    return args


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("ssdse_perfbench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a non-negative integer")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    opts = ap.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    args = binary_args(opts.workload, opts.seed, opts.seconds, opts.trace,
                       opts.size)
    exe = build()
    try:
        proc = subprocess.run([str(exe)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"ssdse_perfbench exited with {proc.returncode}", proc.returncode)
    validate(lines[-1], opts.trace)
    print("\n".join(lines[:-1]))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
