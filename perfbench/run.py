#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and the perfbench binary from source (CMake, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
reuse the build. The binary's progress goes to stderr. Stdout carries a
readable report and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. An untraced run reports the
end-to-end metrics of BENCHMARK.json, a traced run (--trace 1) the
per-layer ones plus span self times; README.md describes both.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402

WORKLOADS = ("train", "train_mt", "datagen", "serve")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures once, then builds the binary (incremental)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources under %s" % (ROOT / "src"))
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "--parallel", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return bdir / "perfbench"


def declared_metrics():
    """{name: unit} of BENCHMARK.json's end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_binary(exe, args):
    workdir = build_dir().parent / "work" / args.workload
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench binary exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("perfbench binary exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench binary printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    e2e_units, layer_units = declared_metrics()
    raw = run_binary(build(), args)
    if args.trace:
        values, units = raw["layers"], layer_units
    else:
        values, units = summary.end_to_end(raw), e2e_units
    if set(values) != set(units):
        fail("binary metrics %s do not match BENCHMARK.json %s"
             % (sorted(values), sorted(units)))
    values = {name: values[name] for name in units}  # declaration order

    for line in summary.report_lines(args.workload, raw, values, units,
                                     args.trace):
        print(line)
    print(json.dumps(summary.result_line(raw, values, units)))


if __name__ == "__main__":
    main()
