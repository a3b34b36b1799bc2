#!/usr/bin/env python3
"""Build and run the MANGO simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload be-mesh32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark package (perfbench/CMakeLists.txt) is configured and built
into the build directory first: $CARGO_TARGET_DIR when set, otherwise
.bench_build under the repository root. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. Traced runs (--trace 1) write their Chrome trace and per-layer
table to <build dir>/perfbench-out/.

--selftest runs the negative controls of every property check and then
confirms that BENCHMARK.json names exactly the metrics the program
reports.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "scenario.hpp")):
        print("perfbench: simulator sources not found next to perfbench/",
              file=sys.stderr)
        sys.exit(2)
    bdir = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return os.path.join(bdir, "mango_perfbench")


def check_benchmark_json(binary):
    """BENCHMARK.json must list exactly the metrics the program reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = subprocess.run([binary, "--list-metrics"], check=True,
                         capture_output=True, text=True).stdout.split("\n")
    reported = {(k, n, u) for k, n, u in (l.split() for l in out if l)}
    listed = {(k, m["name"], m["unit"])
              for k in ("end_to_end", "per_layer") for m in spec[k]}
    if reported != listed:
        print("BENCHMARK.json and the program disagree on metrics:",
              sorted(reported ^ listed))
        return 1
    print("PASS BENCHMARK.json lists every reported metric")
    return 0


def main():
    binary = build()
    args = sys.argv[1:]
    if args == ["--selftest"]:
        rc = subprocess.run([binary, "--selftest"]).returncode
        return rc or check_benchmark_json(binary)
    out_dir = os.path.join(build_dir(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.run([binary] + args + ["--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
