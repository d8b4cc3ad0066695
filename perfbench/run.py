#!/usr/bin/env python3
"""Repository benchmark: builds the library, sdadcs_netd and the driver
from source, runs one workload and prints its result.

    python3 perfbench/run.py --workload serial --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; the first run compiles, later
runs only check that the build is current. Workloads, metrics and their
bounds are declared in BENCHMARK.json; perfbench/driver.cc describes
what each workload does and how its outputs are checked.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Any failure (no sources, build
error, driver error, malformed result) exits non-zero without printing
a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the driver and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "sdadcs_netd", "-j", jobs])


def run_build_step(cmd):
    try:
        step = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if step.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def check_result(line, trace):
    """Parses the driver's result line and checks it names exactly the
    metrics BENCHMARK.json declares for this mode."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("driver printed no JSON result")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        fail("driver metrics %s do not match BENCHMARK.json %s"
             % (sorted(got.items()), sorted(want.items())))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys")
    if result["attempted"] < 1:
        fail("driver attempted no operation")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    workdir = os.path.join(ROOT, target, "perfbench-run",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--netd", os.path.join(build_dir, "tools", "sdadcs_netd")]
    # The driver runs in its own process group so a timeout also stops
    # the daemon it starts.
    driver = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, start_new_session=True)
    try:
        stdout, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        fail("driver timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if driver.returncode != 0:
        fail("driver exited with code %d" % driver.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    check_result(lines[-1], args.trace == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
