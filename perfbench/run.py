#!/usr/bin/env python3
"""Entry point of the performance ledger (BENCHMARK.json's command).

Builds the perfbench binary and the repository's `ems` library from
source into .bench_build/cmake (Release), then runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary's stdout is passed through; its last line is the result
object. Generated inputs and artifact stores go to .bench_build/data and
the traced run's span ledger to .bench_build/trace-<workload>-<seed>.json.
Run from the repository root.

    python3 perfbench/run.py --self-test

builds and runs the tests of the ledger's own helpers instead.
"""
import argparse
import ctypes
import os
import subprocess
import sys

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turns address-space randomisation off for the child (as `setarch -R`
    does): with it on, each run lands on another memory layout, and that
    alone moves the op's CPU time by several percent."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ADDR_NO_RANDOMIZE)


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target,
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        sys.exit("run.py: run from the repository root")
    try:
        if args.self_test:
            binary = build("perfbench_test")
            sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        binary = build("perfbench")
        command = [
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--data-dir", os.path.join(BUILD_ROOT, "data"),
        ]
        if args.trace:
            command += ["--trace-out", os.path.join(
                BUILD_ROOT, "trace-%s-%d.json" % (args.workload, args.seed))]
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                                preexec_fn=fixed_layout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        sys.exit("run.py: %s" % error)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
