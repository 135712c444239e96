#!/usr/bin/env python3
"""Build and run the MYRTUS repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kb_replicated --seed 7 --seconds 15 --trace 0

The first run configures and builds perfbench/ (the benchmark package, which
compiles the libraries under src/) into .bench_build/perfbench; later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit status is the benchmark's:
0 when every correctness check held, 1 when one failed, 2 on usage errors or
when the sources cannot be built.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Small hosts are shared: a few compile jobs keep the build's memory modest.
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ next to perfbench/; nothing to build\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.stderr.write("perfbench: build step failed: %s\n" % err)
            return False
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return os.access(BINARY, os.X_OK)


def main():
    if not build():
        return 2
    args = sys.argv[1:]
    # The traced run writes its spans out at the end, next to the build.
    flags = dict(zip(args[::2], args[1::2]))
    if flags.get("--trace") == "1" and "--trace-out" not in flags:
        name = "trace-%s.json" % flags.get("--workload", "run")
        args += ["--trace-out", os.path.join(BUILD, name)]
    try:
        done = subprocess.run([BINARY] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
