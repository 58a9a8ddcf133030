#!/usr/bin/env python3
"""Build and run the frames-to-verdicts benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload nop64 --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe from source with dune (release profile, build
directory .bench_build, dune's shared cache off so nothing is written
outside the checkout), then runs it with the same arguments.  Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.  Exits non-zero without a result when the build
or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def main():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
