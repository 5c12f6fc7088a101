#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs it with the given arguments.

    python3 bench/e2e/run.py --workload scan_tiled --seed 1 --seconds 10 --trace 0

The build tree is $CARGO_TARGET_DIR (default .bench_build) under the
repository root; Chrome traces and temporary model archives go to its e2e/
subdirectory. Build output goes to stderr, so the last line of stdout is the
benchmark's result line. Exits nonzero, printing no result, when the
repository's sources are not there to build.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("bench_e2e: the repository sources (CMakeLists.txt, src/) are "
              "missing; nothing to build", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.join(build, "e2e")
    tmp_dir = os.path.join(build, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "bench", "e2e"), "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build, "--target", "bench_e2e", "-j", jobs],
                       stdout=sys.stderr, env=env) != 0:
        return 1

    binary = os.path.join(build, "bench_e2e")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:] + ["--out-dir", out_dir], env)


if __name__ == "__main__":
    sys.exit(main())
