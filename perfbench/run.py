#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload static-inmem --seed 20 --seconds 20 --trace 0
    python3 perfbench/run.py compare <result-a.json> <result-b.json>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Result
files and traces are written under `<target dir>/perfbench/`, and the
socket store's Unix sockets live in `<target dir>/tmp`, so a run reads
and writes only inside the checkout. The last line of standard output
is the run's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args += ["--out-dir", os.path.join(target, "perfbench")]
        # Socket paths are limited to ~108 bytes: keep them relative.
        tmp = os.path.join(os.path.relpath(target), "tmp")
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
