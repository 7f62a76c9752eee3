#!/usr/bin/env python3
"""Builds the benchmark package from source, then runs one workload.

Usage (from the repository root):

    python3 sdxbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to standard error, so the benchmark's result line is
the last line of standard output. Artifacts go to $CARGO_TARGET_DIR, or
`.bench_build` when it is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Every function starts on a 64-byte boundary, so a function's placement
# within cache lines does not depend on the size of the code before it.
ALIGN = 'build.rustflags=["-C", "llvm-args=-align-all-functions=6"]'


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest,
         "--config", ALIGN],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "sdxbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
