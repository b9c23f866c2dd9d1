#!/usr/bin/env python3
"""Builds the mobicache benchmark from source and runs one measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory (its own workspace,
with path dependencies on the repository's crates). It is built in release
mode, offline, into $CARGO_TARGET_DIR (default `.bench_build`), and the
arguments are passed through unchanged. The last line of standard output
is the benchmark's JSON result; build output goes to standard error. If
the build fails, nothing is printed on standard output and the exit code
is not 0.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BIN = "mobicache-perfbench"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: building the benchmark failed ({build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", BIN)
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
