#!/usr/bin/env python3
"""Builds the serving benchmark and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 15 --trace 0

Every argument is passed to the `perfbench` binary (see README.md). The
build goes to `$CARGO_TARGET_DIR` when set, else `perfbench/target`; its
output goes to stderr, so the binary's last stdout line stays the JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main() -> int:
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
