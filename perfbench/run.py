#!/usr/bin/env python3
"""Builds the benchmark and the serve daemon from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload eval_chop --seed 1 --seconds 20 --trace 0

Build outputs go to $CARGO_TARGET_DIR (default: .bench_build). Everything
after the script name is passed to the `perfbench` binary; its last stdout
line is the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not (os.path.isfile(manifest) and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: no PowerChop workspace (Cargo.toml and crates/) beside "
              "perfbench/; nothing to build or measure", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--quiet", "-p", "powerchop-cli"],
    ]
    for cmd in builds:
        # Cargo's progress goes to stderr; stdout stays the benchmark's.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--cli", os.path.join(release, "powerchop-cli"),
           "--scratch", os.path.join(target, "perfbench-scratch")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
