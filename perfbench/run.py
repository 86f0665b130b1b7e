#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <transient-suite|permanent-suite|process-subset|all>
                             --seed N [--held-out-seed M] --seconds S --trace 0|1

Builds the `nvbitfi` binary (process isolation spawns it as `nvbitfi worker`)
and the `perfbench` package in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the benchmark with the given arguments.
Cargo's output goes to standard error; the benchmark's last line of standard
output is its JSON result. Exits non-zero if the build fails or a check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        print(f"perfbench: {root_manifest} not found; run from a full checkout", file=sys.stderr)
        return 1
    builds = [
        [root_manifest, "-p", "nvbitfi-cli"],
        [os.path.join(HERE, "Cargo.toml")],
    ]
    for manifest, *pkg in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *pkg]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--worker-bin", os.path.join(release, "nvbitfi"),
        "--work-dir", os.path.join(target, "perfbench-work"),
        "--golden", os.path.join(HERE, "reference", "golden.tsv"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
