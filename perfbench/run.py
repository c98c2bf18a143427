#!/usr/bin/env python3
"""Builds and runs the time-to-chi benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload hard_tail --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest --seed 1

The benchmark crate (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then run.
Its last stdout line is the JSON result; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def git_sha():
    # The benchmark may run from an export of the tree, which has no .git;
    # never look above the repository root for one.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="check that a seed repeats its graphs and counts")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="corrupt one reference chi; the run must then fail")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required unless --selftest is given")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_GIT_SHA"] = git_sha()
    binary = os.path.join(target, "release", "perfbench")
    if args.selftest:
        cmd = [binary, "selftest", "--seed", str(args.seed)]
    else:
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", args.seconds, "--trace", args.trace]
        if args.wrong_reference:
            cmd.append("--wrong-reference")
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
