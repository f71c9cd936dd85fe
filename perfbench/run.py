#!/usr/bin/env python3
"""Build and run the igepa end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_zipf --seed 3 --seconds 20 --trace 0

The script builds the Go package in this directory (a module of its own that
points at the repository's module one level up) into .bench_build/, keeping
the Go build cache there as well, then runs it with the given arguments.
The benchmark's last line of standard output is its JSON result. A failed
build or run exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# One run measures for --seconds plus set-up; the contract allows 180 s.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 900


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "-out", BUILD] + sys.argv[1:]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
