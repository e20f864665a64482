#!/usr/bin/env python3
"""Build the perfbench Go package from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 25 --trace 0

The flags pass through to the benchmark binary. Build outputs, the Go
build cache, fixtures and span dumps all go under $CARGO_TARGET_DIR
(default .bench_build) in the repository, so nothing is written outside
it. The exit code is the benchmark's; a failed build exits 1 without a
result line.
"""

import os
import signal
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        XDG_CACHE_HOME=os.path.join(out, "cache"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    proc = subprocess.Popen([binary] + sys.argv[1:] + ["--dir", out], cwd=root, env=env)

    def forward(signum, _frame):
        proc.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
