#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload quote_mixed --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (offline, release) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. With `--trace 1` the traced run's spans are written under
`<target dir>/perfbench-spans/`. See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: the repository sources (Cargo.toml, crates/) are "
              "missing; run from a full checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if "--spans" not in args:
        args += ["--spans", os.path.join(target, "perfbench-spans")]
    child = subprocess.Popen([os.path.join(target, "release", "perfbench")] + args,
                             env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
