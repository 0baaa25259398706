#!/usr/bin/env python3
"""Build and run broadway's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

Builds perfbench (a Go module of its own that builds the checkout's
packages from source) into .bench_build/, with every Go cache and
temporary directory kept inside .bench_build/, then runs it with the
given flags. The last line of standard output is the JSON result; the
exit code is the benchmark's (non-zero on a failed check or a failed
build).
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
        ("TMPDIR", "tmp"),
    ):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOTELEMETRY="off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=bench, env=env,
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build, "run")
    # Its own session, so a timeout can stop the load generator child too.
    proc = subprocess.Popen(
        [binary, *sys.argv[1:], "--workdir", workdir],
        cwd=root, env=env, start_new_session=True,
    )
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
