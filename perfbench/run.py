#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <fig08_spp|serve_sweeps> \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (a Cargo package of its own that links the repository's
crates by path) into $CARGO_TARGET_DIR, default .bench_build, then runs
it from the current directory. Build output goes to stderr; the
benchmark's last stdout line is its result. Exits non-zero, printing no
result, if the build or the run fails or the run exceeds its time limit.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "psa-perfbench")
    # Own process group, so a run that overstays takes its server with it.
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
