#!/usr/bin/env python3
"""Build and run the TCgen benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|large|serve-mixed \
        --seed N --seconds S --trace 0|1

Builds the `tcgen` binary and the `perfbench` package (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs one workload
in its own process. The last line of standard output is the JSON result;
build output goes to standard error. Chrome traces of `--trace 1` runs
land in `<target dir>/perfbench/traces/`.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Builds both binaries; returns (perfbench, tcgen) paths or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "tcgen-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return None
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "tcgen")


def run(binary, tcgen, args, timeout=TIMEOUT_S):
    """Runs the benchmark binary in its own process group, so a timeout
    stops it together with any `tcgen serve` child it started."""
    out_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    # Relative paths keep the daemon's socket path short.
    cmd = [binary, "--tcgen", tcgen, "--out", os.path.relpath(out_dir, ROOT)] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: timed out after {timeout} s", file=sys.stderr)
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["corpus", "large", "serve-mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    binaries = build()
    if binaries is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, out = run(*binaries, ["--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
