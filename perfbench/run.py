#!/usr/bin/env python3
"""Build the compiler and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile|evaluate|serve \
        --seed N --seconds S --trace 0|1

Builds `gmcc` (the daemon the `serve` workload drives) and the
`perfbench` package in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload with tracing off in the program
(`GMC_TRACE=off`), and passes its stdout through: the last line is the
JSON result. Build output and progress go to stderr.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The workload itself must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def build(env):
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"), "-p", "gmc", "--bin", "gmcc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in commands:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["GMC_TRACE"] = "off"
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [
        str(target / "release" / "perfbench"), *sys.argv[1:],
        "--gmcc", str(target / "release" / "gmcc"),
        # Relative to the checkout (the working directory), which keeps
        # the daemon's Unix socket path short however deep the checkout.
        "--work-dir", os.path.relpath(target / "perfbench", ROOT),
    ]
    # A session of its own, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
