#!/usr/bin/env python3
"""Build the daemon and the benchmark harness from source, then run one workload.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload session_dense --seed 1 --seconds 10 --trace 0

Any further flags (--inject-delay-us N, --corrupt-expected, --recover-from-tail)
are passed through to the harness. Build output goes to stderr; the harness's
report goes to stdout, and its last line is the JSON result. Binaries are built
into $CARGO_TARGET_DIR (default: .bench_build in the checkout); the run's
scratch files (daemon data dirs, daemon log, traced spans) go to .bench_work/.
Exits non-zero without a result when the checkout cannot be built.
"""

import argparse
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HARNESS = ROOT / "benchmark" / "harness" / "Cargo.toml"
WORKSPACE = ROOT / "Cargo.toml"
# The harness itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"benchmark/run.py: {message}", file=sys.stderr)
    return 1


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def build(env):
    """Builds oblisched-server from the workspace and the harness package."""
    if not (WORKSPACE.is_file() and (ROOT / "crates" / "server").is_dir()):
        return "no oblisched workspace next to the benchmark (nothing to build)"
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(WORKSPACE),
         "-p", "oblisched_server", "--bin", "oblisched-server"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(HARNESS)],
    ):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as e:
            return f"cannot run cargo: {e}"
        if done.returncode != 0:
            return f"build failed: {' '.join(cmd)}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    error = build(env)
    if error:
        return fail(error)

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    rustc = command_output(["rustc", "--version"]) or "unknown"
    commit = command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)"
    cmd = [
        str(target / "release" / "e2e-bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", str(target / "release" / "oblisched-server"),
        "--work-dir", str(work),
        "--rustc", rustc,
        "--commit", commit,
        *passthrough,
    ]
    # Its own process group, so a timeout takes the daemon down with it.
    harness = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        code = fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Keep the daemon log and the spans; drop the daemons' data dirs.
        if work.is_dir():
            for entry in work.iterdir():
                if entry.is_dir():
                    shutil.rmtree(entry, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
