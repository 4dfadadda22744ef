#!/usr/bin/env python3
"""Builds and runs the EPOC end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_service --seed 1 --seconds 30 --trace 0

Builds `epocd` (main workspace) and the `perfbench` runner (its own
workspace under perfbench/) in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload. The last line of
stdout is the result JSON: {"correct", "attempted", "failed", "metrics"}.
Working files go to `.bench_build/perfbench-work/<workload>/`.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold_suite", "warm_service", "service_mix")
# A run must end well inside three minutes, builds excluded.
RUN_TIMEOUT_S = 170


def git_commit(root):
    """The checkout's commit, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "epoc", "--bin", "epocd"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        sys.exit("perfbench: run from the root of an EPOC checkout (crates/core not found)")
    env = dict(os.environ, CARGO_NET_OFFLINE="true")
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)

    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    workdir = os.path.join(".bench_build", "perfbench-work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [
        os.path.join(release, "epoc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--epocd", os.path.join(release, "epocd"),
        "--workdir", workdir,
        "--commit", git_commit(root),
    ]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the daemons it started.
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
