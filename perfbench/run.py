#!/usr/bin/env python3
"""Build `ghr` and the perfbench harness from this checkout, then run one
benchmark workload.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Builds go to $CARGO_TARGET_DIR (default: .bench_build at the checkout
root). The run works in a fresh directory under it, removed afterwards.
The harness prints the metrics, then one JSON result as the last line of
stdout; build output goes to stderr. See perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ["serve-warm", "router-warm", "cold-stream", "study-cold"]
# A run must end within 180 s; this leaves room to stop the processes.
RUN_TIMEOUT_S = 170


def build(manifest, *extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
    if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "ghr-cli", "--bin", "ghr", env=env)
    build(os.path.join(HERE, "Cargo.toml"), env=env)

    run_dir = os.path.join(target, "perfbench-runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--ghr", os.path.join(target, "release", "ghr"),
        "--dir", run_dir,
    ]
    # Its own process group, so a hung or interrupted run can be stopped
    # whole: the harness and every ghr process it started.
    harness = subprocess.Popen(cmd, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    except (KeyboardInterrupt, SystemExit):
        code = 130
    finally:
        if harness.poll() is None:
            os.killpg(harness.pid, signal.SIGKILL)
            harness.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
