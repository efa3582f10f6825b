"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

Imports the program, builds the workload's inputs and finishes its lazy
set-up (for the service: startup plus one warm-up job that spawns the
pool workers), then prints ``ready`` and waits for standard input to
close before tearing down.  The parent times process start to ``ready``.

    python3 perfbench/setup_probe.py --workload nxn-degraded-128 --seed 1
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workdir = os.path.join(workloads.WORK_DIR, f"probe-{os.getpid()}")
    state = workloads.setup(args.workload, args.seed, workdir)
    try:
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        workloads.teardown(state)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
