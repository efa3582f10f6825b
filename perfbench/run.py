"""Benchmark of the shipped simulate → trace → replay → serve pipeline.

    python3 perfbench/run.py --workload nxn-degraded-128 --seed 1 --seconds 55 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes the separate traced run that times each
layer and prints the per-layer table.  Every run checks its outputs and
counts operations attempted and failed.  The last line of standard output
is one JSON object; the full record (fingerprint, every sample, spans) is
written to ``perfbench/out/``.  ``--workload all`` runs every workload in
turn and prints one line per metric.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("nxn-degraded-128", "service-figure6")

#: End-to-end metrics and their units (BENCHMARK.json carries the bounds).
END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "analyze_jobs2_s": "s",
    "cold_job_p50_s": "s",
    "cached_rps": "1/s",
    "peak_rss_mb": "MiB",
}
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def fingerprint() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Process start to ``ready`` of one fresh-interpreter set-up."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdin.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "fingerprint": fingerprint()}
    samples = workloads.Samples()
    for _ in range(0 if trace else SETUP_PROBES):
        samples.time("setup_s", probe_setup(workload, seed))
    workdir = os.path.join(workloads.WORK_DIR, f"run-{os.getpid()}")
    state = workloads.setup(workload, seed, workdir)
    try:
        if trace:
            import layers

            traced = layers.run_traced(workload, state, seed, seconds)
            ops = traced["ops"]
            metrics = {key: {"value": value, "unit": layers.PER_LAYER_UNITS[key]}
                       for key, value in traced["metrics"].items()}
            tracer = traced["tracer"]
            print(tracer.table())
            print()
            print(layers.layer_table(traced["metrics"]))
            record["spans"] = f"{workload}-s{seed}-spans.json"
            tracer.dump(os.path.join(OUT_DIR, record["spans"]))
        else:
            if workload == workloads.SERVICE:
                ops = workloads.measure_service(state, seed, seconds, samples)
            else:
                ops = workloads.measure_analysis(state, seconds, samples)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            samples.scaled["peak_rss_mb"] = samples.raw["peak_rss_mb"] = [rss]
            record["samples"] = samples.scaled
            record["raw_samples"] = samples.raw
            record["paces"] = samples.pacer.readings
            metrics = {key: {"value": median(samples.scaled[key]), "unit": unit}
                       for key, unit in END_TO_END_UNITS.items()}
    finally:
        workloads.teardown(state)
    record["failures"] = ops.failures
    record["result"] = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    return record


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing (run from a full checkout)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            record = run_one(name, args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            return 1
        path = os.path.join(OUT_DIR, f"{name}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        for failure in record["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        if args.workload == "all":
            for key, metric in record["result"]["metrics"].items():
                print(f"{name:18s} {key:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
