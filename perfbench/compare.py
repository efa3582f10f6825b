"""Compare two sets of benchmark outputs, metric by metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are each a run record written by ``run.py`` or a directory
of them (``perfbench/out`` after a series of runs).  Runs are grouped by
workload, and for every metric each side's median and quartiles are
printed.  A metric is flagged ``REGRESSION`` only when the new median is
worse than the old one by more than the metric's bound from
BENCHMARK.json, and ``unresolved`` when either side's quartile spread,
as a share of its median, is wider than that bound.  Per-layer metrics
have no bound and are only listed.  Exits 1 when a regression is flagged.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

Series = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Series:
    files = sorted(glob.glob(os.path.join(path, "*-t[01].json"))) if os.path.isdir(path) else [path]
    series: Series = {}
    for name in files:
        with open(name, encoding="utf-8") as handle:
            record = json.load(handle)
        for metric, entry in record["result"]["metrics"].items():
            series.setdefault((record["workload"], metric), []).append(entry["value"])
    return series


def spread(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def bounds() -> Dict[str, Tuple[float, str]]:
    if not os.path.exists(BENCHMARK_JSON):
        return {}
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def verdict(old: List[float], new: List[float], bound: Optional[Tuple[float, str]]) -> str:
    if bound is None:
        return ""
    limit, better = bound
    o1, om, o3 = spread(old)
    n1, nm, n3 = spread(new)
    if max((o3 - o1) / abs(om), (n3 - n1) / abs(nm)) > limit:
        return "unresolved"
    change = (nm - om) / abs(om)
    worse = change if better == "lower" else -change
    if worse > limit:
        return "REGRESSION"
    if worse < -limit:
        return "improved"
    return "within bound"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    limits = bounds()
    regressions = 0
    print(f"{'workload':18s} {'metric':32s} {'old q1/median/q3':>32s} "
          f"{'new q1/median/q3':>32s} {'n':>5s}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, metric = key
        o, n = spread(old[key]), spread(new[key])
        mark = verdict(old[key], new[key], limits.get(metric))
        regressions += mark == "REGRESSION"
        print(f"{workload:18s} {metric:32s} "
              f"{o[0]:10.4g} {o[1]:10.4g} {o[2]:10.4g} "
              f"{n[0]:10.4g} {n[1]:10.4g} {n[2]:10.4g} "
              f"{len(old[key]):2d}/{len(new[key]):<2d}  {mark}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
