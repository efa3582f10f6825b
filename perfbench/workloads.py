"""Workload inputs and the untraced (end-to-end) measurement of each.

Two workloads, both driven through the public ``repro.api`` /
``repro.service`` surface:

* ``nxn-degraded-128``: an all-reduce imbalance app on the 128-rank
  MetaTrace placement with three damaged traces, degraded replay with
  archive verification (collective matching, Wait at N×N and the salvage
  loaders dominate);
* ``service-figure6``: the HTTP job service, cold ``analyze figure6``
  jobs and cached resubmits from one keep-alive client process, then the
  strict figure6 replay (p2p matching and Grid Late Sender) timed directly.

Every timed call is preceded by dropping the previous result and a full
``gc.collect()``; see NOTES.md for the numbers behind each hazard.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import api
from repro.analysis.parallel import analyze_shard
from repro.analysis.patterns import (
    GRID_LATE_SENDER,
    GRID_WAIT_AT_NXN,
    LATE_SENDER,
    WAIT_AT_NXN,
)
from repro.apps.imbalance import make_imbalance_app, make_nxn_imbalance_app
from repro.apps.metatrace import make_metatrace_app
from repro.errors import PartialTraceWarning
from repro.experiments.configs import experiment1, scaled_experiment1
from repro.faults import FaultPlan
from repro.faults.plan import TraceCorruption, TraceTruncation
from repro.report.render import render_analysis
from repro.resilience.pool import PoolConfig, SupervisedPool
from repro.service.http import ServiceHTTPServer

from pace import Pacer

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, "work")

NXN = "nxn-degraded-128"
SERVICE = "service-figure6"
WORKLOADS = (NXN, SERVICE)

#: Scale factor of ``scaled_experiment1`` for the N×N workload: 4 x 32 ranks.
NXN_FACTOR = 4
#: All-reduce rounds of the N×N workload (about 1.5 s of degraded replay).
NXN_ITERATIONS = 250
#: Report-render bursts per rep, and their length: the in-process "cached
#: request" of the N×N workload.
RENDER_BURSTS = 4
RENDER_BURST_S = 0.4
#: Share of a service run spent on cold jobs.
COLD_SHARE = 0.35


# -- shared helpers ---------------------------------------------------------------


class Ops:
    """Attempted and failed operation counts of one run, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.failures.append(what)


def cube_digest(cube) -> str:
    """Exact digest of a severity cube (floats hashed bit for bit)."""
    digest = hashlib.sha256()
    data = cube.data
    for metric in sorted(data):
        for cpid in sorted(data[metric]):
            for rank, value in sorted(data[metric][cpid].items()):
                digest.update(f"{metric}|{cpid}|{rank}|{value.hex()}\n".encode())
    return digest.hexdigest()


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Wall time of ``fn()`` after a full collection, and its value."""
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


class Samples:
    """Per-metric samples, each scaled to the reference pace (raw kept too)."""

    def __init__(self) -> None:
        self.pacer = Pacer()
        self.scaled: Dict[str, List[float]] = {}
        self.raw: Dict[str, List[float]] = {}

    def _add(self, name: str, raw: float, scaled: float) -> None:
        self.raw.setdefault(name, []).append(raw)
        self.scaled.setdefault(name, []).append(scaled)

    def time(self, name: str, raw_s: float) -> None:
        self._add(name, raw_s, self.pacer.scale(raw_s))

    def rate(self, name: str, count: int, raw_s: float) -> None:
        self._add(name, count / raw_s, count / self.pacer.scale(raw_s))


def warm_pool() -> SupervisedPool:
    """A persistent two-worker shard pool, as the service keeps one.

    Warmed by one four-rank analysis, so both workers are running before
    anything is timed.
    """
    pool = SupervisedPool(
        analyze_shard,
        PoolConfig(max_workers=2, handle_signals=False),
        persistent=True,
    )
    metacomputer = api.uniform_metacomputer(metahost_count=2, node_count=2,
                                            cpus_per_node=1)
    placement = api.Placement.block(metacomputer, 4)
    work = {0: 0.01, 1: 0.05, 2: 0.01, 3: 0.01}
    run = api.simulate(make_imbalance_app(work, iterations=4), metacomputer,
                       placement, seed=0)
    api.analyze(run, api.AnalysisRequest(jobs=2), pool=pool)
    return pool


# -- inputs -----------------------------------------------------------------------


@dataclass
class AnalysisInputs:
    """What an analysis run simulates and how its analyses are checked."""

    name: str
    seed: int
    metacomputer: Any
    placement: Any
    app: Any
    sim_options: Dict[str, Any]
    request: api.AnalysisRequest
    #: Damaged ranks the degraded result must exclude (nxn only).
    damaged: Tuple[int, ...] = ()
    #: Metric that must be positive in every result.
    grid_metric: str = GRID_LATE_SENDER
    #: Metric of the cached report render.
    report_metric: str = LATE_SENDER
    pool: Optional[SupervisedPool] = field(default=None, repr=False)

    def simulate(self):
        return api.simulate(
            self.app, self.metacomputer, self.placement, seed=self.seed,
            **self.sim_options,
        )

    def analyze(self, run, jobs: Optional[int] = None, pool=None):
        """The timed analysis: verify (nxn) plus ``api.analyze``."""
        verification = api.verify_archives(run) if self.request.verify_archive else None
        request = api.AnalysisRequest(
            jobs=jobs, degraded=self.request.degraded,
            verify_archive=self.request.verify_archive,
        )
        return verification, api.analyze(run, request, pool=pool)


def damaged_ranks(placement) -> Tuple[int, int, int]:
    """One rank per metahost, at the middle of each metahost's rank block."""
    picks = []
    for machine in sorted(placement.machines_used()):
        ranks = placement.ranks_on_machine(machine)
        picks.append(ranks[len(ranks) // 2])
    return tuple(picks[:3])


def nxn_inputs(seed: int) -> AnalysisInputs:
    metacomputer, placement, _config = scaled_experiment1(NXN_FACTOR)
    rng = random.Random(seed)
    work = {rank: rng.uniform(0.002, 0.01) for rank in range(placement.size)}
    first, second, third = damaged_ranks(placement)
    plan = FaultPlan(
        specs=(
            TraceTruncation(rank=first, keep_fraction=0.5),
            TraceTruncation(rank=second, keep_fraction=0.7),
            TraceCorruption(rank=third, at_fraction=0.5, length=8),
        ),
        seed=0,
        name="perfbench-nxn",
    )
    return AnalysisInputs(
        name=NXN,
        seed=seed,
        metacomputer=metacomputer,
        placement=placement,
        app=make_nxn_imbalance_app(work, iterations=NXN_ITERATIONS),
        sim_options={"fault_plan": plan},
        request=api.AnalysisRequest(degraded=True, verify_archive=True),
        damaged=(first, second, third),
        grid_metric=GRID_WAIT_AT_NXN,
        report_metric=WAIT_AT_NXN,
    )


def check_result(inputs: AnalysisInputs, ops: Ops, verification, result,
                 reference: Optional[str], label: str) -> str:
    """Output gate of one analysis; returns the cube digest."""
    digest = cube_digest(result.cube)
    ops.check(result.interrupted is None, f"{label}: interrupted")
    ops.check(result.metric_total(inputs.grid_metric) > 0.0,
              f"{label}: {inputs.grid_metric} is not positive")
    if reference is not None:
        ops.check(digest == reference, f"{label}: cube differs from the reference")
    if inputs.damaged:
        damaged = set(inputs.damaged)
        ops.check(result.degraded, f"{label}: result not marked degraded")
        ops.check(set(result.excluded_ranks) == damaged,
                  f"{label}: excluded {result.excluded_ranks}, expected {sorted(damaged)}")
        ops.check(all(not result.completeness[r].complete for r in damaged
                      if r in result.completeness)
                  and damaged <= set(result.completeness),
                  f"{label}: damaged ranks missing from completeness")
        ops.check(verification is not None
                  and {c.rank for c in verification.corruptions} == damaged,
                  f"{label}: archive verification did not localize the damage")
    return digest


# -- N×N workload ------------------------------------------------------------------


def measure_analysis(inputs: AnalysisInputs, seconds: float, samples: Samples) -> Ops:
    """Repeat simulate-then-analyze reps while one more rep still fits.

    One rep simulates the seed's run afresh, then makes a serial analysis
    (whose finished result then serves the cached report renders), a
    ``jobs=2`` analysis that spawns its own pool, and a ``jobs=2`` analysis
    on the warm pool.  The first serial cube is the reference every later
    cube, of every rep, must equal bit for bit.
    """
    ops = Ops()
    samples.pacer.restart()
    start = time.perf_counter()
    reference = None
    while True:
        rep_start = time.perf_counter()
        ops.attempted += 1
        elapsed, run = timed(inputs.simulate)
        samples.time("simulate_s", elapsed)
        ops.attempted += 1
        elapsed, (verification, result) = timed(lambda: inputs.analyze(run))
        digest = check_result(inputs, ops, verification, result, reference, "serial")
        reference = reference or digest
        texts = {render_analysis(result, metric=inputs.report_metric)}
        samples.time("analyze_s", elapsed)
        # Cached requests: re-render the finished analysis's report, in
        # short bursts so that each burst's pace readings are close to it.
        for _ in range(RENDER_BURSTS):
            renders = 0
            gc.collect()
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < RENDER_BURST_S:
                texts.add(render_analysis(result, metric=inputs.report_metric))
                renders += 1
            samples.rate("cached_rps", renders, time.perf_counter() - t0)
            ops.attempted += renders
        ops.check(len(texts) == 1, "cached render is not deterministic")
        result = verification = None

        ops.attempted += 1
        elapsed, (verification, result) = timed(lambda: inputs.analyze(run, jobs=2))
        check_result(inputs, ops, verification, result, reference, "jobs=2")
        result = verification = None
        samples.time("analyze_jobs2_s", elapsed)

        ops.attempted += 1
        elapsed, (verification, result) = timed(
            lambda: inputs.analyze(run, jobs=2, pool=inputs.pool))
        check_result(inputs, ops, verification, result, reference, "warm pool")
        result = verification = None
        samples.time("cold_job_p50_s", elapsed)
        run = None
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    return ops


# -- service ------------------------------------------------------------------------


def figure6_spec(seed: int, **config: Any) -> Dict[str, Any]:
    spec: Dict[str, Any] = {"kind": "analyze", "experiment": "figure6", "seed": seed}
    if config:
        spec["config"] = config
    return spec


class ServiceHarness:
    """In-process service behind an HTTP server on port 0, fresh store."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        config = api.ServiceConfig(
            store_path=os.path.join(workdir, "jobs.jsonl"), port=0,
            pool_workers=2, default_jobs=2,
        )
        self.app = api.create_app(config)
        self.httpd = ServiceHTTPServer((config.host, 0), self.app)
        self.port = self.httpd.server_address[1]
        self.app.startup()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    def warm_up(self, seed: int) -> str:
        """One short analyze job: spawns the pool workers.  Returns its status."""
        record, _ = self.app.submit(figure6_spec(seed, coupling_intervals=1))
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = self.app.job(record.key).status
            if status in ("done", "failed", "cancelled"):
                return status
            time.sleep(0.01)
        return "timeout"

    def close(self) -> None:
        self.httpd.shutdown()
        self._thread.join(timeout=10.0)
        self.httpd.server_close()
        self.app.shutdown()
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_client(port: int, seed_base: int, cold_seconds: float) -> Dict[str, Any]:
    """Run the closed-loop client process to completion; its JSON summary."""
    command = [
        sys.executable, os.path.join(HERE, "client.py"),
        "--port", str(port), "--seed-base", str(seed_base),
        "--cold-seconds", str(cold_seconds),
    ]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=150.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"client exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def figure6_inputs(seed: int) -> AnalysisInputs:
    """The simulation and analysis a cold ``analyze figure6`` job runs."""
    metacomputer, placement, config = experiment1()
    return AnalysisInputs(
        name=SERVICE,
        seed=seed,
        metacomputer=metacomputer,
        placement=placement,
        app=make_metatrace_app(config),
        sim_options={"subcomms": config.subcomms()},
        request=api.AnalysisRequest(),
    )


def measure_service(harness: ServiceHarness, seed: int, seconds: float,
                    samples: Samples) -> Ops:
    """Cold jobs and cached resubmits over HTTP, then figure6 timed directly."""
    ops = Ops()
    start = time.perf_counter()
    seed_base = seed * 1000
    client = run_client(harness.port, seed_base, cold_seconds=COLD_SHARE * seconds)
    ops.attempted += client["attempted"]
    ops.failed += client["failed"]
    ops.failures.extend(client["failures"])
    # The client paces itself; its scaled and raw samples come back as is.
    for name in ("cold_job_p50_s", "cached_rps"):
        samples.scaled[name] = client["scaled"][name]
        samples.raw[name] = client["raw"][name]

    # Byte-match one served report against a direct run (untimed).
    ops.attempted += 1
    direct_text = api.run_experiment("figure6", seed=client["first_seed"])
    ops.check(direct_text == client["first_text"],
              "served figure6 text differs from run_experiment")

    # A cold job's simulate and analyze phases, timed directly.
    samples.pacer.restart()
    index = 0
    while True:
        rep_start = time.perf_counter()
        inputs = figure6_inputs(seed_base + index)
        index += 1
        ops.attempted += 3
        elapsed, run = timed(inputs.simulate)
        samples.time("simulate_s", elapsed)
        elapsed, (_, result) = timed(lambda: inputs.analyze(run))
        reference = check_result(inputs, ops, None, result, None, "figure6 serial")
        result = None
        samples.time("analyze_s", elapsed)
        elapsed, (_, result) = timed(lambda: inputs.analyze(run, jobs=2))
        check_result(inputs, ops, None, result, reference, "figure6 jobs=2")
        result = run = None
        samples.time("analyze_jobs2_s", elapsed)
        now = time.perf_counter()
        if index >= 2 and now - start + (now - rep_start) > seconds:
            break
    return ops


# -- set-up -----------------------------------------------------------------------------


def setup(name: str, seed: int, workdir: str):
    """Build one workload's inputs and finish its lazy set-up."""
    warnings.simplefilter("ignore", PartialTraceWarning)
    if name == NXN:
        inputs = nxn_inputs(seed)
    elif name == SERVICE:
        harness = ServiceHarness(workdir)
        status = harness.warm_up(seed * 1000 + 999)
        if status != "done":
            harness.close()
            raise RuntimeError(f"service warm-up job ended {status}")
        return harness
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    inputs.pool = warm_pool()
    return inputs


def teardown(state) -> None:
    if isinstance(state, ServiceHarness):
        state.close()
    elif state.pool is not None:
        state.pool.close()
