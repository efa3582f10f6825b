"""Every replay engine admits the same ranks, for the same reasons.

Before a rank's trace enters the replay, the analyzer decides whether it
can be used at all and how complete it is.  This suite runs one damage
matrix — a truncated trace, a corrupted trace, a trace file moved away on
its metahost, a metahost left out of ``readers``, and a healthy control —
through all four engines:

* the buffered :class:`~repro.analysis.replay.ReplayAnalyzer`;
* the sharded kernel as one in-process shard (the default serial path);
* the sharded kernel across two worker processes (``jobs=2``);
* the time-ordered :class:`~repro.analysis.streaming.StreamingReplayAnalyzer`
  (``bounded=True``).

In degraded mode every engine must report the same per-rank completeness,
the same excluded ranks, the same ordered ``(category, message)`` warnings
and the same severity cube.  In strict mode every engine must raise the
same error with the same message, naming the same rank.
"""

from __future__ import annotations

import warnings

import pytest

from repro.analysis.parallel import ParallelReplayAnalyzer
from repro.analysis.replay import ReplayAnalyzer
from repro.analysis.streaming import StreamingReplayAnalyzer
from repro.apps.imbalance import make_imbalance_app
from repro.faults import FaultPlan, TraceCorruption, TraceTruncation
from repro.topology.presets import uniform_metacomputer
from repro.trace.archive import trace_filename

from tests.conftest import run_app

ENGINES = {
    "buffered": lambda readers, degraded: ReplayAnalyzer(
        readers, degraded=degraded
    ),
    "one-shard": lambda readers, degraded: ParallelReplayAnalyzer(
        readers, degraded=degraded, jobs=1
    ),
    "jobs=2": lambda readers, degraded: ParallelReplayAnalyzer(
        readers, degraded=degraded, jobs=2
    ),
    "bounded": lambda readers, degraded: StreamingReplayAnalyzer(
        readers, degraded=degraded
    ),
}


def _run(fault_plan=None):
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
    work = {r: 0.005 * (1 + r % 3) for r in range(8)}
    return run_app(
        mc, 8, make_imbalance_app(work, iterations=3), seed=3,
        fault_plan=fault_plan,
    )


def _readers(run, skip_machine=None):
    return {
        machine: run.reader(machine)
        for machine in run.machines_used
        if machine != skip_machine
    }


def _healthy():
    return _readers(_run())


def _truncated():
    plan = FaultPlan(
        name="truncate", seed=3, specs=(TraceTruncation(rank=6, keep_fraction=0.5),)
    )
    return _readers(_run(plan))


def _corrupted():
    plan = FaultPlan(
        name="corrupt",
        seed=3,
        specs=(TraceCorruption(rank=3, at_fraction=0.5, length=8),),
    )
    return _readers(_run(plan))


def _moved_away():
    run = _run()
    rank = 5
    namespace = run.namespaces[run.definitions.machine_of(rank)]
    path = f"{run.archive_path}/{trace_filename(rank)}"
    namespace.replace(path, path + ".moved")
    return _readers(run)


def _machine_left_out():
    run = _run()
    return _readers(run, skip_machine=run.definitions.machine_of(7))


DAMAGE = {
    "healthy": _healthy,
    "truncated": _truncated,
    "corrupted": _corrupted,
    "moved-away": _moved_away,
    "machine-left-out": _machine_left_out,
}


@pytest.fixture(scope="module", params=sorted(DAMAGE))
def damaged(request):
    return request.param, DAMAGE[request.param]()


def _degraded_outcome(engine, readers):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = ENGINES[engine](readers, True).analyze()
    return {
        "completeness": result.completeness,
        "excluded_ranks": result.excluded_ranks,
        "warnings": [(w.category, str(w.message)) for w in caught],
        "cube": result.cube.data,
    }


def _strict_outcome(engine, readers):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = ENGINES[engine](readers, False).analyze()
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return ("raised", type(exc), str(exc))
    return ("result", result.cube.data, result.completeness)


def test_degraded_admission_parity(damaged):
    name, readers = damaged
    reference = _degraded_outcome("buffered", readers)
    if name == "healthy":
        assert reference["warnings"] == [] and reference["excluded_ranks"] == []
    else:
        assert reference["excluded_ranks"], name
        assert reference["warnings"], name
    for engine in ENGINES:
        outcome = _degraded_outcome(engine, readers)
        for facet in ("completeness", "excluded_ranks", "warnings", "cube"):
            assert outcome[facet] == reference[facet], (name, engine, facet)


def test_strict_admission_parity(damaged):
    name, readers = damaged
    reference = _strict_outcome("buffered", readers)
    if name in ("moved-away", "machine-left-out"):
        assert reference[0] == "raised", name
    for engine in ENGINES:
        assert _strict_outcome(engine, readers) == reference, (name, engine)
