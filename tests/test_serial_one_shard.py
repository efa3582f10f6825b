"""Serial analysis runs the sharded kernel as one in-process shard.

Pinned here:

* **Dispatch** — ``analyze_run`` with ``jobs`` None/1, with or without a
  deadline, never builds the streaming engine; ``bounded=True`` does.
* **One report for every execution model** — the Figure 6 report text and
  summary are equal for ``jobs=None``, ``jobs=2`` and ``jobs=None`` under
  an unbounded :class:`Deadline` (the service path).  The old streaming
  default created cube and grid-pair cells in pump order, so its metahost
  pair listing and last-bit percentages drifted from ``jobs>=2``.
* **Bounded mode** — same totals and percentages as the default; only the
  insertion order of the grid metahost-pair breakdown may differ.
* **Warnings** — the kernel collects its warnings instead of swapping the
  process-global filters, so the caller's filters still apply.
* **In-process deadline** — a cut shard reports honest completeness.
* **Speed** — a ``perf`` ratio gate against the buffered oracle.
"""

from __future__ import annotations

import ast
import gc
import random
import time
import warnings

import pytest

import repro.analysis.streaming as streaming
from repro.analysis.parallel import (
    DEADLINE_POLL_EVENTS,
    ParallelReplayAnalyzer,
    ShardTask,
    analyze_shard,
)
from repro.analysis.replay import ReplayAnalyzer, analyze_run
from repro.analysis.request import AnalysisRequest
from repro.api import analyze, simulate
from repro.apps.imbalance import make_imbalance_app, make_nxn_imbalance_app
from repro.clocks.sync import HierarchicalInterpolation
from repro.errors import PartialTraceWarning
from repro.experiments.configs import scaled_experiment1
from repro.experiments.figures import (
    MetaTraceOutcome,
    metatrace_report_text,
    run_metatrace_experiment,
)
from repro.faults import FaultPlan
from repro.faults.plan import TraceCorruption, TraceTruncation
from repro.resilience import Deadline
from repro.topology.presets import uniform_metacomputer

from tests.conftest import run_app


def _small_run(fault_plan=None):
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
    work = {r: 0.005 * (1 + r % 3) for r in range(8)}
    return run_app(
        mc, 8, make_imbalance_app(work, iterations=3), seed=3,
        fault_plan=fault_plan,
    )


@pytest.fixture(scope="module")
def damaged_run():
    plan = FaultPlan(
        name="damage",
        seed=3,
        specs=(
            TraceTruncation(rank=6, keep_fraction=0.5),
            TraceCorruption(rank=3, at_fraction=0.5, length=8),
        ),
    )
    return _small_run(plan)


class TestDispatch:
    @pytest.fixture
    def constructed(self, monkeypatch):
        built = []
        real = streaming.StreamingReplayAnalyzer

        class Spy(real):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(streaming, "StreamingReplayAnalyzer", Spy)
        return built

    @pytest.mark.parametrize("jobs", [None, 1])
    @pytest.mark.parametrize("with_deadline", [False, True])
    def test_serial_runs_the_kernel(self, constructed, jobs, with_deadline):
        deadline = Deadline(None) if with_deadline else None
        result = analyze_run(
            _small_run(), request=AnalysisRequest(jobs=jobs), deadline=deadline
        )
        assert constructed == []
        assert result.interrupted is None
        assert result.execution is None  # no pool for one in-process shard

    def test_bounded_runs_streaming(self, constructed):
        analyze_run(_small_run(), request=AnalysisRequest(bounded=True))
        assert len(constructed) == 1


# -- one report for every execution model ---------------------------------------


@pytest.fixture(scope="module", params=[(1, None), (1, 20), (2, None), (2, 20)],
                ids=lambda p: f"seed{p[0]}-coupling{p[1]}")
def figure6(request):
    seed, coupling = request.param
    return run_metatrace_experiment(figure=1, seed=seed, coupling_intervals=coupling)


def _reanalyzed(outcome, request=None, deadline=None):
    result = analyze(outcome.run, request, deadline=deadline)
    return MetaTraceOutcome(run=outcome.run, result=result, label=outcome.label)


def test_report_identical_across_execution_models(figure6):
    text = metatrace_report_text(figure6)
    summary = figure6.summary()
    for other in (
        _reanalyzed(figure6, AnalysisRequest(jobs=2)),
        _reanalyzed(figure6, deadline=Deadline(None)),
    ):
        assert metatrace_report_text(other) == text
        assert other.summary() == summary


def _pair_lines(text):
    """Split a report into its metahost-pair dicts and every other line."""
    pairs, rest = [], []
    for line in text.splitlines():
        if "by metahost pair" in line:
            head, _, literal = line.partition(": ")
            pairs.append((head, ast.literal_eval(literal)))
        else:
            rest.append(line)
    return pairs, rest


def test_bounded_differs_only_in_pair_order(figure6):
    """``bounded=True`` streams in time order, so grid metahost-pair cells
    are created in pump order.  Totals are fsum-ed (order-free), so the
    summary matches exactly; the pair dicts hold the same values and may
    list them in another order (they do at coupling 20)."""
    bounded = _reanalyzed(figure6, AnalysisRequest(bounded=True))
    assert bounded.summary() == figure6.summary()
    assert bounded.result.cube == figure6.result.cube
    assert bounded.result.grid_pairs == figure6.result.grid_pairs
    assert _pair_lines(metatrace_report_text(bounded)) == _pair_lines(
        metatrace_report_text(figure6)
    )


# -- warnings --------------------------------------------------------------------


def _one_shard_task(run, degraded):
    readers = {m: run.reader(m) for m in run.machines_used}
    analyzer = ParallelReplayAnalyzer(readers, degraded=degraded, jobs=1)
    definitions = next(iter(readers.values())).definitions()
    sync_data = next(iter(readers.values())).sync_data()
    scheme = HierarchicalInterpolation(strict=not degraded)
    converters = scheme.convert_all(sync_data).converters
    ranks = tuple(sorted(definitions.locations))
    return analyzer._shard_task(0, ranks, definitions, converters)


class TestWarnings:
    def test_error_filter_reaches_degraded_serial_analyze(self, damaged_run):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PartialTraceWarning)
            with pytest.raises(PartialTraceWarning, match="excluded from replay"):
                analyze(damaged_run, AnalysisRequest(degraded=True))

    def test_kernel_collects_without_touching_filters(self, damaged_run):
        task = _one_shard_task(damaged_run, degraded=True)
        assert isinstance(task, ShardTask)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = list(warnings.filters)
            partial = analyze_shard(task)  # would raise if it warned
            assert warnings.filters == before
        messages = [message for _, message in partial.warnings]
        assert any("rank 3 excluded" in m for m in messages)
        assert any("rank 6 excluded" in m for m in messages)
        assert {category for category, _ in partial.warnings} == {PartialTraceWarning}

    def test_serial_warnings_in_rank_order(self, damaged_run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analyze(damaged_run, AnalysisRequest(degraded=True))
        ranks = [
            int(str(w.message).split()[1])
            for w in caught
            if issubclass(w.category, PartialTraceWarning)
        ]
        assert ranks == sorted(ranks) and set(ranks) == {3, 6}


# -- in-process deadline --------------------------------------------------------


class _CutAfterPolls:
    """A deadline stand-in that expires on its *n*-th poll."""

    def __init__(self, polls):
        self.polls = polls

    def reason(self):
        self.polls -= 1
        return "deadline of test exceeded" if self.polls <= 0 else None


class TestInProcessDeadline:
    def test_cut_shard_reports_honest_completeness(self):
        run = _small_run()
        plain = analyze(run)
        events = {rank: tl.event_count for rank, tl in plain.timelines.items()}
        # Polls happen every DEADLINE_POLL_EVENTS events, counted across
        # ranks: expire on the first poll that lands strictly inside a
        # rank's trace, after at least one rank finished.
        start = events[0]
        for cut_rank in range(1, 8):
            polls = start // DEADLINE_POLL_EVENTS + 1
            consumed = polls * DEADLINE_POLL_EVENTS - start
            if consumed < events[cut_rank]:
                break
            start += events[cut_rank]
        assert 0 < consumed < events[cut_rank] and cut_rank < 7

        analyzer = ParallelReplayAnalyzer(
            {m: run.reader(m) for m in run.machines_used},
            jobs=1,
            deadline=_CutAfterPolls(polls),
        )
        result = analyzer.analyze()
        assert result.interrupted == "deadline of test exceeded"
        assert result.degraded
        assert sorted(result.timelines) == list(range(cut_rank + 1))
        # Finished ranks replayed in full.
        for rank in range(cut_rank):
            assert rank not in result.completeness
            assert result.timelines[rank].event_count == events[rank]
        cut = result.completeness[cut_rank]
        assert cut.analyzed and not cut.complete
        assert cut.events == consumed
        assert cut.completeness == consumed / events[cut_rank]
        assert f"after {consumed} of {events[cut_rank]} event(s)" in cut.error
        for rank in range(cut_rank + 1, 8):
            entry = result.completeness[rank]
            assert not entry.analyzed and entry.completeness == 0.0
            assert entry.error.startswith("TimeBudgetExceeded: deadline of test")


# -- speed -----------------------------------------------------------------------


@pytest.mark.perf
def test_default_serial_within_ratio_of_oracle():
    """Best-of-3 default serial ``analyze`` ≤ 1.5× best-of-3 buffered
    ``ReplayAnalyzer`` on a 64-rank degraded N×N run.

    Measured on a 2-core x86-64 VM (Python 3.11): the one-shard kernel at
    0.88-1.07× the oracle here (0.94× at 128 ranks); the old streaming
    default at 1.8-2.3× (2.2× at 128 ranks).  A ratio, so runner speed
    cancels out.
    """
    metacomputer, placement, _ = scaled_experiment1(2)
    rng = random.Random(1)
    work = {rank: rng.uniform(0.002, 0.01) for rank in range(placement.size)}
    plan = FaultPlan(
        name="nxn-damage",
        seed=0,
        specs=(
            TraceTruncation(rank=1, keep_fraction=0.5),
            TraceCorruption(rank=placement.size - 2, at_fraction=0.5, length=8),
        ),
    )
    run = simulate(
        make_nxn_imbalance_app(work, iterations=100), metacomputer, placement,
        seed=1, fault_plan=plan,
    )
    request = AnalysisRequest(degraded=True)
    readers = {m: run.reader(m) for m in run.machines_used}
    default_s, oracle_s = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialTraceWarning)
        for _ in range(3):
            gc.collect()
            start = time.perf_counter()
            served = analyze(run, request)
            default_s.append(time.perf_counter() - start)
            gc.collect()
            start = time.perf_counter()
            oracle = ReplayAnalyzer(readers, degraded=True).analyze()
            oracle_s.append(time.perf_counter() - start)
    assert served.cube == oracle.cube
    ratio = min(default_s) / min(oracle_s)
    assert ratio <= 1.5, (
        f"default serial analyze is {ratio:.2f}x the buffered oracle "
        f"({min(default_s):.3f}s vs {min(oracle_s):.3f}s)"
    )
