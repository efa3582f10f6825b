"""The traced run: one span around each call into a layer's public functions.

The shipped engine fuses decode, timeline build, matching, patterns and
severity into one streaming pass, so its layers cannot be timed from
outside while it runs.  This module calls each layer's public entry point
on its own, over the same inputs, in the same order the engine applies
them, and then runs the shipped ``api.analyze`` once more in a span.  The
gap between that span and the summed layer spans is
``analysis.streaming_overhead_s``: the pump, heap merge and incremental
bookkeeping the engine adds on top of the layers.
"""

from __future__ import annotations

import gc
import pickle
import time
from statistics import median, quantiles
from typing import Any, Dict, List

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import build_timeline
from repro.analysis.matching import MessageMatcher
from repro.analysis.parallel import ShardTask, analyze_shard, merge_partials, plan_shards
from repro.analysis.patterns import default_collective_patterns, default_p2p_patterns
from repro.analysis.severity import SeverityCube
from repro.clocks.sync import HierarchicalInterpolation
from repro.experiments.figures import MetaTraceOutcome, metatrace_report_text
from repro.ids import node_of
from repro.report.render import render_analysis
from repro.report.serialize import result_to_dict
from repro.trace.archive import TraceShard, salvage_checked
from repro.trace.encoding import decode_events, encode_events

import workloads
from spans import Tracer
from workloads import Ops, cube_digest

#: Every per-layer metric, with its unit; a workload that has no such
#: layer reports 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "topology.build_s": "s",
    "sim.trace_events": "count",
    "trace.bytes": "bytes",
    "trace.encode_s": "s",
    "trace.decode_s": "s",
    "trace.verify_s": "s",
    "trace.salvage_s": "s",
    "clocks.sync_s": "s",
    "analysis.timeline_s": "s",
    "analysis.match_s": "s",
    "match.pairs": "count",
    "match.collectives": "count",
    "analysis.patterns_s": "s",
    "analysis.severity_s": "s",
    "severity.contributions": "count",
    "severity.cells": "count",
    "analysis.traced_analyze_s": "s",
    "analysis.streaming_overhead_s": "s",
    "tracing.overhead_s": "s",
    "gc.result_objects": "count",
    "parallel.shards": "count",
    "parallel.transport_bytes": "bytes",
    "parallel.shard_max_s": "s",
    "parallel.shard_sum_s": "s",
    "parallel.merge_s": "s",
    "parallel.overhead_s": "s",
    "pool.attempts": "count",
    "pool.retries": "count",
    "pool.fallbacks": "count",
    "service.submit_ms": "ms",
    "service.queue_wait_s": "s",
    "service.execute_s": "s",
    "service.poll_requests": "count",
    "store.save_ms": "ms",
    "store.saves": "count",
    "http.cached_rtt_p50_ms": "ms",
    "http.cached_rtt_p98_ms": "ms",
    "http.result_bytes": "bytes",
    "report.serialize_s": "s",
}


def trace_analysis(inputs, tracer: Tracer, ops: Ops) -> Dict[str, float]:
    """Simulate, then time every analysis layer on its own, then the engine."""
    span = tracer.span
    m: Dict[str, float] = {}
    degraded = inputs.request.degraded
    damaged = set(inputs.damaged)

    ops.attempted += 1
    with span("sim.simulate"):
        run = inputs.simulate()
    m["trace.bytes"] = run.total_trace_bytes
    readers = {machine: run.reader(machine) for machine in run.machines_used}
    first = next(iter(readers.values()))
    definitions = first.definitions()
    ranks = sorted(definitions.locations)
    reader_of = {r: readers[definitions.locations[r].machine] for r in ranks}

    with span("trace.read") as s:
        blobs = {r: reader_of[r].read_trace_blob(r) for r in ranks}
        s.counts["files"] = len(blobs)
    intact = [r for r in ranks if r not in damaged]
    with span("trace.decode") as s:
        events = {r: decode_events(blobs[r])[1] for r in intact}
        s.counts["events"] = sum(len(e) for e in events.values())
    with span("trace.encode"):
        encoded = {r: encode_events(r, events[r]) for r in intact}
    ops.attempted += 1
    ops.check(all(encoded[r] == blobs[r] for r in intact),
              "codec round trip changed trace bytes")
    encoded = None
    with span("trace.verify"):
        verifications = [reader.verify() for reader in readers.values()]
    ops.check(
        {c.rank for v in verifications for c in v.corruptions} == damaged,
        "archive verify did not localize exactly the damaged ranks",
    )
    with span("trace.salvage") as s:
        salvaged = {
            r: salvage_checked(blobs[r], reader_of[r].manifest_entry(r))
            for r in sorted(damaged)
        }
        s.counts["events"] = sum(len(v.events) for v in salvaged.values())
    ops.check(all(not (v.complete and v.balanced) for v in salvaged.values()),
              "a damaged trace salvaged as complete")
    m["sim.trace_events"] = sum(len(e) for e in events.values()) + sum(
        len(v.events) for v in salvaged.values()
    )
    salvaged = None

    scheme = HierarchicalInterpolation(strict=not degraded)
    with span("clocks.sync"):
        synchronized = scheme.convert_all(first.sync_data())
    converters = synchronized.converters

    with span("analysis.timeline"):
        callpaths = CallPathRegistry()
        timelines = {
            r: build_timeline(r, definitions.locations[r], events[r],
                              converters[node_of(definitions.locations[r])],
                              callpaths, definitions.regions)
            for r in intact
        }
    events = None

    def comm_order(cid: int):
        entry = definitions.communicators.get(cid)
        return entry[1] if entry is not None else None

    with span("analysis.match") as s:
        matcher = MessageMatcher(timelines, comm_lookup=comm_order,
                                 allow_unmatched=degraded)
        pairs = list(matcher.matched_pairs())
        instances = matcher.collective_instances()
        s.counts["pairs"] = len(pairs)
        s.counts["collectives"] = len(instances)
    m["match.pairs"] = len(pairs)
    m["match.collectives"] = len(instances)

    with span("analysis.patterns"):
        hits: List[Any] = []
        for pattern in default_p2p_patterns():
            for pair in pairs:
                hits.extend(pattern.contributions(pair))
        for pattern in default_collective_patterns():
            for instance in instances:
                hits.extend(pattern.contributions(instance))
    with span("analysis.severity"):
        cube = SeverityCube()
        for hit in hits:
            cube.add(hit.metric, hit.cpid, hit.rank, hit.value)
        cells = sum(len(by_rank) for by_cp in cube.data.values()
                    for by_rank in by_cp.values())
    m["severity.contributions"] = len(hits)
    m["severity.cells"] = cells
    timelines = matcher = pairs = instances = hits = cube = callpaths = None

    # The shipped serial engine, traced, with the GC objects its result holds.
    ops.attempted += 1
    gc.collect()
    before = len(gc.get_objects())
    with span("analysis.analyze"):
        verification, result = inputs.analyze(run)
    gc.collect()
    m["gc.result_objects"] = len(gc.get_objects()) - before
    reference = workloads.check_result(inputs, ops, verification, result, None,
                                       "traced serial")
    with span("report.serialize"):
        if inputs.name == workloads.SERVICE:
            outcome = MetaTraceOutcome(run=run, result=result,
                                       label="Experiment 1 (three metahosts)")
            metatrace_report_text(outcome)
        else:
            render_analysis(result, metric=inputs.report_metric)
        result_to_dict(result, name=inputs.name)
    verification = result = outcome = None
    ops.attempted += 1
    untraced, (verification, result) = workloads.timed(lambda: inputs.analyze(run))
    verification = result = None

    # Parallel path, shard by shard, in process.
    with span("parallel.plan"):
        machine_of = {r: loc.machine for r, loc in definitions.locations.items()}
        shards = plan_shards(ranks, machine_of, 2)
    with span("parallel.tasks"):
        tasks = [shard_task(i, shard, definitions, readers, converters, degraded)
                 for i, shard in enumerate(shards)]
    with span("parallel.pickle") as s:
        transport = sum(len(pickle.dumps(task)) for task in tasks)
        s.counts["bytes"] = transport
    partials = []
    for task in tasks:
        with span("parallel.shard"):
            partials.append(analyze_shard(task))
    with span("parallel.merge"):
        merged = merge_partials(partials, definitions, scheme.name, degraded)
    ops.attempted += 1
    ops.check(cube_digest(merged.cube) == reference,
              "in-process shard merge differs from the serial cube")
    tasks = partials = merged = None

    ops.attempted += 1
    gc.collect()
    with span("parallel.analyze_jobs2"):
        verification, result = inputs.analyze(run, jobs=2)
    workloads.check_result(inputs, ops, verification, result, reference, "traced jobs=2")
    execution = result.execution
    result = verification = run = None

    layer_sum = sum(tracer.total(name) for name in (
        "trace.read", "trace.decode", "trace.salvage", "clocks.sync",
        "analysis.timeline", "analysis.match", "analysis.patterns",
        "analysis.severity",
    ))
    if inputs.request.verify_archive:
        layer_sum += tracer.total("trace.verify")
    analyze_s = tracer.total("analysis.analyze")
    shard_times = tracer.durations("parallel.shard")
    m.update({
        "trace.encode_s": tracer.total("trace.encode"),
        "trace.decode_s": tracer.total("trace.decode"),
        "trace.verify_s": tracer.total("trace.verify"),
        "trace.salvage_s": tracer.total("trace.salvage"),
        "clocks.sync_s": tracer.total("clocks.sync"),
        "analysis.timeline_s": tracer.total("analysis.timeline"),
        "analysis.match_s": tracer.total("analysis.match"),
        "analysis.patterns_s": tracer.total("analysis.patterns"),
        "analysis.severity_s": tracer.total("analysis.severity"),
        "analysis.traced_analyze_s": analyze_s,
        "analysis.streaming_overhead_s": analyze_s - layer_sum,
        "tracing.overhead_s": analyze_s - untraced,
        "report.serialize_s": tracer.total("report.serialize"),
        "parallel.shards": len(shards),
        "parallel.transport_bytes": transport,
        "parallel.shard_max_s": max(shard_times),
        "parallel.shard_sum_s": sum(shard_times),
        "parallel.merge_s": tracer.total("parallel.merge"),
        "parallel.overhead_s": tracer.total("parallel.analyze_jobs2")
        - max(shard_times) - tracer.total("parallel.merge"),
        "pool.attempts": execution.attempts if execution else 0,
        "pool.retries": execution.retries if execution else 0,
        "pool.fallbacks": execution.fallbacks if execution else 0,
    })
    return m


def shard_task(index, ranks, definitions, readers, converters, degraded) -> ShardTask:
    """One shard's work unit, built from the archive readers' public API."""
    traces = TraceShard(ranks=tuple(ranks))
    by_machine: Dict[int, List[int]] = {}
    for rank in ranks:
        by_machine.setdefault(definitions.machine_of(rank), []).append(rank)
    for machine, machine_ranks in sorted(by_machine.items()):
        snapshot = readers[machine].shard_snapshot(machine_ranks)
        traces.blobs.update(snapshot.blobs)
        traces.missing.update(snapshot.missing)
        traces.manifests.update(snapshot.manifests)
    nodes = sorted({node_of(definitions.locations[r]) for r in ranks})
    return ShardTask(
        index=index, ranks=tuple(ranks), degraded=degraded,
        definitions=definitions,
        converters={node: converters.get(node) for node in nodes},
        traces=traces,
    )


class SaveTimer:
    """Wraps one ``JobStore.save`` so each call becomes a ``store.save`` span.

    Saves run on the service's executor and handler threads, so the spans
    are added without a parent.
    """

    def __init__(self, store, tracer: Tracer) -> None:
        self._save = store.save
        self._tracer = tracer
        store.save = self

    def __call__(self, record) -> None:
        start = time.perf_counter()
        try:
            self._save(record)
        finally:
            self._tracer.add("store.save", start, time.perf_counter())


def trace_service(harness, seed: int, seconds: float, tracer: Tracer,
                  ops: Ops) -> Dict[str, float]:
    """Client phase with timed store saves, then figure6's layers."""
    SaveTimer(harness.app.store, tracer)
    with tracer.span("service.client"):
        client = workloads.run_client(harness.port, seed * 1000,
                                      workloads.COLD_SHARE * seconds)
    ops.attempted += client["attempted"]
    ops.failed += client["failed"]
    ops.failures.extend(client["failures"])
    rtt = client["cached_rtt_ms"]
    m: Dict[str, float] = {
        "service.submit_ms": median(client["submit_ms"]),
        "service.queue_wait_s": median(client["queue_wait_s"]),
        "service.execute_s": median(client["execute_s"]),
        "service.poll_requests": median(client["polls"]),
        "store.save_ms": 1e3 * median(tracer.durations("store.save")),
        "store.saves": len(tracer.durations("store.save")),
        "http.cached_rtt_p50_ms": median(rtt),
        "http.cached_rtt_p98_ms": quantiles(rtt, n=50)[-1],
        "http.result_bytes": client["result_bytes"],
    }
    m.update(trace_analysis(workloads.figure6_inputs(seed * 1000), tracer, ops))
    return m


def run_traced(name: str, state, seed: int, seconds: float) -> Dict[str, Any]:
    tracer = Tracer()
    ops = Ops()
    with tracer.span("topology.build"):
        if name == workloads.NXN:
            workloads.nxn_inputs(seed)
        else:
            workloads.figure6_inputs(seed)
    if name == workloads.SERVICE:
        metrics = trace_service(state, seed, seconds, tracer, ops)
    else:
        metrics = trace_analysis(state, tracer, ops)
    metrics["topology.build_s"] = tracer.total("topology.build")
    for key in PER_LAYER_UNITS:
        metrics.setdefault(key, 0)
    return {"ops": ops, "metrics": metrics, "tracer": tracer}


def layer_table(metrics: Dict[str, float]) -> str:
    lines = [f"{'per-layer metric':34s} {'value':>14s}  unit"]
    for key, unit in PER_LAYER_UNITS.items():
        lines.append(f"{key:34s} {metrics[key]:14.6g}  {unit}")
    return "\n".join(lines)
