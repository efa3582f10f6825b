"""Single-pass, bounded-memory streaming replay.

The buffered :class:`~repro.analysis.replay.ReplayAnalyzer` materializes
every rank's MPI-op instances, then matches, then searches patterns — three
walks whose working set is O(trace).  This module restructures the replay
into one pass: a chunked event pump (a time-ordered ``heapq.merge`` over
every rank's streaming decoder) drives per-rank
:class:`~repro.analysis.instances.TimelineBuilder`\\ s, whose completed ops
feed an **incremental** matcher; matched pairs and completed collective
instances flow straight into the pattern search and the severity
accumulators.  Memory is bounded by the *matching window* — in-flight
sends/receives and open collectives — plus the raw trace blobs, never by
the number of events.

This engine runs only for ``AnalysisRequest(bounded=True)``: the O(window)
memory contract needs the global time order.  Default serial analysis is
the sharded kernel of :mod:`repro.analysis.parallel` run as one
in-process shard, which decodes each rank once and needs no pump.

Bit-identity with the buffered analyzer (strict and degraded, every
``jobs`` value) rests on four mechanisms:

* the severity cube and grid breakdown are **exact and order-free**
  (Shewchuk expansions, :mod:`repro.analysis.severity`), so pattern hits
  may arrive in pump order instead of receiver-major order;
* the only *stateful* pattern (Wrong Order, keyed per receiver and
  communicator) sees pairs through a per-receiver reorder buffer that
  releases them in receive trace order — exactly the serial feed order
  per key;
* collective instances are emitted with members rebuilt in ascending rank
  order, reproducing the serial causer tie-break, and flushed at
  end-of-stream sorted by ``(comm, index)``;
* call paths are interned per rank and renumbered rank-major at finalize
  (the parallel merge's idiom), with cube cells re-keyed wholesale — no
  re-addition, no rounding.

Clock-condition stamps are sorted at finalize; every analyzer (buffered,
streaming, parallel merge) sorts identically, so stamp lists stay
comparable across paths.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.analysis.admission import AdmittedTrace, TraceAdmission, budget_cut
from repro.analysis.callpath import ROOT_PATH, CallPathRegistry
from repro.analysis.instances import (
    MPIOpInstance,
    ProcessTimeline,
    TimelineBuilder,
    remap_timeline,
    total_time_of,
)
from repro.analysis.matching import (
    COLLECTIVE_MEMBER_BYTES,
    PAIR_METADATA_BYTES,
    CollectiveInstance,
    MatchedPair,
    MatchStats,
)
from repro.analysis.parallel import DEADLINE_POLL_EVENTS
from repro.analysis.patterns import (
    COLLECTIVE,
    COMMUNICATION,
    IDLE_THREADS,
    MPI,
    P2P,
    SYNCHRONIZATION,
    TIME,
    default_collective_patterns,
    default_p2p_patterns,
)
from repro.analysis.patterns.base import classify_region
from repro.analysis.patterns.grid import (
    GridPairBreakdown,
    accumulate_collective,
    accumulate_p2p,
)
from repro.analysis.replay import AnalysisResult, ReplayTraffic
from repro.analysis.severity import SeverityCube
from repro.analysis.severity_timeline import (
    SeverityTimeline,
    record_collective_hits,
    record_p2p_hits,
)
from repro.clocks.condition import ClockConditionChecker, MessageStamp
from repro.clocks.sync import HierarchicalInterpolation, LinearConverter, SyncScheme
from repro.errors import AnalysisError
from repro.ids import node_of
from repro.resilience.deadline import Deadline
from repro.trace.archive import ArchiveReader, collect_shard
from repro.trace.encoding import iter_events

#: A point-to-point channel: (sender rank, receiver rank, tag, communicator).
ChannelKey = Tuple[int, int, int, int]


class _ReceiverReleases:
    """Per-receiver reorder buffer: pairs leave in receive trace order.

    Each receive record gets a sequence number when its op completes (the
    pump delivers a rank's ops in trace order, so assignment order *is*
    receive trace order).  A completed pair parks under its sequence until
    every earlier receive of that receiver is resolved — matched and
    released, or voided (unmatched in degraded mode).  The buffer holds at
    most the in-flight matching window.
    """

    __slots__ = ("assign", "release", "parked")

    def __init__(self) -> None:
        self.assign = 0
        self.release = 0
        #: seq → MatchedPair, or None for a voided (unmatched) receive.
        self.parked: Dict[int, Optional[MatchedPair]] = {}

    def next_seq(self) -> int:
        seq = self.assign
        self.assign += 1
        return seq

    def resolve(self, seq: int, pair: Optional[MatchedPair]) -> List[MatchedPair]:
        """Park one outcome; return every pair that becomes releasable."""
        self.parked[seq] = pair
        out: List[MatchedPair] = []
        while self.release in self.parked:
            released = self.parked.pop(self.release)
            self.release += 1
            if released is not None:
                out.append(released)
        return out


class _CollectiveGroup:
    """One in-flight collective instance, accumulating members as they exit."""

    __slots__ = ("region", "members", "locations", "order", "expected")

    def __init__(self, region: int, order, expected: Optional[int]) -> None:
        self.region = region
        self.members: Dict[int, tuple] = {}
        self.locations: Dict[int, object] = {}
        #: Full communicator rank order (None when unknown to the archive).
        self.order = order
        #: Analyzed member count that completes the instance (None: unknown
        #: communicator, only end-of-stream flush can close it).
        self.expected = expected


class StreamingReplayAnalyzer:
    """Single-pass, bounded-memory replay over per-metahost archive readers.

    Completed op instances are consumed by the pipeline and dropped instead
    of being appended to ``timelines[rank].mpi_ops``/``omp_regions``;
    aggregates are unaffected.  Constructor contract mirrors
    :class:`~repro.analysis.replay.ReplayAnalyzer` (readers keyed by
    machine, optional scheme, degraded flag) plus:

    ``timeline``
        a :class:`~repro.analysis.severity_timeline.SeverityTimeline` to
        accumulate time-resolved severity into (None: skip).
    ``deadline``
        a :class:`~repro.resilience.deadline.Deadline` polled
        cooperatively every :data:`DEADLINE_POLL_EVENTS` pump iterations.
        On expiry (or cancellation) the pump stops, stragglers settle
        degraded-style, and the result carries the severity accumulated
        so far with honest per-rank completeness and
        ``result.interrupted`` set — never a hang, never a crash.
    """

    def __init__(
        self,
        readers: Dict[int, ArchiveReader],
        scheme: Optional[SyncScheme] = None,
        degraded: bool = False,
        timeline: Optional[SeverityTimeline] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        if not readers:
            raise AnalysisError("no archive readers supplied")
        self.readers = dict(readers)
        self.degraded = degraded
        if scheme is None:
            scheme = HierarchicalInterpolation(strict=not degraded)
        self.scheme = scheme
        self.timeline = timeline
        self.deadline = deadline

    @staticmethod
    def _validate_structure(rank: int, trace: AdmittedTrace, regions) -> None:
        """Degraded dry run: does the trace build without structural errors?

        The pump feeds the shared matcher incrementally, so a mid-stream
        build failure (damage that decodes as valid records but is
        structurally inconsistent — the buffered analyzer's backstop case)
        would poison state already accumulated for other ranks.  Walking
        the rank once up front keeps the pump infallible in degraded mode;
        the events are discarded as they stream by.
        """
        builder = TimelineBuilder(
            rank, trace.location, trace.converter, CallPathRegistry(), regions,
            retain=False,
        )
        _, events = iter_events(trace.blob)
        feed = builder.feed
        for event in events:
            feed(event)
        builder.finish()

    # -- the pass --------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        first_reader = next(iter(self.readers.values()))
        definitions = first_reader.definitions()
        sync_data = first_reader.sync_data()
        synchronized = self.scheme.convert_all(sync_data)
        degraded = self.degraded
        regions = definitions.regions

        # Prepass: admit every rank (scanning, not decoding) and collect
        # each admitted rank's blob and converter.
        ranks = sorted(definitions.locations)
        admission = TraceAdmission(
            definitions,
            collect_shard(self.readers, definitions, ranks),
            synchronized.converters,
            degraded,
        )
        blobs: Dict[int, bytes] = {}
        converters: Dict[int, LinearConverter] = {}
        locations: Dict[int, object] = {}
        for rank in ranks:
            trace = admission.admit(rank, scan_only=True)
            if trace is None:
                continue
            if degraded:
                try:
                    self._validate_structure(rank, trace, regions)
                except AnalysisError as exc:
                    admission.reject(rank, exc)
                    continue
            blobs[rank] = trace.blob
            converters[rank] = trace.converter
            locations[rank] = trace.location

        if not blobs:
            raise AnalysisError("no rank produced a usable trace")

        analyzed = sorted(blobs)
        analyzed_set = set(analyzed)

        state = _StreamState(
            definitions=definitions,
            analyzed=analyzed_set,
            degraded=degraded,
            timeline=self.timeline,
        )

        # Per-rank builders with per-rank (local) call-path registries;
        # completed ops flow into the shared incremental matcher.
        builders: Dict[int, TimelineBuilder] = {}
        local_registries: Dict[int, CallPathRegistry] = {}
        for rank in analyzed:
            local = CallPathRegistry()
            local_registries[rank] = local
            builder = TimelineBuilder(
                rank,
                locations[rank],
                converters[rank],
                local,
                regions,
                retain=False,
            )
            builder.on_op = state.make_op_sink(rank, locations[rank])
            builder.on_omp = state.make_omp_sink(rank)
            builders[rank] = builder

        # The pump: one time-ordered pass over every admitted rank's
        # streaming decoder.  (t, rank, seq) keys are unique, so heapq
        # never compares events; per-rank delivery order is trace order
        # regardless of clock skew between ranks.
        def keyed(rank: int) -> Iterator[Tuple[float, int, int, object]]:
            slope = converters[rank].slope
            intercept = converters[rank].intercept
            _, events = iter_events(blobs[rank])
            seq = 0
            for event in events:
                yield (event.time * slope + intercept, rank, seq, event)
                seq += 1

        interrupted: Optional[str] = None
        merged = heapq.merge(*(keyed(rank) for rank in analyzed))
        if self.deadline is None:
            for _, rank, _, event in merged:
                builders[rank].feed(event)
        else:
            # Deadline-aware pump: same event order, plus a cooperative
            # poll every DEADLINE_POLL_EVENTS events and a per-rank count
            # of consumed events for honest completeness on interruption.
            deadline = self.deadline
            pumped: Dict[int, int] = dict.fromkeys(analyzed, 0)
            countdown = DEADLINE_POLL_EVENTS
            for _, rank, _, event in merged:
                builders[rank].feed(event)
                pumped[rank] += 1
                countdown -= 1
                if countdown <= 0:
                    countdown = DEADLINE_POLL_EVENTS
                    interrupted = deadline.reason()
                    if interrupted is not None:
                        break

        state.finish_stream(interrupted=interrupted is not None)

        completeness = admission.completeness
        if interrupted is not None:
            for rank in analyzed:
                completeness[rank] = budget_cut(
                    rank, interrupted, pumped[rank], blobs[rank]
                )

        # Finalize timelines and renumber call paths rank-major — the
        # buffered analyzer's first-encounter order, exactly.
        timelines: Dict[int, ProcessTimeline] = {}
        callpaths = CallPathRegistry()
        mapping: Dict[int, Dict[int, int]] = {}
        for rank in analyzed:
            timeline = builders[rank].finish(force=interrupted is not None)
            remap = {ROOT_PATH: ROOT_PATH}
            for path in local_registries[rank].all_paths():
                remap[path.cpid] = callpaths.intern(remap[path.parent], path.region)
            remap_timeline(timeline, remap)
            timelines[rank] = timeline
            mapping[rank] = remap

        cube = state.cube.remap_callpaths(mapping)
        if self.timeline is not None:
            self.timeline.remap_callpaths(mapping)

        # TIME from per-rank exclusive time (already globally keyed).
        cube_add = cube.add
        for rank in analyzed:
            for cpid, exclusive in timelines[rank].exclusive_time.items():
                cube_add(TIME, cpid, rank, exclusive)

        # Every analyzer sorts stamps identically at finalize, so stamp
        # lists compare equal across the buffered/streaming/merged paths.
        state.checker.stamps.sort()

        return AnalysisResult(
            cube=cube,
            callpaths=callpaths,
            definitions=definitions,
            violations=state.checker,
            traffic=ReplayTraffic.of(
                definitions, admission.trace_bytes, state.stats.metadata_bytes
            ),
            scheme_name=self.scheme.name,
            total_time=total_time_of(timelines),
            timelines=timelines,
            grid_pairs=state.grid_pairs,
            # An interrupted result is degraded-style by construction:
            # starved receives were voided, not matched.
            degraded=degraded or interrupted is not None,
            completeness=completeness,
            severity_timeline=self.timeline,
            interrupted=interrupted,
        )


class _StreamState:
    """Everything the pump accumulates: matcher, patterns, severities.

    Cube cells are keyed by each rank's *local* call-path ids during the
    pass (every contribution charges a rank at its own op's path); the
    finalizer re-keys them globally.
    """

    def __init__(self, definitions, analyzed, degraded, timeline) -> None:
        self.definitions = definitions
        self.analyzed = analyzed
        self.degraded = degraded
        self.timeline = timeline
        self.cube = SeverityCube()
        self.grid_pairs = GridPairBreakdown()
        self.checker = ClockConditionChecker()
        self.stats = MatchStats()
        self._p2p_patterns = default_p2p_patterns()
        self._contribution_fns = [p.contributions for p in self._p2p_patterns]
        self._coll_patterns = default_collective_patterns()
        self._leaf_of: Dict[str, Optional[str]] = {}
        self._nodes: Dict[int, object] = {}
        #: channel → FIFO of (send op, send record) awaiting their receive.
        self._send_queues: Dict[ChannelKey, Deque[tuple]] = {}
        #: channel → FIFO of (recv op, recv record, seq, op idx, recv idx).
        self._pending_recvs: Dict[ChannelKey, Deque[tuple]] = {}
        self._releases: Dict[int, _ReceiverReleases] = {}
        #: (comm, index) → in-flight group; per-rank per-comm counters.
        self._groups: Dict[Tuple[int, int], _CollectiveGroup] = {}
        self._coll_counters: Dict[int, Dict[int, int]] = {}
        self._comm_order_cache: Dict[int, Optional[Tuple[int, ...]]] = {}
        self._op_counts: Dict[int, int] = {}

    # -- sinks -----------------------------------------------------------------

    def make_op_sink(self, rank: int, location) -> "callable":
        self._nodes[rank] = node_of(location)
        self._op_counts[rank] = 0
        self._releases[rank] = _ReceiverReleases()
        self._coll_counters[rank] = {}

        def on_op(op: MPIOpInstance) -> None:
            op_idx = self._op_counts[rank]
            self._op_counts[rank] = op_idx + 1
            self._base_metrics(rank, op)
            for send in op.sends:
                self._on_send(rank, op, send)
            for recv_idx, recv in enumerate(op.recvs):
                self._on_recv(rank, op, recv, op_idx, recv_idx)
            if op.coll is not None:
                self._on_coll(rank, location, op)

        return on_op

    def make_omp_sink(self, rank: int) -> "callable":
        def on_omp(record) -> None:
            idle = record.idle_thread_seconds
            if idle > 0.0:
                self.cube.add(IDLE_THREADS, record.cpid, rank, idle)
                if self.timeline is not None:
                    self.timeline.add(
                        IDLE_THREADS, record.cpid, rank,
                        record.enter, record.exit, idle,
                    )

        return on_omp

    def _base_metrics(self, rank: int, op: MPIOpInstance) -> None:
        duration = op.exit - op.enter
        if duration <= 0.0:
            return
        cpid = op.cpid
        cube_add = self.cube.add
        cube_add(MPI, cpid, rank, duration)
        name = op.op_name
        try:
            leaf = self._leaf_of[name]
        except KeyError:
            leaf = self._leaf_of[name] = classify_region(name)
        metrics = [MPI]
        if leaf == P2P:
            cube_add(COMMUNICATION, cpid, rank, duration)
            cube_add(P2P, cpid, rank, duration)
            metrics += [COMMUNICATION, P2P]
        elif leaf == COLLECTIVE:
            cube_add(COMMUNICATION, cpid, rank, duration)
            cube_add(COLLECTIVE, cpid, rank, duration)
            metrics += [COMMUNICATION, COLLECTIVE]
        elif leaf == SYNCHRONIZATION:
            cube_add(SYNCHRONIZATION, cpid, rank, duration)
            metrics.append(SYNCHRONIZATION)
        if self.timeline is not None:
            for metric in metrics:
                self.timeline.add(metric, cpid, rank, op.enter, op.exit, duration)

    # -- point-to-point --------------------------------------------------------

    def _on_send(self, rank: int, op: MPIOpInstance, send) -> None:
        if self.degraded and send.dest not in self.analyzed:
            # Receiver excluded: the buffered analyzer leaves this send in
            # its queue and counts it at the end; count it now.
            self.stats.unmatched_sends += 1
            return
        key: ChannelKey = (rank, send.dest, send.tag, send.comm)
        pending = self._pending_recvs.get(key)
        if pending:
            recv_op, recv, seq, _op_idx, _recv_idx = pending.popleft()
            self._complete_pair(rank, op, send, send.dest, recv_op, recv, seq)
            return
        queue = self._send_queues.get(key)
        if queue is None:
            self._send_queues[key] = queue = deque()
        queue.append((op, send))

    def _on_recv(
        self, rank: int, op: MPIOpInstance, recv, op_idx: int, recv_idx: int
    ) -> None:
        releases = self._releases[rank]
        seq = releases.next_seq()
        if self.degraded and recv.source not in self.analyzed:
            # Sender excluded: unmatched by construction.  (In strict mode
            # an unknown source must instead reach the starved-receive
            # error at end of stream, as the buffered analyzer raises.)
            self.stats.unmatched_recvs += 1
            self._release(rank, releases.resolve(seq, None))
            return
        key: ChannelKey = (recv.source, rank, recv.tag, recv.comm)
        queue = self._send_queues.get(key)
        if queue:
            send_op, send = queue.popleft()
            self._complete_pair(recv.source, send_op, send, rank, op, recv, seq)
            return
        pending = self._pending_recvs.get(key)
        if pending is None:
            self._pending_recvs[key] = pending = deque()
        pending.append((op, recv, seq, op_idx, recv_idx))

    def _complete_pair(
        self, sender: int, send_op, send, receiver: int, recv_op, recv, seq: int
    ) -> None:
        self.stats.matched += 1
        pair = MatchedPair(
            sender,
            self.definitions.locations[sender],
            send_op,
            send,
            receiver,
            self.definitions.locations[receiver],
            recv_op,
            recv,
        )
        self._release(receiver, self._releases[receiver].resolve(seq, pair))

    def _release(self, receiver: int, pairs: List[MatchedPair]) -> None:
        """Run released pairs through the patterns, in receive trace order."""
        if not pairs:
            return
        nodes = self._nodes
        stamp_append = self.checker.stamps.append
        cube_add = self.cube.add
        for pair in pairs:
            accumulate_p2p(self.grid_pairs, pair)
            stamp_append(
                MessageStamp(
                    nodes[pair.sender_rank],
                    nodes[pair.receiver_rank],
                    pair.send.time,
                    pair.recv.time,
                )
            )
            for contributions in self._contribution_fns:
                hits = contributions(pair)
                if self.timeline is not None:
                    hits = list(hits)
                    record_p2p_hits(self.timeline, pair, hits)
                for hit in hits:
                    cube_add(hit.metric, hit.cpid, hit.rank, hit.value)

    # -- collectives -----------------------------------------------------------

    def _comm_order(self, comm: int) -> Optional[Tuple[int, ...]]:
        if comm not in self._comm_order_cache:
            entry = self.definitions.communicators.get(comm)
            self._comm_order_cache[comm] = entry[1] if entry is not None else None
        return self._comm_order_cache[comm]

    def _on_coll(self, rank: int, location, op: MPIOpInstance) -> None:
        coll = op.coll
        counters = self._coll_counters[rank]
        index = counters.get(coll.comm, 0)
        counters[coll.comm] = index + 1
        key = (coll.comm, index)
        group = self._groups.get(key)
        if group is None:
            order = self._comm_order(coll.comm)
            expected = (
                sum(1 for r in order if r in self.analyzed)
                if order is not None
                else None
            )
            group = _CollectiveGroup(coll.region, order, expected)
            self._groups[key] = group
        elif group.region != coll.region:
            raise AnalysisError(
                f"collective mismatch on comm {coll.comm} instance {index}: "
                f"rank {rank} recorded region {coll.region}, others "
                f"{group.region}"
            )
        group.members[rank] = (op, coll)
        group.locations[rank] = location
        self.stats.metadata_bytes += COLLECTIVE_MEMBER_BYTES
        if group.expected is not None and len(group.members) == group.expected:
            del self._groups[key]
            self._emit_collective(coll.comm, index, group)

    def _emit_collective(self, comm: int, index: int, group: _CollectiveGroup) -> None:
        # Members in ascending rank order: the serial grouping inserts
        # rank-major, and the grid causer tie-break scans insertion order.
        ranks = sorted(group.members)
        first_op, first_coll = group.members[ranks[0]]
        instance = CollectiveInstance(
            comm=comm,
            index=index,
            region=first_coll.region,
            op_name=first_op.op_name,
            root=first_coll.root,
            comm_order=list(group.order) if group.order is not None else None,
        )
        for rank in ranks:
            instance.members[rank] = group.members[rank]
            instance.locations[rank] = group.locations[rank]
        self.stats.collective_instances += 1
        accumulate_collective(self.grid_pairs, instance)
        cube_add = self.cube.add
        for pattern in self._coll_patterns:
            hits = pattern.contributions(instance)
            if self.timeline is not None:
                hits = list(hits)
                record_collective_hits(self.timeline, instance, hits)
            for hit in hits:
                cube_add(hit.metric, hit.cpid, hit.rank, hit.value)

    # -- end of stream ---------------------------------------------------------

    def finish_stream(self, interrupted: bool = False) -> None:
        """Flush stragglers and settle unmatched accounting.

        In strict mode an unmatched receive reproduces the buffered
        analyzer's error exactly: its first unmatched receive in
        receiver-major replay order, same message.  An *interrupted*
        stream (deadline expiry cut the pump mid-trace) settles
        degraded-style instead: a receive whose send never arrived is
        expected when the sender's trace was only half pumped, so it is
        voided and counted, never raised.
        """
        settle_unmatched = self.degraded or interrupted
        starved: List[Tuple[int, int, int, ChannelKey]] = []
        for key, pending in self._pending_recvs.items():
            if not pending:
                continue
            if not settle_unmatched:
                _op, _recv, _seq, op_idx, recv_idx = pending[0]
                starved.append((key[1], op_idx, recv_idx, key))
                continue
            releases = self._releases[key[1]]
            for _op, _recv, seq, _op_idx, _recv_idx in pending:
                self.stats.unmatched_recvs += 1
                self._release(key[1], releases.resolve(seq, None))
        if starved:
            _rank, _op_idx, _recv_idx, key = min(starved)
            raise AnalysisError(
                f"rank {key[1]}: RECV from {key[0]} "
                f"(tag {key[2]}, comm {key[3]}) has no matching SEND"
            )
        self.stats.unmatched_sends += sum(
            len(queue) for queue in self._send_queues.values()
        )
        self.stats.metadata_bytes += self.stats.matched * PAIR_METADATA_BYTES
        for key in sorted(self._groups):
            self._emit_collective(key[0], key[1], self._groups[key])
        self._groups.clear()
