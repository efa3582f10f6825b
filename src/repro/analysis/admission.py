"""Trace admission: which ranks a replay may use, and how complete each is.

Before a rank's trace enters the replay, the analyzer decides whether the
trace can be used at all (paper Section 4: every analysis process works
only from the traces local to its own metahost).  Every replay engine — the
buffered :class:`~repro.analysis.replay.ReplayAnalyzer`, the sharded kernel
of :mod:`repro.analysis.parallel` and the bounded
:mod:`~repro.analysis.streaming` engine — makes that decision here, rank by
rank in ascending order, from one :class:`~repro.trace.archive.TraceShard`
collected by :func:`~repro.trace.archive.collect_shard`.

The checks, in order:

1. the rank's metahost has an archive reader and its trace file is there;
2. the file claims the rank it is named after;
3. (degraded) the checksum-aware salvage decoded the whole file and left
   no region open;
4. the rank's node has a clock converter.

After admission the engine builds the rank's timeline; a structural
failure there (damage that decodes as valid records) is the last check,
reported through :meth:`TraceAdmission.reject`.

In strict mode a failed check raises; in degraded mode it excludes the
rank with a :class:`RankCompleteness` record and a
:class:`~repro.errors.PartialTraceWarning` message, so every engine emits
the same warnings in the same order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional

from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError, ArchiveError, PartialTraceWarning
from repro.ids import Location, NodeId, node_of
from repro.trace.archive import NO_READER, Definitions, TraceShard, salvage_checked, trace_filename
from repro.trace.encoding import iter_events, salvage_events
from repro.trace.events import Event


@dataclass(frozen=True)
class RankCompleteness:
    """Per-rank account of how much of a trace the analysis could use."""

    rank: int
    complete: bool
    completeness: float  # fraction of the trace file's bytes that decoded
    events: int  # events decoded (salvaged prefix included)
    analyzed: bool  # included in matching/pattern search
    error: str = ""  # why the trace is incomplete ("" when complete)


@dataclass
class AdmittedTrace:
    """One admitted rank: what its timeline is built from."""

    location: Location
    converter: LinearConverter
    blob: bytes
    #: The decoded events (a salvaged list or a lazy iterator), or None
    #: for a scan-only admission.
    events: Optional[Iterable[Event]]


def emit_warning(message: str) -> None:
    """Raise one admission warning in the calling process."""
    warnings.warn(message, PartialTraceWarning, stacklevel=4)


class TraceAdmission:
    """The admission policy of every replay engine, applied rank by rank.

    *traces* holds the raw bytes (or the reason for their absence) of the
    ranks to admit; *converters* maps each node to its clock converter
    (None when synchronization left it without one).  Each warning text is
    handed to *warn*: engines running in the caller's process emit it at
    once (:func:`emit_warning`), the sharded kernel collects it for the
    merge to re-emit.

    ``completeness`` (degraded mode) and ``trace_bytes`` (admitted ranks)
    fill in as ranks are admitted.
    """

    def __init__(
        self,
        definitions: Definitions,
        traces: TraceShard,
        converters: Mapping[NodeId, Optional[LinearConverter]],
        degraded: bool,
        warn: Callable[[str], None] = emit_warning,
    ) -> None:
        self.definitions = definitions
        self.traces = traces
        self.converters = converters
        self.degraded = degraded
        self.warn = warn
        self.completeness: Dict[int, RankCompleteness] = {}
        self.trace_bytes: Dict[int, int] = {}

    def admit(self, rank: int, scan_only: bool = False) -> Optional[AdmittedTrace]:
        """Admit one rank, or exclude it (degraded) / raise (strict).

        ``scan_only`` decides without materializing the events (degraded
        salvage counts records instead of decoding them), for an engine
        that decodes the admitted trace itself later.
        """
        location = self.definitions.locations[rank]
        blob = self.traces.blobs.get(rank)
        if blob is None:
            reason = self.traces.missing.get(rank, NO_READER)
            if self.degraded:
                return self._exclude(rank, reason)
            if reason == NO_READER:
                raise AnalysisError(
                    f"no archive reader for machine {location.machine} "
                    f"(rank {rank} lives there)"
                )
            raise AnalysisError(
                f"rank {rank}'s trace is not visible on its own metahost "
                f"({trace_filename(rank)} missing)"
            )
        if self.degraded:
            salvaged = salvage_checked(
                blob, self.traces.manifests.get(rank), count_only=scan_only
            )
            if salvaged.rank is not None and salvaged.rank != rank:
                return self._exclude(rank, f"trace file claims rank {salvaged.rank}")
            if not salvaged.complete:
                return self._exclude(
                    rank, salvaged.error, salvaged.completeness, salvaged.event_count
                )
            if not salvaged.balanced:
                # A cut landing exactly on a record boundary decodes
                # cleanly; the only evidence of damage is regions left open.
                return self._exclude(
                    rank,
                    f"trace decodes but leaves {salvaged.open_regions} region(s) open "
                    "(truncated at a record boundary?)",
                    salvaged.completeness,
                    salvaged.event_count,
                )
            self.completeness[rank] = RankCompleteness(
                rank=rank,
                complete=True,
                completeness=1.0,
                events=salvaged.event_count,
                analyzed=True,
            )
            events = None if scan_only else salvaged.events
        else:
            file_rank, events = iter_events(blob)
            if file_rank != rank:
                raise ArchiveError(
                    f"trace file {trace_filename(rank)} claims rank {file_rank}"
                )
            if scan_only:
                events = None
        converter = self.converters.get(node_of(location))
        if converter is None:
            if not self.degraded:
                raise AnalysisError(f"no clock converter for node {node_of(location)}")
            self.warn(
                f"rank {rank}: no clock converter for {node_of(location)}, "
                "using local time unconverted"
            )
            converter = LinearConverter.identity()
        self.trace_bytes[rank] = len(blob)
        return AdmittedTrace(location, converter, blob, events)

    def reject(self, rank: int, error: AnalysisError) -> None:
        """The structural backstop: an admitted trace failed to build.

        Damage can decode as valid records (a corrupted byte that still
        parses) yet be structurally inconsistent.  Strict mode re-raises
        *error*; degraded mode excludes the rank, keeping the salvage
        figures its admission recorded.
        """
        if not self.degraded:
            raise error
        self.trace_bytes.pop(rank, None)
        prior = self.completeness.get(rank)
        self._exclude(
            rank,
            str(error),
            prior.completeness if prior else 0.0,
            prior.events if prior else 0,
        )

    def _exclude(
        self, rank: int, reason: str, fraction: float = 0.0, events: int = 0
    ) -> None:
        """Record *rank* as excluded and warn why."""
        self.completeness[rank] = RankCompleteness(
            rank=rank,
            complete=False,
            completeness=fraction,
            events=events,
            analyzed=False,
            error=reason,
        )
        self.warn(f"rank {rank} excluded from replay: {reason}")


def budget_cut(rank: int, reason: str, consumed: int, blob: bytes) -> RankCompleteness:
    """A rank whose replay a deadline cut after *consumed* events.

    The fraction is of the events in *blob*; the error names the budget,
    so the partial result is never mistaken for a complete one.
    """
    total = salvage_events(blob, count_only=True).event_count
    return RankCompleteness(
        rank=rank,
        complete=False,
        completeness=min(consumed / total, 1.0) if total else 0.0,
        events=consumed,
        analyzed=True,
        error=f"TimeBudgetExceeded: {reason} after {consumed} of {total} event(s)",
    )


def budget_skipped(rank: int, reason: str, stage: str) -> RankCompleteness:
    """A rank the deadline expired on before *stage* (e.g. "shard finished")."""
    return RankCompleteness(
        rank=rank,
        complete=False,
        completeness=0.0,
        events=0,
        analyzed=False,
        error=f"TimeBudgetExceeded: {reason} before its {stage}",
    )
