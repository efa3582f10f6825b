"""In-memory spans for the traced benchmark run.

A span records one call into a layer: its name, start, end, and the span
that was open when it started (its parent).  Spans live in memory until
the run ends; :meth:`Tracer.dump` writes them out and
:meth:`Tracer.table` renders per-layer self time (a span's duration minus
the time its child spans cover) with call and work counts beside it.

Only the benchmark's own files open spans; nothing here reaches into the
program under test.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    #: Work done inside the span (events decoded, pairs matched, ...).
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the ``with`` body; the yielded span takes work counts."""
        parent = self._stack[-1].sid if self._stack else None
        with self._lock:
            record = Span(sid=len(self.spans), name=name, start=0.0, parent=parent)
            self.spans.append(record)
        self._stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span from another thread (no parent)."""
        with self._lock:
            self.spans.append(Span(sid=len(self.spans), name=name, start=start, end=end))

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time of direct children."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s.duration - child_time.get(s.sid, 0.0)
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def table(self) -> str:
        """Per-layer self time, call count and work counts, slowest first."""
        selfs = self.self_times()
        calls: Dict[str, int] = {}
        counts: Dict[str, Dict[str, int]] = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            bucket = counts.setdefault(s.name, {})
            for key, value in s.counts.items():
                bucket[key] = bucket.get(key, 0) + value
        lines = [f"{'span':34s} {'self s':>9s} {'total s':>9s} {'calls':>6s}  counts"]
        for name in sorted(selfs, key=lambda n: -selfs[n]):
            extra = " ".join(f"{k}={v}" for k, v in sorted(counts[name].items()))
            lines.append(
                f"{name:34s} {selfs[name]:9.4f} {self.total(name):9.4f} "
                f"{calls[name]:6d}  {extra}"
            )
        return "\n".join(lines)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle, indent=1)
