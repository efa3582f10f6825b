"""Fine-grained grid classification: severities per metahost combination.

The paper's future work (Section 6): "the current grid patterns only
distinguish between internal and external communication without
differentiating between different combinations of metahosts.  Here, a more
fine-grained classification would be desirable."  This module provides it:
every grid wait state is additionally attributed to the ordered pair
``(causing metahost, waiting metahost)``, so a report can say *who makes
whom wait* — e.g. that CAESAR's slower CPUs cause FH-BRS's Late Sender
waiting in Experiment 1.
"""

from __future__ import annotations

from math import fsum
from typing import Dict, List, Optional, Tuple

from repro.analysis.matching import CollectiveInstance, MatchedPair
from repro.analysis.patterns.base import (
    GRID_LATE_RECEIVER,
    GRID_LATE_SENDER,
    GRID_WAIT_AT_BARRIER,
    GRID_WAIT_AT_NXN,
    NXN_OPS,
)
from repro.analysis.severity import Partials, grow_expansion

#: Ordered (causing machine, waiting machine) pair.
MachinePair = Tuple[int, int]


class GridPairBreakdown:
    """Accumulator: metric → (causer, waiter) machine pair → seconds.

    Accumulation is exact and order-free, like the severity cube: each
    cell keeps a Shewchuk expansion and ``data`` is the collapsed view, so
    any replay order over the same contributions yields equal ``data``.
    """

    def __init__(self) -> None:
        self._partials: Dict[str, Dict[MachinePair, Partials]] = {}
        self._snapshot: Optional[Dict[str, Dict[MachinePair, float]]] = None

    def add(self, metric: str, causer: int, waiter: int, value: float) -> None:
        if value <= 0.0:
            return
        by_pair = self._partials.setdefault(metric, {})
        key = (causer, waiter)
        partials = by_pair.get(key)
        if partials is None:
            by_pair[key] = [value]
        else:
            grow_expansion(partials, value)
        self._snapshot = None

    @property
    def data(self) -> Dict[str, Dict[MachinePair, float]]:
        """Collapsed view: ``metric → (causer, waiter) → exact seconds``."""
        if self._snapshot is None:
            self._snapshot = {
                metric: {key: fsum(p) for key, p in by_pair.items()}
                for metric, by_pair in self._partials.items()
            }
        return self._snapshot

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridPairBreakdown):
            return NotImplemented
        return self.data == other.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridPairBreakdown(data={self.data!r})"

    def pairs(self, metric: str) -> Dict[MachinePair, float]:
        return dict(self.data.get(metric, {}))

    def total(self, metric: str) -> float:
        return fsum(self.data.get(metric, {}).values())

    def named(self, metric: str, machine_names: List[str]) -> Dict[Tuple[str, str], float]:
        """Pairs rendered with metahost names."""

        def name(machine: int) -> str:
            if 0 <= machine < len(machine_names):
                return machine_names[machine]
            return f"machine{machine}"

        return {
            (name(causer), name(waiter)): value
            for (causer, waiter), value in self.data.get(metric, {}).items()
        }

    def top_pair(self, metric: str) -> Tuple[MachinePair, float]:
        by_pair = self.data.get(metric, {})
        if not by_pair:
            return ((-1, -1), 0.0)
        key = max(by_pair, key=by_pair.get)  # type: ignore[arg-type]
        return key, by_pair[key]


def accumulate_p2p(breakdown: GridPairBreakdown, pair: MatchedPair) -> None:
    """Attribute a matched pair's grid waiting to its machine combination."""
    if not pair.crosses_metahosts:
        return
    sender_machine = pair.sender_location.machine
    receiver_machine = pair.receiver_location.machine
    ls = pair.late_sender_wait
    if ls > 0.0:
        # The sender's metahost causes the receiver's metahost to wait.
        breakdown.add(GRID_LATE_SENDER, sender_machine, receiver_machine, ls)
    lr = pair.late_receiver_wait
    if lr > 0.0:
        breakdown.add(GRID_LATE_RECEIVER, receiver_machine, sender_machine, lr)


def accumulate_collective(
    breakdown: GridPairBreakdown, instance: CollectiveInstance
) -> None:
    """Attribute collective grid waiting to (last-arriver's, waiter's) machines."""
    if not instance.spans_metahosts:
        return
    if instance.op_name == "MPI_Barrier":
        metric = GRID_WAIT_AT_BARRIER
    elif instance.op_name in NXN_OPS:
        metric = GRID_WAIT_AT_NXN
    else:
        return
    last_enter = instance.last_enter
    # The causing metahost is the one hosting the last arriver.
    causer = None
    for rank, (op, _) in instance.members.items():
        if op.enter == last_enter:
            causer = instance.locations[rank].machine
            break
    assert causer is not None  # last_enter comes from the members
    for rank, (op, _) in instance.members.items():
        wait = max(0.0, min(last_enter, op.exit) - op.enter)
        if wait > 0.0:
            breakdown.add(metric, causer, instance.locations[rank].machine, wait)
