"""Property-based tests: random communication schedules, full pipeline.

Generates random — but deadlock-free by construction — communication
schedules, runs them through simulate → trace → archive → analyze, and
checks global invariants: every message matches, severities are bounded,
and the analysis is insensitive to archive layout.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.patterns import LATE_SENDER, P2P, TIME
from repro.analysis.replay import analyze_run
from repro.clocks.clock import ClockEnsemble
from repro.errors import DeadlockError
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NPROCS = 4

# One round: a list of (sender, receiver, size).  Sizes span the 64 KiB
# eager limit, so blocking rendezvous sends are covered too.
rounds = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=NPROCS - 1),
            st.integers(min_value=0, max_value=NPROCS - 1),
            st.integers(min_value=0, max_value=100_000),
        ),
        max_size=4,
    ),
    min_size=1,
    max_size=5,
)


#: Two blocking sends above the eager limit facing each other.
HEAD_TO_HEAD = [[(0, 1, 65537), (1, 0, 65537)]]


def _schedule_app(schedule):
    """Each round: the exchanges in one global order, then a barrier.

    Every rank walks the round's exchanges in list order, sending where it
    is the sender and receiving where it is the receiver.  The earliest
    unfinished exchange always has both ends posted, so no schedule can
    deadlock, whatever its message sizes.
    """

    def app(ctx):
        with ctx.region("main"):
            for round_index, exchanges in enumerate(schedule):
                with ctx.region("round"):
                    for order, (src, dst, size) in enumerate(exchanges):
                        tag = round_index * 100 + order
                        if src == dst:
                            continue
                        if ctx.rank == src:
                            yield ctx.comm.send(dst, size, tag=tag)
                        elif ctx.rank == dst:
                            yield ctx.comm.recv(src, tag=tag)
                yield ctx.comm.barrier()

    return app


def _message_count(schedule):
    return sum(
        1 for exchanges in schedule for (src, dst, _s) in exchanges if src != dst
    )


class TestRandomSchedules:
    @given(schedule=rounds, seed=st.integers(min_value=0, max_value=2**16))
    @example(schedule=HEAD_TO_HEAD, seed=0)
    @SETTINGS
    def test_every_message_matched(self, schedule, seed):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, NPROCS)
        run = MetaMPIRuntime(mc, placement, seed=seed).run(_schedule_app(schedule))
        assert run.stats.p2p_messages == _message_count(schedule)
        result = analyze_run(run)
        # The analyzer sees exactly the simulated messages.
        assert result.violations.total == _message_count(schedule)

    @given(schedule=rounds, seed=st.integers(min_value=0, max_value=2**16))
    @example(schedule=HEAD_TO_HEAD, seed=0)
    @SETTINGS
    def test_wait_states_bounded_by_op_time(self, schedule, seed):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, NPROCS)
        run = MetaMPIRuntime(mc, placement, seed=seed).run(_schedule_app(schedule))
        result = analyze_run(run)
        eps = 1e-9
        assert result.metric_total(LATE_SENDER) <= result.metric_total(P2P) + eps
        assert result.metric_total(P2P) <= result.metric_total(TIME) + eps

    @given(schedule=rounds)
    @SETTINGS
    def test_true_causality_under_perfect_clocks(self, schedule):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, NPROCS)
        clocks = ClockEnsemble.synchronized(placement.ranks_by_node())
        run = MetaMPIRuntime(mc, placement, seed=1, clocks=clocks).run(
            _schedule_app(schedule)
        )
        result = analyze_run(run)
        # Perfect clocks remove drift and offset, but the synchronized
        # stamps still pass through *measured* offsets, whose ping-pong
        # jitter can misplace a near-simultaneous pair by nanoseconds.
        # Any apparent violation must therefore be bounded by
        # measurement-error scale, far below the one-way link latency.
        worst = min((s.slack_s for s in result.violations.stamps), default=0.0)
        assert worst >= -5e-6


def test_head_to_head_rendezvous_deadlocks():
    """Posting both blocking rendezvous sends before either receive
    deadlocks; the global exchange order above is what avoids it."""

    def app(ctx):
        peer = 1 - ctx.rank
        yield ctx.comm.send(peer, 65537, tag=0)
        yield ctx.comm.recv(peer, tag=0)

    mc = uniform_metacomputer(metahost_count=2, node_count=1, cpus_per_node=1)
    with pytest.raises(DeadlockError):
        MetaMPIRuntime(mc, Placement.block(mc, 2), seed=0).run(app)
