"""Determinism properties: the foundation the whole chaos suite rests on.

FoundationDB-style simulation testing is only as good as its
reproducibility: a failing seed must replay the identical execution.
These tests pin that contract at three levels — the event-heap FIFO
tie-break in ``sim.core``, byte-identical chaos traces, and exact
reproduction of IOR figures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import small_cluster
from repro.ior import IorParams, run_ior
from repro.sim.core import Simulator
from repro.units import KiB

from tests.faults.harness import (
    run_random_kv_chaos,
    run_rp2g1_partition_chaos,
)

pytestmark = pytest.mark.chaos


# --------------------------------------------------------------- sim.core
@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(
        st.sampled_from([0.0, 1e-30, 1e-6, 2e-6, 1e-3, 1.0]),
        min_size=1,
        max_size=24,
    )
)
def test_event_heap_fifo_tie_break(delays):
    """Events scheduled for the same instant run in scheduling order —
    the invariant that makes every other test here meaningful. The
    events are scheduled from a callback at t=1, inside the run loop, so
    zero delays take the ready queue, and 1e-30 is absorbed by float
    rounding (1 + 1e-30 == 1): it ties with the zero delays."""

    def run_once():
        sim = Simulator()
        order = []

        def start():
            for i, delay in enumerate(delays):
                sim.schedule(delay, order.append, (delay, i))

        sim.schedule(1.0, start)
        sim.run()
        return order

    first = run_once()
    # (due time, insertion-index) order IS the FIFO-within-timestamp
    # contract.
    assert first == sorted(
        ((d, i) for i, d in enumerate(delays)),
        key=lambda item: (1.0 + item[0], item[1]),
    )
    assert run_once() == first


# ----------------------------------------------------------- chaos traces
def test_same_seed_same_trace_canonical(chaos_seed):
    a = run_rp2g1_partition_chaos(chaos_seed)
    b = run_rp2g1_partition_chaos(chaos_seed)
    assert a.trace_bytes == b.trace_bytes
    assert a.trace.digest() == b.trace.digest()
    assert a.summary == b.summary
    assert a.result == b.result


def test_same_seed_same_trace_random_schedule(chaos_seed):
    a = run_random_kv_chaos(chaos_seed)
    b = run_random_kv_chaos(chaos_seed)
    assert a.trace_bytes == b.trace_bytes
    assert a.summary == b.summary


def test_different_seed_different_trace():
    a = run_rp2g1_partition_chaos(0xDA05)
    b = run_rp2g1_partition_chaos(0xDA06)
    # Boot timing, elections and fault timestamps are all seed-driven;
    # two seeds agreeing byte-for-byte would mean the seed is ignored.
    assert a.trace_bytes != b.trace_bytes


# ------------------------------------------------------------ IOR figures
@pytest.mark.slow
def test_ior_figures_exactly_reproducible(chaos_seed):
    """The paper-reproduction figures themselves are a deterministic
    function of the seed: not close — identical."""

    def run_once():
        cluster = small_cluster(
            server_nodes=2, client_nodes=2, seed=chaos_seed
        )
        params = IorParams(
            api="DFS",
            block_size=256 * KiB,
            transfer_size=64 * KiB,
            segments=1,
        )
        result = run_ior(cluster, params, ppn=2)
        return (result.max_write_bw, result.max_read_bw)

    assert run_once() == run_once()


@pytest.mark.slow
def test_ior_figures_identical_with_tracing_on(chaos_seed):
    """Observability must be a pure observer: spans and metrics never
    schedule events, never yield, and draw from dedicated RNG streams,
    so the same seed yields byte-identical figures traced or untraced."""

    def run_once(observe: bool):
        cluster = small_cluster(
            server_nodes=2, client_nodes=2, seed=chaos_seed
        )
        if observe:
            tracer, metrics = cluster.observe()
            assert tracer is cluster.sim.tracer
            assert metrics is cluster.sim.metrics
        params = IorParams(
            api="DFS",
            block_size=256 * KiB,
            transfer_size=64 * KiB,
            segments=1,
        )
        result = run_ior(cluster, params, ppn=2)
        return (result.max_write_bw, result.max_read_bw)

    assert run_once(observe=False) == run_once(observe=True)
