"""Differential test: one coalesced solve per instant vs a solve per mutation.

Inside a run loop :class:`FlowNetwork` registers open / close /
``set_cap`` / ``set_link_capacity`` with its solver and solves once, at
the end of the simulated instant (or earlier, when something observes a
rate).  The oracle here is a test-only subclass that solves on every
mutation, which is what the network did before coalescing.  Both run the
same random script of same-instant mutation bursts, transfers and
positive-delay gaps, and must agree on every transfer completion time
and on every final flow rate.

Between mutations at one instant no simulated time passes, so the
intermediate rates move no bytes; the last per-mutation solve and the one
coalesced solve see the same flow state.  The agreement is exact for the
reference solver (it always solves every flow) and for single-component
topologies.  With several components the incremental solver may solve a
different union of components in one fill, whose shared level can round
differently in the last ulp, so there the comparison uses the ``_EPS``
tolerance of ``test_solver_equivalence``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import _EPS, FlowNetwork
from repro.sim import Simulator
from tests.network.reference_solver import use_reference


class EagerFlowNetwork(FlowNetwork):
    """Oracle: re-solve on every mutation, inside a run loop or not."""

    def _mutated(self) -> None:
        self._reallocate()


# "Nice" capacities, sizes and gaps make completions land on burst
# instants often, on top of the explicit landing bursts.
LINK_CAPS = (50.0, 100.0, 200.0)
SIZES = (25.0, 50.0, 100.0, 200.0)
GAPS = (0.25, 0.5, 1.0)
N_LINKS = 6
FLOW_IDX = st.integers(0, 63)

OPS = st.one_of(
    st.tuples(
        st.just("open"),
        st.lists(st.integers(0, N_LINKS - 1), min_size=1, max_size=3,
                 unique=True),
        st.sampled_from((None, 20.0, 50.0)),
        st.sampled_from((None,) + SIZES),
    ),
    st.tuples(st.just("transfer"), FLOW_IDX, st.sampled_from(SIZES)),
    st.tuples(st.just("close"), FLOW_IDX),
    st.tuples(st.just("cap"), FLOW_IDX,
              st.sampled_from((None, 10.0, 40.0, 80.0))),
    st.tuples(st.just("linkcap"), st.integers(0, N_LINKS - 1),
              st.sampled_from(LINK_CAPS + (25.0,))),
)

#: how the conductor reaches a burst's instant: a positive gap, or "land"
#: exactly on the completion of a fresh transfer that is still pending
ARRIVALS = st.one_of(
    st.sampled_from(GAPS),
    st.floats(0.01, 2.0),
    st.tuples(st.just("land"), FLOW_IDX, st.sampled_from(SIZES)),
)

BURSTS = st.tuples(
    ARRIVALS,
    # (op, yield to the rest of the instant before it)
    st.lists(st.tuples(OPS, st.booleans()), min_size=1, max_size=6),
    st.integers(1, 3),  # mutator tasks the burst's ops are dealt to
)

SCRIPTS = st.lists(BURSTS, min_size=1, max_size=8)


def flow_links(links, topology, idxs):
    """``single`` routes every flow over link 0, so all flows share one
    component; ``multi`` uses the chosen links as they are."""
    if topology == "single":
        idxs = [0] + [i for i in idxs if i != 0]
    return [(links[i], 1.0 if k == 0 else 0.5) for k, i in enumerate(idxs)]


def run_script(net_cls, solver, topology, script):
    """Run ``script`` on a fresh network; return the completion time of
    every transfer, every opened flow's final rate, and the network."""
    sim = Simulator()
    net = net_cls(sim)
    if solver == "reference":
        use_reference(net)
    links = [net.add_link(f"l{i}", LINK_CAPS[i % len(LINK_CAPS)])
             for i in range(N_LINKS)]
    opened = []  # every flow, in open order
    live = []  # open flows, addressed by index modulo length
    done = {}

    def start(flow, nbytes):
        label = len(done)
        done[label] = None
        flow.transfer(nbytes)._subscribe(
            lambda t, label=label: done.__setitem__(label, t)
        )

    def apply(op):
        kind = op[0]
        if kind == "open":
            _, idxs, cap, nbytes = op
            flow = net.open(flow_links(links, topology, idxs), cap=cap)
            opened.append(flow)
            live.append(flow)
            if nbytes is not None:
                start(flow, nbytes)
        elif kind == "linkcap":
            net.set_link_capacity(links[op[1]], op[2])
        elif live:
            flow = live[op[1] % len(live)]
            if kind == "transfer":
                start(flow, op[2])
            elif kind == "close":
                live.remove(flow)
                net.close(flow)
            else:
                flow.set_cap(op[2])

    def mutator(ops):
        for op, hop in ops:
            if hop:
                yield None
            apply(op)

    def conductor():
        for arrival, ops, n_tasks in script:
            if isinstance(arrival, tuple):
                _, idx, nbytes = arrival
                flow = live[idx % len(live)] if live else None
                rate = flow.rate if flow is not None else 0.0
                if rate > _EPS:
                    # sleep first, start the transfer after: the burst then
                    # lands on its completion time with the completion
                    # event still queued behind it
                    sim.spawn(helper(flow, nbytes))
                    yield nbytes / rate
                else:
                    yield GAPS[0]
            else:
                yield arrival
            # the conductor deals itself the first share and applies it on
            # waking, ahead of any completion queued for this instant
            tasks = [sim.spawn(mutator(ops[i::n_tasks]))
                     for i in range(1, n_tasks)]
            yield from mutator(ops[::n_tasks])
            for task in tasks:
                yield task

    def helper(flow, nbytes):
        start(flow, nbytes)
        yield None

    sim.spawn(conductor())
    sim.run()
    return done, [flow.rate for flow in opened], net


def assert_same(script, solver, topology):
    done, rates, net = run_script(FlowNetwork, solver, topology, script)
    want_done, want_rates, oracle = run_script(
        EagerFlowNetwork, solver, topology, script
    )
    assert net.reallocations <= oracle.reallocations
    assert done.keys() == want_done.keys()
    exact = solver == "reference" or topology == "single"
    if exact:
        assert done == want_done
        assert rates == want_rates
        return
    for label, t in done.items():
        want = want_done[label]
        assert (t is None) == (want is None), label
        if t is not None:
            assert math.isclose(t, want, rel_tol=1e-9, abs_tol=1e-12), (
                label, t, want)
    for got, want in zip(rates, want_rates):
        assert abs(got - want) <= _EPS * max(1.0, abs(want))


@pytest.mark.parametrize("topology", ["single", "multi"])
@pytest.mark.parametrize("solver", ["reference", "incremental"])
@settings(max_examples=60, deadline=None)
@given(script=SCRIPTS)
def test_coalesced_matches_per_mutation_solve(solver, topology, script):
    assert_same(script, solver, topology)


class ProbeFlowNetwork(FlowNetwork):
    """Records, for each completion that arrived while a mutation was
    unsolved, whether it completed (rather than being superseded)."""

    def __init__(self, sim):
        super().__init__(sim)
        self.dirty_completions = []

    def _complete(self, transfer, generation):
        dirty = self._dirty
        super()._complete(transfer, generation)
        if dirty:
            self.dirty_completions.append(transfer.done)


def test_burst_on_pending_completion_is_repushed():
    """A same-instant burst landing exactly on a queued completion: the
    completion solves first, sees its generation moved and is re-pushed,
    as a per-mutation solve would have done."""
    script = [
        (0.5, [(("open", [0], None, 100.0), False),
               (("open", [0], None, None), False)], 1),
        (("land", 0, 50.0), [(("open", [0], None, None), False),
                             (("close", 1), True),
                             (("cap", 0, 40.0), False)], 2),
        (1.0, [(("linkcap", 0, 25.0), False)], 1),
    ]
    for solver in ("reference", "incremental"):
        for topology in ("single", "multi"):
            assert_same(script, solver, topology)
    done, _, net = run_script(ProbeFlowNetwork, "reference", "single", script)
    assert net.dirty_completions == [False]
    assert all(t is not None for t in done.values())


def test_due_transfer_residual_is_not_divided_by_a_later_rate():
    """A transfer due at a mutation instant keeps no rounding residual:
    otherwise its re-pushed completion lands on the instant or one ulp
    after it depending on which same-instant rate divides the residual,
    and the coalesced solve and the per-mutation solve see different
    rates there."""
    script = [
        (0.25, [(("open", [0], None, None), False)] * 3, 1),
        (("land", 0, 200.0), [(("open", [0], None, None), False)], 1),
        (0.18580150909086757, [(("open", [0], None, None), False)], 1),
        (("land", 0, 25.0), [(("close", 0), False)], 1),
        (("land", 0, 25.0), [(("cap", 0, None), False),
                             (("open", [0], None, None), True)], 1),
    ]
    for solver in ("reference", "incremental"):
        assert_same(script, solver, "single")
