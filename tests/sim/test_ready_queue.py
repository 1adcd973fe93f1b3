"""The ready-queue event core against a heap-only reference model.

``Simulator`` keeps zero-delay events scheduled during a run loop on a
FIFO ready deque and merges it with the event heap by ``(time, seq)``.
The reference below is the plain heap simulator the ready deque
replaced: every event is pushed onto the heap. Random programs of
nested scheduling, zero / positive / float-absorbed delays, direct heap
pushes (as ``FlowNetwork._reallocate`` makes) and a random mix of
``step``, ``run(until=)``, ``run`` and ``run_until_complete`` must
dispatch the same callbacks in the same order at the same times.
"""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator


class HeapOnlySimulator(Simulator):
    """Reference model: every event goes through the heap."""

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback, args))

    def _pop(self):
        time, _seq, callback, args = heapq.heappop(self._heap)
        if time < self._now - 1e-12:
            raise SimulationError("event heap went backwards")
        self._now = max(self._now, time)
        return callback, args

    def step(self):
        if not self._heap:
            return False
        callback, args = self._pop()
        callback(*args)
        self._raise_failures()
        return True

    def run(self, until=None):
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                break
            callback, args = self._pop()
            callback(*args)
            self._raise_failures()
        if until is not None and not self._heap and self._now < until:
            self._now = until
        return self._now

    def run_until_complete(self, task, limit=1e9):
        while not task._done:
            if not self._heap:
                raise DeadlockError(f"task {task.name!r} is pending")
            callback, args = self._pop()
            callback(*args)
            self._raise_failures()
        return task.result


#: 1e-30 is absorbed by float rounding (``now + d == now``) from 1e-6 on
DELAYS = (0.0, 1e-30, 1e-6, 0.5)
#: a node is scheduled through ``schedule`` or pushed straight on the heap
KINDS = ("schedule", "push")

nodes_st = st.lists(
    st.tuples(st.integers(0, 10_000), st.sampled_from(KINDS),
              st.sampled_from(DELAYS)),
    max_size=40,
)
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("step"), st.just(0)),
        st.tuples(st.just("run_until"), st.sampled_from((0.0, 1e-6, 0.5))),
        st.tuples(st.just("complete"), st.integers(0, 4)),
    ),
    max_size=8,
)


def drive(sim_cls, nodes, ops):
    """Run one program; returns the dispatch log and, after each top-level
    ``step`` / ``run`` call, ``sim._seq - len(sim._heap)`` next to the log
    length."""
    sim = sim_cls()
    log = []
    counts = []
    children = {i: [] for i in range(-1, len(nodes))}
    for i, (raw, kind, delay) in enumerate(nodes):
        parent = raw % (i + 1) - 1  # -1: a root, else an earlier node
        children[parent].append((i, kind, delay))

    def enqueue(i, kind, delay):
        if kind == "schedule":
            sim.schedule(delay, fire, i)
        else:  # FlowNetwork._reallocate's direct push
            sim._seq += 1
            heapq.heappush(sim._heap, (sim.now + delay, sim._seq, fire, (i,)))

    def fire(i):
        log.append(("node", i, sim.now))
        for child in children[i]:
            enqueue(*child)

    def proc(tag, k):
        for j in range(k):
            log.append((tag, j, sim.now))
            yield DELAYS[j % len(DELAYS)] if j % 3 else None
        log.append((tag, "end", sim.now))
        # return with zero-delay work still pending
        sim.schedule(0.0, log.append, (tag, "after", sim.now))
        sim.schedule(0.0, log.append, (tag, "after2", sim.now))

    for child in children[-1]:
        enqueue(*child)
    for n, (op, arg) in enumerate(ops):
        if op == "step":
            sim.step()
        elif op == "run_until":
            sim.run(until=sim.now + arg)
        else:
            task = sim.spawn(proc(f"task{n}", arg))
            sim.run_until_complete(task)
        counts.append((sim._seq - len(sim._heap), len(log)))
    sim.run()
    counts.append((sim._seq - len(sim._heap), len(log)))
    return log, counts


@settings(max_examples=150, deadline=None)
@given(nodes=nodes_st, ops=ops_st)
@example(
    # float-absorbed delays and a zero-delay push at t=0.5 under a task
    nodes=[(0, "schedule", 0.5), (1, "schedule", 1e-30),
           (1, "push", 0.0), (2, "schedule", 0.0), (3, "push", 1e-30)],
    ops=[("complete", 2), ("step", 0), ("complete", 3)],
)
def test_ready_queue_matches_heap_only_reference(nodes, ops):
    got, counts = drive(Simulator, nodes, ops)
    want, _ = drive(HeapOnlySimulator, nodes, ops)
    assert got == want
    # no run loop is active between top-level calls: nothing sits on the
    # ready deque, so every dispatched callback is seq minus the heap
    for dispatched, logged in counts:
        assert dispatched == logged


def test_ready_entries_spill_back_when_a_loop_exits():
    sim = Simulator()

    def proc():
        yield None
        sim.schedule(0.0, lambda: None)

    task = sim.spawn(proc())
    sim.run_until_complete(task)
    # proc's zero-delay callback is still pending, now on the heap
    assert not sim._ready
    assert len(sim._heap) == 1
    assert sim.has_pending()
    sim.run()
    assert not sim.has_pending()
    assert sim._seq - len(sim._heap) == 3


def test_heap_entry_with_lower_seq_runs_before_ready_entries():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "ready")

    sim.schedule(1.0, first)
    # same time, later seq than first but earlier than the ready entry
    sim.schedule(1.0, order.append, "heap")
    sim.run()
    assert order == ["first", "heap", "ready"]


def test_exception_in_callback_leaves_ready_entries_on_the_heap():
    sim = Simulator()
    seen = []

    def boom():
        sim.schedule(0.0, seen.append, "later")
        raise RuntimeError("boom")

    sim.schedule(0.0, boom)
    try:
        sim.run()
    except RuntimeError:
        pass
    assert not sim._ready and len(sim._heap) == 1
    sim.run()
    assert seen == ["later"]
