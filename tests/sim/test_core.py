"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator, Timeout


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_callbacks_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append(("b", sim.now)))
    sim.schedule(1.0, lambda: seen.append(("a", sim.now)))
    sim.schedule(3.0, lambda: seen.append(("c", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_same_time_events_run_fifo():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_task_yield_float_sleeps():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield 1.5
        times.append(sim.now)
        yield 0.5
        times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [0.0, 1.5, 2.0]


def test_task_yield_timeout_delivers_value():
    sim = Simulator()

    def proc():
        got = yield Timeout(1.0, "payload")
        return got

    task = sim.spawn(proc())
    sim.run()
    assert task.result == "payload"


def test_task_return_value():
    sim = Simulator()

    def proc():
        yield 1.0
        return 42

    task = sim.spawn(proc())
    sim.run()
    assert task.done and task.result == 42


def test_join_task_receives_result():
    sim = Simulator()

    def child():
        yield 2.0
        return "done"

    def parent():
        result = yield sim.spawn(child())
        return (result, sim.now)

    task = sim.spawn(parent())
    sim.run()
    assert task.result == ("done", 2.0)


def test_join_already_finished_task():
    sim = Simulator()

    def child():
        yield 1.0
        return 7

    child_task = sim.spawn(child())

    def parent():
        yield 5.0
        value = yield child_task
        return value

    parent_task = sim.spawn(parent())
    sim.run()
    assert parent_task.result == 7


def test_child_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield 1.0
        raise ValueError("boom")

    def parent():
        try:
            yield sim.spawn(child())
        except ValueError as exc:
            return f"caught {exc}"

    task = sim.spawn(parent())
    sim.run()
    assert task.result == "caught boom"


def test_unobserved_exception_raises_from_run():
    sim = Simulator()

    def bad():
        yield 1.0
        raise RuntimeError("lost")

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_observed_error_does_not_reraise():
    sim = Simulator()

    def bad():
        yield 1.0
        raise RuntimeError("x")

    task = sim.spawn(bad())
    # Joining counts as observing.
    def watcher():
        try:
            yield task
        except RuntimeError:
            return "ok"

    watch = sim.spawn(watcher())
    sim.run()
    assert watch.result == "ok"


def test_yield_none_reschedules_same_time():
    sim = Simulator()
    order = []

    def first():
        order.append("first-before")
        yield None
        order.append("first-after")

    def second():
        order.append("second")
        yield 0.0

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert order.index("second") < order.index("first-after")
    assert sim.now == 0.0


def test_yield_garbage_is_an_error():
    sim = Simulator()

    def proc():
        yield object()

    task = sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()
    assert task.done


def test_cancel_pending_task():
    sim = Simulator()
    progressed = []

    def proc():
        yield 10.0
        progressed.append(True)

    task = sim.spawn(proc())
    sim.schedule(1.0, task.cancel)
    sim.run()
    assert task.done and not progressed


def test_run_until_limit_stops_early():
    sim = Simulator()

    def ticker():
        while True:
            yield 1.0

    sim.spawn(ticker())
    stopped = sim.run(until=10.5)
    assert stopped == 10.5
    assert sim.now == 10.5


def test_run_until_complete_returns_result():
    sim = Simulator()

    def proc():
        yield 3.0
        return "fin"

    task = sim.spawn(proc())
    assert sim.run_until_complete(task) == "fin"


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    from repro.sim import Gate

    gate = Gate(sim)

    def waiter():
        yield gate

    task = sim.spawn(waiter())
    with pytest.raises(DeadlockError):
        sim.run_until_complete(task)


def test_spawn_requires_generator():
    sim = Simulator()

    def not_a_gen():
        return 1

    with pytest.raises(SimulationError):
        sim.spawn(not_a_gen)  # type: ignore[arg-type]


def test_nested_spawns_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(name, period):
        for _ in range(3):
            yield period
            log.append((name, sim.now))

    sim.spawn(worker("a", 1.0))
    sim.spawn(worker("b", 1.5))
    sim.run()
    assert log == [
        ("a", 1.0),
        ("b", 1.5),
        ("a", 2.0),
        ("b", 3.0),
        ("a", 3.0),
        ("b", 4.5),
    ]


# ------------------------------------------------- Task._wire yield kinds
# ``_wire`` dispatches on exact types (None, float, int, Timeout, Task)
# first; anything else takes the isinstance / ``_subscribe`` fallback.


def _resume_times(*yields):
    sim = Simulator()
    times = []

    def proc():
        for item in yields:
            got = yield item
            times.append((sim.now, got))

    task = sim.spawn(proc())
    sim.run()
    assert task.done and task.error is None
    return times


def test_yield_bool_sleeps_like_an_int():
    assert _resume_times(True, False) == [(1.0, None), (1.0, None)]


def test_yield_numpy_float_sleeps():
    np = pytest.importorskip("numpy")
    times = _resume_times(np.float64(1e-6), 2)
    assert times == [(1e-6, None), (1e-6 + 2.0, None)]
    assert all(type(t) is float for t, _ in times)


def test_yield_timeout_subclass_delivers_value():
    class Backoff(Timeout):
        __slots__ = ()

    assert _resume_times(Backoff(0.5, "v"), Timeout(0.25)) == [
        (0.5, "v"), (0.75, None)
    ]


def test_yield_custom_subscribe_object():
    class Later:
        """An awaitable that calls back once, 3 s on, with a value."""

        def __init__(self, sim):
            self.sim = sim

        def _subscribe(self, callback):
            self.sim.schedule(3.0, callback, "woken")

    sim = Simulator()
    got = []

    def proc():
        got.append((yield Later(sim)))
        got.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert got == ["woken", 3.0]


def test_yield_unawaitable_error_text():
    sim = Simulator()

    def proc():
        try:
            yield "soon"
        except SimulationError as exc:
            return str(exc)

    task = sim.spawn(proc(), "picky")
    sim.run()
    assert task.result == "task 'picky' yielded unawaitable 'soon'"
