"""Finished tasks are freed by reference counting alone.

A figure sweep finishes hundreds of thousands of tasks. If a finished
task's generator survived its last reference (held by a waiter, a
wake-up closure, or a reference cycle), it would wait for the cyclic
collector and add to every full collection. With the collector off, a
weakref to the generator of a finished task must die as soon as the
test drops its own references, whatever the task waited on.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.sim import Gate, Queue, Semaphore, Simulator, Timeout


@contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _sleep(sim):
    yield 1.0


def _timeout(sim):
    got = yield Timeout(1.0, "value")
    assert got == "value"


def _join(sim):
    def child():
        yield 0.5
        return 7

    got = yield sim.spawn(child())
    assert got == 7


def _gate(sim):
    gate = Gate(sim)
    sim.schedule(1.0, gate.open, "open")
    got = yield gate
    assert got == "open"


def _queue(sim):
    queue = Queue(sim)
    sim.schedule(1.0, queue.put, "item")
    got = yield queue.get()
    assert got == "item"


def _semaphore(sim):
    sem = Semaphore(sim, 0)
    sim.schedule(1.0, sem.release)
    yield sem.acquire()


@pytest.mark.parametrize(
    "body", [_sleep, _timeout, _join, _gate, _queue, _semaphore],
    ids=["sleep", "timeout", "join", "gate", "queue", "semaphore"],
)
def test_finished_task_generator_freed_without_gc(body):
    with collector_off():
        sim = Simulator()
        gen = body(sim)
        ref = weakref.ref(gen)
        task = sim.spawn(gen)
        sim.run()
        assert task.done and task.error is None
        del task, gen
        assert ref() is None


def test_finished_task_generator_freed_when_primitive_outlives_it():
    with collector_off():
        sim = Simulator()
        gate = Gate(sim)

        def waiter():
            yield gate

        gen = waiter()
        ref = weakref.ref(gen)
        sim.spawn(gen)
        del gen
        sim.schedule(1.0, gate.open)
        sim.run()
        assert ref() is None  # the gate kept no wake-up callback
