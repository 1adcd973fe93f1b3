"""Event heap, tasks and timeouts — the heart of the simulator.

Design notes
------------

* Every scheduled callback takes the next sequence number ``seq``, and
  events run in ``(time, seq)`` order: ties break FIFO, so same-time
  events run in schedule order and runs are deterministic regardless of
  callback identity.
* Pending events live in two queues. Positive delays go on a heap of
  ``(time, seq, callback, args)`` tuples. A zero delay scheduled while a
  run loop is active goes on a FIFO *ready* deque instead, at the
  current time, skipping the heap push and pop (most events in a figure
  sweep are zero-delay wake-ups). The run loops merge the two by
  ``(time, seq)``: a heap entry at the current time with a lower
  ``seq`` still runs first. Such entries come from delays absorbed by
  float rounding (``now + d == now``), from the flow solver, which
  pushes completions straight onto ``_heap``, and from ready entries
  spilled back when a loop exits. Outside a run loop the ready deque is
  always empty, so ``_seq - len(_heap)`` counts the callbacks dispatched.
* Tasks are generators. A task may ``yield``:

  - ``float | int`` — sleep that many simulated seconds,
  - :class:`Timeout` — same, with an optional value delivered back,
  - another :class:`Task` — join it (its return value is delivered;
    its exception, if any, is re-raised inside the waiter),
  - any object with a ``_subscribe(callback)`` method — the
    synchronization primitives in :mod:`repro.sim.sync` and the I/O
    completion objects used across the stack,
  - ``None`` — cooperative re-schedule at the current time.

* A task finishing with an un-watched exception is recorded and re-raised
  by :meth:`Simulator.run` — silent failure in a corner of a simulated
  cluster would otherwise be indistinguishable from a hang.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from repro.errors import DeadlockError, SimulationError

TaskGen = Generator[Any, Any, Any]


class Timeout:
    """Awaitable delay of ``delay`` simulated seconds, delivering ``value``."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class Task:
    """A running simulated activity wrapping a generator.

    Tasks support joining (``yield task``), cancellation, and inspection
    of their result after completion.
    """

    __slots__ = (
        "sim",
        "name",
        "tid",
        "_gen",
        "_done",
        "_result",
        "_error",
        "_error_observed",
        "_waiters",
        "_cancelled",
    )

    def __init__(self, sim: "Simulator", gen: TaskGen, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "task")
        sim._next_tid += 1
        self.tid = sim._next_tid
        self._gen = gen
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._error_observed = False
        self._waiters: list[Callable[[], None]] = []
        self._cancelled = False

    # -- public inspection ------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        if not self._done:
            raise SimulationError(f"task {self.name!r} has not finished")
        if self._error is not None:
            self._error_observed = True
            raise self._error
        return self._result

    @property
    def error(self) -> Optional[BaseException]:
        self._error_observed = True
        return self._error

    def cancel(self) -> None:
        """Stop the task at its next resumption point.

        Cancellation is cooperative: an already-finished task is left
        untouched; a pending one is marked and closed when next resumed.
        """
        if not self._done:
            self._cancelled = True

    def defuse(self) -> "Task":
        """Declare that this task's error will be observed later (via
        ``result`` or a join), suppressing the fail-fast raise from
        :meth:`Simulator.run`. Use when spawning a batch of tasks that
        are joined after the fact."""
        self._error_observed = True
        return self

    # -- kernel interface --------------------------------------------------
    def _subscribe(self, callback: Callable[[], None]) -> None:
        if self._done:
            self.sim.schedule(0.0, callback)
        else:
            self._waiters.append(callback)

    def _step(self, to_send: Any = None, to_throw: BaseException | None = None) -> None:
        if self._done:
            return
        if self._cancelled:
            self._gen.close()
            self._finish(None, None)
            return
        sim = self.sim
        prev_task = sim._current_task
        sim._current_task = self
        try:
            if to_throw is not None:
                yielded = self._gen.throw(to_throw)
            else:
                yielded = self._gen.send(to_send)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberately broad
            self._finish(None, exc)
            return
        finally:
            sim._current_task = prev_task
        self._wire(yielded)

    def _wire(self, yielded: Any) -> None:
        sim = self.sim
        kind = type(yielded)
        if yielded is None:
            sim.schedule(0.0, self._step)
        elif kind is float:
            sim.schedule(yielded, self._step)
        elif kind is Timeout:
            sim.schedule(yielded.delay, self._step, yielded.value)
        elif kind is Task:
            self._join(yielded)
        elif kind is int:
            sim.schedule(float(yielded), self._step)
        elif isinstance(yielded, (int, float)):
            sim.schedule(float(yielded), self._step)
        elif isinstance(yielded, Timeout):
            sim.schedule(yielded.delay, self._step, yielded.value)
        elif isinstance(yielded, Task):
            self._join(yielded)
        elif hasattr(yielded, "_subscribe"):
            yielded._subscribe(self._step)
        else:
            self._step(
                None,
                SimulationError(
                    f"task {self.name!r} yielded unawaitable {yielded!r}"
                ),
            )

    def _join(self, target: "Task") -> None:
        def _joined() -> None:
            if target._error is not None:
                target._error_observed = True
                self._step(None, target._error)
            else:
                self._step(target._result)

        target._subscribe(_joined)

    def _finish(self, result: Any, error: BaseException | None) -> None:
        self._done = True
        self._result = result
        self._error = error
        if error is not None and not self._waiters:
            self.sim._record_failure(self)
        for callback in self._waiters:
            self.sim.schedule(0.0, callback)
        self._waiters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done else "running"
        return f"<Task {self.name} {state}>"


class Simulator:
    """Single-threaded deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        #: zero-delay events scheduled during a run loop, in seq order;
        #: all at the current time, and empty whenever no loop is active
        self._ready: Deque[tuple[float, int, Callable, tuple]] = deque()
        self._in_loop = False
        self._seq = 0
        self._failures: list[Task] = []
        self._running = False
        self._next_tid = 0
        self._current_task: Optional[Task] = None
        # Observability hooks; populated by repro.obs.install(). Kept as
        # plain attributes (not imports) so sim.core stays dependency-free
        # and tracing is strictly opt-in.
        self.tracer = None
        self.metrics = None
        self.timeline = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def has_pending(self) -> bool:
        """True while any scheduled event has yet to run."""
        return bool(self._heap or self._ready)

    def has_pending_now(self) -> bool:
        """True while an event is due at the current time."""
        heap = self._heap
        return bool(self._ready) or (bool(heap) and heap[0][0] <= self._now)

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay == 0 and self._in_loop:
            self._seq += 1
            self._ready.append((self._now, self._seq, callback, args))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback, args))

    def spawn(self, gen: TaskGen, name: str = "") -> Task:
        """Start a new task from a generator; it begins at the current time."""
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"spawn() needs a generator (got {type(gen).__name__}); "
                "did you forget to call the generator function?"
            )
        task = Task(self, gen, name)
        self.schedule(0.0, task._step)
        if self.timeline is not None:
            # Revive a parked metrics scraper (repro.obs.timeline); the
            # scraper parks whenever no event is pending so it cannot
            # mask DeadlockError, and new activity starts it ticking again.
            self.timeline.on_activity()
        return task

    # -- execution ---------------------------------------------------------
    def _enter_loop(self) -> bool:
        """Route zero-delay events to the ready deque; True if outermost."""
        outer = not self._in_loop
        self._in_loop = True
        return outer

    def _exit_loop(self, outer: bool) -> None:
        """Leaving the outermost loop: spill pending ready entries back
        onto the heap, where they keep their ``(time, seq)`` order."""
        if not outer:
            return
        self._in_loop = False
        ready = self._ready
        while ready:
            heapq.heappush(self._heap, ready.popleft())

    def step(self) -> bool:
        """Execute the next event; returns False if none is pending."""
        heap = self._heap
        ready = self._ready
        if ready and not (heap and heap[0] < ready[0]):
            _time, _seq, callback, args = ready.popleft()
        elif heap:
            time, _seq, callback, args = heapq.heappop(heap)
            if time < self._now - 1e-12:
                raise SimulationError("event heap went backwards")
            self._now = max(self._now, time)
        else:
            return False
        callback(*args)
        self._raise_failures()
        return True

    def run(self, until: float | None = None) -> float:
        """Run events until none is pending or ``until`` is reached.

        Returns the simulated time at which execution stopped.

        The dispatch loop is :meth:`step` inlined — same checks, same
        ordering — because the per-event method call is measurable on
        multi-million-event figure sweeps. A ready entry always sits at
        the current time, which ``until`` has not passed, so only heap
        entries need the ``until`` and clock checks.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        outer = self._enter_loop()
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        failures = self._failures
        try:
            while True:
                if ready and not (heap and heap[0] < ready[0]):
                    _time, _seq, callback, args = popleft()
                elif heap:
                    if until is not None and heap[0][0] > until:
                        self._now = until
                        break
                    time, _seq, callback, args = pop(heap)
                    if time < self._now - 1e-12:
                        raise SimulationError("event heap went backwards")
                    if time > self._now:
                        self._now = time
                else:
                    break
                callback(*args)
                if failures:
                    self._raise_failures()
        finally:
            self._running = False
            self._exit_loop(outer)
        if until is not None and not heap and self._now < until:
            self._now = until
        return self._now

    def run_until_complete(self, task: Task, limit: float = 1e9) -> Any:
        """Drive the simulation until ``task`` finishes and return its result.

        Dispatch is inlined as in :meth:`run`.
        """
        outer = self._enter_loop()
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        failures = self._failures
        try:
            while not task._done:
                if self._now > limit and (heap or ready):
                    raise SimulationError(f"simulation exceeded limit t={limit}")
                if ready and not (heap and heap[0] < ready[0]):
                    _time, _seq, callback, args = popleft()
                elif heap:
                    time, _seq, callback, args = pop(heap)
                    if time < self._now - 1e-12:
                        raise SimulationError("event heap went backwards")
                    if time > self._now:
                        self._now = time
                else:
                    raise DeadlockError(
                        f"no runnable events but task {task.name!r} is pending"
                    )
                callback(*args)
                if failures:
                    self._raise_failures()
        finally:
            self._exit_loop(outer)
        return task.result

    # -- failure bookkeeping -------------------------------------------------
    def _record_failure(self, task: Task) -> None:
        self._failures.append(task)

    def _raise_failures(self) -> None:
        while self._failures:
            task = self._failures.pop()
            if not task._error_observed and task._error is not None:
                task._error_observed = True
                raise SimulationError(
                    f"unhandled error in task {task.name!r}"
                ) from task._error


def now(sim: Simulator) -> float:
    """Free-function accessor for symmetry with module-level helpers."""
    return sim.now
