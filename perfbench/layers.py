"""Per-layer host self-time and counts for a traced sample.

The layers are the ``repro`` packages.  Host time runs on one thread, so
a layer is never waiting on another: each layer's cost is its busy
self-time.  Attribution is done from outside the program, by wrapping
entry points at class level:

* every event callback the simulator dispatches is charged to the
  package that owns the code it resumes; for a task step that is the
  innermost ``repro`` generator of the task's ``yield from`` chain;
* the synchronous cross-layer calls (``FlowNetwork.open/close/
  set_link_capacity``, ``Flow.set_cap``, ``Fabric.transmit``,
  ``RaftNode.propose``) and the simulator's own scheduling machinery
  open a nested span, so the caller's self-time excludes them;
* the public entry points of the I/O stack (IOR backends, DFS, DFuse,
  MPI-IO, HDF5, MPI collectives, DAOS objects and event queues), of the
  FDB and of the metrics registry open a span too; for a generator
  function each resumption of the generator it returns is a span, so
  a layer's generator code is charged to it even when a task step was
  dispatched to a deeper generator.  The same wrappers count calls;
* code outside ``repro`` (the standard library, numpy) has no span of
  its own, so its time goes to its caller.

Time the clock runs with no layer open is ``unattributed``.

:func:`install` patches classes for the life of the process, which is
why each traced sample runs in a process of its own.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter
from typing import Callable, Dict, Optional

UNATTRIBUTED = "unattributed"

#: layers in report order; every other repro package (cluster,
#: hardware, posix, cache, units, ...) is folded into ``other``
LAYERS = ("sim", "network", "consensus", "daos", "mpi", "mpiio", "hdf5",
          "dfuse", "dfs", "ior", "fdb", "obs", "other")

#: consensus commands that only read the replicated state
READ_COMMANDS = ("get", "list")


class HostTimer:
    """``time.perf_counter`` with excluded stretches cut out.

    A signal handler that must not count toward any measurement adds its
    duration to :attr:`excluded`; everything timed through this timer
    then agrees on the cut, wherever the handler interrupted it.
    """

    def __init__(self) -> None:
        self.excluded = 0.0

    def __call__(self) -> float:
        return time.perf_counter() - self.excluded


class LayerClock:
    """A stack of open layers; elapsed time accrues to the top one.

    The clock only accrues between :meth:`start` and :meth:`stop`, so
    the self-times sum to the total running time.
    """

    def __init__(self, timer: HostTimer) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(
            LAYERS + (UNATTRIBUTED,), 0.0
        )
        self.counts: Counter = Counter()
        self._timer = timer
        self._stack = [UNATTRIBUTED]
        self._mark = 0.0
        self._running = False

    def start(self, now: float) -> None:
        self._mark = now
        self._running = True

    def stop(self, now: float) -> None:
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self._running = False

    def push(self, layer: str) -> None:
        now = time.perf_counter() - self._timer.excluded
        if self._running:
            self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self._stack.append(layer)

    def pop(self) -> None:
        now = time.perf_counter() - self._timer.excluded
        if self._running:
            self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self._stack.pop()


class Owners:
    """Maps code to the repro package (layer) that owns it."""

    def __init__(self, repro_dir: str) -> None:
        self._prefix = os.path.join(repro_dir, "")
        self._by_file: Dict[str, Optional[str]] = {}

    def of_file(self, filename: str) -> Optional[str]:
        try:
            return self._by_file[filename]
        except KeyError:
            pass
        layer = None
        if filename.startswith(self._prefix):
            top = filename[len(self._prefix):].split(os.sep)[0]
            top = top[:-3] if top.endswith(".py") else top
            layer = top if top in LAYERS else "other"
        self._by_file[filename] = layer
        return layer

    def of_generator(self, gen) -> Optional[str]:
        """Owner of the innermost repro generator of a yield-from chain."""
        layer = None
        while gen is not None:
            code = getattr(gen, "gi_code", None)
            if code is None:
                break
            own = self.of_file(code.co_filename)
            if own is not None:
                layer = own
            gen = gen.gi_yieldfrom
        return layer


def install(clock: LayerClock, repro_dir: str) -> None:
    """Wrap the simulator, the cross-layer calls and the per-layer entry
    points so that ``clock`` attributes time and counts calls."""
    from repro.consensus.raft import RaftNode
    from repro.daos.eq import EventQueue
    from repro.daos.object import ObjectHandle
    from repro.dfs.file import DfsFile
    from repro.dfuse.fuse import DFuseFile
    from repro.errors import DaosError
    from repro.fdb import Archiver, Retriever
    from repro.hdf5.dataset import Dataset
    from repro.ior.backends import available_apis, backend_class
    from repro.mpi.comm import Comm
    from repro.mpiio.file import MpiFile
    from repro.network.fabric import Fabric
    from repro.network.flows import Flow, FlowNetwork
    from repro.obs.metrics import Counter as MetricCounter
    from repro.obs.metrics import Gauge, Histogram, MetricsRegistry, Reservoir
    from repro.sim.core import Simulator, Task

    owners = Owners(repro_dir)
    push, pop, counts = clock.push, clock.pop, clock.counts
    task_step = Task._step
    core_file = Task._step.__code__.co_filename
    task_cell: Dict[object, int] = {}  # closure code -> index of its task

    def task_of_closure(fn) -> Optional[Task]:
        """The task a wake-up closure from ``Task._wire`` resumes."""
        code = fn.__code__
        index = task_cell.get(code)
        if index is None:
            index = -1
            if code.co_filename == core_file and "self" in code.co_freevars:
                index = code.co_freevars.index("self")
            task_cell[code] = index
        if index < 0:
            return None
        task = fn.__closure__[index].cell_contents
        return task if isinstance(task, Task) else None

    def owner_of(callback) -> Optional[str]:
        func = getattr(callback, "__func__", None)
        if func is not None:  # bound method
            if func is task_step:
                return owners.of_generator(callback.__self__._gen)
            code = getattr(func, "__code__", None)
        else:
            code = getattr(callback, "__code__", None)
            if code is not None:
                task = task_of_closure(callback)
                if task is not None:
                    return owners.of_generator(task._gen)
        return owners.of_file(code.co_filename) if code is not None else None

    def dispatch(callback, args):
        layer = owner_of(callback)
        if layer is None:  # not repro code: its time goes to the caller
            return callback(*args)
        push(layer)
        try:
            return callback(*args)
        finally:
            pop()

    def timed(layer: str, fn: Callable, counter: str = "") -> Callable:
        """Wrap a plain function: its call is a span of ``layer``."""
        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def resume_in(layer: str, gen):
        """Drive ``gen``, making each of its resumptions a span of
        ``layer``; yields, sends, throws and the return value pass
        through unchanged, so the simulation is the same."""
        value = error = None
        while True:
            push(layer)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                pop()
            value = error = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - thrown into gen
                error = exc

    def spanned(layer: str, fn: Callable, counter: str = "") -> Callable:
        """Wrap an entry point of ``layer``; a generator function's
        resumptions become spans, as a plain function's call does."""
        if not inspect.isgeneratorfunction(fn):
            return timed(layer, fn, counter)

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            gen = fn(*args, **kwargs)
            spans = resume_in(layer, gen)
            spans.__name__ = gen.__name__  # task names derive from it
            return spans
        wrapper.__wrapped__ = fn
        return wrapper

    # -- simulator: dispatch attribution + its own machinery ------------
    schedule = Simulator.schedule

    def traced_schedule(self, delay, callback, *args):
        if delay == 0:
            counts["sim.events_zero_delay"] += 1
        push("sim")
        try:
            schedule(self, delay, dispatch, callback, args)
        finally:
            pop()

    Simulator.schedule = traced_schedule
    Simulator.spawn = timed("sim", Simulator.spawn, "sim.tasks_spawned")
    for name in ("run", "run_until_complete"):
        setattr(Simulator, name, timed("sim", getattr(Simulator, name)))
    for name in ("_wire", "_finish"):
        setattr(Task, name, timed("sim", getattr(Task, name)))

    # -- network: flow solver entry points, message delivery ------------
    for name in ("open", "close", "set_link_capacity"):
        setattr(FlowNetwork, name,
                timed("network", getattr(FlowNetwork, name)))
    # flow completions are pushed onto the event heap directly by the
    # solver, so they are dispatched without passing through schedule
    FlowNetwork._complete = timed("network", FlowNetwork._complete)
    Flow.set_cap = timed("network", Flow.set_cap)
    Fabric.transmit = timed("network", Fabric.transmit, "network.messages")

    # -- consensus ----------------------------------------------------------
    propose = RaftNode.propose

    def traced_propose(self, command):
        counts["consensus.proposals"] += 1
        if isinstance(command, tuple) and command and \
                command[0] in READ_COMMANDS:
            counts["consensus.read_proposals"] += 1
        push("consensus")
        try:
            return propose(self, command)
        finally:
            pop()

    RaftNode.propose = traced_propose

    # -- entry points of the I/O stack, the FDB and observability ---------
    entry_points = (
        ("daos", "daos.object_ios", ObjectHandle, (
            "write", "read", "put", "get", "punch", "punch_dkey",
            "list_dkeys", "punch_object", "size", "punch_range")),
        ("daos", "daos.eq_events", EventQueue, ("launch",)),
        ("mpi", "mpi.collectives", Comm, (
            "barrier", "bcast", "gather", "allgather", "scatter", "reduce",
            "allreduce", "alltoallv")),
        ("mpiio", "mpiio.ops", MpiFile, (
            "read_at", "write_at", "read_at_all", "write_at_all")),
        ("hdf5", "hdf5.ops", Dataset, ("read", "write")),
        ("dfuse", "dfuse.ops", DFuseFile, ("pread", "pwrite")),
        ("dfs", "dfs.ops", DfsFile, ("read", "write")),
        ("fdb", "", Archiver, ("setup", "archive", "flush", "close")),
        ("fdb", "", Retriever, ("retrieve",)),
        ("obs", "", MetricsRegistry, (
            "counter", "gauge", "histogram", "reservoir", "incr", "observe",
            "set_gauge")),
        ("obs", "", MetricCounter, ("incr",)),
        ("obs", "", Gauge, ("set", "add")),
        ("obs", "", Histogram, ("observe",)),
        ("obs", "", Reservoir, ("add",)),
    )
    for layer, counter, cls, names in entry_points:
        for name in names:
            setattr(cls, name, spanned(layer, getattr(cls, name), counter))
    # each backend class wraps only the methods it defines itself, so an
    # inherited write is not counted twice (the async *_nb variants call
    # write/read)
    for cls in {backend_class(api) for api in available_apis()}:
        for name in ("write", "read"):
            if name in vars(cls):
                setattr(cls, name,
                        spanned("ior", vars(cls)[name], "ior.transfers"))
    init = DaosError.__init__

    def counted_init(self, *args, **kwargs):
        counts["daos.errors"] += 1
        init(self, *args, **kwargs)

    DaosError.__init__ = counted_init
