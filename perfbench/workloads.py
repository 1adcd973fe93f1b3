"""The three canonical simulations the benchmark times.

Each workload is one closed batch run to completion on freshly built
clusters: there is no arrival rate, so a sample is a whole run.  A
workload function takes the seed, a scale (``full`` for the benchmark,
``small`` for the self-tests) and a :class:`Phases` stopwatch, and
returns a :class:`Sample` with the host timings, the simulated payload
moved, the client ops attempted and failed, and the simulated outputs
that must repeat exactly for a given seed.

Set-up (cluster build plus storage prepare) is timed by wrapping the
public entry points that do it, so each workload still runs through the
same call the figures, the CLIs and the tests use (``run_ior``,
``run_fdb``) and simulates exactly the same event stream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.cluster
import repro.fdb.run
from repro.cluster import nextgenio
from repro.fdb import FdbParams, run_fdb
from repro.ior import IorParams, run_ior
from repro.ior.env import DaosIorEnv

SETUP = "setup"
WORK = "work"


class Phases:
    """Splits one sample's host time into set-up and work.

    ``switch`` closes the current interval and opens the next, so the
    two totals add up to the time between the first ``switch`` and
    :meth:`end`.  In a traced sample the layer clock runs exactly during
    work intervals, on the same timer readings, so attributed
    self-times add up to the work total.
    """

    def __init__(self, timer: Callable[[], float], clock=None):
        self.totals = {SETUP: 0.0, WORK: 0.0}
        self._timer = timer
        self._clock = clock
        self._phase: Optional[str] = None
        self._mark = 0.0

    def switch(self, phase: Optional[str]) -> None:
        """Close the running interval and open ``phase`` (None: stop)."""
        now = self._timer()
        if self._phase is not None:
            self.totals[self._phase] += now - self._mark
            if self._clock is not None and self._phase == WORK:
                self._clock.stop(now)
        self._phase = phase
        self._mark = now
        if self._clock is not None and phase == WORK:
            self._clock.start(now)

    def end(self) -> None:
        self.switch(None)

    @contextmanager
    def setup(self):
        """Count the enclosed block as set-up, then resume the old phase."""
        previous = self._phase
        self.switch(SETUP)
        try:
            yield
        finally:
            self.switch(previous)

    def timed_setup(self, gen):
        """Task helper: run generator ``gen`` counted as set-up."""
        previous = self._phase
        self.switch(SETUP)
        try:
            return (yield from gen)
        finally:
            self.switch(previous)


@dataclass
class Sample:
    """What one run of a workload produced."""

    sim_bytes: int
    attempted: int
    failed: int
    #: simulated results: bandwidths, final sim time, events dispatched
    outputs: Dict[str, float]
    #: events dispatched, summed over the sample's simulators
    events: int
    clusters: List[object] = field(default_factory=list)
    #: per-layer program counters read off the finished run
    counts: Dict[str, float] = field(default_factory=dict)


def events_dispatched(sim) -> int:
    """Events the simulator has popped: every schedule takes one
    sequence number and leaves one heap entry until it is dispatched."""
    return sim._seq - len(sim._heap)


# -- IOR workloads ------------------------------------------------------------

_IOR_SCALES = {
    # scale: (fig1 nodes, fig2 nodes, ppn, block size)
    "full": (16, 4, 16, "16m"),
    "small": (2, 1, 4, "2m"),
}


def _ior_point(seed: int, nodes: int, ppn: int, params: IorParams,
               phases: Phases):
    """One IOR invocation on a fresh cluster; returns (result, cluster).

    ``run_ior`` prepares the environment itself; its ``prepare`` task is
    wrapped so that pool connect, container create and test-dir mkdir
    count as set-up while the simulated event stream stays the one a
    plain ``run_ior`` produces.
    """
    with phases.setup():
        cluster = nextgenio(client_nodes=nodes, seed=seed)
    env = DaosIorEnv(cluster, params)
    prepare = env.prepare
    env.prepare = lambda: phases.timed_setup(prepare())
    result = run_ior(cluster, params, ppn=ppn, env=env)
    return result, cluster


def _ior_sample(seed: int, points, phases: Phases) -> Sample:
    """Run each ``(label, nodes, ppn, params)`` point in turn."""
    outputs: Dict[str, float] = {}
    clusters = []
    sim_bytes = attempted = failed = events = 0
    for label, nodes, ppn, params in points:
        result, cluster = _ior_point(seed, nodes, ppn, params, phases)
        clusters.append(cluster)
        nprocs = nodes * ppn
        per_phase = nprocs * params.segments * params.transfers_per_block
        for phase in result.phases:
            sim_bytes += phase.nbytes
            attempted += per_phase
            failed += phase.verify_errors
        outputs[f"{label}.write_bw"] = result.max_write_bw
        outputs[f"{label}.read_bw"] = result.max_read_bw
        outputs[f"{label}.sim_now"] = cluster.sim.now
        outputs[f"{label}.sim_events"] = events_dispatched(cluster.sim)
        events += outputs[f"{label}.sim_events"]
    return Sample(sim_bytes, attempted, failed, outputs, events, clusters)


def fig1_dfs_fpp(seed: int, scale: str, phases: Phases) -> Sample:
    """Fig. 1 headline point: DFS file-per-process, SX, verify on."""
    nodes, _, ppn, block = _IOR_SCALES[scale]
    params = IorParams(api="DFS", file_per_proc=True, oclass="SX",
                       block_size=block, transfer_size="1m", verify=True)
    return _ior_sample(seed, [("dfs", nodes, ppn, params)], phases)


#: the Fig. 2 interfaces, each on its own fresh cluster: (label, api,
#: collective)
FIG2_INTERFACES = (
    ("mpiio", "MPIIO", True),
    ("hdf5", "HDF5", False),
    ("hdf5_daos", "HDF5-DAOS", False),
)


def fig2_shared_iface(seed: int, scale: str, phases: Phases) -> Sample:
    """Fig. 2 shared-file point once per interface, verify on."""
    _, nodes, ppn, block = _IOR_SCALES[scale]
    points = [
        (label, nodes, ppn,
         IorParams(api=api, file_per_proc=False, collective=collective,
                   oclass="SX", block_size=block, transfer_size="1m",
                   verify=True))
        for label, api, collective in FIG2_INTERFACES
    ]
    return _ior_sample(seed, points, phases)


# -- FDB workload -------------------------------------------------------------

_FDB_SCALES = {
    # scale: grid (params, levels, steps, members, dates)
    "full": (10, 5, 10, 4, 10),
    "small": (10, 2, 2, 1, 2),
}


@contextmanager
def _patched(module, name: str, wrap: Callable):
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def fdb_kv_archive_retrieve(seed: int, scale: str, phases: Phases) -> Sample:
    """KV-backed field store: archive the grid, flush, then retrieve
    the scattered ``t2m`` fields with the timeline scraper running."""
    n_params, n_levels, n_steps, n_members, n_dates = _FDB_SCALES[scale]
    params = FdbParams(
        backend="kv", n_params=n_params, n_levels=n_levels, n_steps=n_steps,
        n_members=n_members, n_dates=n_dates, field_bytes=4096, depth=8,
        retrieve_params=("t2m",), timeline_interval=0.05, seed=seed,
    )

    # run_fdb builds its cluster with repro.cluster.build_cluster and
    # prepares storage with repro.fdb.run.setup_context; both count as
    # set-up.
    def time_build(build):
        def timed(*args, **kwargs):
            with phases.setup():
                return build(*args, **kwargs)
        return timed

    def time_context(setup_context):
        return lambda *args: phases.timed_setup(setup_context(*args))

    with _patched(repro.cluster, "build_cluster", time_build), \
            _patched(repro.fdb.run, "setup_context", time_context):
        result, cluster = run_fdb(params)

    n_fields = result["n_fields"]
    expected_reads = n_fields // n_params  # one param's share of the grid
    archive, retrieve = result["archive"], result["retrieve"]
    attempted = n_fields + expected_reads
    done = archive["fields"] + retrieve["fields"]
    outputs = {
        "archive.bw": archive["bytes"] / archive["wall"],
        "retrieve.bw": retrieve["bytes"] / retrieve["wall"],
        "archive.fields": archive["fields"],
        "retrieve.fields": retrieve["fields"],
        "sim_now": cluster.sim.now,
        "sim_events": events_dispatched(cluster.sim),
    }
    return Sample(
        sim_bytes=archive["bytes"] + retrieve["bytes"],
        attempted=attempted,
        failed=attempted - done,
        outputs=outputs,
        events=outputs["sim_events"],
        clusters=[cluster],
        counts={
            "fdb.fields_archived": archive["fields"],
            "fdb.fields_retrieved": retrieve["fields"],
        },
    )


WORKLOADS = {
    "fig1_dfs_fpp": fig1_dfs_fpp,
    "fig2_shared_iface": fig2_shared_iface,
    "fdb_kv_archive_retrieve": fdb_kv_archive_retrieve,
}
