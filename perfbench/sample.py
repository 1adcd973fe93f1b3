"""One benchmark sample: a whole workload run in a fresh process.

Run by ``run.py``, one process per sample, so that imports, peak RSS and
the traced run's class patches belong to that sample alone::

    PYTHONPATH=src python3 perfbench/sample.py --workload fig1_dfs_fpp \\
        --seed 1 [--scale small] [--trace]

Prints one JSON object: host timings, the simulated payload moved, the
client ops attempted and failed, the simulated outputs, the median
calibrator round (timed before, during and after the workload) and, with
``--trace``, per-layer self-times and counts.  A workload that raises
is reported with its traceback, and the process still exits 0 so the
caller can count its ops as failed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

#: calibrator round: about 2 ms of pure-Python work
CALIBRATION_ITEMS = 2_000
#: calibrator rounds timed before and again after the workload
CALIBRATION_ROUNDS = 10
#: seconds between calibrator rounds while the workload runs
CALIBRATION_PERIOD_S = 0.1


def calibrate_round() -> float:
    """Seconds for one fixed pure-Python heap + generator loop, the
    simulator's own mix of work."""

    def keys(n):
        x = 12345
        for i in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            yield (x, i)

    start = time.perf_counter()
    heap: list = []
    for item in keys(CALIBRATION_ITEMS):
        heapq.heappush(heap, item)
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    if total != CALIBRATION_ITEMS * (CALIBRATION_ITEMS - 1) // 2:
        raise RuntimeError("calibrator lost heap items")
    return time.perf_counter() - start


class Calibrator:
    """Samples the machine's speed while the workload runs.

    This machine's speed shifts within seconds, so rounds timed only
    before and after a sample miss what the sample saw.  While active,
    a SIGALRM handler times one round every ``CALIBRATION_PERIOD_S``;
    the handler touches no simulation state, and its time is cut out of
    ``timer``, so the workload's timings exclude it.
    """

    def __init__(self, timer) -> None:
        self.rounds = [calibrate_round() for _ in range(CALIBRATION_ROUNDS)]
        self._timer = timer

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.rounds.append(calibrate_round())
        self._timer.excluded += time.perf_counter() - start

    def __enter__(self) -> "Calibrator":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                         CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.rounds += [calibrate_round() for _ in range(CALIBRATION_ROUNDS)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_counts(sample, clock) -> dict:
    """Per-layer counters: call counts from the traced entry points plus
    the program's own counters read off the finished clusters."""
    counts = dict(clock.counts)
    counts.update(sample.counts)
    nets = [c.fabric.flownet for c in sample.clusters]
    counts["network.solver_s"] = sum(n.solver_seconds for n in nets)
    counts["network.reallocations"] = sum(n.reallocations for n in nets)
    counts["network.solved_flows"] = sum(n.solved_flows for n in nets)
    counts["consensus.log_entries_max"] = max(
        len(node.log) for c in sample.clusters for node in c.daos.svc.nodes
    )
    counts["obs.timeline_ticks"] = sum(
        c.sim.timeline.store.n_windows
        for c in sample.clusters if c.sim.timeline is not None
    )
    return counts


def run_sample(workload: str, seed: int, scale: str, trace: bool) -> dict:
    # imported here so that set-up time includes the imports
    import layers
    import workloads
    from repro import __file__ as repro_init

    import_s = time.perf_counter() - T0
    timer = layers.HostTimer()
    clock = None
    if trace:
        clock = layers.LayerClock(timer)
        layers.install(clock, os.path.dirname(repro_init))
    phases = workloads.Phases(timer, clock)
    record = {"workload": workload, "seed": seed, "scale": scale,
              "traced": trace}
    with Calibrator(timer) as calibrator:
        phases.switch(workloads.WORK)
        try:
            sample = workloads.WORKLOADS[workload](seed, scale, phases)
        except Exception:  # boundary: a failed sample is reported
            record["error"] = traceback.format_exc()
            return record
        finally:
            phases.end()
    record.update(
        calib_s=statistics.median(calibrator.rounds),
        calib_rounds=len(calibrator.rounds),
        setup_s=import_s + phases.totals[workloads.SETUP],
        wall_s=phases.totals[workloads.WORK],
        sim_bytes=sample.sim_bytes,
        attempted=sample.attempted,
        failed=sample.failed,
        outputs=sample.outputs,
        sim_events=sample.events,
        peak_rss_mb=peak_rss_mb(),
    )
    if clock is not None:
        record["self_s"] = clock.self_s
        record["counts"] = layer_counts(sample, clock)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = run_sample(args.workload, args.seed, args.scale, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
