"""Max-min fair fluid-flow bandwidth allocation.

Model
-----

- A :class:`Link` has a capacity in bytes/s (a NIC direction, a storage
  target's read or write media channel, an optional switch backplane).
- A :class:`Flow` traverses a set of links, each with a *consumption
  weight*: a flow running at rate ``r`` consumes ``r * w`` bytes/s of the
  capacity of each link ``l`` with weight ``w``. A stream striped evenly
  over ``k`` targets has weight ``1/k`` on each target link and weight
  ``1`` on its client NIC.
- A flow may carry an intrinsic *rate cap* modelling serial per-operation
  overhead (a stream issuing ``x``-byte ops with ``o`` seconds of fixed
  cost per op can never exceed ``x / o`` even on an idle network — the
  cap used by the stack is ``x / (x/r_link + o)`` folded in by callers).

Allocation is *equal-rate progressive filling*: all unfixed flows grow at
the same rate; when a link saturates, the flows crossing it are fixed;
when a flow reaches its cap, it is fixed; repeat. This is the classic
max-min fair allocation with heterogeneous consumption coefficients.

Solver engine
-------------

Reallocation is structured as register -> compute -> allocate (the psim
``BandwidthAllocator`` idiom): mutations (open/close/``set_cap``/
``set_link_capacity``) *register* dirty links and flows with the active
solver; :meth:`FlowNetwork._reallocate` asks the solver to *plan* the
set of flows whose rates may change, lets it *compute* new rates, then
*allocates* — syncing and rescheduling only the affected transfers and
sampling utilization gauges only for the affected links.

Inside a run loop, compute and allocate happen once per simulated
instant, not once per mutation. The first mutation of an instant queues
one zero-delay flush, which re-queues itself while other work is due at
that instant and then solves everything registered since. Anything that
can observe a rate solves pending mutations first:

- :attr:`Flow.rate` and :meth:`Link.utilization`;
- starting a transfer (its completion time needs the rate);
- a completion event, before its generation check, so a completion
  coinciding with a mutation is superseded as if solved at once;
- closing a flow with transfers in flight (they finish at the rate the
  flow had when closed).

No simulated time passes between mutations at one instant, so
intermediate rates move no bytes, and the one coalesced solve sees the
state the last per-mutation solve would have: the same rates bit for
bit under the reference solver or within one component (several dirty
components filled together may differ in the last ulp, as the two
solvers already do). A transfer whose completion is due at the current
instant counts as finished when re-solved, so its completion time cannot
hang on rounding noise in its residual bytes. Outside a run loop (direct
API use, ``Simulator.step`` driving) every mutation still solves at once.

Two solvers implement the compute phase:

- :class:`ReferenceSolver` — the original pure-Python progressive
  filling over *all* flows and links.  It is the oracle for the
  differential test harness (``tests/network/test_solver_equivalence``)
  and the byte-stability anchor for the pinned seed figures.
- :class:`IncrementalSolver` (default) — tracks dirty links so a change
  re-solves only the connected component of flows touching changed
  links (flows in untouched components keep their rates *and* their
  scheduled completion events), and runs progressive filling as numpy
  vector operations over a flow x link incidence matrix.  The float
  semantics mirror the reference solver operation-for-operation (fold
  order of denominators, strict-< bottleneck tie-breaks, per-flow
  denominator decrements with intermediate clamping), so on workloads
  whose flow graph stays a single component — every IOR figure point —
  the two solvers agree byte-for-byte, not just within tolerance.

Select with ``REPRO_FLOW_SOLVER=reference|incremental`` (or the
``solver=`` argument) to bisect determinism suspects.

Reallocation happens only when the flow population changes (open/close/
cap change), at most once per instant, so steady phases — exactly what
bulk-I/O benchmarks produce — cost almost nothing. In-flight
:class:`Transfer` objects integrate their remaining bytes across rate
changes, so completion times are exact under the fluid model.
"""

from __future__ import annotations

import heapq
import logging
import math
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetworkError
from repro.sim.core import Simulator
from repro.sim.sync import Gate

_EPS = 1e-9

#: rate assigned to flows with no binding constraint (no links, no cap):
#: effectively instantaneous in the fluid model.
_UNBOUNDED_RATE = 1e18

SOLVER_ENV = "REPRO_FLOW_SOLVER"

_LOG = logging.getLogger(__name__)


class Link:
    """A capacity-constrained resource (bytes/s)."""

    __slots__ = ("name", "capacity", "network", "_flows")

    def __init__(self, name: str, capacity: float, network: "FlowNetwork"):
        if capacity <= 0:
            raise NetworkError(f"link {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)
        self.network = network
        self._flows: Dict["Flow", float] = {}

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    def utilization(self) -> float:
        """Fraction of capacity consumed by current allocations."""
        if self.network._dirty:
            self.network._reallocate()
        used = sum(flow._rate * weight for flow, weight in self._flows.items())
        return used / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.capacity:.3g}B/s x{len(self._flows)}>"


class Flow:
    """An active flow; ``rate`` is kept current by the network."""

    __slots__ = ("network", "links", "cap", "_rate", "_transfers", "label",
                 "_serial")

    def __init__(
        self,
        network: "FlowNetwork",
        links: List[Tuple[Link, float]],
        cap: Optional[float],
        label: str = "",
    ):
        self.network = network
        self.links = links
        self.cap = cap
        self._rate = 0.0  # written by the solvers
        self._transfers: List["Transfer"] = []
        self.label = label
        self._serial = 0  # assigned by FlowNetwork.open; orders solves

    @property
    def rate(self) -> float:
        """Current max-min fair rate (bytes/s); settles pending mutations."""
        if self.network._dirty:
            self.network._reallocate()
        return self._rate

    def transfer(self, nbytes: float) -> "Transfer":
        """Start moving ``nbytes`` on this flow; yield the result to wait."""
        return self.network._start_transfer(self, nbytes)

    def set_cap(self, cap: Optional[float]) -> None:
        """Change the intrinsic rate cap and reallocate."""
        self.cap = cap
        self.network._solver.note_cap_changed(self)
        self.network._mutated()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Flow {self.label or id(self)} rate={self._rate:.3g}>"


class Transfer:
    """In-flight byte movement on a flow; awaitable (yields completion time).

    Integrates the flow's rate across reallocations so the finish time is
    the exact fluid-model completion time.
    """

    __slots__ = ("flow", "nbytes", "remaining", "last_t", "gate",
                 "_generation", "_due", "done")

    def __init__(self, flow: Flow, nbytes: float, sim: Simulator):
        self.flow = flow
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.last_t = sim.now
        self.gate = Gate(sim)
        self._generation = 0
        self._due = math.inf  # time of the live completion event
        self.done = False

    def _subscribe(self, callback) -> None:
        self.gate._subscribe(callback)


# --------------------------------------------------------------------------
# Solvers
# --------------------------------------------------------------------------


class ReferenceSolver:
    """Global progressive filling, exactly as originally shipped.

    Every reallocation re-solves all flows over all links in pure
    Python.  Kept as the oracle for the differential equivalence suite
    and as the byte-stability anchor: its arithmetic (and therefore the
    pinned seed figures) must never drift.
    """

    name = "reference"

    def __init__(self, net: "FlowNetwork"):
        self.net = net

    # -- register phase: global solver ignores dirtiness ------------------
    def note_link_added(self, link: Link) -> None:
        pass

    def note_link_dirty(self, link: Link) -> None:
        pass

    def note_flow_added(self, flow: Flow) -> None:
        pass

    def note_flow_removed(self, flow: Flow) -> None:
        pass

    def note_cap_changed(self, flow: Flow) -> None:
        pass

    def plan(self) -> Tuple[List[Flow], List[Link]]:
        net = self.net
        return net._flows, list(net._links.values())

    # -- compute phase ----------------------------------------------------
    def compute(self, flows: Sequence[Flow]) -> None:
        net = self.net
        n = len(flows)
        remaining = {link: link.capacity for link in net._links.values()}
        denom: Dict[Link, float] = {}
        flow_links: Dict[Flow, List[Tuple[Link, float]]] = {}
        for flow in flows:
            flow._rate = 0.0
            flow_links[flow] = flow.links
            for link, weight in flow.links:
                denom[link] = denom.get(link, 0.0) + weight

        index = {flow: i for i, flow in enumerate(flows)}
        unfixed = set(range(n))
        level = 0.0  # common rate of all unfixed flows
        guard = 0
        while unfixed:
            guard += 1
            if guard > n + len(denom) + 2:
                raise NetworkError("progressive filling failed to converge")
            # Next link saturation point.
            delta_link = math.inf
            bottleneck: Optional[Link] = None
            for link, d in denom.items():
                if d > _EPS:
                    step = remaining[link] / d
                    if step < delta_link:
                        delta_link = step
                        bottleneck = link
            # Next cap crossing.
            delta_cap = math.inf
            for i in unfixed:
                cap = flows[i].cap
                if cap is not None:
                    headroom = cap - level
                    if headroom < delta_cap:
                        delta_cap = headroom
            delta = min(delta_link, delta_cap)
            if delta is math.inf:
                # No binding constraint at all (flows with no links/caps):
                # they are infinitely fast in the fluid model; pick a huge
                # rate so transfers are effectively instantaneous.
                for i in unfixed:
                    flows[i]._rate = _UNBOUNDED_RATE
                break
            if delta < 0:
                delta = 0.0
            level += delta
            for link in denom:
                remaining[link] -= delta * denom[link]

            newly_fixed: List[int] = []
            if delta_cap <= delta_link:
                for i in list(unfixed):
                    cap = flows[i].cap
                    if cap is not None and cap - level <= _EPS:
                        newly_fixed.append(i)
            if delta_link <= delta_cap and bottleneck is not None:
                for flow in bottleneck._flows:
                    idx = index[flow]
                    if idx in unfixed:
                        newly_fixed.append(idx)
            if not newly_fixed:
                # Numerical corner: force-fix the bottleneck link's flows.
                if bottleneck is not None:
                    for flow in bottleneck._flows:
                        idx = index[flow]
                        if idx in unfixed:
                            newly_fixed.append(idx)
                if not newly_fixed:
                    net._note_forced_exit(level, len(unfixed))
                    break
            for i in newly_fixed:
                if i not in unfixed:
                    continue
                unfixed.discard(i)
                flow = flows[i]
                flow._rate = level
                for link, weight in flow_links[flow]:
                    denom[link] -= weight
                    if denom[link] < _EPS:
                        denom[link] = 0.0


class IncrementalSolver:
    """Dirty-link incremental, numpy-vectorized progressive filling.

    Register phase: mutations mark links/flows dirty and keep a dense
    flow x link incidence matrix up to date (rows are flow slots, columns
    are link slots; both grow geometrically and freed rows are reused).

    Compute phase: the dirty set is expanded to the connected component
    of flows reachable through shared links; only that component is
    re-solved.  Within the component the progressive-filling loop runs
    on numpy vectors: link saturation steps, cap crossings and
    remaining-capacity updates are whole-array operations, while the
    per-flow denominator decrements replay the reference solver's exact
    subtract-then-clamp sequence so the floats match bit-for-bit.

    Flows outside the component keep their previous rates and their
    already-scheduled completion events — the allocate phase never
    touches them.
    """

    name = "incremental"

    _INITIAL = 64

    def __init__(self, net: "FlowNetwork"):
        self.net = net
        self._dirty_links: set = set()
        self._dirty_flows: set = set()
        # dense incidence matrix: rows = flow slots, cols = link slots
        self._W = np.zeros((self._INITIAL, self._INITIAL))
        self._caps = np.full(self._INITIAL, np.inf)
        self._serials = np.zeros(self._INITIAL, dtype=np.int64)
        self._linkcap = np.zeros(self._INITIAL)
        self._row_of: Dict[Flow, int] = {}
        self._flow_of_row: List[Optional[Flow]] = [None] * self._INITIAL
        self._free_rows: List[int] = []
        self._nrows = 0
        self._col_of: Dict[Link, int] = {}
        self._link_of_col: List[Link] = []
        # per-flow compact rows: global col ids + matching weights, both
        # as numpy arrays (vector decrements) and as python pairs (the
        # scalar fast path for the common few-links-per-flow case)
        self._cols_of: Dict[Flow, np.ndarray] = {}
        self._wts_of: Dict[Flow, np.ndarray] = {}
        self._cells_of: Dict[Flow, List[Tuple[int, float]]] = {}
        # rows/cols of the last plan(), consumed by the same-call compute()
        self._plan_rows = np.empty(0, dtype=np.intp)
        self._plan_cols = np.empty(0, dtype=np.intp)

    # -- registry growth --------------------------------------------------
    def _grow_rows(self) -> None:
        old = self._W
        grown = np.zeros((old.shape[0] * 2, old.shape[1]))
        grown[: old.shape[0]] = old
        self._W = grown
        caps = np.full(grown.shape[0], np.inf)
        caps[: self._caps.shape[0]] = self._caps
        self._caps = caps
        serials = np.zeros(grown.shape[0], dtype=np.int64)
        serials[: self._serials.shape[0]] = self._serials
        self._serials = serials
        self._flow_of_row.extend([None] * (grown.shape[0] - len(self._flow_of_row)))

    def _grow_cols(self) -> None:
        old = self._W
        grown = np.zeros((old.shape[0], old.shape[1] * 2))
        grown[:, : old.shape[1]] = old
        self._W = grown
        linkcap = np.zeros(grown.shape[1])
        linkcap[: self._linkcap.shape[0]] = self._linkcap
        self._linkcap = linkcap

    # -- register phase ---------------------------------------------------
    def note_link_added(self, link: Link) -> None:
        col = len(self._link_of_col)
        if col >= self._W.shape[1]:
            self._grow_cols()
        self._col_of[link] = col
        self._link_of_col.append(link)
        self._linkcap[col] = link.capacity

    def note_link_dirty(self, link: Link) -> None:
        self._linkcap[self._col_of[link]] = link.capacity
        self._dirty_links.add(link)

    def note_flow_added(self, flow: Flow) -> None:
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            row = self._nrows
            self._nrows += 1
            if row >= self._W.shape[0]:
                self._grow_rows()
        self._row_of[flow] = row
        # Accumulate weights per column in first-occurrence order (callers
        # pre-aggregate per link, so this is normally a straight copy).
        cols: List[int] = []
        wts: List[float] = []
        pos: Dict[int, int] = {}
        for link, weight in flow.links:
            c = self._col_of[link]
            at = pos.get(c)
            if at is None:
                pos[c] = len(cols)
                cols.append(c)
                wts.append(weight)
            else:
                wts[at] += weight
        col_arr = np.asarray(cols, dtype=np.intp)
        wt_arr = np.asarray(wts)
        self._cols_of[flow] = col_arr
        self._wts_of[flow] = wt_arr
        self._cells_of[flow] = list(zip(cols, wts))
        if len(cols):
            self._W[row, col_arr] = wt_arr
        self._caps[row] = np.inf if flow.cap is None else flow.cap
        self._serials[row] = flow._serial
        self._flow_of_row[row] = flow
        self._dirty_flows.add(flow)

    def note_flow_removed(self, flow: Flow) -> None:
        row = self._row_of.pop(flow, None)
        if row is None:
            return
        cols = self._cols_of.pop(flow)
        self._wts_of.pop(flow)
        self._cells_of.pop(flow)
        if cols.size:
            self._W[row, cols] = 0.0
        self._caps[row] = np.inf
        self._serials[row] = 0
        self._flow_of_row[row] = None
        self._free_rows.append(row)
        self._dirty_flows.discard(flow)
        for link, _w in flow.links:
            self._dirty_links.add(link)

    def note_cap_changed(self, flow: Flow) -> None:
        row = self._row_of.get(flow)
        if row is None:
            return
        self._caps[row] = np.inf if flow.cap is None else flow.cap
        self._dirty_flows.add(flow)

    # -- plan: expand dirtiness to the connected component ----------------
    def plan(self) -> Tuple[List[Flow], List[Link]]:
        if not self._dirty_links and not self._dirty_flows:
            return [], []
        nr = self._nrows
        nc = len(self._link_of_col)
        row_of = self._row_of
        fmask = np.zeros(nr, dtype=bool)
        lmask = np.zeros(nc, dtype=bool)
        for flow in self._dirty_flows:
            fmask[row_of[flow]] = True
        # dirty links left with no flow: nothing to solve, but their
        # utilization gauges still drop to zero
        gauge_extras = [l for l in self._dirty_links if not l._flows]
        for link in self._dirty_links:
            lmask[self._col_of[link]] = True
        self._dirty_links.clear()
        self._dirty_flows.clear()
        if not nr:
            return [], gauge_extras
        # Fixpoint expansion over the incidence matrix: freed rows are
        # zeroed, so only live flows join the component.
        Wv = self._W[:nr, :nc]
        count = -1
        while True:
            np.logical_or(fmask, Wv @ lmask > 0.0, out=fmask)
            np.logical_or(lmask, fmask @ Wv > 0.0, out=lmask)
            grown = int(fmask.sum()) + int(lmask.sum())
            if grown == count:
                break
            count = grown
        rows = np.nonzero(fmask)[0]
        if not rows.size:
            return [], gauge_extras
        rows = rows[np.argsort(self._serials[rows])]
        flow_of_row = self._flow_of_row
        flows = [flow_of_row[r] for r in rows]
        # Links in first-touch order over the serial-sorted flows: this is
        # the reference solver's denominator-dict insertion order, which
        # the bottleneck argmin tie-break depends on.
        if len(flows) == 1:
            cols = self._cols_of[flows[0]]
        else:
            allc = np.concatenate([self._cols_of[f] for f in flows])
            # first-occurrence position of every col: reversed fancy
            # assignment makes the earliest write win
            first = np.full(nc, -1, dtype=np.intp)
            first[allc[::-1]] = np.arange(allc.size - 1, -1, -1)
            hit = np.nonzero(first >= 0)[0]
            cols = hit[np.argsort(first[hit])]
        link_of_col = self._link_of_col
        links = [link_of_col[c] for c in cols]
        self._plan_rows = rows
        self._plan_cols = cols
        links.extend(gauge_extras)
        return flows, links

    # -- compute phase ----------------------------------------------------
    def compute(self, flows: Sequence[Flow]) -> None:
        n = len(flows)
        cols_of = self._cols_of
        rows = self._plan_rows
        cols = self._plan_cols
        m = len(cols)
        inf = math.inf
        if m:
            W = self._W[np.ix_(rows, cols)]
            if n > 1:
                # accumulate folds rows sequentially, matching the
                # reference's per-link flow-order summation rounding
                denom = np.add.accumulate(W, axis=0)[-1]
            else:
                denom = W[0].copy()
            remaining = self._linkcap[cols].astype(float)
            # global col id -> local col position, for per-flow decrements
            local = np.empty(len(self._link_of_col), dtype=np.intp)
            local[cols] = np.arange(m)
        else:
            W = denom = remaining = np.empty(0)
            local = None
        # working copy: rows go to +inf as their flows fix, so the plain
        # (C fast-path) caps.min() is exactly the masked min-over-unfixed,
        # and `caps - level <= _EPS` self-excludes fixed rows
        caps = self._caps[rows]
        rates = np.zeros(n)
        unfixed = np.ones(n, dtype=bool)
        step = np.empty(m) if m else None
        cells_of = self._cells_of
        n_unfixed = n
        level = 0.0
        guard = 0
        while n_unfixed:
            guard += 1
            if guard > n + m + 2:
                raise NetworkError("progressive filling failed to converge")
            if m:
                step.fill(inf)
                np.divide(remaining, denom, out=step, where=denom > _EPS)
                j = int(step.argmin())  # first minimum: dict-order tie-break
                delta_link = float(step[j])
                bottleneck = j if delta_link != inf else None
            else:
                delta_link = inf
                bottleneck = None
            # min over unfixed of (cap - level): rounding is monotone, so
            # subtracting after the min matches the reference's per-flow
            # subtract-then-min float result exactly
            delta_cap = float(caps.min()) - level
            delta = delta_link if delta_link < delta_cap else delta_cap
            if delta == inf:
                rates[unfixed] = _UNBOUNDED_RATE
                break
            if delta < 0:
                delta = 0.0
            level += delta
            if m:
                remaining -= delta * denom

            parts: List[np.ndarray] = []
            if delta_cap <= delta_link:
                parts.append(np.nonzero(caps - level <= _EPS)[0])
            if delta_link <= delta_cap and bottleneck is not None:
                hit = np.nonzero(unfixed & (W[:, bottleneck] > 0.0))[0]
                if parts and parts[0].size and hit.size:
                    hit = hit[~np.isin(hit, parts[0])]
                parts.append(hit)
            newly = (
                np.concatenate(parts) if len(parts) > 1
                else parts[0] if parts
                else np.empty(0, dtype=np.intp)
            )
            if newly.size == 0:
                if bottleneck is not None:
                    newly = np.nonzero(unfixed & (W[:, bottleneck] > 0.0))[0]
                if newly.size == 0:
                    self.net._note_forced_exit(level, n_unfixed)
                    break
            if newly.size == n_unfixed:
                # Terminal batch: every remaining flow fixes at this level,
                # so the interleaved denominator decrements (which only
                # matter for later iterations) can be skipped wholesale.
                rates[newly] = level
                break
            for i in newly.tolist():
                if not unfixed[i]:
                    continue
                unfixed[i] = False
                n_unfixed -= 1
                rates[i] = level
                caps[i] = inf
                cells = cells_of[flows[i]]
                if len(cells) <= 8:
                    # scalar path: flows touch a handful of links, and
                    # python float ops beat fancy indexing at that size
                    for gc, wt in cells:
                        lc = local[gc]
                        val = denom[lc] - wt
                        denom[lc] = 0.0 if val < _EPS else val
                else:
                    gcols = cols_of[flows[i]]
                    lc = local[gcols]
                    vals = denom[lc] - self._wts_of[flows[i]]
                    vals[vals < _EPS] = 0.0
                    denom[lc] = vals

        for i, flow in enumerate(flows):
            flow._rate = float(rates[i])


_SOLVERS = {
    ReferenceSolver.name: ReferenceSolver,
    IncrementalSolver.name: IncrementalSolver,
}


class FlowNetwork:
    """Container of links and flows; performs max-min fair allocation.

    ``solver`` selects the allocation engine (``"reference"`` or
    ``"incremental"``); when omitted, the ``REPRO_FLOW_SOLVER``
    environment variable decides, defaulting to ``"incremental"``.
    """

    def __init__(self, sim: Simulator, solver: Optional[str] = None):
        self.sim = sim
        self._links: Dict[str, Link] = {}
        self._flows: List[Flow] = []
        #: mutations registered with the solver but not yet solved
        self._dirty = False
        #: a flush event is queued (see :meth:`_mutated`)
        self._flush_queued = False
        #: solver runs
        self.reallocations = 0
        #: count of progressive-filling runs that hit the non-convergence
        #: fallback (see :meth:`_note_forced_exit`)
        self.forced_exits = 0
        #: cumulative wall-clock seconds spent in reallocation
        self.solver_seconds = 0.0
        #: cumulative flows re-solved across reallocations (== flows *
        #: reallocations for the reference solver; less when the
        #: incremental solver skips untouched components)
        self.solved_flows = 0
        self._next_serial = 0
        name = solver or os.environ.get(SOLVER_ENV, "") or "incremental"
        try:
            self._solver = _SOLVERS[name](self)
        except KeyError:
            raise NetworkError(
                f"unknown flow solver {name!r} "
                f"(valid: {', '.join(sorted(_SOLVERS))})"
            ) from None

    # -- topology ------------------------------------------------------------
    def add_link(self, name: str, capacity: float) -> Link:
        if name in self._links:
            raise NetworkError(f"duplicate link {name!r}")
        link = Link(name, capacity, self)
        self._links[name] = link
        self._solver.note_link_added(link)
        return link

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise NetworkError(f"unknown link {name!r}") from None

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity and reallocate (fault injection:
        degraded media channel, throttled NIC). In-flight transfers are
        synced under the old rates first, so completion times stay exact."""
        if capacity <= 0:
            raise NetworkError(
                f"link {link.name!r} needs positive capacity, got {capacity}"
            )
        link.capacity = float(capacity)
        self._solver.note_link_dirty(link)
        self._mutated()

    # -- flows ---------------------------------------------------------------
    def open(
        self,
        links: Iterable[Tuple[Link, float]],
        cap: Optional[float] = None,
        label: str = "",
    ) -> Flow:
        """Register a new active flow and recompute the allocation."""
        link_list = [(link, float(weight)) for link, weight in links if weight > 0]
        if cap is not None and cap <= 0:
            raise NetworkError(f"flow cap must be positive, got {cap}")
        flow = Flow(self, link_list, cap, label)
        self._next_serial += 1
        flow._serial = self._next_serial
        for link, weight in link_list:
            link._flows[flow] = weight
        self._flows.append(flow)
        self._solver.note_flow_added(flow)
        self._mutated()
        return flow

    def close(self, flow: Flow) -> None:
        """Deregister a flow. Transfers in flight on it still finish, at
        the rate the flow had when closed; later ones on it never do."""
        if flow not in self._flows:
            return
        if self._dirty and flow._transfers:
            # that rate is an observation: settle this instant's mutations
            self._reallocate()
        self._flows.remove(flow)
        for link, _w in flow.links:
            link._flows.pop(flow, None)
        flow._rate = 0.0
        self._solver.note_flow_removed(flow)
        self._mutated()

    # -- transfers -------------------------------------------------------------
    def _start_transfer(self, flow: Flow, nbytes: float) -> Transfer:
        if nbytes < 0:
            raise NetworkError(f"negative transfer size {nbytes}")
        if self._dirty:
            self._reallocate()
        transfer = Transfer(flow, nbytes, self.sim)
        if nbytes == 0:
            transfer.done = True
            transfer.gate.open(self.sim.now)
            return transfer
        flow._transfers.append(transfer)
        metrics = self.sim.metrics
        if metrics is not None:
            # Progress/liveness pair for the stall watchdog: inflight
            # stays >0 across a close() that strands transfers, which is
            # exactly the silent-hang signature the watchdog looks for.
            metrics.gauge("fabric.xfer.inflight").add(self.sim.now, 1)
        self._schedule_completion(transfer)
        return transfer

    def _schedule_completion(self, transfer: Transfer) -> None:
        transfer._generation += 1
        generation = transfer._generation
        rate = transfer.flow._rate
        if rate <= _EPS:
            return  # stalled; a future reallocation reschedules
        delay = transfer.remaining / rate
        transfer._due = self.sim.now + delay
        self.sim.schedule(delay, self._complete, transfer, generation)

    def _complete(self, transfer: Transfer, generation: int) -> None:
        if self._dirty:
            # a mutation at this instant may have changed the rate: solve
            # first, so the generation check sees it as it would have
            self._reallocate()
        if transfer.done or generation != transfer._generation:
            return  # stale event from before a reallocation
        # A matching generation means no reallocation has touched the flow
        # since this completion was scheduled, so the event time is exact.
        # (Recomputing the residual here instead would hit floating-point
        # underflow: at sim times ~1 s a sub-microsecond transfer leaves a
        # residual below the time resolution and the reschedule never
        # advances the clock.)
        transfer.remaining = 0.0
        transfer.last_t = self.sim.now
        transfer.done = True
        transfer.flow._transfers.remove(transfer)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.incr("fabric.xfer.bytes", transfer.nbytes)
            metrics.gauge("fabric.xfer.inflight").add(self.sim.now, -1)
        transfer.gate.open(self.sim.now)

    # -- allocation --------------------------------------------------------------
    def _mutated(self) -> None:
        """A mutation has registered its dirt with the solver. Outside a
        run loop, solve now. Inside one, solve once per simulated instant:
        the first mutation queues a zero-delay flush, which runs after the
        instant's other work (see :meth:`_flush`)."""
        sim = self.sim
        if not sim._in_loop:
            self._reallocate()
            return
        self._dirty = True
        if not self._flush_queued:
            self._flush_queued = True
            sim.schedule(0.0, self._flush)

    def _flush(self) -> None:
        """Queued flush: re-queue while other work is due at this instant
        (more mutations may follow), else solve what is still dirty."""
        if self._dirty and self.sim.has_pending_now():
            self.sim.schedule(0.0, self._flush)
            return
        self._flush_queued = False
        if self._dirty:
            self._reallocate()

    def _reallocate(self) -> None:
        """Register -> compute -> allocate over the affected flow set."""
        self._dirty = False
        self.reallocations += 1
        t0 = time.perf_counter()
        flows, links = self._solver.plan()
        if flows:
            sim = self.sim
            now = sim.now
            # Bring affected transfers up to date under the *old* rates
            # (inlined: this loop runs once per in-flight transfer per
            # reallocation).
            for flow in flows:
                rate = flow._rate
                for transfer in flow._transfers:
                    if transfer._due <= now:
                        # Due now: finished under the fluid model, so the
                        # residual below would be rounding noise, and the
                        # re-push time would then hang on the new rate.
                        transfer.remaining = 0.0
                        transfer.last_t = now
                        continue
                    elapsed = now - transfer.last_t
                    if elapsed > 0:
                        transfer.remaining -= rate * elapsed
                        if transfer.remaining < 0:
                            transfer.remaining = 0.0
                        transfer.last_t = now
            self._solver.compute(flows)
            self.solved_flows += len(flows)
            # Reschedule affected in-flight transfers under the new rates
            # (_schedule_completion + Simulator.schedule, inlined; the
            # heap tuple and completion time are built identically).
            heap = sim._heap
            push = heapq.heappush
            complete = self._complete
            for flow in flows:
                rate = flow._rate
                if rate <= _EPS:
                    for transfer in flow._transfers:
                        transfer._generation += 1  # stalls; reallocation later
                        transfer._due = math.inf
                    continue
                for transfer in flow._transfers:
                    transfer._generation += 1
                    transfer._due = due = now + transfer.remaining / rate
                    sim._seq += 1
                    push(heap, (
                        due,
                        sim._seq,
                        complete,
                        (transfer, transfer._generation),
                    ))
        self.solver_seconds += time.perf_counter() - t0

        # Per-edge utilisation timelines: every reallocation is a change
        # point of the piecewise-constant fluid rates, so sampling here
        # captures the exact utilisation curve of each affected link.
        metrics = self.sim.metrics
        if metrics is not None:
            now = self.sim.now
            for link in links:
                gauge = metrics.gauge(
                    f"fabric.link.utilization{{link={link.name}}}"
                )
                gauge.set(now, link.utilization())

    def _note_forced_exit(self, level: float, n_unfixed: int) -> None:
        """Progressive filling found a positive step but could fix no flow
        (a floating-point corner: the step rounds to a level that crosses
        no cap and saturates no link). The loop exits, leaving the
        still-unfixed flows at their pre-solve rate of zero; transfers on
        them stall until a later reallocation. Counted and logged so the
        fallback is never silent."""
        self.forced_exits += 1
        if self.sim.metrics is not None:
            self.sim.metrics.incr("fabric.solver.forced_exit")
        _LOG.warning(
            "progressive filling forced exit at level %.6g with %d unfixed "
            "flow(s); their rates stay 0 until the next reallocation",
            level, n_unfixed,
        )
