"""The reference flow solver: a differential oracle for tests and benches.

:class:`ReferenceSolver` is the original pure-Python progressive filling
over *all* flows and links, exactly as first shipped. The runtime
:class:`~repro.network.flows.IncrementalSolver` mirrors its float
semantics operation for operation, so on a single flow-graph component
the two agree byte for byte. The equivalence and identity suites compare
them, and ``benchmarks/bench_flows.py`` uses it as a workload-matched
calibrator. Its arithmetic must never drift.

:func:`use_reference` swaps it into a :class:`~repro.network.flows.FlowNetwork`
through the network's ``_solver`` seam. The swap is safe at any time: the
reference solver ignores registration and reads ``net._flows`` and
``net._links`` directly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.network.flows import _EPS, _UNBOUNDED_RATE, Flow, FlowNetwork, Link


class ReferenceSolver:
    """Global progressive filling, exactly as originally shipped.

    Every reallocation re-solves all flows over all links in pure
    Python.  Kept as the oracle for the differential equivalence suite
    and as the byte-stability anchor: its arithmetic (and therefore the
    pinned seed figures) must never drift.
    """

    def __init__(self, net: FlowNetwork):
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


def use_reference(net: FlowNetwork) -> FlowNetwork:
    """Make ``net`` solve with :class:`ReferenceSolver`; returns ``net``."""
    net._solver = ReferenceSolver(net)
    return net
