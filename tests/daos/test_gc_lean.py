"""Long-lived DAOS client state stays out of the cyclic collector.

Layouts live as long as their pool and object handles as long as their
open files; a figure point holds thousands of each. Built from tuples of
atomics they are untracked by the collector after one pass, so they add
nothing to its full collections. A completed EQ event releases its task
at once instead of holding it until the event is dropped.
"""

import gc
import weakref

from repro.cluster import small_cluster
from repro.daos.eq import EventQueue
from repro.daos.oclass import RP_2G1, SX
from repro.daos.objid import ObjId
from repro.daos.placement import PlacementMap
from repro.sim import Simulator
from tests.sim.test_gc_lean import collector_off


def collect(levels: int) -> None:
    """A collection untracks a tuple only if its items are untracked
    already, and it visits a nested tuple after its container: each
    pass peels one level of nesting. In a long run the young-generation
    passes do this long before the objects reach the old generation."""
    for _ in range(levels):
        gc.collect()


def test_layout_groups_untracked_after_a_collection():
    placement = PlacementMap(64)
    for oclass in (SX, RP_2G1):
        layout = placement.layout(ObjId.generate(oclass, hi=1, lo=2))
        collect(2)
        assert not gc.is_tracked(layout.groups)
        assert all(not gc.is_tracked(group) for group in layout.groups)


def test_healthy_routes_untracked_after_a_collection():
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("gc-lean", oclass="SX")
        oid = yield from cont.alloc_oid(SX)
        return cont.open_object(oid)

    obj = cluster.run(go())
    routes = obj._routes()
    assert len(routes) == obj.layout.group_count
    collect(3)
    assert not gc.is_tracked(routes)
    assert obj._routes() is routes  # cached per pool-map version


def test_completed_eq_event_releases_its_task():
    with collector_off():
        sim = Simulator()
        eq = EventQueue(sim)

        def op():
            yield 1.0
            return "done"

        event = eq.launch(op())
        ref = weakref.ref(event._task._gen)
        sim.run()
        # the event and its queue are still held, the task is not
        assert event.result == "done"
        assert eq.n_completed == 1
        assert ref() is None
