"""Unit + property tests for the max-min fair fluid-flow model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, NetworkError
from repro.network.flows import FlowNetwork
from repro.sim import Simulator
from tests.network.test_coalesced_solve import EagerFlowNetwork


def make_net():
    sim = Simulator()
    return sim, FlowNetwork(sim)


def test_single_flow_gets_full_capacity():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])
    assert flow.rate == pytest.approx(100.0)


def test_two_flows_share_equally():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])
    f2 = net.open([(link, 1.0)])
    assert f1.rate == pytest.approx(50.0)
    assert f2.rate == pytest.approx(50.0)


def test_close_restores_rate():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])
    f2 = net.open([(link, 1.0)])
    net.close(f2)
    assert f1.rate == pytest.approx(100.0)
    assert f2.rate == 0.0


def test_cap_binds_and_spare_goes_to_others():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    capped = net.open([(link, 1.0)], cap=10.0)
    free = net.open([(link, 1.0)])
    assert capped.rate == pytest.approx(10.0)
    assert free.rate == pytest.approx(90.0)


def test_consumption_weights_model_striping():
    # One flow striped over 4 target links: weight 1/4 on each. Each target
    # has capacity 25 => total consumption per target = rate/4 <= 25 so the
    # flow can run at 100 even though each target is only 25.
    sim, net = make_net()
    targets = [net.add_link(f"t{i}", 25.0) for i in range(4)]
    flow = net.open([(t, 0.25) for t in targets])
    assert flow.rate == pytest.approx(100.0)


def test_weighted_flow_competes_on_hot_target():
    # Striped flow (1/2 on t0,t1) vs dedicated flow on t0.
    # Max-min: equal rates r: t0 consumption r/2 + r = 30 -> r = 20; then the
    # striped flow is NOT limited elsewhere (t1 has headroom) but equal-rate
    # progressive filling fixes both at the t0 saturation point... dedicated
    # flow fixed at 20; striped flow continues growing on t1: 20/2 + extra...
    sim, net = make_net()
    t0 = net.add_link("t0", 30.0)
    t1 = net.add_link("t1", 30.0)
    striped = net.open([(t0, 0.5), (t1, 0.5)])
    dedicated = net.open([(t0, 1.0)])
    # t0 saturates when r*(1.5) = 30 => level 20; both fixed there since both
    # cross t0 (equal-rate max-min: flows on the bottleneck are fixed).
    assert dedicated.rate == pytest.approx(20.0)
    assert striped.rate == pytest.approx(20.0)


def test_multi_link_path_bottleneck():
    sim, net = make_net()
    a = net.add_link("a", 100.0)
    b = net.add_link("b", 40.0)
    flow = net.open([(a, 1.0), (b, 1.0)])
    assert flow.rate == pytest.approx(40.0)


def test_two_bottlenecks_progressive():
    # f1 crosses l1(100) only; f2 crosses l1 and l2(30); f3 crosses l2 only.
    # l2: f2+f3 -> level 15 fixes f2,f3. l1: f1 then takes 100-15=85.
    sim, net = make_net()
    l1 = net.add_link("l1", 100.0)
    l2 = net.add_link("l2", 30.0)
    f1 = net.open([(l1, 1.0)])
    f2 = net.open([(l1, 1.0), (l2, 1.0)])
    f3 = net.open([(l2, 1.0)])
    assert f2.rate == pytest.approx(15.0)
    assert f3.rate == pytest.approx(15.0)
    assert f1.rate == pytest.approx(85.0)


def test_transfer_completes_at_fluid_time():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def proc():
        yield flow.transfer(200.0)
        return sim.now

    task = sim.spawn(proc())
    sim.run()
    assert task.result == pytest.approx(2.0)


def test_transfer_integrates_rate_changes():
    # Flow alone at 100 B/s for 1 s (100 B done), then a competitor arrives
    # and rate drops to 50: remaining 100 B takes 2 s more -> total 3 s.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])

    def main():
        yield f1.transfer(200.0)
        return sim.now

    def competitor():
        yield 1.0
        net.open([(link, 1.0)])

    task = sim.spawn(main())
    sim.spawn(competitor())
    sim.run()
    assert task.result == pytest.approx(3.0)


def test_transfer_speeds_up_when_competitor_leaves():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])
    f2 = net.open([(link, 1.0)])

    def main():
        yield f1.transfer(150.0)
        return sim.now

    def competitor():
        yield 1.0
        net.close(f2)

    task = sim.spawn(main())
    sim.spawn(competitor())
    sim.run()
    # 1 s at 50 B/s = 50 B; remaining 100 B at 100 B/s = 1 s; total 2 s.
    assert task.result == pytest.approx(2.0)


def test_zero_byte_transfer_completes_immediately():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def proc():
        yield flow.transfer(0)
        return sim.now

    task = sim.spawn(proc())
    sim.run()
    assert task.result == 0.0


def test_concurrent_transfers_on_same_flow_share_flow_rate():
    # Two 100-byte transfers on one flow at rate 100: the fluid model gives
    # the *flow* 100 B/s; both transfers progress at the flow rate
    # independently (they model successive ops, not extra parallelism).
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])
    done = []

    def proc(i):
        yield flow.transfer(100.0)
        done.append((i, sim.now))

    sim.spawn(proc(0))
    sim.spawn(proc(1))
    sim.run()
    assert [t for _, t in done] == [pytest.approx(1.0), pytest.approx(1.0)]


def test_set_link_capacity_mid_transfer_reschedules():
    # 200 B on a 100 B/s link; at t=1 s (100 B done) the link degrades to
    # 25 B/s: remaining 100 B takes 4 s more -> completion at t=5 s.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def main():
        yield flow.transfer(200.0)
        return sim.now

    def degrade():
        yield 1.0
        net.set_link_capacity(link, 25.0)

    task = sim.spawn(main())
    sim.spawn(degrade())
    sim.run()
    assert task.result == pytest.approx(5.0)
    assert flow.rate == pytest.approx(25.0)


def test_set_link_capacity_mid_transfer_speedup():
    # The other direction: the link gets faster mid-flight, and the
    # already-scheduled (now stale) completion event must be superseded.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def main():
        yield flow.transfer(300.0)
        return sim.now

    def upgrade():
        yield 1.0
        net.set_link_capacity(link, 400.0)

    task = sim.spawn(main())
    sim.spawn(upgrade())
    sim.run()
    # 1 s at 100 B/s = 100 B; remaining 200 B at 400 B/s = 0.5 s.
    assert task.result == pytest.approx(1.5)


def test_set_cap_mid_transfer_reschedules():
    # Cap applied mid-flight: 1 s at 100 B/s (100 B done), then cap 20:
    # remaining 100 B at 20 B/s = 5 s more -> t=6 s.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def main():
        yield flow.transfer(200.0)
        return sim.now

    def throttle():
        yield 1.0
        flow.set_cap(20.0)

    task = sim.spawn(main())
    sim.spawn(throttle())
    sim.run()
    assert task.result == pytest.approx(6.0)
    assert flow.rate == pytest.approx(20.0)


def test_clear_cap_mid_transfer_restores_link_rate():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)], cap=10.0)

    def main():
        yield flow.transfer(110.0)
        return sim.now

    def uncork():
        yield 1.0
        flow.set_cap(None)

    task = sim.spawn(main())
    sim.spawn(uncork())
    sim.run()
    # 1 s at 10 B/s = 10 B; remaining 100 B at 100 B/s = 1 s.
    assert task.result == pytest.approx(2.0)


def test_chained_mutations_accumulate_exact_bytes():
    # Several mutations during one transfer: remaining-bytes accounting
    # must integrate every rate segment. 600 B total:
    #   t in [0,1): 100 B/s (competitor-free)      -> 100 B
    #   t in [1,2): 50 B/s (competitor arrives)    -> 50 B
    #   t in [2,3): 25 B/s (link degraded to 50)   -> 25 B
    #   t in [3,4): 50 B/s (competitor leaves)     -> 50 B
    #   t >= 4:     cap 75 binds under link 50 -> still 50 B/s
    # remaining at t=4: 600-225=375 B at 50 B/s -> 7.5 s -> t=11.5 s.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    flow = net.open([(link, 1.0)])

    def main():
        yield flow.transfer(600.0)
        return sim.now

    def script():
        competitor = net.open([(link, 1.0)])
        net.close(competitor)  # net effect nil before t=0 transfers start
        yield 1.0
        competitor = net.open([(link, 1.0)])
        yield 1.0
        net.set_link_capacity(link, 50.0)
        yield 1.0
        net.close(competitor)
        yield 1.0
        flow.set_cap(75.0)

    task = sim.spawn(main())
    sim.spawn(script())
    sim.run()
    assert task.result == pytest.approx(11.5)


def test_invalid_inputs_rejected():
    sim, net = make_net()
    with pytest.raises(NetworkError):
        net.add_link("bad", 0.0)
    link = net.add_link("l", 10.0)
    with pytest.raises(NetworkError):
        net.add_link("l", 10.0)
    with pytest.raises(NetworkError):
        net.open([(link, 1.0)], cap=0.0)
    with pytest.raises(NetworkError):
        net.link("missing")
    flow = net.open([(link, 1.0)])
    with pytest.raises(NetworkError):
        flow.transfer(-5)


def test_close_unknown_flow_is_noop():
    sim, net = make_net()
    link = net.add_link("l", 10.0)
    flow = net.open([(link, 1.0)])
    net.close(flow)
    net.close(flow)  # second close must not raise
    assert link.n_flows == 0


def test_utilization_reporting():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    net.open([(link, 1.0)], cap=25.0)
    assert link.utilization() == pytest.approx(0.25)


@settings(max_examples=60, deadline=None)
@given(
    capacities=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=5),
    flow_specs=st.lists(
        st.tuples(
            st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
            st.one_of(st.none(), st.floats(0.5, 1e4)),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_allocation_is_feasible_and_work_conserving(capacities, flow_specs):
    """Property: no link oversubscribed; no flow can be raised unilaterally."""
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(capacities)]
    flows = []
    for link_ids, cap in flow_specs:
        chosen = [links[i % len(links)] for i in link_ids]
        # dedupe (same link twice would double-count weight)
        chosen = list(dict.fromkeys(chosen))
        flows.append(net.open([(l, 1.0) for l in chosen], cap=cap))

    slack = {l: l.capacity for l in links}
    for flow in flows:
        assert flow.rate >= 0
        if flow.cap is not None:
            assert flow.rate <= flow.cap + 1e-6
        for link, weight in flow.links:
            slack[link] -= flow.rate * weight
    for link, s in slack.items():
        assert s >= -1e-6 * link.capacity  # feasibility

    # Max-min/work-conservation: every flow is blocked by its cap or by at
    # least one saturated link on its path.
    for flow in flows:
        capped = flow.cap is not None and flow.rate >= flow.cap - 1e-6
        saturated = any(
            slack[link] <= 1e-6 * link.capacity for link, _ in flow.links
        )
        assert capped or saturated


# -- one coalesced solve per simulated instant --------------------------------


def test_rate_read_in_task_sees_coalesced_solve():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    seen = []

    def proc():
        f1 = net.open([(link, 1.0)])
        f2 = net.open([(link, 1.0)])
        seen.append((net.reallocations, f1.rate, f2.rate, net.reallocations))
        yield None

    sim.spawn(proc())
    sim.run()
    # neither open is solved until a rate is read
    assert seen == [(0, 50.0, 50.0, 1)]
    assert net.reallocations == 1


def test_utilization_read_in_task_sees_coalesced_solve():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    seen = []

    def proc():
        net.open([(link, 1.0)], cap=20.0)
        net.open([(link, 1.0)], cap=30.0)
        seen.append(link.utilization())
        yield None

    sim.spawn(proc())
    sim.run()
    assert seen == [0.5]
    assert net.reallocations == 1


def test_step_driving_solves_every_mutation_at_once():
    # Outside a run loop there is no instant to coalesce over: each
    # mutation solves as it happens, and transfer timing is unchanged.
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])

    def main():
        yield f1.transfer(200.0)
        return sim.now

    def competitor():
        yield 1.0
        net.open([(link, 1.0)])
        net.open([(link, 1.0)], cap=10.0)

    task = sim.spawn(main())
    sim.spawn(competitor())
    while sim.step():
        pass
    assert net.reallocations == 3
    # 100 B by t=1, then 45 B/s: 100/45 s more
    assert task.result == 1.0 + 100.0 / 45.0


def test_run_until_ending_on_dirty_instant():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])

    def main():
        yield f1.transfer(200.0)
        return sim.now

    def competitor():
        yield 1.0
        net.open([(link, 1.0)])
        net.open([(link, 1.0)])
        yield 5.0

    task = sim.spawn(main())
    sim.spawn(competitor())
    assert sim.run(until=1.0) == 1.0
    # the instant's flush ran before run() returned
    assert not net._dirty
    assert net.reallocations == 2
    assert f1._rate == pytest.approx(100.0 / 3)
    sim.run()
    assert task.result == pytest.approx(4.0)


def test_run_until_complete_leaves_flush_for_observers():
    # The task finishes on the instant it mutated, so the run loop exits
    # with the flush still queued; reading a rate solves, and the queued
    # flush later finds nothing to do.
    sim, net = make_net()
    link = net.add_link("l", 100.0)

    def proc():
        yield 1.0
        return net.open([(link, 1.0)]), net.open([(link, 1.0)])

    f1, f2 = sim.run_until_complete(sim.spawn(proc()))
    assert net._dirty and net.reallocations == 0
    assert (f1.rate, f2.rate) == (50.0, 50.0)
    assert net.reallocations == 1
    sim.run()
    assert net.reallocations == 1 and not sim.has_pending()


def test_stranded_transfer_still_deadlocks():
    sim, net = make_net()
    link = net.add_link("l", 100.0)
    f1 = net.open([(link, 1.0)])
    f2 = net.open([(link, 1.0)])

    def other():
        # keeps mutating on the victim's instant, so a flush stays queued
        net.open([(link, 1.0)])
        yield None
        net.close(f2)

    def victim():
        net.close(f1)
        yield f1.transfer(100.0)

    sim.spawn(other())
    task = sim.spawn(victim())
    with pytest.raises(DeadlockError):
        sim.run_until_complete(task)
    assert not net._dirty
    assert sim.now == 0.0 and not sim.has_pending()


def test_same_instant_opens_cost_one_solve():
    sim, net = make_net()
    nics = [net.add_link(f"nic{i}", 1000.0) for i in range(16)]
    tgts = [net.add_link(f"tgt{i}", 300.0) for i in range(32)]
    flows = []

    def rank(i):
        yield 0.5
        spec = [(nics[i // 16], 1.0)]
        spec += [(tgts[(i + k) % 32], 0.25) for k in range(4)]
        flows.append(net.open(spec, label=str(i)))

    for i in range(256):
        sim.spawn(rank(i))
    sim.run()
    assert net.reallocations == 1
    assert net.solved_flows == 256

    eager_sim = Simulator()
    eager = EagerFlowNetwork(eager_sim)
    e_links = {l.name: eager.add_link(l.name, l.capacity)
               for l in nics + tgts}
    e_flows = [eager.open([(e_links[l.name], w) for l, w in f.links])
               for f in flows]
    assert eager.reallocations == 256
    assert [f.rate for f in flows] == [f.rate for f in e_flows]


def test_utilization_gauge_one_point_per_instant():
    from repro.obs import install

    def run(net_cls):
        sim = Simulator()
        install(sim, tracing=False, metrics=True)
        net = net_cls(sim)
        a = net.add_link("a", 100.0)
        b = net.add_link("b", 60.0)

        def burst(t, ops):
            yield t
            for op in ops:
                op()
                yield None

        flows = []
        sim.spawn(burst(1.0, [
            lambda: flows.append(net.open([(a, 1.0)])),
            lambda: flows.append(net.open([(a, 1.0), (b, 1.0)])),
            lambda: flows.append(net.open([(b, 1.0)], cap=10.0)),
        ]))
        sim.spawn(burst(2.0, [
            lambda: net.set_link_capacity(b, 15.0),
            lambda: flows[0].set_cap(20.0),
            lambda: net.close(flows[2]),
        ]))
        sim.spawn(burst(3.0, [lambda i=i: net.close(flows[i])
                              for i in range(3)]))
        sim.run(until=4.0)
        return {name: sim.metrics.gauge(
                    f"fabric.link.utilization{{link={name}}}")
                for name in ("a", "b")}, sim.now

    gauges, now = run(FlowNetwork)
    oracle, _ = run(EagerFlowNetwork)
    for name, gauge in gauges.items():
        times = [t for t, _v in gauge.timeline]
        assert times == [1.0, 2.0, 3.0], name
        assert len(oracle[name].timeline) > len(times)
        assert gauge.mean(now) == oracle[name].mean(now)
        assert gauge.timeline[-1] == oracle[name].timeline[-1]


def test_runtime_solver_is_not_selectable(monkeypatch):
    """The environment variable that once picked the solver is ignored:
    every network, standalone or inside a cluster, solves incrementally."""
    from repro.cluster import nextgenio
    from repro.network.flows import IncrementalSolver

    monkeypatch.setenv("REPRO_FLOW_SOLVER", "reference")
    _sim, net = make_net()
    assert type(net._solver) is IncrementalSolver
    cluster = nextgenio(client_nodes=1)
    assert type(cluster.fabric.flownet._solver) is IncrementalSolver
