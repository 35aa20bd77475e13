"""Unit and property tests for the fluid-flow rate solver and scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import DMA, PIO, FluidNetwork, FluidResource, Simulator
from repro.sim.fluid import Flow


def make(sim=None):
    sim = sim or Simulator()
    return sim, FluidNetwork(sim)


# -- basic timing --------------------------------------------------------------

def test_single_flow_exact_completion_time():
    sim, net = make()
    r = FluidResource("r", 100.0)
    done = net.transfer("f", 1000.0, [(r, DMA)], peak=50.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(20.0)   # 1000 / min(50, 100)


def test_zero_size_flow_completes_immediately():
    sim, net = make()
    r = FluidResource("r", 100.0)
    done = net.transfer("f", 0, [(r, DMA)], peak=50.0)
    assert done.triggered


def test_two_equal_flows_share_capacity():
    sim, net = make()
    r = FluidResource("r", 100.0)
    times = {}

    def proc(name):
        yield net.transfer(name, 500.0, [(r, DMA)], peak=100.0)
        times[name] = sim.now

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert times["a"] == pytest.approx(10.0)  # 50 each
    assert times["b"] == pytest.approx(10.0)


def test_peak_caps_rate_below_capacity():
    sim, net = make()
    r = FluidResource("r", 100.0)
    done = net.transfer("f", 300.0, [(r, DMA)], peak=30.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_flow_departure_speeds_up_remaining():
    sim, net = make()
    r = FluidResource("r", 100.0)
    times = {}

    def proc(name, size):
        yield net.transfer(name, size, [(r, DMA)], peak=100.0)
        times[name] = sim.now

    sim.process(proc("short", 100.0))   # 50 B/µs until t=2
    sim.process(proc("long", 500.0))    # 100 at t=2, then 100 B/µs
    sim.run()
    assert times["short"] == pytest.approx(2.0)
    assert times["long"] == pytest.approx(6.0)   # 100@2 + 400/100


def test_late_arrival_slows_existing_flow():
    sim, net = make()
    r = FluidResource("r", 100.0)
    times = {}

    def first():
        yield net.transfer("first", 1000.0, [(r, DMA)], peak=100.0)
        times["first"] = sim.now

    def second():
        yield sim.timeout(5)
        yield net.transfer("second", 250.0, [(r, DMA)], peak=100.0)
        times["second"] = sim.now

    sim.process(first())
    sim.process(second())
    sim.run()
    # first: 500B by t=5, then 50 B/µs alongside second (250B -> t=10),
    # then 250B alone at 100 -> t=12.5
    assert times["second"] == pytest.approx(10.0)
    assert times["first"] == pytest.approx(12.5)


def test_multi_hop_flow_limited_by_tightest_resource():
    sim, net = make()
    wide = FluidResource("wide", 1000.0)
    narrow = FluidResource("narrow", 10.0)
    done = net.transfer("f", 100.0, [(wide, DMA), (narrow, DMA)], peak=500.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


# -- PIO-under-DMA preemption (§3.4.1) ----------------------------------------

def test_pio_slowed_while_dma_active():
    sim, net = make()
    pci = FluidResource("pci", 200.0, preempt_slowdown=2.0)
    times = {}

    def dma():
        yield net.transfer("dma", 660.0, [(pci, DMA)], peak=66.0)
        times["dma"] = sim.now

    def pio():
        yield net.transfer("pio", 660.0, [(pci, PIO)], peak=66.0)
        times["pio"] = sim.now

    sim.process(dma())
    sim.process(pio())
    sim.run()
    # DMA unaffected (10µs); PIO at 33 while DMA active (330B), then 66.
    assert times["dma"] == pytest.approx(10.0)
    assert times["pio"] == pytest.approx(15.0)


def test_pio_alone_runs_at_peak():
    sim, net = make()
    pci = FluidResource("pci", 200.0, preempt_slowdown=2.0)
    done = net.transfer("pio", 660.0, [(pci, PIO)], peak=66.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_two_pios_share_without_slowdown():
    sim, net = make()
    pci = FluidResource("pci", 66.0, preempt_slowdown=2.0)
    times = {}

    def pio(name):
        yield net.transfer(name, 330.0, [(pci, PIO)], peak=66.0)
        times[name] = sim.now

    sim.process(pio("a"))
    sim.process(pio("b"))
    sim.run()
    assert times["a"] == pytest.approx(10.0)   # 33 each, no preemption


def test_preemption_only_on_shared_resource():
    sim, net = make()
    pci1 = FluidResource("pci1", 200.0, preempt_slowdown=2.0)
    pci2 = FluidResource("pci2", 200.0, preempt_slowdown=2.0)
    times = {}

    def dma():
        yield net.transfer("dma", 660.0, [(pci1, DMA)], peak=66.0)
        times["dma"] = sim.now

    def pio():
        yield net.transfer("pio", 660.0, [(pci2, PIO)], peak=66.0)
        times["pio"] = sim.now

    sim.process(dma())
    sim.process(pio())
    sim.run()
    assert times["pio"] == pytest.approx(10.0)   # different bus: unaffected


# -- validation -----------------------------------------------------------------

def test_resource_validation():
    with pytest.raises(ValueError):
        FluidResource("bad", 0)
    with pytest.raises(ValueError):
        FluidResource("bad", 10, preempt_slowdown=0.5)


def test_resource_capacity_and_slowdown_are_read_only():
    # The network caches component fills: a resource whose capacity or
    # slowdown changed after construction would serve stale rates.
    r = FluidResource("r", 10, preempt_slowdown=2.0)
    with pytest.raises(AttributeError):
        r.capacity = 20
    with pytest.raises(AttributeError):
        r.preempt_slowdown = 1.0
    assert (r.capacity, r.preempt_slowdown) == (10, 2.0)


def test_flow_validation():
    r = FluidResource("r", 10)
    with pytest.raises(ValueError):
        Flow("f", -1, [(r, DMA)], peak=1.0)
    with pytest.raises(ValueError):
        Flow("f", 1, [(r, DMA)], peak=0.0)
    with pytest.raises(ValueError):
        Flow("f", 1, [(r, "weird")], peak=1.0)


def test_utilization():
    sim, net = make()
    r = FluidResource("r", 100.0)
    net.transfer("a", 1000.0, [(r, DMA)], peak=30.0)
    net.transfer("b", 1000.0, [(r, DMA)], peak=30.0)
    assert net.utilization(r) == pytest.approx(60.0)


def test_rate_observers_called():
    sim, net = make()
    r = FluidResource("r", 100.0)
    events = []
    net.rate_observers.append(lambda t, f, rate: events.append((t, f.name, rate)))
    done = net.transfer("a", 100.0, [(r, DMA)], peak=50.0)
    sim.run(until=done)
    assert events[0] == (0.0, "a", 50.0)


# -- property-based: the solver itself -------------------------------------------

@st.composite
def flow_sets(draw):
    n_res = draw(st.integers(1, 4))
    resources = [
        FluidResource(f"r{i}", draw(st.floats(1.0, 500.0)),
                      preempt_slowdown=draw(st.floats(1.0, 4.0)))
        for i in range(n_res)
    ]
    n_flows = draw(st.integers(1, 8))
    flows = []
    for j in range(n_flows):
        hops = draw(st.lists(
            st.tuples(st.integers(0, n_res - 1), st.sampled_from([DMA, PIO])),
            min_size=1, max_size=n_res, unique_by=lambda h: h[0]))
        path = [(resources[i], kind) for i, kind in hops]
        flow = Flow(f"f{j}", draw(st.floats(1.0, 1e6)), path,
                    peak=draw(st.floats(0.5, 200.0)))
        flows.append(flow)
    for f in flows:
        for res in f.resources():
            res.flows.add(f)
    return resources, flows


@given(flow_sets())
@settings(max_examples=200, deadline=None)
def test_solver_conservation_and_caps(data):
    """Invariants: no resource over capacity, no flow over its peak, every
    rate non-negative, and work conservation (every flow is either at its
    effective cap or crosses a saturated resource)."""
    resources, flows = data
    rates = FluidNetwork.solve_rates(flows)
    eps = 1e-6
    for res in resources:
        total = sum(rates[f] for f in flows if res in f.resources())
        assert total <= res.capacity * (1 + eps)
    for f in flows:
        assert -eps <= rates[f] <= f.peak * (1 + eps)
    # work conservation
    for f in flows:
        cap = f.peak
        for res, kind in f.path:
            if kind == PIO and any(o is not f and o.kind_on(res) == DMA
                                   for o in res.flows):
                cap = min(cap, f.peak / res.preempt_slowdown)
        at_cap = rates[f] >= cap - 1e-5 * max(1.0, cap)
        saturated = any(
            sum(rates[o] for o in flows if res in o.resources())
            >= res.capacity - 1e-5 * max(1.0, res.capacity)
            for res in f.resources())
        assert at_cap or saturated, (f, rates[f], cap)


@given(st.lists(st.floats(1.0, 1e5), min_size=1, max_size=6),
       st.floats(1.0, 300.0))
@settings(max_examples=100, deadline=None)
def test_equal_flows_get_equal_rates(sizes, capacity):
    res = FluidResource("r", capacity)
    flows = [Flow(f"f{i}", s, [(res, DMA)], peak=1e9) for i, s in enumerate(sizes)]
    for f in flows:
        res.flows.add(f)
    rates = FluidNetwork.solve_rates(flows)
    vals = list(rates.values())
    assert max(vals) - min(vals) < 1e-6 * max(1.0, max(vals))
    assert sum(vals) == pytest.approx(capacity)
