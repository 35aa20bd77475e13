"""Tests of the repository benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import dataclasses

import pytest

import clock
import run

run.import_repro()

from repro.cli import main as repro_main  # noqa: E402
from repro.faults import ChannelFaults, FaultPlan  # noqa: E402
from repro.madeleine import UnpackMismatch  # noqa: E402
from repro.scenario import Scenario, Topology, TrafficSpec  # noqa: E402
from repro.sim import ProcessCrashed  # noqa: E402
from repro.solver import solve  # noqa: E402

#: simulated figures of one replay at each workload file's own seed.
BASELINE = {
    "gateway_bulk": (43.31, 104_285, 164_432),
    "torus_uniform": (151.89, 3_083, 4_532),
    "reliable_lossy": (1.72, 24_810, 99_861),
}
FILE_SEEDS = {"gateway_bulk": 1, "torus_uniform": 7, "reliable_lossy": 3}


@pytest.mark.parametrize("workload", sorted(BASELINE))
def test_file_seed_reproduces_baseline(workload):
    scenario = run.load_workload(workload, FILE_SEEDS[workload])
    out, _session = run.replay(scenario)
    sim = {k: v for k, (v, _unit) in run.simulated_metrics(out).items()}
    goodput, p50, p90 = BASELINE[workload]
    assert out.error is None
    assert sim["failed_frac"] == 0
    assert round(sim["goodput_mbs"], 2) == goodput
    assert round(sim["fct_p50_us"]) == p50
    assert round(sim["fct_p90_us"]) == p90


@pytest.mark.parametrize("workload", sorted(BASELINE))
def test_workload_replays_through_the_cli(workload, capsys):
    path = str(run.WORKLOAD_DIR / f"{workload}.yaml")
    assert repro_main(["solve", "--scenario", path]) == 0
    assert repro_main(["bench", "--scenario", path]) == 0
    assert "completed" in capsys.readouterr().out


def test_seed_overrides_scenario_and_fault_seeds():
    scenario = run.load_workload("reliable_lossy", 11)
    assert scenario.seed == 11 and scenario.faults.seed == 11
    seeds = run.seed_stream(11, 64)
    assert seeds[0] == 11 and len(set(seeds)) == 64
    assert seeds == run.seed_stream(11, 64)


def test_module_of():
    src = run.SRC / "repro"
    assert run.module_of(str(src / "sim" / "fluid.py")) == "sim.fluid"
    assert run.module_of(str(src / "sim" / "__init__.py")) == "sim"
    assert run.module_of("~") == "builtins"
    assert run.module_of(dataclasses.__file__) == "other"


def test_span_self_shares_sum_to_one():
    scenario = run.load_workload("gateway_bulk", 1)
    profile = cProfile.Profile()
    profile.runcall(solve, scenario)
    attr = run.attribute("solver", profile)
    shares = [v for k, (v, _u) in attr.items() if k.endswith(".self_share")]
    assert len(shares) == len(run.SPAN_MODULES["solver"]) + 2
    assert sum(shares) == pytest.approx(1.0)
    assert attr["solver.solver.core.calls"][0] > 0


def test_divergent_replay_is_a_correctness_failure():
    scenario = run.load_workload("gateway_bulk", 1)
    out, _session = run.replay(dataclasses.replace(
        scenario, traffic=dataclasses.replace(scenario.traffic, flows=4)))
    run.check_same(out, dataclasses.replace(out), "an identical copy")
    shifted = dataclasses.replace(
        out, completed=[(i, n, f + 1.0) for i, n, f in out.completed])
    with pytest.raises(run.BenchError):
        run.check_same(out, shifted, "a shifted copy")


def test_sliced_replay_reproduces_the_schedule():
    scenario = run.load_workload("reliable_lossy", 3)
    scenario = dataclasses.replace(
        scenario, traffic=dataclasses.replace(scenario.traffic, flows=32))
    whole, _session = run.replay(scenario)
    out, raw_s, rss = run.sliced_replay(clock.ReferenceClock(), scenario)
    run.check_same(whole, out, "the sliced replay", sliced=True)
    assert len(out.completed) == out.flows
    assert out.setup_s > 0 and out.des_s > 0 and raw_s > 0 and rss > 0


def test_reference_clock_scales_by_the_reference_loop(monkeypatch):
    assert clock.reference_loop() == clock.reference_loop()
    probes = iter([2 * clock.REFERENCE_S, 4 * clock.REFERENCE_S,
                   2 * clock.REFERENCE_S])
    monkeypatch.setattr(clock, "reference_time", lambda: next(probes))
    ticks = iter([0.0, 3.0, 10.0, 11.5])
    monkeypatch.setattr(clock.time, "process_time", lambda: next(ticks))
    c = clock.ReferenceClock()
    assert c.call(lambda: "a") == ("a", 1.0, 3.0)
    assert c.call(lambda: "b") == ("b", 0.5, 1.5)


def _eager_under_loss(seed: int) -> Scenario:
    return Scenario(
        seed=seed,
        topology=Topology(kind="chain", protocols=("sci", "myrinet"),
                          sizes=(1, 1), gateways=(1,)),
        adaptive=(4096, 2.0, 1.2, False),
        traffic=TrafficSpec(pattern="uniform", flows=32,
                            mean_interarrival=500.0, size=2048,
                            kind="reliable"),
        faults=FaultPlan(seed=seed, default=ChannelFaults(drop_p=0.02)))


@pytest.mark.xfail(raises=UnpackMismatch, strict=True,
                   reason="eager records under fragment loss fail to "
                          "unpack: 'malformed eager record' escapes "
                          "gtm._op_recv_eager and aborts the simulation")
@pytest.mark.parametrize("seed", range(6))
def test_eager_transport_survives_fragment_loss(seed):
    scenario = _eager_under_loss(seed)
    session, engine = run.build(scenario)
    session.run()
    assert len(engine.records) == len(engine.flows)


def _reliable_through_lossy_gateways(seed: int) -> Scenario:
    return Scenario(
        seed=seed,
        topology=Topology(kind="hierarchy", protocols=("myrinet", "sci"),
                          sizes=(3, 8), gateways=(2,)),
        traffic=TrafficSpec(pattern="hotspot", flows=256,
                            mean_interarrival=50.0, size=4096,
                            size_jitter=0.5, kind="reliable"),
        faults=FaultPlan(seed=seed, default=ChannelFaults(drop_p=0.002)),
        gw_stall_timeout=5000.0, scheduler="calendar")


@pytest.mark.xfail(raises=ProcessCrashed, strict=True,
                   reason="a dropped fragment on a gateway-forwarded path "
                          "sets off repeated 5 ms gateway stall abandons; a "
                          "single-fragment transfer makes no ack progress "
                          "in 8 attempts and RetryExhausted ends the run")
@pytest.mark.parametrize("seed", [493806711, 1860012899])
def test_reliable_traffic_survives_lossy_gateways(seed):
    scenario = _reliable_through_lossy_gateways(seed)
    session, engine = run.build(scenario)
    session.run()
    assert len(engine.records) == len(engine.flows)


def _busy_torus(seed: int) -> Scenario:
    return Scenario(
        seed=seed,
        topology=Topology(kind="torus", protocols=("myrinet",),
                          dims=(8, 8, 4)),
        traffic=TrafficSpec(pattern="uniform", flows=128,
                            mean_interarrival=50.0, size=32768),
        scheduler="calendar", gw_stall_timeout=None)


@pytest.mark.xfail(strict=True,
                   reason="flows forwarded through a busy torus can stall "
                          "for good: the simulation drains with no error "
                          "and some flows never complete")
@pytest.mark.parametrize("seed", [33, 3310716982])
def test_busy_torus_completes_every_flow(seed):
    scenario = _busy_torus(seed)
    session, engine = run.build(scenario)
    session.run()
    assert len(engine.records) == len(engine.flows)
