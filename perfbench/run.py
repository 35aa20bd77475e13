"""The repository benchmark: time the DES, the solver and set-up on fixed
scenario workloads, and attribute host time to modules in a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload gateway_bulk --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable report.  The exit code is nonzero when a
correctness check fails.

A workload is a scenario file in ``perfbench/workloads/``.  ``--seed n``
overrides its scenario seed and fault-plan seed: the first replay runs at
seed ``n`` itself, later ones at seeds derived from ``n``.
Every layer is measured from outside, by timing calls into the package's
public entry points: ``Session.from_scenario`` + ``TrafficEngine.start``
(set-up), ``Session.run`` (the DES) and ``repro.solver.solve``.  Host
seconds are CPU seconds scaled by the speed of a fixed reference loop timed
around each call (``perfbench/clock.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import hashlib
import json
import re
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from clock import ReferenceClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_DIR = HERE / "workloads"


@dataclasses.dataclass(frozen=True)
class Unit:
    """One unit of a measuring run: a sliced DES replay of the unit's first
    seed, then ``setups`` set-ups and ``solves`` solves of the unit's first
    seeds (the replay's own set-up counts as the first)."""

    setups: int
    solves: int

    @property
    def seeds(self) -> int:
        return max(self.setups, self.solves)


#: solves and set-ups are cheap next to a DES replay, so each unit takes
#: many of them, each on a seed of its own: the cost of a solve varies from
#: seed to seed (on gateway_bulk by up to 5x), and only many seeds steady
#: the median.
UNITS = {
    "gateway_bulk": Unit(setups=16, solves=48),
    "torus_uniform": Unit(setups=4, solves=8),
    "reliable_lossy": Unit(setups=6, solves=12),
}

#: units a measuring run makes even when they overrun ``--seconds``.
MIN_UNITS = 2

#: raw CPU seconds a slice of a timed DES replay aims at; each slice is
#: scaled by the reference loop timed around it.
SLICE_S = 0.1

#: modules whose self time each traced span reports; other files of any
#: package are summed into ``<span>.other``, C functions into
#: ``<span>.builtins``.
SPAN_MODULES = {
    "setup": ("hw.topogen", "hw.topology", "routing.routes",
              "telemetry.registry", "madeleine.channel", "madeleine.vchannel",
              "madeleine.session", "sim.engine"),
    "des": ("sim.engine", "sim.fluid", "sim.sync", "hw.fabric",
            "madeleine.gateway", "madeleine.gtm", "madeleine.bmm",
            "madeleine.reliable", "madeleine.wire", "madeleine.message",
            "madeleine.tm", "madeleine.channel", "madeleine.vchannel",
            "memory.buffer", "memory.pool", "faults.injector",
            "routing.routes", "telemetry.registry", "traffic.engine"),
    "solver": ("solver.core", "solver.network", "routing.routes",
               "analysis.model"),
}


def import_repro():
    """Import the package from this checkout's ``src`` (never from an
    installed copy); exit nonzero when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}"
                         ) from None
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: repro imported from {repro.__file__},"
                         f" not from {SRC}")


def with_seed(scenario, seed: int):
    """``scenario`` with its scenario seed and fault-plan seed set."""
    return dataclasses.replace(
        scenario, seed=seed,
        faults=dataclasses.replace(scenario.faults, seed=seed))


def load_workload(name: str, seed: int):
    """The workload's scenario at ``seed``."""
    from repro.scenario import load_scenario
    return with_seed(load_scenario(WORKLOAD_DIR / f"{name}.yaml"), seed)


def seed_stream(seed: int, count: int = 4096) -> list[int]:
    """``seed`` itself, then ``count - 1`` seeds derived from it."""
    derived = np.random.SeedSequence(seed).generate_state(count - 1)
    return [seed] + [int(s) for s in derived]


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


# -- one replay ---------------------------------------------------------------
@dataclasses.dataclass
class Outcome:
    """The simulated result of one DES replay, and what it cost the host."""

    seed: int
    flows: int
    #: (flow index, bytes, FCT µs) of every completed flow, by index.
    completed: list
    duration_us: float
    events: int
    events_cancelled: int
    error: Optional[str]
    setup_s: float
    des_s: float

    @property
    def delivered_bytes(self) -> int:
        return sum(nbytes for _i, nbytes, _f in self.completed)

    @property
    def goodput_mbs(self) -> float:
        """Delivered bytes per simulated µs, i.e. MB/s."""
        return self.delivered_bytes / self.duration_us

    @property
    def fcts(self) -> list[float]:
        return [fct for _i, _n, fct in self.completed]

    @property
    def digest(self) -> str:
        text = json.dumps([(i, n, fct.hex()) for i, n, fct in self.completed])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def schedule(self) -> tuple:
        """What every replay of the same seed must reproduce exactly, sliced
        or not."""
        return (self.digest, self.events, self.error)

    def signature(self) -> tuple:
        """:meth:`schedule` and the goodput, which needs the exact end time
        that only an unsliced ``Session.run()`` leaves in ``Session.now``."""
        return (*self.schedule(), self.goodput_mbs.hex())


def build(scenario, telemetry: bool = False):
    """Set-up as a user does it: the stack, the traffic engine, its start."""
    from repro.madeleine import Session
    from repro.traffic import TrafficEngine
    session = Session.from_scenario(scenario, telemetry=telemetry)
    engine = TrafficEngine(session, scenario)
    engine.start()
    return session, engine


def run_des(session) -> Optional[str]:
    """Drive the simulation; a run that dies is reported, not raised."""
    from repro.madeleine import UnpackMismatch
    from repro.sim import ProcessCrashed, RetryExhausted
    try:
        session.run()
    except (ProcessCrashed, RetryExhausted, UnpackMismatch) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def outcome(scenario, session, engine, error, setup_s, des_s) -> Outcome:
    records = sorted(engine.records, key=lambda r: r.flow.index)
    if len({r.flow.index for r in records}) != len(records):
        raise BenchError(f"seed {scenario.seed}: a flow completed twice")
    if any(r.fct <= 0 for r in records):
        raise BenchError(f"seed {scenario.seed}: a flow completed before "
                         f"it arrived")
    sim = session.sim
    return Outcome(seed=scenario.seed, flows=len(engine.flows),
                   completed=[(r.flow.index, r.flow.nbytes, r.fct)
                              for r in records],
                   duration_us=session.now, events=sim.events_processed,
                   events_cancelled=sim.events_cancelled, error=error,
                   setup_s=setup_s, des_s=des_s)


def replay(scenario, telemetry: bool = False):
    """Set up and run one seed untraced; returns (outcome, session)."""
    gc.collect()
    t0 = time.process_time()
    session, engine = build(scenario, telemetry)
    setup_s = time.process_time() - t0
    gc.collect()
    c0 = time.process_time()
    error = run_des(session)
    des_s = time.process_time() - c0
    return outcome(scenario, session, engine, error, setup_s, des_s), session


def timed_solve(scenario):
    from repro.solver import solve
    gc.collect()
    t0 = time.process_time()
    result = solve(scenario)
    return result, time.process_time() - t0


def solver_p90_err(result, out: Outcome) -> float:
    des_p90 = percentile(out.fcts, 90)
    solver_p90 = percentile([f.fct_us for f in result.flows], 90)
    return abs(solver_p90 - des_p90) / des_p90


class BenchError(Exception):
    """A correctness check failed."""


def check_same(reference: Outcome, other: Outcome, what: str,
               sliced: bool = False) -> None:
    key = Outcome.schedule if sliced else Outcome.signature
    if key(other) != key(reference):
        raise BenchError(
            f"seed {reference.seed}: {what} diverged from the first replay: "
            f"{key(other)} != {key(reference)}")


def simulated_metrics(out: Outcome) -> dict:
    """The simulated end-to-end figures of one replay, ``name: (value,
    unit)``; they repeat exactly for a seed."""
    return {"goodput_mbs": (out.goodput_mbs, "MB/s"),
            "fct_p50_us": (percentile(out.fcts, 50), "us"),
            "fct_p90_us": (percentile(out.fcts, 90), "us"),
            "fct_flows": (len(out.completed), "count"),
            "failed_frac": (1 - len(out.completed) / out.flows, "ratio")}


# -- --trace 0: the end-to-end metrics ----------------------------------------
def sliced_replay(clock: ReferenceClock, scenario):
    """Set up and run one seed, timed in reference-scaled seconds.

    ``Session.run(until=h)`` advances the simulation slice by slice, each
    timed on ``clock``; the slice's span of simulated time adapts so that
    it takes about :data:`SLICE_S`.  Slicing leaves the schedule unchanged,
    but the last slice leaves ``Session.now`` at its horizon, so the
    outcome's duration is not exact.  Returns the outcome (with scaled
    set-up and DES seconds), the raw DES seconds and the peak resident MB
    of the set-up and run.
    """
    from repro.madeleine import UnpackMismatch
    from repro.sim import ProcessCrashed, RetryExhausted
    gc.collect()
    reset_peak_rss()
    (session, engine), setup_s, _raw = clock.call(build, scenario)
    gc.collect()
    sim = session.sim
    des_s = raw_s = 0.0
    span = 1.0
    error = None
    try:
        while sim.peek() != float("inf"):
            _r, scaled, raw = clock.call(session.run, sim.peek() + span)
            des_s += scaled
            raw_s += raw
            span *= min(4.0, max(0.25, SLICE_S / max(raw, 1e-6)))
    except (ProcessCrashed, RetryExhausted, UnpackMismatch) as exc:
        error = f"{type(exc).__name__}: {exc}"
    out = outcome(scenario, session, engine, error, setup_s, des_s)
    return out, raw_s, peak_rss_mb()


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Time set-up, the DES and the solver, unit after unit, for about
    ``seconds``: a unit starts if it should end within half a unit of
    ``seconds`` (at least :data:`MIN_UNITS` units).

    Every unit takes fresh seeds from the stream that starts at ``seed``.
    ``des_host_s`` is the mean over the run's DES replays, since their
    simulated work differs from seed to seed; ``setup_s`` and
    ``solver_host_s`` are medians over all the run's set-ups and solves.
    """
    from repro.solver import solve
    unit = UNITS[workload]
    base = load_workload(workload, seed)
    start = time.perf_counter()
    clock = ReferenceClock()
    seeds = iter(seed_stream(seed))
    des_t, raw_t, rss_t, setup_t, solve_t, costs = [], [], [], [], [], []
    attempted = failed = 0
    print(f"{'seed':>10} {'flows':>5} {'done':>5} {'events':>7} "
          f"{'fct_p50_us':>12} {'fct_p90_us':>12} {'solver_err':>10} "
          f"{'des_s':>7} {'raw_s':>7}  error")
    while (len(costs) < MIN_UNITS or time.perf_counter() - start
           + statistics.median(costs) / 2 <= seconds):
        t0 = time.perf_counter()
        scenarios = [with_seed(base, next(seeds)) for _ in range(unit.seeds)]
        out, raw_s, rss = sliced_replay(clock, scenarios[0])
        des_t.append(out.des_s)
        rss_t.append(rss)
        raw_t.append(raw_s)
        setup_t.append(out.setup_s)
        attempted += out.flows
        failed += out.flows - len(out.completed)
        for scenario in scenarios[1:unit.setups]:
            gc.collect()
            setup_t.append(clock.call(build, scenario)[1])
        for k, scenario in enumerate(scenarios[:unit.solves]):
            gc.collect()
            result, solve_s, _raw = clock.call(solve, scenario)
            solve_t.append(solve_s)
            if k == 0:
                err = solver_p90_err(result, out)
        costs.append(time.perf_counter() - t0)
        print(f"{out.seed:>10} {out.flows:>5} {len(out.completed):>5} "
              f"{out.events:>7} {percentile(out.fcts, 50):>12.0f} "
              f"{percentile(out.fcts, 90):>12.0f} {err:>10.3f} "
              f"{out.des_s:>7.3f} {raw_s:>7.3f}  {out.error or ''}")
    print(f"{len(des_t)} DES replays, {len(solve_t)} solves and "
          f"{len(setup_t)} set-ups in {time.perf_counter() - start:.1f} s;"
          f" raw CPU s of a DES replay: mean {statistics.fmean(raw_t):.3f}")
    metrics = {
        "des_host_s": (statistics.fmean(des_t), "s"),
        "setup_s": (statistics.median(setup_t), "s"),
        "solver_host_s": (statistics.median(solve_t), "s"),
        "peak_rss_mb": (statistics.median(rss_t), "MB"),
        "completed_frac": (1 - failed / attempted, "ratio"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def reset_peak_rss() -> None:
    """Reset the kernel's peak-resident mark of this process (Linux)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """Peak resident set of this process since :func:`reset_peak_rss`."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024


# -- --trace 1: the per-layer metrics -----------------------------------------
def module_of(filename: str) -> str:
    """``.../src/repro/sim/fluid.py`` -> ``sim.fluid``; ``~`` (C code) ->
    ``builtins``; anything outside the package -> ``other``."""
    if filename == "~":
        return "builtins"
    path = Path(filename)
    try:
        rel = path.resolve().relative_to((SRC / "repro").resolve())
    except ValueError:
        return "other"
    parts = rel.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "other"


def attribute(span: str, profile: cProfile.Profile) -> dict:
    """Self-time share and call count per listed module within one span."""
    profile.create_stats()
    tottime: dict[str, float] = {}
    calls: dict[str, int] = {}
    listed = SPAN_MODULES[span]
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in \
            profile.stats.items():
        module = module_of(filename)
        if module not in listed and module != "builtins":
            module = "other"
        tottime[module] = tottime.get(module, 0.0) + tt
        calls[module] = calls.get(module, 0) + nc
    total = sum(tottime.values())
    out = {}
    for module in (*listed, "other", "builtins"):
        out[f"{span}.{module}.self_share"] = (
            tottime.get(module, 0.0) / total, "ratio")
        out[f"{span}.{module}.calls"] = (calls.get(module, 0), "count")
    return out


def traced(span: str, fn, *args):
    """Call ``fn`` under cProfile; returns (result, attribution, seconds)."""
    profile = cProfile.Profile()
    gc.collect()
    t0 = time.process_time()
    profile.enable()
    try:
        result = fn(*args)
    finally:
        profile.disable()
    return result, attribute(span, profile), time.process_time() - t0


def counters(session, out: Outcome) -> dict:
    """The program's own counters, read after a telemetry-on run."""
    m = session.metrics
    fnet = session.world.fnet

    def hist_mean(name):
        series = m.series(name)
        count = sum(h.count for h in series)
        return sum(h.total for h in series) / count if count else 0.0

    occupancy = [g.hwm for g in m.series("gateway.occupancy")]
    return {
        "fluid.epochs": (fnet.recompute_epochs, "count"),
        "fluid.mean_live_flows": (
            fnet.live_flow_epochs / fnet.recompute_epochs
            if fnet.recompute_epochs else 0.0, "flows"),
        "fluid.recompute_fraction": (
            fnet.recomputed_flows / fnet.live_flow_epochs
            if fnet.live_flow_epochs else 0.0, "ratio"),
        "engine.events": (out.events, "count"),
        "engine.events_cancelled": (out.events_cancelled, "count"),
        "wire.fragments": (m.total("wire.fragments"), "count"),
        "gateway.messages_forwarded": (
            m.total("gateway.messages_forwarded"), "count"),
        "gateway.items_forwarded": (
            m.total("gateway.items_forwarded"), "count"),
        "gateway.credit_stalls": (m.total("gateway.credit_stalls"), "count"),
        "gateway.occupancy_hwm": (max(occupancy, default=0), "count"),
        "pool.acquire_waits": (m.total("pool.acquire_waits"), "count"),
        "reliable.attempts": (m.total("reliable.attempts"), "count"),
        "reliable.retransmits": (m.total("reliable.retransmits"), "count"),
        "reliable.ack_latency_us_mean": (
            hist_mean("reliable.ack_latency_us"), "us"),
        "faults.fragments_dropped": (
            m.total("faults.fragments_dropped"), "count"),
        "routing.recomputes": (m.total("routing.recomputes"), "count"),
    }


def check_telemetry(session, out: Outcome, reliable: bool) -> None:
    """The program's own traffic counters agree with the engine's records."""
    m = session.metrics
    pairs = [("traffic.flows_completed", len(out.completed)),
             ("traffic.bytes_delivered", out.delivered_bytes)]
    if reliable:
        pairs.append(("reliable.deliveries", len(out.completed)))
    for name, expected in pairs:
        if m.total(name) != expected:
            raise BenchError(f"seed {out.seed}: {name} reads {m.total(name)}"
                             f", the flow records say {expected}")


def trace(workload: str, seed: int) -> dict:
    """Replay seed ``seed`` twice untraced, once sliced as the measuring
    run replays it, then under cProfile (spans ``setup``, ``des``,
    ``solver``), then with telemetry on; every later replay must reproduce
    the first exactly."""
    from repro.solver import solve
    scenario = load_workload(workload, seed)
    reference, _session = replay(scenario)
    again, _session = replay(scenario)
    check_same(reference, again, "a repeated replay")
    sliced = sliced_replay(ReferenceClock(), scenario)[0]
    check_same(reference, sliced, "the sliced replay", sliced=True)
    untraced_s = (reference.des_s + again.des_s) / 2
    (session, engine), setup_attr, _s = traced("setup", build, scenario)
    error, des_attr, traced_s = traced("des", run_des, session)
    traced_out = outcome(scenario, session, engine, error, 0.0, traced_s)
    check_same(reference, traced_out, "the traced run")
    result, solver_attr, _s = traced("solver", solve, scenario)
    on_out, on_session = replay(scenario, telemetry=True)
    check_same(reference, on_out, "the telemetry-on run")
    check_telemetry(on_session, on_out, scenario.traffic.kind == "reliable")
    sizes = result.component_sizes or {}
    flows = sum(size * n for size, n in sizes.items())
    simulated = simulated_metrics(reference)
    del simulated["failed_frac"]    # reported end to end as completed_frac
    metrics = {
        **simulated,
        "solver_fct_p90_err": (solver_p90_err(result, reference), "ratio"),
        **counters(on_session, on_out),
        "engine.host_us_per_event": (
            untraced_s / reference.events * 1e6, "us"),
        "engine.events_per_s": (reference.events / untraced_s, "1/s"),
        "solver.epochs": (result.recomputes, "count"),
        "solver.recompute_fraction": (
            result.summary()["recompute_fraction"], "ratio"),
        "solver.mean_component_flows": (
            flows / sum(sizes.values()) if sizes else 0.0, "flows"),
        "telemetry.on_overhead": (on_out.des_s / untraced_s, "ratio"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
        **setup_attr, **des_attr, **solver_attr,
    }
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:44s} {value:>16.6g} {unit}")
    failed = reference.flows - len(reference.completed)
    return {"attempted": 5 * reference.flows, "failed": 5 * failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_repro()
    try:
        if args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
